//! Trace sanitization: turn a messy real-world carbon-intensity feed into a
//! valid [`TraceCi`] plus a repair report.
//!
//! Real grid-intensity feeds (ElectricityMaps, WattTime, PGLib-CO2-style
//! datasets) routinely contain out-of-order rows, duplicated timestamps,
//! missing intervals, sensor glitches (NaN, negative readings), and
//! transient spikes. [`TraceCi::new`] deliberately rejects all of those; the
//! sanitizer in this module repairs what it can, *counts every repair* in a
//! [`SanitizeReport`], and only fails when nothing salvageable remains.
//!
//! The pipeline, in order:
//!
//! 1. drop samples with non-finite timestamps or intensities;
//! 2. drop (or, under [`SanitizePolicy::clamp_negative`], clamp to zero)
//!    negative intensities;
//! 3. sort by timestamp (noting whether the input was out of order);
//! 4. merge duplicate timestamps into their mean intensity;
//! 5. optionally clip outliers beyond `outlier_sigma` robust standard
//!    deviations (median ± k·1.4826·MAD);
//! 6. optionally detect coverage gaps longer than `max_gap`.

use crate::error::CarbonError;
use crate::intensity::TraceCi;
use crate::units::{count_f64, CarbonIntensity, Seconds};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Scale factor turning a median absolute deviation into a consistent
/// estimate of the standard deviation for normally distributed data.
const MAD_TO_SIGMA: f64 = 1.4826;

/// Repair policy for [`TraceCi::sanitize`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SanitizePolicy {
    /// Clamp negative intensities to zero instead of dropping the sample.
    pub clamp_negative: bool,
    /// Clip intensities further than this many robust standard deviations
    /// from the median back to the boundary. `None` disables clipping.
    pub outlier_sigma: Option<f64>,
    /// Report a coverage gap wherever consecutive samples are further apart
    /// than this. `None` disables gap detection.
    pub max_gap: Option<Seconds>,
}

impl SanitizePolicy {
    /// The permissive default: repair everything repairable, no outlier
    /// clipping, no gap policy.
    #[must_use]
    pub fn lenient() -> Self {
        Self {
            clamp_negative: true,
            outlier_sigma: None,
            max_gap: None,
        }
    }

    /// A production-feed policy: clamp negatives, clip beyond 6 robust
    /// sigmas, flag gaps longer than 2 hours (typical feed cadence is
    /// 5-60 minutes).
    #[must_use]
    pub fn production() -> Self {
        Self {
            clamp_negative: true,
            outlier_sigma: Some(6.0),
            max_gap: Some(Seconds::from_hours(2.0)),
        }
    }

    /// Sets the outlier threshold.
    #[must_use]
    pub fn with_outlier_sigma(mut self, sigma: f64) -> Self {
        self.outlier_sigma = Some(sigma);
        self
    }

    /// Sets the gap-detection threshold.
    #[must_use]
    pub fn with_max_gap(mut self, gap: Seconds) -> Self {
        self.max_gap = Some(gap);
        self
    }
}

impl Default for SanitizePolicy {
    fn default() -> Self {
        Self::lenient()
    }
}

/// One detected coverage gap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gap {
    /// Timestamp of the last sample before the gap.
    pub start: Seconds,
    /// Length of the gap.
    pub length: Seconds,
}

/// Counts of every repair the sanitizer performed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SanitizeReport {
    /// Samples in the raw input.
    pub input_samples: usize,
    /// Samples in the sanitized trace.
    pub output_samples: usize,
    /// Samples dropped for NaN/infinite timestamps or intensities.
    pub dropped_non_finite: usize,
    /// Samples dropped for negative intensities (policy `clamp_negative`
    /// off).
    pub dropped_negative: usize,
    /// Negative intensities clamped to zero (policy `clamp_negative` on).
    pub clamped_negative: usize,
    /// Duplicate-timestamp samples merged away.
    pub deduplicated: usize,
    /// `true` when the input needed re-sorting.
    pub reordered: bool,
    /// Intensities clipped back to the outlier boundary.
    pub clipped_outliers: usize,
    /// Coverage gaps longer than the policy's `max_gap`.
    pub gaps: Vec<Gap>,
}

impl SanitizeReport {
    /// `true` when the input was already a valid trace needing no repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.repairs() == 0 && !self.reordered && self.gaps.is_empty()
    }

    /// Total number of samples repaired or removed.
    #[must_use]
    pub fn repairs(&self) -> usize {
        self.dropped_non_finite
            + self.dropped_negative
            + self.clamped_negative
            + self.deduplicated
            + self.clipped_outliers
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sanitized {} -> {} samples",
            self.input_samples, self.output_samples
        )?;
        writeln!(f, "  non-finite dropped: {}", self.dropped_non_finite)?;
        writeln!(
            f,
            "  negative:           {} dropped, {} clamped to zero",
            self.dropped_negative, self.clamped_negative
        )?;
        writeln!(f, "  duplicates merged:  {}", self.deduplicated)?;
        writeln!(
            f,
            "  out of order:       {}",
            if self.reordered {
                "yes (re-sorted)"
            } else {
                "no"
            }
        )?;
        writeln!(f, "  outliers clipped:   {}", self.clipped_outliers)?;
        write!(f, "  coverage gaps:      {}", self.gaps.len())?;
        for gap in &self.gaps {
            write!(
                f,
                "\n    at {:.0} s lasting {:.0} s",
                gap.start.value(),
                gap.length.value()
            )?;
        }
        Ok(())
    }
}

/// Median of a sorted slice; `None` when empty.
fn median_of_sorted(sorted: &[f64]) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        match (sorted.get(mid - 1), sorted.get(mid)) {
            (Some(a), Some(b)) => Some((a + b) / 2.0),
            _ => None,
        }
    }
}

impl TraceCi {
    /// Repairs a messy sample list into a valid trace, reporting every
    /// repair, instead of rejecting imperfect input outright the way
    /// [`TraceCi::new`] does.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::Empty`] when no valid sample survives
    /// sanitization (every row was non-finite, or negative under a dropping
    /// policy).
    pub fn sanitize(
        samples: Vec<(Seconds, CarbonIntensity)>,
        policy: &SanitizePolicy,
    ) -> Result<(Self, SanitizeReport), CarbonError> {
        let _span = cordoba_obs::span_with(
            "carbon/sanitize",
            "samples",
            u64::try_from(samples.len()).unwrap_or(u64::MAX),
        );
        let mut report = SanitizeReport {
            input_samples: samples.len(),
            ..SanitizeReport::default()
        };

        // 1-2: drop non-finite rows, handle negatives.
        let mut clean: Vec<(Seconds, CarbonIntensity)> = Vec::with_capacity(samples.len());
        for (t, ci) in samples {
            if !t.is_finite() || !ci.is_finite() {
                report.dropped_non_finite += 1;
            } else if ci.value() < 0.0 {
                if policy.clamp_negative {
                    report.clamped_negative += 1;
                    clean.push((t, CarbonIntensity::ZERO));
                } else {
                    report.dropped_negative += 1;
                }
            } else {
                clean.push((t, ci));
            }
        }

        // 3: sort by time.
        let sorted_already = clean.windows(2).all(|w| match (w.first(), w.get(1)) {
            (Some(a), Some(b)) => a.0.value() <= b.0.value(),
            _ => true,
        });
        if !sorted_already {
            report.reordered = true;
            clean.sort_by(|a, b| a.0.value().total_cmp(&b.0.value()));
        }

        // 4: merge duplicate timestamps into their mean.
        let mut merged: Vec<(Seconds, CarbonIntensity)> = Vec::with_capacity(clean.len());
        let mut i = 0;
        while i < clean.len() {
            let Some(&(t, first_ci)) = clean.get(i) else {
                break;
            };
            let mut sum = first_ci;
            let mut run = 1usize;
            // Duplicate timestamps are exact repeats of the same feed row,
            // so bitwise equality is the intended test.
            while clean
                .get(i + run)
                .is_some_and(|&(t2, _)| t2.value() == t.value())
            {
                if let Some(&(_, ci2)) = clean.get(i + run) {
                    sum += ci2;
                }
                run += 1;
            }
            merged.push((t, sum / count_f64(run)));
            report.deduplicated += run - 1;
            i += run;
        }

        // 5: clip outliers against median ± k·1.4826·MAD.
        if let Some(sigma) = policy.outlier_sigma {
            if sigma.is_finite() && sigma > 0.0 && merged.len() >= 3 {
                let mut values: Vec<f64> = merged.iter().map(|&(_, ci)| ci.value()).collect();
                values.sort_by(f64::total_cmp);
                if let Some(median) = median_of_sorted(&values) {
                    let mut deviations: Vec<f64> =
                        values.iter().map(|v| (v - median).abs()).collect();
                    deviations.sort_by(f64::total_cmp);
                    let spread = median_of_sorted(&deviations).unwrap_or(0.0) * MAD_TO_SIGMA;
                    if spread > 0.0 {
                        let lo = CarbonIntensity::new((median - sigma * spread).max(0.0));
                        let hi = CarbonIntensity::new(median + sigma * spread);
                        for (_, ci) in &mut merged {
                            let clipped = ci.clamp(lo, hi);
                            if clipped != *ci {
                                report.clipped_outliers += 1;
                                *ci = clipped;
                            }
                        }
                    }
                }
            }
        }

        // 6: gap detection.
        if let Some(max_gap) = policy.max_gap {
            if max_gap.is_positive() {
                for w in merged.windows(2) {
                    if let (Some(&(t0, _)), Some(&(t1, _))) = (w.first(), w.get(1)) {
                        let dt = t1 - t0;
                        if dt > max_gap {
                            report.gaps.push(Gap {
                                start: t0,
                                length: dt,
                            });
                        }
                    }
                }
            }
        }

        report.output_samples = merged.len();
        if !report.is_clean() {
            let dropped = report.dropped_non_finite + report.dropped_negative;
            cordoba_obs::record(&cordoba_obs::Event::SanitizeRejection {
                dropped: u64::try_from(dropped).unwrap_or(u64::MAX),
                repaired: u64::try_from(report.repairs() - dropped).unwrap_or(u64::MAX),
            });
        }
        let trace = Self::new(merged)?;
        Ok((trace, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integral::CiIntegral;

    fn s(t: f64, ci: f64) -> (Seconds, CarbonIntensity) {
        (Seconds::new(t), CarbonIntensity::new(ci))
    }

    #[test]
    fn clean_trace_passes_untouched() {
        let raw = vec![s(0.0, 100.0), s(10.0, 200.0), s(20.0, 150.0)];
        let (trace, report) = TraceCi::sanitize(raw, &SanitizePolicy::lenient()).unwrap();
        assert_eq!(trace.len(), 3);
        assert!(report.is_clean());
        assert_eq!(report.repairs(), 0);
        assert_eq!(report.input_samples, 3);
        assert_eq!(report.output_samples, 3);
    }

    #[test]
    fn drops_non_finite_samples() {
        let raw = vec![
            s(0.0, 100.0),
            s(10.0, f64::NAN),
            s(f64::INFINITY, 50.0),
            s(20.0, 150.0),
        ];
        let (trace, report) = TraceCi::sanitize(raw, &SanitizePolicy::lenient()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(report.dropped_non_finite, 2);
    }

    #[test]
    fn negative_policy_clamps_or_drops() {
        let raw = vec![s(0.0, 100.0), s(10.0, -5.0)];
        let clamping = SanitizePolicy::lenient();
        let (trace, report) = TraceCi::sanitize(raw.clone(), &clamping).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(report.clamped_negative, 1);
        assert_eq!(trace.at(Seconds::new(10.0)), CarbonIntensity::ZERO);

        let dropping = SanitizePolicy {
            clamp_negative: false,
            ..SanitizePolicy::lenient()
        };
        let (trace, report) = TraceCi::sanitize(raw, &dropping).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(report.dropped_negative, 1);
    }

    #[test]
    fn sorts_and_merges_duplicates() {
        let raw = vec![s(20.0, 300.0), s(0.0, 100.0), s(20.0, 100.0), s(10.0, 50.0)];
        let (trace, report) = TraceCi::sanitize(raw, &SanitizePolicy::lenient()).unwrap();
        assert!(report.reordered);
        assert_eq!(report.deduplicated, 1);
        assert_eq!(trace.len(), 3);
        // Duplicates at t=20 merged into their mean.
        assert_eq!(trace.at(Seconds::new(20.0)), CarbonIntensity::new(200.0));
    }

    #[test]
    fn clips_spikes_but_keeps_normal_variation() {
        let mut raw: Vec<_> = (0..50)
            .map(|i| s(f64::from(i), 400.0 + f64::from(i % 5)))
            .collect();
        raw.push(s(60.0, 1e9)); // sensor spike
        let policy = SanitizePolicy::lenient().with_outlier_sigma(6.0);
        let (trace, report) = TraceCi::sanitize(raw, &policy).unwrap();
        assert_eq!(report.clipped_outliers, 1);
        assert!(trace.at(Seconds::new(60.0)).value() < 1000.0);
    }

    #[test]
    fn constant_trace_is_never_clipped() {
        let raw: Vec<_> = (0..10).map(|i| s(f64::from(i), 380.0)).collect();
        let policy = SanitizePolicy::lenient().with_outlier_sigma(3.0);
        let (_, report) = TraceCi::sanitize(raw, &policy).unwrap();
        assert_eq!(report.clipped_outliers, 0);
    }

    #[test]
    fn detects_gaps() {
        let raw = vec![s(0.0, 100.0), s(10.0, 100.0), s(5000.0, 100.0)];
        let policy = SanitizePolicy::lenient().with_max_gap(Seconds::new(60.0));
        let (_, report) = TraceCi::sanitize(raw, &policy).unwrap();
        assert_eq!(report.gaps.len(), 1);
        assert_eq!(report.gaps[0].start, Seconds::new(10.0));
        assert_eq!(report.gaps[0].length, Seconds::new(4990.0));
        assert!(!report.is_clean());
    }

    #[test]
    fn all_invalid_input_errors() {
        let raw = vec![s(0.0, f64::NAN), s(1.0, f64::INFINITY)];
        let err = TraceCi::sanitize(raw, &SanitizePolicy::lenient()).unwrap_err();
        assert!(matches!(err, CarbonError::Empty { .. }));
        assert!(TraceCi::sanitize(vec![], &SanitizePolicy::lenient()).is_err());
    }

    #[test]
    fn report_display_mentions_each_repair() {
        let raw = vec![s(5.0, -1.0), s(0.0, f64::NAN), s(1.0, 10.0), s(1.0, 20.0)];
        let (_, report) = TraceCi::sanitize(raw, &SanitizePolicy::lenient()).unwrap();
        let text = report.to_string();
        assert!(text.contains("non-finite dropped: 1"));
        assert!(text.contains("clamped to zero"));
        assert!(text.contains("duplicates merged:  1"));
    }

    #[test]
    fn production_policy_has_gap_and_outlier_rules() {
        let p = SanitizePolicy::production();
        assert!(p.clamp_negative);
        assert!(p.outlier_sigma.is_some());
        assert!(p.max_gap.is_some());
    }
}
