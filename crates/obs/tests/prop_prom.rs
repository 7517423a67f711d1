//! Property suite for the Prometheus text exposition: seeded pseudo-random
//! registry states must render to documents that pass the in-crate
//! validator and parse back to the snapshot's values — including hostile
//! metric names (mangling collisions), label values needing escapes,
//! duplicate histogram states (merged into one series), and zero-count
//! histograms.
//!
//! The generator is a hand-rolled splitmix64 so the obs crate stays
//! dependency-free even in its tests.

use cordoba_obs::metrics::HISTOGRAM_BUCKETS;
use cordoba_obs::{
    parse_prometheus_text, render_snapshot, validate_prometheus_text, CounterState, HistogramState,
    PromDoc, RegistrySnapshot,
};

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A metric name drawn from an alphabet that forces mangling often:
/// slashes, dots, dashes, leading digits, and occasional collisions by
/// construction (`a/b` vs `a.b` mangle identically).
fn random_name(rng: &mut Rng) -> String {
    const STEMS: [&str; 6] = ["core/sweep", "core.sweep", "9lives", "events-x", "a", "Ω/б"];
    const TAILS: [&str; 4] = ["", "/total", ".total", "_total"];
    format!(
        "{}{}",
        STEMS[rng.below(STEMS.len())],
        TAILS[rng.below(TAILS.len())]
    )
}

/// A label value exercising every escape class the exposition defines.
fn random_label_value(rng: &mut Rng) -> String {
    const VALUES: [&str; 6] = [
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline",
        "",
        "mixed \\ \"q\"\nend",
    ];
    VALUES[rng.below(VALUES.len())].to_owned()
}

fn random_counters(rng: &mut Rng) -> Vec<CounterState> {
    (0..rng.below(6))
        .map(|_| {
            let labels = if rng.chance(50) {
                vec![("tier".to_owned(), random_label_value(rng))]
            } else {
                Vec::new()
            };
            CounterState {
                name: random_name(rng),
                labels,
                value: rng.next() % 1_000_000,
            }
        })
        .collect()
}

/// A histogram state consistent the way the live registry guarantees:
/// `count` is exactly the sum of the bucket counts.
fn random_histogram(rng: &mut Rng) -> HistogramState {
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    if !rng.chance(20) {
        for _ in 0..1 + rng.below(8) {
            buckets[rng.below(HISTOGRAM_BUCKETS)] += rng.next() % 1_000;
        }
    }
    let count: u64 = buckets.iter().sum();
    HistogramState {
        name: random_name(rng),
        count,
        sum: rng.next() % 10_000_000,
        buckets,
    }
}

fn random_snapshot(rng: &mut Rng) -> RegistrySnapshot {
    RegistrySnapshot {
        counters: random_counters(rng),
        histograms: (0..rng.below(4)).map(|_| random_histogram(rng)).collect(),
    }
}

/// Sum of every sample value whose (possibly suffixed) name ends with
/// `suffix` — or of plain samples of the given parsed type when
/// `suffix` is empty.
fn sum_of(doc: &PromDoc, kind: &str, suffix: &str) -> f64 {
    let families: Vec<&str> = doc
        .types
        .iter()
        .filter(|(_, k)| k == kind)
        .map(|(name, _)| name.as_str())
        .collect();
    doc.samples
        .iter()
        .filter(|s| {
            families.iter().any(|f| {
                if suffix.is_empty() {
                    s.name == *f
                } else {
                    s.name.strip_suffix(suffix) == Some(f)
                }
            })
        })
        .map(|s| s.value)
        .sum()
}

#[test]
fn seeded_snapshots_render_validate_and_reconcile() {
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        let snapshot = random_snapshot(&mut rng);
        let text = render_snapshot(&snapshot);

        // Rendering is deterministic.
        assert_eq!(text, render_snapshot(&snapshot), "seed {seed}");

        // The in-crate validator accepts every rendering.
        let check = validate_prometheus_text(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: invalid rendering: {e}\n{text}"));

        let doc = parse_prometheus_text(&text).unwrap();

        // Merging and disambiguation never lose or invent counts: the
        // counter samples sum to the snapshot's total.
        let counter_total: u64 = snapshot.counters.iter().map(|c| c.value).sum();
        let rendered_total = sum_of(&doc, "counter", "");
        assert!(
            (rendered_total - counter_total as f64).abs() < 0.5,
            "seed {seed}: counter mass changed: {rendered_total} vs {counter_total}"
        );

        // Histogram observation mass is conserved in `_count` and `_sum`.
        let hist_count: u64 = snapshot.histograms.iter().map(|h| h.count).sum();
        let hist_sum: u64 = snapshot.histograms.iter().map(|h| h.sum).sum();
        assert!(
            (sum_of(&doc, "histogram", "_count") - hist_count as f64).abs() < 0.5,
            "seed {seed}: histogram count mass changed"
        );
        assert!(
            (sum_of(&doc, "histogram", "_sum") - hist_sum as f64).abs() < 0.5,
            "seed {seed}: histogram sum mass changed"
        );
        assert_eq!(
            check.histograms,
            {
                let names: std::collections::BTreeSet<String> = snapshot
                    .histograms
                    .iter()
                    .map(|h| cordoba_obs::prom::mangle_metric_name(&h.name))
                    .collect();
                names.len()
            },
            "seed {seed}: histogram family count"
        );
    }
}

#[test]
fn collision_free_snapshots_round_trip_exact_values() {
    for seed in 0..100u64 {
        let mut rng = Rng::new(0xC0FFEE ^ seed);
        // Legal, unique names: parsing must recover each value exactly.
        let counters: Vec<CounterState> = (0..1 + rng.below(5))
            .map(|i| CounterState {
                name: format!("unique_counter_{i}"),
                labels: vec![("tier".to_owned(), random_label_value(&mut rng))],
                value: rng.next(),
            })
            .collect();
        let histogram = random_histogram(&mut rng);
        let snapshot = RegistrySnapshot {
            counters: counters.clone(),
            histograms: vec![HistogramState {
                name: "unique_histogram".to_owned(),
                ..histogram
            }],
        };
        let text = render_snapshot(&snapshot);
        validate_prometheus_text(&text).unwrap();
        let doc = parse_prometheus_text(&text).unwrap();

        for counter in &counters {
            let sample = doc
                .samples
                .iter()
                .find(|s| s.name == counter.name && s.labels == counter.labels)
                .unwrap_or_else(|| panic!("seed {seed}: lost {}", counter.name));
            // u64 -> f64 is lossy above 2^53; compare through the same cast.
            // cordoba-lint: allow(lossy-cast) — deliberate, mirrors the parse
            assert_eq!(sample.value, counter.value as f64, "seed {seed}");
        }

        // Per-bucket counts reconstruct from the cumulative `le` series.
        let hist = &snapshot.histograms[0];
        let mut bucket_samples: Vec<&cordoba_obs::PromSample> = doc
            .samples
            .iter()
            .filter(|s| s.name == "unique_histogram_bucket")
            .collect();
        bucket_samples.pop(); // drop +Inf (always last in render order)
        let mut previous = 0.0;
        let mut reconstructed = vec![0u64; HISTOGRAM_BUCKETS];
        for sample in bucket_samples {
            let le: u64 = sample.labels[0].1.parse().unwrap();
            let index = match le {
                0 => 0,
                u64::MAX => HISTOGRAM_BUCKETS - 1,
                n => (64 - (n + 1).leading_zeros() as usize) - 1,
            };
            // cordoba-lint: allow(lossy-cast) — counts stay far below 2^53 here
            reconstructed[index] = (sample.value - previous) as u64;
            previous = sample.value;
        }
        let nonzero = |b: &[u64]| -> Vec<(usize, u64)> {
            b.iter()
                .copied()
                .enumerate()
                .filter(|&(_, n)| n > 0)
                .collect()
        };
        assert_eq!(
            nonzero(&reconstructed),
            nonzero(&hist.buckets),
            "seed {seed}: bucket counts did not round-trip"
        );
    }
}

#[test]
fn zero_count_histograms_expose_only_the_inf_bucket() {
    let snapshot = RegistrySnapshot {
        histograms: vec![HistogramState {
            name: "empty_histogram".to_owned(),
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }],
        ..RegistrySnapshot::default()
    };
    let text = render_snapshot(&snapshot);
    validate_prometheus_text(&text).unwrap();
    let doc = parse_prometheus_text(&text).unwrap();
    let buckets: Vec<_> = doc
        .samples
        .iter()
        .filter(|s| s.name == "empty_histogram_bucket")
        .collect();
    assert_eq!(buckets.len(), 1, "{text}");
    assert_eq!(
        buckets[0].labels,
        vec![("le".to_owned(), "+Inf".to_owned())]
    );
    assert_eq!(buckets[0].value, 0.0);
}

#[test]
fn hostile_label_values_round_trip_through_escaping() {
    for seed in 0..50u64 {
        let mut rng = Rng::new(0xE5C ^ seed);
        let value = random_label_value(&mut rng);
        let snapshot = RegistrySnapshot {
            counters: vec![CounterState {
                name: "escaped".to_owned(),
                labels: vec![("v".to_owned(), value.clone())],
                value: 7,
            }],
            ..RegistrySnapshot::default()
        };
        let text = render_snapshot(&snapshot);
        validate_prometheus_text(&text).unwrap();
        let doc = parse_prometheus_text(&text).unwrap();
        assert_eq!(doc.samples[0].labels[0].1, value, "seed {seed}: {text:?}");
    }
}

#[test]
fn mangling_collisions_merge_with_disambiguating_labels() {
    let snapshot = RegistrySnapshot {
        counters: vec![
            CounterState {
                name: "a/b".to_owned(),
                labels: Vec::new(),
                value: 3,
            },
            CounterState {
                name: "a.b".to_owned(),
                labels: Vec::new(),
                value: 4,
            },
        ],
        ..RegistrySnapshot::default()
    };
    let text = render_snapshot(&snapshot);
    let check = validate_prometheus_text(&text).unwrap();
    assert_eq!(check.counters, 1, "one merged family:\n{text}");
    let doc = parse_prometheus_text(&text).unwrap();
    let mut by_source: Vec<(String, f64)> = doc
        .samples
        .iter()
        .map(|s| (s.labels[0].1.clone(), s.value))
        .collect();
    by_source.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(
        by_source,
        vec![("a.b".to_owned(), 4.0), ("a/b".to_owned(), 3.0)]
    );
}
