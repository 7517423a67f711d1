//! Closed-loop benchmark of the CORDOBA workspace: one client, one op in
//! flight, every pipeline pinned to one worker thread. See `METRICS.md`
//! beside this package for the metric reference and the workload reasons.
//
// cordoba-lint: allow-file(wall-clock, ambient-input, lossy-cast) —
// a benchmark harness: it times host work with the wall clock, reads /proc
// for memory and mounts, and turns counts into ratios.

pub mod gen;
pub mod trace;
pub mod workloads;

use cordoba::metrics::DesignPoint;
use std::path::Path;
use std::time::Instant;

/// Input sizes: `Full` is what the benchmark measures, `Small` keeps the
/// package's own tests fast while running the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (recorded in the run's `env` line).
    Full,
    /// Test sizes.
    Small,
}

/// An order-sensitive 64-bit fingerprint of result bits (FNV-1a over
/// 64-bit words, then a final avalanche).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes in one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes in an `f64` by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Mixes in a byte string (length-prefixed).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// Mixes in every field of a design point.
    pub fn point(&mut self, p: &DesignPoint) {
        self.bytes(p.name.as_bytes());
        self.f64(p.delay.value());
        self.f64(p.energy.value());
        self.f64(p.embodied.value());
        self.f64(p.area.value());
    }

    /// Mixes in a list of indices.
    pub fn indices(&mut self, idx: &[usize]) {
        self.word(idx.len() as u64);
        idx.iter().for_each(|&i| self.word(i as u64));
    }

    /// The fingerprint value.
    #[must_use]
    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^ (z >> 33)
    }
}

/// A fixed pure-integer loop, timed in milliseconds. It touches no memory
/// beyond registers, so it moves only with the host's CPU speed; the
/// benchmark reports it beside the op times and never rescales them.
#[must_use]
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`), or `unknown`.
#[must_use]
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?.replace("\\040", " ");
            let fstype = fields.next()?;
            path.starts_with(&mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of ascending `sorted`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}
