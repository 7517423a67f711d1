//! Embodied-carbon memoization for multi-task sweeps.
//!
//! [`AcceleratorConfig::embodied_carbon`] is task-independent: the yield,
//! wafer, and packaging math depends only on the die geometry and the
//! [`EmbodiedModel`], never on the workload. Multi-task design-space sweeps
//! nevertheless recompute it once per (config, task) pair, so a 121-config x
//! 29-task `OpTimeSweep` grid runs the same assembly accounting 29x per
//! design point. [`EmbodiedCache`] memoizes the result per configuration
//! *for one model*: each cache instance is bound to the [`EmbodiedModel`] it
//! was constructed with, which makes invalidation trivial — a different
//! model means a different cache, never a stale entry.
//!
//! The cache key is the exact shape: every field `embodied_carbon` reads
//! from the configuration (MAC units, SRAM capacity, integration style and
//! die count, and the node and three area fields of
//! [`TechTuning`](crate::params::TechTuning)), floats as IEEE-754 bit
//! patterns. The display name is deliberately excluded so identically
//! shaped configurations share one entry. The map compares whole keys, not
//! a hash of them, so two configurations share an entry only when every
//! field is bit-identical, and the cached value is exactly the value a
//! fresh computation would produce. The key is hashed a 64-bit word at a
//! time.
//
// cordoba-lint: allow-file(atomic-ordering) — hits/misses are monotonic
// observability counters; cached values are handed off through the Mutex,
// never through the counters, so Relaxed is sufficient.
//!
//! The cache is `Sync` (interior `Mutex`) so one instance can serve all
//! workers of a `cordoba_par` sweep.
//!
//! # Examples
//!
//! ```
//! use cordoba_accel::cache::EmbodiedCache;
//! use cordoba_accel::config::AcceleratorConfig;
//! use cordoba_carbon::embodied::EmbodiedModel;
//! use cordoba_carbon::units::Bytes;
//!
//! let cache = EmbodiedCache::new(EmbodiedModel::default());
//! let cfg = AcceleratorConfig::on_die("a1", 8, Bytes::from_mebibytes(4.0))?;
//! let first = cache.embodied(&cfg)?;
//! let second = cache.embodied(&cfg)?;
//! assert_eq!(first, second);
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! # Ok::<(), cordoba_carbon::CarbonError>(())
//! ```

use crate::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::units::GramsCo2e;
use cordoba_carbon::yield_model::YieldModel;
use cordoba_carbon::CarbonError;
use cordoba_store::{hex_f64, parse_hex_f64, KeyBuilder, Store, StoreKey};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Store entry kind for persisted embodied-carbon values.
const STORE_KIND: &str = "embodied";

/// Process-wide lookup accounting by serving tier, exported as
/// `accel_embodied_cache_lookups{tier="..."}`: `memory` and `persistent`
/// are the two hit tiers, `compute` is a miss that ran the model.
static CACHE_LOOKUPS: cordoba_obs::LabeledCounter = cordoba_obs::LabeledCounter::new(
    "accel/embodied_cache/lookups",
    "tier",
    &["memory", "persistent", "compute"],
);

/// Hit/miss counters for an [`EmbodiedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the full embodied-carbon computation.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups served.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A memoized view of one [`EmbodiedModel`]'s embodied-carbon computation.
///
/// See the [module docs](self) for the keying and invalidation contract.
#[derive(Debug)]
pub struct EmbodiedCache {
    model: EmbodiedModel,
    entries: Mutex<ShapeMap>,
    store: Option<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EmbodiedCache {
    /// Creates an empty cache bound to `model`.
    #[must_use]
    pub fn new(model: EmbodiedModel) -> Self {
        Self {
            model,
            entries: Mutex::new(ShapeMap::default()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Creates a cache whose in-memory map is backed by a persistent
    /// [`Store`] tier: lookups that miss in memory consult the store
    /// (model *and* config shape participate in the content hash), and
    /// freshly computed values are written behind so the next process
    /// starts warm.
    #[must_use]
    pub fn with_store(model: EmbodiedModel, store: Store) -> Self {
        let mut cache = Self::new(model);
        cache.store = Some(store);
        cache
    }

    /// The model whose results this cache memoizes.
    #[must_use]
    pub fn model(&self) -> &EmbodiedModel {
        &self.model
    }

    /// The embodied carbon of `config` under this cache's model, computed
    /// at most once per distinct configuration shape.
    ///
    /// # Errors
    ///
    /// Propagates assembly-construction errors from
    /// [`AcceleratorConfig::embodied_carbon`] (cannot occur for validated
    /// configurations). Errors are not cached.
    pub fn embodied(&self, config: &AcceleratorConfig) -> Result<GramsCo2e, CarbonError> {
        let key = ShapeKey::of(config);
        if let Some(cached) = self.lock().get(&key).copied() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_LOOKUPS.incr(0);
            cordoba_obs::record(&cordoba_obs::Event::CacheHit);
            return Ok(cached);
        }
        if let Some(persisted) = self.persistent_lookup(config) {
            self.lock().insert(key, persisted);
            // The persistent tier served without running the model, so this
            // still counts as a cache hit.
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_LOOKUPS.incr(1);
            cordoba_obs::record(&cordoba_obs::Event::CacheHit);
            return Ok(persisted);
        }
        // Compute outside the lock so concurrent sweep workers are not
        // serialized on the yield/wafer math; a racing duplicate insert is
        // harmless because both workers compute the identical value.
        let value = config.embodied_carbon(&self.model)?;
        self.lock().insert(key, value);
        self.persistent_write(config, value);
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_LOOKUPS.incr(2);
        cordoba_obs::record(&cordoba_obs::Event::CacheMiss);
        Ok(value)
    }

    /// Consults the persistent tier, if attached; any damage is a miss.
    fn persistent_lookup(&self, config: &AcceleratorConfig) -> Option<GramsCo2e> {
        let store = self.store.as_ref()?;
        let lines = store.get(STORE_KIND, store_key(config, &self.model))?;
        let [line] = lines.as_slice() else {
            return None;
        };
        parse_hex_f64(line).map(GramsCo2e::new)
    }

    /// Writes a freshly computed value behind into the persistent tier.
    /// Write failures are swallowed: the store is an accelerant, never a
    /// correctness dependency.
    fn persistent_write(&self, config: &AcceleratorConfig, value: GramsCo2e) {
        if let Some(store) = self.store.as_ref() {
            let key = store_key(config, &self.model);
            let _ = store.put(STORE_KIND, key, &[hex_f64(value.value())]);
        }
    }

    /// Hit/miss counters accumulated since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct configuration shapes cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` if no configuration has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShapeMap> {
        match self.entries.lock() {
            Ok(guard) => guard,
            // A poisoned map only means another worker panicked mid-insert;
            // every stored value is still a completed, correct computation.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Content-address for one `(config shape, model)` embodied-carbon result.
///
/// Unlike the shape key — which keys the in-memory map of a cache already
/// bound to one model — the persistent store outlives the process, so the
/// model's own parameters (fab carbon intensity, yield model, packaging)
/// must participate in the hash alongside the config shape. The display
/// name stays excluded, and floats contribute raw IEEE-754 bits.
#[must_use]
pub fn store_key(config: &AcceleratorConfig, model: &EmbodiedModel) -> StoreKey {
    let mut k = KeyBuilder::new(STORE_KIND);
    k.push_f64(model.ci_fab().value());
    match model.yield_model() {
        YieldModel::Murphy => k.push_u64(0),
        YieldModel::Poisson => k.push_u64(1),
        YieldModel::Seeds => k.push_u64(2),
        YieldModel::BoseEinstein { layers } => {
            k.push_u64(3);
            k.push_u64(u64::from(layers));
        }
        YieldModel::Fixed { fraction } => {
            k.push_u64(4);
            k.push_f64(fraction);
        }
        // `YieldModel` is non-exhaustive; key any future variant by its
        // debug rendering so it cannot collide with the tags above.
        other => {
            k.push_u64(u64::MAX);
            k.push_str(&format!("{other:?}"));
        }
    }
    k.push_f64(model.packaging_per_die().value());
    k.push_u64(u64::from(config.mac_units()));
    k.push_f64(config.sram().value());
    match config.integration() {
        MemoryIntegration::OnDie => k.push_u64(0),
        MemoryIntegration::Stacked3d { dies } => {
            k.push_u64(1);
            k.push_u64(u64::from(dies));
        }
    }
    let tuning = config.tuning();
    k.push_u64(u64::from(tuning.node.nanometers()));
    k.push_f64(tuning.mac_unit_area_mm2);
    k.push_f64(tuning.sram_area_mm2_per_mib);
    k.push_f64(tuning.base_area_mm2);
    k.finish()
}

/// The in-memory memo: exact shape keys, hashed word by word.
type ShapeMap = HashMap<ShapeKey, GramsCo2e, BuildHasherDefault<WordHasher>>;

/// Everything `embodied_carbon` reads from a configuration, floats as raw
/// IEEE-754 bits, packed into six words. The display name is excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShapeKey([u64; 6]);

impl ShapeKey {
    fn of(config: &AcceleratorConfig) -> Self {
        let integration = match config.integration() {
            MemoryIntegration::OnDie => 0,
            MemoryIntegration::Stacked3d { dies } => 1 << 32 | u64::from(dies),
        };
        let tuning = config.tuning();
        Self([
            u64::from(config.mac_units()) << 32 | u64::from(tuning.node.nanometers()),
            config.sram().value().to_bits(),
            integration,
            tuning.mac_unit_area_mm2.to_bits(),
            tuning.sram_area_mm2_per_mib.to_bits(),
            tuning.base_area_mm2.to_bits(),
        ])
    }
}

impl Hash for ShapeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.0 {
            state.write_u64(word);
        }
    }
}

/// FNV-1a over 64-bit words with a final avalanche, so the bucket bits
/// depend on every key bit. Only used to place [`ShapeKey`]s in the map;
/// equality is always checked on the whole key.
struct WordHasher(u64);

impl Default for WordHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        // The murmur3 64-bit finalizer.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ h >> 33
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TechTuning;
    use cordoba_carbon::fab::ProcessNode;
    use cordoba_carbon::units::Bytes;

    fn cfg(name: &str, units: u32, sram_mib: f64) -> AcceleratorConfig {
        AcceleratorConfig::on_die(name, units, Bytes::from_mebibytes(sram_mib)).unwrap()
    }

    #[test]
    fn cached_value_matches_direct_computation() {
        let model = EmbodiedModel::default();
        let cache = EmbodiedCache::new(model.clone());
        for units in [1, 8, 64] {
            for sram in [1.0, 4.0, 32.0] {
                let c = cfg("x", units, sram);
                let direct = c.embodied_carbon(&model).unwrap();
                assert_eq!(cache.embodied(&c).unwrap(), direct);
                // Second lookup hits and returns the identical bits.
                assert_eq!(cache.embodied(&c).unwrap(), direct);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 9);
        assert_eq!(stats.hits, 9);
        assert_eq!(cache.len(), 9);
    }

    #[test]
    fn seed_space_misses_once_and_pins_the_miss_counter() {
        // Cold pass over the full 121-config seed space: every distinct
        // shape misses exactly once, and the global
        // `events/embodied_cache_miss` counter moves in lockstep with
        // `stats()` (>= because other tests may share the process).
        let space = crate::space::design_space();
        let cache = EmbodiedCache::new(EmbodiedModel::default());
        cordoba_obs::set_metrics_enabled(true);
        let counter_before = miss_counter();
        for c in &space {
            cache.embodied(c).unwrap();
        }
        let counter_after = miss_counter();
        cordoba_obs::set_metrics_enabled(false);
        let cold = cache.stats();
        assert_eq!(cold.misses, 121);
        assert_eq!(cold.hits, 0);
        assert_eq!(cache.len(), 121);
        assert!(counter_after - counter_before >= cold.misses);
        // Warm pass: zero further misses.
        for c in &space {
            cache.embodied(c).unwrap();
        }
        let warm = cache.stats();
        assert_eq!(warm.misses, 121, "warm path must not recompute");
        assert_eq!(warm.hits, 121);
        assert_eq!(warm.lookups(), 242);
    }

    /// Current value of the global embodied-cache miss counter.
    fn miss_counter() -> u64 {
        cordoba_obs::counter_snapshot()
            .iter()
            .find(|(name, _)| *name == "events/embodied_cache_miss")
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn name_is_not_part_of_the_key() {
        let cache = EmbodiedCache::new(EmbodiedModel::default());
        let a = cache.embodied(&cfg("a48", 16, 8.0)).unwrap();
        let b = cache.embodied(&cfg("renamed", 16, 8.0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entries_are_keyed_on_the_exact_shape() {
        let cache = EmbodiedCache::new(EmbodiedModel::default());
        // Configs that differ only in name share one entry.
        for name in ["a", "b", "c"] {
            cache.embodied(&cfg(name, 16, 8.0)).unwrap();
        }
        assert_eq!(cache.len(), 1);
        // A one-bit change in any area field gets its own entry.
        let nudge = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        type Nudge = fn(&mut TechTuning, fn(f64) -> f64);
        let fields: [Nudge; 3] = [
            |t, f| t.mac_unit_area_mm2 = f(t.mac_unit_area_mm2),
            |t, f| t.sram_area_mm2_per_mib = f(t.sram_area_mm2_per_mib),
            |t, f| t.base_area_mm2 = f(t.base_area_mm2),
        ];
        for (k, field) in fields.into_iter().enumerate() {
            let mut tuning = TechTuning::n7();
            field(&mut tuning, nudge);
            let config = AcceleratorConfig::with_tuning(
                "nudged",
                16,
                Bytes::from_mebibytes(8.0),
                MemoryIntegration::OnDie,
                tuning,
            )
            .unwrap();
            cache.embodied(&config).unwrap();
            assert_eq!(cache.len(), 2 + k, "area field {k}");
        }
        assert_eq!(cache.stats().misses, 4);

        // A generated space: tunings that only change the clock share
        // their shape's entry, so the entries equal the distinct shapes.
        let cache = EmbodiedCache::new(EmbodiedModel::default());
        let mut shapes = std::collections::HashSet::new();
        for units in [1, 3, 16, 64] {
            for sram in [0.25, 1.0, 8.0] {
                for integration in [
                    MemoryIntegration::OnDie,
                    MemoryIntegration::Stacked3d { dies: 2 },
                    MemoryIntegration::Stacked3d { dies: 4 },
                ] {
                    for clock in [0.5, 0.8, 1.2] {
                        let mut tuning = TechTuning::n7();
                        tuning.clock = cordoba_carbon::units::Hertz::from_gigahertz(clock);
                        let config = AcceleratorConfig::with_tuning(
                            format!("g{units}_{sram}_{clock}"),
                            units,
                            Bytes::from_mebibytes(sram),
                            integration,
                            tuning,
                        )
                        .unwrap();
                        cache.embodied(&config).unwrap();
                        shapes.insert(ShapeKey::of(&config));
                    }
                }
            }
        }
        assert_eq!(shapes.len(), 4 * 3 * 3);
        assert_eq!(cache.len(), shapes.len());
        assert_eq!(cache.stats().misses, shapes.len() as u64);
    }

    #[test]
    fn distinct_shapes_get_distinct_entries() {
        let cache = EmbodiedCache::new(EmbodiedModel::default());
        let flat = cache.embodied(&cfg("f", 16, 8.0)).unwrap();
        let stacked =
            AcceleratorConfig::stacked_3d("s", 16, Bytes::from_mebibytes(4.0), 2).unwrap();
        let stacked_carbon = cache.embodied(&stacked).unwrap();
        assert!(stacked_carbon.value() > flat.value());
        assert_eq!(cache.stats().misses, 2);

        // Same geometry on a different node must not share an entry.
        let n5 = AcceleratorConfig::with_tuning(
            "n5",
            16,
            Bytes::from_mebibytes(8.0),
            crate::config::MemoryIntegration::OnDie,
            TechTuning::for_node(ProcessNode::N5),
        )
        .unwrap();
        let n5_carbon = cache.embodied(&n5).unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert!((n5_carbon.value() - flat.value()).abs() > f64::EPSILON);
    }

    #[test]
    fn persistent_tier_serves_second_process_without_recompute() {
        let dir = std::env::temp_dir().join("cordoba-accel-cache-persist");
        let _ = std::fs::remove_dir_all(&dir);
        let store = cordoba_store::Store::open(&dir).unwrap();
        let model = EmbodiedModel::default();
        let configs: Vec<AcceleratorConfig> = (1..=9).map(|u| cfg("c", u, f64::from(u))).collect();

        // "Process one": cold memory, cold disk — every lookup computes
        // and writes behind.
        let cold = EmbodiedCache::with_store(model.clone(), store.clone());
        let expected: Vec<GramsCo2e> = configs.iter().map(|c| cold.embodied(c).unwrap()).collect();
        assert_eq!(cold.stats().misses, 9);

        // "Process two": cold memory, warm disk — zero model runs, and the
        // served values are bit-identical to the fresh computation.
        let warm = EmbodiedCache::with_store(model.clone(), store.clone());
        for (c, want) in configs.iter().zip(&expected) {
            let got = warm.embodied(c).unwrap();
            assert_eq!(got.value().to_bits(), want.value().to_bits());
        }
        assert_eq!(warm.stats().misses, 0);
        assert_eq!(warm.stats().hits, 9);

        // A different code-version salt invalidates everything: back to
        // computing (and re-writing) rather than serving stale entries.
        let resalted = EmbodiedCache::with_store(
            model,
            cordoba_store::Store::open_with_salt(&dir, "different-code").unwrap(),
        );
        let _ = resalted.embodied(&configs[0]).unwrap();
        assert_eq!(resalted.stats().misses, 1);
    }

    #[test]
    fn store_key_separates_models_and_shapes() {
        let base = EmbodiedModel::default();
        let hot = base.clone().with_ci_fab(base.ci_fab() * 2.0);
        let a = cfg("a", 16, 8.0);
        let b = cfg("b", 16, 8.0);
        let c = cfg("c", 17, 8.0);
        // Name excluded; shape and model included.
        assert_eq!(store_key(&a, &base), store_key(&b, &base));
        assert_ne!(store_key(&a, &base), store_key(&c, &base));
        assert_ne!(store_key(&a, &base), store_key(&a, &hot));
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = EmbodiedCache::new(EmbodiedModel::default());
        let configs: Vec<AcceleratorConfig> = (1..=32).map(|u| cfg("c", u, f64::from(u))).collect();
        let expected: Vec<GramsCo2e> = configs
            .iter()
            .map(|c| c.embodied_carbon(cache.model()).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (c, want) in configs.iter().zip(&expected) {
                        assert_eq!(cache.embodied(c).unwrap(), *want);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 4 * 32);
        assert!(stats.hits >= 3 * 32 - 32, "most lookups should hit");
    }
}
