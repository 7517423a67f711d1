//! Warm-start entry points: sweep stages recorded in the
//! content-addressed [`cordoba_store::Store`].
//!
//! The DSE pipeline is deterministic and bit-reproducible at every thread
//! count (pinned by the `par`/`obs`/supervision property suites), so each
//! stage — [`evaluate_space`], [`OpTimeSweep`], [`BetaSweep`] — is a
//! pure function of its typed inputs. The `*_stored`
//! wrappers below derive a canonical [`StoreKey`] over *everything* the
//! stored entry depends on (config shapes including the full
//! `TechTuning`, task kernel mixes, the embodied model, the use-phase
//! carbon intensity, the sweep axis).
//!
//! A stage's result is persisted only when reading it back beats
//! recomputing it. Space evaluation runs the simulator, so its points are
//! stored, and a warm call restores them bit-for-bit instead of
//! computing. The op-time and β-sweeps are closed forms over the points
//! that decode slower than they compute, so those wrappers always compute
//! and store a two-line *receipt* — the result's shape and a 128-bit
//! digest of its bits — rewriting it only when the entry does not match.
//!
//! Three invariants make this safe:
//!
//! * **Canonical encoding** — every `f64` participates in the key, the
//!   payload and the digest as its raw IEEE-754 bits (the
//!   `SweepCheckpoint` convention), so a warm result is bit-identical to
//!   the cold compute, not merely close.
//! * **Versioned entries** — payloads carry their own framing and the
//!   store's code-version salt; any simulator change that bumps
//!   [`cordoba_store::CODE_VERSION_SALT`] invalidates every prior entry
//!   wholesale.
//! * **Graceful degradation** — a corrupt, truncated, or undecodable entry
//!   is a miss and a recompute, never an error and never a stale answer;
//!   store write failures are swallowed because persistence is an
//!   accelerant, not a correctness dependency.

use crate::dse::{evaluate_space, OpTimeSweep};
use crate::error::CoreError;
use crate::lagrange::BetaSweep;
use crate::metrics::DesignPoint;
use cordoba_accel::cache::push_embodied_model;
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::units::{CarbonIntensity, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_carbon::CarbonError;
use cordoba_store::{parse_hex_f64_bytes, push_hex_f64, KeyBuilder, Store, StoreKey};
use cordoba_workloads::task::Task;

/// Store kind for [`evaluate_space_stored`] entries.
pub const KIND_EVAL_SPACE: &str = "eval_space";
/// Store kind for [`op_time_sweep_stored`] entries.
pub const KIND_OP_TIME_SWEEP: &str = "op_time_sweep";
/// Store kind for [`beta_sweep_stored`] entries.
pub const KIND_BETA_SWEEP: &str = "beta_sweep";

/// Feeds one configuration — name, geometry, and the *full* tech tuning —
/// into a key. Unlike the embodied-cache fingerprint, delay and energy
/// depend on every tuning field, and the name flows into the output
/// `DesignPoint`s, so everything participates.
fn push_config(k: &mut KeyBuilder, config: &AcceleratorConfig) {
    k.push_str(config.name());
    k.push_u64(u64::from(config.mac_units()));
    k.push_f64(config.sram().value());
    match config.integration() {
        MemoryIntegration::OnDie => k.push_u64(0),
        MemoryIntegration::Stacked3d { dies } => {
            k.push_u64(1);
            k.push_u64(u64::from(dies));
        }
    }
    let t = config.tuning();
    k.push_u64(u64::from(t.node.nanometers()));
    k.push_f64(t.clock.value());
    k.push_f64(t.utilization);
    k.push_f64(t.utilization_knee_units);
    k.push_f64(t.mac_energy.value());
    k.push_f64(t.sram_energy_per_byte_1mib.value());
    k.push_f64(t.sram_energy_exponent);
    k.push_f64(t.sram_bytes_per_mac);
    k.push_f64(t.dram_energy_per_byte.value());
    k.push_f64(t.stacked_sram_energy_factor);
    k.push_f64(t.dram_bandwidth.value());
    k.push_f64(t.leakage_per_sram_mib.value());
    k.push_f64(t.leakage_per_mac_unit.value());
    k.push_f64(t.leakage_base.value());
    k.push_f64(t.mac_unit_area_mm2);
    k.push_f64(t.sram_area_mm2_per_mib);
    k.push_f64(t.base_area_mm2);
    k.push_f64(t.io_traffic_fraction);
    k.push_f64(t.refetch_exponent);
    k.push_f64(t.refetch_scale);
}

/// Feeds a task's name and kernel mix into a key.
fn push_task(k: &mut KeyBuilder, task: &Task) {
    k.push_str(task.name());
    for kernel in task.kernels() {
        k.push_str(kernel.short_name());
        k.push_f64(task.calls_for(kernel));
    }
}

/// Feeds a design point's values into a key (for results computed *from*
/// points, like [`OpTimeSweep`] and [`BetaSweep`]). The name is left out:
/// those stages store receipts whose digests cover no names, and hashing
/// the names would triple the cost of the key.
fn push_point(k: &mut KeyBuilder, point: &DesignPoint) {
    k.push_f64(point.delay.value());
    k.push_f64(point.energy.value());
    k.push_f64(point.embodied.value());
    k.push_f64(point.area.value());
}

/// The content-address of one [`evaluate_space`] call.
#[must_use]
pub fn evaluate_space_key(
    configs: &[AcceleratorConfig],
    task: &Task,
    embodied: &EmbodiedModel,
) -> StoreKey {
    let mut k = KeyBuilder::new(KIND_EVAL_SPACE);
    push_embodied_model(&mut k, embodied);
    push_task(&mut k, task);
    k.push_u64(configs.len() as u64);
    for config in configs {
        push_config(&mut k, config);
    }
    k.finish()
}

/// The content-address of one [`OpTimeSweep`] evaluation.
#[must_use]
pub fn op_time_sweep_key(
    points: &[DesignPoint],
    task_counts: &[f64],
    ci_use: CarbonIntensity,
) -> StoreKey {
    let mut k = KeyBuilder::new(KIND_OP_TIME_SWEEP);
    k.push_f64(ci_use.value());
    k.push_u64(task_counts.len() as u64);
    for &n in task_counts {
        k.push_f64(n);
    }
    k.push_u64(points.len() as u64);
    for point in points {
        push_point(&mut k, point);
    }
    k.finish()
}

/// The content-address of one [`BetaSweep::run`] call.
#[must_use]
pub fn beta_sweep_key(candidates: &[DesignPoint]) -> StoreKey {
    let mut k = KeyBuilder::new(KIND_BETA_SWEEP);
    k.push_u64(candidates.len() as u64);
    for point in candidates {
        push_point(&mut k, point);
    }
    k.finish()
}

/// Bytes of one payload cell: a `' '` separator, then 16 hex digits.
const CELL: usize = 17;

/// Appends one payload cell (`' '` + [`push_hex_f64`] digits) to `line`.
fn push_cell(line: &mut String, value: f64) {
    line.push(' ');
    push_hex_f64(line, value);
}

/// Parses one [`CELL`]-byte window written by [`push_cell`].
fn parse_cell(cell: &[u8]) -> Option<f64> {
    let (&separator, digits) = cell.split_first()?;
    if separator != b' ' {
        return None;
    }
    parse_hex_f64_bytes(digits.try_into().ok()?)
}

/// Renders a design point's line: `'p'`, one cell each for its delay,
/// energy, embodied carbon and area, `' '`, then its name. Store entries
/// and sweep checkpoints write their points through this one line.
pub(crate) fn point_line(p: &DesignPoint) -> String {
    let values = [
        p.delay.value(),
        p.energy.value(),
        p.embodied.value(),
        p.area.value(),
    ];
    let mut line = String::with_capacity(2 + CELL * values.len() + p.name.len());
    line.push('p');
    for value in values {
        push_cell(&mut line, value);
    }
    line.push(' ');
    line.push_str(&p.name);
    line
}

/// Parses a [`point_line`]: `N` cells at a fixed stride after `'p'`, then
/// the verbatim rest of the line (after one `' '`) as the name, which may
/// itself hold spaces.
pub(crate) fn parse_point_line<const N: usize>(line: &str) -> Option<([f64; N], &str)> {
    let body = line.strip_prefix('p')?;
    let cells = body.as_bytes().get(..CELL * N)?;
    let mut values = [0.0; N];
    for (value, cell) in values.iter_mut().zip(cells.chunks_exact(CELL)) {
        *value = parse_cell(cell)?;
    }
    let name = body.get(CELL * N..)?.strip_prefix(' ')?;
    Some((values, name))
}

fn encode_points(points: &[DesignPoint]) -> Vec<String> {
    let mut lines = Vec::with_capacity(points.len() + 1);
    lines.push(format!("points {}", points.len()));
    for p in points {
        lines.push(point_line(p));
    }
    lines
}

/// Decodes one section written by [`encode_points`] for `configs`,
/// consuming lines from the iterator: one point per configuration, in
/// order. A point's name is the verbatim rest of its line, so checking it
/// against its configuration's name is what catches a line whose cells
/// were shifted into (or out of) the name; a matching point then shares
/// the configuration's name instead of allocating its own. Returns `None`
/// on any structural damage.
fn decode_points<'a>(
    lines: &mut impl Iterator<Item = &'a String>,
    configs: &[AcceleratorConfig],
) -> Option<Vec<DesignPoint>> {
    let count: usize = lines.next()?.strip_prefix("points ")?.parse().ok()?;
    if count != configs.len() {
        return None;
    }
    let mut points = Vec::with_capacity(count);
    for config in configs {
        let ([delay, energy, embodied, area], name) = parse_point_line(lines.next()?)?;
        if name != config.name() {
            return None;
        }
        points.push(
            DesignPoint::new(
                config.shared_name(),
                Seconds::new(delay),
                Joules::new(energy),
                GramsCo2e::new(embodied),
                SquareCentimeters::new(area),
            )
            .ok()?,
        );
    }
    Some(points)
}

/// [`evaluate_space`] with a persistent warm path: a prior result for the
/// identical `(configs, task, model)` inputs is served from `store`
/// bit-identically; otherwise the space is evaluated normally and the
/// result written behind.
///
/// # Errors
///
/// Exactly the errors of [`evaluate_space`]; store damage never surfaces.
pub fn evaluate_space_stored(
    configs: &[AcceleratorConfig],
    task: &Task,
    embodied: &EmbodiedModel,
    store: &Store,
) -> Result<Vec<DesignPoint>, CoreError> {
    let key = evaluate_space_key(configs, task, embodied);
    if let Some(lines) = store.get(KIND_EVAL_SPACE, key) {
        let mut it = lines.iter();
        if let Some(points) = decode_points(&mut it, configs).filter(|_| it.next().is_none()) {
            return Ok(points); // fully consumed
        }
    }
    let points = evaluate_space(configs, task, embodied)?;
    let _ = store.put(KIND_EVAL_SPACE, key, &encode_points(&points));
    Ok(points)
}

/// Renders a receipt: the result's shape line, then `'d'` and the two
/// 64-bit halves of its digest as [`push_cell`] cells (raw bits, so the
/// damage handling of the cell codec applies unchanged).
fn receipt(shape: String, digest: StoreKey) -> Vec<String> {
    let bits = digest.value();
    let mut line = String::with_capacity(1 + 2 * CELL);
    line.push('d');
    for half in [bits >> 64, bits] {
        // Truncation keeps exactly the selected 64-bit half.
        push_cell(&mut line, f64::from_bits(half as u64));
    }
    vec![shape, line]
}

/// Whether `lines` is exactly the [`receipt`] of `shape` and `digest`.
/// Damage, a different digest, and a payload of any other layout (such as
/// a whole stored result) are all mismatches.
fn receipt_matches(lines: &[String], shape: &str, digest: StoreKey) -> bool {
    let [head, line] = lines else {
        return false;
    };
    let Some(cells) = line.as_bytes().strip_prefix(b"d") else {
        return false;
    };
    if head != shape || cells.len() != 2 * CELL {
        return false;
    }
    let mut bits = 0u128;
    for cell in cells.chunks_exact(CELL) {
        let Some(half) = parse_cell(cell) else {
            return false;
        };
        bits = (bits << 64) | u128::from(half.to_bits());
    }
    bits == digest.value()
}

/// Leaves the receipt of `(shape, digest)` at `(kind, key)`, writing only
/// when the entry is missing or does not already hold exactly that receipt.
fn publish_receipt(store: &Store, kind: &str, key: StoreKey, shape: String, digest: StoreKey) {
    let current = store.get(kind, key);
    if !current.is_some_and(|lines| receipt_matches(&lines, &shape, digest)) {
        let _ = store.put(kind, key, &receipt(shape, digest));
    }
}

/// [`OpTimeSweep::new`], recorded in `store`. The tCDP matrix is a closed
/// form of the points and costs less to recompute than to read back, so
/// the sweep is always computed; the entry is a receipt (shape and a
/// digest of the matrix bits), rewritten when it does not match.
///
/// # Errors
///
/// Exactly the errors of [`OpTimeSweep::new`].
pub fn op_time_sweep_stored(
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    store: &Store,
) -> Result<OpTimeSweep, CarbonError> {
    let key = op_time_sweep_key(&points, &task_counts, ci_use);
    let sweep = OpTimeSweep::new(points, task_counts, ci_use)?;
    let shape = format!(
        "rows {} width {}",
        sweep.task_counts.len(),
        sweep.points.len()
    );
    let mut digest = KeyBuilder::new(KIND_OP_TIME_SWEEP);
    for &cell in sweep.tcdp_matrix() {
        digest.push_f64(cell);
    }
    publish_receipt(store, KIND_OP_TIME_SWEEP, key, shape, digest.finish());
    Ok(sweep)
}

/// [`BetaSweep::run`], recorded in `store` as a receipt (point count and
/// a digest of the objectives, front and support set); like the op-time
/// sweep, it costs less to rerun than to read back. The point names are
/// copies of the candidates' names, so the digest, like the key, skips
/// them.
#[must_use]
pub fn beta_sweep_stored(candidates: &[DesignPoint], store: &Store) -> BetaSweep {
    let key = beta_sweep_key(candidates);
    let sweep = BetaSweep::run(candidates);
    let mut digest = KeyBuilder::new(KIND_BETA_SWEEP);
    for p in &sweep.points {
        digest.push_f64(p.x);
        digest.push_f64(p.y);
    }
    for indices in [&sweep.pareto, &sweep.support] {
        digest.push_u64(indices.len() as u64);
        for &i in indices {
            digest.push_u64(i as u64);
        }
    }
    let shape = format!("points {}", sweep.points.len());
    publish_receipt(store, KIND_BETA_SWEEP, key, shape, digest.finish());
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::log_sweep;
    use cordoba_accel::space::design_space;
    use cordoba_carbon::intensity::grids;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("cordoba-core-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).expect("temp store opens")
    }

    #[test]
    fn evaluate_space_round_trips_bit_exactly() {
        let store = temp_store("eval");
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let model = EmbodiedModel::default();
        let cold = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        let fresh = evaluate_space(&configs, &task, &model).unwrap();
        assert_eq!(cold, fresh);
        let warm = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        for (w, f) in warm.iter().zip(&fresh) {
            assert_eq!(w.name, f.name);
            assert_eq!(w.delay.value().to_bits(), f.delay.value().to_bits());
            assert_eq!(w.energy.value().to_bits(), f.energy.value().to_bits());
            assert_eq!(w.embodied.value().to_bits(), f.embodied.value().to_bits());
            assert_eq!(w.area.value().to_bits(), f.area.value().to_bits());
        }
    }

    #[test]
    fn op_time_sweep_round_trips_bit_exactly() {
        let store = temp_store("sweep");
        let configs = design_space();
        let task = Task::xr_5_kernels();
        let model = EmbodiedModel::default();
        let points = evaluate_space(&configs, &task, &model).unwrap();
        let counts = log_sweep(4, 9, 2);
        let cold = op_time_sweep_stored(points.clone(), counts.clone(), grids::US_AVERAGE, &store)
            .unwrap();
        let fresh = OpTimeSweep::new(points.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        assert_eq!(cold, fresh);
        let warm = op_time_sweep_stored(points, counts, grids::US_AVERAGE, &store).unwrap();
        let (a, b) = (warm.tcdp_matrix(), fresh.tcdp_matrix());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn beta_round_trip() {
        let store = temp_store("beta");
        let candidates = &evaluate_space(
            &design_space(),
            &Task::ai_5_kernels(),
            &EmbodiedModel::default(),
        )
        .unwrap();
        let beta_cold = beta_sweep_stored(candidates, &store);
        let beta_warm = beta_sweep_stored(candidates, &store);
        assert_eq!(beta_cold, beta_warm);
        assert_eq!(beta_cold, BetaSweep::run(candidates));
    }

    #[test]
    fn keys_react_to_every_input() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let model = EmbodiedModel::default();
        let base = evaluate_space_key(&configs, &task, &model);
        assert_ne!(
            base,
            evaluate_space_key(&configs[..configs.len() - 1], &task, &model)
        );
        assert_ne!(
            base,
            evaluate_space_key(&configs, &Task::xr_5_kernels(), &model)
        );
        let hot = model
            .clone()
            .with_ci_fab(cordoba_carbon::units::CarbonIntensity::new(999.0));
        assert_ne!(base, evaluate_space_key(&configs, &task, &hot));

        let points = evaluate_space(&configs, &task, &model).unwrap();
        let counts = log_sweep(4, 6, 1);
        let sweep_base = op_time_sweep_key(&points, &counts, grids::US_AVERAGE);
        assert_ne!(
            sweep_base,
            op_time_sweep_key(&points, &counts, grids::SOLAR)
        );
        assert_ne!(
            sweep_base,
            op_time_sweep_key(&points, &log_sweep(4, 6, 2), grids::US_AVERAGE)
        );
        // Point values participate; point names do not.
        let mut changed = points.clone();
        let bits = |p: &DesignPoint| p.delay.value().to_bits();
        changed[0].delay = points
            .iter()
            .find(|p| bits(p) != bits(&points[0]))
            .unwrap()
            .delay;
        assert_ne!(
            sweep_base,
            op_time_sweep_key(&changed, &counts, grids::US_AVERAGE)
        );
        assert_ne!(beta_sweep_key(&points), beta_sweep_key(&changed));
        let mut renamed = points.clone();
        renamed[0].name = format!("{}x", renamed[0].name).into();
        assert_eq!(
            sweep_base,
            op_time_sweep_key(&renamed, &counts, grids::US_AVERAGE)
        );
        assert_eq!(beta_sweep_key(&points), beta_sweep_key(&renamed));
    }

    /// Store keys are file names on disk and `replay` hashes: a change to
    /// their encoding orphans every existing store directory.
    #[test]
    fn keys_are_pinned() {
        let configs = design_space();
        let model = EmbodiedModel::default();
        assert_eq!(
            evaluate_space_key(&configs, &Task::ai_5_kernels(), &model).to_hex(),
            "547c90bf712daa348c5754b2671f94f4"
        );
    }

    #[test]
    fn corrupt_entries_recompute_instead_of_failing() {
        let store = temp_store("corrupt");
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let model = EmbodiedModel::default();
        let fresh = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        // Overwrite the entry with a *structurally valid* store file whose
        // payload is semantically damaged: decode fails, compute happens.
        let key = evaluate_space_key(&configs, &task, &model);
        store
            .put(KIND_EVAL_SPACE, key, &["points 999".to_string()])
            .unwrap();
        let recovered = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        assert_eq!(recovered, fresh);
        // The recompute healed the entry in place.
        let healed = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        assert_eq!(healed, fresh);
    }

    /// Byte-level damage to one payload line, keyed by a description.
    /// `line` must hold at least two cells after its one-letter tag.
    fn damaged_variants(line: &str) -> Vec<(&'static str, String)> {
        // Byte offset of the first cell's first digit.
        let digits = 2;
        let splice = |at: usize, cut: usize, with: &str| {
            format!("{}{with}{}", &line[..at], &line[at + cut..])
        };
        vec![
            ("one byte short inside a cell", splice(digits + 3, 1, "")),
            (
                "one byte short at the end",
                line[..line.len() - 1].to_string(),
            ),
            ("missing cell", splice(digits - 1, CELL, "")),
            ("extra cell", splice(digits - 1, 0, " 3ff0000000000000")),
            ("tab separator", splice(digits - 1, 1, "\t")),
            ("non-hex ASCII byte", splice(digits + 5, 1, "g")),
            ("2-byte UTF-8 character", splice(digits + 5, 2, "\u{e9}")),
        ]
    }

    /// Uppercases every 16-digit hex token of a payload line, leaving tags
    /// and names alone.
    fn uppercase_hex(line: &str) -> String {
        line.split(' ')
            .map(|tok| {
                if tok.len() == 16 && tok.bytes().all(|b| b.is_ascii_hexdigit()) {
                    tok.to_ascii_uppercase()
                } else {
                    tok.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Replaces payload line `line` of the entry at `(kind, key)` with each
    /// damaged variant in turn: `run` must miss, return `fresh`, and heal
    /// the entry to the byte-identical payload. An uppercase-hex payload
    /// must instead be served as is.
    fn assert_damage_misses<T: PartialEq + std::fmt::Debug>(
        store: &Store,
        kind: &str,
        key: StoreKey,
        line: usize,
        fresh: &T,
        run: impl Fn() -> T,
    ) {
        let good = store.get(kind, key).expect("entry published");
        for (what, damaged) in damaged_variants(&good[line]) {
            let mut lines = good.clone();
            lines[line] = damaged;
            store.put(kind, key, &lines).unwrap();
            assert_eq!(&run(), fresh, "{kind}: {what}");
            assert_eq!(store.get(kind, key), Some(good.clone()), "{kind}: {what}");
        }
        let upper: Vec<String> = good.iter().map(|l| uppercase_hex(l)).collect();
        assert_ne!(upper, good);
        store.put(kind, key, &upper).unwrap();
        assert_eq!(&run(), fresh, "{kind}: uppercase");
        // Served from the uppercase entry, not recomputed and rewritten.
        assert_eq!(store.get(kind, key), Some(upper), "{kind}: uppercase hit");
    }

    /// Result bits of a point list, names included.
    fn point_bits(points: &[DesignPoint]) -> Vec<(String, [u64; 4])> {
        points
            .iter()
            .map(|p| {
                let values = [
                    p.delay.value(),
                    p.energy.value(),
                    p.embodied.value(),
                    p.area.value(),
                ];
                (p.name.to_string(), values.map(f64::to_bits))
            })
            .collect()
    }

    #[test]
    fn damaged_payloads_miss_and_recompute() {
        let store = temp_store("damage");
        let configs = design_space();
        let task = Task::xr_5_kernels();
        let model = EmbodiedModel::default();
        let fresh = evaluate_space(&configs, &task, &model).unwrap();

        evaluate_space_stored(&configs, &task, &model, &store).unwrap();
        assert_damage_misses(
            &store,
            KIND_EVAL_SPACE,
            evaluate_space_key(&configs, &task, &model),
            1,
            &point_bits(&fresh),
            || point_bits(&evaluate_space_stored(&configs, &task, &model, &store).unwrap()),
        );

        let beta_bits = |sweep: &BetaSweep| -> Vec<(String, u64, u64)> {
            let mut bits: Vec<_> = sweep
                .points
                .iter()
                .map(|p| (p.name.to_string(), p.x.to_bits(), p.y.to_bits()))
                .collect();
            bits.extend(sweep.pareto.iter().map(|&i| (String::new(), i as u64, 0)));
            bits.extend(sweep.support.iter().map(|&i| (String::new(), 0, i as u64)));
            bits
        };
        let _ = beta_sweep_stored(&fresh, &store);
        assert_damage_misses(
            &store,
            KIND_BETA_SWEEP,
            beta_sweep_key(&fresh),
            1,
            &beta_bits(&BetaSweep::run(&fresh)),
            || beta_bits(&beta_sweep_stored(&fresh, &store)),
        );

        let counts = log_sweep(4, 9, 2);
        let sweep_bits = |sweep: &OpTimeSweep| -> Vec<u64> {
            sweep.tcdp_matrix().iter().map(|c| c.to_bits()).collect()
        };
        let fresh_sweep =
            OpTimeSweep::new(fresh.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        op_time_sweep_stored(fresh.clone(), counts.clone(), grids::US_AVERAGE, &store).unwrap();
        assert_damage_misses(
            &store,
            KIND_OP_TIME_SWEEP,
            op_time_sweep_key(&fresh, &counts, grids::US_AVERAGE),
            1,
            &sweep_bits(&fresh_sweep),
            || {
                let warm =
                    op_time_sweep_stored(fresh.clone(), counts.clone(), grids::US_AVERAGE, &store);
                sweep_bits(&warm.unwrap())
            },
        );
    }

    /// The table-driven point writer emits exactly what the `format!`-based
    /// writer it replaced did, so entries stay byte-identical.
    #[test]
    fn payload_lines_match_the_formatted_rendering() {
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let points = evaluate_space(
            &design_space(),
            &Task::ai_5_kernels(),
            &EmbodiedModel::default(),
        )
        .unwrap();
        let lines = encode_points(&points);
        assert_eq!(lines[0], format!("points {}", points.len()));
        for (line, p) in lines[1..].iter().zip(&points) {
            let expected = format!(
                "p {} {} {} {} {}",
                hex(p.delay.value()),
                hex(p.energy.value()),
                hex(p.embodied.value()),
                hex(p.area.value()),
                p.name
            );
            assert_eq!(*line, expected);
        }
    }

    /// A receipt entry that frames correctly but holds the wrong digest,
    /// and an entry still holding a whole stored result (the layout used
    /// before receipts), are each served fresh bits and replaced by the
    /// correct receipt.
    #[test]
    fn stale_receipts_and_old_payloads_are_replaced() {
        let store = temp_store("stale");
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let points = evaluate_space(
            &design_space(),
            &Task::xr_5_kernels(),
            &EmbodiedModel::default(),
        )
        .unwrap();
        let counts = log_sweep(4, 9, 2);
        let fresh = OpTimeSweep::new(points.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        let beta = BetaSweep::run(&points);
        let run_sweep = || {
            op_time_sweep_stored(points.clone(), counts.clone(), grids::US_AVERAGE, &store).unwrap()
        };
        let sweep_key = op_time_sweep_key(&points, &counts, grids::US_AVERAGE);
        let beta_key = beta_sweep_key(&points);
        assert_eq!(run_sweep(), fresh);
        assert_eq!(beta_sweep_stored(&points, &store), beta);
        let sweep_receipt = store.get(KIND_OP_TIME_SWEEP, sweep_key).unwrap();
        let beta_receipt = store.get(KIND_BETA_SWEEP, beta_key).unwrap();

        // Valid framing, wrong digest (the digest of a different result),
        // and the right digest under a wrong shape line.
        for (kind, key, good) in [
            (KIND_OP_TIME_SWEEP, sweep_key, &sweep_receipt),
            (KIND_BETA_SWEEP, beta_key, &beta_receipt),
        ] {
            let mut other = KeyBuilder::new(kind);
            other.push_f64(1.0);
            let wrong_digest = receipt(good[0].clone(), other.finish());
            let wrong_shape = vec![format!("{}0", good[0]), good[1].clone()];
            for wrong in [wrong_digest, wrong_shape] {
                assert_ne!(&wrong, good);
                store.put(kind, key, &wrong).unwrap();
                if kind == KIND_OP_TIME_SWEEP {
                    assert_eq!(run_sweep(), fresh);
                } else {
                    assert_eq!(beta_sweep_stored(&points, &store), beta);
                }
                assert_eq!(store.get(kind, key).as_ref(), Some(good), "{kind}");
            }
        }

        // The whole tCDP matrix, as it was stored before receipts.
        let width = fresh.points.len();
        let mut old = vec![format!("rows {} width {width}", counts.len())];
        for row in fresh.tcdp_matrix().chunks_exact(width) {
            let cells: Vec<String> = row.iter().map(|&c| hex(c)).collect();
            old.push(format!("r {}", cells.join(" ")));
        }
        store.put(KIND_OP_TIME_SWEEP, sweep_key, &old).unwrap();
        let served = run_sweep();
        for (x, y) in served.tcdp_matrix().iter().zip(fresh.tcdp_matrix()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            store.get(KIND_OP_TIME_SWEEP, sweep_key),
            Some(sweep_receipt)
        );

        // The whole β-sweep, as it was stored before receipts.
        let mut old = vec![format!("points {}", beta.points.len())];
        for p in &beta.points {
            old.push(format!("p {} {} {}", hex(p.x), hex(p.y), p.name));
        }
        for (tag, indices) in [("pareto", &beta.pareto), ("support", &beta.support)] {
            let rendered: Vec<String> = indices.iter().map(usize::to_string).collect();
            old.push(format!("{tag} {}", rendered.join(" ")));
        }
        store.put(KIND_BETA_SWEEP, beta_key, &old).unwrap();
        assert_eq!(beta_sweep_stored(&points, &store), beta);
        assert_eq!(store.get(KIND_BETA_SWEEP, beta_key), Some(beta_receipt));
    }

    /// A receipt is the shape line plus one digest line: two lines and
    /// well under 128 bytes, whatever the size of the result.
    #[test]
    fn receipts_are_two_short_lines() {
        let store = temp_store("receipt-size");
        let points = evaluate_space(
            &design_space(),
            &Task::ai_5_kernels(),
            &EmbodiedModel::default(),
        )
        .unwrap();
        let counts = log_sweep(4, 11, 2);
        op_time_sweep_stored(points.clone(), counts.clone(), grids::US_AVERAGE, &store).unwrap();
        let _ = beta_sweep_stored(&points, &store);
        for (kind, key, shape) in [
            (
                KIND_OP_TIME_SWEEP,
                op_time_sweep_key(&points, &counts, grids::US_AVERAGE),
                format!("rows {} width {}", counts.len(), points.len()),
            ),
            (
                KIND_BETA_SWEEP,
                beta_sweep_key(&points),
                format!("points {}", points.len()),
            ),
        ] {
            let lines = store.get(kind, key).expect("receipt published");
            assert_eq!(lines.len(), 2, "{kind}");
            assert_eq!(lines[0], shape, "{kind}");
            assert!(lines[1].starts_with('d'), "{kind}");
            let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
            assert!(bytes < 128, "{kind}: {bytes} bytes");
        }
    }
}
