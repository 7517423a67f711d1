//! Pareto frontiers and lower convex hulls in two dimensions.
//!
//! §IV-B eliminates designs that cannot be tCDP-optimal for *any* value of
//! the unknown `CI_use(t)` by keeping only the Pareto-optimal curve of
//! `E·D` versus `C_embodied·D`. Strictly, the β-scalarization of eq. IV.9
//! selects the *lower convex hull* of that point set — a subset of the
//! Pareto frontier. Both are provided; the ablation bench compares them.

use cordoba_obs::Name;
use serde::{Deserialize, Serialize};

/// A named point in a 2-D minimize-both objective space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point2 {
    /// Candidate name, shared with the design point it was built from.
    pub name: Name,
    /// First objective (lower is better).
    pub x: f64,
    /// Second objective (lower is better).
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    #[must_use]
    pub fn new(name: impl Into<Name>, x: f64, y: f64) -> Self {
        Self {
            name: name.into(),
            x,
            y,
        }
    }

    /// `true` when `self` dominates `other`: no worse in both objectives
    /// and strictly better in at least one.
    #[must_use]
    pub fn dominates(&self, other: &Point2) -> bool {
        self.x <= other.x && self.y <= other.y && (self.x < other.x || self.y < other.y)
    }
}

/// Indices of the Pareto-optimal (non-dominated) points, in input order.
///
/// Duplicate coordinates are all retained (none strictly dominates the
/// other). Runs in `O(n log n)` via a sort-based skyline scan and returns
/// exactly the index set of the all-pairs reference
/// [`pareto_indices_naive`] on every input, including NaN and infinite
/// coordinates.
///
/// # Examples
///
/// ```
/// use cordoba::pareto::{pareto_indices, Point2};
///
/// let pts = vec![
///     Point2::new("good-x", 1.0, 5.0),
///     Point2::new("dominated", 2.0, 6.0),
///     Point2::new("good-y", 3.0, 1.0),
/// ];
/// assert_eq!(pareto_indices(&pts), vec![0, 2]);
/// ```
#[must_use]
pub fn pareto_indices(points: &[Point2]) -> Vec<usize> {
    SortedFront::new(points).pareto_indices()
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s order:
/// negative values have all bits flipped, non-negative ones only the sign
/// bit. The map is a bijection, so [`from_total_key`] recovers every bit.
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_key`].
fn from_total_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A point as `(total_key(x), total_key(y), index)`: sorting these packed
/// triples orders points by `(x, y)` under `total_cmp`, ties by index,
/// with no indirect loads per compare.
type Keyed = (u64, u64, usize);

fn keyed(points: &[Point2], i: usize) -> Keyed {
    (total_key(points[i].x), total_key(points[i].y), i)
}

/// The one sort behind [`pareto_indices`], [`lower_hull_indices`] and
/// `BetaSweep::run`: the non-NaN points sorted once as packed keys, then a
/// skyline scan over that order.
struct SortedFront {
    /// Points with a NaN coordinate, in input order. NaN compares false to
    /// everything, so under the dominance rules such points never dominate
    /// and are never dominated: they always survive and stay out of the
    /// sort and the scan.
    nan: Vec<usize>,
    /// The non-dominated non-NaN points, in ascending key order.
    front: Vec<Keyed>,
}

impl SortedFront {
    fn new(points: &[Point2]) -> Self {
        let mut nan = Vec::new();
        let mut order: Vec<Keyed> = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            if p.x.is_nan() || p.y.is_nan() {
                nan.push(i);
            } else {
                order.push(keyed(points, i));
            }
        }
        order.sort_unstable();

        // Skyline scan: walk groups of equal x left to right, tracking the
        // best (smallest) y seen at strictly smaller x. A point survives iff
        // nothing at strictly smaller x has y <= its own (that point would
        // dominate via strictly better x) and nothing in its own group has a
        // strictly smaller y (equal x, strictly better y). `has_prev`
        // matters: seeding `best_prev` with +inf would wrongly dominate a
        // first-group point whose y is +inf.
        let mut front = Vec::new();
        let mut best_prev = f64::INFINITY;
        let mut has_prev = false;
        let mut g = 0;
        while g < order.len() {
            let group_x = from_total_key(order[g].0);
            let mut end = g + 1;
            // Numeric group boundary without float `==`: the sort is
            // ascending, so a later point stays in the group exactly while
            // `group_x >= x` — `>=` (unlike `total_cmp`) keeps -0.0 and 0.0
            // in one group.
            while end < order.len() && group_x >= from_total_key(order[end].0) {
                end += 1;
            }
            // A group holding both -0.0 and 0.0 is sorted by y within each
            // sign only, so take the minimum over the whole group.
            let group_min_y = order[g..end]
                .iter()
                .map(|&(_, y, _)| from_total_key(y))
                .fold(f64::INFINITY, f64::min);
            for &point in &order[g..end] {
                let y = from_total_key(point.1);
                let dominated_by_prev = has_prev && y >= best_prev;
                let dominated_in_group = group_min_y < y;
                if !dominated_by_prev && !dominated_in_group {
                    front.push(point);
                }
            }
            best_prev = best_prev.min(group_min_y);
            has_prev = true;
            g = end;
        }
        Self { nan, front }
    }

    /// The Pareto-optimal indices (NaN points included), in input order.
    fn pareto_indices(&self) -> Vec<usize> {
        let mut survivors: Vec<usize> = self.nan.clone();
        survivors.extend(self.front.iter().map(|&(_, _, i)| i));
        survivors.sort_unstable();
        survivors
    }

    /// The lower hull of the front, sorted by increasing `x`.
    fn lower_hull(&self, points: &[Point2]) -> Vec<usize> {
        // The front already sits in key order; only NaN survivors, which
        // the sort skipped, force a re-sort of the (small) front.
        let mut merged;
        let front = if self.nan.is_empty() {
            &self.front
        } else {
            merged = self.front.clone();
            merged.extend(self.nan.iter().map(|&i| keyed(points, i)));
            merged.sort_unstable();
            &merged
        };
        // Monotone-chain lower hull over the front, skipping numerically
        // equal neighbours (the first of each run is kept).
        let mut hull: Vec<usize> = Vec::with_capacity(front.len());
        let mut last: Option<&Point2> = None;
        for &(_, _, i) in front {
            let c = &points[i];
            if last.is_some_and(|l| l.x == c.x && l.y == c.y) {
                continue;
            }
            last = Some(c);
            while hull.len() >= 2 {
                let a = &points[hull[hull.len() - 2]];
                let b = &points[hull[hull.len() - 1]];
                // Keep b only if it lies strictly below segment a-c; cross > 0
                // means the chain turns left (convex for a lower hull).
                let cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
                if cross <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(i);
        }
        hull
    }
}

/// The Pareto front and the lower hull of `points` from a single sort:
/// exactly `(pareto_indices(points), lower_hull_indices(points))`.
pub(crate) fn front_and_hull(points: &[Point2]) -> (Vec<usize>, Vec<usize>) {
    let sorted = SortedFront::new(points);
    (sorted.pareto_indices(), sorted.lower_hull(points))
}

/// Reference all-pairs `O(n²)` Pareto filter.
///
/// Kept as the executable specification for [`pareto_indices`]: property
/// tests assert index-set equality between the two on every seed, and the
/// bench suite measures the skyline speedup against this baseline.
#[must_use]
pub fn pareto_indices_naive(points: &[Point2]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.dominates(&points[i]))
        })
        .collect()
}

/// The Pareto-optimal points themselves.
#[must_use]
pub fn pareto_front(points: &[Point2]) -> Vec<Point2> {
    pareto_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// Indices of the lower convex hull (the support set of all linear
/// scalarizations `x + β·y`, `β ∈ [0, ∞)`), sorted by increasing `x`.
///
/// These are exactly the designs some Lagrange multiplier β can make
/// optimal in eq. IV.9; they are a subset of [`pareto_indices`].
#[must_use]
pub fn lower_hull_indices(points: &[Point2]) -> Vec<usize> {
    SortedFront::new(points).lower_hull(points)
}

/// A named point in a k-dimensional minimize-all objective space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointK {
    /// Candidate name, shared with the design point it was built from.
    pub name: Name,
    /// Objective values (all lower-is-better).
    pub objectives: Vec<f64>,
}

impl PointK {
    /// Creates a point.
    #[must_use]
    pub fn new(name: impl Into<Name>, objectives: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            objectives,
        }
    }

    /// `true` when `self` dominates `other` (no worse everywhere, strictly
    /// better somewhere). Points of mismatched dimension never dominate.
    #[must_use]
    pub fn dominates(&self, other: &PointK) -> bool {
        if self.objectives.len() != other.objectives.len() {
            return false;
        }
        let mut strictly = false;
        for (a, b) in self.objectives.iter().zip(&other.objectives) {
            if a > b {
                return false;
            }
            if a < b {
                strictly = true;
            }
        }
        strictly
    }
}

/// Indices of the k-dimensional Pareto-optimal points, in input order.
///
/// Used for elimination when *multiple* carbon factors are unknown
/// simultaneously (e.g. both `CI_use(t)` and `CI_fab`, §IV-B's suggested
/// extension): any design dominated in
/// (`materials·D`, `fab_energy·D`, `E·D`) cannot be tCDP-optimal for any
/// non-negative pair of intensities.
///
/// # Examples
///
/// ```
/// use cordoba::pareto::{pareto_indices_kd, PointK};
///
/// let pts = vec![
///     PointK::new("a", vec![1.0, 5.0, 2.0]),
///     PointK::new("b", vec![2.0, 6.0, 3.0]), // dominated by a
///     PointK::new("c", vec![3.0, 1.0, 9.0]),
/// ];
/// assert_eq!(pareto_indices_kd(&pts), vec![0, 2]);
/// ```
#[must_use]
pub fn pareto_indices_kd(points: &[PointK]) -> Vec<usize> {
    // The pre-sort argument below needs finite sums: with an infinity (or
    // NaN) in play, a dominator's objective sum is no longer strictly
    // smaller than its victim's, so fall back to the all-pairs reference.
    let all_finite = points
        .iter()
        .all(|p| p.objectives.iter().all(|o| o.is_finite()));
    if !all_finite {
        return pareto_indices_kd_naive(points);
    }
    // Sort by ascending objective sum. If `a` dominates `b` then `a` is
    // <= everywhere and < somewhere, so sum(a) < sum(b) strictly: every
    // dominator precedes its victims. By transitivity a rejected
    // dominator's own (accepted) dominator also dominates the victim, so
    // each candidate only needs checking against the accepted front —
    // still O(n²) worst case, but the front is typically tiny and the
    // scan short-circuits on the first hit.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        let sum = |i: usize| points[i].objectives.iter().sum::<f64>();
        sum(a).total_cmp(&sum(b))
    });
    let mut front: Vec<usize> = Vec::new();
    for &i in &order {
        if !front.iter().any(|&j| points[j].dominates(&points[i])) {
            front.push(i);
        }
    }
    front.sort_unstable();
    front
}

/// Reference all-pairs k-dimensional Pareto filter (the executable
/// specification for [`pareto_indices_kd`]'s pre-sorted fast path, and its
/// fallback for non-finite objectives).
#[must_use]
pub fn pareto_indices_kd_naive(points: &[PointK]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.dominates(&points[i]))
        })
        .collect()
}

/// Fraction of `points` eliminated by keeping only the Pareto front.
///
/// Returns 0 for an empty input.
#[must_use]
pub fn elimination_fraction(points: &[Point2]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    1.0 - pareto_indices(points).len() as f64 / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point2::new(format!("p{i}"), x, y))
            .collect()
    }

    #[test]
    fn domination_rules() {
        let a = Point2::new("a", 1.0, 1.0);
        let b = Point2::new("b", 2.0, 2.0);
        let c = Point2::new("c", 1.0, 2.0);
        let d = Point2::new("d", 1.0, 1.0);
        assert!(a.dominates(&b));
        assert!(a.dominates(&c));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&d)); // equal points do not dominate
        assert!(c.dominates(&b)); // c dominates b (x smaller, y equal)
    }

    #[test]
    fn front_of_staircase() {
        let points = pts(&[(1.0, 5.0), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0), (5.0, 1.5)]);
        let front = pareto_indices(&points);
        assert_eq!(front, vec![0, 1, 2, 4]); // (4,4) dominated by (3,2)
    }

    #[test]
    fn hull_is_subset_of_front() {
        // (2.0, 3.1) is Pareto-optimal but above the chord from (1,5) to
        // (3,2): no β can select it.
        let points = pts(&[(1.0, 5.0), (2.0, 3.6), (3.0, 2.0)]);
        let front = pareto_indices(&points);
        assert_eq!(front.len(), 3);
        let hull = lower_hull_indices(&points);
        assert_eq!(hull, vec![0, 2]);
    }

    #[test]
    fn hull_keeps_convex_knees() {
        let points = pts(&[(1.0, 5.0), (2.0, 2.5), (3.0, 2.0)]);
        let hull = lower_hull_indices(&points);
        assert_eq!(hull, vec![0, 1, 2]);
    }

    #[test]
    fn every_hull_point_wins_some_beta() {
        let points = pts(&[
            (1.0, 9.0),
            (2.0, 4.0),
            (4.0, 2.0),
            (8.0, 1.0),
            (3.0, 8.0),
            (6.0, 6.0),
        ]);
        let hull = lower_hull_indices(&points);
        for &i in &hull {
            let mut wins = false;
            for exp in -60..=60 {
                let beta = 2f64.powi(exp);
                let best = (0..points.len())
                    .min_by(|&a, &b| {
                        (points[a].x + beta * points[a].y)
                            .total_cmp(&(points[b].x + beta * points[b].y))
                    })
                    .unwrap();
                if best == i {
                    wins = true;
                    break;
                }
            }
            assert!(wins, "hull point {i} never wins a scalarization");
        }
    }

    #[test]
    fn no_off_front_point_wins_any_beta() {
        let points = pts(&[(1.0, 5.0), (2.0, 6.0), (3.0, 2.0)]);
        // p1 is dominated; for every beta it must lose.
        for exp in -40..=40 {
            let beta = 2f64.powi(exp);
            let best = (0..points.len())
                .min_by(|&a, &b| {
                    (points[a].x + beta * points[a].y)
                        .total_cmp(&(points[b].x + beta * points[b].y))
                })
                .unwrap();
            assert_ne!(best, 1);
        }
    }

    #[test]
    fn elimination_fraction_counts_dominated() {
        let points = pts(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.5, 4.0)]);
        // Front: (1,1) and (0.5,4). 2 of 4 eliminated.
        assert!((elimination_fraction(&points) - 0.5).abs() < 1e-12);
        assert_eq!(elimination_fraction(&[]), 0.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(pareto_indices(&[]).is_empty());
        assert!(lower_hull_indices(&[]).is_empty());
        let single = pts(&[(1.0, 1.0)]);
        assert_eq!(pareto_indices(&single), vec![0]);
        assert_eq!(lower_hull_indices(&single), vec![0]);
        // Duplicates are all kept on the front, deduped on the hull.
        let dup = pts(&[(1.0, 1.0), (1.0, 1.0)]);
        assert_eq!(pareto_indices(&dup).len(), 2);
        assert_eq!(lower_hull_indices(&dup).len(), 1);
    }

    #[test]
    fn kd_domination_and_front() {
        let pts = vec![
            PointK::new("a", vec![1.0, 1.0, 1.0]),
            PointK::new("b", vec![1.0, 1.0, 2.0]), // dominated by a
            PointK::new("c", vec![0.5, 2.0, 3.0]),
            PointK::new("d", vec![2.0, 0.5, 3.0]),
        ];
        assert!(pts[0].dominates(&pts[1]));
        assert!(!pts[1].dominates(&pts[0]));
        assert!(!pts[2].dominates(&pts[3]));
        assert_eq!(pareto_indices_kd(&pts), vec![0, 2, 3]);
        // Equal points do not dominate each other.
        let eq = vec![
            PointK::new("x", vec![1.0, 2.0]),
            PointK::new("y", vec![1.0, 2.0]),
        ];
        assert_eq!(pareto_indices_kd(&eq).len(), 2);
        // Dimension mismatch never dominates.
        let odd = PointK::new("odd", vec![0.0]);
        assert!(!odd.dominates(&pts[0]));
        assert!(pareto_indices_kd(&[]).is_empty());
    }

    #[test]
    fn kd_front_reduces_to_2d_front() {
        let coords = [(1.0, 5.0), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0), (5.0, 1.5)];
        let p2 = pts(&coords);
        let pk: Vec<PointK> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| PointK::new(format!("p{i}"), vec![x, y]))
            .collect();
        assert_eq!(pareto_indices(&p2), pareto_indices_kd(&pk));
    }

    /// Deterministic xorshift stream for the agreement tests.
    fn xorshift_points(seed: u64, n: usize) -> Vec<Point2> {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Point2::new(format!("r{i}"), next() * 100.0, next() * 100.0))
            .collect()
    }

    #[test]
    fn skyline_matches_naive_on_random_clouds() {
        for seed in 1..=20u64 {
            let points = xorshift_points(seed, 300);
            assert_eq!(
                pareto_indices(&points),
                pareto_indices_naive(&points),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn skyline_matches_naive_on_degenerate_coordinates() {
        let inf = f64::INFINITY;
        let cases: Vec<Vec<Point2>> = vec![
            pts(&[(0.0, -0.0), (-0.0, 0.0), (1.0, 1.0)]),
            pts(&[(inf, 0.0), (0.0, inf), (inf, inf), (1.0, 1.0)]),
            pts(&[(inf, inf), (inf, inf)]),
            pts(&[(f64::NAN, 1.0), (1.0, f64::NAN), (0.5, 0.5), (2.0, 2.0)]),
            pts(&[(1.0, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]),
            pts(&[(-inf, 5.0), (0.0, 5.0), (-inf, 4.0)]),
            Vec::new(),
        ];
        for (k, points) in cases.iter().enumerate() {
            assert_eq!(
                pareto_indices(points),
                pareto_indices_naive(points),
                "case {k}"
            );
        }
    }

    #[test]
    fn signed_zero_group_takes_its_minimum_y_from_both_signs() {
        // -0.0 sorts before 0.0 under `total_cmp`, so the group's first
        // point is not its lowest; (0.0, 5.0) dominates (-0.0, 6.0), and
        // the group minimum also bounds the later group.
        let points = pts(&[(-0.0, 6.0), (0.0, 5.0), (-0.0, 7.0), (1.0, 5.5)]);
        assert_eq!(pareto_indices(&points), vec![1]);
        assert_eq!(pareto_indices(&points), pareto_indices_naive(&points));
        assert_eq!(lower_hull_indices(&points), vec![1]);
    }

    #[test]
    fn total_key_orders_like_total_cmp_and_round_trips() {
        let values = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in values {
            assert_eq!(from_total_key(total_key(a)).to_bits(), a.to_bits());
            for b in values {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn kd_presort_matches_naive() {
        let mut state = 99u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for dims in [1usize, 2, 3, 4] {
            let points: Vec<PointK> = (0..120)
                .map(|i| PointK::new(format!("k{i}"), (0..dims).map(|_| next() * 10.0).collect()))
                .collect();
            assert_eq!(
                pareto_indices_kd(&points),
                pareto_indices_kd_naive(&points),
                "dims {dims}"
            );
        }
        // Non-finite objectives take the fallback and still agree.
        let weird = vec![
            PointK::new("a", vec![f64::INFINITY, 0.0]),
            PointK::new("b", vec![0.0, f64::NAN]),
            PointK::new("c", vec![1.0, 1.0]),
            PointK::new("d", vec![2.0, 2.0]),
        ];
        assert_eq!(pareto_indices_kd(&weird), pareto_indices_kd_naive(&weird));
    }

    #[test]
    fn front_returns_points() {
        let points = pts(&[(1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]);
        let front = pareto_front(&points);
        assert_eq!(front.len(), 2);
        assert_eq!(front[0].name, "p0");
    }
}
