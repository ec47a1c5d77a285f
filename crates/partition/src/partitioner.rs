//! Cut-point strategies for quantitative attributes.
//!
//! All partitioners return *cut points*: a strictly increasing `Vec<f64>` of
//! length `k-1` for (at most) `k` intervals, where a value `v` falls in
//! interval `i` iff `cuts[i-1] <= v < cuts[i]` (with the obvious open ends).
//! Equal data values can never be separated, so a partitioner may return
//! fewer cuts than requested when the data has heavy duplication.
//!
//! Every strategy reads the column's value histogram — its distinct values
//! in ascending order with their counts, as `qar_table::QuantHistogram`
//! holds them — so it works in O(distinct) (k-means: O(rows) per
//! iteration) and never sorts the column.

/// A strategy for choosing cut points over one quantitative column.
pub trait Partitioner {
    /// Compute cut points splitting a column into at most `k` intervals.
    /// The column is given as its histogram: `values` are its distinct
    /// values in ascending order and `counts[i]` is how often `values[i]`
    /// occurs (at least once).
    ///
    /// Returns an empty vector when `k <= 1`, the column has fewer than two
    /// cells, or all its values are equal.
    fn cut_points(&self, values: &[f64], counts: &[u64], k: usize) -> Vec<f64>;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Midpoint between two adjacent distinct values — cut points sit strictly
/// between data values so interval membership is unambiguous.
fn midpoint(a: f64, b: f64) -> f64 {
    a + (b - a) / 2.0
}

/// A cut point `c` with `a < c <= b` for adjacent distinct values `a < b`.
///
/// The plain midpoint is preferred, but when `a` and `b` are so close that
/// `a + (b - a) / 2` rounds back onto `a` (adjacent or near-adjacent
/// floats), the cut falls *on* the left value — and since membership is
/// `v >= cut ⇒ right interval`, every copy of `a` would silently migrate
/// to the right interval, leaving the left one empty. Clamping to `b`
/// keeps the split unambiguous: values `< b` left, values `>= b` right.
fn cut_between(a: f64, b: f64) -> f64 {
    debug_assert!(a < b, "cut_between needs distinct ordered values");
    let mid = midpoint(a, b);
    if mid > a {
        mid
    } else {
        b
    }
}

/// Full-resolution cuts: one interval per distinct value. The right answer
/// for every strategy when `k` is at least the distinct-value count —
/// anything else either wastes intervals (duplicates) or merges values it
/// had room to separate.
fn full_resolution_cuts(distinct: &[f64]) -> Vec<f64> {
    distinct
        .windows(2)
        .map(|w| cut_between(w[0], w[1]))
        .collect()
}

/// Equi-depth partitioning: each interval receives (as close as possible to)
/// the same number of *records*. The paper proves (Lemma 4) this minimizes
/// the partial completeness level for a given interval count, because it
/// minimizes the maximum interval support.
///
/// Ties: a run of equal values cannot be split, so the cut after a
/// quantile boundary lands at the end of the run. With highly skewed data
/// this can produce fewer than `k` intervals (the paper's future-work
/// section discusses exactly this weakness).
#[derive(Debug, Clone, Copy, Default)]
pub struct EquiDepth;

impl Partitioner for EquiDepth {
    fn cut_points(&self, distinct: &[f64], counts: &[u64], k: usize) -> Vec<f64> {
        debug_assert_eq!(distinct.len(), counts.len());
        let n = counts.iter().sum::<u64>() as usize;
        if k <= 1 || n < 2 {
            return Vec::new();
        }
        if distinct.len() <= k {
            // Enough intervals for every distinct value: full resolution.
            // Walking quantile targets here can skip gaps (duplicated
            // intervals) while other targets land inside runs (empty ones).
            return full_resolution_cuts(distinct);
        }
        // `ends[d]` is the number of records with a value <= distinct[d].
        let ends: Vec<usize> = counts
            .iter()
            .scan(0usize, |seen, &c| {
                *seen += c as usize;
                Some(*seen)
            })
            .collect();
        let mut cuts = Vec::with_capacity(k - 1);
        for j in 1..k {
            // Records [0, target) should land left of cut j.
            let target = (j * n) / k;
            if target == 0 || target >= n {
                continue;
            }
            // Can't cut inside a run of equal values: the cut goes after
            // the run holding record `target - 1`.
            let run = ends.partition_point(|&end| end < target);
            if run + 1 >= distinct.len() {
                continue;
            }
            let cut = cut_between(distinct[run], distinct[run + 1]);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        cuts
    }

    fn name(&self) -> &'static str {
        "equi-depth"
    }
}

/// Equi-width partitioning: the value range `[min, max]` is split into `k`
/// intervals of equal width. Baseline for the partitioning ablation — the
/// paper notes it handles skew poorly (a few intervals soak up most
/// records, raising the achieved partial-completeness level).
#[derive(Debug, Clone, Copy, Default)]
pub struct EquiWidth;

impl Partitioner for EquiWidth {
    fn cut_points(&self, values: &[f64], counts: &[u64], k: usize) -> Vec<f64> {
        if k <= 1 || counts.iter().sum::<u64>() < 2 {
            return Vec::new();
        }
        let (min, max) = (values[0], values[values.len() - 1]);
        if max <= min {
            return Vec::new();
        }
        let width = (max - min) / k as f64;
        let mut cuts = Vec::with_capacity(k - 1);
        for j in 1..k {
            let cut = min + width * j as f64;
            if cuts.last().is_none_or(|&last| cut > last) && cut > min && cut < max {
                cuts.push(cut);
            }
        }
        cuts
    }

    fn name(&self) -> &'static str {
        "equi-width"
    }
}

/// One-dimensional k-means (Lloyd's algorithm over sorted data with
/// quantile initialization). The paper's conclusion suggests clustering for
/// skewed data: "Equi-depth partitioning may not work very well on highly
/// skewed data ... It may be worth exploring the use of clustering
/// algorithms \[JD88\] for partitioning".
///
/// Deterministic: initialization is by quantiles, not random seeding, so
/// repeated runs agree.
#[derive(Debug, Clone, Copy)]
pub struct KMeans1D {
    /// Maximum Lloyd iterations (convergence is typically much faster).
    pub max_iterations: usize,
}

impl Default for KMeans1D {
    fn default() -> Self {
        KMeans1D { max_iterations: 64 }
    }
}

impl Partitioner for KMeans1D {
    fn cut_points(&self, distinct: &[f64], counts: &[u64], k: usize) -> Vec<f64> {
        if k <= 1 || counts.iter().sum::<u64>() < 2 || distinct.len() < 2 {
            return Vec::new();
        }
        if distinct.len() <= k {
            // One interval per distinct value; no clustering to do.
            return full_resolution_cuts(distinct);
        }
        let d = distinct.len();
        // Quantile init over the *distinct* values. Sampling record
        // quantiles can land several seeds in one duplicate run on skewed
        // data, collapsing them to a single center and forfeiting
        // intervals the data had room for. Distinct quantiles are
        // guaranteed pairwise different: `d > k` makes `(j * d) / k`
        // strictly increasing in `j`.
        let mut centers: Vec<f64> = (0..k).map(|j| distinct[(j * d) / k]).collect();
        debug_assert!(centers.windows(2).all(|w| w[0] < w[1]));
        // Clusters are runs of distinct values; `boundaries` holds the
        // index of the first distinct value of every cluster but the first.
        let mut boundaries: Vec<usize> = Vec::new();
        for _ in 0..self.max_iterations {
            // Assign: in 1-D, cluster boundaries are where the midpoint
            // between adjacent centers falls.
            let new_boundaries: Vec<usize> = centers
                .windows(2)
                .map(|w| {
                    let mid = midpoint(w[0], w[1]);
                    distinct.partition_point(|&x| x < mid)
                })
                .collect();
            // Update centers as cluster means. The sum runs over every
            // record in ascending order, the same additions a sorted copy
            // of the column would make, so the means agree to the bit.
            let mut new_centers = Vec::with_capacity(centers.len());
            let mut start = 0usize;
            for &end in new_boundaries.iter().chain(std::iter::once(&d)) {
                if end > start {
                    let mut sum = 0.0f64;
                    let mut records = 0u64;
                    for (&v, &c) in distinct[start..end].iter().zip(&counts[start..end]) {
                        for _ in 0..c {
                            sum += v;
                        }
                        records += c;
                    }
                    new_centers.push(sum / records as f64);
                }
                start = end;
            }
            new_centers.dedup();
            let converged = new_boundaries == boundaries && new_centers.len() == centers.len();
            boundaries = new_boundaries;
            centers = new_centers;
            if converged {
                break;
            }
        }
        // Convert cluster boundaries to cut points between distinct values.
        let mut cuts = Vec::new();
        for &b in &boundaries {
            if b == 0 || b >= d {
                continue;
            }
            let cut = cut_between(distinct[b - 1], distinct[b]);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        cuts
    }

    fn name(&self) -> &'static str {
        "kmeans-1d"
    }
}

/// Fractional support of each interval induced by `cuts` over `values`,
/// paired with whether the interval contains more than one distinct value —
/// the exact input `qar_partition::achieved_level` expects.
pub fn interval_supports(values: &[f64], cuts: &[f64]) -> Vec<(f64, bool)> {
    let n = values.len();
    let k = cuts.len() + 1;
    let mut counts = vec![0usize; k];
    let mut first_value = vec![f64::NAN; k];
    let mut multi = vec![false; k];
    for &v in values {
        let idx = cuts.partition_point(|&c| c <= v);
        counts[idx] += 1;
        if first_value[idx].is_nan() {
            first_value[idx] = v;
        } else if first_value[idx] != v {
            multi[idx] = true;
        }
    }
    counts
        .into_iter()
        .zip(multi)
        .map(|(c, m)| (if n == 0 { 0.0 } else { c as f64 / n as f64 }, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cut_points` over the histogram of a raw column.
    trait CutRaw {
        fn cut_points_of(&self, column: &[f64], k: usize) -> Vec<f64>;
    }

    impl<P: Partitioner + ?Sized> CutRaw for P {
        fn cut_points_of(&self, column: &[f64], k: usize) -> Vec<f64> {
            let h = qar_table::QuantHistogram::from_values(column);
            self.cut_points(h.values(), h.counts(), k)
        }
    }

    fn depth_counts(values: &[f64], cuts: &[f64]) -> Vec<usize> {
        let k = cuts.len() + 1;
        let mut counts = vec![0usize; k];
        for &v in values {
            counts[cuts.partition_point(|&c| c <= v)] += 1;
        }
        counts
    }

    #[test]
    fn equi_depth_splits_uniform_data_evenly() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let cuts = EquiDepth.cut_points_of(&values, 4);
        assert_eq!(cuts.len(), 3);
        assert_eq!(depth_counts(&values, &cuts), vec![25, 25, 25, 25]);
    }

    #[test]
    fn equi_depth_cannot_split_ties() {
        // 90 copies of 1.0 and ten distinct tail values: at most 2 useful cuts.
        let mut values = vec![1.0; 90];
        values.extend((2..12).map(|i| i as f64));
        let cuts = EquiDepth.cut_points_of(&values, 4);
        // All cuts must be > 1.0 (the run can't be split).
        assert!(cuts.iter().all(|&c| c > 1.0));
        let counts = depth_counts(&values, &cuts);
        assert_eq!(counts[0], 90);
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }

    #[test]
    fn equi_depth_handles_degenerate_inputs() {
        assert!(EquiDepth.cut_points_of(&[], 4).is_empty());
        assert!(EquiDepth.cut_points_of(&[1.0], 4).is_empty());
        assert!(EquiDepth.cut_points_of(&[1.0, 1.0, 1.0], 4).is_empty());
        assert!(EquiDepth.cut_points_of(&[1.0, 2.0], 1).is_empty());
    }

    #[test]
    fn equi_depth_unsorted_input() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0, 6.0];
        let cuts = EquiDepth.cut_points_of(&values, 2);
        assert_eq!(cuts.len(), 1);
        assert_eq!(depth_counts(&values, &cuts), vec![3, 3]);
    }

    #[test]
    fn equi_width_splits_range_evenly() {
        let values: Vec<f64> = vec![0.0, 10.0];
        let cuts = EquiWidth.cut_points_of(&values, 4);
        assert_eq!(cuts, vec![2.5, 5.0, 7.5]);
    }

    #[test]
    fn equi_width_skew_pathology() {
        // 99 values near 0 and one at 100: equi-width piles everything into
        // the first interval; equi-depth spreads records.
        let mut values: Vec<f64> = (0..99).map(|i| i as f64 / 100.0).collect();
        values.push(100.0);
        let w = EquiWidth.cut_points_of(&values, 4);
        let d = EquiDepth.cut_points_of(&values, 4);
        let w_max = depth_counts(&values, &w).into_iter().max().unwrap();
        let d_max = depth_counts(&values, &d).into_iter().max().unwrap();
        assert!(
            w_max > d_max,
            "equi-width max {w_max} <= equi-depth max {d_max}"
        );
        assert_eq!(d_max, 25);
    }

    #[test]
    fn equi_width_constant_column() {
        assert!(EquiWidth.cut_points_of(&[3.0, 3.0, 3.0], 5).is_empty());
    }

    #[test]
    fn kmeans_finds_obvious_clusters() {
        let mut values = Vec::new();
        values.extend((0..50).map(|i| 0.0 + i as f64 * 0.01));
        values.extend((0..50).map(|i| 100.0 + i as f64 * 0.01));
        let cuts = KMeans1D::default().cut_points_of(&values, 2);
        assert_eq!(cuts.len(), 1);
        assert!(
            cuts[0] > 1.0 && cuts[0] < 100.0,
            "cut {} not in gap",
            cuts[0]
        );
    }

    #[test]
    fn kmeans_degenerate_inputs() {
        assert!(KMeans1D::default().cut_points_of(&[], 3).is_empty());
        assert!(KMeans1D::default().cut_points_of(&[2.0, 2.0], 3).is_empty());
    }

    #[test]
    fn kmeans_is_deterministic() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64).collect();
        let a = KMeans1D::default().cut_points_of(&values, 7);
        let b = KMeans1D::default().cut_points_of(&values, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn interval_supports_sum_to_one_and_flag_multis() {
        let values = vec![1.0, 1.0, 2.0, 3.0, 3.0, 3.0];
        let cuts = vec![2.5];
        let sups = interval_supports(&values, &cuts);
        assert_eq!(sups.len(), 2);
        let total: f64 = sups.iter().map(|(s, _)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(sups[0], (0.5, true)); // {1,1,2}: two distinct values
        assert_eq!(sups[1], (0.5, false)); // {3,3,3}: single value
    }

    #[test]
    fn cut_points_strictly_increasing_for_all_partitioners() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 17) % 83) as f64).collect();
        for p in [
            &EquiDepth as &dyn Partitioner,
            &EquiWidth,
            &KMeans1D::default(),
        ] {
            for k in [2, 3, 10, 50] {
                let cuts = p.cut_points_of(&values, k);
                assert!(
                    cuts.windows(2).all(|w| w[0] < w[1]),
                    "{} k={k} produced non-increasing cuts",
                    p.name()
                );
                assert!(cuts.len() < k);
            }
        }
    }

    #[test]
    fn adjacent_float_runs_are_never_split_or_emptied() {
        // `b` is the very next float after `a`: the naive midpoint rounds
        // back onto `a`, which would push every copy of `a` into the right
        // interval and leave the left one empty.
        let a = 1.0_f64;
        let b = f64::from_bits(a.to_bits() + 1);
        for p in [&EquiDepth as &dyn Partitioner, &KMeans1D::default()] {
            let values = [a, a, b, b];
            let cuts = p.cut_points_of(&values, 2);
            assert_eq!(cuts.len(), 1, "{} found no cut", p.name());
            assert!(
                a < cuts[0] && cuts[0] <= b,
                "{} cut on/outside run",
                p.name()
            );
            assert_eq!(depth_counts(&values, &cuts), vec![2, 2], "{}", p.name());
        }
    }

    #[test]
    fn k_at_least_distinct_count_gives_full_resolution() {
        // k >= number of distinct values: one non-empty interval per
        // distinct value, never an empty or duplicated interval.
        let values = [5.0, 1.0, 1.0, 3.0, 3.0, 3.0, 5.0, 1.0];
        for p in [&EquiDepth as &dyn Partitioner, &KMeans1D::default()] {
            for k in [3, 4, 10] {
                let cuts = p.cut_points_of(&values, k);
                assert_eq!(cuts.len(), 2, "{} k={k}", p.name());
                let counts = depth_counts(&values, &cuts);
                assert_eq!(counts, vec![3, 3, 2], "{} k={k}", p.name());
            }
        }
    }

    #[test]
    fn kmeans_center_seeds_survive_duplicate_runs() {
        // 1 appears 8 times out of 10: record-quantile seeding would put
        // both centers inside the run of 1s and collapse them, returning
        // no cuts at all even though a 2-way split exists.
        let mut values = vec![0.0];
        values.extend(std::iter::repeat_n(1.0, 8));
        values.push(2.0);
        let cuts = KMeans1D::default().cut_points_of(&values, 2);
        assert_eq!(cuts.len(), 1, "center collapse lost the split");
        let counts = depth_counts(&values, &cuts);
        assert!(counts.iter().all(|&c| c > 0), "empty interval: {counts:?}");
    }

    #[test]
    fn names() {
        assert_eq!(EquiDepth.name(), "equi-depth");
        assert_eq!(EquiWidth.name(), "equi-width");
        assert_eq!(KMeans1D::default().name(), "kmeans-1d");
    }
}
