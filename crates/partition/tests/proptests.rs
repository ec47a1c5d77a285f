//! Randomized property tests for partitioning invariants (Lemmas 2–4 made
//! executable).

use qar_partition::partitioner::{interval_supports, EquiDepth, EquiWidth, KMeans1D, Partitioner};
use qar_partition::{achieved_level, num_intervals, PartialCompleteness};
use qar_prng::{cases, Prng};
use qar_table::QuantHistogram;

/// `cut_points` over the histogram of a raw column.
trait CutRaw {
    fn cut_points_of(&self, column: &[f64], k: usize) -> Vec<f64>;
}

impl<P: Partitioner + ?Sized> CutRaw for P {
    fn cut_points_of(&self, column: &[f64], k: usize) -> Vec<f64> {
        let h = QuantHistogram::from_values(column);
        self.cut_points(h.values(), h.counts(), k)
    }
}

fn count_per_interval(values: &[f64], cuts: &[f64]) -> Vec<usize> {
    let mut counts = vec![0usize; cuts.len() + 1];
    for &v in values {
        counts[cuts.partition_point(|&c| c <= v)] += 1;
    }
    counts
}

fn random_values(rng: &mut Prng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range(min_len..max_len);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A set of distinct integers (as f64s) — the duplicate-free data some
/// lemmas need to hold exactly.
fn random_distinct(rng: &mut Prng, lo: i64, hi: i64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.gen_range(min_len..max_len);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < n {
        seen.insert(rng.gen_range(lo..hi));
    }
    seen.into_iter().map(|v| v as f64).collect()
}

/// Cut points are strictly increasing and lie strictly inside the data
/// range for every strategy.
#[test]
fn cuts_well_formed() {
    cases(64, 0x5EED_9186_0001, |case, rng| {
        let values = random_values(rng, -1000.0, 1000.0, 2, 300);
        let k = rng.gen_range(2..20usize);
        for p in [
            &EquiDepth as &dyn Partitioner,
            &EquiWidth,
            &KMeans1D::default(),
        ] {
            let cuts = p.cut_points_of(&values, k);
            assert!(cuts.len() < k, "case {case} {}", p.name());
            assert!(
                cuts.windows(2).all(|w| w[0] < w[1]),
                "case {case} {}",
                p.name()
            );
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                cuts.iter().all(|&c| c > min && c < max),
                "case {case} {}",
                p.name()
            );
        }
    });
}

/// Every interval induced by the cuts is non-empty (no wasted codes).
#[test]
fn equi_depth_intervals_nonempty() {
    cases(64, 0x5EED_9186_0002, |case, rng| {
        let values = random_values(rng, -100.0, 100.0, 2, 300);
        let k = rng.gen_range(2..20usize);
        let cuts = EquiDepth.cut_points_of(&values, k);
        let counts = count_per_interval(&values, &cuts);
        assert!(
            counts.iter().all(|&c| c > 0),
            "case {case} counts {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), values.len(), "case {case}");
    });
}

/// Lemma 4 (the optimality claim behind equi-depth): among the strategies,
/// equi-depth never has a *larger* maximum multi-value interval support...
/// except that ties in the data can force it to; we assert it on
/// duplicate-free data where the claim is exact.
#[test]
fn equi_depth_minimizes_max_support_on_distinct_data() {
    cases(64, 0x5EED_9186_0003, |case, rng| {
        let values = random_distinct(rng, -10_000, 10_000, 10, 200);
        let k = rng.gen_range(2..10usize);
        let d_cuts = EquiDepth.cut_points_of(&values, k);
        let w_cuts = EquiWidth.cut_points_of(&values, k);
        // Only comparable when both produced a full set of cuts.
        if d_cuts.len() != k - 1 || w_cuts.len() != k - 1 {
            return;
        }
        let d_max = count_per_interval(&values, &d_cuts)
            .into_iter()
            .max()
            .unwrap();
        let w_max = count_per_interval(&values, &w_cuts)
            .into_iter()
            .max()
            .unwrap();
        assert!(
            d_max <= w_max,
            "case {case}: equi-depth max {d_max} > equi-width max {w_max}"
        );
    });
}

/// Requesting the interval count from Equation (2) and partitioning
/// equi-depth yields an achieved level (Equation 1 over measured supports)
/// no worse than requested — on duplicate-free data, where equi-depth can
/// actually hit its quantiles, modulo the ceil slack.
#[test]
fn requested_level_is_achieved() {
    cases(64, 0x5EED_9186_0004, |case, rng| {
        let values = random_distinct(rng, -100_000, 100_000, 50, 500);
        let level = rng.gen_range(15u32..60) as f64 / 10.0;
        let minsup = 0.1;
        let intervals = num_intervals(1, minsup, level).unwrap();
        if !(2..=values.len()).contains(&intervals) {
            return;
        }
        let cuts = EquiDepth.cut_points_of(&values, intervals);
        let sups = vec![interval_supports(&values, &cuts)];
        let achieved = achieved_level(1, minsup, &sups);
        // Equi-depth intervals can hold up to ceil(n/k) records; allow the
        // corresponding slack of one record over 1/intervals.
        let slack_support = 1.0 / intervals as f64 + 1.0 / values.len() as f64;
        let bound = PartialCompleteness {
            num_quantitative: 1,
            minsup,
        }
        .level_for_max_support(slack_support);
        assert!(
            achieved <= bound + 1e-9,
            "case {case}: achieved {achieved} > bound {bound}"
        );
    });
}

/// Equation (2) is antitone in the level: higher K (more loss allowed)
/// means fewer intervals.
#[test]
fn intervals_antitone_in_level() {
    cases(64, 0x5EED_9186_0005, |case, rng| {
        let n = rng.gen_range(1..10usize);
        let m = rng.gen_range(1u32..100) as f64 / 100.0;
        let mut last = usize::MAX;
        for level in [1.2, 1.5, 2.0, 3.0, 5.0] {
            let i = num_intervals(n, m, level).unwrap();
            assert!(i <= last, "case {case}");
            last = i;
        }
    });
}
