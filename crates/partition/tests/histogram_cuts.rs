//! The partitioners read a column's value histogram. This property test
//! checks that their cuts equal those of the raw-column implementations
//! they replaced, kept here verbatim as a reference, and that the encoders
//! built from either encode every value identically.

use qar_partition::{EquiDepth, EquiWidth, KMeans1D, Partitioner};
use qar_prng::{cases, Prng};
use qar_table::{AttributeEncoder, QuantHistogram, Value};

/// The raw-column partitioners: each sorts its own copy of the column.
mod raw {
    fn sorted(values: &[f64]) -> Vec<f64> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        v
    }

    fn sorted_distinct(values: &[f64]) -> Vec<f64> {
        let mut d = sorted(values);
        d.dedup();
        d
    }

    fn midpoint(a: f64, b: f64) -> f64 {
        a + (b - a) / 2.0
    }

    fn cut_between(a: f64, b: f64) -> f64 {
        let mid = midpoint(a, b);
        if mid > a {
            mid
        } else {
            b
        }
    }

    fn full_resolution_cuts(distinct: &[f64]) -> Vec<f64> {
        distinct
            .windows(2)
            .map(|w| cut_between(w[0], w[1]))
            .collect()
    }

    pub fn equi_depth(values: &[f64], k: usize) -> Vec<f64> {
        let n = values.len();
        if k <= 1 || n < 2 {
            return Vec::new();
        }
        let v = sorted(values);
        let distinct = sorted_distinct(&v);
        if distinct.len() <= k {
            return full_resolution_cuts(&distinct);
        }
        let mut cuts = Vec::with_capacity(k - 1);
        for j in 1..k {
            let target = (j * n) / k;
            if target == 0 || target >= n {
                continue;
            }
            let mut pos = target;
            while pos < n && v[pos] == v[target - 1] {
                pos += 1;
            }
            if pos >= n {
                continue;
            }
            let cut = cut_between(v[pos - 1], v[pos]);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        cuts
    }

    pub fn equi_width(values: &[f64], k: usize) -> Vec<f64> {
        if k <= 1 || values.len() < 2 {
            return Vec::new();
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(max > min) {
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

    pub fn kmeans(values: &[f64], k: usize, max_iterations: usize) -> Vec<f64> {
        let n = values.len();
        if k <= 1 || n < 2 {
            return Vec::new();
        }
        let v = sorted(values);
        if v[0] == v[n - 1] {
            return Vec::new();
        }
        let distinct = sorted_distinct(&v);
        if distinct.len() <= k {
            return full_resolution_cuts(&distinct);
        }
        let mut centers: Vec<f64> = (0..k).map(|j| distinct[(j * distinct.len()) / k]).collect();
        let mut boundaries: Vec<usize> = Vec::new();
        for _ in 0..max_iterations {
            let mut new_boundaries = Vec::with_capacity(centers.len() - 1);
            for w in centers.windows(2) {
                let mid = midpoint(w[0], w[1]);
                new_boundaries.push(v.partition_point(|&x| x < mid));
            }
            let mut new_centers = Vec::with_capacity(centers.len());
            let mut start = 0usize;
            for &end in new_boundaries.iter().chain(std::iter::once(&n)) {
                if end > start {
                    let mean = v[start..end].iter().sum::<f64>() / (end - start) as f64;
                    new_centers.push(mean);
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
        let mut cuts = Vec::new();
        for &b in &boundaries {
            if b == 0 || b >= n || v[b - 1] == v[b] {
                continue;
            }
            let cut = cut_between(v[b - 1], v[b]);
            if cuts.last().is_none_or(|&last| cut > last) {
                cuts.push(cut);
            }
        }
        cuts
    }
}

/// A column shaped by `shape`: ties, all-equal, tiny, skewed, fractional
/// or holding both zeros.
fn column(rng: &mut Prng, shape: u32) -> Vec<f64> {
    let n = match shape {
        0 => rng.gen_range(0..3usize),
        _ => rng.gen_range(3..400usize),
    };
    (0..n)
        .map(|_| match shape {
            1 => 7.0,
            2 => rng.gen_range(0..6i64) as f64,
            3 => {
                if rng.gen_range(0..10u32) < 8 {
                    1.0
                } else {
                    rng.gen_range(-50..50i64) as f64
                }
            }
            4 => rng.gen_range(-1.0e3..1.0e3),
            5 => *rng.choose(&[-0.0, 0.0, 1.0, -2.5, 0.0]).unwrap(),
            _ => rng.gen_range(-1_000..1_000i64) as f64,
        })
        .collect()
}

#[test]
fn histogram_cuts_equal_raw_column_cuts() {
    cases(400, 0x5EED_4157_0001, |case, rng| {
        let shape = rng.gen_range(0..7u32);
        let raw_values = column(rng, shape);
        // A table stores `-0.0` as `0.0`; the raw reference sees the same.
        let values: Vec<f64> = raw_values
            .iter()
            .map(|&v| if v == 0.0 { 0.0 } else { v })
            .collect();
        let histogram = QuantHistogram::from_values(&raw_values);
        assert_eq!(
            histogram.counts().iter().sum::<u64>() as usize,
            values.len(),
            "case {case}"
        );
        let distinct = histogram.len();
        let k = match rng.gen_range(0..3u32) {
            0 => distinct + rng.gen_range(0..3usize),
            _ => rng.gen_range(1..12usize),
        };
        let kmeans = KMeans1D::default();
        let strategies: [(&dyn Partitioner, Vec<f64>); 3] = [
            (&EquiDepth, raw::equi_depth(&values, k)),
            (&EquiWidth, raw::equi_width(&values, k)),
            (&kmeans, raw::kmeans(&values, k, kmeans.max_iterations)),
        ];
        for (partitioner, expected) in strategies {
            let cuts = partitioner.cut_points(histogram.values(), histogram.counts(), k);
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&cuts),
                bits(&expected),
                "case {case} {} k={k} shape={shape}",
                partitioner.name()
            );
            // The encoder cut from the histogram puts every value where the
            // raw cuts do.
            let encoder = AttributeEncoder::quant_intervals_from(&histogram, cuts);
            for &v in &raw_values {
                let code = encoder.encode("x", &Value::Float(v)).unwrap();
                let raw_code = expected.partition_point(|&c| c <= v) as u32;
                assert_eq!(code, raw_code, "case {case} value {v}");
            }
        }
        // Full resolution: rank among the sorted distinct values.
        let encoder = AttributeEncoder::quant_values_from(&histogram);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        for &v in &raw_values {
            let rank = sorted.partition_point(|&x| x < v) as u32;
            assert_eq!(encoder.encode("x", &Value::Float(v)).unwrap(), rank);
        }
    });
}
