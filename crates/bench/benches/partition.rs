//! Microbench: partitioner cut-point computation on large skewed columns.

use qar_bench::harness::bench;
use qar_partition::{EquiDepth, EquiWidth, KMeans1D, Partitioner};
use qar_table::QuantHistogram;

fn lognormal_column(n: usize) -> Vec<f64> {
    let mut state = 4242u64;
    (0..n)
        .map(|_| {
            // Cheap Box-Muller over an LCG.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u1 = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u2 = (state >> 11) as f64 / (1u64 << 53) as f64;
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (7.5 + 0.5 * z).exp()
        })
        .collect()
}

fn main() {
    let values = QuantHistogram::from_values(&lognormal_column(100_000));
    for k in [25usize, 100] {
        for p in [
            &EquiDepth as &dyn Partitioner,
            &EquiWidth,
            &KMeans1D::default(),
        ] {
            bench(&format!("partition/{}/k{k}", p.name()), || {
                p.cut_points(values.values(), values.counts(), k).len()
            });
        }
    }
}
