//! Microbench: the Section 5.2 counting structures — n-dimensional array
//! vs. R*-tree — on a fixed rectangle/point load.

use qar_bench::harness::bench;
use qar_oracle::{CounterKind, RectCounter};

type Workload = (Vec<(Vec<u32>, Vec<u32>)>, Vec<Vec<u32>>);

fn workload(dims: &[u32], num_rects: usize, num_points: usize) -> Workload {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let rects = (0..num_rects)
        .map(|_| {
            let mut lo = Vec::with_capacity(dims.len());
            let mut hi = Vec::with_capacity(dims.len());
            for &d in dims {
                let a = next() % d;
                let b = next() % d;
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            (lo, hi)
        })
        .collect();
    let points = (0..num_points)
        .map(|_| dims.iter().map(|&d| next() % d).collect())
        .collect();
    (rects, points)
}

fn main() {
    for (label, dims, rects, points) in [
        ("2d-50x50", vec![50u32, 50], 2_000usize, 20_000usize),
        ("3d-25", vec![25, 25, 25], 1_000, 10_000),
    ] {
        let (rect_set, point_set) = workload(&dims, rects, points);
        for kind in [CounterKind::Array, CounterKind::RTree] {
            bench(&format!("counting/{kind:?}/{label}"), || {
                let mut counter = RectCounter::build_with(kind, &dims, rect_set.clone());
                for p in point_set.iter() {
                    counter.count_record(p);
                }
                counter.finish()
            });
        }
    }
}
