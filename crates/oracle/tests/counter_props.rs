//! Randomized property test of Section 5.2's two counting backends: they
//! must agree with each other and with a direct per-record scan.

use qar_oracle::{CounterKind, RectCounter};
use qar_prng::cases;

/// Array counting == R*-tree counting == naive scan on random rects and
/// points.
#[test]
fn counters_agree_with_naive() {
    cases(128, 0x5EED_17E3_0002, |case, rng| {
        let d = rng.gen_range(1..4usize);
        let dims: Vec<u32> = (0..d).map(|_| rng.gen_range(2..12u32)).collect();
        let num_rects = rng.gen_range(1..25usize);
        let rects: Vec<(Vec<u32>, Vec<u32>)> = (0..num_rects)
            .map(|_| {
                let mut lo = Vec::with_capacity(d);
                let mut hi = Vec::with_capacity(d);
                for &dim in &dims {
                    let x = rng.gen_range(0..dim);
                    let y = rng.gen_range(0..dim);
                    lo.push(x.min(y));
                    hi.push(x.max(y));
                }
                (lo, hi)
            })
            .collect();
        let num_points = rng.gen_range(1..80usize);
        let points: Vec<Vec<u32>> = (0..num_points)
            .map(|_| dims.iter().map(|&dim| rng.gen_range(0..dim)).collect())
            .collect();

        let mut array = RectCounter::build_with(CounterKind::Array, &dims, rects.clone());
        let mut rtree = RectCounter::build_with(CounterKind::RTree, &dims, rects.clone());
        for p in &points {
            array.count_record(p);
            rtree.count_record(p);
        }
        let ca = array.finish();
        let cr = rtree.finish();
        let naive: Vec<u64> = rects
            .iter()
            .map(|(lo, hi)| {
                points
                    .iter()
                    .filter(|p| (0..d).all(|j| lo[j] <= p[j] && p[j] <= hi[j]))
                    .count() as u64
            })
            .collect();
        assert_eq!(ca, naive, "case {case} (array)");
        assert_eq!(cr, naive, "case {case} (rtree)");
    });
}
