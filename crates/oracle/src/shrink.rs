//! Greedy case minimization: when a case diverges, repeatedly try
//! simpler variants (fewer rows, fewer columns, plainer configuration)
//! and keep any variant that still fails. The result is the fixture a
//! human actually wants to read.
//!
//! The shrinker only requires that the reduced case *fails* — not that it
//! fails with the identical divergence. In practice one bug dominates a
//! failing case, and "any failure" shrinks much further than "the same
//! failure".

use crate::case::{IncrementalCase, MiningCase, PartitionCase, ReproCase};
use crate::check::check_case;
use qar_core::{PartitionSpec, PartitionStrategy};
use qar_table::{AttributeKind, Schema, Table, Value};

/// Upper bound on re-checks during one shrink, so a pathological case
/// cannot stall the fuzz loop.
const MAX_ATTEMPTS: usize = 4000;

/// Minimize a failing case. The input must already fail [`check_case`];
/// the returned case is guaranteed to still fail it.
pub fn shrink(case: ReproCase) -> ReproCase {
    shrink_with(case, |c| check_case(c).is_err())
}

/// Greedy descent with a pluggable failure predicate (tests inject their
/// own predicate; production uses [`check_case`]).
pub(crate) fn shrink_with(case: ReproCase, fails: impl Fn(&ReproCase) -> bool) -> ReproCase {
    let mut current = case;
    let mut attempts = 0usize;
    loop {
        let mut improved = false;
        for candidate in candidates(&current) {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                return current;
            }
            if fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Simpler variants of `case`, biggest reductions first.
fn candidates(case: &ReproCase) -> Vec<ReproCase> {
    match case {
        ReproCase::Mining(c) => mining_candidates(c)
            .into_iter()
            .map(ReproCase::Mining)
            .collect(),
        ReproCase::Kernel(c) => mining_candidates(c)
            .into_iter()
            .map(ReproCase::Kernel)
            .collect(),
        ReproCase::Analytics(c) => mining_candidates(c)
            .into_iter()
            .map(ReproCase::Analytics)
            .collect(),
        ReproCase::Distributed(c) => mining_candidates(c)
            .into_iter()
            .map(ReproCase::Distributed)
            .collect(),
        ReproCase::Incremental(inc) => {
            // Shrinking the table can shorten it past the cut; clamp so
            // every candidate keeps a valid split. Then try moving the
            // cut itself toward the edges (all-delta, all-base).
            let mut out: Vec<ReproCase> = mining_candidates(&inc.case)
                .into_iter()
                .map(|case| {
                    let cut = inc.cut.min(case.table.num_rows());
                    ReproCase::Incremental(IncrementalCase { case, cut })
                })
                .collect();
            for cut in [
                0,
                inc.cut / 2,
                inc.cut.saturating_sub(1),
                inc.case.table.num_rows(),
            ] {
                if cut != inc.cut {
                    out.push(ReproCase::Incremental(IncrementalCase {
                        case: inc.case.clone(),
                        cut,
                    }));
                }
            }
            out
        }
        ReproCase::Partition(c) => partition_candidates(c)
            .into_iter()
            .map(ReproCase::Partition)
            .collect(),
        // Snap and intervals cases are four scalars; nothing to shrink.
        ReproCase::Snap(_) | ReproCase::Intervals(_) => Vec::new(),
    }
}

fn mining_candidates(c: &MiningCase) -> Vec<MiningCase> {
    let mut out = Vec::new();
    let rows = c.table.num_rows();
    let with_table = |table: Table| MiningCase {
        table,
        config: c.config.clone(),
        threads: c.threads,
    };
    // Halve the row count from either end, then drop single rows.
    if rows >= 2 {
        out.push(with_table(keep_rows(&c.table, |i| i < rows / 2)));
        out.push(with_table(keep_rows(&c.table, |i| i >= rows / 2)));
    }
    for r in 0..rows {
        out.push(with_table(keep_rows(&c.table, |i| i != r)));
    }
    // Drop whole columns (a table needs at least one attribute).
    for col in 0..c.table.num_columns() {
        if let Some(table) = drop_column(&c.table, col) {
            out.push(with_table(table));
        }
    }
    // Plainer configurations, one knob at a time.
    let with_config = |f: &dyn Fn(&mut MiningCase)| {
        let mut cand = c.clone();
        f(&mut cand);
        cand
    };
    if c.config.partitioning != PartitionSpec::None {
        out.push(with_config(&|m| {
            m.config.partitioning = PartitionSpec::None
        }));
    }
    if c.config.interest.is_some() {
        out.push(with_config(&|m| m.config.interest = None));
    }
    if !c.config.taxonomies.is_empty() {
        out.push(with_config(&|m| m.config.taxonomies.clear()));
    }
    if c.config.partition_strategy != PartitionStrategy::EquiDepth {
        out.push(with_config(&|m| {
            m.config.partition_strategy = PartitionStrategy::EquiDepth
        }));
    }
    if c.config.max_support != 1.0 {
        out.push(with_config(&|m| m.config.max_support = 1.0));
    }
    if c.config.min_confidence != 0.0 {
        out.push(with_config(&|m| m.config.min_confidence = 0.0));
    }
    if c.config.max_itemset_size != 0 && c.config.max_itemset_size != 1 {
        out.push(with_config(&|m| m.config.max_itemset_size = 1));
    }
    if c.threads != 2 {
        out.push(with_config(&|m| m.threads = 2));
    }
    out
}

fn partition_candidates(c: &PartitionCase) -> Vec<PartitionCase> {
    let mut out = Vec::new();
    let n = c.values.len();
    let with_values = |values: Vec<f64>| PartitionCase {
        values,
        k: c.k,
        strategy: c.strategy,
    };
    if n >= 2 {
        out.push(with_values(c.values[..n / 2].to_vec()));
        out.push(with_values(c.values[n / 2..].to_vec()));
    }
    for i in 0..n {
        let mut values = c.values.clone();
        values.remove(i);
        out.push(with_values(values));
    }
    for k in [c.k / 2, c.k.saturating_sub(1)] {
        if k >= 1 && k != c.k {
            out.push(PartitionCase {
                values: c.values.clone(),
                k,
                strategy: c.strategy,
            });
        }
    }
    if c.strategy != PartitionStrategy::EquiDepth {
        out.push(PartitionCase {
            values: c.values.clone(),
            k: c.k,
            strategy: PartitionStrategy::EquiDepth,
        });
    }
    out
}

/// Copy of `table` keeping only the rows whose index satisfies `keep`.
fn keep_rows(table: &Table, keep: impl Fn(usize) -> bool) -> Table {
    let mut out = Table::new(table.schema().clone());
    for row in table.rows() {
        if keep(row.index()) {
            out.push_row(&row.to_values()).expect("same schema");
        }
    }
    out
}

/// Copy of `table` without attribute `drop`; `None` when it is the last
/// attribute (a table needs at least one).
fn drop_column(table: &Table, drop: usize) -> Option<Table> {
    if table.num_columns() <= 1 {
        return None;
    }
    let mut builder = Schema::builder();
    for (i, (_, def)) in table.schema().iter().enumerate() {
        if i == drop {
            continue;
        }
        builder = match def.kind() {
            AttributeKind::Quantitative => builder.quantitative(def.name()),
            AttributeKind::Categorical => builder.categorical(def.name()),
        };
    }
    let schema = builder.build().ok()?;
    let mut out = Table::new(schema);
    for row in table.rows() {
        let cells: Vec<Value> = (0..table.num_columns())
            .filter(|&c| c != drop)
            .map(|c| row.value(c))
            .collect();
        out.push_row(&cells).expect("same shape");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition_case(values: Vec<f64>) -> ReproCase {
        ReproCase::Partition(PartitionCase {
            values,
            k: 4,
            strategy: PartitionStrategy::KMeans,
        })
    }

    /// A synthetic failure predicate ("fails whenever both 1.0 and 2.0
    /// survive") must shrink a 10-value case down to exactly those two
    /// values and the plainest strategy.
    #[test]
    fn shrinks_to_the_failure_witness() {
        let case = partition_case(vec![5.0, 7.0, 1.0, 9.0, 2.0, 5.0, 3.0, 8.0, 4.0, 6.0]);
        let fails = |c: &ReproCase| match c {
            ReproCase::Partition(p) => p.values.contains(&1.0) && p.values.contains(&2.0),
            _ => false,
        };
        assert!(fails(&case));
        let shrunk = shrink_with(case, fails);
        let ReproCase::Partition(p) = shrunk else {
            panic!("kind changed during shrinking");
        };
        assert_eq!(p.values.len(), 2, "not minimal: {:?}", p.values);
        assert!(p.values.contains(&1.0) && p.values.contains(&2.0));
        assert_eq!(p.strategy, PartitionStrategy::EquiDepth);
        assert_eq!(p.k, 1);
    }

    /// Dropping a column keeps the remaining cells aligned.
    #[test]
    fn drop_column_preserves_remaining_cells() {
        let schema = Schema::builder()
            .quantitative("q")
            .categorical("c")
            .build()
            .unwrap();
        let mut table = Table::new(schema);
        table
            .push_row(&[Value::Float(1.5), Value::from("x")])
            .unwrap();
        table
            .push_row(&[Value::Float(2.5), Value::from("y")])
            .unwrap();
        let dropped = drop_column(&table, 0).expect("two columns");
        assert_eq!(dropped.num_columns(), 1);
        assert_eq!(dropped.schema().attributes()[0].name(), "c");
        assert_eq!(dropped.row(1).value(0), Value::from("y"));
        assert!(drop_column(&dropped, 0).is_none(), "last column must stay");
    }
}
