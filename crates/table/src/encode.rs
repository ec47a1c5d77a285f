//! Step 2 of the paper's problem decomposition: mapping attribute values to
//! consecutive integers.
//!
//! > "For categorical attributes, the values of the attribute are mapped to
//! > a set of consecutive integers. For quantitative attributes that are not
//! > partitioned into intervals, the values are mapped to consecutive
//! > integers such that the order of the values is preserved. If a
//! > quantitative attribute is partitioned into intervals, the intervals are
//! > mapped to consecutive integers, such that the order of the intervals is
//! > preserved."
//!
//! After encoding, the miner sees only `u32` codes per attribute; whether a
//! code denotes a raw value or an interval is transparent to it. The
//! [`AttributeEncoder`] remembers enough to decode codes (and code ranges)
//! back to human-readable form for rule output.

use crate::error::TableError;
use crate::histogram::{CatHistogram, Histogram, QuantHistogram};
use crate::schema::{AttributeId, Schema};
use crate::table::{Column, Table};
use crate::value::{canonical, Value};
use std::sync::Arc;

/// Inclusive display bounds of one encoded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSpec {
    /// Smallest value the interval covers (observed or cut bound).
    pub lo: f64,
    /// Largest value the interval covers (observed or cut bound).
    pub hi: f64,
}

/// Per-attribute mapping between raw values and consecutive integer codes.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeEncoder {
    /// Categorical attribute: sorted distinct labels; code = index.
    Categorical {
        /// Sorted distinct labels.
        labels: Vec<String>,
    },
    /// Quantitative attribute kept at full resolution: sorted distinct
    /// values; code = rank.
    QuantValues {
        /// Sorted distinct values.
        values: Vec<f64>,
        /// True if every value is a whole number (affects display).
        integral: bool,
    },
    /// Quantitative attribute partitioned into intervals at the given cut
    /// points; code = interval index.
    QuantIntervals {
        /// `cuts[i]` separates interval `i` from interval `i+1`; a value `v`
        /// belongs to interval `partition_point(cuts, c <= v)`.
        cuts: Vec<f64>,
        /// Display bounds per interval.
        display: Vec<IntervalSpec>,
        /// True if the underlying data is all whole numbers.
        integral: bool,
    },
    /// Categorical attribute with an is-a taxonomy: labels in DFS leaf
    /// order so every taxonomy node is a contiguous code interval
    /// (`groups`). Generalized items over this attribute are plain range
    /// items.
    CategoricalTaxonomy {
        /// Labels in taxonomy DFS order (NOT sorted).
        labels: Vec<String>,
        /// Label positions sorted lexicographically, for O(log n) encoding.
        sorted_index: Vec<u32>,
        /// Interior taxonomy nodes as `(name, lo, hi)` code intervals.
        groups: Vec<(String, u32, u32)>,
    },
}

impl AttributeEncoder {
    /// Build a categorical encoder from a column's histogram (its sorted
    /// distinct labels).
    pub fn categorical_from(histogram: &CatHistogram) -> Self {
        AttributeEncoder::Categorical {
            labels: histogram.labels().to_vec(),
        }
    }

    /// Build a full-resolution quantitative encoder from a column's
    /// histogram (its sorted distinct values).
    pub fn quant_values_from(histogram: &QuantHistogram) -> Self {
        AttributeEncoder::QuantValues {
            values: histogram.values().to_vec(),
            integral: histogram.integral(),
        }
    }

    /// Build an interval encoder from cut points. Display bounds are the
    /// smallest and largest distinct value of the histogram falling in
    /// each interval; empty intervals fall back to the cut bounds.
    ///
    /// `cuts` must be strictly increasing; `k = cuts.len() + 1` intervals
    /// result.
    pub fn quant_intervals_from(histogram: &QuantHistogram, cuts: Vec<f64>) -> Self {
        debug_assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "cut points must be strictly increasing"
        );
        let k = cuts.len() + 1;
        let values = histogram.values();
        let global_min = values.first().copied().unwrap_or(f64::INFINITY);
        let global_max = values.last().copied().unwrap_or(f64::NEG_INFINITY);
        let mut display: Vec<IntervalSpec> = (0..k)
            .map(|i| {
                let lo = if i == 0 { global_min } else { cuts[i - 1] };
                let hi = if i == k - 1 { global_max } else { cuts[i] };
                IntervalSpec { lo, hi }
            })
            .collect();
        // Tighten to observed values so rule output reads like the paper's
        // "Age: 20..29" rather than "Age: 19.5..29.5". Values ascend, so
        // an interval's first value is its low bound and its last the high.
        let mut seen = vec![false; k];
        for &v in values {
            let idx = cuts.partition_point(|&c| c <= v);
            if !seen[idx] {
                display[idx].lo = v;
                seen[idx] = true;
            }
            display[idx].hi = v;
        }
        AttributeEncoder::QuantIntervals {
            cuts,
            display,
            integral: histogram.integral(),
        }
    }

    /// Build a taxonomy-ordered categorical encoder from a column's
    /// histogram and its taxonomy (Step 1/2 for categorical attributes
    /// with an is-a hierarchy). Labels are numbered in taxonomy DFS order
    /// so every interior node covers a contiguous code interval, returned
    /// as `groups`.
    pub fn categorical_with_taxonomy(
        histogram: &CatHistogram,
        taxonomy: &crate::taxonomy::Taxonomy,
    ) -> Result<Self, TableError> {
        let observed: std::collections::BTreeSet<String> =
            histogram.labels().iter().cloned().collect();
        let (labels, groups) = taxonomy.plan(&observed)?;
        let mut sorted_index: Vec<u32> = (0..labels.len() as u32).collect();
        sorted_index.sort_by(|&a, &b| labels[a as usize].cmp(&labels[b as usize]));
        Ok(AttributeEncoder::CategoricalTaxonomy {
            labels,
            sorted_index,
            groups,
        })
    }

    /// Number of distinct codes this encoder produces (codes are
    /// `0..cardinality`).
    pub fn cardinality(&self) -> u32 {
        match self {
            AttributeEncoder::Categorical { labels } => labels.len() as u32,
            AttributeEncoder::QuantValues { values, .. } => values.len() as u32,
            AttributeEncoder::QuantIntervals { cuts, .. } => cuts.len() as u32 + 1,
            AttributeEncoder::CategoricalTaxonomy { labels, .. } => labels.len() as u32,
        }
    }

    /// True for the two quantitative variants.
    pub fn is_quantitative(&self) -> bool {
        !matches!(
            self,
            AttributeEncoder::Categorical { .. } | AttributeEncoder::CategoricalTaxonomy { .. }
        )
    }

    /// The interior taxonomy nodes of a [`AttributeEncoder::CategoricalTaxonomy`]
    /// encoder as `(name, lo, hi)` code spans; empty for other variants.
    pub fn taxonomy_groups(&self) -> &[(String, u32, u32)] {
        match self {
            AttributeEncoder::CategoricalTaxonomy { groups, .. } => groups,
            _ => &[],
        }
    }

    /// Encode one value. Quantitative interval encoders accept any number
    /// (values beyond the data range land in the first/last interval);
    /// full-resolution and categorical encoders reject values they have
    /// never seen.
    pub fn encode(&self, attribute: &str, value: &Value) -> Result<u32, TableError> {
        let code = match value {
            Value::Cat(label) => self.encode_label(label),
            number => self.encode_number(number.as_f64().expect("numeric value")),
        };
        code.ok_or_else(|| TableError::UnencodableValue {
            attribute: attribute.to_owned(),
            value: value.to_string(),
        })
    }

    /// The code of a categorical label, if this encoder is categorical and
    /// knows it.
    fn encode_label(&self, label: &str) -> Option<u32> {
        match self {
            AttributeEncoder::Categorical { labels } => labels
                .binary_search_by(|l| l.as_str().cmp(label))
                .ok()
                .map(|i| i as u32),
            AttributeEncoder::CategoricalTaxonomy {
                labels,
                sorted_index,
                ..
            } => sorted_index
                .binary_search_by(|&i| labels[i as usize].as_str().cmp(label))
                .ok()
                .map(|pos| sorted_index[pos]),
            _ => None,
        }
    }

    /// The code of a number, if this encoder is quantitative and (at full
    /// resolution) knows it. `-0.0` encodes as `0`.
    fn encode_number(&self, v: f64) -> Option<u32> {
        let v = canonical(v);
        match self {
            // Catalogs written before tables stored `-0.0` as `0.0` may
            // hold `-0.0` among their values.
            AttributeEncoder::QuantValues { values, .. } => values
                .binary_search_by(|x| canonical(*x).total_cmp(&v))
                .ok()
                .map(|i| i as u32),
            AttributeEncoder::QuantIntervals { cuts, .. } => {
                Some(cuts.partition_point(|&c| c <= v) as u32)
            }
            _ => None,
        }
    }

    fn fmt_num(x: f64, integral: bool) -> String {
        if integral {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    }

    /// Human-readable form of the code range `[lo..hi]` (inclusive), e.g.
    /// `"20..29"` for an interval range, `"Yes"` for a categorical code.
    pub fn describe_range(&self, lo: u32, hi: u32) -> String {
        debug_assert!(lo <= hi);
        match self {
            AttributeEncoder::Categorical { labels } => {
                debug_assert_eq!(lo, hi, "categorical values are never combined");
                labels[lo as usize].clone()
            }
            AttributeEncoder::QuantValues { values, integral } => {
                let a = Self::fmt_num(values[lo as usize], *integral);
                if lo == hi {
                    a
                } else {
                    let b = Self::fmt_num(values[hi as usize], *integral);
                    format!("{a}..{b}")
                }
            }
            AttributeEncoder::QuantIntervals {
                display, integral, ..
            } => {
                let a = Self::fmt_num(display[lo as usize].lo, *integral);
                let b = Self::fmt_num(display[hi as usize].hi, *integral);
                if a == b {
                    a
                } else {
                    format!("{a}..{b}")
                }
            }
            AttributeEncoder::CategoricalTaxonomy { labels, groups, .. } => {
                if lo == hi {
                    return labels[lo as usize].clone();
                }
                // An exact interior node renders by name; other ranges
                // (e.g. interest-measure differences) list their span.
                match groups
                    .iter()
                    .find(|&&(_, g_lo, g_hi)| g_lo == lo && g_hi == hi)
                {
                    Some((name, _, _)) => name.clone(),
                    None => format!("{}..{}", labels[lo as usize], labels[hi as usize]),
                }
            }
        }
    }

    /// The numeric bounds a code range decodes to, if quantitative.
    pub fn numeric_bounds(&self, lo: u32, hi: u32) -> Option<(f64, f64)> {
        match self {
            AttributeEncoder::Categorical { .. } => None,
            AttributeEncoder::QuantValues { values, .. } => {
                Some((values[lo as usize], values[hi as usize]))
            }
            AttributeEncoder::QuantIntervals { display, .. } => {
                Some((display[lo as usize].lo, display[hi as usize].hi))
            }
            AttributeEncoder::CategoricalTaxonomy { .. } => None,
        }
    }
}

/// A table's value histograms, with each quantitative column kept at full
/// resolution: each cell's code under [`AttributeEncoder::quant_values_from`]
/// of its histogram, i.e. its rank among the column's distinct values.
/// Every partitioning cuts a column by value, so each interval is a run of
/// ranks and re-encoding the same table under new cuts
/// ([`TableRanks::encode`]) only maps ranks to codes.
#[derive(Debug, Clone)]
pub struct TableRanks {
    histograms: Vec<Histogram>,
    /// Per attribute; `None` for a categorical column.
    ranks: Vec<Option<Vec<u32>>>,
    num_rows: usize,
}

/// How many rows of each quantitative column [`TableRanks::encode`]
/// checks against the table before trusting the ranks.
const RANK_SPOT_CHECKS: usize = 16;

impl TableRanks {
    /// The histograms and ranks of every column of `table`.
    pub fn new(table: &Table) -> Self {
        let histograms = table.histograms();
        let ranks = histograms
            .iter()
            .enumerate()
            .map(
                |(idx, histogram)| match (histogram, table.column(AttributeId(idx))) {
                    (Histogram::Quantitative(h), Column::Quantitative { data, .. }) => Some(
                        encode_numbers(&AttributeEncoder::quant_values_from(h), data)
                            .expect("every cell is one of its column's distinct values"),
                    ),
                    _ => None,
                },
            )
            .collect();
        TableRanks {
            histograms,
            ranks,
            num_rows: table.num_rows(),
        }
    }

    /// The value histogram of every column, schema order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.histograms
    }

    /// [`EncodedTable::encode`] of `table`, which must be the table these
    /// ranks were taken of or one with the same contents. A quantitative
    /// column maps by one gather through a rank → code table that the
    /// encoder fills from the column's distinct values, instead of one
    /// search per cell; a categorical column remaps its dictionary as
    /// `encode` does. The codes and errors are `encode`'s.
    ///
    /// Panics if `table` is seen not to match: another row or column
    /// count, or one of a few cells per quantitative column that is not
    /// the value its rank names.
    pub fn encode(
        &self,
        table: &Table,
        encoders: Vec<AttributeEncoder>,
    ) -> Result<EncodedTable, TableError> {
        assert!(
            self.num_rows == table.num_rows() && self.ranks.len() == table.schema().len(),
            "ranks were taken of another table"
        );
        let step = (self.num_rows / RANK_SPOT_CHECKS).max(1);
        for idx in 0..self.ranks.len() {
            if let (Some((values, ranks)), Column::Quantitative { data, .. }) =
                (self.column(idx), table.column(AttributeId(idx)))
            {
                let rows = (0..self.num_rows)
                    .step_by(step)
                    .chain(self.num_rows.checked_sub(1));
                for row in rows {
                    assert!(
                        values.get(ranks[row] as usize) == Some(&data[row]),
                        "ranks were taken of another table: row {row} of column {idx}"
                    );
                }
            }
        }
        EncodedTable::encode_with(table, Some(self), encoders)
    }

    /// Quantitative column `idx`'s distinct values and cell ranks.
    fn column(&self, idx: usize) -> Option<(&[f64], &[u32])> {
        match (&self.histograms[idx], &self.ranks[idx]) {
            (Histogram::Quantitative(h), Some(ranks)) => Some((h.values(), ranks)),
            _ => None,
        }
    }
}

/// The code of every number in `data`, or the first number `encoder`
/// does not know.
fn encode_numbers(encoder: &AttributeEncoder, data: &[f64]) -> Result<Vec<u32>, f64> {
    data.iter()
        .map(|&v| encoder.encode_number(v).ok_or(v))
        .collect()
}

/// A table after Step 2: one `u32` code column per attribute.
///
/// This is the representation all mining passes run over. Column codes are
/// dense in `0..cardinality(attr)`. The code columns are shared, so a
/// clone (e.g. the one every mining output keeps) copies no codes.
#[derive(Debug, Clone)]
pub struct EncodedTable {
    schema: Schema,
    encoders: Vec<AttributeEncoder>,
    columns: Arc<Vec<Vec<u32>>>,
    num_rows: usize,
}

impl EncodedTable {
    /// Encode `table` using one encoder per attribute (schema order).
    ///
    /// A categorical column is mapped by one lookup per dictionary entry
    /// and then a gather over its codes; a quantitative column by rank
    /// (full resolution) or by interval.
    pub fn encode(table: &Table, encoders: Vec<AttributeEncoder>) -> Result<Self, TableError> {
        Self::encode_with(table, None, encoders)
    }

    fn encode_with(
        table: &Table,
        ranks: Option<&TableRanks>,
        encoders: Vec<AttributeEncoder>,
    ) -> Result<Self, TableError> {
        assert_eq!(
            encoders.len(),
            table.schema().len(),
            "one encoder per attribute required"
        );
        let schema = table.schema().clone();
        let mut columns: Vec<Vec<u32>> = Vec::with_capacity(encoders.len());
        for (idx, encoder) in encoders.iter().enumerate() {
            let id = AttributeId(idx);
            let name = schema.attribute(id).name();
            let unencodable = |value: String| TableError::UnencodableValue {
                attribute: name.to_owned(),
                value,
            };
            let ranked = ranks.and_then(|r| r.column(idx));
            let codes = match table.column(id) {
                Column::Quantitative { data, .. } if encoder.is_quantitative() => match ranked {
                    Some((values, ranks)) => {
                        let lookup: Vec<Option<u32>> =
                            values.iter().map(|&v| encoder.encode_number(v)).collect();
                        if lookup.contains(&None) {
                            let row = (0..data.len())
                                .find(|&row| lookup[ranks[row] as usize].is_none())
                                .expect("every distinct value occurs in a row");
                            return Err(unencodable(Value::Float(data[row]).to_string()));
                        }
                        let lookup: Vec<u32> = lookup.into_iter().flatten().collect();
                        ranks.iter().map(|&r| lookup[r as usize]).collect()
                    }
                    None => encode_numbers(encoder, data)
                        .map_err(|v| unencodable(Value::Float(v).to_string()))?,
                },
                // Dictionary codes are in first-seen order, so the first
                // unknown entry is also the first row that fails.
                Column::Categorical(cells) if !encoder.is_quantitative() => {
                    let remap = cells
                        .dictionary()
                        .labels()
                        .map(|label| {
                            encoder
                                .encode_label(label)
                                .ok_or_else(|| unencodable(label.to_owned()))
                        })
                        .collect::<Result<Vec<u32>, _>>()?;
                    cells.codes().iter().map(|&c| remap[c as usize]).collect()
                }
                _ => {
                    return Err(TableError::TypeMismatch {
                        attribute: name.to_owned(),
                        expected: schema.attribute(id).kind().name(),
                        got: "mismatched encoder".to_owned(),
                    })
                }
            };
            columns.push(codes);
        }
        Ok(EncodedTable {
            schema,
            encoders,
            columns: Arc::new(columns),
            num_rows: table.num_rows(),
        })
    }

    /// Encode without any partitioning: categorical dictionaries and
    /// full-resolution value ranks (what the paper does when an attribute
    /// has few values).
    pub fn encode_full_resolution(table: &Table) -> Result<Self, TableError> {
        let encoders = table
            .histograms()
            .iter()
            .map(|histogram| match histogram {
                Histogram::Categorical(h) => AttributeEncoder::categorical_from(h),
                Histogram::Quantitative(h) => AttributeEncoder::quant_values_from(h),
            })
            .collect();
        Self::encode(table, encoders)
    }

    /// Assemble an encoded table from already-encoded code columns.
    ///
    /// This is the loading path for spilled chunk files
    /// ([`crate::chunk::ChunkStore`]) and for worker row partitions
    /// received over the wire: the codes were produced by these exact
    /// encoders elsewhere, so re-encoding would be wasted work. Panics if
    /// the shapes disagree (one column per attribute, every column
    /// `num_rows` long, every code below its encoder's cardinality is NOT
    /// checked here — callers validating untrusted input must check codes
    /// themselves).
    pub fn from_parts(
        schema: Schema,
        encoders: Vec<AttributeEncoder>,
        columns: Vec<Vec<u32>>,
        num_rows: usize,
    ) -> Self {
        assert_eq!(encoders.len(), schema.len(), "one encoder per attribute");
        assert_eq!(columns.len(), schema.len(), "one column per attribute");
        for (i, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), num_rows, "column {i} length != num_rows");
        }
        EncodedTable {
            schema,
            encoders,
            columns: Arc::new(columns),
            num_rows,
        }
    }

    /// A decode-only view: schema and encoders with no code columns.
    ///
    /// Used where rules must be rendered (attribute names, range labels)
    /// but the row data lives elsewhere — on chunk files, on remote
    /// workers. `num_rows` reports the true row count of the backing data;
    /// [`EncodedTable::codes`] returns empty slices, so this must never be
    /// handed to a scan.
    pub fn header_only(schema: Schema, encoders: Vec<AttributeEncoder>, num_rows: usize) -> Self {
        assert_eq!(encoders.len(), schema.len(), "one encoder per attribute");
        let columns = vec![Vec::new(); schema.len()];
        EncodedTable {
            schema,
            encoders,
            columns: Arc::new(columns),
            num_rows,
        }
    }

    /// The schema shared with the source table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Code column for `id`.
    pub fn codes(&self, id: AttributeId) -> &[u32] {
        &self.columns[id.index()]
    }

    /// Consume into the code columns, schema order (how a row block
    /// leaves for the wire without another copy). Copies the codes only
    /// when a clone still shares them.
    pub fn into_columns(self) -> Vec<Vec<u32>> {
        Arc::try_unwrap(self.columns).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The encoder for `id`.
    pub fn encoder(&self, id: AttributeId) -> &AttributeEncoder {
        &self.encoders[id.index()]
    }

    /// All encoders, schema order.
    pub fn encoders(&self) -> &[AttributeEncoder] {
        &self.encoders
    }

    /// Number of distinct codes of attribute `id`.
    pub fn cardinality(&self, id: AttributeId) -> u32 {
        self.encoders[id.index()].cardinality()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn cats(labels: &[&str]) -> CatHistogram {
        CatHistogram::from_labels(labels)
    }

    fn quants(values: &[f64]) -> QuantHistogram {
        QuantHistogram::from_values(values)
    }

    fn people() -> Table {
        let schema = Schema::builder()
            .quantitative("age")
            .categorical("married")
            .quantitative("num_cars")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for (age, married, cars) in [
            (23, "No", 1),
            (25, "Yes", 1),
            (29, "No", 0),
            (34, "Yes", 2),
            (38, "Yes", 2),
        ] {
            t.push_row(&[Value::Int(age), Value::from(married), Value::Int(cars)])
                .unwrap();
        }
        t
    }

    #[test]
    fn full_resolution_encoding_preserves_order() {
        let t = people();
        let e = EncodedTable::encode_full_resolution(&t).unwrap();
        // age distinct sorted: 23,25,29,34,38 -> codes 0..5 in row order.
        assert_eq!(e.codes(AttributeId(0)), &[0, 1, 2, 3, 4]);
        // married sorted: No=0, Yes=1.
        assert_eq!(e.codes(AttributeId(1)), &[0, 1, 0, 1, 1]);
        // num_cars sorted: 0,1,2 -> codes.
        assert_eq!(e.codes(AttributeId(2)), &[1, 1, 0, 2, 2]);
        assert_eq!(e.cardinality(AttributeId(0)), 5);
        assert_eq!(e.cardinality(AttributeId(1)), 2);
        assert_eq!(e.cardinality(AttributeId(2)), 3);
    }

    #[test]
    fn interval_encoding_matches_paper_figure_3() {
        // Figure 3b partitions Age into <20..24> <25..29> <30..34> <35..39>.
        let t = people();
        let ages = t.histogram(AttributeId(0));
        let enc = AttributeEncoder::quant_intervals_from(
            ages.as_quantitative().unwrap(),
            vec![25.0, 30.0, 35.0],
        );
        assert_eq!(enc.cardinality(), 4);
        assert_eq!(enc.encode("age", &Value::Int(23)).unwrap(), 0);
        assert_eq!(enc.encode("age", &Value::Int(25)).unwrap(), 1);
        assert_eq!(enc.encode("age", &Value::Int(29)).unwrap(), 1);
        assert_eq!(enc.encode("age", &Value::Int(34)).unwrap(), 2);
        assert_eq!(enc.encode("age", &Value::Int(38)).unwrap(), 3);
        // Display uses observed bounds.
        assert_eq!(enc.describe_range(0, 1), "23..29");
        assert_eq!(enc.describe_range(2, 3), "34..38");
        assert_eq!(enc.describe_range(3, 3), "38");
    }

    #[test]
    fn categorical_round_trip_and_rejection() {
        let enc = AttributeEncoder::categorical_from(&cats(&["Yes", "No", "Yes"]));
        assert_eq!(enc.cardinality(), 2);
        assert_eq!(enc.encode("married", &Value::from("No")).unwrap(), 0);
        assert_eq!(enc.encode("married", &Value::from("Yes")).unwrap(), 1);
        assert_eq!(enc.describe_range(1, 1), "Yes");
        assert!(enc.encode("married", &Value::from("Maybe")).is_err());
        assert!(enc.encode("married", &Value::Int(1)).is_err());
    }

    #[test]
    fn quant_values_rejects_unseen() {
        let enc = AttributeEncoder::quant_values_from(&quants(&[1.0, 3.0, 2.0]));
        assert_eq!(enc.encode("x", &Value::Int(2)).unwrap(), 1);
        assert!(enc.encode("x", &Value::Float(2.5)).is_err());
    }

    #[test]
    fn interval_out_of_range_clamps() {
        let enc =
            AttributeEncoder::quant_intervals_from(&quants(&[10.0, 20.0, 30.0]), vec![15.0, 25.0]);
        assert_eq!(enc.encode("x", &Value::Int(-100)).unwrap(), 0);
        assert_eq!(enc.encode("x", &Value::Int(999)).unwrap(), 2);
    }

    #[test]
    fn numeric_bounds_reported() {
        let enc =
            AttributeEncoder::quant_intervals_from(&quants(&[10.0, 20.0, 30.0]), vec![15.0, 25.0]);
        assert_eq!(enc.numeric_bounds(0, 1), Some((10.0, 20.0)));
        let cat = AttributeEncoder::categorical_from(&cats(&["a"]));
        assert_eq!(cat.numeric_bounds(0, 0), None);
    }

    #[test]
    fn float_display_keeps_decimals() {
        let enc = AttributeEncoder::quant_values_from(&quants(&[1.5, 2.5]));
        assert_eq!(enc.describe_range(0, 1), "1.5..2.5");
    }

    #[test]
    fn mismatched_encoder_kind_rejected() {
        let t = people();
        let bad = vec![
            AttributeEncoder::categorical_from(&cats(&["x"])), // age is quantitative
            AttributeEncoder::categorical_from(&cats(&["No", "Yes"])),
            AttributeEncoder::quant_values_from(&quants(&[0.0, 1.0, 2.0])),
        ];
        assert!(EncodedTable::encode(&t, bad).is_err());
    }

    #[test]
    fn unknown_label_reports_the_first_failing_row() {
        let t = people();
        let encoders = vec![
            AttributeEncoder::quant_values_from(&quants(&[23.0, 25.0, 29.0, 34.0, 38.0])),
            AttributeEncoder::categorical_from(&cats(&["Yes"])),
            AttributeEncoder::quant_values_from(&quants(&[0.0, 1.0, 2.0])),
        ];
        let err = EncodedTable::encode(&t, encoders).unwrap_err();
        assert_eq!(
            err,
            TableError::UnencodableValue {
                attribute: "married".into(),
                value: "No".into()
            }
        );
    }

    #[test]
    fn negative_zero_beside_zero_encodes_at_full_resolution() {
        let schema = Schema::builder().quantitative("x").build().unwrap();
        let mut t = Table::new(schema);
        for v in [-0.0, 0.0, 1.0, 2.0] {
            t.push_row(&[Value::Float(v)]).unwrap();
        }
        let e = EncodedTable::encode_full_resolution(&t).unwrap();
        assert_eq!(e.codes(AttributeId(0)), &[0, 0, 1, 2]);
        assert_eq!(e.encoder(AttributeId(0)).describe_range(0, 0), "0");
        let enc = e.encoder(AttributeId(0));
        assert_eq!(enc.encode("x", &Value::Float(-0.0)).unwrap(), 0);
    }

    #[test]
    fn taxonomy_encoder_remaps_dictionary_codes() {
        let tax = crate::Taxonomy::from_edges(&[("a", "g"), ("c", "g")]).unwrap();
        let schema = Schema::builder().categorical("c").build().unwrap();
        let mut t = Table::new(schema);
        for s in ["c", "b", "a", "c"] {
            t.push_row(&[Value::from(s)]).unwrap();
        }
        let hist = t.histogram(AttributeId(0));
        let enc = AttributeEncoder::categorical_with_taxonomy(hist.as_categorical().unwrap(), &tax)
            .unwrap();
        let e = EncodedTable::encode(&t, vec![enc.clone()]).unwrap();
        for (row, &code) in e.codes(AttributeId(0)).iter().enumerate() {
            assert_eq!(code, enc.encode("c", &t.row(row).value(0)).unwrap());
        }
    }

    /// Through the table's ranks, the codes and the first failing row
    /// are `encode`'s: the encoder lacks num_cars 0 and 1, and the error
    /// names row 0's 1, not the smaller 0 of row 2.
    #[test]
    fn ranked_encoding_matches_encode() {
        let t = people();
        let ranks = TableRanks::new(&t);
        assert_eq!(ranks.histograms(), t.histograms());
        for cuts in [vec![], vec![25.0, 30.0, 35.0], vec![24.0, 38.0]] {
            let encoders: Vec<AttributeEncoder> = t
                .histograms()
                .iter()
                .map(|h| match h {
                    Histogram::Quantitative(q) => {
                        AttributeEncoder::quant_intervals_from(q, cuts.clone())
                    }
                    Histogram::Categorical(c) => AttributeEncoder::categorical_from(c),
                })
                .collect();
            let ranked = ranks.encode(&t, encoders.clone()).unwrap();
            let fresh = EncodedTable::encode(&t, encoders).unwrap();
            for (id, _) in t.schema().iter() {
                assert_eq!(ranked.codes(id), fresh.codes(id), "{cuts:?}");
            }
        }
        let lacking = vec![
            AttributeEncoder::quant_values_from(&quants(&[23.0, 25.0, 29.0, 34.0, 38.0])),
            AttributeEncoder::categorical_from(&cats(&["No", "Yes"])),
            AttributeEncoder::quant_values_from(&quants(&[2.0])),
        ];
        let err = ranks.encode(&t, lacking.clone()).unwrap_err();
        assert_eq!(err, EncodedTable::encode(&t, lacking).unwrap_err());
        assert_eq!(
            err,
            TableError::UnencodableValue {
                attribute: "num_cars".into(),
                value: "1".into()
            }
        );
    }

    /// Ranks of one table do not re-encode another of the same shape:
    /// the cells disagree with the values the ranks name.
    #[test]
    #[should_panic(expected = "ranks were taken of another table")]
    fn ranks_of_another_table_are_refused() {
        let t = people();
        let mut other = Table::new(t.schema().clone());
        for row in 0..t.num_rows() {
            let mut values = t.row(row).to_values();
            values[2] = Value::Int(7 - row as i64);
            other.push_row(&values).unwrap();
        }
        let encoders = EncodedTable::encode_full_resolution(&t)
            .unwrap()
            .encoders()
            .to_vec();
        let _ = TableRanks::new(&t).encode(&other, encoders);
    }

    #[test]
    fn clone_shares_the_codes_and_into_columns_copies_only_when_shared() {
        let e = EncodedTable::encode_full_resolution(&people()).unwrap();
        let clone = e.clone();
        assert!(std::ptr::eq(
            e.codes(AttributeId(0)),
            clone.codes(AttributeId(0))
        ));
        let expected: Vec<Vec<u32>> = e
            .schema()
            .iter()
            .map(|(id, _)| e.codes(id).to_vec())
            .collect();
        assert_eq!(clone.into_columns(), expected);
        assert_eq!(e.into_columns(), expected);
    }
}
