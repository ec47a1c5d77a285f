//! Per-column value histograms: the one summary Steps 1–2 read.
//!
//! Equi-depth partitioning (Lemma 4) and the Step 2 value maps need only
//! each distinct value and its count, so every encoder is cut from a
//! [`Histogram`] rather than from the raw column. Histograms are
//! mergeable counts: a table read in chunks folds its chunks' histograms
//! into the same histogram the whole table would give.

use std::cmp::Ordering;

use crate::dictionary::CatColumn;
use crate::table::Column;

/// The sorted distinct values of a quantitative column with their counts.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantHistogram {
    values: Vec<f64>,
    counts: Vec<u64>,
    integral: bool,
}

impl Default for QuantHistogram {
    /// The histogram of an empty column (integral, like an empty column).
    fn default() -> Self {
        QuantHistogram {
            values: Vec::new(),
            counts: Vec::new(),
            integral: true,
        }
    }
}

impl QuantHistogram {
    /// The histogram of a column's cells; `integral` is the column's flag.
    /// Sorts one copy of the cells.
    pub(crate) fn of_column(data: &[f64], integral: bool) -> Self {
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let mut values: Vec<f64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for v in sorted {
            match values.last() {
                Some(&last) if last == v => *counts.last_mut().expect("paired") += 1,
                _ => {
                    values.push(v);
                    counts.push(1);
                }
            }
        }
        QuantHistogram {
            values,
            counts,
            integral,
        }
    }

    /// The histogram of arbitrary values, as a table column would hold
    /// them: `-0.0` counts as `0`, and the flag is set when every value is
    /// a whole number. Panics on a NaN or infinite value.
    pub fn from_values(data: &[f64]) -> Self {
        assert!(
            data.iter().all(|v| v.is_finite()),
            "histogram values must be finite"
        );
        let data: Vec<f64> = data.iter().map(|&v| crate::value::canonical(v)).collect();
        let integral = data.iter().all(|v| v.fract() == 0.0);
        Self::of_column(&data, integral)
    }

    /// Distinct values, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `counts()[i]` is the number of cells equal to `values()[i]`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// True if every counted value is a whole number.
    pub fn integral(&self) -> bool {
        self.integral
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no value has been counted.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Add `other`'s counts to this histogram.
    pub fn merge(&mut self, other: QuantHistogram) {
        let mine = (
            std::mem::take(&mut self.values),
            std::mem::take(&mut self.counts),
        );
        (self.values, self.counts) =
            merge_sorted(mine, (other.values, other.counts), f64::total_cmp);
        self.integral &= other.integral;
    }
}

/// The sorted distinct labels of a categorical column with their counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatHistogram {
    labels: Vec<String>,
    counts: Vec<u64>,
}

impl CatHistogram {
    /// The histogram of a dictionary-coded column: one count per code,
    /// then one sort of the dictionary.
    pub(crate) fn of_column(column: &CatColumn) -> Self {
        let dictionary = column.dictionary();
        let mut per_code = vec![0u64; dictionary.len()];
        for &code in column.codes() {
            per_code[code as usize] += 1;
        }
        let mut order: Vec<u32> = (0..dictionary.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| dictionary.label(a).cmp(dictionary.label(b)));
        CatHistogram {
            labels: order
                .iter()
                .map(|&c| dictionary.label(c).to_owned())
                .collect(),
            counts: order.iter().map(|&c| per_code[c as usize]).collect(),
        }
    }

    /// The histogram of arbitrary labels.
    pub fn from_labels<S: AsRef<str>>(data: &[S]) -> Self {
        let mut column = CatColumn::default();
        for label in data {
            column.push(label.as_ref());
        }
        Self::of_column(&column)
    }

    /// Distinct labels, ascending.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// `counts()[i]` is the number of cells equal to `labels()[i]`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Add `other`'s counts to this histogram.
    pub fn merge(&mut self, other: CatHistogram) {
        let mine = (
            std::mem::take(&mut self.labels),
            std::mem::take(&mut self.counts),
        );
        (self.labels, self.counts) = merge_sorted(mine, (other.labels, other.counts), Ord::cmp);
    }
}

/// Merge two sorted `(keys, counts)` runs, adding the counts of equal keys.
fn merge_sorted<K>(
    a: (Vec<K>, Vec<u64>),
    b: (Vec<K>, Vec<u64>),
    cmp: impl Fn(&K, &K) -> Ordering,
) -> (Vec<K>, Vec<u64>) {
    let capacity = a.0.len() + b.0.len();
    let mut a = a.0.into_iter().zip(a.1).peekable();
    let mut b = b.0.into_iter().zip(b.1).peekable();
    let mut keys = Vec::with_capacity(capacity);
    let mut counts = Vec::with_capacity(capacity);
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => cmp(&x.0, &y.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return (keys, counts),
        };
        let (key, count) = match order {
            Ordering::Less => a.next(),
            Ordering::Greater => b.next(),
            Ordering::Equal => a.next().zip(b.next()).map(|((k, x), (_, y))| (k, x + y)),
        }
        .expect("peeked");
        keys.push(key);
        counts.push(count);
    }
}

/// One column's value histogram.
#[derive(Debug, Clone, PartialEq)]
pub enum Histogram {
    /// Of a quantitative column.
    Quantitative(QuantHistogram),
    /// Of a categorical column.
    Categorical(CatHistogram),
}

impl Histogram {
    /// The histogram of `column`.
    pub(crate) fn of(column: &Column) -> Self {
        match column {
            Column::Quantitative { data, integral } => {
                Histogram::Quantitative(QuantHistogram::of_column(data, *integral))
            }
            Column::Categorical(cells) => Histogram::Categorical(CatHistogram::of_column(cells)),
        }
    }

    /// The quantitative histogram, or `None` for a categorical one.
    pub fn as_quantitative(&self) -> Option<&QuantHistogram> {
        match self {
            Histogram::Quantitative(h) => Some(h),
            Histogram::Categorical(_) => None,
        }
    }

    /// The categorical histogram, or `None` for a quantitative one.
    pub fn as_categorical(&self) -> Option<&CatHistogram> {
        match self {
            Histogram::Categorical(h) => Some(h),
            Histogram::Quantitative(_) => None,
        }
    }

    /// Add `other`'s counts. Panics if the two are of different kinds.
    pub fn merge(&mut self, other: Histogram) {
        match (self, other) {
            (Histogram::Quantitative(a), Histogram::Quantitative(b)) => a.merge(b),
            (Histogram::Categorical(a), Histogram::Categorical(b)) => a.merge(b),
            _ => panic!("cannot merge histograms of different kinds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantitative_counts_sorted_distinct_values() {
        let h = QuantHistogram::from_values(&[3.0, 1.0, 3.0, -0.0, 0.0, 2.5]);
        assert_eq!(h.values(), &[0.0, 1.0, 2.5, 3.0]);
        assert!(h.values()[0].is_sign_positive());
        assert_eq!(h.counts(), &[2, 1, 1, 2]);
        assert!(!h.integral());
        assert!(QuantHistogram::from_values(&[1.0, 2.0]).integral());
    }

    #[test]
    fn categorical_counts_sorted_labels() {
        let h = CatHistogram::from_labels(&["Yes", "No", "Yes", ""]);
        assert_eq!(h.labels(), &["", "No", "Yes"]);
        assert_eq!(h.counts(), &[1, 1, 2]);
    }

    #[test]
    fn merging_equals_counting_the_union() {
        let a = [5.0, 1.0, 1.0, 7.5];
        let b = [1.0, 9.0, 5.0];
        let mut merged = QuantHistogram::from_values(&a);
        merged.merge(QuantHistogram::from_values(&b));
        let union: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert_eq!(merged, QuantHistogram::from_values(&union));

        let mut cats = Histogram::Categorical(CatHistogram::from_labels(&["b", "a"]));
        cats.merge(Histogram::Categorical(CatHistogram::from_labels(&[
            "c", "b",
        ])));
        assert_eq!(
            cats,
            Histogram::Categorical(CatHistogram::from_labels(&["a", "b", "b", "c"]))
        );
    }

    #[test]
    fn empty_histograms_merge_to_the_other_side() {
        let mut h = QuantHistogram::default();
        assert!(h.is_empty() && h.integral());
        h.merge(QuantHistogram::from_values(&[2.0]));
        assert_eq!(h, QuantHistogram::from_values(&[2.0]));
    }
}
