//! Dictionary-coded categorical storage.
//!
//! A categorical column keeps one `u32` code per row and a [`Dictionary`]
//! of its distinct labels in first-seen order, so a table never holds one
//! heap string per cell. The dictionary stores its labels back to back in
//! one string and finds a label's code through an open-addressing table of
//! codes, so looking up a known label allocates nothing.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks an unused slot of the lookup table.
const EMPTY: u32 = u32::MAX;

/// The distinct labels of one categorical column, numbered in the order
/// they were first seen.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Every label, back to back, in code order.
    bytes: String,
    /// `ends[c]` is the end offset of label `c` in `bytes`.
    ends: Vec<usize>,
    /// Open-addressing table of codes; its length is zero or a power of
    /// two at least twice the label count.
    slots: Vec<u32>,
    /// Labels come from outside the program, so they are hashed with
    /// randomly keyed SipHash: crafted collisions cannot make lookups
    /// quadratic.
    hasher: RandomState,
}

impl PartialEq for Dictionary {
    /// Two dictionaries are equal when they hold the same labels under the
    /// same codes.
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.bytes == other.bytes
    }
}

impl Dictionary {
    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no label has been added.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The label with code `code`. Panics if `code` is out of range.
    pub fn label(&self, code: u32) -> &str {
        let c = code as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.bytes[start..self.ends[c]]
    }

    /// Every label in code order.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len() as u32).map(move |c| self.label(c))
    }

    fn slot_of(&self, label: &str) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(label) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return (i, None),
                code if self.label(code) == label => return (i, Some(code)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The code of `label`, adding it as the next code if it is new.
    pub fn intern(&mut self, label: &str) -> u32 {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        let (slot, found) = self.slot_of(label);
        if let Some(code) = found {
            return code;
        }
        let code = u32::try_from(self.len())
            .ok()
            .filter(|&c| c != EMPTY)
            .expect("a categorical column holds fewer than 2^32 - 1 labels");
        self.bytes.push_str(label);
        self.ends.push(self.bytes.len());
        self.slots[slot] = code;
        code
    }

    /// Double the lookup table (at least 16 slots) and re-insert every code.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
        self.slots = vec![EMPTY; size];
        let mask = size - 1;
        for code in 0..self.len() as u32 {
            let mut i = self.hasher.hash_one(self.label(code)) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = code;
        }
    }
}

/// The storage of a categorical column: one code per row into a
/// [`Dictionary`] of the column's labels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatColumn {
    codes: Vec<u32>,
    dictionary: Dictionary,
}

impl CatColumn {
    pub(crate) fn with_capacity(rows: usize) -> Self {
        CatColumn {
            codes: Vec::with_capacity(rows),
            dictionary: Dictionary::default(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The label in row `row`.
    pub fn get(&self, row: usize) -> &str {
        self.dictionary.label(self.codes[row])
    }

    /// Every cell's label, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.codes.iter().map(|&c| self.dictionary.label(c))
    }

    /// The dictionary code of every row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The column's distinct labels in first-seen order.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Append one cell.
    pub(crate) fn push(&mut self, label: &str) {
        let code = self.dictionary.intern(label);
        self.codes.push(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_first_seen_order() {
        let mut d = Dictionary::default();
        assert_eq!(d.intern("b"), 0);
        assert_eq!(d.intern("a"), 1);
        assert_eq!(d.intern("b"), 0);
        assert_eq!(d.intern(""), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.labels().collect::<Vec<_>>(), vec!["b", "a", ""]);
    }

    #[test]
    fn lookups_survive_growth() {
        let mut d = Dictionary::default();
        for i in 0..10_000 {
            assert_eq!(d.intern(&format!("label-{i}")), i);
        }
        for i in (0..10_000).rev() {
            assert_eq!(d.intern(&format!("label-{i}")), i);
            assert_eq!(d.label(i), format!("label-{i}"));
        }
        assert_eq!(d.len(), 10_000);
    }

    #[test]
    fn equality_ignores_the_lookup_table() {
        let mut a = Dictionary::default();
        let mut b = Dictionary::default();
        for s in ["p", "q"] {
            a.intern(s);
            b.intern(s);
        }
        b.grow();
        assert_eq!(a, b);
        b.intern("r");
        assert_ne!(a, b);
    }

    #[test]
    fn column_reads_back_labels() {
        let mut c = CatColumn::default();
        for s in ["Yes", "No", "Yes"] {
            c.push(s);
        }
        assert_eq!(c.codes(), &[0, 1, 0]);
        assert_eq!(c.get(2), "Yes");
        assert_eq!(c.iter().collect::<Vec<_>>(), vec!["Yes", "No", "Yes"]);
    }

    #[test]
    fn all_distinct_column_is_smaller_than_one_string_per_cell() {
        // 500k distinct labels: the worst case for a dictionary, which then
        // holds every label once plus its code, offset and slot.
        let rows = 500_000;
        let mut column = CatColumn::default();
        let mut strings = 0usize;
        for i in 0..rows {
            let label = format!("customer-{i:07}");
            strings += std::mem::size_of::<String>() + label.len();
            column.push(&label);
        }
        assert_eq!(column.dictionary().len(), rows);
        assert_eq!(column.get(123_456), "customer-0123456");
        let d = &column.dictionary;
        let dictionary = column.codes.capacity() * std::mem::size_of::<u32>()
            + d.bytes.capacity()
            + d.ends.capacity() * std::mem::size_of::<usize>()
            + d.slots.capacity() * std::mem::size_of::<u32>();
        eprintln!("all-distinct {rows} labels: dictionary {dictionary} B, one String per cell {strings} B");
        assert!(dictionary < strings, "{dictionary} >= {strings}");
    }
}
