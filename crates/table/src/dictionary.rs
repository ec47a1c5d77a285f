//! Dictionary-coded categorical storage.
//!
//! A categorical column keeps one `u32` code per row and a [`Dictionary`]
//! of its distinct labels in first-seen order, so a table never holds one
//! heap string per cell. The dictionary stores its labels back to back in
//! one string and finds a label's code through an open-addressing table of
//! codes, so looking up a known label allocates nothing. While it holds at
//! most 8 labels it compares them directly and keeps no table.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks an unused slot of the lookup table.
const EMPTY: u32 = u32::MAX;

/// The most labels a dictionary finds by comparing each in turn, which
/// costs less than hashing the label; the next label builds the table.
const SCAN_LABELS: usize = 8;

/// The distinct labels of one categorical column, numbered in the order
/// they were first seen.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Every label, back to back, in code order.
    bytes: String,
    /// `ends[c]` is the end offset of label `c` in `bytes`.
    ends: Vec<usize>,
    /// Open-addressing table of codes; its length is zero while the
    /// labels are scanned, else a power of two at least twice the label
    /// count.
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
        if self.slots.is_empty() {
            if let Some(code) = (0..self.len() as u32).find(|&c| self.label(c) == label) {
                return code;
            }
            if self.len() < SCAN_LABELS {
                return self.push(label);
            }
        }
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        let (slot, found) = self.slot_of(label);
        if let Some(code) = found {
            return code;
        }
        let code = self.push(label);
        self.slots[slot] = code;
        code
    }

    /// Add `label` as the next code, outside the lookup table.
    fn push(&mut self, label: &str) -> u32 {
        let code = u32::try_from(self.len())
            .ok()
            .filter(|&c| c != EMPTY)
            .expect("a categorical column holds fewer than 2^32 - 1 labels");
        self.bytes.push_str(label);
        self.ends.push(self.bytes.len());
        code
    }

    /// Size the lookup table for one more label (at least 16 slots) and
    /// re-insert every code.
    fn grow(&mut self) {
        let size = (2 * (self.len() + 1)).next_power_of_two().max(16);
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

    /// Remove every cell and label, keeping the codes' capacity.
    pub(crate) fn clear(&mut self) {
        self.codes.clear();
        self.dictionary = Dictionary::default();
    }

    /// Append `other`'s cells. Its labels are interned in its own code
    /// order, which is first-seen order, so the codes come out as if its
    /// cells had been pushed one by one.
    pub(crate) fn append(&mut self, other: &CatColumn) {
        let remap: Vec<u32> = other
            .dictionary
            .labels()
            .map(|label| self.dictionary.intern(label))
            .collect();
        self.codes
            .extend(other.codes.iter().map(|&code| remap[code as usize]));
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
    fn append_keeps_first_seen_codes() {
        let cells = ["b", "a", "b", "c", "a", "d", "c"];
        let mut whole = CatColumn::default();
        for s in cells {
            whole.push(s);
        }
        for cut in 0..=cells.len() {
            let (mut head, mut tail) = (CatColumn::default(), CatColumn::default());
            cells[..cut].iter().for_each(|s| head.push(s));
            cells[cut..].iter().for_each(|s| tail.push(s));
            head.append(&tail);
            assert_eq!(head, whole, "cut at {cut}");
        }
    }

    /// Past [`SCAN_LABELS`] labels the dictionary builds its lookup table;
    /// codes, first-seen order and appended codes read the same on both
    /// sides of that step.
    #[test]
    fn the_ninth_label_keeps_codes_order_and_appends() {
        let labels: Vec<String> = (0..=SCAN_LABELS + 2).map(|i| format!("l{i}")).collect();
        let mut d = Dictionary::default();
        for (code, label) in labels.iter().enumerate() {
            assert_eq!(d.intern(label), code as u32);
            assert_eq!(d.slots.is_empty(), code < SCAN_LABELS, "{code}");
            for (known, seen) in labels[..=code].iter().enumerate().rev() {
                assert_eq!(d.intern(seen), known as u32, "{seen} after {label}");
            }
        }
        assert_eq!(d.labels().collect::<Vec<_>>(), labels);

        // Cells that cross from 8 to 9 labels in the head, in the tail or
        // in the append.
        let cells: Vec<&str> = [7, 0, 3, 7, 1, 2, 4, 5, 6, 3, 8, 9, 0, 8, 10]
            .iter()
            .map(|&i| labels[i].as_str())
            .collect();
        let mut whole = CatColumn::default();
        cells.iter().for_each(|s| whole.push(s));
        assert_eq!(whole.codes()[..11], [0, 1, 2, 0, 3, 4, 5, 6, 7, 2, 8]);
        for cut in 0..=cells.len() {
            let (mut head, mut tail) = (CatColumn::default(), CatColumn::default());
            cells[..cut].iter().for_each(|s| head.push(s));
            cells[cut..].iter().for_each(|s| tail.push(s));
            head.append(&tail);
            assert_eq!(head, whole, "cut at {cut}");
            assert!(head.iter().eq(cells.iter().copied()), "cut at {cut}");
            assert_eq!(head.dictionary.intern(&labels[6]), 7, "cut at {cut}");
        }
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
