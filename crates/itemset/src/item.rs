//! Items and itemsets over encoded attribute codes.

use std::fmt;

/// An item `⟨attribute, lo, hi⟩` (Section 2): a value or inclusive code
/// range of one attribute. Categorical items always have `lo == hi`;
/// quantitative items may span a range of interval/value codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item {
    /// Attribute id (the `AttributeId` index from `qar-table`).
    pub attr: u32,
    /// Inclusive lower code.
    pub lo: u32,
    /// Inclusive upper code.
    pub hi: u32,
}

impl Item {
    /// A single-code item (categorical value, or a one-code quantitative
    /// range).
    pub fn value(attr: u32, code: u32) -> Self {
        Item {
            attr,
            lo: code,
            hi: code,
        }
    }

    /// A range item over `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn range(attr: u32, lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "item range inverted: {lo} > {hi}");
        Item { attr, lo, hi }
    }

    /// Does a record value `code` of this attribute support the item?
    #[inline]
    pub fn matches(&self, code: u32) -> bool {
        self.lo <= code && code <= self.hi
    }

    /// Is `self` a generalization of `other` (same attribute, containing
    /// range)?
    pub fn generalizes(&self, other: &Item) -> bool {
        self.attr == other.attr && self.lo <= other.lo && other.hi <= self.hi
    }

    /// Number of codes the item covers.
    pub fn width(&self) -> u32 {
        self.hi - self.lo + 1
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "⟨#{}: {}⟩", self.attr, self.lo)
        } else {
            write!(f, "⟨#{}: {}..{}⟩", self.attr, self.lo, self.hi)
        }
    }
}

/// Why an itemset's codes do not fit a table ([`Itemset::check_codes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeRangeError {
    /// An item names an attribute the table lacks.
    UnknownAttribute(u32),
    /// An item reaches past its attribute's codes.
    PastCardinality {
        /// The offending item.
        item: Item,
        /// Its attribute's code count.
        cardinality: u32,
    },
}

impl fmt::Display for CodeRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeRangeError::UnknownAttribute(attr) => {
                write!(f, "references unknown attribute {attr}")
            }
            CodeRangeError::PastCardinality { item, cardinality } => write!(
                f,
                "codes {}..{} exceed cardinality {cardinality} of attribute {}",
                item.lo, item.hi, item.attr
            ),
        }
    }
}

impl std::error::Error for CodeRangeError {}

/// A set of items with *distinct attributes*, kept sorted by attribute id.
///
/// The paper's records contain each attribute at most once, so an itemset
/// with two items of the same attribute could never be supported; the
/// constructor rejects them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Itemset {
    items: Vec<Item>,
}

impl Itemset {
    /// Build from items; sorts by attribute and rejects duplicates.
    pub fn new(mut items: Vec<Item>) -> Self {
        items.sort();
        assert!(
            items.windows(2).all(|w| w[0].attr != w[1].attr),
            "itemset has two items of the same attribute: {items:?}"
        );
        Itemset { items }
    }

    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset { items: Vec::new() }
    }

    /// A singleton itemset.
    pub fn singleton(item: Item) -> Self {
        Itemset { items: vec![item] }
    }

    /// The items, sorted by attribute id.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items (the `k` in `k`-itemset).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty itemset.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Check every item against the code count of its attribute,
    /// `cardinality(attr)` (`None` for an attribute the table lacks).
    /// Construction already guarantees `lo <= hi` and distinct
    /// attributes; this is the rest of what an itemset read from a file
    /// or the wire must satisfy before it is counted or rendered.
    pub fn check_codes(
        &self,
        cardinality: impl Fn(u32) -> Option<u32>,
    ) -> Result<(), CodeRangeError> {
        for &item in &self.items {
            debug_assert!(item.lo <= item.hi, "item range inverted: {item:?}");
            match cardinality(item.attr) {
                None => return Err(CodeRangeError::UnknownAttribute(item.attr)),
                Some(cardinality) if item.hi >= cardinality => {
                    return Err(CodeRangeError::PastCardinality { item, cardinality })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The attribute ids, sorted.
    pub fn attributes(&self) -> Vec<u32> {
        self.items.iter().map(|i| i.attr).collect()
    }

    /// The item of attribute `attr`, if present.
    pub fn item_for(&self, attr: u32) -> Option<&Item> {
        self.items
            .binary_search_by_key(&attr, |i| i.attr)
            .ok()
            .map(|pos| &self.items[pos])
    }

    /// Does a full record (code per attribute, indexed by attribute id)
    /// support every item?
    pub fn supported_by(&self, record: &[u32]) -> bool {
        self.items
            .iter()
            .all(|i| i.matches(record[i.attr as usize]))
    }

    /// Is `self` a generalization of `other`? Requires identical attribute
    /// sets and containing ranges (Section 2's definition).
    pub fn generalizes(&self, other: &Itemset) -> bool {
        self.len() == other.len()
            && self
                .items
                .iter()
                .zip(other.items.iter())
                .all(|(a, b)| a.generalizes(b))
    }

    /// Is `self` a *strict* generalization (generalizes and differs)?
    pub fn strictly_generalizes(&self, other: &Itemset) -> bool {
        self != other && self.generalizes(other)
    }

    /// All `(k-1)`-subsets, in item order.
    pub fn subsets_dropping_one(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(|i| {
            let mut items = self.items.clone();
            items.remove(i);
            Itemset { items }
        })
    }

    /// Union of two itemsets with disjoint attributes. Panics when the
    /// attribute sets overlap.
    pub fn union_disjoint(&self, other: &Itemset) -> Itemset {
        let mut items = self.items.clone();
        items.extend_from_slice(&other.items);
        Itemset::new(items)
    }

    /// Restrict to the items whose attributes appear in `attrs` (sorted).
    pub fn project(&self, attrs: &[u32]) -> Itemset {
        Itemset {
            items: self
                .items
                .iter()
                .filter(|i| attrs.binary_search(&i.attr).is_ok())
                .copied()
                .collect(),
        }
    }

    /// Is every item of `self` also an item of `other` (exact match)?
    /// This is plain set containment, *not* generalization.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        self.items.iter().all(|i| other.item_for(i.attr) == Some(i))
    }

    /// The items of `self` whose attributes are not in `other`.
    pub fn minus_attributes(&self, other: &Itemset) -> Itemset {
        Itemset {
            items: self
                .items
                .iter()
                .filter(|i| other.item_for(i.attr).is_none())
                .copied()
                .collect(),
        }
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Item> for Itemset {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Itemset::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_basics() {
        let i = Item::range(0, 2, 5);
        assert!(i.matches(2) && i.matches(5) && !i.matches(6) && !i.matches(1));
        assert_eq!(i.width(), 4);
        assert_eq!(Item::value(1, 3).width(), 1);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = Item::range(0, 5, 2);
    }

    #[test]
    fn item_generalization() {
        let wide = Item::range(0, 1, 8);
        let narrow = Item::range(0, 2, 5);
        assert!(wide.generalizes(&narrow));
        assert!(!narrow.generalizes(&wide));
        assert!(wide.generalizes(&wide));
        assert!(!Item::range(1, 1, 8).generalizes(&narrow)); // different attr
    }

    #[test]
    fn itemset_sorted_and_deduped_by_attr() {
        let s = Itemset::new(vec![Item::value(2, 0), Item::range(0, 1, 3)]);
        assert_eq!(s.attributes(), vec![0, 2]);
        assert_eq!(s.item_for(0), Some(&Item::range(0, 1, 3)));
        assert_eq!(s.item_for(1), None);
    }

    #[test]
    #[should_panic(expected = "same attribute")]
    fn duplicate_attribute_panics() {
        let _ = Itemset::new(vec![Item::value(0, 1), Item::value(0, 2)]);
    }

    #[test]
    fn support_check_against_record() {
        // Record: attr0=4, attr1=0, attr2=7.
        let record = vec![4, 0, 7];
        let s = Itemset::new(vec![Item::range(0, 2, 5), Item::value(2, 7)]);
        assert!(s.supported_by(&record));
        let s2 = Itemset::new(vec![Item::range(0, 2, 5), Item::value(1, 1)]);
        assert!(!s2.supported_by(&record));
        assert!(Itemset::empty().supported_by(&record));
    }

    #[test]
    fn itemset_generalization_paper_example() {
        // {⟨Age: 30..39⟩, ⟨Married: Yes⟩} generalizes
        // {⟨Age: 30..35⟩, ⟨Married: Yes⟩}.
        let general = Itemset::new(vec![Item::range(0, 30, 39), Item::value(1, 1)]);
        let special = Itemset::new(vec![Item::range(0, 30, 35), Item::value(1, 1)]);
        assert!(general.generalizes(&special));
        assert!(general.strictly_generalizes(&special));
        assert!(!special.generalizes(&general));
        assert!(!general.strictly_generalizes(&general));
    }

    #[test]
    fn generalization_requires_same_attributes() {
        let a = Itemset::new(vec![Item::range(0, 0, 9)]);
        let b = Itemset::new(vec![Item::range(0, 2, 3), Item::value(1, 0)]);
        assert!(!a.generalizes(&b));
    }

    #[test]
    fn k_minus_1_subsets() {
        let s = Itemset::new(vec![
            Item::value(0, 1),
            Item::value(1, 2),
            Item::value(2, 3),
        ]);
        let subs: Vec<Itemset> = s.subsets_dropping_one().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(|x| x.len() == 2));
        assert!(subs.iter().all(|x| x.is_subset_of(&s)));
    }

    #[test]
    fn union_and_projection() {
        let a = Itemset::new(vec![Item::value(0, 1)]);
        let b = Itemset::new(vec![Item::value(2, 3), Item::value(1, 0)]);
        let u = a.union_disjoint(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.attributes(), vec![0, 1, 2]);
        assert_eq!(u.project(&[0, 2]).attributes(), vec![0, 2]);
        assert_eq!(u.minus_attributes(&a).attributes(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "same attribute")]
    fn union_overlapping_attributes_panics() {
        let a = Itemset::new(vec![Item::value(0, 1)]);
        let b = Itemset::new(vec![Item::value(0, 2)]);
        let _ = a.union_disjoint(&b);
    }

    #[test]
    fn check_codes_against_cardinalities() {
        let cards = [3u32, 2];
        let cardinality = |attr: u32| cards.get(attr as usize).copied();
        let s = Itemset::new(vec![Item::range(0, 1, 2), Item::value(1, 1)]);
        assert_eq!(s.check_codes(cardinality), Ok(()));
        let past = Itemset::new(vec![Item::range(0, 1, 3), Item::value(1, 1)]);
        assert_eq!(
            past.check_codes(cardinality),
            Err(CodeRangeError::PastCardinality {
                item: Item::range(0, 1, 3),
                cardinality: 3
            })
        );
        let unknown = Itemset::new(vec![Item::value(0, 0), Item::value(7, 0)]);
        let err = unknown.check_codes(cardinality).unwrap_err();
        assert_eq!(err, CodeRangeError::UnknownAttribute(7));
        assert_eq!(err.to_string(), "references unknown attribute 7");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Item::value(3, 7).to_string(), "⟨#3: 7⟩");
        assert_eq!(Item::range(0, 1, 4).to_string(), "⟨#0: 1..4⟩");
        let s = Itemset::new(vec![Item::value(0, 1), Item::value(1, 0)]);
        assert_eq!(s.to_string(), "{⟨#0: 1⟩, ⟨#1: 0⟩}");
    }

    #[test]
    fn subset_is_exact_not_generalization() {
        let wide = Itemset::new(vec![Item::range(0, 0, 9)]);
        let narrow = Itemset::new(vec![Item::range(0, 2, 3)]);
        assert!(!narrow.is_subset_of(&wide));
        assert!(wide.generalizes(&narrow));
    }
}
