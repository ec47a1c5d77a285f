//! Is-a hierarchies (taxonomies) over categorical attribute values.
//!
//! The paper notes that categorical values are never combined "unless a
//! taxonomy (is-a hierarchy) is present on the attribute. In this case,
//! the taxonomy can be used to implicitly combine values of a categorical
//! attribute (see \[SA95\], \[HF95\]). Using a taxonomy in this manner is
//! somewhat similar to considering ranges over quantitative attributes."
//!
//! This module makes that similarity literal: leaves are numbered in DFS
//! order, so every interior node's leaf set is one *contiguous code
//! interval* — a generalized categorical item is then just a range item
//! `⟨attr, lo, hi⟩`, and the entire quantitative machinery (counting,
//! candidate generation, the interest measure's generalization lattice)
//! applies unchanged.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::TableError;

/// A taxonomy node span: `(name, lo, hi)` over positions in a DFS leaf
/// order — the contiguous code interval an interior node covers.
pub type TaxonomySpan = (String, u32, u32);

/// An is-a forest over string labels.
///
/// Built from `(child, parent)` edges; leaves are the labels that never
/// appear as a parent. Labels observed in the data but absent from the
/// taxonomy become standalone leaves with no ancestors.
///
/// ```
/// use qar_table::Taxonomy;
///
/// let tax = Taxonomy::from_edges(&[
///     ("CA", "West"), ("WA", "West"),
///     ("NY", "East"), ("MA", "East"),
///     ("West", "USA"), ("East", "USA"),
/// ]).unwrap();
/// assert!(tax.is_ancestor("West", "CA"));
/// assert!(tax.is_ancestor("USA", "MA"));
/// assert!(!tax.is_ancestor("West", "NY"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    /// `parent[child] = parent` for every edge.
    parent: BTreeMap<String, String>,
    /// All labels, in insertion-independent (sorted) order.
    labels: BTreeSet<String>,
}

impl Taxonomy {
    /// Build from `(child, parent)` edges. Rejects labels with two parents
    /// (the encoding needs a forest, not a DAG) and parent cycles.
    pub fn from_edges<S: AsRef<str>>(edges: &[(S, S)]) -> Result<Self, TableError> {
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        let mut labels: BTreeSet<String> = BTreeSet::new();
        for (child, par) in edges {
            let child = child.as_ref().to_owned();
            let par = par.as_ref().to_owned();
            if child == par {
                return Err(TableError::Taxonomy(format!("`{child}` is its own parent")));
            }
            labels.insert(child.clone());
            labels.insert(par.clone());
            if let Some(existing) = parent.get(&child) {
                if *existing != par {
                    return Err(TableError::Taxonomy(format!(
                        "`{child}` has two parents: `{existing}` and `{par}`"
                    )));
                }
            }
            parent.insert(child, par);
        }
        // Cycle check: walk up from every label; depth is bounded by the
        // label count in an acyclic forest.
        let bound = labels.len();
        for label in &labels {
            let mut cur = label;
            let mut steps = 0;
            while let Some(p) = parent.get(cur) {
                cur = p;
                steps += 1;
                if steps > bound {
                    return Err(TableError::Taxonomy(format!("cycle through `{label}`")));
                }
            }
        }
        Ok(Taxonomy { parent, labels })
    }

    /// Every `(child, parent)` edge, sorted by child.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str)> {
        self.parent.iter().map(|(c, p)| (c.as_str(), p.as_str()))
    }

    /// Is `ancestor` a strict ancestor of `label`?
    pub fn is_ancestor(&self, ancestor: &str, label: &str) -> bool {
        let mut cur = label;
        while let Some(p) = self.parent.get(cur) {
            if p == ancestor {
                return true;
            }
            cur = p;
        }
        false
    }

    /// All interior labels (those with at least one child).
    pub fn interior_labels(&self) -> BTreeSet<&str> {
        self.parent.values().map(|s| s.as_str()).collect()
    }

    /// Leaf labels of the taxonomy (never a parent), sorted.
    pub fn leaf_labels(&self) -> Vec<&str> {
        let interior = self.interior_labels();
        self.labels
            .iter()
            .map(|s| s.as_str())
            .filter(|l| !interior.contains(l))
            .collect()
    }

    fn children_of(&self) -> BTreeMap<&str, Vec<&str>> {
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (child, par) in &self.parent {
            children
                .entry(par.as_str())
                .or_default()
                .push(child.as_str());
        }
        children
    }

    /// Produce the DFS leaf order and the interior-node spans for the set
    /// of `observed` leaf labels (from the data).
    ///
    /// * Observed labels that are taxonomy leaves appear in DFS order;
    ///   observed labels unknown to the taxonomy are appended (sorted).
    /// * Each returned group is `(name, lo, hi)` over positions in the
    ///   returned leaf order — the contiguous code interval of an interior
    ///   node — restricted to groups covering at least one observed label
    ///   and more than one code (single-leaf groups are the leaf itself).
    /// * Observed labels that are *interior* taxonomy nodes are an error:
    ///   records must hold leaf values ("the algorithm only sees values").
    pub fn plan(
        &self,
        observed: &BTreeSet<String>,
    ) -> Result<(Vec<String>, Vec<TaxonomySpan>), TableError> {
        let interior = self.interior_labels();
        for label in observed {
            if interior.contains(label.as_str()) {
                return Err(TableError::Taxonomy(format!(
                    "records contain interior taxonomy label `{label}`; data must hold leaves"
                )));
            }
        }
        let children = self.children_of();
        // Roots: interior labels with no parent, plus taxonomy leaves with
        // no parent (isolated), in sorted order.
        let roots: Vec<&str> = self
            .labels
            .iter()
            .map(|s| s.as_str())
            .filter(|l| !self.parent.contains_key(*l))
            .collect();

        let mut order: Vec<String> = Vec::new();
        let mut groups: Vec<TaxonomySpan> = Vec::new();
        // Iterative DFS that records each interior node's leaf span.
        for root in roots {
            self.dfs(root, &children, observed, &mut order, &mut groups);
        }
        // Observed labels outside the taxonomy: standalone leaves.
        for label in observed {
            if !self.labels.contains(label) {
                order.push(label.clone());
            }
        }
        Ok((order, groups))
    }

    fn dfs(
        &self,
        node: &str,
        children: &BTreeMap<&str, Vec<&str>>,
        observed: &BTreeSet<String>,
        order: &mut Vec<String>,
        groups: &mut Vec<TaxonomySpan>,
    ) {
        match children.get(node) {
            None => {
                // Leaf: emit only if observed in the data (unobserved
                // leaves would waste codes with zero support).
                if observed.contains(node) {
                    order.push(node.to_owned());
                }
            }
            Some(kids) => {
                let lo = order.len() as u32;
                for kid in kids {
                    self.dfs(kid, children, observed, order, groups);
                }
                let hi = order.len() as u32;
                // Only spans covering >= 2 observed leaves add information.
                if hi >= lo + 2 {
                    groups.push((node.to_owned(), lo, hi - 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn states() -> Taxonomy {
        Taxonomy::from_edges(&[
            ("CA", "West"),
            ("WA", "West"),
            ("OR", "West"),
            ("NY", "East"),
            ("MA", "East"),
            ("West", "USA"),
            ("East", "USA"),
        ])
        .unwrap()
    }

    fn observed(labels: &[&str]) -> BTreeSet<String> {
        labels.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ancestry() {
        let t = states();
        assert!(t.is_ancestor("West", "CA"));
        assert!(t.is_ancestor("USA", "CA"));
        assert!(t.is_ancestor("USA", "West"));
        assert!(!t.is_ancestor("East", "CA"));
        assert!(!t.is_ancestor("CA", "West"));
        assert_eq!(t.leaf_labels(), vec!["CA", "MA", "NY", "OR", "WA"]);
    }

    #[test]
    fn plan_produces_contiguous_spans() {
        let t = states();
        let (order, groups) = t.plan(&observed(&["CA", "WA", "OR", "NY", "MA"])).unwrap();
        // DFS from USA: East first (BTreeMap order), then West.
        assert_eq!(order, vec!["MA", "NY", "CA", "OR", "WA"]);
        // Groups: East = [0,1], West = [2,4], USA = [0,4].
        let find = |name: &str| groups.iter().find(|(n, _, _)| n == name).cloned();
        assert_eq!(find("East"), Some(("East".into(), 0, 1)));
        assert_eq!(find("West"), Some(("West".into(), 2, 4)));
        assert_eq!(find("USA"), Some(("USA".into(), 0, 4)));
    }

    #[test]
    fn unobserved_leaves_are_skipped_and_spans_shrink() {
        let t = states();
        let (order, groups) = t.plan(&observed(&["CA", "NY"])).unwrap();
        assert_eq!(order, vec!["NY", "CA"]);
        // Each region now covers one observed leaf -> no 2+ leaf groups
        // except USA.
        let names: Vec<&str> = groups.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["USA"]);
        assert_eq!(groups[0].1, 0);
        assert_eq!(groups[0].2, 1);
    }

    #[test]
    fn foreign_labels_appended() {
        let t = states();
        let (order, _) = t.plan(&observed(&["CA", "TX", "AK"])).unwrap();
        assert_eq!(order, vec!["CA", "AK", "TX"]); // taxonomy leaves, then sorted extras
    }

    #[test]
    fn interior_label_in_data_rejected() {
        let t = states();
        let err = t.plan(&observed(&["CA", "West"])).unwrap_err();
        assert!(err.to_string().contains("interior"));
    }

    #[test]
    fn two_parents_rejected() {
        let err = Taxonomy::from_edges(&[("CA", "West"), ("CA", "Pacific")]).unwrap_err();
        assert!(err.to_string().contains("two parents"));
    }

    #[test]
    fn cycles_rejected() {
        let err = Taxonomy::from_edges(&[("a", "b"), ("b", "c"), ("c", "a")]).unwrap_err();
        assert!(err.to_string().contains("cycle"));
        let err = Taxonomy::from_edges(&[("a", "a")]).unwrap_err();
        assert!(err.to_string().contains("own parent"));
    }

    #[test]
    fn duplicate_identical_edges_ok() {
        let t = Taxonomy::from_edges(&[("CA", "West"), ("CA", "West")]).unwrap();
        assert!(t.is_ancestor("West", "CA"));
    }
}
