//! The R*-tree proper: arena-allocated nodes, forced reinsert, topological
//! split, STR bulk load, point/window queries, and deletion.

use crate::rect::Rect;

/// Default maximum entries per node. 32 keeps nodes around two cache lines
/// of child ids while staying close to BKSS90's page-sized nodes in spirit.
pub const DEFAULT_MAX_ENTRIES: usize = 32;

/// Fraction of `M+1` entries removed by forced reinsert; BKSS90 found 30 %
/// to perform best.
const REINSERT_FRACTION: f64 = 0.3;

const INVALID: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    /// 0 for leaves; parents are exactly one level above their children.
    level: u32,
    /// Arena id of the parent node, `INVALID` for the root.
    parent: u32,
    /// Minimum bounding rectangle of all entries (meaningless when empty).
    mbr: Rect,
    /// Child node ids (`level > 0`) or item ids (`level == 0`).
    children: Vec<u32>,
}

/// An R*-tree mapping rectangles to values of type `T`.
///
/// ```
/// use qar_rtree::{RStarTree, Rect};
///
/// let mut tree = RStarTree::new();
/// tree.insert(Rect::new(&[0.0, 0.0], &[10.0, 10.0]), "big");
/// tree.insert(Rect::new(&[2.0, 2.0], &[3.0, 3.0]), "small");
/// let mut hits: Vec<&str> = Vec::new();
/// tree.query_point(&[2.5, 2.5], |v| hits.push(v));
/// hits.sort();
/// assert_eq!(hits, ["big", "small"]);
/// ```
#[derive(Debug, Clone)]
pub struct RStarTree<T> {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    items: Vec<Option<(Rect, T)>>,
    free_items: Vec<u32>,
    root: u32,
    len: usize,
    max_entries: usize,
    min_entries: usize,
    dims: Option<usize>,
}

impl<T> Default for RStarTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RStarTree<T> {
    /// An empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }

    /// An empty tree whose nodes hold at most `max_entries` entries
    /// (minimum fill is 40 %, per BKSS90). `max_entries` must be ≥ 4.
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "nodes must hold at least 4 entries");
        let min_entries = ((max_entries as f64 * 0.4).floor() as usize).max(2);
        let root = Node {
            level: 0,
            parent: INVALID,
            mbr: Rect::point(&[0.0]),
            children: Vec::new(),
        };
        RStarTree {
            nodes: vec![root],
            free_nodes: Vec::new(),
            items: Vec::new(),
            free_items: Vec::new(),
            root: 0,
            len: 0,
            max_entries,
            min_entries,
            dims: None,
        }
    }

    /// Number of stored rectangles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 for an empty/leaf-only tree).
    pub fn height(&self) -> u32 {
        self.nodes[self.root as usize].level
    }

    /// Rough heap footprint in bytes — the input to the paper's
    /// array-vs-R*-tree counting heuristic.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| std::mem::size_of::<Node>() + n.children.capacity() * 4)
            .sum();
        let item_bytes = self.items.capacity() * std::mem::size_of::<Option<(Rect, T)>>();
        node_bytes + item_bytes
    }

    fn alloc_node(&mut self, node: Node) -> u32 {
        if let Some(id) = self.free_nodes.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn alloc_item(&mut self, rect: Rect, value: T) -> u32 {
        if let Some(id) = self.free_items.pop() {
            self.items[id as usize] = Some((rect, value));
            id
        } else {
            self.items.push(Some((rect, value)));
            (self.items.len() - 1) as u32
        }
    }

    fn entry_rect(&self, level: u32, child: u32) -> Rect {
        if level == 0 {
            self.items[child as usize].as_ref().expect("live item").0
        } else {
            self.nodes[child as usize].mbr
        }
    }

    fn recompute_mbr(&mut self, node_id: u32) {
        let node = &self.nodes[node_id as usize];
        let level = node.level;
        let mut mbr: Option<Rect> = None;
        for &c in &node.children {
            let r = self.entry_rect(level, c);
            mbr = Some(match mbr {
                Some(m) => m.union(&r),
                None => r,
            });
        }
        if let Some(m) = mbr {
            self.nodes[node_id as usize].mbr = m;
        }
    }

    /// Insert `rect` with `value`. All rectangles in one tree must share
    /// their dimensionality.
    pub fn insert(&mut self, rect: Rect, value: T) {
        match self.dims {
            None => self.dims = Some(rect.dims()),
            Some(d) => assert_eq!(d, rect.dims(), "mixed dimensionality"),
        }
        let item = self.alloc_item(rect, value);
        let mut reinserted_levels: u64 = 0;
        self.insert_entry(item, rect, 0, &mut reinserted_levels);
        self.len += 1;
    }

    /// Insert an entry (item or subtree) into a node at `target_level`.
    fn insert_entry(&mut self, child: u32, rect: Rect, target_level: u32, reinserted: &mut u64) {
        let node_id = self.choose_subtree(&rect, target_level);
        self.nodes[node_id as usize].children.push(child);
        if target_level > 0 {
            self.nodes[child as usize].parent = node_id;
        }
        // Expand MBRs along the path to the root.
        let mut cur = node_id;
        loop {
            let node = &mut self.nodes[cur as usize];
            if node.children.len() == 1 {
                node.mbr = rect;
            } else {
                node.mbr = node.mbr.union(&rect);
            }
            if node.parent == INVALID {
                break;
            }
            cur = node.parent;
        }
        self.handle_overflow_chain(node_id, reinserted);
    }

    fn handle_overflow_chain(&mut self, start: u32, reinserted: &mut u64) {
        let mut cur = start;
        loop {
            if self.nodes[cur as usize].children.len() <= self.max_entries {
                break;
            }
            let level = self.nodes[cur as usize].level;
            let is_root = cur == self.root;
            let level_bit = 1u64 << level.min(63);
            if !is_root && (*reinserted & level_bit) == 0 {
                *reinserted |= level_bit;
                self.forced_reinsert(cur, reinserted);
                // Reinsertion may have re-grown this node or others; their
                // overflow was handled by the recursive inserts.
                break;
            }
            match self.split(cur) {
                Some(parent) => cur = parent,
                None => break, // split created a new root
            }
        }
    }

    /// Remove the 30 % of entries farthest from the node centre and
    /// reinsert them, closest first ("close reinsert").
    fn forced_reinsert(&mut self, node_id: u32, reinserted: &mut u64) {
        let level = self.nodes[node_id as usize].level;
        let node_mbr = self.nodes[node_id as usize].mbr;
        let mut ranked: Vec<(u32, Rect, f64)> = self.nodes[node_id as usize]
            .children
            .iter()
            .map(|&c| {
                let r = self.entry_rect(level, c);
                (c, r, r.center_distance_sq(&node_mbr))
            })
            .collect();
        // Sort by distance, farthest first; ties broken by id for
        // determinism.
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        let p = ((self.max_entries as f64 + 1.0) * REINSERT_FRACTION).ceil() as usize;
        let p = p.clamp(1, ranked.len() - 1);
        let removed: Vec<(u32, Rect)> = ranked[..p].iter().map(|&(c, r, _)| (c, r)).collect();
        let keep: Vec<u32> = ranked[p..].iter().map(|&(c, _, _)| c).collect();
        self.nodes[node_id as usize].children = keep;
        self.recompute_path_mbrs(node_id);
        // Close reinsert: nearest of the removed entries first.
        for &(child, rect) in removed.iter().rev() {
            self.insert_entry(child, rect, level, reinserted);
        }
    }

    fn recompute_path_mbrs(&mut self, mut node_id: u32) {
        loop {
            self.recompute_mbr(node_id);
            let parent = self.nodes[node_id as usize].parent;
            if parent == INVALID {
                break;
            }
            node_id = parent;
        }
    }

    /// BKSS90 ChooseSubtree: descend to the node at `target_level` that
    /// needs the least enlargement, preferring overlap enlargement when the
    /// children are leaves.
    fn choose_subtree(&self, rect: &Rect, target_level: u32) -> u32 {
        let mut cur = self.root;
        while self.nodes[cur as usize].level > target_level {
            let node = &self.nodes[cur as usize];
            let children = &node.children;
            let child_level = node.level - 1;
            let best = if child_level == 0 && target_level == 0 {
                self.pick_min_overlap_child(children, rect)
            } else {
                self.pick_min_area_child(children, child_level + 1, rect)
            };
            cur = best;
        }
        cur
    }

    fn pick_min_area_child(&self, children: &[u32], parent_level: u32, rect: &Rect) -> u32 {
        let mut best = children[0];
        let mut best_enlarge = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for &c in children {
            let r = self.entry_rect(parent_level, c);
            let enlarge = r.enlargement(rect);
            let area = r.area();
            if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
                best = c;
                best_enlarge = enlarge;
                best_area = area;
            }
        }
        best
    }

    fn pick_min_overlap_child(&self, children: &[u32], rect: &Rect) -> u32 {
        let rects: Vec<Rect> = children
            .iter()
            .map(|&c| self.nodes[c as usize].mbr)
            .collect();
        let mut best = children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, &c) in children.iter().enumerate() {
            let grown = rects[i].union(rect);
            let mut overlap_delta = 0.0;
            for (j, other) in rects.iter().enumerate() {
                if j != i {
                    overlap_delta += grown.overlap_area(other) - rects[i].overlap_area(other);
                }
            }
            let key = (overlap_delta, rects[i].enlargement(rect), rects[i].area());
            if key < best_key {
                best = c;
                best_key = key;
            }
        }
        best
    }

    /// Topological split. Returns the parent node id to continue the
    /// overflow chain at, or `None` when a new root was created.
    fn split(&mut self, node_id: u32) -> Option<u32> {
        let level = self.nodes[node_id as usize].level;
        let entries: Vec<(u32, Rect)> = self.nodes[node_id as usize]
            .children
            .iter()
            .map(|&c| (c, self.entry_rect(level, c)))
            .collect();
        let dims = entries[0].1.dims();
        let m = self.min_entries;
        let total = entries.len();
        debug_assert!(total == self.max_entries + 1);

        // ChooseSplitAxis: minimize the margin sum over all distributions.
        let mut best_axis = 0;
        let mut best_margin = f64::INFINITY;
        for axis in 0..dims {
            let mut margin_sum = 0.0;
            for sort_by_hi in [false, true] {
                let sorted = Self::sorted_entries(&entries, axis, sort_by_hi);
                for k in m..=(total - m) {
                    let (bb1, bb2) = Self::group_bbs(&sorted, k);
                    margin_sum += bb1.margin() + bb2.margin();
                }
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
            }
        }

        // ChooseSplitIndex: minimum overlap, ties by minimum area sum.
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        let mut best_split: Option<(Vec<(u32, Rect)>, usize)> = None;
        for sort_by_hi in [false, true] {
            let sorted = Self::sorted_entries(&entries, best_axis, sort_by_hi);
            for k in m..=(total - m) {
                let (bb1, bb2) = Self::group_bbs(&sorted, k);
                let key = (bb1.overlap_area(&bb2), bb1.area() + bb2.area());
                if key < best_key {
                    best_key = key;
                    best_split = Some((sorted.clone(), k));
                }
            }
        }
        let (sorted, k) = best_split.expect("at least one distribution");
        let group1: Vec<u32> = sorted[..k].iter().map(|e| e.0).collect();
        let group2: Vec<u32> = sorted[k..].iter().map(|e| e.0).collect();

        let parent = self.nodes[node_id as usize].parent;
        self.nodes[node_id as usize].children = group1;
        self.recompute_mbr(node_id);
        let sibling = self.alloc_node(Node {
            level,
            parent: INVALID,
            mbr: Rect::point(&[0.0]),
            children: group2,
        });
        if level > 0 {
            let kids = self.nodes[sibling as usize].children.clone();
            for c in kids {
                self.nodes[c as usize].parent = sibling;
            }
        }
        self.recompute_mbr(sibling);

        if parent == INVALID {
            // Grow the tree: fresh root adopting both halves.
            let new_root = self.alloc_node(Node {
                level: level + 1,
                parent: INVALID,
                mbr: Rect::point(&[0.0]),
                children: vec![node_id, sibling],
            });
            self.nodes[node_id as usize].parent = new_root;
            self.nodes[sibling as usize].parent = new_root;
            self.recompute_mbr(new_root);
            self.root = new_root;
            None
        } else {
            self.nodes[sibling as usize].parent = parent;
            self.nodes[parent as usize].children.push(sibling);
            // Parent coverage is unchanged, but its child count grew; the
            // caller continues the overflow chain there.
            Some(parent)
        }
    }

    fn sorted_entries(entries: &[(u32, Rect)], axis: usize, by_hi: bool) -> Vec<(u32, Rect)> {
        let mut v = entries.to_vec();
        v.sort_by(|a, b| {
            let (pa, sa) = if by_hi {
                (a.1.hi(axis), a.1.lo(axis))
            } else {
                (a.1.lo(axis), a.1.hi(axis))
            };
            let (pb, sb) = if by_hi {
                (b.1.hi(axis), b.1.lo(axis))
            } else {
                (b.1.lo(axis), b.1.hi(axis))
            };
            pa.total_cmp(&pb)
                .then(sa.total_cmp(&sb))
                .then(a.0.cmp(&b.0))
        });
        v
    }

    fn group_bbs(sorted: &[(u32, Rect)], k: usize) -> (Rect, Rect) {
        let bb =
            |slice: &[(u32, Rect)]| slice[1..].iter().fold(slice[0].1, |acc, e| acc.union(&e.1));
        (bb(&sorted[..k]), bb(&sorted[k..]))
    }

    /// Visit every value whose rectangle contains `point`.
    pub fn query_point<'a>(&'a self, point: &[f64], mut visit: impl FnMut(&'a T)) {
        if self.len == 0 {
            return;
        }
        debug_assert_eq!(Some(point.len()), self.dims);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.level == 0 {
                for &item in &node.children {
                    let (rect, value) = self.items[item as usize].as_ref().expect("live item");
                    if rect.contains_point(point) {
                        visit(value);
                    }
                }
            } else {
                for &child in &node.children {
                    if self.nodes[child as usize].mbr.contains_point(point) {
                        stack.push(child);
                    }
                }
            }
        }
    }

    /// Visit every value whose rectangle intersects `window`.
    pub fn query_intersecting<'a>(&'a self, window: &Rect, mut visit: impl FnMut(&'a T)) {
        if self.len == 0 {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.level == 0 {
                for &item in &node.children {
                    let (rect, value) = self.items[item as usize].as_ref().expect("live item");
                    if rect.intersects(window) {
                        visit(value);
                    }
                }
            } else {
                for &child in &node.children {
                    if self.nodes[child as usize].mbr.intersects(window) {
                        stack.push(child);
                    }
                }
            }
        }
    }

    /// Remove one rectangle equal to `rect` carrying a value equal to
    /// `value`. Returns whether anything was removed. Underfull nodes are
    /// dissolved and their entries reinserted (the classic CondenseTree).
    pub fn remove(&mut self, rect: &Rect, value: &T) -> bool
    where
        T: PartialEq,
    {
        let Some((leaf, pos)) = self.find_leaf(self.root, rect, value) else {
            return false;
        };
        let item = self.nodes[leaf as usize].children.remove(pos);
        self.items[item as usize] = None;
        self.free_items.push(item);
        self.len -= 1;
        self.condense(leaf);
        true
    }

    fn find_leaf(&self, node_id: u32, rect: &Rect, value: &T) -> Option<(u32, usize)>
    where
        T: PartialEq,
    {
        let node = &self.nodes[node_id as usize];
        if node.level == 0 {
            for (pos, &item) in node.children.iter().enumerate() {
                let (r, v) = self.items[item as usize].as_ref().expect("live item");
                if r == rect && v == value {
                    return Some((node_id, pos));
                }
            }
            None
        } else {
            for &child in &node.children {
                if self.nodes[child as usize].mbr.contains_rect(rect) {
                    if let Some(found) = self.find_leaf(child, rect, value) {
                        return Some(found);
                    }
                }
            }
            None
        }
    }

    fn condense(&mut self, mut node_id: u32) {
        let mut orphans: Vec<(u32, Rect, u32)> = Vec::new(); // (entry, rect, level)
        loop {
            let is_root = node_id == self.root;
            let parent = self.nodes[node_id as usize].parent;
            if !is_root && self.nodes[node_id as usize].children.len() < self.min_entries {
                // Dissolve this node: orphan its entries, unlink from parent.
                let level = self.nodes[node_id as usize].level;
                let children = std::mem::take(&mut self.nodes[node_id as usize].children);
                for c in children {
                    let r = self.entry_rect(level, c);
                    orphans.push((c, r, level));
                }
                let p = &mut self.nodes[parent as usize];
                let pos = p
                    .children
                    .iter()
                    .position(|&c| c == node_id)
                    .expect("child link");
                p.children.remove(pos);
                self.free_nodes.push(node_id);
            } else {
                self.recompute_mbr(node_id);
            }
            if is_root {
                break;
            }
            node_id = parent;
        }
        // Shrink the root if it became a lone-child internal node.
        while self.nodes[self.root as usize].level > 0
            && self.nodes[self.root as usize].children.len() == 1
        {
            let old_root = self.root;
            let child = self.nodes[old_root as usize].children[0];
            self.nodes[child as usize].parent = INVALID;
            self.root = child;
            self.free_nodes.push(old_root);
        }
        // Reinsert orphans at their original levels.
        for (entry, rect, level) in orphans {
            let mut reinserted = !0u64; // suppress forced reinsert during condense
            if level == 0 {
                self.insert_entry(entry, rect, 0, &mut reinserted);
            } else if self.nodes[self.root as usize].level > level {
                self.insert_entry(entry, rect, level, &mut reinserted);
            } else {
                // The tree shrank below this subtree's level: reinsert its
                // descendants item by item.
                let mut stack = vec![entry];
                while let Some(n) = stack.pop() {
                    let node = std::mem::take(&mut self.nodes[n as usize].children);
                    let lvl = self.nodes[n as usize].level;
                    for c in node {
                        if lvl == 0 {
                            let r = self.entry_rect(0, c);
                            self.insert_entry(c, r, 0, &mut reinserted);
                        } else {
                            stack.push(c);
                        }
                    }
                    self.free_nodes.push(n);
                }
            }
        }
    }

    /// STR bulk load: build a tree over `items` in one bottom-up pass.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        Self::bulk_load_with_max_entries(items, DEFAULT_MAX_ENTRIES)
    }

    /// STR bulk load with explicit node capacity.
    pub fn bulk_load_with_max_entries(items: Vec<(Rect, T)>, max_entries: usize) -> Self {
        let mut tree = Self::with_max_entries(max_entries);
        if items.is_empty() {
            return tree;
        }
        let dims = items[0].0.dims();
        tree.dims = Some(dims);
        tree.len = items.len();
        let mut entries: Vec<(u32, Rect)> = items
            .into_iter()
            .map(|(rect, value)| {
                assert_eq!(rect.dims(), dims, "mixed dimensionality");
                (tree.alloc_item(rect, value), rect)
            })
            .collect();

        let mut level = 0u32;
        loop {
            let node_ids = tree.str_pack(&mut entries, level, dims);
            if node_ids.len() == 1 {
                tree.root = node_ids[0];
                tree.nodes[tree.root as usize].parent = INVALID;
                // Node 0 was the placeholder root; free it unless reused.
                if tree.root != 0 {
                    tree.free_nodes.push(0);
                }
                break;
            }
            entries = node_ids
                .iter()
                .map(|&id| (id, tree.nodes[id as usize].mbr))
                .collect();
            level += 1;
        }
        tree
    }

    /// Pack `entries` into nodes at `level` using sort-tile-recursive
    /// tiling; returns the new node ids.
    fn str_pack(&mut self, entries: &mut [(u32, Rect)], level: u32, dims: usize) -> Vec<u32> {
        let capacity = self.max_entries;
        let mut out = Vec::new();
        self.str_tile(entries, 0, dims, capacity, level, &mut out);
        out
    }

    fn str_tile(
        &mut self,
        entries: &mut [(u32, Rect)],
        axis: usize,
        dims: usize,
        capacity: usize,
        level: u32,
        out: &mut Vec<u32>,
    ) {
        let n = entries.len();
        if n <= capacity {
            let children: Vec<u32> = entries.iter().map(|e| e.0).collect();
            let id = self.alloc_node(Node {
                level,
                parent: INVALID,
                mbr: Rect::point(&[0.0]),
                children,
            });
            if level > 0 {
                let kids = self.nodes[id as usize].children.clone();
                for c in kids {
                    self.nodes[c as usize].parent = id;
                }
            }
            self.recompute_mbr(id);
            out.push(id);
            return;
        }
        entries.sort_by(|a, b| {
            a.1.center(axis)
                .total_cmp(&b.1.center(axis))
                .then(a.0.cmp(&b.0))
        });
        let pages = n.div_ceil(capacity);
        let remaining_axes = dims - axis;
        // Number of slabs along this axis: pages^(1/remaining_axes).
        let slabs = if remaining_axes <= 1 {
            pages
        } else {
            (pages as f64).powf(1.0 / remaining_axes as f64).ceil() as usize
        }
        .max(1);
        let per_slab = n.div_ceil(slabs);
        let next_axis = if axis + 1 < dims { axis + 1 } else { axis };
        let mut start = 0;
        while start < n {
            let end = (start + per_slab).min(n);
            if axis + 1 < dims {
                self.str_tile(
                    &mut entries[start..end],
                    next_axis,
                    dims,
                    capacity,
                    level,
                    out,
                );
            } else {
                // Last axis: chunk straight into nodes.
                let mut s = start;
                while s < end {
                    let e = (s + capacity).min(end);
                    let children: Vec<u32> = entries[s..e].iter().map(|x| x.0).collect();
                    let id = self.alloc_node(Node {
                        level,
                        parent: INVALID,
                        mbr: Rect::point(&[0.0]),
                        children,
                    });
                    if level > 0 {
                        let kids = self.nodes[id as usize].children.clone();
                        for c in kids {
                            self.nodes[c as usize].parent = id;
                        }
                    }
                    self.recompute_mbr(id);
                    out.push(id);
                    s = e;
                }
                start = end;
                continue;
            }
            start = end;
        }
    }

    /// Verify all structural invariants; panics with a description on the
    /// first violation. Test-and-debug helper.
    pub fn check_invariants(&self) {
        if self.len == 0 {
            return;
        }
        let mut item_count = 0usize;
        self.check_node(self.root, INVALID, &mut item_count);
        assert_eq!(item_count, self.len, "live items vs len");
        let root = &self.nodes[self.root as usize];
        if root.level > 0 {
            assert!(
                root.children.len() >= 2,
                "internal root needs >= 2 children"
            );
        }
    }

    fn check_node(&self, id: u32, parent: u32, item_count: &mut usize) {
        let node = &self.nodes[id as usize];
        assert_eq!(node.parent, parent, "parent link of node {id}");
        if id != self.root {
            assert!(
                node.children.len() >= self.min_entries,
                "node {id} underfull: {}",
                node.children.len()
            );
        }
        assert!(
            node.children.len() <= self.max_entries,
            "node {id} overfull: {}",
            node.children.len()
        );
        let mut mbr: Option<Rect> = None;
        for &c in &node.children {
            let r = if node.level == 0 {
                *item_count += 1;
                self.items[c as usize].as_ref().expect("live item").0
            } else {
                let child = &self.nodes[c as usize];
                assert_eq!(child.level + 1, node.level, "level mismatch under {id}");
                self.check_node(c, id, item_count);
                child.mbr
            };
            mbr = Some(match mbr {
                Some(m) => m.union(&r),
                None => r,
            });
        }
        let expect = mbr.expect("non-empty node");
        assert_eq!(expect, node.mbr, "stale MBR at node {id}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveRectIndex;

    /// Deterministic pseudo-random f64 in [0, 1000) without external crates.
    fn prng(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) * 1000.0
    }

    fn random_rect(state: &mut u64, dims: usize) -> Rect {
        let lo: Vec<f64> = (0..dims).map(|_| prng(state)).collect();
        let hi: Vec<f64> = lo.iter().map(|&l| l + prng(state) / 10.0).collect();
        Rect::new(&lo, &hi)
    }

    #[test]
    fn empty_tree_queries_nothing() {
        let tree: RStarTree<u32> = RStarTree::new();
        let mut hits = 0;
        tree.query_point(&[1.0], |_| hits += 1);
        assert_eq!(hits, 0);
        assert!(tree.is_empty());
    }

    #[test]
    fn single_insert_and_query() {
        let mut tree = RStarTree::new();
        tree.insert(Rect::new(&[0.0], &[10.0]), 7u32);
        let mut hits = Vec::new();
        tree.query_point(&[5.0], |v| hits.push(*v));
        assert_eq!(hits, vec![7]);
        tree.query_point(&[11.0], |v| hits.push(*v));
        assert_eq!(hits, vec![7]);
        tree.check_invariants();
    }

    #[test]
    fn split_grows_tree_and_keeps_answers() {
        let mut tree = RStarTree::with_max_entries(4);
        for i in 0..64 {
            let x = i as f64;
            tree.insert(Rect::new(&[x, x], &[x + 0.5, x + 0.5]), i);
        }
        tree.check_invariants();
        assert!(tree.height() >= 2);
        for i in 0..64 {
            let x = i as f64 + 0.25;
            let mut hits = Vec::new();
            tree.query_point(&[x, x], |v| hits.push(*v));
            assert_eq!(hits, vec![i], "point {x}");
        }
    }

    #[test]
    fn matches_naive_on_point_queries() {
        let mut state = 42u64;
        let mut tree = RStarTree::with_max_entries(8);
        let mut naive = NaiveRectIndex::new();
        for i in 0..500u32 {
            let r = random_rect(&mut state, 3);
            tree.insert(r, i);
            naive.insert(r, i);
        }
        tree.check_invariants();
        for _ in 0..200 {
            let p: Vec<f64> = (0..3).map(|_| prng(&mut state)).collect();
            let mut a = Vec::new();
            let mut b = Vec::new();
            tree.query_point(&p, |v| a.push(*v));
            naive.query_point(&p, |v| b.push(*v));
            a.sort();
            b.sort();
            assert_eq!(a, b, "point {p:?}");
        }
    }

    #[test]
    fn matches_naive_on_window_queries() {
        let mut state = 7u64;
        let mut tree = RStarTree::with_max_entries(8);
        let mut naive = NaiveRectIndex::new();
        for i in 0..300u32 {
            let r = random_rect(&mut state, 2);
            tree.insert(r, i);
            naive.insert(r, i);
        }
        for _ in 0..100 {
            let w = random_rect(&mut state, 2);
            let mut a = Vec::new();
            let mut b = Vec::new();
            tree.query_intersecting(&w, |v| a.push(*v));
            naive.query_intersecting(&w, |v| b.push(*v));
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let mut state = 99u64;
        let items: Vec<(Rect, u32)> = (0..1000u32)
            .map(|i| (random_rect(&mut state, 2), i))
            .collect();
        let bulk = RStarTree::bulk_load(items.clone());
        bulk.check_invariants();
        assert_eq!(bulk.len(), 1000);
        let mut incr = RStarTree::new();
        for (r, v) in items {
            incr.insert(r, v);
        }
        for _ in 0..100 {
            let p: Vec<f64> = (0..2).map(|_| prng(&mut state)).collect();
            let mut a = Vec::new();
            let mut b = Vec::new();
            bulk.query_point(&p, |v| a.push(*v));
            incr.query_point(&p, |v| b.push(*v));
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bulk_load_small_input() {
        let tree = RStarTree::bulk_load(vec![(Rect::point(&[1.0]), "x")]);
        tree.check_invariants();
        let mut hits = Vec::new();
        tree.query_point(&[1.0], |v| hits.push(*v));
        assert_eq!(hits, vec!["x"]);
        let empty: RStarTree<u8> = RStarTree::bulk_load(vec![]);
        assert!(empty.is_empty());
    }

    #[test]
    fn remove_then_query() {
        let mut state = 5u64;
        let mut tree = RStarTree::with_max_entries(6);
        let mut rects = Vec::new();
        for i in 0..200u32 {
            let r = random_rect(&mut state, 2);
            rects.push((r, i));
            tree.insert(r, i);
        }
        // Remove every other item.
        for (r, i) in rects.iter().filter(|(_, i)| i % 2 == 0) {
            assert!(tree.remove(r, i), "remove {i}");
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 100);
        for (r, i) in &rects {
            let center: Vec<f64> = (0..2).map(|d| r.center(d)).collect();
            let mut hits = Vec::new();
            tree.query_point(&center, |v| hits.push(*v));
            if i % 2 == 0 {
                assert!(!hits.contains(i));
            } else {
                assert!(hits.contains(i));
            }
        }
        assert!(!tree.remove(&rects[0].0, &rects[0].1), "double remove");
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let mut tree = RStarTree::with_max_entries(4);
        let rects: Vec<(Rect, u32)> = (0..50)
            .map(|i| (Rect::point(&[i as f64, -(i as f64)]), i))
            .collect();
        for (r, v) in &rects {
            tree.insert(*r, *v);
        }
        for (r, v) in &rects {
            assert!(tree.remove(r, v));
        }
        assert!(tree.is_empty());
        let mut hits = 0;
        tree.query_point(&[0.0, 0.0], |_| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn duplicate_rectangles_are_distinct_entries() {
        let mut tree = RStarTree::new();
        let r = Rect::new(&[0.0], &[1.0]);
        tree.insert(r, "a");
        tree.insert(r, "b");
        let mut hits = Vec::new();
        tree.query_point(&[0.5], |v| hits.push(*v));
        hits.sort();
        assert_eq!(hits, vec!["a", "b"]);
        assert!(tree.remove(&r, &"a"));
        hits.clear();
        tree.query_point(&[0.5], |v| hits.push(*v));
        assert_eq!(hits, vec!["b"]);
    }

    #[test]
    #[should_panic(expected = "mixed dimensionality")]
    fn mixed_dims_rejected() {
        let mut tree = RStarTree::new();
        tree.insert(Rect::point(&[1.0]), 0);
        tree.insert(Rect::point(&[1.0, 2.0]), 1);
    }

    #[test]
    fn approx_bytes_grows() {
        let mut tree = RStarTree::new();
        let before = tree.approx_bytes();
        for i in 0..1000 {
            tree.insert(Rect::point(&[i as f64]), i);
        }
        assert!(tree.approx_bytes() > before);
    }

    #[test]
    fn high_dim_rects() {
        let mut state = 3u64;
        let mut tree = RStarTree::with_max_entries(16);
        let mut naive = NaiveRectIndex::new();
        for i in 0..200u32 {
            let r = random_rect(&mut state, 7);
            tree.insert(r, i);
            naive.insert(r, i);
        }
        tree.check_invariants();
        for _ in 0..50 {
            let p: Vec<f64> = (0..7).map(|_| prng(&mut state)).collect();
            let mut a = Vec::new();
            let mut b = Vec::new();
            tree.query_point(&p, |v| a.push(*v));
            naive.query_point(&p, |v| b.push(*v));
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }
}
