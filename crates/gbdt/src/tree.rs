//! Regression trees on gradient/hessian pairs (the XGBoost tree booster).

use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
mod reference;

/// How candidate split thresholds are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SplitMode {
    /// Consider every boundary between distinct values of each feature —
    /// optimal. Built on presorted column blocks (XGBoost's exact greedy
    /// layout): one `O(n log n)` rank sort per feature per fit, one
    /// `O(m + K)` counting sort per feature per round (`m` sampled rows, `K`
    /// distinct values), then `O(m)` per feature per tree level — a linear
    /// scan and a stable partition, with no sorting at any node. The right
    /// choice for CQC-sized data.
    #[default]
    Exact,
    /// Bucket each feature into equal-width bins over the node's value range
    /// and consider only bin edges — `O(n)` per feature per node, the
    /// standard approximation for larger datasets (LightGBM/XGBoost `hist`).
    /// Bins fill in node-row order over the same node segments as exact
    /// mode, without the column blocks.
    Histogram {
        /// Number of buckets per feature (at least 2).
        bins: usize,
    },
}

/// Parameters a single tree needs from the boosting configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeParams {
    pub max_depth: usize,
    pub lambda: f64,
    pub gamma: f64,
    pub min_child_weight: f64,
    pub split_mode: SplitMode,
}

/// One node in the wire layout, field by field: the reference codec that
/// `RegressionTree`'s one-record-per-node codec reproduces byte for byte.
/// In tests it is also the pointer-walk tree that the packed table is
/// checked against. Outside tests nothing builds one: its codec stays as
/// the wire format's reference (and the schema lock's `Node` entry).
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Gain of this split (used for feature importance).
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// One record of a [`RegressionTree`]'s packed node table (32 bytes).
///
/// A split sends a row to `left` when `row[feature] < value` and to `right`
/// otherwise. A leaf loops on itself (`left == right ==` its own index), so
/// a walk that has reached it may keep stepping without moving; its
/// `feature` is 0.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    /// A split's threshold, or a leaf's weight.
    value: f64,
    /// A split's gain. A leaf's is `+inf`, which no split's is (fitted
    /// gains are positive and finite, decoded ones must be finite), so a
    /// record tells whether it is a leaf without knowing its index.
    gain: f64,
    feature: u32,
    left: u32,
    right: u32,
    /// Edges on the longest path from the root to this node. Children sit
    /// at higher indices than their parents, so one pass in index order
    /// settles every level: each node stamps `level + 1` into its children.
    level: u32,
}

const _: () = assert!(std::mem::size_of::<PackedNode>() == 32);

/// Narrows a node index to the packed table's `u32`.
fn node_index(index: usize) -> u32 {
    u32::try_from(index).expect("invariant: a tree has fewer than 2^32 nodes")
}

impl PackedNode {
    /// Leaf number `index` at `level`.
    fn leaf(index: u32, weight: f64, level: u32) -> Self {
        Self {
            value: weight,
            gain: f64::INFINITY,
            feature: 0,
            left: index,
            right: index,
            level,
        }
    }

    fn is_leaf(&self) -> bool {
        self.gain == f64::INFINITY
    }

    /// The index one step from this node takes `row` to.
    #[inline(always)]
    fn next(&self, row: &[f64]) -> u32 {
        if row[self.feature as usize] < self.value {
            self.left
        } else {
            self.right
        }
    }
}

/// A depth-limited regression tree fit to `(gradient, hessian)` targets with
/// XGBoost-style structure scores.
///
/// Leaf weight: `-G / (H + lambda)`. Split gain:
/// `1/2 [ G_L^2/(H_L+λ) + G_R^2/(H_R+λ) - G^2/(H+λ) ] - γ`.
/// Splits are taken only when the gain is positive and both children carry
/// at least `min_child_weight` hessian mass.
///
/// In memory the tree is one packed node table in pre-order (the wire
/// order). Every leaf loops on itself, so walking exactly `depth` steps
/// from the root lands on the row's leaf whichever path it takes, with no
/// branch on node kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<PackedNode>,
    /// The largest node level: the number of steps `predict` walks.
    depth: u32,
    /// How many features `predict` reads: one past the largest feature
    /// index a split tests (0 for a lone leaf). Derived from `nodes` when
    /// the tree is built or decoded, so a decoded model checks its arity
    /// without walking every node a second time.
    features_used: usize,
}

/// Running best split of one node and the node totals its gains need.
struct SplitSearch<'p> {
    params: &'p TreeParams,
    g_sum: f64,
    h_sum: f64,
    parent_score: f64,
    /// `(feature, threshold, gain)` of the first maximum-gain candidate.
    best: Option<(usize, f64, f64)>,
}

impl SplitSearch<'_> {
    /// Scores the candidate whose left child carries `(gl, hl)`; keeps it if
    /// it beats every earlier candidate strictly.
    fn consider(&mut self, f: usize, threshold: f64, gl: f64, hl: f64) {
        let params = self.params;
        let gr = self.g_sum - gl;
        let hr = self.h_sum - hl;
        if hl < params.min_child_weight || hr < params.min_child_weight {
            return;
        }
        let gain = 0.5
            * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda) - self.parent_score)
            - params.gamma;
        if gain > 0.0 && self.best.is_none_or(|(_, _, bg)| gain > bg) {
            self.best = Some((f, threshold, gain));
        }
    }
}

/// One sampled row in a presorted column block: its value rank on the
/// block's feature and its row id. The row's gradient pair is read through
/// the id; the per-row arrays stay in cache, and an 8-byte entry keeps the
/// partitions, which move every entry at every level, cheap.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    rank: u32,
    row: u32,
}

/// Builds the trees of one boosting fit over a presorted column-block
/// layout (XGBoost's exact greedy layout, Chen & Guestrin, KDD'16 §4.1).
///
/// * **Per fit** ([`TreeBuilder::new`]): a column-major copy of the rows and,
///   in exact mode, a dense rank per value (`==` values, `-0.0` and `0.0`
///   included, share a rank).
/// * **Per round** ([`TreeBuilder::begin_round`]): the shuffled subsample,
///   counting-sorted by rank for every feature — stable, so ties keep their
///   subsample order. The round's class trees share these lists.
/// * **Per tree** ([`TreeBuilder::fit`]): a copy of the sorted list of each
///   candidate column (its column block) and the node-order list of the
///   subsample. A node owns the segment `[s, e)` of each; a split stably
///   partitions the segments, so each child's blocks stay sorted and its
///   node order stays the subsample order.
///
/// Segments ping-pong between two buffers: a node at depth `d` reads buffer
/// `d % 2` and writes its children's segments into the other. Every buffer
/// is sized once per fit and reused by every round and tree.
#[derive(Debug)]
pub(crate) struct TreeBuilder {
    n: usize,
    params: TreeParams,
    /// Column-major feature values: `values[f * n + row]`.
    values: Vec<f64>,
    /// Exact mode: dense value ranks, `ranks[f * n + row]`.
    ranks: Vec<u32>,
    /// Exact mode: the number of distinct values of each feature.
    distinct: Vec<usize>,
    /// The round's subsample, in its shuffled order.
    sample: Vec<u32>,
    /// Exact mode: per feature, the subsample sorted by (rank, subsample
    /// position): `sorted[f * m + i]` for `m = sample.len()`.
    sorted: Vec<Entry>,
    /// The tree's node-order lists (rows in subsample order).
    order: [Vec<u32>; 2],
    /// Exact mode: the tree's column blocks, candidate `j` at
    /// `[j * m, (j + 1) * m)`, where a node owns `[j * m + s, j * m + e)`.
    blocks: [Vec<Entry>; 2],
    /// Whether each row of the node being split goes left, by row.
    goes_left: Vec<bool>,
    /// The weight of the leaf each subsample row ended in, by row.
    leaf_weights: Vec<f64>,
    counts: Vec<usize>,
    g_bins: Vec<f64>,
    h_bins: Vec<f64>,
}

impl TreeBuilder {
    /// Lays out `rows` (non-empty, rectangular, finite) for building trees
    /// with `params`.
    pub(crate) fn new(rows: &[Vec<f64>], params: TreeParams) -> Self {
        let n = rows.len();
        assert!(u32::try_from(n).is_ok(), "row ids must fit in u32");
        let features = rows.first().map_or(0, Vec::len);
        assert!(u32::try_from(features).is_ok(), "features must fit in u32");
        let mut values = Vec::with_capacity(features * n);
        for f in 0..features {
            values.extend(rows.iter().map(|row| row[f]));
        }
        let mut builder = Self {
            n,
            params,
            values,
            ranks: Vec::new(),
            distinct: Vec::new(),
            sample: Vec::with_capacity(n),
            sorted: Vec::new(),
            order: [vec![0; n], vec![0; n]],
            blocks: [Vec::new(), Vec::new()],
            goes_left: vec![false; n],
            leaf_weights: vec![0.0; n],
            counts: Vec::new(),
            g_bins: Vec::new(),
            h_bins: Vec::new(),
        };
        if params.split_mode == SplitMode::Exact {
            builder.rank_values(features);
        }
        builder
    }

    /// One `total_cmp` sort per feature, then dense ranks over `==` runs,
    /// so `-0.0` and `0.0` tie exactly as they do under `partial_cmp`.
    fn rank_values(&mut self, features: usize) {
        let n = self.n;
        self.ranks = vec![0; features * n];
        self.sorted = Vec::with_capacity(features * n);
        let mut by_value: Vec<u32> = (0..n as u32).collect();
        for f in 0..features {
            let column = &self.values[f * n..(f + 1) * n];
            by_value.sort_unstable_by(|&a, &b| column[a as usize].total_cmp(&column[b as usize]));
            let ranks = &mut self.ranks[f * n..(f + 1) * n];
            let mut rank = 0u32;
            let mut previous = column[by_value[0] as usize];
            for &row in &by_value {
                let v = column[row as usize];
                if v != previous {
                    rank += 1;
                    previous = v;
                }
                ranks[row as usize] = rank;
            }
            self.distinct.push(rank as usize + 1);
        }
    }

    /// Starts a boosting round on `sample`, the round's rows in subsample
    /// order.
    pub(crate) fn begin_round(&mut self, sample: &[u32]) {
        self.sample.clear();
        self.sample.extend_from_slice(sample);
        if self.params.split_mode != SplitMode::Exact {
            return;
        }
        let (n, m) = (self.n, sample.len());
        self.sorted.clear();
        for (f, &distinct) in self.distinct.iter().enumerate() {
            let ranks = &self.ranks[f * n..(f + 1) * n];
            self.counts.clear();
            self.counts.resize(distinct + 1, 0);
            for &row in sample {
                self.counts[ranks[row as usize] as usize + 1] += 1;
            }
            for k in 1..=distinct {
                self.counts[k] += self.counts[k - 1];
            }
            let start = self.sorted.len();
            self.sorted.resize(start + m, Entry::default());
            let out = &mut self.sorted[start..];
            for &row in sample {
                let rank = ranks[row as usize];
                let slot = &mut self.counts[rank as usize];
                out[*slot] = Entry { rank, row };
                *slot += 1;
            }
        }
    }

    /// Fits one tree on the round's subsample to `(grad, hess)` (indexed by
    /// row), splitting only on `columns` (column subsampling).
    ///
    /// Afterwards [`TreeBuilder::leaf_weights`] holds, for every subsample
    /// row, the weight `predict` returns for it.
    pub(crate) fn fit(&mut self, grad: &[f64], hess: &[f64], columns: &[usize]) -> RegressionTree {
        let m = self.sample.len();
        assert!(m > 0, "tree needs at least one row");
        self.order[0][..m].copy_from_slice(&self.sample);
        if self.params.split_mode == SplitMode::Exact {
            let [blocks, next] = &mut self.blocks;
            blocks.clear();
            for &f in columns {
                blocks.extend_from_slice(&self.sorted[f * m..(f + 1) * m]);
            }
            next.resize(blocks.len(), Entry::default());
        }
        let mut nodes = Vec::new();
        self.build(&mut nodes, grad, hess, columns, 0, m, 0);
        RegressionTree::from_packed(nodes)
    }

    /// The leaf weight of each subsample row in the last fitted tree, by
    /// row (entries of rows outside the subsample are stale).
    pub(crate) fn leaf_weights(&self) -> &[f64] {
        &self.leaf_weights
    }

    /// Builds the subtree over the segment `[s, e)` at `depth` depth first,
    /// numbering nodes in pre-order and stamping each with its depth as its
    /// level; returns its node index.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        nodes: &mut Vec<PackedNode>,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        s: usize,
        e: usize,
        depth: usize,
    ) -> usize {
        let params = self.params;
        let side = depth % 2;
        // Node totals in node-row order, as the recursive builder summed.
        let node_rows = &self.order[side][s..e];
        let g_sum: f64 = node_rows.iter().map(|&r| grad[r as usize]).sum();
        let h_sum: f64 = node_rows.iter().map(|&r| hess[r as usize]).sum();

        let level = node_index(depth);
        let make_leaf = |builder: &mut Self, nodes: &mut Vec<PackedNode>| {
            let weight = -g_sum / (h_sum + params.lambda);
            for &r in &builder.order[side][s..e] {
                builder.leaf_weights[r as usize] = weight;
            }
            let index = nodes.len();
            nodes.push(PackedNode::leaf(node_index(index), weight, level));
            index
        };

        if depth >= params.max_depth || e - s < 2 {
            return make_leaf(self, nodes);
        }

        let mut search = SplitSearch {
            params: &params,
            g_sum,
            h_sum,
            parent_score: g_sum * g_sum / (h_sum + params.lambda),
            best: None,
        };
        for (j, &f) in columns.iter().enumerate() {
            match params.split_mode {
                SplitMode::Exact => self.scan_exact(&mut search, grad, hess, side, j, f, s, e),
                SplitMode::Histogram { bins } => {
                    self.scan_histogram(&mut search, grad, hess, bins, side, f, s, e);
                }
            }
        }

        let Some((feature, threshold, gain)) = search.best else {
            return make_leaf(self, nodes);
        };

        // The same `<` test as `predict`, so every subsample row lands in the
        // leaf `predict` would route it to.
        let column = &self.values[feature * self.n..(feature + 1) * self.n];
        let mut left_rows = 0;
        for &r in &self.order[side][s..e] {
            let left = column[r as usize] < threshold;
            self.goes_left[r as usize] = left;
            left_rows += usize::from(left);
        }
        if left_rows == 0 || left_rows == e - s {
            // Possible under histogram splitting when a bin edge separates
            // no samples (e.g. empty leading bins), and when an exact
            // midpoint rounds onto the lower value: fall back to a leaf.
            return make_leaf(self, nodes);
        }
        let goes_left = &self.goes_left;
        let [order_a, order_b] = &mut self.order;
        let (from, to) = if side == 0 {
            (order_a, order_b)
        } else {
            (order_b, order_a)
        };
        stable_split(&from[s..e], &mut to[s..e], left_rows, |&r| {
            goes_left[r as usize]
        });
        // Children at the depth limit become leaves without scanning, so
        // only their node order is needed.
        if params.split_mode == SplitMode::Exact && depth + 1 < params.max_depth {
            let m = self.sample.len();
            let [blocks_a, blocks_b] = &mut self.blocks;
            let (from, to) = if side == 0 {
                (blocks_a, blocks_b)
            } else {
                (blocks_b, blocks_a)
            };
            for j in 0..columns.len() {
                let segment = j * m + s..j * m + e;
                stable_split(
                    &from[segment.clone()],
                    &mut to[segment],
                    left_rows,
                    |entry| goes_left[entry.row as usize],
                );
            }
        }

        // Reserve this node's slot before recursing so child indices are
        // stable.
        let index = nodes.len();
        nodes.push(PackedNode::leaf(node_index(index), 0.0, level));
        let mid = s + left_rows;
        let left = self.build(nodes, grad, hess, columns, s, mid, depth + 1);
        let right = self.build(nodes, grad, hess, columns, mid, e, depth + 1);
        nodes[index] = PackedNode {
            value: threshold,
            gain,
            feature: u32::try_from(feature).expect("invariant: features fit in u32"),
            left: node_index(left),
            right: node_index(right),
            level,
        };
        index
    }

    /// Exact candidates of column block `j` (feature `f`) over `[s, e)`: a
    /// boundary between every two adjacent distinct values, left sums
    /// accumulated one row at a time in sorted order.
    #[allow(clippy::too_many_arguments)]
    fn scan_exact(
        &self,
        search: &mut SplitSearch<'_>,
        grad: &[f64],
        hess: &[f64],
        side: usize,
        j: usize,
        f: usize,
        s: usize,
        e: usize,
    ) {
        let m = self.sample.len();
        let block = &self.blocks[side][j * m + s..j * m + e];
        let last_rank = block[block.len() - 1].rank;
        if block[0].rank == last_rank {
            return; // constant feature at this node
        }
        let column = &self.values[f * self.n..(f + 1) * self.n];
        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in block.windows(2) {
            gl += grad[w[0].row as usize];
            hl += hess[w[0].row as usize];
            if w[0].rank == w[1].rank {
                continue; // cannot split between equal values
            }
            let (va, vb) = (column[w[0].row as usize], column[w[1].row as usize]);
            search.consider(f, 0.5 * (va + vb), gl, hl);
            if w[1].rank == last_rank {
                break; // no boundary left, so no later sum is ever read
            }
        }
    }

    /// Histogram candidates of feature `f` over `[s, e)`: equal-width bins
    /// over the node's value range, filled in node-row order.
    #[allow(clippy::too_many_arguments)]
    fn scan_histogram(
        &mut self,
        search: &mut SplitSearch<'_>,
        grad: &[f64],
        hess: &[f64],
        bins: usize,
        side: usize,
        f: usize,
        s: usize,
        e: usize,
    ) {
        let bins = bins.max(2);
        let column = &self.values[f * self.n..(f + 1) * self.n];
        let node_rows = &self.order[side][s..e];
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &r in node_rows {
            lo = lo.min(column[r as usize]);
            hi = hi.max(column[r as usize]);
        }
        if (hi - lo).abs() < f64::EPSILON {
            return; // constant feature at this node
        }
        let width = (hi - lo) / bins as f64;
        self.g_bins.clear();
        self.g_bins.resize(bins, 0.0);
        self.h_bins.clear();
        self.h_bins.resize(bins, 0.0);
        for &r in node_rows {
            let r = r as usize;
            let b = (((column[r] - lo) / width) as usize).min(bins - 1);
            self.g_bins[b] += grad[r];
            self.h_bins[b] += hess[r];
        }
        let mut gl = 0.0;
        let mut hl = 0.0;
        for b in 0..bins - 1 {
            gl += self.g_bins[b];
            hl += self.h_bins[b];
            let threshold = lo + width * (b + 1) as f64;
            search.consider(f, threshold, gl, hl);
        }
    }
}

/// Stably splits `from` into `to`: the `left` items that go left first,
/// then the rest, each side in its original order. One store per item, at
/// a slot chosen without branching on the predicate.
fn stable_split<T: Copy>(from: &[T], to: &mut [T], left: usize, goes_left: impl Fn(&T) -> bool) {
    let (mut l, mut r) = (0, left);
    for &item in from {
        let is_left = goes_left(&item);
        to[if is_left { l } else { r }] = item;
        l += usize::from(is_left);
        r += usize::from(!is_left);
    }
}

impl RegressionTree {
    /// The tree's raw prediction for one feature row: `depth` branch-free
    /// steps from the root. A lone leaf never reads the row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than a feature index used by the tree.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        for _ in 0..self.depth {
            idx = self.nodes[idx].next(row) as usize;
        }
        self.nodes[idx].value
    }

    /// The leaf weights of `N` trees for one row, walked side by side: one
    /// step of every tree per level, for the deepest tree's depth (a tree
    /// that reaches its leaf sooner loops on it), so the `N` chains of
    /// dependent loads overlap. Equal to `N` calls of
    /// [`RegressionTree::predict`], bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than a feature index used by a tree, or
    /// is empty while some tree has a split.
    #[inline]
    pub(crate) fn predict_lanes<const N: usize>(trees: [&Self; N], row: &[f64]) -> [f64; N] {
        let depth = trees.iter().map(|tree| tree.depth).max().unwrap_or(0);
        let mut idx = [0u32; N];
        for _ in 0..depth {
            for (i, tree) in idx.iter_mut().zip(&trees) {
                *i = tree.nodes[*i as usize].next(row);
            }
        }
        std::array::from_fn(|k| trees[k].nodes[idx[k] as usize].value)
    }

    /// Total number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|node| node.is_leaf()).count()
    }

    /// Wraps a packed table whose levels are already stamped.
    fn from_packed(nodes: Vec<PackedNode>) -> Self {
        let depth = nodes.iter().map(|node| node.level).max().unwrap_or(0);
        let features_used = nodes
            .iter()
            .filter(|node| !node.is_leaf())
            .map(|node| node.feature as usize + 1)
            .max()
            .unwrap_or(0);
        Self {
            nodes,
            depth,
            features_used,
        }
    }

    /// How many features a row needs for [`RegressionTree::predict`]: one
    /// past the largest feature index a split tests (0 for a lone leaf).
    pub(crate) fn features_used(&self) -> usize {
        self.features_used
    }

    /// Accumulates each split's gain into `importance[feature]`.
    pub(crate) fn accumulate_importance(&self, importance: &mut [f64]) {
        for node in &self.nodes {
            if !node.is_leaf() {
                importance[node.feature as usize] += node.gain;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs (`serde::binary`).

impl Encode for SplitMode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SplitMode::Exact => 0u8.encode(out),
            SplitMode::Histogram { bins } => {
                1u8.encode(out);
                bins.encode(out);
            }
        }
    }
}

impl Decode for SplitMode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(SplitMode::Exact),
            1 => Ok(SplitMode::Histogram {
                bins: usize::decode(r)?,
            }),
            _ => Err(DecodeError::Invalid),
        }
    }
}

/// The reference node layout, field by field. `RegressionTree`'s codec
/// writes and reads the same bytes one record per node; a proptest holds
/// it to this codec.
impl Encode for Node {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Node::Leaf { weight } => {
                0u8.encode(out);
                weight.encode(out);
            }
            Node::Split {
                feature,
                threshold,
                gain,
                left,
                right,
            } => {
                1u8.encode(out);
                feature.encode(out);
                threshold.encode(out);
                gain.encode(out);
                left.encode(out);
                right.encode(out);
            }
        }
    }
}

impl Decode for Node {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Node::Leaf {
                weight: f64::decode(r)?,
            }),
            1 => Ok(Node::Split {
                feature: usize::decode(r)?,
                threshold: f64::decode(r)?,
                gain: f64::decode(r)?,
                left: usize::decode(r)?,
                right: usize::decode(r)?,
            }),
            _ => Err(DecodeError::Invalid),
        }
    }
}

/// Wire size of a leaf node: tag 0, then the weight.
const LEAF_BYTES: usize = 1 + 8;
/// Wire size of a split node: tag 1, then feature, threshold, gain, left
/// and right, eight bytes each.
const SPLIT_BYTES: usize = 1 + 5 * 8;

/// The `i`-th little-endian 8-byte field after a node record's tag.
#[inline]
fn record_field<const N: usize>(record: &[u8; N], i: usize) -> u64 {
    let mut field = [0u8; 8];
    field.copy_from_slice(&record[1 + 8 * i..9 + 8 * i]);
    u64::from_le_bytes(field)
}

/// Writes one 8-byte field after a node record's tag.
#[inline]
fn set_record_field<const N: usize>(record: &mut [u8; N], i: usize, value: u64) {
    record[1 + 8 * i..9 + 8 * i].copy_from_slice(&value.to_le_bytes());
}

impl PackedNode {
    /// Appends this node's wire record: `Node`'s codec for the same node.
    #[inline]
    fn write_record(&self, out: &mut Vec<u8>) {
        if self.is_leaf() {
            let mut record = [0u8; LEAF_BYTES];
            set_record_field(&mut record, 0, self.value.to_bits());
            out.extend_from_slice(&record);
        } else {
            let mut record = [0u8; SPLIT_BYTES];
            record[0] = 1;
            set_record_field(&mut record, 0, u64::from(self.feature));
            set_record_field(&mut record, 1, self.value.to_bits());
            set_record_field(&mut record, 2, self.gain.to_bits());
            set_record_field(&mut record, 3, u64::from(self.left));
            set_record_field(&mut record, 4, u64::from(self.right));
            out.extend_from_slice(&record);
        }
    }
}

impl Encode for RegressionTree {
    /// The bytes of `Vec<Node>`'s codec for the same nodes, each node
    /// written as one record.
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.len().encode(out);
        for node in &self.nodes {
            node.write_record(out);
        }
    }
}

impl Decode for RegressionTree {
    /// Returns exactly what `Vec::<Node>::decode` followed by the checks
    /// below and the packing would (pinned by a proptest), reading each node
    /// with a single bounds check. (On a 32-bit target, a truncated split
    /// whose index overflows `usize` reports `Truncated` where the
    /// field-by-field decode reports `Invalid`.)
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        // `build` reserves a parent's slot before recursing, so children
        // always carry strictly larger indices; enforcing that here makes
        // every level final once its node is reached and `predict`'s walk
        // provably lands on a leaf. Fitted trees only hold finite numbers,
        // and a non-finite leaf weight would poison every score that
        // reaches it. The checks run as the nodes are read, but their
        // verdict waits until every node has decoded, so a truncated tree
        // reports `Truncated` whatever its early nodes hold. A `len` that
        // fits `u32` makes every node index fit the table, and a feature
        // must fit the record's `u32`, so every accepted tree re-encodes to
        // its wire bytes.
        let mut valid = len > 0 && u32::try_from(len).is_ok();
        // `depth` and `features_used` are taken in the same pass: the
        // deepest node is a leaf (a split's children sit deeper), and a
        // tree with a split has a leaf below level 0 (the last split's
        // children are leaves).
        let mut depth = 0;
        let mut max_feature = 0;
        // Every record takes at least `LEAF_BYTES`, so node `idx` is only
        // read once `(idx + 1) * LEAF_BYTES` bytes were there: the table
        // never needs to grow, and a parent can stamp its children's level
        // into their slots before they are read.
        let mut nodes = vec![PackedNode::leaf(0, 0.0, 0); len.min(r.remaining() / LEAF_BYTES)];
        let mut own = 0u32;
        for idx in 0..len {
            let level = nodes.get(idx).map_or(0, |slot| slot.level);
            let node = match r.peek() {
                Some(0) => {
                    let record = r.take_array::<LEAF_BYTES>()?;
                    let weight = f64::from_bits(record_field(record, 0));
                    valid &= weight.is_finite();
                    depth = depth.max(level);
                    PackedNode::leaf(own, weight, level)
                }
                Some(1) => {
                    let record = r.take_array::<SPLIT_BYTES>()?;
                    let index = |i| {
                        usize::try_from(record_field(record, i)).map_err(|_| DecodeError::Invalid)
                    };
                    let feature = index(0)?;
                    let narrow_feature = u32::try_from(feature);
                    let threshold = f64::from_bits(record_field(record, 1));
                    let gain = f64::from_bits(record_field(record, 2));
                    let left = index(3)?;
                    let right = index(4)?;
                    max_feature = max_feature.max(feature);
                    // `child - (idx + 1) < len - (idx + 1)` is
                    // `idx < child < len`, one compare per child.
                    let later = len - idx - 1;
                    valid &= narrow_feature.is_ok()
                        & threshold.is_finite()
                        & gain.is_finite()
                        & (left.wrapping_sub(idx + 1) < later)
                        & (right.wrapping_sub(idx + 1) < later);
                    for child in [left, right] {
                        if let Some(slot) = nodes.get_mut(child) {
                            slot.level = slot.level.max(level.saturating_add(1));
                        }
                    }
                    PackedNode {
                        value: threshold,
                        gain,
                        feature: narrow_feature.unwrap_or(0),
                        left: u32::try_from(left).unwrap_or(0),
                        right: u32::try_from(right).unwrap_or(0),
                        level,
                    }
                }
                Some(_) => return Err(DecodeError::Invalid),
                None => return Err(DecodeError::Truncated),
            };
            nodes[idx] = node;
            own = own.wrapping_add(1);
        }
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            nodes,
            depth,
            features_used: if depth > 0 {
                max_feature.saturating_add(1)
            } else {
                0
            },
        })
    }
}

#[cfg(test)]
impl RegressionTree {
    /// Packs a wire-layout node list exactly as `decode` packs its records
    /// (levels stamped parent to child in index order, `features_used` from
    /// the split features). The children of every split must lie in the
    /// list, and every feature must fit `u32`.
    fn from_nodes(nodes: Vec<Node>) -> Self {
        let mut packed: Vec<PackedNode> = Vec::with_capacity(nodes.len());
        let mut levels = vec![0u32; nodes.len()];
        let mut features_used = 0;
        for (idx, node) in nodes.iter().enumerate() {
            let level = levels[idx];
            packed.push(match *node {
                Node::Leaf { weight } => PackedNode::leaf(node_index(idx), weight, level),
                Node::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                } => {
                    features_used = features_used.max(feature + 1);
                    for child in [left, right] {
                        levels[child] = levels[child].max(level + 1);
                    }
                    PackedNode {
                        value: threshold,
                        gain,
                        feature: u32::try_from(feature).expect("feature fits u32"),
                        left: node_index(left),
                        right: node_index(right),
                        level,
                    }
                }
            });
        }
        Self {
            depth: levels.iter().copied().max().unwrap_or(0),
            nodes: packed,
            features_used,
        }
    }

    /// The wire-layout node list this tree's table stands for: the inverse
    /// of [`RegressionTree::from_nodes`], written without the record codec
    /// so that `Node`'s field-by-field codec can check it.
    fn to_nodes(&self) -> Vec<Node> {
        self.nodes
            .iter()
            .map(|node| {
                if node.is_leaf() {
                    Node::Leaf { weight: node.value }
                } else {
                    Node::Split {
                        feature: node.feature as usize,
                        threshold: node.value,
                        gain: node.gain,
                        left: node.left as usize,
                        right: node.right as usize,
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PARAMS: TreeParams = TreeParams {
        max_depth: 4,
        lambda: 1.0,
        gamma: 0.0,
        min_child_weight: 1e-6,
        split_mode: SplitMode::Exact,
    };

    /// Fits one tree on every row with the column-block builder, checking
    /// it bit for bit against the reference builder.
    fn fit_all_rows(
        features: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        params: &TreeParams,
    ) -> RegressionTree {
        let mut builder = TreeBuilder::new(features, *params);
        let sample: Vec<u32> = (0..features.len() as u32).collect();
        builder.begin_round(&sample);
        let tree = builder.fit(grad, hess, columns);
        let rows: Vec<usize> = (0..features.len()).collect();
        let reference = RegressionTree::fit_reference(features, grad, hess, &rows, columns, params);
        assert_eq!(tree.to_bytes(), reference.to_bytes());
        for (r, row) in features.iter().enumerate() {
            assert_eq!(
                builder.leaf_weights()[r].to_bits(),
                tree.predict(row).to_bits()
            );
        }
        tree
    }

    /// Squared-error fitting reduces to grad = pred - target with hess = 1
    /// when starting from a zero prediction: grad = -target.
    fn fit_regression(
        features: &[Vec<f64>],
        targets: &[f64],
        params: &TreeParams,
    ) -> RegressionTree {
        let grad: Vec<f64> = targets.iter().map(|t| -t).collect();
        let hess = vec![1.0; targets.len()];
        let cols: Vec<usize> = (0..features[0].len()).collect();
        fit_all_rows(features, &grad, &hess, &cols, params)
    }

    #[test]
    fn fits_a_step_function() {
        let features: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| if i < 5 { -1.0 } else { 1.0 }).collect();
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert!(tree.predict(&[2.0]) < 0.0);
        assert!(tree.predict(&[8.0]) > 0.0);
    }

    #[test]
    fn constant_targets_produce_single_leaf() {
        let features: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let targets = vec![2.0; 6];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert_eq!(tree.leaf_count(), 1);
        // Leaf weight shrunk by lambda: -(-12)/(6+1).
        assert!((tree.predict(&[3.0]) - 12.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_a_stump_root() {
        let features: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let targets = vec![-1.0, -1.0, 1.0, 1.0];
        let params = TreeParams {
            max_depth: 0,
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &params);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let features: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        // Almost-constant targets: the best split's gain is tiny.
        let targets = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05];
        let strict = TreeParams {
            gamma: 10.0,
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &strict);
        assert_eq!(tree.leaf_count(), 1, "high gamma must prune everything");
    }

    #[test]
    fn pure_xor_defeats_a_single_greedy_tree() {
        // Known property of greedy gain splitting: on perfectly balanced XOR
        // every first-level split has exactly zero gain, so the tree cannot
        // grow. (The *boosted* model handles noisy XOR — see the model
        // tests — because subsampling and residual fitting break the tie.)
        let features = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let targets = vec![-1.0, 1.0, 1.0, -1.0];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn xor_with_a_tilt_splits_to_depth_two() {
        // Break the gain tie with a slight class imbalance and the greedy
        // tree recovers the XOR structure.
        let features = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.9],
        ];
        let targets = vec![-1.0, 1.0, 1.0, -1.0, 1.0];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert!(tree.predict(&[0.0, 0.0]) < 0.0);
        assert!(tree.predict(&[0.0, 1.0]) > 0.0);
        assert!(tree.predict(&[1.0, 0.0]) > 0.0);
        assert!(tree.predict(&[1.0, 1.0]) < 0.0);
    }

    #[test]
    fn tied_feature_values_never_split_apart() {
        let features = vec![vec![1.0], vec![1.0], vec![1.0]];
        let targets = vec![-1.0, 0.0, 1.0];
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert_eq!(tree.leaf_count(), 1, "identical features cannot be split");
    }

    #[test]
    fn column_restriction_is_respected() {
        // Feature 0 is perfectly informative, feature 1 is noise; restrict
        // to feature 1 and verify feature 0 is never used.
        let features = vec![
            vec![0.0, 0.3],
            vec![0.0, 0.9],
            vec![1.0, 0.1],
            vec![1.0, 0.8],
        ];
        let grad = vec![1.0, 1.0, -1.0, -1.0];
        let hess = vec![1.0; 4];
        let tree = fit_all_rows(&features, &grad, &hess, &[1], &PARAMS);
        let mut importance = vec![0.0; 2];
        tree.accumulate_importance(&mut importance);
        assert_eq!(importance[0], 0.0, "feature 0 was excluded");
    }

    #[test]
    fn histogram_splitting_matches_exact_on_a_step_function() {
        let features: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..40).map(|i| if i < 20 { -1.0 } else { 1.0 }).collect();
        let hist_params = TreeParams {
            split_mode: SplitMode::Histogram { bins: 8 },
            ..PARAMS
        };
        let exact = fit_regression(&features, &targets, &PARAMS);
        let hist = fit_regression(&features, &targets, &hist_params);
        for x in [3.0, 12.0, 27.0, 38.0] {
            assert_eq!(
                exact.predict(&[x]).signum(),
                hist.predict(&[x]).signum(),
                "disagreement at {x}"
            );
        }
    }

    #[test]
    fn histogram_with_few_bins_still_produces_a_valid_tree() {
        let features: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 7) as f64, i as f64]).collect();
        let targets: Vec<f64> = (0..30)
            .map(|i| if i % 7 < 3 { -1.0 } else { 1.0 })
            .collect();
        let params = TreeParams {
            split_mode: SplitMode::Histogram { bins: 2 },
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &params);
        assert!(tree.leaf_count() >= 1);
        assert!(tree.predict(&[1.0, 0.0]).is_finite());
    }

    #[test]
    fn histogram_handles_constant_features() {
        let features = vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]];
        let targets = vec![-1.0, 1.0, -1.0, 1.0];
        let params = TreeParams {
            split_mode: SplitMode::Histogram { bins: 16 },
            ..PARAMS
        };
        let tree = fit_regression(&features, &targets, &params);
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn importance_prefers_the_informative_feature() {
        let features: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i % 3) as f64 * 0.01])
            .collect();
        let targets: Vec<f64> = (0..20).map(|i| if i < 10 { -1.0 } else { 1.0 }).collect();
        let tree = fit_regression(&features, &targets, &PARAMS);
        let mut importance = vec![0.0; 2];
        tree.accumulate_importance(&mut importance);
        assert!(importance[0] > importance[1]);
    }

    /// Today's field-by-field decode: the generic `Vec<Node>` codec, then
    /// the structural checks as a second pass.
    fn reference_decode(r: &mut Reader<'_>) -> Result<RegressionTree, DecodeError> {
        let nodes = Vec::<Node>::decode(r)?;
        if nodes.is_empty() {
            return Err(DecodeError::Invalid);
        }
        for (idx, node) in nodes.iter().enumerate() {
            let valid = match *node {
                Node::Leaf { weight } => weight.is_finite(),
                Node::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                } => {
                    u32::try_from(feature).is_ok()
                        && threshold.is_finite()
                        && gain.is_finite()
                        && left > idx
                        && right > idx
                        && left < nodes.len()
                        && right < nodes.len()
                }
            };
            if !valid {
                return Err(DecodeError::Invalid);
            }
        }
        Ok(RegressionTree::from_nodes(nodes))
    }

    /// A float that is usually finite and sometimes NaN or infinite.
    fn wire_float(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..12u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => rng.gen_range(-4.0..4.0),
        }
    }

    /// A child index that is usually valid for node `idx` of `len`.
    fn wire_child(rng: &mut StdRng, idx: usize, len: usize) -> usize {
        match rng.gen_range(0..10u32) {
            0 => rng.gen_range(0..idx + 1),
            1 => len + rng.gen_range(0..3usize),
            2 => usize::MAX,
            _ if idx + 1 < len => rng.gen_range(idx + 1..len),
            _ => len,
        }
    }

    /// A node list that is often a valid tree, encoded by `Node`'s codec.
    fn random_tree_bytes(rng: &mut StdRng) -> Vec<u8> {
        let len = rng.gen_range(0..24usize);
        let nodes: Vec<Node> = (0..len)
            .map(|idx| {
                if rng.gen_bool(0.5) {
                    Node::Leaf {
                        weight: wire_float(rng),
                    }
                } else {
                    Node::Split {
                        feature: if rng.gen_bool(0.05) {
                            usize::MAX
                        } else {
                            rng.gen_range(0..12usize)
                        },
                        threshold: wire_float(rng),
                        gain: wire_float(rng),
                        left: wire_child(rng, idx, len),
                        right: wire_child(rng, idx, len),
                    }
                }
            })
            .collect();
        nodes.to_bytes()
    }

    /// Flips bits, rewrites bytes, truncates or extends the string.
    fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
        for _ in 0..rng.gen_range(0..4u32) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..4u32) {
                0 => bytes[at] = rng.gen_range(0..3u8),
                1 => bytes.truncate(at),
                2 => bytes.push(rng.gen_range(0..=255u8)),
                _ => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

        /// On random and mutated node strings the one-record-per-node loop
        /// returns exactly the reference's `Ok` tree or error and leaves the
        /// reader at the same place; every tree it accepts re-encodes to the
        /// bytes it was read from.
        #[test]
        fn node_loop_decode_matches_the_generic_codec(seed in 0u64..u64::MAX, mutated in 0u32..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = random_tree_bytes(&mut rng);
            if mutated > 0 {
                mutate(&mut rng, &mut bytes);
            }
            let mut fast = Reader::new(&bytes);
            let mut reference = Reader::new(&bytes);
            let decoded = RegressionTree::decode(&mut fast);
            proptest::prop_assert_eq!(&decoded, &reference_decode(&mut reference));
            if let Ok(tree) = decoded {
                proptest::prop_assert_eq!(fast.remaining(), reference.remaining());
                proptest::prop_assert_eq!(tree.to_bytes(), &bytes[..bytes.len() - fast.remaining()]);
            }
        }
    }

    /// A split's feature must fit the record's `u32`: the widest one
    /// re-encodes to its wire bytes, and one past it is rejected rather
    /// than narrowed.
    #[test]
    fn split_features_past_u32_are_rejected() {
        let tree_bytes = |feature: usize| {
            vec![
                Node::Split {
                    feature,
                    threshold: 0.5,
                    gain: 1.0,
                    left: 1,
                    right: 2,
                },
                Node::Leaf { weight: -1.0 },
                Node::Leaf { weight: 1.0 },
            ]
            .to_bytes()
        };
        let widest = tree_bytes(u32::MAX as usize);
        let tree = RegressionTree::from_bytes(&widest).expect("a u32 feature decodes");
        assert_eq!(tree.to_bytes(), widest);
        assert_eq!(tree.features_used(), u32::MAX as usize + 1);
        for feature in [u32::MAX as usize + 1, usize::MAX] {
            let bytes = tree_bytes(feature);
            assert_eq!(
                RegressionTree::from_bytes(&bytes),
                Err(DecodeError::Invalid)
            );
            assert_eq!(
                reference_decode(&mut Reader::new(&bytes)),
                Err(DecodeError::Invalid)
            );
        }
    }

    #[test]
    fn fitted_trees_encode_as_their_node_list() {
        let features: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let targets: Vec<f64> = (0..40).map(|i| ((i % 5) as f64) - 2.0).collect();
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert!(tree.node_count() > 3);
        let bytes = tree.to_bytes();
        assert_eq!(bytes, tree.to_nodes().to_bytes());
        assert_eq!(RegressionTree::from_bytes(&bytes), Ok(tree));
    }
}
