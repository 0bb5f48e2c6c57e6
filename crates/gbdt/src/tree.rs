//! Regression trees on gradient/hessian pairs (the XGBoost tree booster).

use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
mod reference;
#[cfg(test)]
use oracle::Node;

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

/// One record of a [`RegressionTree`]'s packed node table (32 bytes).
///
/// A split sends a row to `left` when `row[feature] < value` and to `right`
/// otherwise. The table is in pre-order, so a split's `left` is the next
/// index and its `right` follows the left subtree. A leaf loops on itself
/// (`left == right ==` its own index), so a walk that has reached it may
/// keep stepping without moving; its `feature` is 0.
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
    /// Edges on the path from the root to this node.
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

/// Wire size of a leaf record: tag 0, then the weight.
const LEAF_BYTES: usize = 1 + 8;
/// Wire size of a split record: tag 1, then the `u32` feature, the
/// threshold and the gain.
const SPLIT_BYTES: usize = 1 + 4 + 8 + 8;

/// The end of the decoder's chain of open splits. A tree has at most
/// `u32::MAX` nodes, so no node index is this.
const NO_SPLIT: u32 = u32::MAX;

/// The little-endian `f64` at `at` in a record.
#[inline]
fn f64_at<const N: usize>(record: &[u8; N], at: usize) -> f64 {
    let mut field = [0u8; 8];
    field.copy_from_slice(&record[at..at + 8]);
    f64::from_bits(u64::from_le_bytes(field))
}

impl PackedNode {
    /// Appends this node's wire record.
    #[inline]
    fn write_record(&self, out: &mut Vec<u8>) {
        if self.is_leaf() {
            let mut record = [0u8; LEAF_BYTES];
            record[1..].copy_from_slice(&self.value.to_bits().to_le_bytes());
            out.extend_from_slice(&record);
        } else {
            let mut record = [0u8; SPLIT_BYTES];
            record[0] = 1;
            record[1..5].copy_from_slice(&self.feature.to_le_bytes());
            record[5..13].copy_from_slice(&self.value.to_bits().to_le_bytes());
            record[13..].copy_from_slice(&self.gain.to_bits().to_le_bytes());
            out.extend_from_slice(&record);
        }
    }
}

impl Encode for RegressionTree {
    /// The node count, then one record per node in pre-order. No record
    /// carries a child index: a split's left child is the next record and
    /// its right child follows the left subtree.
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.len().encode(out);
        for node in &self.nodes {
            node.write_record(out);
        }
    }
}

impl Decode for RegressionTree {
    /// Rebuilds the packed table in one pass over the records, without
    /// recursion. The first fault in stream order decides the error: a
    /// count of 0 or past `u32::MAX`, an unknown tag or a non-finite number
    /// is `Invalid`, input that ends inside the tree is `Truncated`, and a
    /// count that is not exactly one whole tree (records left once the
    /// root closes, or a split still waiting when they run out) is
    /// `Invalid`. Every tree it accepts re-encodes to its wire bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        // A count of 0 never closes the root, so it ends as `Invalid` below.
        let records = u32::try_from(len).map_err(|_| DecodeError::Invalid)?;
        // Every record takes at least `LEAF_BYTES`, so a count the input
        // cannot hold reserves no more than the input could fill.
        let mut nodes = Vec::with_capacity(len.min(r.remaining() / LEAF_BYTES));
        // The splits whose left subtree is still open form a stack threaded
        // through their `right` slots: `open` is the innermost, each one's
        // `right` names the next one out, and a leaf pops one, whose right
        // child is the next record.
        let mut open = NO_SPLIT;
        let mut closed = false;
        let mut level = 0u32;
        let mut depth = 0u32;
        let mut max_feature = None;
        for own in 0..records {
            if closed {
                return Err(DecodeError::Invalid);
            }
            match r.peek() {
                Some(0) => {
                    let weight = f64_at(r.take_array::<LEAF_BYTES>()?, 1);
                    if !weight.is_finite() {
                        return Err(DecodeError::Invalid);
                    }
                    nodes.push(PackedNode::leaf(own, weight, level));
                    depth = depth.max(level);
                    // `NO_SPLIT` names no slot, since the table holds at
                    // most `u32::MAX` nodes.
                    let slot = usize::try_from(open).unwrap_or(usize::MAX);
                    if let Some(parent) = nodes.get_mut(slot) {
                        open = parent.right;
                        parent.right = own + 1;
                        level = parent.level + 1;
                    } else {
                        closed = true;
                    }
                }
                Some(1) => {
                    let record = r.take_array::<SPLIT_BYTES>()?;
                    let feature = u32::from_le_bytes([record[1], record[2], record[3], record[4]]);
                    let threshold = f64_at(record, 5);
                    let gain = f64_at(record, 13);
                    if !(threshold.is_finite() && gain.is_finite()) {
                        return Err(DecodeError::Invalid);
                    }
                    max_feature = max_feature.max(Some(feature));
                    nodes.push(PackedNode {
                        value: threshold,
                        gain,
                        feature,
                        left: own + 1,
                        right: open,
                        level,
                    });
                    open = own;
                    level += 1;
                }
                Some(_) => return Err(DecodeError::Invalid),
                None => return Err(DecodeError::Truncated),
            }
        }
        if !closed {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            nodes,
            depth,
            features_used: max_feature.map_or(0, |feature| {
                usize::try_from(feature).map_or(usize::MAX, |feature| feature + 1)
            }),
        })
    }
}

#[cfg(test)]
impl RegressionTree {
    /// Packs a pre-order `Node` list: levels stamped parent to child in
    /// index order, `features_used` from the split features. The children
    /// of every split must lie later in the list, and every feature must
    /// fit `u32`.
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
                        levels[child] = level + 1;
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

    /// The `Node` list this tree's table stands for: the inverse of
    /// [`RegressionTree::from_nodes`], written without the record codec so
    /// that `Node`'s field-by-field codec can check it.
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
    use super::oracle::{self, OracleTree};
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

    /// The recursive field-by-field reference decode, packed.
    fn reference_decode(r: &mut Reader<'_>) -> Result<RegressionTree, DecodeError> {
        oracle::read_nodes(r).map(RegressionTree::from_nodes)
    }

    /// NaN or an infinity.
    fn non_finite(rng: &mut StdRng) -> f64 {
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)]
    }

    /// A record string that is often one valid tree: a random tree in which
    /// one number may be non-finite and a split may test the widest
    /// feature, with sometimes a record dropped or added and sometimes a
    /// wrong count.
    fn random_tree_bytes(rng: &mut StdRng) -> Vec<u8> {
        let max_depth = rng.gen_range(0..6usize);
        let mut nodes = OracleTree::random(rng, max_depth, 12).nodes;
        let at = rng.gen_range(0..nodes.len());
        match &mut nodes[at] {
            Node::Leaf { weight } if rng.gen_bool(0.2) => *weight = non_finite(rng),
            Node::Split {
                feature,
                threshold,
                gain,
                ..
            } => match rng.gen_range(0..10u32) {
                0 => *threshold = non_finite(rng),
                1 => *gain = non_finite(rng),
                2 => *feature = u32::MAX as usize,
                _ => {}
            },
            Node::Leaf { .. } => {}
        }
        match rng.gen_range(0..8u32) {
            0 => drop(nodes.pop()),
            1 => nodes.push(Node::Leaf { weight: 0.5 }),
            _ => {}
        }
        let mut bytes = oracle::write_nodes(&nodes);
        let count = nodes.len() as u64;
        let count = match rng.gen_range(0..10u32) {
            0 => count + 1,
            1 => count.saturating_sub(1),
            2 => 0,
            3 => u64::from(u32::MAX) + 1,
            _ => count,
        };
        bytes[..8].copy_from_slice(&count.to_le_bytes());
        bytes
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

        /// On random and mutated record strings the one-pass stack decoder
        /// returns exactly the recursive reference's `Ok` tree or error and
        /// leaves the reader at the same place; every tree it accepts
        /// re-encodes to exactly the bytes it was read from.
        #[test]
        fn stack_decode_matches_the_recursive_reference(seed in 0u64..u64::MAX, mutated in 0u32..3) {
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

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(200))]

        /// A fitted tree's bytes are `Node`'s field-by-field bytes for its
        /// node list, and decode to a tree `==` the fitted one: the same
        /// table, levels and depth included.
        #[test]
        fn fitted_trees_decode_to_themselves(seed in 0u64..u64::MAX, max_depth in 0usize..7) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(2..60usize);
            let features: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..3).map(|_| f64::from(rng.gen_range(0..8u8))).collect())
                .collect();
            let targets: Vec<f64> = (0..rows).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let params = TreeParams { max_depth, ..PARAMS };
            let tree = fit_regression(&features, &targets, &params);
            let bytes = tree.to_bytes();
            proptest::prop_assert_eq!(&bytes, &oracle::write_nodes(&tree.to_nodes()));
            proptest::prop_assert_eq!(RegressionTree::from_bytes(&bytes), Ok(tree));
        }
    }

    fn leaf(weight: f64) -> Node {
        Node::Leaf { weight }
    }

    /// A split record (its children are implied by its place in the list).
    fn split(feature: usize, threshold: f64, gain: f64) -> Node {
        Node::Split {
            feature,
            threshold,
            gain,
            left: 0,
            right: 0,
        }
    }

    /// `nodes`' records behind a count prefix of `count`.
    fn with_count(count: u64, nodes: &[Node]) -> Vec<u8> {
        let mut bytes = oracle::write_nodes(nodes);
        bytes[..8].copy_from_slice(&count.to_le_bytes());
        bytes
    }

    /// Decodes one tree at the start of `bytes`, leaving any bytes after it.
    fn decode_prefix(bytes: &[u8]) -> Result<RegressionTree, DecodeError> {
        RegressionTree::decode(&mut Reader::new(bytes))
    }

    #[test]
    fn trailing_records_after_the_root_closes_are_rejected() {
        for nodes in [
            vec![leaf(1.0), leaf(2.0)],
            vec![split(0, 0.5, 1.0), leaf(1.0), leaf(2.0), leaf(3.0)],
            vec![split(0, 0.5, 1.0), leaf(1.0), leaf(2.0), split(0, 0.5, 1.0)],
        ] {
            let bytes = oracle::write_nodes(&nodes);
            assert_eq!(decode_prefix(&bytes), Err(DecodeError::Invalid));
        }
        // Records past the count are not the tree's: they stay unread.
        let mut bytes = with_count(3, &[split(0, 0.5, 1.0), leaf(1.0), leaf(2.0)]);
        bytes.extend_from_slice(&oracle::write_nodes(&[leaf(3.0)])[8..]);
        let mut r = Reader::new(&bytes);
        let tree = RegressionTree::decode(&mut r).expect("the counted tree decodes");
        assert_eq!((tree.node_count(), r.remaining()), (3, 9));
    }

    #[test]
    fn a_split_whose_right_subtree_never_arrives_is_rejected() {
        for nodes in [
            vec![split(0, 0.5, 1.0), leaf(1.0)],
            vec![split(0, 0.5, 1.0), split(1, 0.5, 1.0), leaf(1.0), leaf(2.0)],
            vec![split(0, 0.5, 1.0)],
        ] {
            let bytes = oracle::write_nodes(&nodes);
            assert_eq!(decode_prefix(&bytes), Err(DecodeError::Invalid));
            // With a count that promises the missing records, the input
            // ends inside the tree instead.
            let promised = with_count(nodes.len() as u64 + 1, &nodes);
            assert_eq!(decode_prefix(&promised), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn count_prefixes_of_zero_or_past_u32_are_rejected() {
        let lone = [leaf(1.0)];
        for count in [0, u64::from(u32::MAX) + 1, u64::MAX] {
            assert_eq!(
                decode_prefix(&with_count(count, &lone)),
                Err(DecodeError::Invalid),
                "count {count}"
            );
        }
        assert_eq!(
            decode_prefix(&with_count(0, &[])),
            Err(DecodeError::Invalid)
        );
        // The largest count is read, and the lone leaf then closes the
        // tree with records still owed.
        assert_eq!(
            decode_prefix(&with_count(u64::from(u32::MAX), &lone)),
            Err(DecodeError::Invalid)
        );
        assert_eq!(decode_prefix(&[1, 0, 0]), Err(DecodeError::Truncated));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let stump = oracle::write_nodes(&[split(0, 0.5, 1.0), leaf(1.0), leaf(2.0)]);
        // The root's tag, the left leaf's and the right leaf's.
        for at in [8, 8 + SPLIT_BYTES, 8 + SPLIT_BYTES + LEAF_BYTES] {
            for tag in [2, 0x80, 0xff] {
                let mut bytes = stump.clone();
                bytes[at] = tag;
                assert_eq!(
                    decode_prefix(&bytes),
                    Err(DecodeError::Invalid),
                    "tag {tag} at {at}"
                );
            }
        }
    }

    #[test]
    fn non_finite_weights_thresholds_and_gains_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for nodes in [
                vec![leaf(bad)],
                vec![split(0, 0.5, 1.0), leaf(1.0), leaf(bad)],
                vec![split(0, bad, 1.0), leaf(1.0), leaf(2.0)],
                vec![split(0, 0.5, bad), leaf(1.0), leaf(2.0)],
            ] {
                let bytes = oracle::write_nodes(&nodes);
                assert_eq!(decode_prefix(&bytes), Err(DecodeError::Invalid));
            }
        }
    }

    #[test]
    fn truncation_inside_a_record_is_reported_as_truncated() {
        let bytes = oracle::write_nodes(&[
            split(2, 0.5, 1.0),
            split(1, -0.5, 0.25),
            leaf(1.0),
            leaf(2.0),
            leaf(3.0),
        ]);
        assert!(decode_prefix(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_prefix(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    /// A left spine of 100,000 splits decodes in one pass, with no
    /// recursion, into a tree that walks and re-encodes; without its last
    /// leaf or its last byte it is a typed error.
    #[test]
    fn a_100k_deep_left_spine_decodes_without_recursion() {
        const SPINE: usize = 100_000;
        let mut nodes: Vec<Node> = (0..SPINE).map(|_| split(0, 1.0, 1.0)).collect();
        nodes.extend((0..=SPINE).map(|i| leaf(i as f64)));
        let bytes = oracle::write_nodes(&nodes);
        let tree = RegressionTree::from_bytes(&bytes).expect("a deep spine decodes");
        assert_eq!(tree.node_count(), 2 * SPINE + 1);
        assert_eq!(tree.depth, SPINE as u32);
        assert_eq!(tree.features_used(), 1);
        // Left all the way to the first leaf; right at the root to the
        // last one, which is the root's right child.
        assert_eq!(tree.predict(&[0.0]), 0.0);
        assert_eq!(tree.predict(&[2.0]), SPINE as f64);
        assert_eq!(tree.to_bytes(), bytes);

        let short = with_count(2 * SPINE as u64, &nodes[..2 * SPINE]);
        assert_eq!(decode_prefix(&short), Err(DecodeError::Invalid));
        assert_eq!(
            decode_prefix(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        );
    }

    /// A split's feature is a `u32` on the wire: the widest one decodes,
    /// re-encodes to its wire bytes and asks rows for `u32::MAX + 1`
    /// features.
    #[test]
    fn split_features_span_the_whole_u32_range() {
        let widest =
            oracle::write_nodes(&[split(u32::MAX as usize, 0.5, 1.0), leaf(-1.0), leaf(1.0)]);
        let tree = RegressionTree::from_bytes(&widest).expect("a u32 feature decodes");
        assert_eq!(tree.to_bytes(), widest);
        assert_eq!(tree.features_used(), u32::MAX as usize + 1);
    }

    #[test]
    fn fitted_trees_encode_as_their_node_list() {
        let features: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let targets: Vec<f64> = (0..40).map(|i| ((i % 5) as f64) - 2.0).collect();
        let tree = fit_regression(&features, &targets, &PARAMS);
        assert!(tree.node_count() > 3);
        let bytes = tree.to_bytes();
        assert_eq!(bytes, oracle::write_nodes(&tree.to_nodes()));
        assert_eq!(RegressionTree::from_bytes(&bytes), Ok(tree));
    }
}
