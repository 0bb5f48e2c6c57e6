//! The recursive exact/histogram tree builder this crate shipped before the
//! presorted column-block builder, kept verbatim (apart from building a
//! `Node` list and packing it through `from_nodes`) as the test oracle: the
//! production builder must reproduce its trees bit for bit.

use super::{Node, RegressionTree, SplitMode, TreeParams};

impl RegressionTree {
    /// Fits a tree on the given rows.
    ///
    /// `rows` indexes into `features`/`grad`/`hess`; `columns` restricts the
    /// candidate split features (column subsampling).
    pub(crate) fn fit_reference(
        features: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        columns: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert!(!rows.is_empty(), "tree needs at least one row");
        let mut nodes = Vec::new();
        Self::build_reference(&mut nodes, features, grad, hess, rows, columns, params, 0);
        Self::from_nodes(nodes)
    }

    /// Recursively builds the subtree over `rows`, returning its node index.
    #[allow(clippy::too_many_arguments)]
    fn build_reference(
        nodes: &mut Vec<Node>,
        features: &[Vec<f64>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        columns: &[usize],
        params: &TreeParams,
        depth: usize,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&r| grad[r]).sum();
        let h_sum: f64 = rows.iter().map(|&r| hess[r]).sum();

        let make_leaf = |nodes: &mut Vec<Node>| {
            let weight = -g_sum / (h_sum + params.lambda);
            nodes.push(Node::Leaf { weight });
            nodes.len() - 1
        };

        if depth >= params.max_depth || rows.len() < 2 {
            return make_leaf(nodes);
        }

        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)

        let consider =
            |f: usize, threshold: f64, gl: f64, hl: f64, best: &mut Option<(usize, f64, f64)>| {
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    return;
                }
                let gain = 0.5
                    * (gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > 0.0 && best.is_none_or(|(_, _, bg)| gain > bg) {
                    *best = Some((f, threshold, gain));
                }
            };

        for &f in columns {
            match params.split_mode {
                SplitMode::Exact => {
                    let mut order: Vec<usize> = rows.to_vec();
                    order.sort_by(|&a, &b| {
                        features[a][f]
                            .partial_cmp(&features[b][f])
                            .expect("finite features")
                    });
                    let mut gl = 0.0;
                    let mut hl = 0.0;
                    for w in order.windows(2) {
                        gl += grad[w[0]];
                        hl += hess[w[0]];
                        let (va, vb) = (features[w[0]][f], features[w[1]][f]);
                        if va == vb {
                            continue; // cannot split between equal values
                        }
                        consider(f, 0.5 * (va + vb), gl, hl, &mut best);
                    }
                }
                SplitMode::Histogram { bins } => {
                    let bins = bins.max(2);
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &r in rows {
                        lo = lo.min(features[r][f]);
                        hi = hi.max(features[r][f]);
                    }
                    if (hi - lo).abs() < f64::EPSILON {
                        continue; // constant feature at this node
                    }
                    let width = (hi - lo) / bins as f64;
                    let mut g_bins = vec![0.0f64; bins];
                    let mut h_bins = vec![0.0f64; bins];
                    for &r in rows {
                        let b = (((features[r][f] - lo) / width) as usize).min(bins - 1);
                        g_bins[b] += grad[r];
                        h_bins[b] += hess[r];
                    }
                    let mut gl = 0.0;
                    let mut hl = 0.0;
                    for b in 0..bins - 1 {
                        gl += g_bins[b];
                        hl += h_bins[b];
                        let threshold = lo + width * (b + 1) as f64;
                        consider(f, threshold, gl, hl, &mut best);
                    }
                }
            }
        }

        let Some((feature, threshold, gain)) = best else {
            return make_leaf(nodes);
        };

        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
            .iter()
            .partition(|&&r| features[r][feature] < threshold);
        if left_rows.is_empty() || right_rows.is_empty() {
            // Possible under histogram splitting when a bin edge separates
            // no samples (e.g. empty leading bins): fall back to a leaf.
            return make_leaf(nodes);
        }

        // Reserve this node's slot before recursing so child indices are
        // stable.
        let index = nodes.len();
        nodes.push(Node::Leaf { weight: 0.0 });
        let left = Self::build_reference(
            nodes,
            features,
            grad,
            hess,
            &left_rows,
            columns,
            params,
            depth + 1,
        );
        let right = Self::build_reference(
            nodes,
            features,
            grad,
            hess,
            &right_rows,
            columns,
            params,
            depth + 1,
        );
        nodes[index] = Node::Split {
            feature,
            threshold,
            gain,
            left,
            right,
        };
        index
    }
}
