//! The pointer-walk tree that `RegressionTree::predict` walked before the
//! packed node table, and a field-by-field codec of its pre-order records:
//! the test oracles of the packed evaluator and of the one-pass record
//! decoder, and the property tests that hold `predict`, `predict_lanes` and
//! the decoder to them.

use super::RegressionTree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// One tree node with explicit children, in a pre-order list: a split's
/// `left` is the next node and its `right` follows the left subtree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
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

/// `Node`'s codec, field by field: the node count, then per node its tag
/// (0 leaf, 1 split) and fields — a leaf's weight; a split's feature as a
/// `u32`, threshold and gain. The children are left out, because pre-order
/// implies them.
pub(crate) fn write_nodes(nodes: &[Node]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    for node in nodes {
        match *node {
            Node::Leaf { weight } => {
                out.push(0);
                out.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
            Node::Split {
                feature,
                threshold,
                gain,
                ..
            } => {
                out.push(1);
                let feature = u32::try_from(feature).expect("feature fits u32");
                out.extend_from_slice(&feature.to_le_bytes());
                out.extend_from_slice(&threshold.to_bits().to_le_bytes());
                out.extend_from_slice(&gain.to_bits().to_le_bytes());
            }
        }
    }
    out
}

/// Reads what [`write_nodes`] writes, one field at a time and recursively,
/// giving every split its children by where its subtrees end. Returns the
/// error of the first fault in stream order, as the production decoder
/// must: a count of 0 or past `u32::MAX`, an unknown tag or a non-finite
/// number is `Invalid`, input that ends inside the tree `Truncated`, and a
/// count that is not exactly one whole tree `Invalid`.
pub(crate) fn read_nodes(r: &mut Reader<'_>) -> Result<Vec<Node>, DecodeError> {
    let count = usize::decode(r)?;
    if count == 0 || count > u32::MAX as usize {
        return Err(DecodeError::Invalid);
    }
    let mut nodes = Vec::new();
    read_subtree(r, count, &mut nodes)?;
    if nodes.len() != count {
        return Err(DecodeError::Invalid);
    }
    Ok(nodes)
}

/// Reads one subtree into `nodes`; returns its root's index.
fn read_subtree(
    r: &mut Reader<'_>,
    count: usize,
    nodes: &mut Vec<Node>,
) -> Result<usize, DecodeError> {
    if nodes.len() == count {
        return Err(DecodeError::Invalid); // the count ran out mid-tree
    }
    let index = nodes.len();
    match u8::decode(r)? {
        0 => {
            let weight = f64::decode(r)?;
            if !weight.is_finite() {
                return Err(DecodeError::Invalid);
            }
            nodes.push(Node::Leaf { weight });
        }
        1 => {
            let feature = u32::decode(r)? as usize;
            let threshold = f64::decode(r)?;
            let gain = f64::decode(r)?;
            if !threshold.is_finite() || !gain.is_finite() {
                return Err(DecodeError::Invalid);
            }
            nodes.push(Node::Leaf { weight: 0.0 });
            let left = read_subtree(r, count, nodes)?;
            let right = read_subtree(r, count, nodes)?;
            nodes[index] = Node::Split {
                feature,
                threshold,
                gain,
                left,
                right,
            };
        }
        _ => return Err(DecodeError::Invalid),
    }
    Ok(index)
}

/// Thresholds the random trees split at; rows reuse them so that values
/// equal to a threshold (and `-0.0` against `0.0`) reach the `<` test.
const THRESHOLDS: [f64; 7] = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25];

/// A random valid tree and the `Node` list it was packed from.
pub(crate) struct OracleTree {
    /// The pre-order node list.
    pub(crate) nodes: Vec<Node>,
    /// The packed tree under test.
    pub(crate) tree: RegressionTree,
}

impl OracleTree {
    /// A tree of depth at most `max_depth` over `features` features: each
    /// node below the limit is a leaf with probability 0.3, so trees come
    /// unbalanced, and a depth-0 tree is a lone leaf.
    pub(crate) fn random(rng: &mut StdRng, max_depth: usize, features: usize) -> Self {
        let mut nodes = Vec::new();
        grow(rng, &mut nodes, max_depth, features);
        let tree = RegressionTree::from_nodes(nodes.clone());
        Self { nodes, tree }
    }

    /// The old `predict`: follow `Split`s until a `Leaf`.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Appends a random subtree in pre-order; returns its root's index.
fn grow(rng: &mut StdRng, nodes: &mut Vec<Node>, depth_left: usize, features: usize) -> usize {
    let index = nodes.len();
    if depth_left == 0 || rng.gen_bool(0.3) {
        nodes.push(Node::Leaf {
            weight: rng.gen_range(-2.0..2.0),
        });
        return index;
    }
    nodes.push(Node::Leaf { weight: 0.0 });
    let left = grow(rng, nodes, depth_left - 1, features);
    let right = grow(rng, nodes, depth_left - 1, features);
    nodes[index] = Node::Split {
        feature: rng.gen_range(0..features),
        threshold: THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())],
        gain: rng.gen_range(0.01..5.0),
        left,
        right,
    };
    index
}

/// A row whose values are thresholds, NaN, `±inf`, `±0` or anything else.
pub(crate) fn random_row(rng: &mut StdRng, features: usize) -> Vec<f64> {
    (0..features)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5..=7 => THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())],
            _ => rng.gen_range(-4.0..4.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// On trees of depth 0 to 8, lone leaves and unbalanced trees included,
    /// `predict` and a six-wide `predict_lanes` return the pointer walk's
    /// leaf weight bit for bit; the record encoder writes `Node`'s
    /// field-by-field bytes, which read back as the same node list; and a
    /// decoded tree equals the packed one, levels and depth included.
    #[test]
    fn packed_walk_matches_the_node_walk(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features = rng.gen_range(1..6usize);
        let trees: Vec<OracleTree> = (0..6)
            .map(|_| {
                let max_depth = rng.gen_range(0..=8usize);
                OracleTree::random(&mut rng, max_depth, features)
            })
            .collect();
        for oracle in &trees {
            let bytes = oracle.tree.to_bytes();
            prop_assert_eq!(&bytes, &write_nodes(&oracle.nodes));
            prop_assert_eq!(read_nodes(&mut Reader::new(&bytes)), Ok(oracle.nodes.clone()));
            let decoded = RegressionTree::from_bytes(&bytes);
            prop_assert_eq!(decoded.as_ref(), Ok(&oracle.tree));
        }
        let lanes: [&RegressionTree; 6] = std::array::from_fn(|k| &trees[k].tree);
        for _ in 0..8 {
            let row = random_row(&mut rng, features);
            let walked = RegressionTree::predict_lanes(lanes, &row);
            for (oracle, lane) in trees.iter().zip(walked) {
                let want = oracle.predict(&row).to_bits();
                prop_assert_eq!(oracle.tree.predict(&row).to_bits(), want);
                prop_assert_eq!(lane.to_bits(), want);
            }
        }
    }
}

#[test]
fn a_lone_leaf_never_reads_the_row() {
    let tree = RegressionTree::from_nodes(vec![Node::Leaf { weight: 0.25 }]);
    assert_eq!(tree.predict(&[]), 0.25);
    assert_eq!(tree.node_count(), 1);
    assert_eq!(tree.leaf_count(), 1);
    assert_eq!(tree.features_used(), 0);
}
