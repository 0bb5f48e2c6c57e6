//! The pointer walk over `Node`s that `RegressionTree::predict` did before
//! the packed node table, kept as the test oracle for the packed evaluator,
//! and the property tests that hold `predict`, `predict_lanes` and the
//! codec's level stamping to it.

use super::{Node, RegressionTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, Encode};

/// Thresholds the random trees split at; rows reuse them so that values
/// equal to a threshold (and `-0.0` against `0.0`) reach the `<` test.
const THRESHOLDS: [f64; 7] = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.25];

/// A random valid tree and the `Node` list it was packed from.
pub(crate) struct OracleTree {
    nodes: Vec<Node>,
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
    /// leaf weight bit for bit, and a decoded tree equals the packed one,
    /// levels included.
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
            let decoded = RegressionTree::from_bytes(&oracle.tree.to_bytes());
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

/// A valid node list that need not be a tree: every split points at two
/// random later nodes, so nodes are shared by parents at different levels
/// and some nodes are unreachable.
fn random_dag(rng: &mut StdRng, len: usize, features: usize) -> Vec<Node> {
    (0..len)
        .map(|idx| {
            if idx + 1 == len || rng.gen_bool(0.4) {
                Node::Leaf {
                    weight: rng.gen_range(-2.0..2.0),
                }
            } else {
                Node::Split {
                    feature: rng.gen_range(0..features),
                    threshold: THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())],
                    gain: rng.gen_range(0.01..5.0),
                    left: rng.gen_range(idx + 1..len),
                    right: rng.gen_range(idx + 1..len),
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The decoder stamps each node with its longest path from the root
    /// even when parents share it, so a decoded node list that is not a
    /// tree equals its packing and walks to the pointer walk's leaf.
    #[test]
    fn decoded_dags_walk_their_longest_paths(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features = rng.gen_range(1..4usize);
        let len = rng.gen_range(1..24usize);
        let nodes = random_dag(&mut rng, len, features);
        let oracle = OracleTree {
            tree: RegressionTree::from_nodes(nodes.clone()),
            nodes: nodes.clone(),
        };
        let decoded = RegressionTree::from_bytes(&nodes.to_bytes());
        prop_assert_eq!(decoded.as_ref(), Ok(&oracle.tree));
        for _ in 0..8 {
            let row = random_row(&mut rng, features);
            prop_assert_eq!(
                oracle.tree.predict(&row).to_bits(),
                oracle.predict(&row).to_bits()
            );
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
