//! The boosting loop this crate shipped before the presorted column-block
//! tree builder, kept verbatim (apart from calling the reference tree
//! builder and the config check it shares with `fit`) as the test oracle,
//! and the property test that pins [`GbdtClassifier::fit`] to it byte for
//! byte.

use super::{softmax, GbdtClassifier, GbdtConfig};
use crate::tree::{RegressionTree, SplitMode, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::binary::Encode;

impl GbdtClassifier {
    /// [`GbdtClassifier::fit`] as this crate shipped it before the column-block
    /// builder (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or ragged, a label is `>= classes`, a
    /// feature is NaN, or the configuration is invalid.
    pub(crate) fn fit_reference(
        rows: &[Vec<f64>],
        labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
    ) -> Self {
        if let Some(message) = config.violation() {
            panic!("{message}");
        }
        assert!(!rows.is_empty(), "training set must be non-empty");
        assert_eq!(rows.len(), labels.len(), "one label per row");
        assert!(classes >= 2, "need at least two classes");
        let n_features = rows[0].len();
        assert!(n_features > 0, "rows must have at least one feature");
        for row in rows {
            assert_eq!(row.len(), n_features, "ragged feature rows");
            assert!(row.iter().all(|v| v.is_finite()), "features must be finite");
        }
        assert!(
            labels.iter().all(|&l| l < classes),
            "labels must be < classes"
        );

        let n = rows.len();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Prior log-odds from class frequencies (Laplace smoothed).
        let mut counts = vec![1.0f64; classes];
        for &l in labels {
            counts[l] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let base_scores: Vec<f64> = counts.iter().map(|c| (c / total).ln()).collect();

        // Raw scores per (row, class).
        let mut scores: Vec<Vec<f64>> = vec![base_scores.clone(); n];

        let params = TreeParams {
            max_depth: config.max_depth,
            lambda: config.lambda,
            gamma: config.gamma,
            min_child_weight: config.min_child_weight,
            split_mode: config.split_mode,
        };

        let mut trees = Vec::with_capacity(config.rounds);
        let mut importance = vec![0.0; n_features];
        let all_rows: Vec<usize> = (0..n).collect();
        let all_cols: Vec<usize> = (0..n_features).collect();

        for _ in 0..config.rounds {
            // Row subsample for this round.
            let rows_used: Vec<usize> = if config.subsample < 1.0 {
                let take = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
                let mut shuffled = all_rows.clone();
                shuffled.shuffle(&mut rng);
                shuffled.truncate(take);
                shuffled
            } else {
                all_rows.clone()
            };

            // Softmax probabilities for the current scores.
            let probs: Vec<Vec<f64>> = scores.iter().map(|s| softmax(s)).collect();

            let mut round_trees = Vec::with_capacity(classes);
            for class in 0..classes {
                let grad: Vec<f64> = (0..n)
                    .map(|i| probs[i][class] - if labels[i] == class { 1.0 } else { 0.0 })
                    .collect();
                let hess: Vec<f64> = (0..n)
                    .map(|i| (probs[i][class] * (1.0 - probs[i][class])).max(1e-6))
                    .collect();

                let cols_used: Vec<usize> = if config.colsample < 1.0 {
                    let take = ((n_features as f64 * config.colsample).round() as usize)
                        .clamp(1, n_features);
                    let mut shuffled = all_cols.clone();
                    shuffled.shuffle(&mut rng);
                    shuffled.truncate(take);
                    shuffled
                } else {
                    all_cols.clone()
                };

                let tree = RegressionTree::fit_reference(
                    rows, &grad, &hess, &rows_used, &cols_used, &params,
                );
                tree.accumulate_importance(&mut importance);
                // Update scores for all rows (not just the subsample).
                for (i, row) in rows.iter().enumerate() {
                    scores[i][class] += config.learning_rate * tree.predict(row);
                }
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }

        Self {
            trees,
            base_scores,
            classes,
            features: n_features,
            learning_rate: config.learning_rate,
            importance,
        }
    }
}

/// A random dataset built for ties: every feature draws from its own
/// 2–7 element value set (which may hold both `-0.0` and `0.0`, or two
/// adjacent floats whose midpoint rounds onto the lower one), and some rows
/// repeat earlier rows outright.
fn tie_heavy(
    seed: u64,
    rows: usize,
    features: usize,
    classes: usize,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = [
        -0.0,
        0.0,
        0.25,
        0.5,
        1.0 / 3.0,
        1.0,
        -2.0,
        3.5,
        0.1 + 0.2,
        0.3,
        f64::from_bits(1.0f64.to_bits() + 1),
    ];
    let value_sets: Vec<Vec<f64>> = (0..features)
        .map(|_| {
            let k = rng.gen_range(2..8usize);
            (0..k).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
        })
        .collect();
    let mut data: Vec<Vec<f64>> = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        if !data.is_empty() && rng.gen_range(0..4u32) == 0 {
            let source = rng.gen_range(0..data.len());
            data.push(data[source].clone());
            labels.push(labels[source]);
            continue;
        }
        let row: Vec<f64> = value_sets
            .iter()
            .map(|set| set[rng.gen_range(0..set.len())])
            .collect();
        // A noisy label that leans on the first feature, so trees grow.
        let label = if rng.gen_range(0..3u32) == 0 {
            rng.gen_range(0..classes)
        } else {
            usize::from(row[0] > 0.4) % classes
        };
        data.push(row);
        labels.push(label);
    }
    (data, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The column-block fit is byte-identical to the reference fit on
    /// tie-heavy data, across class counts, depths, sampling rates, child
    /// weight floors and both split modes.
    #[test]
    fn fit_matches_the_reference_builder_byte_for_byte(
        (seed, rows, features) in (0u64..u64::MAX, 1usize..160, 1usize..7),
        (classes, max_depth, rounds) in (2usize..5, 0usize..7, 1usize..7),
        (subsample, colsample, full_rows, full_cols) in (0.3f64..1.0, 0.3f64..1.0, any::<bool>(), any::<bool>()),
        (min_child_weight, large_child_weight, histogram, bins) in (0.0f64..0.2, any::<bool>(), any::<bool>(), 2usize..40),
        config_seed in 0u64..1000,
    ) {
        let (data, labels) = tie_heavy(seed, rows, features, classes);
        let config = GbdtConfig {
            rounds,
            max_depth,
            learning_rate: 0.3,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: if large_child_weight { 4.0 } else { min_child_weight },
            subsample: if full_rows { 1.0 } else { subsample },
            colsample: if full_cols { 1.0 } else { colsample },
            split_mode: if histogram { SplitMode::Histogram { bins } } else { SplitMode::Exact },
            seed: config_seed,
        };
        let fast = GbdtClassifier::fit(&data, &labels, classes, &config);
        let reference = GbdtClassifier::fit_reference(&data, &labels, classes, &config);
        prop_assert_eq!(fast.to_bytes(), reference.to_bytes(), "{:?}", config);
    }
}
