//! The boosting loop: softmax objective over per-class regression trees.

use crate::tree::{RegressionTree, SplitMode, TreeBuilder, TreeParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// How many trees [`GbdtClassifier::decision_scores_into`] walks side by
/// side: enough independent chains of loads to hide each other's latency,
/// few enough that their indices stay in registers.
const LANES: usize = 6;

/// Hyperparameters of [`GbdtClassifier::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Boosting rounds (each round grows one tree per class).
    pub rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to every leaf.
    pub learning_rate: f64,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum split gain (complexity penalty).
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Row-subsampling fraction per round, in `(0, 1]`.
    pub subsample: f64,
    /// Column-subsampling fraction per tree, in `(0, 1]`.
    pub colsample: f64,
    /// How candidate split thresholds are enumerated.
    pub split_mode: SplitMode,
    /// Seed for the subsampling RNG.
    pub seed: u64,
}

impl GbdtConfig {
    /// A compact configuration suited to CQC's small tabular inputs.
    pub fn small() -> Self {
        Self {
            rounds: 60,
            max_depth: 4,
            learning_rate: 0.2,
            lambda: 1.0,
            gamma: 0.0,
            // Softmax hessians are at most 0.25 per row, so a whole-unit
            // child-weight floor would forbid splits on tiny datasets.
            min_child_weight: 0.1,
            subsample: 0.9,
            colsample: 0.9,
            split_mode: SplitMode::Exact,
            seed: 17,
        }
    }

    /// A histogram-split configuration for larger tabular inputs.
    pub fn histogram(bins: usize) -> Self {
        Self {
            split_mode: SplitMode::Histogram { bins },
            ..Self::small()
        }
    }

    /// The first constraint this configuration breaks, as the message
    /// [`GbdtClassifier::fit`] panics with; `None` when it is valid. Decoding
    /// rejects exactly the configurations `fit` rejects, so a system that
    /// boots with a configuration can also resume from its checkpoint.
    fn violation(&self) -> Option<&'static str> {
        let finite_at_least_zero = |x: f64| x.is_finite() && x >= 0.0;
        if self.rounds == 0 {
            Some("need at least one boosting round")
        } else if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            Some("learning rate must be positive")
        } else if !(finite_at_least_zero(self.lambda) && finite_at_least_zero(self.gamma)) {
            Some("regularizers must be >= 0")
        } else if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            Some("subsample must be in (0, 1]")
        } else if !(self.colsample > 0.0 && self.colsample <= 1.0) {
            Some("colsample must be in (0, 1]")
        } else if !finite_at_least_zero(self.min_child_weight) {
            Some("min_child_weight must be >= 0")
        } else {
            None
        }
    }
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// A trained multiclass gradient-boosting model.
///
/// See the crate docs for the objective; use [`GbdtClassifier::fit`] to train
/// and [`GbdtClassifier::predict_proba`] / [`GbdtClassifier::predict`] for
/// inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtClassifier {
    /// `trees[round][class]`.
    trees: Vec<Vec<RegressionTree>>,
    /// Per-class prior log-odds (from class frequencies).
    base_scores: Vec<f64>,
    classes: usize,
    features: usize,
    learning_rate: f64,
    importance: Vec<f64>,
}

impl GbdtClassifier {
    /// Trains with early stopping: after each boosting round the model is
    /// scored on the held-out `(val_rows, val_labels)` by multiclass
    /// log-loss, and training stops once `patience` rounds pass without an
    /// improvement; the returned model is truncated to the best round.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GbdtClassifier::fit`], plus if
    /// the validation set is empty/ragged or `patience == 0`.
    pub fn fit_with_validation(
        rows: &[Vec<f64>],
        labels: &[usize],
        val_rows: &[Vec<f64>],
        val_labels: &[usize],
        classes: usize,
        config: &GbdtConfig,
        patience: usize,
    ) -> Self {
        assert!(patience > 0, "patience must be positive");
        assert!(
            !val_rows.is_empty() && val_rows.len() == val_labels.len(),
            "validation set must be non-empty and consistent"
        );
        let mut model = Self::fit(rows, labels, classes, config);

        // Score the validation set incrementally, one round at a time.
        let mut scores: Vec<Vec<f64>> = vec![model.base_scores.clone(); val_rows.len()];
        let mut best_loss = f64::INFINITY;
        let mut best_round = 0usize;
        for round in 0..model.trees.len() {
            for (score, row) in scores.iter_mut().zip(val_rows) {
                for (class, tree) in model.trees[round].iter().enumerate() {
                    score[class] += model.learning_rate * tree.predict(row);
                }
            }
            let loss = log_loss_of_scores(&scores, val_labels);
            if loss < best_loss - 1e-9 {
                best_loss = loss;
                best_round = round + 1;
            } else if round + 1 - best_round >= patience {
                break;
            }
        }
        model.trees.truncate(best_round.max(1));
        model
    }

    /// Multiclass log-loss of this model on a labeled set (lower is better).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty or inconsistent.
    pub fn log_loss(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert!(
            !rows.is_empty() && rows.len() == labels.len(),
            "bad eval set"
        );
        let scores: Vec<Vec<f64>> = rows.iter().map(|r| self.decision_scores(r)).collect();
        log_loss_of_scores(&scores, labels)
    }

    /// Trains a model on dense rows.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or ragged, a label is `>= classes`, a
    /// feature is NaN, or the configuration is invalid.
    pub fn fit(rows: &[Vec<f64>], labels: &[usize], classes: usize, config: &GbdtConfig) -> Self {
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

        let params = TreeParams {
            max_depth: config.max_depth,
            lambda: config.lambda,
            gamma: config.gamma,
            min_child_weight: config.min_child_weight,
            split_mode: config.split_mode,
        };
        let mut builder = TreeBuilder::new(rows, params);

        // Raw scores and their softmax, row-major `[row * classes + class]`;
        // these and every other buffer below live for the whole fit.
        let mut scores: Vec<f64> = base_scores.repeat(n);
        let mut probs = vec![0.0; n * classes];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut rows_used: Vec<u32> = Vec::with_capacity(n);
        let mut in_sample = vec![true; n];
        let mut cols_used: Vec<usize> = Vec::with_capacity(n_features);

        let mut trees = Vec::with_capacity(config.rounds);
        let mut importance = vec![0.0; n_features];

        for _ in 0..config.rounds {
            // Row subsample for this round.
            rows_used.clear();
            rows_used.extend(0..n as u32);
            if config.subsample < 1.0 {
                let take = ((n as f64 * config.subsample).round() as usize).clamp(1, n);
                rows_used.shuffle(&mut rng);
                rows_used.truncate(take);
                in_sample.fill(false);
                for &r in &rows_used {
                    in_sample[r as usize] = true;
                }
            }
            builder.begin_round(&rows_used);

            // Softmax probabilities for the current scores.
            probs.copy_from_slice(&scores);
            for prob in probs.chunks_exact_mut(classes) {
                softmax_in_place(prob);
            }

            let mut round_trees = Vec::with_capacity(classes);
            for class in 0..classes {
                for (i, prob) in probs.chunks_exact(classes).enumerate() {
                    let p = prob[class];
                    grad[i] = p - if labels[i] == class { 1.0 } else { 0.0 };
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }

                cols_used.clear();
                cols_used.extend(0..n_features);
                if config.colsample < 1.0 {
                    let take = ((n_features as f64 * config.colsample).round() as usize)
                        .clamp(1, n_features);
                    cols_used.shuffle(&mut rng);
                    cols_used.truncate(take);
                }

                let tree = builder.fit(&grad, &hess, &cols_used);
                tree.accumulate_importance(&mut importance);
                // Update scores for all rows (not just the subsample): a
                // subsample row takes the weight of the leaf the builder put
                // it in, which is the leaf `predict` routes it to.
                let leaf_weights = builder.leaf_weights();
                for (i, row) in rows.iter().enumerate() {
                    let weight = if in_sample[i] {
                        leaf_weights[i]
                    } else {
                        tree.predict(row)
                    };
                    scores[i * classes + class] += config.learning_rate * weight;
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

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of input features the model expects.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Boosting rounds actually trained.
    pub fn rounds(&self) -> usize {
        self.trees.len()
    }

    /// Raw (pre-softmax) scores for one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()`.
    pub fn decision_scores(&self, row: &[f64]) -> Vec<f64> {
        let mut scores = vec![0.0; self.classes];
        self.decision_scores_into(row, &mut scores);
        scores
    }

    /// [`GbdtClassifier::decision_scores`] written into `scores`, with no
    /// allocation.
    ///
    /// The trees are taken in round-major, per-class order, [`LANES`] at a
    /// time, and walked side by side; each leaf weight is then added to its
    /// class's score in that same order. Every score is the same sum in the
    /// same order as one `predict` per tree, so the result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()` or
    /// `scores.len() != self.classes()`.
    pub fn decision_scores_into(&self, row: &[f64], scores: &mut [f64]) {
        assert_eq!(row.len(), self.features, "feature arity mismatch");
        assert_eq!(scores.len(), self.classes, "one score per class");
        scores.copy_from_slice(&self.base_scores);
        let mut trees = self.trees.iter().flat_map(|round| round.iter().enumerate());
        while let Some(first) = trees.next() {
            // A short last group pads with `first`, walked but not summed.
            let mut lanes = [first; LANES];
            let mut filled = 1;
            for lane in &mut lanes[1..] {
                let Some(next) = trees.next() else { break };
                *lane = next;
                filled += 1;
            }
            let weights = RegressionTree::predict_lanes(lanes.map(|(_, tree)| tree), row);
            for (&(class, _), weight) in lanes[..filled].iter().zip(weights) {
                scores[class] += self.learning_rate * weight;
            }
        }
    }

    /// Class-probability vector (softmax of the decision scores).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut probs = vec![0.0; self.classes];
        self.predict_proba_into(row, &mut probs);
        probs
    }

    /// [`GbdtClassifier::predict_proba`] written into `probs`, with no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.features()` or
    /// `probs.len() != self.classes()`.
    pub fn predict_proba_into(&self, row: &[f64], probs: &mut [f64]) {
        self.decision_scores_into(row, probs);
        softmax_in_place(probs);
    }

    /// The most probable class.
    pub fn predict(&self, row: &[f64]) -> usize {
        let probs = self.predict_proba(row);
        probs
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite probabilities"))
            .map(|(i, _)| i)
            .expect("at least two classes")
    }

    /// Accuracy over a labeled evaluation set.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or mismatched.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert!(
            !rows.is_empty() && rows.len() == labels.len(),
            "bad eval set"
        );
        let correct = rows
            .iter()
            .zip(labels)
            .filter(|(row, &l)| self.predict(row) == l)
            .count();
        correct as f64 / rows.len() as f64
    }

    /// Total split gain accumulated per feature (unnormalized importances).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs (`serde::binary`): decoding re-checks the constructor
// invariants and reports `Invalid` instead of panicking.

impl Encode for GbdtConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.max_depth.encode(out);
        self.learning_rate.encode(out);
        self.lambda.encode(out);
        self.gamma.encode(out);
        self.min_child_weight.encode(out);
        self.subsample.encode(out);
        self.colsample.encode(out);
        self.split_mode.encode(out);
        self.seed.encode(out);
    }
}

impl Decode for GbdtConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            rounds: usize::decode(r)?,
            max_depth: usize::decode(r)?,
            learning_rate: f64::decode(r)?,
            lambda: f64::decode(r)?,
            gamma: f64::decode(r)?,
            min_child_weight: f64::decode(r)?,
            subsample: f64::decode(r)?,
            colsample: f64::decode(r)?,
            split_mode: SplitMode::decode(r)?,
            seed: u64::decode(r)?,
        };
        if config.violation().is_some() {
            return Err(DecodeError::Invalid);
        }
        Ok(config)
    }
}

impl Encode for GbdtClassifier {
    fn encode(&self, out: &mut Vec<u8>) {
        self.trees.encode(out);
        self.base_scores.encode(out);
        self.classes.encode(out);
        self.features.encode(out);
        self.learning_rate.encode(out);
        self.importance.encode(out);
    }
}

impl Decode for GbdtClassifier {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let trees = Vec::<Vec<RegressionTree>>::decode(r)?;
        let base_scores = Vec::<f64>::decode(r)?;
        let classes = usize::decode(r)?;
        let features = usize::decode(r)?;
        let learning_rate = f64::decode(r)?;
        let importance = Vec::<f64>::decode(r)?;
        // Every split must index a feature the model has (`predict` would
        // panic on `row[feature]` otherwise) and every score term must be
        // finite; the tree decoder already checked its own numbers.
        let valid = classes >= 2
            && features > 0
            && base_scores.len() == classes
            && base_scores.iter().all(|s| s.is_finite())
            && importance.len() == features
            && learning_rate.is_finite()
            && trees.iter().all(|round| {
                round.len() == classes && round.iter().all(|t| t.features_used() <= features)
            });
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(Self {
            trees,
            base_scores,
            classes,
            features,
            learning_rate,
            importance,
        })
    }
}

fn log_loss_of_scores(scores: &[Vec<f64>], labels: &[usize]) -> f64 {
    let mut total = 0.0;
    for (score, &label) in scores.iter().zip(labels) {
        let probs = softmax(score);
        total -= probs[label].max(1e-12).ln();
    }
    total / scores.len() as f64
}

fn softmax(scores: &[f64]) -> Vec<f64> {
    let mut probs = scores.to_vec();
    softmax_in_place(&mut probs);
    probs
}

/// Replaces `values` (raw scores) by their softmax.
fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f64 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three Gaussian-ish blobs on a line, deterministic construction.
    fn blobs(n_per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for i in 0..n_per_class {
                let jitter = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                rows.push(vec![c as f64 * 3.0 + jitter, (i % 7) as f64 / 7.0]);
                labels.push(c);
            }
        }
        (rows, labels)
    }

    #[test]
    fn learns_separable_blobs_perfectly() {
        let (rows, labels) = blobs(30);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        assert_eq!(model.accuracy(&rows, &labels), 1.0);
    }

    #[test]
    fn probabilities_are_normalized() {
        let (rows, labels) = blobs(10);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        for row in &rows {
            let p = model.predict_proba(row);
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|x| (0.0..=1.0).contains(x)));
        }
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let (rows, labels) = blobs(20);
        let short = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 2,
                ..GbdtConfig::small()
            },
        );
        let long = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 40,
                ..GbdtConfig::small()
            },
        );
        assert!(long.accuracy(&rows, &labels) >= short.accuracy(&rows, &labels));
    }

    #[test]
    fn learns_xor() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i / 20) as f64;
            let b = ((i / 10) % 2) as f64;
            let noise = (i % 10) as f64 * 0.01;
            rows.push(vec![a + noise, b - noise]);
            labels.push((a as usize) ^ (b as usize));
        }
        let model = GbdtClassifier::fit(&rows, &labels, 2, &GbdtConfig::small());
        assert!(model.accuracy(&rows, &labels) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = blobs(15);
        let a = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let b = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        assert_eq!(a, b);
    }

    #[test]
    fn base_scores_reflect_class_imbalance() {
        // 90% class 0 with uninformative features: model should predict 0.
        let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![0.5]).collect();
        let mut labels = vec![0usize; 90];
        labels.extend(vec![1usize; 10]);
        let model = GbdtClassifier::fit(&rows, &labels, 2, &GbdtConfig::small());
        assert_eq!(model.predict(&[0.5]), 0);
        let p = model.predict_proba(&[0.5]);
        assert!(p[0] > 0.7, "prior must dominate: {p:?}");
    }

    #[test]
    fn feature_importance_identifies_signal_feature() {
        let (rows, labels) = blobs(30);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let imp = model.feature_importance();
        assert!(imp[0] > imp[1], "importances {imp:?}");
    }

    #[test]
    fn generalizes_to_held_out_points() {
        let (rows, labels) = blobs(40);
        let (train_r, test_r): (Vec<_>, Vec<_>) = rows
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, _)| i % 4 != 0);
        let (train_l, test_l): (Vec<_>, Vec<_>) = labels
            .iter()
            .copied()
            .enumerate()
            .partition(|(i, _)| i % 4 != 0);
        let train_rows: Vec<Vec<f64>> = train_r.into_iter().map(|(_, r)| r).collect();
        let train_labels: Vec<usize> = train_l.into_iter().map(|(_, l)| l).collect();
        let test_rows: Vec<Vec<f64>> = test_r.into_iter().map(|(_, r)| r).collect();
        let test_labels: Vec<usize> = test_l.into_iter().map(|(_, l)| l).collect();
        let model = GbdtClassifier::fit(&train_rows, &train_labels, 3, &GbdtConfig::small());
        assert!(model.accuracy(&test_rows, &test_labels) > 0.9);
    }

    #[test]
    fn histogram_mode_matches_exact_accuracy_on_blobs() {
        let (rows, labels) = blobs(40);
        let exact = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let hist = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::histogram(32));
        let acc_exact = exact.accuracy(&rows, &labels);
        let acc_hist = hist.accuracy(&rows, &labels);
        assert!(
            acc_hist >= acc_exact - 0.05,
            "histogram {acc_hist} must track exact {acc_exact}"
        );
    }

    #[test]
    fn early_stopping_truncates_on_noise() {
        // Random labels: beyond a few rounds the model only memorizes, so
        // validation loss stops improving and early stopping must kick in
        // well before the configured 80 rounds.
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![((i * 37) % 97) as f64, ((i * 61) % 89) as f64])
            .collect();
        let labels: Vec<usize> = (0..120).map(|i| (i * 7 + i / 13) % 3).collect();
        let (train_r, val_r) = rows.split_at(80);
        let (train_l, val_l) = labels.split_at(80);
        let config = GbdtConfig {
            rounds: 80,
            ..GbdtConfig::small()
        };
        let model =
            GbdtClassifier::fit_with_validation(train_r, train_l, val_r, val_l, 3, &config, 5);
        assert!(model.rounds() < 80, "stopped at {} rounds", model.rounds());
        // And the truncated model's validation loss must be no worse than
        // the fully boosted one.
        let full = GbdtClassifier::fit(train_r, train_l, 3, &config);
        assert!(model.log_loss(val_r, val_l) <= full.log_loss(val_r, val_l) + 1e-9);
    }

    #[test]
    fn early_stopping_keeps_training_on_clean_data() {
        let (rows, labels) = blobs(40);
        let (train_r, val_r) = rows.split_at(90);
        let (train_l, val_l) = labels.split_at(90);
        let config = GbdtConfig {
            rounds: 30,
            ..GbdtConfig::small()
        };
        let model =
            GbdtClassifier::fit_with_validation(train_r, train_l, val_r, val_l, 3, &config, 10);
        assert!(model.accuracy(val_r, val_l) > 0.9);
    }

    #[test]
    fn log_loss_orders_models_sensibly() {
        let (rows, labels) = blobs(20);
        let short = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 1,
                ..GbdtConfig::small()
            },
        );
        let long = GbdtClassifier::fit(
            &rows,
            &labels,
            3,
            &GbdtConfig {
                rounds: 40,
                ..GbdtConfig::small()
            },
        );
        assert!(long.log_loss(&rows, &labels) < short.log_loss(&rows, &labels));
    }

    #[test]
    fn cloned_models_predict_identically() {
        let (rows, labels) = blobs(15);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let clone = model.clone();
        assert_eq!(model, clone);
        for row in &rows {
            assert_eq!(model.predict_proba(row), clone.predict_proba(row));
        }
    }

    #[test]
    fn snapshot_codec_round_trips_a_trained_model() {
        let (rows, labels) = blobs(15);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        let restored = GbdtClassifier::from_bytes(&model.to_bytes()).expect("round trip");
        assert_eq!(model, restored);
        let config = GbdtConfig::histogram(32);
        assert_eq!(GbdtConfig::from_bytes(&config.to_bytes()), Ok(config));
    }

    /// A one-round, two-class, one-feature model frame whose trees are a
    /// single split over two leaves, with the given split and leaf fields.
    fn crafted_frame(feature: u32, threshold: f64, gain: f64, leaf: f64) -> Vec<u8> {
        let mut out = Vec::new();
        1usize.encode(&mut out); // rounds
        2usize.encode(&mut out); // trees in the round
        for _ in 0..2 {
            3usize.encode(&mut out); // nodes, in pre-order
            1u8.encode(&mut out);
            feature.encode(&mut out);
            threshold.encode(&mut out);
            gain.encode(&mut out);
            0u8.encode(&mut out);
            leaf.encode(&mut out);
            0u8.encode(&mut out);
            0.5f64.encode(&mut out);
        }
        vec![-0.7f64, -0.7].encode(&mut out); // base scores
        2usize.encode(&mut out); // classes
        1usize.encode(&mut out); // features
        0.1f64.encode(&mut out); // learning rate
        vec![1.0f64].encode(&mut out); // importance
        out
    }

    #[test]
    fn crafted_frame_decodes_when_well_formed() {
        let model = GbdtClassifier::from_bytes(&crafted_frame(0, 0.5, 1.0, -0.5))
            .expect("well-formed frame");
        let p = model.predict_proba(&[0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decode_rejects_splits_on_missing_features() {
        // Would panic on `row[feature]` at the first `predict`.
        for feature in [1, 7, u32::MAX] {
            assert_eq!(
                GbdtClassifier::from_bytes(&crafted_frame(feature, 0.5, 1.0, -0.5)),
                Err(DecodeError::Invalid),
                "feature {feature}"
            );
        }
    }

    #[test]
    fn decode_rejects_non_finite_tree_numbers() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for frame in [
                crafted_frame(0, bad, 1.0, -0.5),
                crafted_frame(0, 0.5, bad, -0.5),
                crafted_frame(0, 0.5, 1.0, bad),
            ] {
                assert_eq!(
                    GbdtClassifier::from_bytes(&frame),
                    Err(DecodeError::Invalid)
                );
            }
        }
    }

    #[test]
    fn config_decode_accepts_exactly_what_fit_accepts() {
        let (rows, labels) = blobs(4);
        let base = GbdtConfig {
            rounds: 2,
            ..GbdtConfig::small()
        };
        let mut configs = vec![
            base.clone(),
            GbdtConfig {
                rounds: 0,
                ..base.clone()
            },
            GbdtConfig {
                lambda: 0.0,
                gamma: 0.0,
                min_child_weight: 0.0,
                subsample: 1.0,
                colsample: 1.0,
                ..base.clone()
            },
            GbdtConfig {
                subsample: 1.5,
                ..base.clone()
            },
            GbdtConfig {
                colsample: 0.0,
                ..base.clone()
            },
        ];
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0] {
            configs.push(GbdtConfig {
                learning_rate: bad,
                ..base.clone()
            });
            configs.push(GbdtConfig {
                lambda: bad,
                ..base.clone()
            });
            configs.push(GbdtConfig {
                gamma: bad,
                ..base.clone()
            });
            configs.push(GbdtConfig {
                min_child_weight: bad,
                ..base.clone()
            });
            configs.push(GbdtConfig {
                subsample: bad,
                ..base.clone()
            });
            configs.push(GbdtConfig {
                colsample: bad,
                ..base.clone()
            });
        }
        for config in configs {
            let fits = std::panic::catch_unwind(|| GbdtClassifier::fit(&rows, &labels, 3, &config))
                .is_ok();
            let decodes = GbdtConfig::from_bytes(&config.to_bytes()).is_ok();
            assert_eq!(fits, decodes, "{config:?}");
        }
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_infinite_learning_rate() {
        let (rows, labels) = blobs(4);
        let config = GbdtConfig {
            learning_rate: f64::INFINITY,
            ..GbdtConfig::small()
        };
        GbdtClassifier::fit(&rows, &labels, 3, &config);
    }

    #[test]
    #[should_panic(expected = "regularizers must be >= 0")]
    fn rejects_infinite_lambda() {
        let (rows, labels) = blobs(4);
        let config = GbdtConfig {
            lambda: f64::INFINITY,
            ..GbdtConfig::small()
        };
        GbdtClassifier::fit(&rows, &labels, 3, &config);
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn zero_patience_rejected() {
        let (rows, labels) = blobs(5);
        GbdtClassifier::fit_with_validation(
            &rows,
            &labels,
            &rows,
            &labels,
            3,
            &GbdtConfig::small(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "labels must be < classes")]
    fn rejects_out_of_range_labels() {
        GbdtClassifier::fit(&[vec![0.0]], &[5], 3, &GbdtConfig::small());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        GbdtClassifier::fit(
            &[vec![0.0], vec![0.0, 1.0]],
            &[0, 1],
            2,
            &GbdtConfig::small(),
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(500))]

        /// Over random forests (tree counts mostly not a multiple of the
        /// walk width) and rows holding NaN, `±inf`, `±0` and threshold
        /// values, the interleaved walk gives the same score bits as one
        /// pointer walk per tree summed in round-major, per-class order.
        #[test]
        fn interleaved_scores_match_one_walk_per_tree(seed in 0u64..u64::MAX) {
            use crate::tree::oracle::{random_row, OracleTree};
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let classes = rng.gen_range(2..5usize);
            let features = rng.gen_range(1..6usize);
            let rounds = rng.gen_range(1..10usize);
            let forest: Vec<Vec<OracleTree>> = (0..rounds)
                .map(|_| {
                    (0..classes)
                        .map(|_| {
                            let max_depth = rng.gen_range(0..=8usize);
                            OracleTree::random(&mut rng, max_depth, features)
                        })
                        .collect()
                })
                .collect();
            let model = GbdtClassifier {
                trees: forest
                    .iter()
                    .map(|round| round.iter().map(|o| o.tree.clone()).collect())
                    .collect(),
                base_scores: (0..classes).map(|_| rng.gen_range(-2.0..0.0)).collect(),
                classes,
                features,
                learning_rate: rng.gen_range(0.01..1.0),
                importance: vec![0.0; features],
            };
            for _ in 0..6 {
                let row = random_row(&mut rng, features);
                let mut want = model.base_scores.clone();
                for round in &forest {
                    for (class, oracle) in round.iter().enumerate() {
                        want[class] += model.learning_rate * oracle.predict(&row);
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&model.decision_scores(&row)), bits(&want));
                proptest::prop_assert_eq!(bits(&model.predict_proba(&row)), bits(&softmax(&want)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature arity mismatch")]
    fn rejects_wrong_arity_at_predict() {
        let (rows, labels) = blobs(5);
        let model = GbdtClassifier::fit(&rows, &labels, 3, &GbdtConfig::small());
        model.predict(&[1.0, 2.0, 3.0]);
    }
}
