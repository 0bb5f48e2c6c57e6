//! Multiclass gradient-boosted decision trees, built from scratch.
//!
//! The paper's Crowd Quality Control module trains "the state-of-art gradient
//! boosting model (XGBoost)" on worker labels plus questionnaire answers to
//! recover truthful labels. XGBoost itself is not available offline, so this
//! crate implements the same algorithm family:
//!
//! * second-order boosting with the softmax (multi-class log-loss)
//!   objective: per round one regression tree per class is fit to the
//!   gradient/hessian pairs `g = p - y`, `h = p (1 - p)`,
//! * exact greedy split finding with L2 leaf regularization (`lambda`),
//!   minimum-gain pruning (`gamma`) and minimum child hessian weight,
//! * shrinkage (`learning_rate`), row subsampling and per-tree column
//!   subsampling,
//! * gain-based feature importances.
//!
//! The datasets CQC sees are small (hundreds of rows, tens of features), so
//! exact greedy splitting is the right engineering choice — no histograms
//! needed. It runs on XGBoost's presorted "column block" layout (Chen &
//! Guestrin, KDD'16): each feature is ranked once per fit, each round's
//! subsample is counting-sorted by rank once per feature and shared by that
//! round's class trees, and each tree splits its nodes by stable partitions
//! of those sorted blocks — `O(m)` per feature per tree level for `m`
//! sampled rows, with no per-node sort. The trees are bit-identical to the
//! textbook recursive builder (sort every node's rows per feature), which
//! the unit tests keep as their oracle.
//!
//! # Example
//!
//! ```
//! use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
//!
//! // A linearly separable toy problem.
//! let rows = vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]];
//! let labels = vec![0, 0, 1, 1];
//! let model = GbdtClassifier::fit(&rows, &labels, 2, &GbdtConfig::small());
//! assert_eq!(model.predict(&[0.1]), 0);
//! assert_eq!(model.predict(&[0.9]), 1);
//! ```

//! Determinism: a simulation crate under `detlint` rules D1-D6 (DESIGN.md
//! "Determinism invariants") — BTree collections only, virtual time only,
//! seeded RNG only.
//!
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod tree;

pub use model::{GbdtClassifier, GbdtConfig};
pub use tree::{RegressionTree, SplitMode};
