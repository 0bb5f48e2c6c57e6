//! Golden pins on the bytes of the CQC boosting model.
//!
//! The rows are the ones `CrowdLearnSystem::new` fits CQC on at boot: the
//! paper dataset's training split, queried on the paper platform seeded with
//! `platform_seed`, with the incentive level rotating every three queries.
//! Any change to the GBDT fit that moves one split, one threshold or one
//! leaf weight by a single bit changes these digests, so a pure speed-up of
//! the fit must leave them exactly as they are.

use crowdlearn::{CrowdLearnConfig, QualityController, QueryFeatures};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, TemporalContext};
use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig, SplitMode};
use serde::binary::Encode;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The CQC training set exactly as the system boot builds it.
fn boot_training_set() -> (Vec<Vec<f64>>, Vec<usize>) {
    let config = CrowdLearnConfig::paper();
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(config.platform_seed));
    let train = dataset.train();
    let mut rows = Vec::with_capacity(config.cqc_training_queries);
    let mut labels = Vec::with_capacity(config.cqc_training_queries);
    for i in 0..config.cqc_training_queries {
        let img = &train[i % train.len()];
        let context = TemporalContext::from_index(i % TemporalContext::COUNT);
        let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
        let response = platform.submit(img, level, context);
        rows.push(QueryFeatures::extract(&response));
        labels.push(img.truth().index());
    }
    (rows, labels)
}

fn assert_golden(name: &str, config: &GbdtConfig, len: usize, digest: u64) {
    let (rows, labels) = boot_training_set();
    let model = GbdtClassifier::fit(&rows, &labels, 3, config);
    let bytes = model.to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (len, digest),
        "{name}: model bytes moved (len, FNV-1a-64 = {:#018x})",
        fnv1a64(&bytes)
    );
}

#[test]
fn paper_cqc_model_bytes_are_pinned() {
    let config = QualityController::paper().config().clone();
    assert_golden("paper", &config, 450_510, 0x0533_2998_6ddb_0c10);
}

#[test]
fn histogram_cqc_model_bytes_are_pinned() {
    let config = GbdtConfig {
        split_mode: SplitMode::Histogram { bins: 32 },
        ..QualityController::paper().config().clone()
    };
    assert_golden("histogram", &config, 449_310, 0xae12_59e9_5e15_df4a);
}

#[test]
fn unsampled_cqc_model_bytes_are_pinned() {
    let config = GbdtConfig {
        subsample: 1.0,
        colsample: 1.0,
        ..QualityController::paper().config().clone()
    };
    assert_golden("unsampled", &config, 441_010, 0xa1bc_0e2f_597d_a1a8);
}
