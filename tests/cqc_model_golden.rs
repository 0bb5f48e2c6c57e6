//! Golden pins on the bytes of the CQC boosting model.
//!
//! The rows are the ones `CrowdLearnSystem::new` fits CQC on at boot: the
//! paper dataset's training split, queried on the paper platform seeded with
//! `platform_seed`, with the incentive level rotating every three queries.
//! Any change to the GBDT fit that moves one split, one threshold or one
//! leaf weight by a single bit changes these digests, so a pure speed-up of
//! the fit must leave them exactly as they are.
//!
//! Each model is pinned in two layouts. The wire layout (snapshot format
//! v7) writes every tree as pre-order records with implicit children. The
//! v6 layout, which the first digests were recorded in, gave every split an
//! 8-byte feature and 8-byte left and right child indices. A transcoder in
//! this file, written apart from the crate's codec, rebuilds the v6 bytes
//! from the v7 ones, so the models are still checked against the digests
//! recorded before the format change.

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

/// A little-endian cursor over the model bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let field = &self.bytes[self.at..self.at + n];
        self.at += n;
        field
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// One v7 tree record: a leaf's weight bits, or a split's feature,
/// threshold bits and gain bits.
enum Record {
    Leaf(u64),
    Split(u32, u64, u64),
}

/// Fills in the children of the subtree whose root is record `at` (its
/// left child is the next record, its right child the record after the
/// left subtree) and returns the index one past the subtree.
fn link(records: &[Record], at: usize, children: &mut [(u64, u64)]) -> usize {
    match records[at] {
        Record::Leaf(_) => at + 1,
        Record::Split(..) => {
            let left = at + 1;
            let right = link(records, left, children);
            children[at] = (left as u64, right as u64);
            link(records, right, children)
        }
    }
}

/// The model's bytes in the v6 layout, rebuilt from its v7 bytes: each tree
/// is read as pre-order records, given child indices from its shape and
/// written with 8-byte features and children. Everything after the trees
/// is copied as it is.
fn transcode_to_v6(v7: &[u8]) -> Vec<u8> {
    let mut c = Cursor { bytes: v7, at: 0 };
    let mut v6 = Vec::with_capacity(v7.len() * 2);
    let rounds = c.u64();
    v6.extend_from_slice(&rounds.to_le_bytes());
    for _ in 0..rounds {
        let trees = c.u64();
        v6.extend_from_slice(&trees.to_le_bytes());
        for _ in 0..trees {
            let count = c.u64();
            v6.extend_from_slice(&count.to_le_bytes());
            let records: Vec<Record> = (0..count)
                .map(|_| match c.take(1)[0] {
                    0 => Record::Leaf(c.u64()),
                    1 => {
                        let feature = u32::from_le_bytes(c.take(4).try_into().expect("4 bytes"));
                        Record::Split(feature, c.u64(), c.u64())
                    }
                    tag => panic!("unknown tree record tag {tag}"),
                })
                .collect();
            let mut children = vec![(0, 0); records.len()];
            assert_eq!(
                link(&records, 0, &mut children),
                records.len(),
                "one whole tree"
            );
            for (record, (left, right)) in records.iter().zip(children) {
                match *record {
                    Record::Leaf(weight) => {
                        v6.push(0);
                        v6.extend_from_slice(&weight.to_le_bytes());
                    }
                    Record::Split(feature, threshold, gain) => {
                        v6.push(1);
                        for field in [u64::from(feature), threshold, gain, left, right] {
                            v6.extend_from_slice(&field.to_le_bytes());
                        }
                    }
                }
            }
        }
    }
    v6.extend_from_slice(&v7[c.at..]);
    v6
}

/// Pins the model fitted with `config` in both layouts: `(len, FNV-1a)` of
/// its wire bytes and of their v6 transcoding.
fn assert_golden(name: &str, config: &GbdtConfig, v7: (usize, u64), v6: (usize, u64)) {
    let (rows, labels) = boot_training_set();
    let model = GbdtClassifier::fit(&rows, &labels, 3, config);
    let bytes = model.to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        v7,
        "{name}: model bytes moved (len, FNV-1a-64 = {:#018x})",
        fnv1a64(&bytes)
    );
    let old = transcode_to_v6(&bytes);
    assert_eq!(
        (old.len(), fnv1a64(&old)),
        v6,
        "{name}: v6 transcoding moved (len, FNV-1a-64 = {:#018x})",
        fnv1a64(&old)
    );
}

#[test]
fn paper_cqc_model_bytes_are_pinned() {
    let config = QualityController::paper().config().clone();
    assert_golden(
        "paper",
        &config,
        (273_910, 0xe58f_63f2_983e_4918),
        (450_510, 0x0533_2998_6ddb_0c10),
    );
}

#[test]
fn histogram_cqc_model_bytes_are_pinned() {
    let config = GbdtConfig {
        split_mode: SplitMode::Histogram { bins: 32 },
        ..QualityController::paper().config().clone()
    };
    assert_golden(
        "histogram",
        &config,
        (273_190, 0x6478_aedb_11cf_5f08),
        (449_310, 0xae12_59e9_5e15_df4a),
    );
}

#[test]
fn unsampled_cqc_model_bytes_are_pinned() {
    let config = GbdtConfig {
        subsample: 1.0,
        colsample: 1.0,
        ..QualityController::paper().config().clone()
    };
    assert_golden(
        "unsampled",
        &config,
        (268_210, 0x0816_0067_556f_eb30),
        (441_010, 0xa1bc_0e2f_597d_a1a8),
    );
}
