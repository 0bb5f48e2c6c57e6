//! Golden pins on the payload bytes of runtime snapshots.
//!
//! A snapshot frame is a 28-byte header (magic, format version, payload
//! length, checksum) followed by the payload. These tests pin the length
//! and an FNV-1a-64 digest of everything after the header, for a paper boot
//! snapshot and for a mid-run checkpoint of a faulted, tapped run. A change
//! to the frame (its checksum or version field) leaves them alone; a change
//! to any codec that moves one payload byte breaks them.
//!
//! Recorded at format v7, whose pre-order tree records dropped the child
//! indices and narrowed split features to `u32`. The paper boot payload
//! shrank by exactly what its CQC model's bytes did (457,052 → 280,452
//! bytes, the model 450,510 → 273,910), and
//! `tests/cqc_model_golden.rs` checks that model against its v6 digest.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, MetricsTap, PipelinedSystem, RunBound, RuntimeConfig,
};

/// Magic, version, payload length and checksum.
const HEADER: usize = 8 + 4 + 8 + 8;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_golden(name: &str, system: &PipelinedSystem, len: usize, digest: u64) {
    let bytes = system.snapshot().expect("checkpointable").to_bytes();
    let payload = &bytes[HEADER..];
    assert_eq!(
        (payload.len(), fnv1a64(payload)),
        (len, digest),
        "{name}: snapshot payload bytes moved (len, FNV-1a-64 = {:#018x})",
        fnv1a64(payload)
    );
}

#[test]
fn paper_boot_snapshot_payload_is_pinned() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), RuntimeConfig::paper());
    assert_golden("paper boot", &system, 280_452, 0xabb6_d9b2_286b_bcbf);
}

#[test]
fn mid_run_faulted_tapped_snapshot_payload_is_pinned() {
    // Outage, attrition, answer loss and a budget shock, cut mid-outage:
    // in-flight HITs, an open breaker, parked cycles and the tap all ride
    // in the payload.
    let plan = FaultPlan::new(
        0xFA017,
        vec![
            FaultEpisode::PlatformOutage {
                from_secs: 900.0,
                until_secs: 2_100.0,
            },
            FaultEpisode::WorkerAttrition {
                fraction: 0.5,
                from_secs: 2_100.0,
                until_secs: 3_300.0,
            },
            FaultEpisode::AnswerLoss {
                prob: 0.5,
                from_secs: 3_300.0,
                until_secs: 4_500.0,
            },
            FaultEpisode::BudgetShock {
                at_secs: 1_500.0,
                cents: 40.0,
            },
        ],
    );
    let runtime = RuntimeConfig::paper()
        .with_inflight_window(3)
        .with_hit_timeout(Some(150.0), 2)
        .with_faults(plan);
    let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(7));
    let stream = SensingCycleStream::new(&dataset, 8, 5);
    let mut system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), runtime);
    system.attach_metrics_tap(MetricsTap::new());
    assert!(system
        .run_until(&dataset, &stream, RunBound::VirtualTime(1_450.0))
        .is_none());
    assert_golden("mid-run faulted", &system, 289_115, 0x560c_a991_085b_64db);
}
