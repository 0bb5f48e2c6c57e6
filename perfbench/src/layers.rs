//! Calls into each layer's public API, timed from outside the crates.
//!
//! `staged_boot` is `CrowdLearnSystem::new` taken apart: the same calls in
//! the same order (committee training, the CQC bootstrap submits and fit,
//! the bandit warm-up), each under its own span, and the parts joined
//! through the system's state codec. A traced op checks its report against
//! the untraced op of the same seed, which boots with
//! `CrowdLearnSystem::new`, so a boot that drifts from this mirror shows up
//! as a failed op rather than as a silently different measurement.

use crate::trace::{now, secs_since, Trace};
use crowdlearn::{
    Committee, CrowdLearnConfig, CrowdLearnSystem, IncentivePolicy, IncentivePolicyKind,
    PayoffNormalizer, QualityController, QuerySetSelector,
};
use crowdlearn_bandit::{BanditConfig, ExpWeights, UcbAlp};
use crowdlearn_classifiers::{profiles, Classifier};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig, PlatformStats};
use crowdlearn_dataset::{Dataset, LabeledImage, SensingCycleStream, TemporalContext};
use crowdlearn_runtime::{
    FleetOrchestrator, FleetReport, FleetSnapshot, PipelinedSystem, RunBound, RuntimeReport,
    RuntimeSnapshot,
};
use serde::binary::{Encode, Reader};
use std::fmt::Write as _;

/// A system booted through [`staged_boot`], plus standalone copies of the
/// committee and CQC model for timing their inference calls directly.
pub struct StagedBoot {
    pub system: CrowdLearnSystem,
    pub committee: Committee,
    pub cqc: QualityController,
}

/// Boots a system like `CrowdLearnSystem::new`, timing each phase:
/// `classifiers.train`, `crowd.submit`, `cqc.fit`, `ipd.warmup`, and the
/// whole boot as `core.boot`. Only the paper's UCB-ALP policy is mirrored.
pub fn staged_boot(
    dataset: &Dataset,
    config: CrowdLearnConfig,
    trace: &mut Trace,
) -> Result<StagedBoot, String> {
    if config.policy != IncentivePolicyKind::UcbAlp {
        return Err("staged boot mirrors the UCB-ALP policy only".into());
    }
    let start = now();
    let covered_before = trace.covered();
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(config.platform_seed));

    let members = trace.span("classifiers.train", || {
        let train: Vec<LabeledImage> = dataset
            .train()
            .iter()
            .cloned()
            .map(LabeledImage::ground_truth)
            .collect();
        let mut members = profiles::paper_committee(config.seed);
        for expert in &mut members {
            expert.retrain(&train);
        }
        members
    });

    let train = dataset.train();
    let mut cqc = QualityController::paper();
    let mut examples = Vec::with_capacity(config.cqc_training_queries);
    for i in 0..config.cqc_training_queries {
        let img = &train[i % train.len()];
        let context = TemporalContext::from_index(i % TemporalContext::COUNT);
        let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
        let resp = trace.span("crowd.submit", || platform.submit(img, level, context));
        examples.push((resp, img.truth()));
    }
    trace.count("crowd.submits", examples.len() as u64);
    if !examples.is_empty() {
        trace.span("cqc.fit", || cqc.train(&examples));
        trace.count("cqc.fit_rows", examples.len() as u64);
    }

    let bandit_config = BanditConfig::new(
        TemporalContext::COUNT,
        IncentiveLevel::costs(),
        config.budget_cents,
        config.horizon_queries,
    )
    .with_context_distribution(vec![
        1.0 / TemporalContext::COUNT as f64;
        TemporalContext::COUNT
    ]);
    let bandit = UcbAlp::new(bandit_config, config.seed ^ 0xa1);
    let mut ipd = IncentivePolicy::new(Box::new(bandit), PayoffNormalizer::paper());
    let mut warm_i = 0usize;
    for _ in 0..config.warmup_per_cell {
        for &context in &TemporalContext::ALL {
            for &level in &IncentiveLevel::ALL {
                let img = &train[warm_i % train.len()];
                warm_i += 1;
                let resp = trace.span("crowd.submit", || platform.submit(img, level, context));
                trace.count("crowd.submits", 1);
                trace.span("ipd.warmup", || {
                    ipd.report_delay(context, level, resp.completion_delay_secs)
                });
            }
        }
    }

    // Join the parts in `CrowdLearnSystem::encode_state` order.
    let hedge = ExpWeights::new(members.len(), config.hedge_eta);
    let mut state = Vec::new();
    config.encode(&mut state);
    members.encode(&mut state);
    hedge.encode(&mut state);
    QuerySetSelector::new(config.epsilon, config.seed ^ 0x9557).encode(&mut state);
    ipd.save_state()
        .ok_or("UCB-ALP has a saved state")?
        .encode(&mut state);
    ipd.normalizer().encode(&mut state);
    ipd.observations().encode(&mut state);
    cqc.encode(&mut state);
    platform.encode(&mut state);
    platform.spent_cents().encode(&mut state);
    let system = CrowdLearnSystem::decode_state(&mut Reader::new(&state))
        .map_err(|e| format!("staged boot state does not decode: {e:?}"))?;

    let boot_secs = secs_since(start);
    trace.outer("core.boot", boot_secs);
    trace.sample(
        "trace.boot_coverage",
        (trace.covered() - covered_before) / boot_secs,
    );
    let boxed: Vec<Box<dyn Classifier>> = members
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Classifier>)
        .collect();
    Ok(StagedBoot {
        system,
        committee: Committee::from_parts(boxed, hedge),
        cqc,
    })
}

/// Runs the blocking loop stage by stage (`core.start_cycle`,
/// `core.post_next_query`, `core.absorb_answer`, `core.finalize_cycle`),
/// timing the committee's batch inference and CQC inference on the same
/// inputs through the standalone copies. Checks the outcomes against
/// `CrowdLearnSystem::run_cycle` on an identical copy of the system.
pub fn staged_pass(
    boot: &StagedBoot,
    dataset: &Dataset,
    stream: &SensingCycleStream,
    trace: &mut Trace,
) -> Result<(), String> {
    let mut system = clone_system(&boot.system)?;
    let mut reference = clone_system(&boot.system)?;
    let mut outcomes = Vec::with_capacity(stream.cycles().len());
    for cycle in stream.cycles() {
        let images = cycle.images(dataset);
        trace.span("classifiers.votes_batch", || {
            boot.committee.votes_batch(&images)
        });
        let mut work = trace.span("core.start_cycle", || system.start_cycle(cycle, dataset));
        while let Some(posted) = trace.span("core.post_next_query", || {
            system.post_next_query(&mut work, cycle, dataset)
        }) {
            let response = posted.pending.into_response();
            trace.span("cqc.infer", || boot.cqc.infer(&response));
            trace.count("cqc.infers", 1);
            let timely = system.answer_is_timely(&response);
            trace.span("core.absorb_answer", || {
                system.absorb_answer(&mut work, posted.image_index, &response, timely)
            });
        }
        let outcome = trace.span("core.finalize_cycle", || {
            system.finalize_cycle(work, cycle, dataset)
        });
        outcomes.push(outcome);
    }
    trace.end_op(None);
    let expected: Vec<_> = stream
        .cycles()
        .iter()
        .map(|cycle| reference.run_cycle(cycle, dataset))
        .collect();
    if fingerprint(&outcomes) != fingerprint(&expected) {
        return Err("staged blocking pass differs from CrowdLearnSystem::run_cycle".into());
    }
    Ok(())
}

/// An independent copy of `system` through its state codec.
pub fn clone_system(system: &CrowdLearnSystem) -> Result<CrowdLearnSystem, String> {
    let mut state = Vec::new();
    system
        .encode_state(&mut state)
        .map_err(|e| format!("system state does not encode: {e}"))?;
    CrowdLearnSystem::decode_state(&mut Reader::new(&state))
        .map_err(|e| format!("system state does not decode: {e:?}"))
}

/// Drives `system` to drain. Traced, every `PipelinedSystem::step` is a
/// `runtime.step` span; untraced, it is one `run_until` call.
pub fn drain(
    system: &mut PipelinedSystem,
    dataset: &Dataset,
    stream: &SensingCycleStream,
    trace: &mut Trace,
) -> RuntimeReport {
    advance(system, dataset, stream, u64::MAX, trace)
        .expect("invariant: an unbounded advance drains the queue")
}

/// Runs at most `events` events; the report when the queue drains. Traced,
/// steps one event at a time; `run_until(Events(0))` then reports a drained
/// queue exactly where `run_until(Events(events))` would.
fn advance(
    system: &mut PipelinedSystem,
    dataset: &Dataset,
    stream: &SensingCycleStream,
    events: u64,
    trace: &mut Trace,
) -> Option<RuntimeReport> {
    if !trace.is_on() {
        return system.run_until(dataset, stream, RunBound::Events(events));
    }
    let mut n = 0;
    while n < events && trace.span("runtime.step", || system.step(dataset, stream)) {
        n += 1;
    }
    trace.span("runtime.finish", || {
        system.run_until(dataset, stream, RunBound::Events(0))
    })
}

/// Resumes from `bytes` (a `RuntimeSnapshot` frame) and runs to drain with
/// a full checkpoint round trip every `every` events: `snapshot` +
/// `to_bytes` (`snapshot.encode`), `from_bytes` + `resume`
/// (`snapshot.decode`).
pub fn round_trip_run(
    bytes: &[u8],
    dataset: &Dataset,
    stream: &SensingCycleStream,
    every: u64,
    trace: &mut Trace,
) -> Result<RuntimeReport, String> {
    let decode = |bytes: &[u8]| {
        RuntimeSnapshot::from_bytes(bytes)
            .and_then(|snap| PipelinedSystem::resume(&snap, stream))
            .map_err(|e| format!("snapshot does not resume: {e}"))
    };
    let mut system = trace.span("snapshot.decode", || decode(bytes))?;
    let boot_posts = posts(system.system().platform_stats());
    let mut trips = 0;
    let mut encoded = 0;
    let report = loop {
        if let Some(report) = advance(&mut system, dataset, stream, every, trace) {
            break report;
        }
        let frame = trace.span("snapshot.encode", || {
            system.snapshot().map(|snap| snap.to_bytes())
        });
        let frame = frame.map_err(|e| format!("snapshot fails: {e}"))?;
        system = trace.span("snapshot.decode", || decode(&frame))?;
        trips += 1;
        encoded += frame.len() as u64;
    };
    trace.count("snapshot.round_trips", trips);
    trace.count("snapshot.bytes", encoded);
    count_runtime(
        trace,
        &report,
        posts(system.system().platform_stats()) - boot_posts,
    );
    Ok(report)
}

/// Resumes a fleet from `bytes` (a `FleetSnapshot` frame, `fleet.resume`)
/// and runs it to drain. Traced, every `FleetOrchestrator::step` is a
/// `fleet.step` span.
pub fn fleet_run(
    bytes: &[u8],
    datasets: &[Dataset],
    streams: &[SensingCycleStream],
    trace: &mut Trace,
) -> Result<FleetReport, String> {
    let mut fleet = trace
        .span("fleet.resume", || {
            FleetSnapshot::from_bytes(bytes)
                .and_then(|snap| FleetOrchestrator::resume(&snap, streams))
        })
        .map_err(|e| format!("fleet snapshot does not resume: {e}"))?;
    let report = if trace.is_on() {
        while trace.span("fleet.step", || fleet.step(datasets, streams)) {}
        trace
            .span("fleet.finish", || {
                fleet.run_until(datasets, streams, RunBound::Events(0))
            })
            .ok_or("a drained fleet reports")?
    } else {
        fleet.run(datasets, streams)
    };
    trace.count("fleet.snapshot_bytes", bytes.len() as u64);
    let posted = (0..fleet.shards())
        .map(|i| fleet.shard_usage(i).queries)
        .sum();
    for shard in &report.shards {
        count_runtime(trace, shard, 0);
    }
    trace.count("runtime.hits_posted", posted);
    Ok(report)
}

/// Counts a run's runtime work: the report's event, repost, timeout,
/// rejection and degradation tallies, the answers its cycles absorbed, the
/// first-attempt posts, and its tap's records.
pub fn count_runtime(trace: &mut Trace, report: &RuntimeReport, first_posts: u64) {
    trace.count("runtime.events", report.events_processed);
    trace.count("runtime.hits_posted", first_posts);
    trace.count("runtime.reposts", report.reposts);
    trace.count("runtime.timeouts", report.timeouts);
    trace.count("runtime.posts_rejected", report.posts_rejected);
    trace.count("runtime.degraded_cycles", report.degraded_cycles);
    let answers: usize = report
        .outcomes
        .iter()
        .map(|o| o.query_delay_secs.len())
        .sum();
    trace.count("runtime.answers_used", answers as u64);
    if let Some(tap) = &report.metrics {
        trace.count("tap.records", tap.records());
    }
}

/// First-attempt posts booked on a platform, over every context.
pub fn posts(stats: &PlatformStats) -> u64 {
    TemporalContext::ALL
        .iter()
        .map(|&c| stats.queries_in(c))
        .sum()
}

/// FNV-1a over a value's `Debug` text: equal fingerprints mean byte-equal
/// reports (every `f64` prints as its shortest exact representation).
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("invariant: hashing never fails");
    h.0
}
