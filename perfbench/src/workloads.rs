//! The three workloads. Each builds its inputs from the run's seed, runs
//! one op at a time (a closed loop, one thread), and checks every op's
//! output. A census touches, once per traced run, the layers the
//! workload's own ops do not call, so every per-layer metric has samples
//! on every workload.

use crate::layers::{
    clone_system, count_runtime, drain, fingerprint, fleet_run, posts, round_trip_run, staged_boot,
    staged_pass,
};
use crate::trace::Trace;
use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem, SchemeReport};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, FleetConfig, FleetOrchestrator, FleetReport, MetricsTap,
    PipelinedSystem, RuntimeConfig, RuntimeReport, ShardSpec, WindowPolicy,
};

/// What one checked op reports to the runner.
pub struct Summary {
    /// Simulated runtime events the op processed.
    pub events: u64,
    /// The op's user-facing results.
    pub quality: Quality,
}

/// The deterministic, user-facing results of a run.
#[derive(Clone, Copy)]
pub struct Quality {
    /// Mean label accuracy.
    pub accuracy: f64,
    /// Simulated seconds to the last label.
    pub makespan_secs: f64,
    /// Crowd spend in dollars.
    pub spend_usd: f64,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// What an op returns for checking (checked after the op's clock stops).
    type Output;
    /// Builds the workload's inputs and state from `seed`: the part timed
    /// as `setup_s`.
    fn setup(seed: u64) -> Result<Self, String>;
    /// A digest of what set-up built; repeated set-ups must agree.
    fn setup_digest(&self) -> u64;
    /// Untimed preparation after set-up: reference results for the checks.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Op `i`. Its inputs depend only on the seed and `i`.
    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<Self::Output, String>;
    /// Checks op `i`'s output.
    fn check(&mut self, i: usize, output: &Self::Output) -> Result<Summary, String>;
    /// Calls, once, the layers this workload's ops do not.
    fn census(&mut self, trace: &mut Trace) -> Result<(), String>;
    /// Checks run once after the timed ops.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// SplitMix64 of `seed` and `salt`: independent per-op and per-shard seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn quality(report: &SchemeReport, makespan_secs: f64) -> Quality {
    Quality {
        accuracy: report.accuracy(),
        makespan_secs,
        spend_usd: report.spent_usd(),
    }
}

fn expect_same(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: report differs from the reference"))
    }
}

fn snapshot_bytes(system: &PipelinedSystem) -> Result<Vec<u8>, String> {
    system
        .snapshot()
        .map(|snap| snap.to_bytes())
        .map_err(|e| format!("snapshot fails: {e}"))
}

fn fleet_bytes(fleet: &FleetOrchestrator) -> Result<Vec<u8>, String> {
    fleet
        .snapshot()
        .map(|snap| snap.to_bytes())
        .map_err(|e| format!("fleet snapshot fails: {e}"))
}

/// The census parts: a staged boot and blocking pass over `dataset` and
/// `stream`; with `every`, a tapped pipelined run that round-trips its
/// checkpoint every `every` events; with `fleet`, a one-shard fleet resumed
/// from its snapshot. Each part is checked against its plain counterpart.
fn census(
    dataset: &Dataset,
    stream: &SensingCycleStream,
    config: &CrowdLearnConfig,
    runtime: &RuntimeConfig,
    every: Option<u64>,
    fleet: bool,
    trace: &mut Trace,
) -> Result<(), String> {
    trace.span("dataset.generate", || Dataset::generate(dataset.config()));
    let boot = staged_boot(dataset, config.clone(), trace)?;
    trace.end_op(None);
    staged_pass(&boot, dataset, stream, trace)?;
    if let Some(every) = every {
        let mut system = PipelinedSystem::from_system(clone_system(&boot.system)?, runtime.clone());
        system.attach_metrics_tap(MetricsTap::new());
        let bytes = snapshot_bytes(&system)?;
        let want = round_trip_run(&bytes, dataset, stream, u64::MAX, &mut Trace::new(false))?;
        let got = round_trip_run(&bytes, dataset, stream, every, trace)?;
        trace.end_op(None);
        expect_same("census round trip", fingerprint(&got), fingerprint(&want))?;
    }
    if fleet {
        let datasets = [dataset.clone()];
        let streams = [stream.clone()];
        let mut orchestrator = FleetOrchestrator::new(
            vec![ShardSpec::new(config.clone(), runtime.clone())],
            FleetConfig::new(config.budget_cents),
            &datasets,
        );
        orchestrator.attach_metrics_taps();
        let bytes = fleet_bytes(&orchestrator)?;
        let want = fleet_run(&bytes, &datasets, &streams, &mut Trace::new(false))?;
        let got = fleet_run(&bytes, &datasets, &streams, trace)?;
        trace.end_op(None);
        expect_same("census fleet", fingerprint(&got), fingerprint(&want))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// cold_paper

/// Every op boots a paper system on a fresh-seed dataset and runs the
/// 40-cycle stream at window 4: the whole cost of one paper run.
pub struct ColdPaper {
    seed: u64,
    warmup_digest: u64,
    /// Report fingerprint per op index, to compare traced with untraced
    /// ops of the same seed and to check the final re-run.
    digests: Vec<Option<u64>>,
}

impl ColdPaper {
    /// Images the paper stream labels (40 cycles of 10).
    const LABELS: usize = 400;
    /// Seed salt of the set-up's warm-up op, apart from every op's.
    const WARMUP: u64 = u64::MAX;

    fn run(seed: u64, trace: &mut Trace) -> Result<RuntimeReport, String> {
        let (dataset, stream) = trace.span("dataset.generate", || {
            let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(seed));
            let stream = SensingCycleStream::paper(&dataset);
            (dataset, stream)
        });
        let config = CrowdLearnConfig::paper();
        let system = if trace.is_on() {
            staged_boot(&dataset, config, trace)?.system
        } else {
            CrowdLearnSystem::new(&dataset, config)
        };
        let boot_posts = posts(system.platform_stats());
        let mut pipelined = PipelinedSystem::from_system(system, RuntimeConfig::paper());
        let report = drain(&mut pipelined, &dataset, &stream, trace);
        count_runtime(
            trace,
            &report,
            posts(pipelined.system().platform_stats()) - boot_posts,
        );
        Ok(report)
    }
}

impl Workload for ColdPaper {
    type Output = RuntimeReport;

    fn setup(seed: u64) -> Result<Self, String> {
        // The set-up is one warm-up op on a seed no timed op uses: code
        // paths, allocator and caches settle before the first timed op.
        let warmup = Self::run(mix(seed, Self::WARMUP), &mut Trace::new(false))?;
        Ok(Self {
            seed,
            warmup_digest: fingerprint(&warmup),
            digests: Vec::new(),
        })
    }

    fn setup_digest(&self) -> u64 {
        self.warmup_digest
    }

    fn op(&mut self, i: usize, trace: &mut Trace) -> Result<RuntimeReport, String> {
        Self::run(mix(self.seed, i as u64), trace)
    }

    fn check(&mut self, i: usize, report: &RuntimeReport) -> Result<Summary, String> {
        let labeled: usize = report.outcomes.iter().map(|o| o.images.len()).sum();
        if labeled != Self::LABELS {
            return Err(format!("labeled {labeled} images, not {}", Self::LABELS));
        }
        let digest = fingerprint(report);
        if self.digests.len() <= i {
            self.digests.resize(i + 1, None);
        }
        match self.digests[i] {
            Some(want) => expect_same("cold op of a repeated seed", digest, want)?,
            None => self.digests[i] = Some(digest),
        }
        Ok(Summary {
            events: report.events_processed,
            quality: quality(&report.report, report.makespan_secs),
        })
    }

    fn census(&mut self, trace: &mut Trace) -> Result<(), String> {
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(mix(self.seed, 0)));
        let stream = SensingCycleStream::paper(&dataset);
        census(
            &dataset,
            &stream,
            &CrowdLearnConfig::paper(),
            &RuntimeConfig::paper(),
            Some(260),
            true,
            trace,
        )
    }

    fn finish(&mut self) -> Result<(), String> {
        let run = self.op(0, &mut Trace::new(false))?;
        self.check(0, &run).map(|_| ())
    }
}

// ---------------------------------------------------------------------------
// warm_fleet

/// Set-up boots a 4-shard fleet of 400-cycle streams once; every op
/// resumes it from the snapshot bytes and runs it to drain.
pub struct WarmFleet {
    datasets: Vec<Dataset>,
    streams: Vec<SensingCycleStream>,
    specs: Vec<ShardSpec>,
    bytes: Vec<u8>,
    reference: u64,
}

impl WarmFleet {
    const SHARDS: u64 = 4;
    const CYCLES: usize = 400;
    const IMAGES_PER_CYCLE: usize = 10;
    /// Budget and bandit horizon relative to the paper's 40-cycle run.
    const SCALE: f64 = 10.0;
    const TIMEOUT_SECS: f64 = 900.0;
    const ATTEMPTS: u32 = 3;

    fn spec(seed: u64, shard: u64) -> ShardSpec {
        let mut config = CrowdLearnConfig::paper().with_seed(mix(seed, 100 + shard));
        config.budget_cents *= Self::SCALE;
        config.horizon_queries *= Self::SCALE as u64;
        let paper = RuntimeConfig::paper();
        let period = paper.cycle_period_secs;
        let runtime = match shard {
            0 => paper.with_inflight_window(4),
            1 => paper.with_window_policy(WindowPolicy::adaptive(1, 8)),
            _ => {
                let timed = paper
                    .with_hit_timeout(Some(Self::TIMEOUT_SECS), Self::ATTEMPTS)
                    .with_escalation(true);
                if shard == 2 {
                    timed
                } else {
                    // A ten-cycle platform outage in the middle of the run.
                    let mid = (Self::CYCLES / 2) as f64 * period;
                    timed.with_faults(FaultPlan::new(
                        mix(seed, 200),
                        vec![FaultEpisode::PlatformOutage {
                            from_secs: mid,
                            until_secs: mid + 10.0 * period,
                        }],
                    ))
                }
            }
        };
        ShardSpec::new(config, runtime)
    }
}

impl Workload for WarmFleet {
    type Output = FleetReport;

    fn setup(seed: u64) -> Result<Self, String> {
        let datasets: Vec<Dataset> = (0..Self::SHARDS)
            .map(|k| {
                Dataset::generate(
                    &DatasetConfig::paper()
                        .with_total(560 + Self::CYCLES * Self::IMAGES_PER_CYCLE)
                        .with_seed(mix(seed, k)),
                )
            })
            .collect();
        let streams: Vec<SensingCycleStream> = datasets
            .iter()
            .map(|d| SensingCycleStream::new(d, Self::CYCLES, Self::IMAGES_PER_CYCLE))
            .collect();
        let specs: Vec<ShardSpec> = (0..Self::SHARDS).map(|k| Self::spec(seed, k)).collect();
        let budget = specs.iter().map(|s| s.config.budget_cents).sum();
        let mut fleet = FleetOrchestrator::new(specs.clone(), FleetConfig::new(budget), &datasets);
        fleet.attach_metrics_taps();
        let bytes = fleet_bytes(&fleet)?;
        Ok(Self {
            datasets,
            streams,
            specs,
            bytes,
            reference: 0,
        })
    }

    fn setup_digest(&self) -> u64 {
        fingerprint(&self.bytes)
    }

    fn prepare(&mut self) -> Result<(), String> {
        let first = fleet_run(
            &self.bytes,
            &self.datasets,
            &self.streams,
            &mut Trace::new(false),
        )?;
        self.reference = fingerprint(&first);
        Ok(())
    }

    fn op(&mut self, _: usize, trace: &mut Trace) -> Result<FleetReport, String> {
        fleet_run(&self.bytes, &self.datasets, &self.streams, trace)
    }

    fn check(&mut self, _: usize, report: &FleetReport) -> Result<Summary, String> {
        expect_same("fleet op", fingerprint(report), self.reference)?;
        let shards = report.shards.len() as f64;
        Ok(Summary {
            events: report.events_processed,
            quality: Quality {
                accuracy: report
                    .shards
                    .iter()
                    .map(|s| s.report.accuracy())
                    .sum::<f64>()
                    / shards,
                makespan_secs: report.makespan_secs,
                spend_usd: report.shards.iter().map(|s| s.report.spent_usd()).sum(),
            },
        })
    }

    fn census(&mut self, trace: &mut Trace) -> Result<(), String> {
        let spec = &self.specs[0];
        census(
            &self.datasets[0],
            &self.streams[0],
            &spec.config,
            &spec.runtime,
            Some(2000),
            false,
            trace,
        )
    }
}

// ---------------------------------------------------------------------------
// checkpoint_churn

/// Every op resumes the paper system (adaptive window 1..8) from its boot
/// snapshot and runs the stream with a full checkpoint round trip every
/// 13 events.
pub struct CheckpointChurn {
    dataset: Dataset,
    stream: SensingCycleStream,
    bytes: Vec<u8>,
    reference: u64,
}

impl CheckpointChurn {
    /// Events between round trips: about one per paper cycle.
    const EVERY: u64 = 13;

    fn runtime() -> RuntimeConfig {
        RuntimeConfig::paper().with_window_policy(WindowPolicy::adaptive(1, 8))
    }
}

impl Workload for CheckpointChurn {
    type Output = RuntimeReport;

    fn setup(seed: u64) -> Result<Self, String> {
        let dataset = Dataset::generate(&DatasetConfig::paper().with_seed(mix(seed, 0)));
        let stream = SensingCycleStream::paper(&dataset);
        let system = CrowdLearnSystem::new(&dataset, CrowdLearnConfig::paper());
        let bytes = snapshot_bytes(&PipelinedSystem::from_system(system, Self::runtime()))?;
        Ok(Self {
            dataset,
            stream,
            bytes,
            reference: 0,
        })
    }

    fn setup_digest(&self) -> u64 {
        fingerprint(&self.bytes)
    }

    fn prepare(&mut self) -> Result<(), String> {
        let uninterrupted = round_trip_run(
            &self.bytes,
            &self.dataset,
            &self.stream,
            u64::MAX,
            &mut Trace::new(false),
        )?;
        self.reference = fingerprint(&uninterrupted);
        Ok(())
    }

    fn op(&mut self, _: usize, trace: &mut Trace) -> Result<RuntimeReport, String> {
        round_trip_run(&self.bytes, &self.dataset, &self.stream, Self::EVERY, trace)
    }

    fn check(&mut self, _: usize, report: &RuntimeReport) -> Result<Summary, String> {
        expect_same("churned run", fingerprint(report), self.reference)?;
        Ok(Summary {
            events: report.events_processed,
            quality: quality(&report.report, report.makespan_secs),
        })
    }

    fn census(&mut self, trace: &mut Trace) -> Result<(), String> {
        census(
            &self.dataset,
            &self.stream,
            &CrowdLearnConfig::paper(),
            &Self::runtime(),
            None,
            true,
            trace,
        )
    }
}
