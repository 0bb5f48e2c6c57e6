//! The fleet orchestrator: N concurrent disaster streams over one shared
//! worker pool and one budget ledger.
//!
//! The paper evaluates CrowdLearn one disaster at a time; a production
//! deployment serves many. This module runs N independent
//! [`crate::PipelinedSystem`]s as *shards* — one per
//! [`SensingCycleStream`] — multiplexed into a single deterministic global
//! event order, with two fleet-level couplings the single-stream runtime
//! cannot express:
//!
//! * **Shared worker pool.** Crowd workers are a finite resource. Each
//!   shard keeps its own RNG-private [`Platform`](crowdlearn_crowd::Platform)
//!   (so its drawn labels and base delays are exactly the single-stream
//!   ones), while the fleet tracks how many workers *other* shards have
//!   busy and defers every posted HIT by a queue wait that grows with that
//!   cross-stream utilization ([`PendingHit::defer_by`]
//!   (crowdlearn_crowd::PendingHit::defer_by)). A 1-shard fleet sees zero
//!   contention and is byte-identical to the bare pipelined run — pinned by
//!   `tests/determinism.rs`.
//! * **Shared budget ledger.** The fleet's crowd budget is split into
//!   per-shard quotas by an [`ArbitrationPolicy`] (fair-share or priority
//!   weights) at boot; each shard's incentive bandit plans against its
//!   quota, and the [`FleetLedger`] audits per-shard spend against it.
//!
//! Global determinism: each shard's `ExecState` keeps its own event queue;
//! the orchestrator always steps the shard whose next event is due
//! earliest, breaking virtual-time ties by shard index. That merge
//! preserves every shard's internal event order (so per-shard behavior
//! matches the standalone runtime wherever contention is zero) and is a
//! pure function of the shard set — same seeds, same shards, byte-identical
//! fleet report.
//!
//! The whole fleet checkpoints into a [`FleetSnapshot`] (own magic,
//! version, payload checksum) embedding one framed [`RuntimeSnapshot`] per
//! shard plus the pool and ledger state; resume is byte-identical at any
//! global event boundary.

use crate::snapshot::frame_checksum;
use crate::{
    MetricsTap, MetricsTapConfig, PipelinedSystem, RunBound, RuntimeConfig, RuntimeReport,
    RuntimeSnapshot, SnapshotError,
};
use crowdlearn::{CrowdLearnConfig, PostedQuery};
use crowdlearn_crowd::{SubmitterId, SubmitterUsage};
use crowdlearn_dataset::{Dataset, SensingCycleStream};
use crowdlearn_metrics::{QuantileSketch, SketchGridMismatch};
use serde::binary::{encode_bytes, Decode, DecodeError, Encode, Reader};

// ---------------------------------------------------------------------------
// Configuration

/// How the fleet budget is split into per-shard quotas at boot.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbitrationPolicy {
    /// Every shard gets an equal share of the fleet budget.
    FairShare,
    /// Shard `i` gets `weights[i] / Σweights` of the fleet budget — e.g. a
    /// just-struck disaster outranks a week-old one. Weights must be
    /// positive and finite, one per shard.
    Priority(Vec<f64>),
}

impl ArbitrationPolicy {
    /// The per-shard budget quotas, in cents.
    fn quotas_cents(&self, fleet_budget_cents: f64, shards: usize) -> Vec<f64> {
        match self {
            ArbitrationPolicy::FairShare => {
                // `budget × (1/N)` so the 1-shard quota is the budget to
                // the last bit (`× 1.0` is exact) — the parity test relies
                // on the shard's bandit seeing the untouched budget.
                let share = 1.0 / shards as f64;
                (0..shards).map(|_| fleet_budget_cents * share).collect()
            }
            ArbitrationPolicy::Priority(weights) => {
                assert_eq!(
                    weights.len(),
                    shards,
                    "one priority weight per shard required"
                );
                let total: f64 = weights.iter().sum();
                weights
                    .iter()
                    .map(|w| fleet_budget_cents * (w / total))
                    .collect()
            }
        }
    }

    fn validate(&self) {
        if let ArbitrationPolicy::Priority(weights) = self {
            assert!(
                !weights.is_empty() && weights.iter().all(|w| w.is_finite() && *w > 0.0),
                "priority weights must be positive and finite"
            );
        }
    }
}

/// Fleet-level configuration: the shared pool's capacity, the contention
/// response, and the budget arbitration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Workers the shared pool holds. Contention kicks in as other shards'
    /// busy workers approach this capacity.
    pub pool_capacity: usize,
    /// Contention strength α: a posted HIT whose competitors have
    /// utilization `u` of the pool waits `α · base_completion · u/(1−u)`
    /// extra seconds (u clamped at 0.95). Zero disables contention.
    pub contention_alpha: f64,
    /// Total crowd budget across the fleet, in cents.
    pub fleet_budget_cents: f64,
    /// How the budget splits into per-shard quotas.
    pub arbitration: ArbitrationPolicy,
}

impl FleetConfig {
    /// A fleet sharing the paper platform's 80-worker pool at unit
    /// contention strength, fair-share budget split.
    pub fn new(fleet_budget_cents: f64) -> Self {
        Self {
            pool_capacity: 80,
            contention_alpha: 1.0,
            fleet_budget_cents,
            arbitration: ArbitrationPolicy::FairShare,
        }
    }

    /// Sets the shared pool capacity.
    pub fn with_pool_capacity(mut self, workers: usize) -> Self {
        self.pool_capacity = workers;
        self
    }

    /// Sets the contention strength α (zero disables contention).
    pub fn with_contention_alpha(mut self, alpha: f64) -> Self {
        self.contention_alpha = alpha;
        self
    }

    /// Sets the budget arbitration policy.
    pub fn with_arbitration(mut self, arbitration: ArbitrationPolicy) -> Self {
        self.arbitration = arbitration;
        self
    }

    fn validate(&self) {
        assert!(self.pool_capacity > 0, "pool capacity must be positive");
        assert!(
            self.contention_alpha.is_finite() && self.contention_alpha >= 0.0,
            "contention alpha must be finite and non-negative"
        );
        assert!(
            self.fleet_budget_cents.is_finite() && self.fleet_budget_cents >= 0.0,
            "fleet budget must be finite and non-negative"
        );
        self.arbitration.validate();
    }

    fn is_valid(&self) -> bool {
        self.pool_capacity > 0
            && self.contention_alpha.is_finite()
            && self.contention_alpha >= 0.0
            && self.fleet_budget_cents.is_finite()
            && self.fleet_budget_cents >= 0.0
            && match &self.arbitration {
                ArbitrationPolicy::FairShare => true,
                ArbitrationPolicy::Priority(w) => {
                    !w.is_empty() && w.iter().all(|x| x.is_finite() && *x > 0.0)
                }
            }
    }
}

/// One shard's own configuration: the CrowdLearn system settings (its
/// `budget_cents` is *overridden* by the shard's fleet quota at boot) and
/// the runtime scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The shard's CrowdLearn configuration (seeds, queries per cycle, …).
    pub config: CrowdLearnConfig,
    /// The shard's event-loop scheduling (window, timeout, cadence).
    pub runtime: RuntimeConfig,
}

impl ShardSpec {
    /// Bundles a shard's system and runtime configuration.
    pub fn new(config: CrowdLearnConfig, runtime: RuntimeConfig) -> Self {
        Self { config, runtime }
    }
}

// ---------------------------------------------------------------------------
// Shared worker pool

/// One shard's claim on pool workers until a virtual instant.
#[derive(Debug, Clone, PartialEq)]
struct BusyInterval {
    shard: usize,
    workers: usize,
    until_secs: f64,
}

/// The fleet's capacity model of the crowd: who has how many workers busy
/// until when, and how much queue wait that inflicted on whom.
///
/// Contention is *cross-stream only*: a shard's wait is driven by the
/// workers **other** shards have busy — within-stream load is already part
/// of each platform's pilot-calibrated delay model, and counting it here
/// would double-book it (and break 1-shard parity with the standalone
/// runtime).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SharedWorkerPool {
    capacity: usize,
    alpha: f64,
    busy: Vec<BusyInterval>,
    total_wait_secs: f64,
    waits_applied: u64,
    posts: u64,
    peak_busy_workers: usize,
}

impl SharedWorkerPool {
    fn new(capacity: usize, alpha: f64) -> Self {
        Self {
            capacity,
            alpha,
            busy: Vec::new(),
            total_wait_secs: 0.0,
            waits_applied: 0,
            posts: 0,
            peak_busy_workers: 0,
        }
    }

    /// Drops claims that have expired by `now`. Retention preserves
    /// insertion order, so the surviving list is deterministic.
    fn expire(&mut self, now_secs: f64) {
        self.busy.retain(|b| b.until_secs > now_secs);
    }

    /// The queue wait a HIT posted by `shard` at `now` suffers before any
    /// worker picks it up: `α · base · u/(1−u)` where `u` is the *other*
    /// shards' busy share of capacity, clamped at 0.95 so a saturated pool
    /// yields a large-but-finite (19α·base) multiplier.
    fn queue_wait_secs(&mut self, shard: usize, base_completion_secs: f64, now_secs: f64) -> f64 {
        self.expire(now_secs);
        self.posts += 1;
        let others: usize = self
            .busy
            .iter()
            .filter(|b| b.shard != shard)
            .map(|b| b.workers)
            .sum();
        let u = (others as f64 / self.capacity as f64).min(0.95);
        let wait = self.alpha * base_completion_secs * (u / (1.0 - u));
        if wait > 0.0 {
            self.total_wait_secs += wait;
            self.waits_applied += 1;
        }
        wait
    }

    /// Claims `workers` for `shard` until `until_secs` (the HIT's deferred
    /// completion instant).
    fn occupy(&mut self, shard: usize, workers: usize, until_secs: f64) {
        assert!(
            until_secs.is_finite() && until_secs >= 0.0,
            "busy-until must be finite and non-negative"
        );
        self.busy.push(BusyInterval {
            shard,
            workers,
            until_secs,
        });
        let busy_now: usize = self.busy.iter().map(|b| b.workers).sum();
        self.peak_busy_workers = self.peak_busy_workers.max(busy_now);
    }

    fn contention(&self) -> ContentionStats {
        ContentionStats {
            posts: self.posts,
            waits_applied: self.waits_applied,
            total_wait_secs: self.total_wait_secs,
            peak_busy_workers: self.peak_busy_workers,
        }
    }
}

/// Fleet-level contention telemetry, exposed on [`FleetReport`] and via
/// [`FleetOrchestrator::contention`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentionStats {
    /// HITs posted across the fleet (every attempt, reposts included).
    pub posts: u64,
    /// Posts that suffered a non-zero queue wait.
    pub waits_applied: u64,
    /// Total queue-wait seconds inflicted by cross-stream contention.
    pub total_wait_secs: f64,
    /// Most pool workers ever simultaneously busy (all shards).
    pub peak_busy_workers: usize,
}

impl ContentionStats {
    /// Mean queue wait per posted HIT, in seconds (zero before any post).
    pub fn mean_wait_secs(&self) -> f64 {
        if self.posts == 0 {
            return 0.0;
        }
        self.total_wait_secs / self.posts as f64
    }
}

// ---------------------------------------------------------------------------
// Budget ledger

/// The fleet's budget book: per-shard quotas (set once, by the arbitration
/// policy) and per-shard spend (booked on every posted attempt).
///
/// Enforcement is delegated: each shard's incentive bandit is booted with
/// its quota as its whole budget, so a shard can never outspend its share —
/// the ledger is the audit trail that proves it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLedger {
    fleet_budget_cents: f64,
    quotas_cents: Vec<f64>,
    spent_cents: Vec<u64>,
}

impl FleetLedger {
    fn new(fleet_budget_cents: f64, arbitration: &ArbitrationPolicy, shards: usize) -> Self {
        Self {
            fleet_budget_cents,
            quotas_cents: arbitration.quotas_cents(fleet_budget_cents, shards),
            spent_cents: vec![0; shards],
        }
    }

    fn charge(&mut self, shard: usize, cents: u64) {
        self.spent_cents[shard] += cents;
        debug_assert!(
            (self.spent_cents[shard] as f64) <= self.quotas_cents[shard] + 1e-9,
            "shard {shard} outspent its quota"
        );
    }

    /// Number of shards the ledger books.
    pub fn shards(&self) -> usize {
        self.quotas_cents.len()
    }

    /// The whole fleet's budget, in cents.
    pub fn fleet_budget_cents(&self) -> f64 {
        self.fleet_budget_cents
    }

    /// Shard `i`'s budget quota, in cents.
    pub fn quota_cents(&self, shard: usize) -> f64 {
        self.quotas_cents[shard]
    }

    /// Cents shard `i` has spent on evaluation posts so far.
    pub fn spent_cents(&self, shard: usize) -> u64 {
        self.spent_cents[shard]
    }

    /// Cents shard `i` still has under its quota.
    pub fn remaining_cents(&self, shard: usize) -> f64 {
        (self.quotas_cents[shard] - self.spent_cents[shard] as f64).max(0.0)
    }

    /// Total evaluation cents spent across the fleet.
    pub fn total_spent_cents(&self) -> u64 {
        self.spent_cents.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// The per-step hook the pipeline driver calls

/// The fleet context a shard's driver sees while handling one event:
/// contention deferral and ledger booking for every HIT it posts.
pub(crate) struct FleetHook<'a> {
    pub(crate) shard: usize,
    pub(crate) pool: &'a mut SharedWorkerPool,
    pub(crate) ledger: &'a mut FleetLedger,
}

impl FleetHook<'_> {
    /// Applies the shared pool to a freshly posted HIT: compute the queue
    /// wait from *other* shards' busy workers, defer the HIT's worker
    /// responses by it, claim this HIT's workers until its (deferred)
    /// completion, and book the spend against the shard.
    pub(crate) fn absorb_post(&mut self, now_secs: f64, posted: &mut PostedQuery) {
        let base = posted.pending.completion_delay_secs();
        let wait = self.pool.queue_wait_secs(self.shard, base, now_secs);
        posted.pending.defer_by(wait);
        let workers = posted.pending.response().responses.len();
        self.pool.occupy(
            self.shard,
            workers,
            now_secs + posted.pending.completion_delay_secs(),
        );
        self.ledger
            .charge(self.shard, u64::from(posted.incentive.cents()));
    }
}

// ---------------------------------------------------------------------------
// The orchestrator

/// What a fleet run produced: per-shard reports plus the fleet-level view.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Each shard's full [`RuntimeReport`], in shard order.
    pub shards: Vec<RuntimeReport>,
    /// Virtual time at which the *last* shard finished.
    pub makespan_secs: f64,
    /// Events processed across all shards.
    pub events_processed: u64,
    /// The final budget book: quotas and per-shard spend.
    pub ledger: FleetLedger,
    /// Cross-stream contention telemetry.
    pub contention: ContentionStats,
    /// Fleet-level crowd-delay rollup: the per-shard [`MetricsTap`] delay
    /// sketches merged into one, when taps were attached fleet-wide
    /// ([`FleetOrchestrator::attach_metrics_taps`]).
    pub rollup_crowd_delay: Option<QuantileSketch>,
}

/// N concurrent [`PipelinedSystem`] shards over one shared worker pool and
/// one budget ledger, stepped as a single deterministic event loop.
///
/// ```text
/// let mut fleet = FleetOrchestrator::new(specs, config, &datasets);
/// let report = fleet.run(&datasets, &streams);
/// ```
///
/// Like its single-stream counterpart, execution is reentrant
/// ([`FleetOrchestrator::step`] / [`FleetOrchestrator::run_until`]) and
/// checkpointable between any two events
/// ([`FleetOrchestrator::snapshot`] / [`FleetOrchestrator::resume`]).
pub struct FleetOrchestrator {
    config: FleetConfig,
    shards: Vec<PipelinedSystem>,
    pool: SharedWorkerPool,
    ledger: FleetLedger,
}

impl FleetOrchestrator {
    /// Boots one [`PipelinedSystem`] per spec (committee training, CQC fit,
    /// bandit warm-up — each on its shard's private platform), overriding
    /// each spec's `budget_cents` with the shard's fleet quota and tagging
    /// each platform with its shard id for attribution.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty, `specs`/`datasets` lengths differ, the
    /// fleet config is inconsistent, or a priority arbitration has the
    /// wrong number of weights.
    pub fn new(specs: Vec<ShardSpec>, config: FleetConfig, datasets: &[Dataset]) -> Self {
        config.validate();
        assert!(!specs.is_empty(), "a fleet needs at least one shard");
        assert_eq!(
            specs.len(),
            datasets.len(),
            "one dataset per shard required"
        );
        let ledger = FleetLedger::new(config.fleet_budget_cents, &config.arbitration, specs.len());
        let shards: Vec<PipelinedSystem> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let shard_config = spec.config.with_budget_cents(ledger.quota_cents(i));
                let mut shard = PipelinedSystem::new(&datasets[i], shard_config, spec.runtime);
                // Shard ids start at 1: boot-time characterization (the
                // committee/CQC/bandit warm-up `new` just ran) is already
                // booked under `SubmitterId::DEFAULT`, so offsetting keeps
                // shard 0's cycle-time attribution separate from its boot.
                shard.set_platform_submitter(Self::submitter_for(i));
                shard
            })
            .collect();
        let pool = SharedWorkerPool::new(config.pool_capacity, config.contention_alpha);
        Self {
            config,
            shards,
            pool,
            ledger,
        }
    }

    /// Number of shards in the fleet.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrows shard `i`'s pipelined system (its learned modules, its tap).
    pub fn shard(&self, i: usize) -> &PipelinedSystem {
        &self.shards[i]
    }

    /// The submitter id shard `i` posts under.
    pub fn submitter_for(i: usize) -> SubmitterId {
        SubmitterId(i as u32 + 1)
    }

    /// Shard `i`'s platform-side resource attribution — queries, reposts,
    /// worker-seconds, spend — booked under its fleet submitter id during
    /// sensing cycles. Boot-time characterization stays under
    /// `SubmitterId::DEFAULT`, so this is cycle-time work only.
    pub fn shard_usage(&self, i: usize) -> SubmitterUsage {
        self.shards[i]
            .system()
            .platform_stats()
            .usage(Self::submitter_for(i))
    }

    /// The fleet configuration.
    pub fn fleet_config(&self) -> &FleetConfig {
        &self.config
    }

    /// The budget book so far.
    pub fn ledger(&self) -> &FleetLedger {
        &self.ledger
    }

    /// Contention telemetry so far.
    pub fn contention(&self) -> ContentionStats {
        self.pool.contention()
    }

    /// Events processed across all shards so far.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.events_processed().unwrap_or(0))
            .sum()
    }

    /// The fleet's virtual "now": the latest shard clock, or `None` before
    /// the first step.
    pub fn virtual_now_secs(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|s| s.virtual_now_secs())
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Attaches a fresh [`MetricsTap`] to every shard, enabling the
    /// fleet-level rollup sketch on [`FleetReport::rollup_crowd_delay`].
    /// Attach before the first step to observe whole runs.
    pub fn attach_metrics_taps(&mut self) {
        for shard in &mut self.shards {
            shard.attach_metrics_tap(MetricsTap::new());
        }
    }

    /// [`FleetOrchestrator::attach_metrics_taps`] with one explicit tap
    /// configuration per shard. The per-shard delay grids must all match —
    /// the fleet rollup merges the shards' sketches, and mismatched grids
    /// have no meaningful merge — so a heterogeneous configuration is
    /// rejected here, up front, with a typed error naming the offending
    /// shard, rather than aborting a long run at report time. On `Err`, no
    /// tap is attached or replaced.
    ///
    /// # Panics
    ///
    /// Panics if `configs` does not hold exactly one configuration per
    /// shard, or a configuration is invalid.
    pub fn attach_metrics_tap_configs(
        &mut self,
        configs: &[MetricsTapConfig],
    ) -> Result<(), TapGridMismatch> {
        assert_eq!(
            configs.len(),
            self.shards.len(),
            "one tap configuration per shard required"
        );
        let taps: Vec<MetricsTap> = configs
            .iter()
            .map(|&c| MetricsTap::with_config(c))
            .collect();
        for (shard, tap) in taps.iter().enumerate().skip(1) {
            if !taps[0].crowd_delay().same_grid(tap.crowd_delay()) {
                return Err(TapGridMismatch {
                    shard,
                    mismatch: SketchGridMismatch {
                        expected: taps[0].crowd_delay().grid(),
                        found: tap.crowd_delay().grid(),
                    },
                });
            }
        }
        for (shard, tap) in self.shards.iter_mut().zip(taps) {
            shard.attach_metrics_tap(tap);
        }
        Ok(())
    }

    /// Begins every shard's execution if not already begun.
    pub fn start(&mut self, streams: &[SensingCycleStream]) {
        assert_eq!(
            streams.len(),
            self.shards.len(),
            "one stream per shard required"
        );
        for (shard, stream) in self.shards.iter_mut().zip(streams) {
            shard.start(stream);
        }
    }

    /// The shard holding the globally next-due event: earliest virtual due
    /// time, ties broken by shard index. `None` when every queue has
    /// drained.
    fn next_shard(&self) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(due) = shard.next_event_due_secs() else {
                continue;
            };
            // Strict `<` keeps the lowest index on equal due times.
            if best.is_none_or(|(t, _)| due < t) {
                best = Some((due, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Processes the globally next event (the earliest-due shard steps
    /// once, under the fleet hook). Returns `false` when every shard's
    /// queue has drained — the next [`FleetOrchestrator::run_until`] (or
    /// [`FleetOrchestrator::run`]) call produces the report.
    pub fn step(&mut self, datasets: &[Dataset], streams: &[SensingCycleStream]) -> bool {
        self.start(streams);
        let Some(i) = self.next_shard() else {
            return false;
        };
        let stepped = self.shards[i].step_with(
            &datasets[i],
            &streams[i],
            Some(FleetHook {
                shard: i,
                pool: &mut self.pool,
                ledger: &mut self.ledger,
            }),
        );
        debug_assert!(stepped, "peeked shard must pop an event");
        true
    }

    /// Drives the global event loop until `bound` is exhausted or every
    /// shard drains. Returns the report on completion, `None` on a pause —
    /// ready for more `run_until` calls or a
    /// [`FleetOrchestrator::snapshot`]. Bounds are global: `Events(n)`
    /// processes at most `n` events fleet-wide, `VirtualTime(t)` processes
    /// every event due at or before `t` on the merged timeline.
    pub fn run_until(
        &mut self,
        datasets: &[Dataset],
        streams: &[SensingCycleStream],
        bound: RunBound,
    ) -> Option<FleetReport> {
        self.start(streams);
        let mut remaining = match bound {
            RunBound::Events(n) => n,
            RunBound::VirtualTime(_) => u64::MAX,
        };
        while let Some(i) = self.next_shard() {
            if remaining == 0 {
                return None;
            }
            if let RunBound::VirtualTime(t) = bound {
                let due = self.shards[i]
                    .next_event_due_secs()
                    .expect("invariant: next_shard() only returns shards with pending events");
                if due > t {
                    return None;
                }
            }
            let stepped = self.step(datasets, streams);
            debug_assert!(stepped, "a pending event must step");
            remaining -= 1;
        }
        Some(self.finish())
    }

    /// Runs every shard to completion and reports.
    pub fn run(&mut self, datasets: &[Dataset], streams: &[SensingCycleStream]) -> FleetReport {
        self.run_until(datasets, streams, RunBound::Events(u64::MAX))
            .expect("invariant: an unbounded run drains every shard queue")
    }

    /// Closes out all (drained) shard executions into the fleet report.
    fn finish(&mut self) -> FleetReport {
        let reports: Vec<RuntimeReport> = self.shards.iter_mut().map(|s| s.finish()).collect();
        let makespan_secs = reports.iter().map(|r| r.makespan_secs).fold(0.0, f64::max);
        let events_processed = reports.iter().map(|r| r.events_processed).sum();
        // Grids were validated when the taps were attached (or resumed),
        // so the merges succeed; `try_merge` keeps even a violated
        // invariant from aborting the run at report time — the rollup is
        // dropped instead.
        let rollup_crowd_delay = reports
            .iter()
            .map(|r| r.metrics.as_ref())
            .collect::<Option<Vec<&MetricsTap>>>()
            .and_then(|taps| {
                let mut rollup = taps[0].crowd_delay().clone();
                for tap in &taps[1..] {
                    rollup.try_merge(tap.crowd_delay()).ok()?;
                }
                Some(rollup)
            });
        FleetReport {
            shards: reports,
            makespan_secs,
            events_processed,
            ledger: self.ledger.clone(),
            contention: self.pool.contention(),
            rollup_crowd_delay,
        }
    }

    /// Serializes the whole fleet — every shard's system and execution
    /// state, the shared pool, the ledger — at the current global event
    /// boundary.
    pub fn snapshot(&self) -> Result<FleetSnapshot, FleetSnapshotError> {
        let mut payload = Vec::new();
        self.config.encode(&mut payload);
        self.ledger.encode(&mut payload);
        self.pool.encode(&mut payload);
        // The shard frames travel as a `Vec<Vec<u8>>` would, each copied in
        // whole rather than a byte per call.
        self.shards.len().encode(&mut payload);
        for (shard, s) in self.shards.iter().enumerate() {
            let frame = s
                .snapshot()
                .map_err(|error| FleetSnapshotError::Shard { shard, error })?
                .to_bytes();
            encode_bytes(&frame, &mut payload);
        }
        Ok(FleetSnapshot::seal(payload))
    }

    /// Rebuilds a fleet from a snapshot, against the same per-shard streams
    /// the snapshotted fleet was processing (streams regenerate
    /// deterministically from dataset + seed; resume cross-checks shard and
    /// cycle counts).
    pub fn resume(
        snapshot: &FleetSnapshot,
        streams: &[SensingCycleStream],
    ) -> Result<Self, FleetSnapshotError> {
        let mut r = Reader::new(snapshot.payload());
        let config = FleetConfig::decode(&mut r).map_err(FleetSnapshotError::Corrupt)?;
        let ledger = FleetLedger::decode(&mut r).map_err(FleetSnapshotError::Corrupt)?;
        let pool = SharedWorkerPool::decode(&mut r).map_err(FleetSnapshotError::Corrupt)?;
        let frame_count = usize::decode(&mut r).map_err(FleetSnapshotError::Corrupt)?;
        let frames = (0..frame_count)
            .map(|_| r.read_bytes())
            .collect::<Result<Vec<&[u8]>, _>>()
            .map_err(FleetSnapshotError::Corrupt)?;
        if !r.is_empty() {
            return Err(FleetSnapshotError::Corrupt(DecodeError::Invalid));
        }
        if frames.len() != ledger.shards() || frames.is_empty() {
            return Err(FleetSnapshotError::Corrupt(DecodeError::Invalid));
        }
        if streams.len() != frames.len() {
            return Err(FleetSnapshotError::ShardCountMismatch {
                expected: frames.len(),
                found: streams.len(),
            });
        }
        let shards: Vec<PipelinedSystem> = frames
            .iter()
            .enumerate()
            .map(|(shard, bytes)| {
                let snap = RuntimeSnapshot::from_bytes(bytes)
                    .map_err(|error| FleetSnapshotError::Shard { shard, error })?;
                PipelinedSystem::resume(&snap, &streams[shard])
                    .map_err(|error| FleetSnapshotError::Shard { shard, error })
            })
            .collect::<Result<_, _>>()?;
        // Cross-shard tap grids must be mergeable for the report rollup;
        // reject a heterogeneous (e.g. version-skewed or hand-assembled)
        // snapshot here rather than letting it abort at report time.
        let mut reference: Option<&QuantileSketch> = None;
        for (shard, s) in shards.iter().enumerate() {
            let Some(tap) = s.metrics_tap() else {
                continue;
            };
            match reference {
                None => reference = Some(tap.crowd_delay()),
                Some(first) if !first.same_grid(tap.crowd_delay()) => {
                    return Err(FleetSnapshotError::TapGridMismatch { shard });
                }
                Some(_) => {}
            }
        }
        Ok(Self {
            config,
            shards,
            pool,
            ledger,
        })
    }
}

/// A heterogeneous per-shard tap configuration, rejected by
/// [`FleetOrchestrator::attach_metrics_tap_configs`] before any tap is
/// attached: the fleet's crowd-delay rollup merges per-shard sketches, and
/// sketches over different grids have no meaningful merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapGridMismatch {
    /// The first shard whose tap grid disagrees with shard 0's.
    pub shard: usize,
    /// The underlying sketch-grid mismatch.
    pub mismatch: SketchGridMismatch,
}

impl std::fmt::Display for TapGridMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {}: {}", self.shard, self.mismatch)
    }
}

impl std::error::Error for TapGridMismatch {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.mismatch)
    }
}

// ---------------------------------------------------------------------------
// Fleet snapshot framing

/// Leading bytes of every fleet snapshot.
const FLEET_MAGIC: [u8; 8] = *b"CLFLEET\x00";

/// Current fleet snapshot format version. Bump on any payload layout
/// change (per-shard payloads are additionally versioned by
/// [`crate::SNAPSHOT_FORMAT_VERSION`] inside their embedded frames).
///
/// Version history: 1 — initial format, FNV-1a-64 frame checksum;
/// 2 — the frame checksum is the runtime frame's word-at-a-time
/// `frame_checksum` (and the embedded shard frames are runtime version 6).
/// The fleet payload layout is unchanged; a v1 frame is refused with
/// [`FleetSnapshotError::VersionMismatch`];
/// 3 — the embedded shard frames are runtime version 7 (pre-order CQC tree
/// records with implicit children). The fleet's own layout is unchanged; a
/// v2 frame is refused with [`FleetSnapshotError::VersionMismatch`].
pub const FLEET_SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Why a fleet snapshot could not be produced or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetSnapshotError {
    /// The bytes do not start with the fleet snapshot magic.
    BadMagic,
    /// The snapshot was written by a different fleet format version.
    VersionMismatch {
        /// The version recorded in the snapshot.
        found: u32,
    },
    /// The payload checksum does not match — the bytes were corrupted.
    ChecksumMismatch,
    /// The fleet-level payload failed to decode or failed an invariant.
    Corrupt(DecodeError),
    /// The stream set handed to resume has a different shard count than the
    /// fleet the snapshot was taken of.
    ShardCountMismatch {
        /// Shards the snapshot expects.
        expected: usize,
        /// Streams provided.
        found: usize,
    },
    /// One shard's embedded snapshot failed to validate or restore.
    Shard {
        /// The failing shard's index.
        shard: usize,
        /// The underlying per-shard snapshot error.
        error: SnapshotError,
    },
    /// A resumed shard carries a metrics tap whose delay grid differs from
    /// the other shards' — the fleet rollup could never merge it.
    TapGridMismatch {
        /// The first shard whose tap grid disagrees.
        shard: usize,
    },
}

impl std::fmt::Display for FleetSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetSnapshotError::BadMagic => write!(f, "not a fleet snapshot (bad magic)"),
            FleetSnapshotError::VersionMismatch { found } => write!(
                f,
                "fleet snapshot format version {found} != supported {FLEET_SNAPSHOT_FORMAT_VERSION}"
            ),
            FleetSnapshotError::ChecksumMismatch => {
                write!(f, "fleet snapshot payload checksum mismatch")
            }
            FleetSnapshotError::Corrupt(e) => write!(f, "fleet snapshot payload corrupt: {e}"),
            FleetSnapshotError::ShardCountMismatch { expected, found } => write!(
                f,
                "fleet snapshot expects {expected} shard streams, got {found}"
            ),
            FleetSnapshotError::Shard { shard, error } => {
                write!(f, "shard {shard} snapshot: {error}")
            }
            FleetSnapshotError::TapGridMismatch { shard } => {
                write!(
                    f,
                    "shard {shard}'s metrics-tap delay grid differs from the fleet's"
                )
            }
        }
    }
}

impl std::error::Error for FleetSnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetSnapshotError::Corrupt(e) => Some(e),
            FleetSnapshotError::Shard { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A sealed fleet snapshot: framing mirrors [`RuntimeSnapshot`] (own magic,
/// version, payload length, the same word-at-a-time payload checksum) so a
/// later process can validate the bytes before trusting them:
///
/// ```text
/// magic  b"CLFLEET\x00"             8 bytes
/// format version                     u32 LE
/// payload length                     u64 LE
/// checksum of the payload            u64 LE   (frame_checksum, since v2)
/// payload                            length bytes
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    payload: Vec<u8>,
}

impl FleetSnapshot {
    fn seal(payload: Vec<u8>) -> Self {
        Self { payload }
    }

    fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The snapshot's serialized size in bytes, framing included.
    pub fn serialized_len(&self) -> usize {
        FLEET_MAGIC.len() + 4 + 8 + 8 + self.payload.len()
    }

    /// Serializes the snapshot with its magic/version/length/checksum
    /// frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        out.extend_from_slice(&FLEET_MAGIC);
        out.extend_from_slice(&FLEET_SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&frame_checksum(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Validates the frame (magic, version, length, checksum) and returns
    /// the snapshot; payload *contents* are validated by
    /// [`FleetOrchestrator::resume`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FleetSnapshotError> {
        let header = FLEET_MAGIC.len() + 4 + 8 + 8;
        if bytes.len() < FLEET_MAGIC.len() || bytes[..FLEET_MAGIC.len()] != FLEET_MAGIC {
            return Err(FleetSnapshotError::BadMagic);
        }
        if bytes.len() < header {
            return Err(FleetSnapshotError::Corrupt(DecodeError::Truncated));
        }
        let version = u32::from_le_bytes(
            bytes[8..12]
                .try_into()
                .expect("invariant: slice is 4 bytes"),
        );
        if version != FLEET_SNAPSHOT_FORMAT_VERSION {
            return Err(FleetSnapshotError::VersionMismatch { found: version });
        }
        let len = u64::from_le_bytes(
            bytes[12..20]
                .try_into()
                .expect("invariant: slice is 8 bytes"),
        );
        let checksum = u64::from_le_bytes(
            bytes[20..28]
                .try_into()
                .expect("invariant: slice is 8 bytes"),
        );
        let payload = &bytes[header..];
        if payload.len() as u64 != len {
            return Err(FleetSnapshotError::Corrupt(
                if (payload.len() as u64) < len {
                    DecodeError::Truncated
                } else {
                    DecodeError::Invalid
                },
            ));
        }
        if frame_checksum(payload) != checksum {
            return Err(FleetSnapshotError::ChecksumMismatch);
        }
        Ok(Self {
            payload: payload.to_vec(),
        })
    }
}

// ---------------------------------------------------------------------------
// Codecs

impl Encode for ArbitrationPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ArbitrationPolicy::FairShare => 0u8.encode(out),
            ArbitrationPolicy::Priority(weights) => {
                1u8.encode(out);
                weights.encode(out);
            }
        }
    }
}

impl Decode for ArbitrationPolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(ArbitrationPolicy::FairShare),
            1 => {
                let weights = Vec::<f64>::decode(r)?;
                if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
                    return Err(DecodeError::Invalid);
                }
                Ok(ArbitrationPolicy::Priority(weights))
            }
            _ => Err(DecodeError::Invalid),
        }
    }
}

impl Encode for FleetConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pool_capacity.encode(out);
        self.contention_alpha.encode(out);
        self.fleet_budget_cents.encode(out);
        self.arbitration.encode(out);
    }
}

impl Decode for FleetConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            pool_capacity: usize::decode(r)?,
            contention_alpha: f64::decode(r)?,
            fleet_budget_cents: f64::decode(r)?,
            arbitration: ArbitrationPolicy::decode(r)?,
        };
        if !config.is_valid() {
            return Err(DecodeError::Invalid);
        }
        Ok(config)
    }
}

impl Encode for FleetLedger {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fleet_budget_cents.encode(out);
        self.quotas_cents.encode(out);
        self.spent_cents.encode(out);
    }
}

impl Decode for FleetLedger {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let ledger = Self {
            fleet_budget_cents: f64::decode(r)?,
            quotas_cents: Vec::<f64>::decode(r)?,
            spent_cents: Vec::<u64>::decode(r)?,
        };
        let valid = ledger.fleet_budget_cents.is_finite()
            && ledger.fleet_budget_cents >= 0.0
            && ledger.quotas_cents.len() == ledger.spent_cents.len()
            && !ledger.quotas_cents.is_empty()
            && ledger
                .quotas_cents
                .iter()
                .all(|q| q.is_finite() && *q >= 0.0);
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(ledger)
    }
}

impl Encode for BusyInterval {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.workers.encode(out);
        self.until_secs.encode(out);
    }
}

impl Decode for BusyInterval {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let interval = Self {
            shard: usize::decode(r)?,
            workers: usize::decode(r)?,
            until_secs: f64::decode(r)?,
        };
        if !interval.until_secs.is_finite() || interval.until_secs < 0.0 {
            return Err(DecodeError::Invalid);
        }
        Ok(interval)
    }
}

impl Encode for SharedWorkerPool {
    fn encode(&self, out: &mut Vec<u8>) {
        self.capacity.encode(out);
        self.alpha.encode(out);
        self.busy.encode(out);
        self.total_wait_secs.encode(out);
        self.waits_applied.encode(out);
        self.posts.encode(out);
        self.peak_busy_workers.encode(out);
    }
}

impl Decode for SharedWorkerPool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let pool = Self {
            capacity: usize::decode(r)?,
            alpha: f64::decode(r)?,
            busy: Vec::<BusyInterval>::decode(r)?,
            total_wait_secs: f64::decode(r)?,
            waits_applied: u64::decode(r)?,
            posts: u64::decode(r)?,
            peak_busy_workers: usize::decode(r)?,
        };
        let valid = pool.capacity > 0
            && pool.alpha.is_finite()
            && pool.alpha >= 0.0
            && pool.total_wait_secs.is_finite()
            && pool.total_wait_secs >= 0.0
            && pool.waits_applied <= pool.posts;
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_shard_never_waits() {
        let mut pool = SharedWorkerPool::new(80, 1.0);
        let w1 = pool.queue_wait_secs(0, 100.0, 0.0);
        pool.occupy(0, 5, 100.0);
        // Own busy workers never count against the same shard.
        let w2 = pool.queue_wait_secs(0, 100.0, 10.0);
        assert_eq!((w1, w2), (0.0, 0.0));
        assert_eq!(pool.contention().waits_applied, 0);
        assert_eq!(pool.contention().posts, 2);
    }

    #[test]
    fn waits_grow_with_other_shards_utilization() {
        let mut pool = SharedWorkerPool::new(80, 1.0);
        pool.occupy(1, 20, 1_000.0);
        let light = pool.queue_wait_secs(0, 100.0, 0.0);
        pool.occupy(2, 40, 1_000.0);
        let heavy = pool.queue_wait_secs(0, 100.0, 0.0);
        // u = 20/80 → wait = 100·(0.25/0.75); u = 60/80 → 100·(0.75/0.25).
        assert!((light - 100.0 / 3.0).abs() < 1e-9, "light wait {light}");
        assert!((heavy - 300.0).abs() < 1e-9, "heavy wait {heavy}");
        assert!(heavy > light);
    }

    #[test]
    fn saturated_pool_clamps_at_the_utilization_cap() {
        let mut pool = SharedWorkerPool::new(10, 1.0);
        pool.occupy(1, 500, 1_000.0);
        let wait = pool.queue_wait_secs(0, 100.0, 0.0);
        // Clamped at u = 0.95 → ×19 multiplier.
        assert!((wait - 1_900.0).abs() < 1e-9, "clamped wait {wait}");
    }

    #[test]
    fn expired_claims_release_their_workers() {
        let mut pool = SharedWorkerPool::new(80, 1.0);
        pool.occupy(1, 40, 50.0);
        assert!(pool.queue_wait_secs(0, 100.0, 0.0) > 0.0);
        // At t=50 the claim has lapsed (strict `until > now`).
        assert_eq!(pool.queue_wait_secs(0, 100.0, 50.0), 0.0);
    }

    #[test]
    fn zero_alpha_disables_contention() {
        let mut pool = SharedWorkerPool::new(10, 0.0);
        pool.occupy(1, 9, 1_000.0);
        assert_eq!(pool.queue_wait_secs(0, 100.0, 0.0), 0.0);
    }

    #[test]
    fn fair_share_splits_evenly_and_priority_by_weight() {
        let fair = FleetLedger::new(1_200.0, &ArbitrationPolicy::FairShare, 3);
        for i in 0..3 {
            assert!((fair.quota_cents(i) - 400.0).abs() < 1e-9);
        }
        let prio = FleetLedger::new(
            1_200.0,
            &ArbitrationPolicy::Priority(vec![3.0, 2.0, 1.0]),
            3,
        );
        assert!((prio.quota_cents(0) - 600.0).abs() < 1e-9);
        assert!((prio.quota_cents(1) - 400.0).abs() < 1e-9);
        assert!((prio.quota_cents(2) - 200.0).abs() < 1e-9);
        assert!((prio.fleet_budget_cents() - 1_200.0).abs() < 1e-9);
    }

    #[test]
    fn single_shard_fair_share_quota_is_bitwise_exact() {
        // The 1-shard parity chain needs the quota to equal the budget to
        // the last bit, or the shard's bandit would plan differently.
        let ledger = FleetLedger::new(1_000.0, &ArbitrationPolicy::FairShare, 1);
        assert_eq!(ledger.quota_cents(0).to_bits(), 1_000.0f64.to_bits());
    }

    #[test]
    fn ledger_books_spend_per_shard() {
        let mut ledger = FleetLedger::new(100.0, &ArbitrationPolicy::FairShare, 2);
        ledger.charge(0, 6);
        ledger.charge(0, 4);
        ledger.charge(1, 20);
        assert_eq!(ledger.spent_cents(0), 10);
        assert_eq!(ledger.spent_cents(1), 20);
        assert_eq!(ledger.total_spent_cents(), 30);
        assert!((ledger.remaining_cents(0) - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one priority weight per shard")]
    fn priority_weight_count_must_match_shards() {
        FleetLedger::new(100.0, &ArbitrationPolicy::Priority(vec![1.0, 2.0]), 3);
    }

    #[test]
    fn pool_and_ledger_codecs_round_trip() {
        let mut pool = SharedWorkerPool::new(80, 0.5);
        pool.occupy(1, 20, 700.0);
        let _ = pool.queue_wait_secs(0, 100.0, 10.0);
        let decoded =
            SharedWorkerPool::from_bytes(&pool.to_bytes()).expect("pool codec round trips");
        assert_eq!(pool, decoded);

        let mut ledger = FleetLedger::new(900.0, &ArbitrationPolicy::Priority(vec![2.0, 1.0]), 2);
        ledger.charge(0, 12);
        let decoded = FleetLedger::from_bytes(&ledger.to_bytes()).expect("ledger codec");
        assert_eq!(ledger, decoded);

        let config = FleetConfig::new(900.0)
            .with_pool_capacity(40)
            .with_contention_alpha(0.25)
            .with_arbitration(ArbitrationPolicy::Priority(vec![2.0, 1.0]));
        let decoded = FleetConfig::from_bytes(&config.to_bytes()).expect("config codec");
        assert_eq!(config, decoded);
    }

    #[test]
    fn fleet_frame_round_trips_and_rejects_tampering() {
        let snap = FleetSnapshot::seal(vec![7; 24]);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.serialized_len());
        assert_eq!(FleetSnapshot::from_bytes(&bytes), Ok(snap));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            FleetSnapshot::from_bytes(&bad_magic),
            Err(FleetSnapshotError::BadMagic)
        );

        let mut wrong_version = bytes.clone();
        wrong_version[8] ^= 0x40;
        assert!(matches!(
            FleetSnapshot::from_bytes(&wrong_version),
            Err(FleetSnapshotError::VersionMismatch { .. })
        ));

        for found in [1u32, 2] {
            let mut previous_version = bytes.clone();
            previous_version[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                FleetSnapshot::from_bytes(&previous_version),
                Err(FleetSnapshotError::VersionMismatch { found })
            );
        }

        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert_eq!(
            FleetSnapshot::from_bytes(&corrupt),
            Err(FleetSnapshotError::ChecksumMismatch)
        );

        assert_eq!(
            FleetSnapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(FleetSnapshotError::Corrupt(DecodeError::Truncated))
        );
    }

    #[test]
    fn fleet_errors_format_and_chain() {
        use std::error::Error;
        let e = FleetSnapshotError::Shard {
            shard: 2,
            error: SnapshotError::ChecksumMismatch,
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.source().is_some(), "shard errors expose their source");
        let boxed: Box<dyn Error> = Box::new(e);
        assert!(boxed.to_string().contains("checksum"));

        let e = FleetSnapshotError::TapGridMismatch { shard: 1 };
        assert!(e.to_string().contains("shard 1"));
        assert!(e.to_string().contains("delay grid"));
    }

    #[test]
    fn tap_grid_mismatch_formats_and_chains_to_the_sketch_error() {
        use std::error::Error;
        let e = TapGridMismatch {
            shard: 3,
            mismatch: SketchGridMismatch {
                expected: (0.0, 7200.0, 1024),
                found: (0.0, 3600.0, 512),
            },
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("grid mismatch"));
        let source = e.source().expect("wraps the sketch-level mismatch");
        assert!(source.to_string().contains("7200"));
    }
}
