//! Cross-version goldens: digests of what the warm loop computes, recorded
//! before the CQC forest and the UCB-ALP solve were rewritten for speed.
//!
//! * every bit of `QualityController::infer` for the paper boot model over
//!   the 400 test-split responses;
//! * every bit of `decision_scores` of an early-stopped
//!   `fit_with_validation` model (so the truncated forest must still score
//!   exactly as the full one did over its first rounds);
//! * the UCB-ALP select sequence of scripted runs: a known context
//!   distribution, the empirical estimate, a budget run down to `None`,
//!   and a per-round budget below the cheapest action;
//! * the `Debug` text of a 4-shard, 40-cycle `FleetReport` over the
//!   `warm_fleet` benchmark's shard mix.
//!
//! A pure speed-up must leave every digest exactly as it is.

use crowdlearn::{CrowdLearnConfig, QualityController};
use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
use crowdlearn_crowd::{IncentiveLevel, Platform, PlatformConfig};
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream, TemporalContext};
use crowdlearn_gbdt::{GbdtClassifier, GbdtConfig};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, FleetConfig, FleetOrchestrator, RuntimeConfig, ShardSpec, WindowPolicy,
};

/// FNV-1a, 64-bit, fed one byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[test]
fn paper_cqc_inference_bits_are_pinned() {
    // The CQC model exactly as `CrowdLearnSystem::new` fits it at boot.
    let config = CrowdLearnConfig::paper();
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let mut platform = Platform::new(PlatformConfig::paper().with_seed(config.platform_seed));
    let train = dataset.train();
    let examples: Vec<_> = (0..config.cqc_training_queries)
        .map(|i| {
            let img = &train[i % train.len()];
            let context = TemporalContext::from_index(i % TemporalContext::COUNT);
            let level = IncentiveLevel::from_index((i / 3) % IncentiveLevel::COUNT);
            (platform.submit(img, level, context), img.truth())
        })
        .collect();
    let mut cqc = QualityController::paper();
    cqc.train(&examples);

    let test = dataset.test();
    assert_eq!(test.len(), 400);
    let mut hash = Fnv::new();
    for (i, img) in test.iter().enumerate() {
        let context = TemporalContext::from_index(i % TemporalContext::COUNT);
        let level = IncentiveLevel::from_index(i % IncentiveLevel::COUNT);
        let response = platform.submit(img, level, context);
        for &p in cqc.infer(&response).probs() {
            hash.f64(p);
        }
    }
    assert_eq!(
        hash.0, 0x918d_f51b_6df2_7e51,
        "infer digest {:#018x}",
        hash.0
    );
}

#[test]
fn early_stopped_model_scores_are_pinned() {
    // Three noisy classes over four features: validation loss bottoms out
    // long before the configured rounds, so the forest gets truncated.
    let row = |i: usize| -> Vec<f64> {
        let a = ((i * 37) % 101) as f64 / 101.0;
        let b = ((i * 61) % 89) as f64 / 89.0;
        let c = ((i * 13) % 7) as f64;
        let d = ((i * 97) % 53) as f64 - 26.0;
        vec![a, b, c, d]
    };
    // Every fifth label shifts by one class.
    let label = |i: usize| ((i * 7 + i / 11) % 3 + [1, 0, 0, 0, 0][i % 5]) % 3;
    let rows: Vec<Vec<f64>> = (0..240).map(row).collect();
    let labels: Vec<usize> = (0..240).map(label).collect();
    let (train_r, val_r) = rows.split_at(160);
    let (train_l, val_l) = labels.split_at(160);
    let config = GbdtConfig {
        rounds: 90,
        max_depth: 5,
        ..GbdtConfig::small()
    };
    let model = GbdtClassifier::fit_with_validation(train_r, train_l, val_r, val_l, 3, &config, 6);
    assert!(model.rounds() < config.rounds, "{} rounds", model.rounds());

    let mut probes: Vec<Vec<f64>> = (0..300).map(|i| row(i * 3 + 1)).collect();
    probes.push(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
    probes.push(vec![0.0, -0.0, f64::NAN, f64::NAN]);
    let mut hash = Fnv::new();
    hash.bytes(&model.rounds().to_le_bytes());
    for probe in &probes {
        for s in model.decision_scores(probe) {
            hash.f64(s);
        }
    }
    assert_eq!(
        hash.0, 0x8d53_fb3e_7a8b_148c,
        "scores digest {:#018x}",
        hash.0
    );
}

/// A deterministic payoff in `[0, 1]` for `(context, action)` at `round`.
fn scripted_payoff(context: usize, action: usize, round: u64) -> f64 {
    let base = [
        [0.1, 0.4, 0.9],
        [0.75, 0.8, 0.82],
        [0.3, 0.35, 0.5],
        [0.6, 0.2, 0.7],
    ];
    let wobble = ((round * 2_654_435_761) % 1000) as f64 / 5000.0;
    (base[context % 4][action % 3] + wobble - 0.1).clamp(0.0, 1.0)
}

/// The digest of a scripted run's select sequence (and final budget), and
/// how many selects returned `None`.
fn scripted_run(mut bandit: UcbAlp, rounds: u64) -> (u64, usize) {
    let contexts = bandit.config().contexts();
    let mut hash = Fnv::new();
    let mut nones = 0;
    for round in 0..rounds {
        // Contexts arrive in blocks, as the paper's temporal contexts do.
        let context = (round / 7) as usize % contexts;
        match bandit.select(context) {
            Some(action) => {
                hash.bytes(&[u8::try_from(action).expect("few actions")]);
                bandit.observe(context, action, scripted_payoff(context, action, round));
            }
            None => {
                hash.bytes(&[0xff]);
                nones += 1;
            }
        }
    }
    hash.f64(bandit.remaining_budget());
    (hash.0, nones)
}

#[test]
fn ucb_alp_select_sequences_are_pinned() {
    let costs = || vec![1.0, 2.0, 4.0];
    let known = BanditConfig::new(4, costs(), 260.0, 120).with_context_distribution(vec![0.25; 4]);
    let runs = [
        scripted_run(UcbAlp::new(known, 5), 120),
        scripted_run(
            UcbAlp::new(BanditConfig::new(4, costs(), 260.0, 120), 6),
            120,
        ),
        // The budget runs out well before the last round.
        scripted_run(UcbAlp::new(BanditConfig::new(3, costs(), 90.0, 60), 7), 140),
        // rho = 25 / 100 sits below the cheapest action's cost from the start.
        scripted_run(
            UcbAlp::new(BanditConfig::new(2, costs(), 25.0, 100), 8).with_exploration_scale(0.3),
            100,
        ),
    ];
    assert!(runs[2].1 > 0 && runs[3].1 > 0, "{runs:?}");
    let digests: Vec<String> = runs.iter().map(|(d, _)| format!("{d:#018x}")).collect();
    assert_eq!(
        digests,
        [
            "0xf808964dce515afa",
            "0xa237e04ef6670f0e",
            "0x28f61f4d699e3477",
            "0x2e8de925196552ae",
        ]
    );
}

/// Shard `shard` of the `warm_fleet` mix, scaled to `cycles`: a static
/// window, an adaptive window, HIT timeouts with escalation, and the same
/// plus a ten-cycle platform outage mid-run.
fn warm_fleet_spec(shard: u64, cycles: usize) -> ShardSpec {
    let mut config = CrowdLearnConfig::paper().with_seed(0x5EED + shard);
    config.budget_cents *= 10.0;
    config.horizon_queries *= 10;
    let paper = RuntimeConfig::paper();
    let period = paper.cycle_period_secs;
    let runtime = match shard {
        0 => paper.with_inflight_window(4),
        1 => paper.with_window_policy(WindowPolicy::adaptive(1, 8)),
        _ => {
            let timed = paper.with_hit_timeout(Some(900.0), 3).with_escalation(true);
            if shard == 2 {
                timed
            } else {
                let mid = (cycles / 2) as f64 * period;
                timed.with_faults(FaultPlan::new(
                    0xFA17,
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

#[test]
fn warm_fleet_mix_report_is_pinned() {
    const CYCLES: usize = 40;
    const IMAGES_PER_CYCLE: usize = 10;
    let datasets: Vec<Dataset> = (0..4u64)
        .map(|k| {
            Dataset::generate(
                &DatasetConfig::paper()
                    .with_total(560 + CYCLES * IMAGES_PER_CYCLE)
                    .with_seed(11 + k),
            )
        })
        .collect();
    let streams: Vec<SensingCycleStream> = datasets
        .iter()
        .map(|d| SensingCycleStream::new(d, CYCLES, IMAGES_PER_CYCLE))
        .collect();
    let specs: Vec<ShardSpec> = (0..4).map(|k| warm_fleet_spec(k, CYCLES)).collect();
    let budget = specs.iter().map(|s| s.config.budget_cents).sum();
    let mut fleet = FleetOrchestrator::new(specs, FleetConfig::new(budget), &datasets);
    fleet.attach_metrics_taps();
    let report = fleet.run(&datasets, &streams);
    assert_eq!(report.shards.len(), 4);
    let mut hash = Fnv::new();
    std::fmt::Write::write_fmt(&mut hash, format_args!("{report:?}")).expect("hashing");
    assert_eq!(
        hash.0, 0x2e12_31db_372f_9232,
        "fleet report digest {:#018x}",
        hash.0
    );
}
