//! Batch-vs-scalar committee inference: the sensing-cycle hot path
//! (`Committee::votes_batch` over a shared `EvidenceMatrix`) against the
//! per-image loop it replaced, across batch sizes.
//!
//! The batch path's contract is *bit-identity* (DESIGN.md "Batched committee
//! inference"), so the bench asserts equivalence before it times anything —
//! a speedup that changes a single probability bit is a bug, not a win.
//! Wall-clock numbers feed `BENCH_inference.json` so CI tracks the hot-loop
//! throughput run over run; the hard gate is the paper-batch-size speedup.

#![forbid(unsafe_code)]

use crowdlearn::Committee;
use crowdlearn_bench::{banner, Fixture};
use crowdlearn_classifiers::{profiles, ClassDistribution, Classifier};
use crowdlearn_dataset::SyntheticImage;
use std::time::Instant;

/// The paper's sensing-cycle batch size (`SensingCycleStream::paper`: 10
/// images per cycle) — the size the acceptance gate is pinned at.
const PAPER_BATCH_SIZE: usize = 10;

/// Speedup the batch path must deliver at the paper's batch size.
const REQUIRED_SPEEDUP: f64 = 1.5;

/// Images processed per timed measurement, whatever the batch size — keeps
/// every measurement's duration comparable and long enough to be stable.
const IMAGES_PER_MEASUREMENT: usize = 12_000;

/// Back-to-back scalar/batch measurement pairs per batch size. The speedup
/// is the median of the per-pair ratios, so drift of a shared host lands on
/// both sides of a pair instead of between all scalar and all batch runs.
const PAIRS: usize = 21;

fn committee(fixture: &Fixture) -> Committee {
    let members: Vec<Box<dyn Classifier>> = [profiles::vgg16, profiles::bovw, profiles::ddm]
        .into_iter()
        .map(|builder| Box::new(fixture.trained_expert(builder, 0)) as Box<dyn Classifier>)
        .collect();
    Committee::new(members, 0.6)
}

// The bench crate is the detlint D2 exemption: timing harnesses read the
// wall clock by design. clippy.toml mirrors D2 workspace-wide, so the
// exemption is restated here.
#[allow(clippy::disallowed_methods)]
fn timed<F: FnMut()>(mut body: F) -> f64 {
    let started = Instant::now();
    body();
    started.elapsed().as_secs_f64()
}

struct Measurement {
    batch_size: usize,
    scalar_ms: f64,
    batch_ms: f64,
    speedup: f64,
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times `PAIRS` scalar/batch pairs, alternating which side runs first, and
/// returns the median scalar and batch seconds and the median ratio.
fn paired<S: FnMut(), B: FnMut()>(mut scalar: S, mut batch: B) -> (f64, f64, f64) {
    let mut scalar_secs = Vec::with_capacity(PAIRS);
    let mut batch_secs = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (s, b) = if pair % 2 == 0 {
            let s = timed(&mut scalar);
            (s, timed(&mut batch))
        } else {
            let b = timed(&mut batch);
            (timed(&mut scalar), b)
        };
        scalar_secs.push(s);
        batch_secs.push(b);
        ratios.push(s / b);
    }
    (median(scalar_secs), median(batch_secs), median(ratios))
}

fn main() {
    banner(
        "Committee inference: batched evidence path vs per-image loop",
        "bit-identical votes; median wall-clock of interleaved scalar/batch pairs",
    );

    let fixture = Fixture::paper_default();
    let committee = committee(&fixture);
    let test = fixture.dataset.test();

    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>9}",
        "batch size", "reps", "scalar(ms)", "batch(ms)", "speedup"
    );

    let mut measured: Vec<Measurement> = Vec::new();
    for batch_size in [1usize, 5, PAPER_BATCH_SIZE, 25, 50, 100, 200, 400] {
        let batch: Vec<&SyntheticImage> = test[..batch_size].iter().collect();

        // Equivalence gate: the batch path must reproduce the per-image
        // votes bit for bit before its speed means anything.
        let scalar_votes: Vec<Vec<ClassDistribution>> =
            batch.iter().map(|img| committee.votes(img)).collect();
        let batch_votes = committee.votes_batch(&batch);
        assert_eq!(batch_votes.len(), scalar_votes.len());
        for (b, s) in batch_votes.iter().zip(&scalar_votes) {
            assert_eq!(b.len(), s.len());
            for (bv, sv) in b.iter().zip(s) {
                for (pb, ps) in bv.probs().iter().zip(sv.probs()) {
                    assert_eq!(
                        pb.to_bits(),
                        ps.to_bits(),
                        "batch path diverged at batch size {batch_size}"
                    );
                }
            }
        }

        let reps = (IMAGES_PER_MEASUREMENT / batch_size).max(1);
        let (scalar_secs, batch_secs, speedup) = paired(
            || {
                for _ in 0..reps {
                    for img in &batch {
                        std::hint::black_box(committee.votes(img));
                    }
                }
            },
            || {
                for _ in 0..reps {
                    std::hint::black_box(committee.votes_batch(&batch));
                }
            },
        );
        println!(
            "{:<12} {:>6} {:>12.3} {:>12.3} {:>8.2}x",
            batch_size,
            reps,
            scalar_secs * 1e3,
            batch_secs * 1e3,
            speedup
        );
        measured.push(Measurement {
            batch_size,
            scalar_ms: scalar_secs * 1e3,
            batch_ms: batch_secs * 1e3,
            speedup,
        });
    }

    // Machine-readable summary for CI trend tracking.
    let paper = measured
        .iter()
        .find(|m| m.batch_size == PAPER_BATCH_SIZE)
        .expect("paper batch size is in the sweep");
    let mut json = String::from("{\n  \"bench\": \"inference\",\n");
    json.push_str(&format!(
        "  \"paper_batch_size\": {PAPER_BATCH_SIZE},\n  \"paper_speedup\": {:.4},\n  \"sizes\": [\n",
        paper.speedup
    ));
    for (i, m) in measured.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"batch_size\": {}, \"scalar_ms\": {:.4}, \"batch_ms\": {:.4}, \
             \"speedup\": {:.4}}}{}\n",
            m.batch_size,
            m.scalar_ms,
            m.batch_ms,
            m.speedup,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_inference.json", &json).expect("write BENCH_inference.json");
    println!("\nwrote BENCH_inference.json");

    // Acceptance: the batch path must clearly beat the per-image loop at
    // the paper's batch size (>= 1.5x at 10 images per cycle), read as the
    // median of the interleaved pairs' ratios.
    assert!(
        paper.speedup >= REQUIRED_SPEEDUP,
        "batch path speedup {:.2}x at batch size {PAPER_BATCH_SIZE} is below the \
         required {REQUIRED_SPEEDUP}x",
        paper.speedup
    );
    println!(
        "Shape check: {:.2}x at the paper's batch size ({PAPER_BATCH_SIZE}) — \
         evidence gathered once per committee, noise chains share hoisted prefixes",
        paper.speedup
    );
}
