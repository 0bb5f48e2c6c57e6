//! The CrowdLearn repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_paper|warm_fleet|checkpoint_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, a closed loop: the next op starts when the
//! previous one ends. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer ones. The last line of standard output is one JSON object;
//! see `perfbench/README.md` for every metric.

#![forbid(unsafe_code)]

mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use trace::{median, now, quantile, secs_since, Trace};
use workloads::{CheckpointChurn, ColdPaper, Quality, WarmFleet, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops whose results make the quality metrics; every run holds at least
/// this many untraced ops.
const QUALITY_OPS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).ok_or(format!("missing {name}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Attempted and failed ops (and checks) of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.notes.push(format!("{what}: {e}"));
        }
    }
}

/// One phase of timed ops.
#[derive(Default)]
struct Phase {
    op_secs: Vec<f64>,
    events: u64,
    quality: Vec<Quality>,
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs ops back to back until `seconds` have passed and at least
/// [`QUALITY_OPS`] ran. Each round runs op `i` once under each trace, in
/// order, so with an untraced and a traced trace the two alternate and see
/// the same machine. A tracing trace counts work during op 0.
fn measure<W: Workload>(
    w: &mut W,
    seconds: f64,
    traces: &mut [Trace],
    tally: &mut Tally,
) -> Vec<Phase> {
    let mut phases: Vec<Phase> = traces.iter().map(|_| Phase::default()).collect();
    let start = now();
    let mut i = 0;
    while i < QUALITY_OPS || secs_since(start) < seconds {
        for (trace, phase) in traces.iter_mut().zip(&mut phases) {
            if i == 0 {
                trace.begin_pass();
            }
            let op_start = now();
            let output = guarded(|| w.op(i, trace));
            let op_secs = secs_since(op_start);
            if i == 0 {
                trace.end_pass();
            }
            let checked = output.and_then(|out| guarded(|| w.check(i, &out)));
            match &checked {
                Ok(summary) => {
                    trace.end_op(Some(op_secs));
                    phase.op_secs.push(op_secs);
                    phase.events += summary.events;
                    if i < QUALITY_OPS {
                        phase.quality.push(summary.quality);
                    }
                }
                Err(_) => trace.end_op(None),
            }
            tally.record(&format!("op {i}"), checked.map(|_| ()));
        }
        i += 1;
    }
    phases
}

/// One counted traced pass: op 0, then the census.
fn count_pass<W: Workload>(w: &mut W, trace: &mut Trace) -> Result<(), String> {
    trace.begin_pass();
    let op = guarded(|| w.op(0, trace));
    trace.end_pass();
    op.and_then(|out| guarded(|| w.check(0, &out)))?;
    trace.end_op(None);
    trace.begin_pass();
    let census = guarded(|| w.census(trace));
    trace.end_pass();
    census
}

/// The high-water mark of the process's resident memory, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(setups: &[f64], phase: &Phase, tally: &Tally) -> Result<Metrics, String> {
    let ms = |q| quantile(&phase.op_secs, q).map_or(0.0, |s| s * 1e3);
    let busy: f64 = phase.op_secs.iter().sum();
    let n = phase.quality.len() as f64;
    let mean = |f: fn(&Quality) -> f64| {
        if n > 0.0 {
            phase.quality.iter().map(f).sum::<f64>() / n
        } else {
            0.0
        }
    };
    Ok(vec![
        ("setup_s", median(setups).unwrap_or(0.0), "s"),
        ("op_ms.p50", ms(0.5), "ms"),
        ("op_ms.p90", ms(0.9), "ms"),
        (
            "events_per_s",
            if busy > 0.0 {
                phase.events as f64 / busy
            } else {
                0.0
            },
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        (
            "ok_rate",
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        ("accuracy", mean(|q| q.accuracy), "ratio"),
        ("virtual_makespan_s", mean(|q| q.makespan_secs), "s"),
        ("crowd_spend_usd", mean(|q| q.spend_usd), "usd"),
    ])
}

/// How a per-layer metric reads the trace.
enum Source {
    /// A quantile of every call's duration, in microseconds.
    Call(&'static str, f64),
    /// The median over ops (and census parts) of the per-op total, in ms.
    Total(&'static str),
    /// The median of a recorded ratio.
    Ratio(&'static str),
    /// A deterministic counter.
    Count(&'static str),
}

const PER_LAYER: &[(&str, &str, Source)] = &[
    (
        "dataset.generate_ms",
        "ms",
        Source::Total("dataset.generate"),
    ),
    (
        "classifiers.train_ms",
        "ms",
        Source::Total("classifiers.train"),
    ),
    (
        "classifiers.votes_batch_us",
        "us",
        Source::Call("classifiers.votes_batch", 0.5),
    ),
    ("crowd.submit_us", "us", Source::Call("crowd.submit", 0.5)),
    ("crowd.submits", "count", Source::Count("crowd.submits")),
    ("cqc.fit_ms", "ms", Source::Total("cqc.fit")),
    ("cqc.fit_rows", "count", Source::Count("cqc.fit_rows")),
    ("cqc.infer_us", "us", Source::Call("cqc.infer", 0.5)),
    ("cqc.infers", "count", Source::Count("cqc.infers")),
    ("ipd.warmup_ms", "ms", Source::Total("ipd.warmup")),
    ("core.boot_ms", "ms", Source::Total("core.boot")),
    (
        "core.start_cycle_us",
        "us",
        Source::Call("core.start_cycle", 0.5),
    ),
    (
        "core.post_next_query_us",
        "us",
        Source::Call("core.post_next_query", 0.5),
    ),
    (
        "core.absorb_answer_us",
        "us",
        Source::Call("core.absorb_answer", 0.5),
    ),
    (
        "core.finalize_cycle_us",
        "us",
        Source::Call("core.finalize_cycle", 0.5),
    ),
    (
        "runtime.step_us.p50",
        "us",
        Source::Call("runtime.step", 0.5),
    ),
    (
        "runtime.step_us.p99",
        "us",
        Source::Call("runtime.step", 0.99),
    ),
    ("runtime.events", "count", Source::Count("runtime.events")),
    (
        "runtime.hits_posted",
        "count",
        Source::Count("runtime.hits_posted"),
    ),
    ("runtime.reposts", "count", Source::Count("runtime.reposts")),
    (
        "runtime.timeouts",
        "count",
        Source::Count("runtime.timeouts"),
    ),
    (
        "runtime.posts_rejected",
        "count",
        Source::Count("runtime.posts_rejected"),
    ),
    (
        "runtime.degraded_cycles",
        "count",
        Source::Count("runtime.degraded_cycles"),
    ),
    ("fleet.step_us.p50", "us", Source::Call("fleet.step", 0.5)),
    ("fleet.step_us.p99", "us", Source::Call("fleet.step", 0.99)),
    ("fleet.resume_ms", "ms", Source::Total("fleet.resume")),
    (
        "fleet.snapshot_bytes",
        "bytes",
        Source::Count("fleet.snapshot_bytes"),
    ),
    ("snapshot.encode_ms", "ms", Source::Total("snapshot.encode")),
    ("snapshot.decode_ms", "ms", Source::Total("snapshot.decode")),
    ("snapshot.bytes", "bytes", Source::Count("snapshot.bytes")),
    (
        "snapshot.round_trips",
        "count",
        Source::Count("snapshot.round_trips"),
    ),
    ("tap.records", "count", Source::Count("tap.records")),
    ("trace.coverage", "ratio", Source::Ratio("trace.coverage")),
    (
        "trace.boot_coverage",
        "ratio",
        Source::Ratio("trace.boot_coverage"),
    ),
];

/// The per-layer metrics. A metric without samples reads 0 and fails the
/// run: every workload's traced run (ops plus census) must reach every
/// layer.
fn per_layer(trace: &Trace, untraced: &Phase, traced: &Phase, tally: &mut Tally) -> Metrics {
    let counters = trace.counters();
    let counter = |name: &str| counters.get(name).copied();
    let mut out = Metrics::new();
    let mut push = |name: &'static str, value: Option<f64>, unit: &'static str| {
        if value.is_none() {
            tally.record(name, Err("no samples".into()));
        }
        out.push((name, value.unwrap_or(0.0), unit));
    };
    for (name, unit, source) in PER_LAYER {
        let value = match source {
            Source::Call(span, q) => quantile(trace.calls(span), *q).map(|s| s * 1e6),
            Source::Total(span) => median(trace.totals(span)).map(|s| s * 1e3),
            Source::Ratio(span) => median(trace.totals(span)),
            Source::Count(c) => counter(c).map(|n| n as f64),
        };
        push(name, value, unit);
    }
    let attempts = counter("runtime.hits_posted")
        .zip(counter("runtime.reposts"))
        .map(|(posted, reposted)| posted + reposted);
    let yield_ = counter("runtime.answers_used")
        .zip(attempts)
        .map(|(answers, attempts)| answers as f64 / attempts.max(1) as f64);
    push("runtime.hit_yield", yield_, "ratio");
    let overhead = median(&traced.op_secs)
        .zip(median(&untraced.op_secs))
        .map(|(t, u)| t / u);
    push("trace.overhead", overhead, "ratio");
    out
}

fn run<W: Workload>(args: &Args) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built: Option<W> = None;
    for _ in 0..SETUPS {
        let start = now();
        let w = guarded(|| W::setup(args.seed))?;
        setups.push(secs_since(start));
        if let Some(previous) = &built {
            let same = previous.setup_digest() == w.setup_digest();
            tally.record(
                "set-up",
                same.then_some(())
                    .ok_or_else(|| "repeated set-ups differ".to_string()),
            );
        }
        built = Some(w);
    }
    let mut w = built.ok_or("no set-up ran")?;
    guarded(|| w.prepare())?;

    let mut traces = vec![Trace::new(false)];
    if args.trace {
        traces.push(Trace::new(true));
    }
    let phases = measure(&mut w, args.seconds, &mut traces, &mut tally);
    let finish = guarded(|| w.finish());
    tally.record("finish", finish);
    let untraced = &phases[0];
    println!(
        "ops: {} untraced in {:.1} s ({} failed of {} attempted, error_rate {})",
        untraced.op_secs.len(),
        untraced.op_secs.iter().sum::<f64>(),
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let metrics = match (traces.pop(), phases.get(1)) {
        (Some(mut trace), Some(traced)) => {
            println!("ops: {} traced", traced.op_secs.len());
            trace.begin_pass();
            let census = guarded(|| w.census(&mut trace));
            trace.end_pass();
            tally.record("census", census);
            // The counters must repeat exactly on a second counted pass.
            let mut again = Trace::new(true);
            let recount = count_pass(&mut w, &mut again).and_then(|()| {
                (again.counters() == trace.counters())
                    .then_some(())
                    .ok_or_else(|| "work counters differ between two traced passes".to_string())
            });
            tally.record("recount", recount);
            per_layer(&trace, untraced, traced, &mut tally)
        }
        _ => end_to_end(&setups, untraced, &tally)?,
    };
    Ok((metrics, tally))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cold_paper" => run::<ColdPaper>(&args),
        "warm_fleet" => run::<WarmFleet>(&args),
        "checkpoint_churn" => run::<CheckpointChurn>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let (metrics, tally) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &tally.notes {
        eprintln!("perfbench: failed {note}");
    }
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
