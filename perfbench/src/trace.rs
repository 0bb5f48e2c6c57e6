//! Wall-clock spans and deterministic work counters, recorded from the
//! benchmark's own files around calls into each layer's public API.
//!
//! Spans are leaves: a span never encloses another, so the spans of one op
//! add up to the share of its time they explain (`trace.coverage`).
//! Counters are pure functions of the seed. They are taken in *passes* (the
//! first traced op, then the census), and a name keeps the value from the
//! first pass that counted it.

use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's single wall-clock read.
// The simulation crates run on virtual time (detlint D2); wall-clock
// reads belong to timing harnesses only. clippy.toml mirrors D2
// repository-wide, so the exemption is restated here, as the bench crate
// does.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Span and counter store for one benchmark process. With `on == false`
/// every method is a no-op and [`Trace::span`] only calls its closure.
#[derive(Default)]
pub struct Trace {
    on: bool,
    /// Every span's duration in seconds, by name.
    calls: BTreeMap<&'static str, Vec<f64>>,
    /// Per-op (or per census part) totals in seconds, by name.
    totals: BTreeMap<&'static str, Vec<f64>>,
    /// Running totals of the current op.
    op: BTreeMap<&'static str, f64>,
    /// Seconds the current op's spans cover.
    covered: f64,
    counting: bool,
    pass: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// A trace that records spans (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its duration under `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = now();
        let out = f();
        let secs = secs_since(start);
        self.calls.entry(name).or_default().push(secs);
        *self.op.entry(name).or_default() += secs;
        self.covered += secs;
        out
    }

    /// Records an enclosing measurement (one that contains spans) as a
    /// per-op total. It does not count towards coverage.
    pub fn outer(&mut self, name: &'static str, secs: f64) {
        if self.on {
            *self.op.entry(name).or_default() += secs;
        }
    }

    /// Records one sample of a derived per-op value (a ratio).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.totals.entry(name).or_default().push(value);
        }
    }

    /// Seconds covered by spans so far in the current op.
    pub fn covered(&self) -> f64 {
        self.covered
    }

    /// Closes the current op: its per-name totals become one sample each,
    /// and, given the op's wall time, its coverage becomes a sample of
    /// `trace.coverage`. Census parts close with `None`.
    pub fn end_op(&mut self, op_secs: Option<f64>) {
        if !self.on {
            return;
        }
        for (name, secs) in std::mem::take(&mut self.op) {
            self.totals.entry(name).or_default().push(secs);
        }
        if let Some(op_secs) = op_secs {
            let coverage = self.covered / op_secs;
            self.totals
                .entry("trace.coverage")
                .or_default()
                .push(coverage);
        }
        self.covered = 0.0;
    }

    /// Starts counting work: counts add up until [`Trace::end_pass`].
    pub fn begin_pass(&mut self) {
        self.counting = self.on;
    }

    /// Adds `n` to counter `name` while a pass is open.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.counting {
            *self.pass.entry(name).or_default() += n;
        }
    }

    /// Closes the pass. A counter keeps the value of the first pass that
    /// counted it.
    pub fn end_pass(&mut self) {
        self.counting = false;
        for (name, n) in std::mem::take(&mut self.pass) {
            self.counters.entry(name).or_insert(n);
        }
    }

    /// The finished counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Every span duration recorded under `name`, in seconds.
    pub fn calls(&self, name: &str) -> &[f64] {
        self.calls.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every per-op total recorded under `name`.
    pub fn totals(&self, name: &str) -> &[f64] {
        self.totals.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}
