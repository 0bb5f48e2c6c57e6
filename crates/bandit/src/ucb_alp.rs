//! UCB-ALP: the constrained contextual bandit solver of Wu, Srikant, Liu &
//! Jiang, "Algorithms with logarithmic or sublinear regret for constrained
//! contextual bandits" (NeurIPS 2015) — the algorithm the paper cites for
//! solving the IPD objective (Eq. 4).
//!
//! Per round the algorithm:
//!
//! 1. maintains UCB estimates of the expected payoff of every
//!    (context, action) pair,
//! 2. computes the *average remaining budget per remaining round*
//!    `rho = B_remaining / tau_remaining`,
//! 3. solves the adaptive linear program
//!    `max sum_z pi(z) sum_a p(a|z) UCB(z,a)` subject to
//!    `sum_z pi(z) sum_a p(a|z) c(a) <= rho` via a Lagrangian bisection
//!    (the LP has a single coupling constraint, so the optimum is attained
//!    by per-context argmax of `UCB(z,a) - lambda c(a)` with at most one
//!    mixed context),
//! 4. samples the action for the observed context from the LP solution.
//!
//! The context distribution `pi` is estimated from the empirical context
//! frequencies (initialized uniform), as the paper's four temporal contexts
//! are equally likely by construction.
//!
//! The solve allocates nothing per bisection step. Each select builds the
//! UCB table (untried pairs already capped at their forced-exploration
//! score) and `pi` once; each of the 81 greedy evaluations (one at
//! `lambda = 0`, then 80 bisection steps) reads them, picks each context's
//! argmax without branching, and keeps of its plan only the expected cost
//! and the action at the observed context, which is all the select uses. The bisection, its comparisons, the first-maximum
//! tie rule and the one RNG draw are those of the plan-building solve it
//! replaced, kept as a `#[cfg(test)]` oracle that a property test holds it
//! to bit for bit; so the action sequence is identical.

use crate::config::{BanditConfig, BudgetLedger, CostedBandit};
use crate::state::{PolicyState, UcbAlpState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(test)]
mod reference;

/// The UCB-ALP policy. See the module docs for the algorithm.
///
/// # Example
///
/// ```
/// use crowdlearn_bandit::{BanditConfig, CostedBandit, UcbAlp};
///
/// let mut bandit = UcbAlp::new(BanditConfig::new(2, vec![1.0, 5.0], 60.0, 20), 3);
/// for round in 0..20 {
///     let ctx = round % 2;
///     if let Some(action) = bandit.select(ctx) {
///         // cheap action pays well in context 0, expensive in context 1
///         let payoff = if (ctx == 0) == (action == 0) { 0.9 } else { 0.2 };
///         bandit.observe(ctx, action, payoff);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct UcbAlp {
    config: BanditConfig,
    ledger: BudgetLedger,
    /// Pull counts per (context, action).
    counts: Vec<Vec<u64>>,
    /// Mean payoff per (context, action).
    means: Vec<Vec<f64>>,
    /// Observed context frequencies (for the pi estimate).
    context_counts: Vec<u64>,
    rounds_elapsed: u64,
    exploration_scale: f64,
    rng: StdRng,
}

impl UcbAlp {
    /// Default exploration coefficient; tuned for payoffs normalized to
    /// `[0, 1]` and the paper's short (hundreds of pulls) horizons — the
    /// textbook `sqrt(2 ln t / n)` bonus would dwarf the payoff gaps and
    /// turn the LP into a pure cheapest-arm race.
    pub const DEFAULT_EXPLORATION_SCALE: f64 = 0.08;

    /// Creates a fresh policy for the given problem.
    pub fn new(config: BanditConfig, seed: u64) -> Self {
        let z = config.contexts();
        let k = config.actions();
        Self {
            ledger: BudgetLedger::new(config.total_budget()),
            counts: vec![vec![0; k]; z],
            means: vec![vec![0.0; k]; z],
            context_counts: vec![0; z],
            rounds_elapsed: 0,
            exploration_scale: Self::DEFAULT_EXPLORATION_SCALE,
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }

    /// Overrides the exploration coefficient (`0.0` disables optimism).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is negative or NaN.
    pub fn with_exploration_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0 && !scale.is_nan(), "scale must be >= 0");
        self.exploration_scale = scale;
        self
    }

    /// Rebuilds a policy from a decoded snapshot state (validated at decode
    /// time); the restore path of [`PolicyState::into_bandit`].
    pub(crate) fn from_state(s: UcbAlpState) -> Self {
        Self {
            ledger: BudgetLedger::new(s.remaining_budget),
            counts: s.counts,
            means: s.means,
            context_counts: s.context_counts,
            rounds_elapsed: s.rounds_elapsed,
            exploration_scale: s.exploration_scale,
            rng: StdRng::from_state(s.rng),
            config: s.config,
        }
    }

    /// UCB index of a (context, action) pair. Untried pairs get `+inf` so
    /// they are explored first.
    fn ucb(&self, z: usize, a: usize) -> f64 {
        let n = self.counts[z][a];
        if n == 0 {
            return f64::INFINITY;
        }
        let t = self.rounds_elapsed.max(2) as f64;
        self.means[z][a] + self.exploration_scale * (t.ln() / n as f64).sqrt()
    }

    /// Solves the adaptive LP for `context`: returns the action of the
    /// smallest lambda whose greedy policy fits within `rho` expected cost,
    /// together with the action of the boundary plan just above it and the
    /// mixing probability that makes the expected cost exactly `rho`.
    ///
    /// The LP optimum at a single coupling constraint randomizes between the
    /// two adjacent deterministic plans; without the mixing, per-round slack
    /// accumulates and gets burned late in flat (low-marginal-payoff)
    /// contexts.
    ///
    /// The UCB table and `pi` are built once; each of the 81 greedy
    /// evaluations then only reads them, and of each plan only its cost and
    /// its action at `context` are kept, so the bisection allocates nothing.
    fn solve_alp(&self, rho: f64, context: usize) -> (usize, Option<(usize, f64)>) {
        let z = self.config.contexts();
        let k = self.config.actions();
        let costs = self.config.action_costs();
        let mut ucbs: Vec<f64> = (0..z)
            .flat_map(|zz| (0..k).map(move |aa| (zz, aa)))
            .map(|(zz, aa)| self.ucb(zz, aa))
            .collect();
        // The bisection's upper bound reads the finite UCBs only.
        let max_ucb = ucbs
            .iter()
            .filter(|u| u.is_finite())
            .fold(1.0f64, |m, &u| m.max(u.abs()));
        // Untried actions dominate regardless of lambda (forced
        // exploration), but their score is capped so cost-tiebreaks work:
        // an infinite UCB scores as `1e12`.
        for ucb in &mut ucbs {
            if ucb.is_infinite() {
                *ucb = 1e12;
            }
        }
        // Context distribution: the declared one when known, otherwise the
        // uniform-smoothed empirical estimate.
        let empirical: Vec<f64>;
        let pi = match self.config.context_distribution() {
            Some(known) => known,
            None => {
                let total: u64 = self.context_counts.iter().sum();
                empirical = self
                    .context_counts
                    .iter()
                    .map(|&c| (c as f64 + 1.0) / (total as f64 + z as f64))
                    .collect();
                &empirical
            }
        };

        // Expected per-round cost of the greedy policy at Lagrange
        // multiplier `lambda`, and the action it takes at `context`.
        let greedy_at_lambda = |lambda: f64| {
            let mut expected_cost = 0.0;
            let mut chosen = 0;
            for (zz, row) in ucbs.chunks_exact(k).enumerate() {
                let mut best = 0;
                let mut best_score = f64::NEG_INFINITY;
                for (a, (&ucb, &cost)) in row.iter().zip(costs).enumerate() {
                    // The first maximum wins, selected without a branch.
                    let score = ucb - lambda * cost;
                    let better = score > best_score;
                    best_score = if better { score } else { best_score };
                    best = if better { a } else { best };
                }
                expected_cost += pi[zz] * costs[best];
                if zz == context {
                    chosen = best;
                }
            }
            (expected_cost, chosen)
        };

        // If the unconstrained greedy fits, take it.
        let (cost0, choice0) = greedy_at_lambda(0.0);
        if cost0 <= rho {
            return (choice0, None);
        }

        // Bisection on lambda. Upper bound: lambda so large the cheapest
        // action wins everywhere.
        let cost_span = costs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
            (lo.min(c), hi.max(c))
        });
        let mut lo = 0.0;
        let mut hi = (2.0 * max_ucb + 1e12) / (cost_span.1 - cost_span.0).max(1e-9);
        let mut feasible = None;
        let mut infeasible = (cost0, choice0);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let (cost, choice) = greedy_at_lambda(mid);
            if cost <= rho {
                feasible = Some((cost, choice));
                hi = mid;
            } else {
                infeasible = (cost, choice);
                lo = mid;
            }
        }
        match feasible {
            Some((c_f, choice_f)) => {
                let (c_i, choice_i) = infeasible;
                let mix = if c_i > c_f + 1e-12 {
                    let p = ((rho - c_f) / (c_i - c_f)).clamp(0.0, 1.0);
                    (p > 0.0).then_some((choice_i, p))
                } else {
                    None
                };
                (choice_f, mix)
            }
            // Even at huge lambda the cheapest actions may not fit rho (rho
            // below minimum cost): fall back to cheapest everywhere.
            None => (self.config.cheapest_action(), None),
        }
    }
}

impl CostedBandit for UcbAlp {
    fn name(&self) -> &str {
        "UCB-ALP"
    }

    fn select(&mut self, context: usize) -> Option<usize> {
        assert!(context < self.config.contexts(), "context out of range");
        self.rounds_elapsed += 1;
        self.context_counts[context] += 1;

        let remaining_rounds = self
            .config
            .horizon()
            .saturating_sub(self.rounds_elapsed - 1)
            .max(1);
        let rho = self.ledger.remaining() / remaining_rounds as f64;
        let (mut action, boundary) = self.solve_alp(rho, context);
        if let Some((upper, p)) = boundary {
            if self.rng.gen::<f64>() < p {
                action = upper;
            }
        }

        if !self.ledger.try_charge(self.config.cost(action)) {
            // LP answer unaffordable right now: degrade to the most
            // expensive affordable action below it, preferring exploration
            // value.
            let affordable = self
                .ledger
                .affordable(self.config.action_costs().iter().enumerate());
            if affordable.is_empty() {
                return None;
            }
            action = *affordable
                .iter()
                .max_by(|&&a, &&b| {
                    self.ucb(context, a)
                        .partial_cmp(&self.ucb(context, b))
                        .expect("UCBs comparable")
                })
                .expect("non-empty affordable set");
            let charged = self.ledger.try_charge(self.config.cost(action));
            debug_assert!(charged, "affordable action must charge");
        }
        Some(action)
    }

    fn observe(&mut self, context: usize, action: usize, payoff: f64) {
        assert!(context < self.config.contexts(), "context out of range");
        assert!(action < self.config.actions(), "action out of range");
        assert!(payoff.is_finite(), "payoff must not be NaN or infinite");
        let n = &mut self.counts[context][action];
        *n += 1;
        let mean = &mut self.means[context][action];
        *mean += (payoff - *mean) / *n as f64;
    }

    fn charge(&mut self, action: usize) -> bool {
        self.ledger.try_charge(self.config.cost(action))
    }

    fn clawback(&mut self, amount: f64) -> f64 {
        self.ledger.clawback(amount)
    }

    fn remaining_budget(&self) -> f64 {
        self.ledger.remaining()
    }

    fn config(&self) -> &BanditConfig {
        &self.config
    }

    fn save_state(&self) -> Option<PolicyState> {
        Some(PolicyState::UcbAlp(UcbAlpState {
            config: self.config.clone(),
            remaining_budget: self.ledger.remaining(),
            counts: self.counts.clone(),
            means: self.means.clone(),
            context_counts: self.context_counts.clone(),
            rounds_elapsed: self.rounds_elapsed,
            exploration_scale: self.exploration_scale,
            rng: self.rng.state(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic environment: payoff depends on (context, action) with a
    /// known optimum per context.
    fn payoff(ctx: usize, action: usize) -> f64 {
        // Context 0 rewards expensive actions strongly; context 1 is flat
        // (cheap actions are effectively optimal per cost).
        match ctx {
            0 => [0.1, 0.4, 0.9][action],
            _ => [0.75, 0.8, 0.82][action],
        }
    }

    fn run(total_budget: f64, rounds: u64) -> (UcbAlp, Vec<(usize, usize)>) {
        let config = BanditConfig::new(2, vec![1.0, 2.0, 4.0], total_budget, rounds);
        let mut bandit = UcbAlp::new(config, 11);
        let mut picks = Vec::new();
        for r in 0..rounds {
            let ctx = (r % 2) as usize;
            if let Some(a) = bandit.select(ctx) {
                bandit.observe(ctx, a, payoff(ctx, a));
                picks.push((ctx, a));
            }
        }
        (bandit, picks)
    }

    #[test]
    fn never_overspends_budget() {
        for budget in [3.0, 10.0, 50.0, 120.0] {
            let (bandit, picks) = run(budget, 100);
            let spent: f64 = picks.iter().map(|&(_, a)| [1.0, 2.0, 4.0][a]).sum();
            assert!(spent <= budget + 1e-9, "spent {spent} of {budget}");
            assert!((bandit.remaining_budget() - (budget - spent)).abs() < 1e-6);
        }
    }

    #[test]
    fn rich_budget_finds_per_context_optimum() {
        // Budget 400 over 100 rounds: can always afford the best action.
        let (_, picks) = run(400.0, 100);
        let late: Vec<_> = picks.iter().skip(60).collect();
        let ctx0_best = late
            .iter()
            .filter(|(c, _)| *c == 0)
            .filter(|(_, a)| *a == 2)
            .count() as f64
            / late.iter().filter(|(c, _)| *c == 0).count().max(1) as f64;
        assert!(
            ctx0_best > 0.7,
            "context 0 should converge to action 2, rate {ctx0_best}"
        );
    }

    #[test]
    fn tight_budget_spends_where_it_matters() {
        // rho = 2.0: cannot afford action 2 everywhere. The LP should spend
        // on context 0 (payoff gap 0.8) and save on context 1 (flat).
        let (_, picks) = run(200.0, 100);
        let late: Vec<_> = picks.iter().skip(40).collect();
        let avg_cost = |ctx: usize| {
            let xs: Vec<f64> = late
                .iter()
                .filter(|(c, _)| *c == ctx)
                .map(|&&(_, a)| [1.0f64, 2.0, 4.0][a])
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        assert!(
            avg_cost(0) > avg_cost(1),
            "must pay more in the payoff-sensitive context: {} vs {}",
            avg_cost(0),
            avg_cost(1)
        );
    }

    #[test]
    fn exhausted_budget_returns_none() {
        let config = BanditConfig::new(1, vec![1.0], 2.0, 10);
        let mut bandit = UcbAlp::new(config, 1);
        assert!(bandit.select(0).is_some());
        assert!(bandit.select(0).is_some());
        assert!(bandit.select(0).is_none());
        assert_eq!(bandit.remaining_budget(), 0.0);
    }

    #[test]
    fn explores_every_action_at_least_once_with_budget() {
        let (bandit, picks) = run(1000.0, 60);
        for a in 0..3 {
            assert!(
                picks.iter().any(|&(_, pa)| pa == a),
                "action {a} never tried; counts {:?}",
                bandit.counts
            );
        }
    }

    #[test]
    #[should_panic(expected = "context out of range")]
    fn select_rejects_bad_context() {
        let mut bandit = UcbAlp::new(BanditConfig::new(2, vec![1.0], 5.0, 5), 0);
        bandit.select(2);
    }

    #[test]
    #[should_panic(expected = "payoff must not be NaN")]
    fn observe_rejects_nan() {
        let mut bandit = UcbAlp::new(BanditConfig::new(1, vec![1.0], 5.0, 5), 0);
        bandit.observe(0, 0, f64::NAN);
    }

    #[test]
    fn is_deterministic_given_seed_and_payoffs() {
        let (_, a) = run(120.0, 50);
        let (_, b) = run(120.0, 50);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "payoff must not be NaN or infinite")]
    fn observe_rejects_infinite_payoffs() {
        let mut bandit = UcbAlp::new(BanditConfig::new(1, vec![1.0], 5.0, 5), 0);
        bandit.observe(0, 0, f64::INFINITY);
    }
}
