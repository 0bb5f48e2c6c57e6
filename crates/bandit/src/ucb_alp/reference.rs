//! The UCB-ALP solve this crate shipped before the allocation-free one,
//! kept verbatim (apart from the names) as the test oracle, and the property
//! test that pins [`UcbAlp::solve_alp`] to it bit for bit.

use super::UcbAlp;
use crate::config::BanditConfig;
use crate::CostedBandit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl UcbAlp {
    /// Context distribution for the LP: the declared one when known,
    /// otherwise the uniform-smoothed empirical estimate.
    fn pi_reference(&self) -> Vec<f64> {
        if let Some(known) = self.config.context_distribution() {
            return known.to_vec();
        }
        let z = self.config.contexts();
        let total: u64 = self.context_counts.iter().sum();
        self.context_counts
            .iter()
            .map(|&c| (c as f64 + 1.0) / (total as f64 + z as f64))
            .collect()
    }

    /// Expected per-round cost of the greedy policy at Lagrange multiplier
    /// `lambda`, plus the per-context argmax actions it induces.
    fn greedy_at_lambda_reference(&self, lambda: f64, ucbs: &[Vec<f64>]) -> (f64, Vec<usize>) {
        let pi = self.pi_reference();
        let mut expected_cost = 0.0;
        let mut choices = Vec::with_capacity(self.config.contexts());
        for z in 0..self.config.contexts() {
            let mut best = 0;
            let mut best_score = f64::NEG_INFINITY;
            for (a, &ucb) in ucbs[z].iter().enumerate() {
                // Untried actions dominate regardless of lambda (forced
                // exploration), but cap their score so cost-tiebreaks work.
                let score = if ucb.is_infinite() {
                    1e12 - lambda * self.config.cost(a)
                } else {
                    ucb - lambda * self.config.cost(a)
                };
                if score > best_score {
                    best_score = score;
                    best = a;
                }
            }
            expected_cost += pi[z] * self.config.cost(best);
            choices.push(best);
        }
        (expected_cost, choices)
    }

    /// Solves the adaptive LP: returns the per-context plan of the smallest
    /// lambda whose greedy policy fits within `rho` expected cost, together
    /// with the boundary plan just above it and the mixing probability that
    /// makes the expected cost exactly `rho`.
    pub(super) fn solve_alp_reference(&self, rho: f64) -> (Vec<usize>, Option<(Vec<usize>, f64)>) {
        let z = self.config.contexts();
        let k = self.config.actions();
        let ucbs: Vec<Vec<f64>> = (0..z)
            .map(|zz| (0..k).map(|aa| self.ucb(zz, aa)).collect())
            .collect();

        // If the unconstrained greedy fits, take it.
        let (cost0, choices0) = self.greedy_at_lambda_reference(0.0, &ucbs);
        if cost0 <= rho {
            return (choices0, None);
        }

        // Bisection on lambda. Upper bound: lambda so large the cheapest
        // action wins everywhere.
        let max_ucb = ucbs
            .iter()
            .flatten()
            .filter(|u| u.is_finite())
            .fold(1.0f64, |m, &u| m.max(u.abs()));
        let cost_span = self
            .config
            .action_costs()
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
                (lo.min(c), hi.max(c))
            });
        let mut lo = 0.0;
        let mut hi = (2.0 * max_ucb + 1e12) / (cost_span.1 - cost_span.0).max(1e-9);
        let mut feasible = None;
        let mut infeasible = Some((cost0, choices0));
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            let (cost, choices) = self.greedy_at_lambda_reference(mid, &ucbs);
            if cost <= rho {
                feasible = Some((cost, choices));
                hi = mid;
            } else {
                infeasible = Some((cost, choices));
                lo = mid;
            }
        }
        match feasible {
            Some((c_f, plan_f)) => {
                let mix = infeasible.and_then(|(c_i, plan_i)| {
                    if c_i > c_f + 1e-12 {
                        let p = ((rho - c_f) / (c_i - c_f)).clamp(0.0, 1.0);
                        (p > 0.0).then_some((plan_i, p))
                    } else {
                        None
                    }
                });
                (plan_f, mix)
            }
            // Even at huge lambda the cheapest actions may not fit rho (rho
            // below minimum cost): fall back to cheapest everywhere.
            None => (vec![self.config.cheapest_action(); z], None),
        }
    }
}

/// A policy in a random reachable-looking state: some untried pairs (whose
/// UCB is `+inf`), tied and distinct costs, a known or an empirical context
/// distribution, and any number of elapsed rounds.
fn random_policy(rng: &mut StdRng) -> UcbAlp {
    let z = rng.gen_range(1..6usize);
    let k = rng.gen_range(1..6usize);
    let costs: Vec<f64> = (0..k)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => 1.0,
            _ => rng.gen_range(0.25..6.0),
        })
        .collect();
    let mut config = BanditConfig::new(z, costs, rng.gen_range(0.0..400.0), rng.gen_range(1..500));
    if rng.gen_bool(0.5) {
        let weights: Vec<f64> = (0..z).map(|_| rng.gen_range(0.05..1.0)).collect();
        let total: f64 = weights.iter().sum();
        config = config.with_context_distribution(weights.iter().map(|w| w / total).collect());
    }
    let mut bandit =
        UcbAlp::new(config, rng.gen()).with_exploration_scale(match rng.gen_range(0..4u32) {
            0 => 0.0,
            _ => rng.gen_range(0.0..0.6),
        });
    for zz in 0..z {
        for a in 0..k {
            bandit.counts[zz][a] = match rng.gen_range(0..3u32) {
                0 => 0,
                _ => rng.gen_range(1..40),
            };
            bandit.means[zz][a] = rng.gen_range(0.0..1.0);
        }
        bandit.context_counts[zz] = rng.gen_range(0..60);
    }
    bandit.rounds_elapsed = rng.gen_range(0..400);
    bandit
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

    /// At every context, the allocation-free solve takes the reference
    /// plan's action, and mixes in the reference boundary plan's action
    /// with the bit-identical probability (or neither mixes).
    #[test]
    fn solve_alp_matches_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bandit = random_policy(&mut rng);
        let min_cost = bandit
            .config()
            .action_costs()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let rho = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0.0..min_cost),
            _ => rng.gen_range(0.0..8.0),
        };
        let (plan, boundary) = bandit.solve_alp_reference(rho);
        for (context, &want) in plan.iter().enumerate() {
            let (action, mix) = bandit.solve_alp(rho, context);
            proptest::prop_assert_eq!(action, want);
            proptest::prop_assert_eq!(
                mix.map(|(upper, p)| (upper, p.to_bits())),
                boundary.as_ref().map(|(upper, p)| (upper[context], p.to_bits()))
            );
        }
    }
}
