//! Shared configuration and the bandit trait.

use serde::binary::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

/// Static description of a constrained contextual bandit problem: the number
/// of contexts, the per-action costs, the total budget, and the horizon
/// (expected number of pulls).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BanditConfig {
    contexts: usize,
    action_costs: Vec<f64>,
    total_budget: f64,
    horizon: u64,
    context_distribution: Option<Vec<f64>>,
}

impl BanditConfig {
    /// Creates a problem description.
    ///
    /// # Panics
    ///
    /// Panics if `contexts == 0`, `action_costs` is empty or contains a
    /// non-positive cost, `total_budget < 0`, or `horizon == 0`.
    pub fn new(contexts: usize, action_costs: Vec<f64>, total_budget: f64, horizon: u64) -> Self {
        assert!(contexts > 0, "need at least one context");
        assert!(!action_costs.is_empty(), "need at least one action");
        assert!(
            action_costs.iter().all(|c| *c > 0.0 && c.is_finite()),
            "action costs must be positive and finite"
        );
        assert!(total_budget >= 0.0, "budget must be non-negative");
        assert!(horizon > 0, "horizon must be positive");
        Self {
            contexts,
            action_costs,
            total_budget,
            horizon,
            context_distribution: None,
        }
    }

    /// Declares the long-run context distribution when it is known a priori
    /// (the paper's four temporal contexts are uniform by construction:
    /// 10 sensing cycles each). Without this, policies estimate the
    /// distribution empirically — which is badly misleading when contexts
    /// arrive in long blocks rather than i.i.d.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `contexts`, any entry is negative,
    /// or the entries do not sum to 1 (within 1e-6).
    pub fn with_context_distribution(mut self, distribution: Vec<f64>) -> Self {
        assert_eq!(
            distribution.len(),
            self.contexts,
            "one probability per context"
        );
        assert!(
            distribution.iter().all(|p| *p >= 0.0),
            "probabilities must be non-negative"
        );
        let sum: f64 = distribution.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "probabilities must sum to 1");
        self.context_distribution = Some(distribution);
        self
    }

    /// The declared context distribution, if any.
    pub fn context_distribution(&self) -> Option<&[f64]> {
        self.context_distribution.as_deref()
    }

    /// Number of contexts `Z`.
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Number of actions `K`.
    pub fn actions(&self) -> usize {
        self.action_costs.len()
    }

    /// Per-action costs, indexed by action id.
    pub fn action_costs(&self) -> &[f64] {
        &self.action_costs
    }

    /// Cost of one action.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn cost(&self, action: usize) -> f64 {
        self.action_costs[action]
    }

    /// Total budget `B` of Eq. 4.
    pub fn total_budget(&self) -> f64 {
        self.total_budget
    }

    /// Horizon `T` (total expected pulls).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Index of the cheapest action (the always-affordable fallback).
    pub fn cheapest_action(&self) -> usize {
        self.action_costs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
            .map(|(i, _)| i)
            .expect("non-empty actions")
    }
}

/// A budget-constrained contextual bandit over integer contexts/actions.
///
/// The protocol per round is: observe a context, call
/// [`CostedBandit::select`] (which charges the chosen action's cost against
/// the internal budget and returns `None` once even the cheapest action is
/// unaffordable), then later call [`CostedBandit::observe`] with the revealed
/// payoff. Payoffs are expected to be normalized to `[0, 1]` — for IPD this
/// is `1 - delay / delay_ceiling`, implementing the paper's "additive inverse
/// of the average delay" (Definition 12).
pub trait CostedBandit: Send {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Chooses an action for `context`, charging its cost to the budget.
    /// Returns `None` when the remaining budget cannot afford any action.
    ///
    /// # Panics
    ///
    /// Implementations panic if `context` is out of range.
    fn select(&mut self, context: usize) -> Option<usize>;

    /// Reveals the payoff of a previously selected action.
    ///
    /// # Panics
    ///
    /// Implementations panic if `context`/`action` are out of range or the
    /// payoff is not finite. (An infinite payoff would leave an infinite
    /// mean, which [`crate::PolicyState`]'s decoder rejects, so the policy's
    /// checkpoint would never resume; the next payoff would turn that mean
    /// into NaN.)
    fn observe(&mut self, context: usize, action: usize, payoff: f64);

    /// Charges the cost of `action` to the budget without consulting the
    /// policy, returning whether the charge succeeded. Callers that re-issue
    /// an already-selected action (e.g. reposting a timed-out crowd task at
    /// an escalated incentive) use this so the spend still comes out of the
    /// same ledger [`CostedBandit::select`] draws from — the budget constraint
    /// holds across every posting path, not just policy-chosen ones.
    ///
    /// # Panics
    ///
    /// Implementations panic if `action` is out of range.
    fn charge(&mut self, action: usize) -> bool;

    /// Removes up to `amount` from the remaining budget and returns how much
    /// was actually removed (less than `amount` when the ledger holds less).
    /// This is the budget-shock path: an external clawback (platform refund
    /// reversal, sponsor pulling funds mid-run) hits the same ledger that
    /// [`CostedBandit::select`] draws from, so the policy's pacing reacts to
    /// the shrunken budget on the very next selection.
    ///
    /// # Panics
    ///
    /// Implementations panic if `amount` is negative or not finite.
    fn clawback(&mut self, amount: f64) -> f64;

    /// Budget still available.
    fn remaining_budget(&self) -> f64;

    /// The problem description this policy was built for.
    fn config(&self) -> &BanditConfig;

    /// The policy's full live state in serializable form, used by runtime
    /// checkpoints. Policies without a serialized form return `None` (the
    /// default), and a snapshot containing them fails with an explicit
    /// error instead of panicking.
    fn save_state(&self) -> Option<crate::PolicyState> {
        None
    }
}

// Snapshot codec: decoding re-checks the `new`/`with_context_distribution`
// invariants and reports `Invalid` instead of panicking.
impl Encode for BanditConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.contexts.encode(out);
        self.action_costs.encode(out);
        self.total_budget.encode(out);
        self.horizon.encode(out);
        self.context_distribution.encode(out);
    }
}

impl Decode for BanditConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let config = Self {
            contexts: usize::decode(r)?,
            action_costs: Vec::<f64>::decode(r)?,
            total_budget: f64::decode(r)?,
            horizon: u64::decode(r)?,
            context_distribution: Option::<Vec<f64>>::decode(r)?,
        };
        let mut valid = config.contexts > 0
            && !config.action_costs.is_empty()
            && config
                .action_costs
                .iter()
                .all(|c| *c > 0.0 && c.is_finite())
            && config.total_budget.is_finite()
            && config.total_budget >= 0.0
            && config.horizon > 0;
        if let Some(dist) = &config.context_distribution {
            valid = valid
                && dist.len() == config.contexts
                && dist.iter().all(|p| p.is_finite() && *p >= 0.0)
                && (dist.iter().sum::<f64>() - 1.0).abs() < 1e-6;
        }
        if !valid {
            return Err(DecodeError::Invalid);
        }
        Ok(config)
    }
}

/// Shared budget ledger used by the policy implementations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct BudgetLedger {
    remaining: f64,
}

impl BudgetLedger {
    pub(crate) fn new(total: f64) -> Self {
        Self { remaining: total }
    }

    pub(crate) fn remaining(&self) -> f64 {
        self.remaining
    }

    /// Charges `cost` if affordable; returns whether the charge succeeded.
    pub(crate) fn try_charge(&mut self, cost: f64) -> bool {
        if cost <= self.remaining + 1e-9 {
            self.remaining = (self.remaining - cost).max(0.0);
            true
        } else {
            false
        }
    }

    /// Removes up to `amount`, clamping at zero; returns the amount taken.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite.
    pub(crate) fn clawback(&mut self, amount: f64) -> f64 {
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "clawback must be non-negative and finite"
        );
        let taken = amount.min(self.remaining);
        self.remaining -= taken;
        taken
    }

    /// The most expensive affordable action, if any.
    pub(crate) fn affordable<'a>(
        &self,
        costs: impl IntoIterator<Item = (usize, &'a f64)>,
    ) -> Vec<usize> {
        costs
            .into_iter()
            .filter(|(_, &c)| c <= self.remaining + 1e-9)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accessors_work() {
        let c = BanditConfig::new(4, vec![2.0, 1.0, 4.0], 10.0, 5);
        assert_eq!(c.contexts(), 4);
        assert_eq!(c.actions(), 3);
        assert_eq!(c.cost(2), 4.0);
        assert_eq!(c.cheapest_action(), 1);
        assert_eq!(c.total_budget(), 10.0);
        assert_eq!(c.horizon(), 5);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_cost_rejected() {
        BanditConfig::new(1, vec![0.0], 1.0, 1);
    }

    #[test]
    fn ledger_charges_until_exhausted() {
        let mut ledger = BudgetLedger::new(5.0);
        assert!(ledger.try_charge(2.0));
        assert!(ledger.try_charge(3.0));
        assert!(!ledger.try_charge(0.5));
        assert_eq!(ledger.remaining(), 0.0);
    }

    #[test]
    fn ledger_clawback_clamps_at_zero() {
        let mut ledger = BudgetLedger::new(5.0);
        assert_eq!(ledger.clawback(2.0), 2.0);
        assert_eq!(ledger.remaining(), 3.0);
        assert_eq!(ledger.clawback(10.0), 3.0);
        assert_eq!(ledger.remaining(), 0.0);
        assert_eq!(ledger.clawback(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "clawback must be non-negative")]
    fn ledger_clawback_rejects_negative() {
        BudgetLedger::new(5.0).clawback(-1.0);
    }

    #[test]
    fn ledger_lists_affordable_actions() {
        let ledger = BudgetLedger::new(3.0);
        let costs = [1.0, 2.0, 4.0];
        let affordable = ledger.affordable(costs.iter().enumerate());
        assert_eq!(affordable, vec![0, 1]);
    }

    #[test]
    fn ledger_tolerates_float_dust() {
        let mut ledger = BudgetLedger::new(0.3);
        assert!(ledger.try_charge(0.1));
        assert!(ledger.try_charge(0.1));
        assert!(
            ledger.try_charge(0.1),
            "0.3 - 0.1 - 0.1 must still afford 0.1"
        );
    }
}
