//! Serializable bandit-policy state for runtime checkpoints.
//!
//! Policies are held as `Box<dyn CostedBandit>` trait objects, which cannot
//! be serialized directly. Instead, [`CostedBandit::save_state`] extracts a
//! [`PolicyState`] — a closed enum of every checkpointable policy's full
//! live state (configuration, budget ledger, statistics, RNG words) — and
//! [`PolicyState::into_bandit`] rebuilds the concrete policy. Policies
//! without a variant here (e.g. the ablation-only Thompson/Exp3) return
//! `None` from `save_state`, which snapshot callers surface as an explicit
//! error rather than a panic.

use crate::config::BanditConfig;
use crate::{CostedBandit, EpsilonGreedy, FixedPolicy, RandomPolicy, UcbAlp};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Full live state of a [`UcbAlp`] policy.
#[derive(Debug, Clone, PartialEq)]
pub struct UcbAlpState {
    pub(crate) config: BanditConfig,
    pub(crate) remaining_budget: f64,
    pub(crate) counts: Vec<Vec<u64>>,
    pub(crate) means: Vec<Vec<f64>>,
    pub(crate) context_counts: Vec<u64>,
    pub(crate) rounds_elapsed: u64,
    pub(crate) exploration_scale: f64,
    pub(crate) rng: [u64; 4],
}

/// Full live state of an [`EpsilonGreedy`] policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonGreedyState {
    pub(crate) config: BanditConfig,
    pub(crate) remaining_budget: f64,
    pub(crate) epsilon: f64,
    pub(crate) counts: Vec<Vec<u64>>,
    pub(crate) means: Vec<Vec<f64>>,
    pub(crate) rounds_elapsed: u64,
    pub(crate) rng: [u64; 4],
}

/// Full live state of a [`FixedPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct FixedState {
    pub(crate) config: BanditConfig,
    pub(crate) remaining_budget: f64,
    pub(crate) action: usize,
}

/// Full live state of a [`RandomPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomState {
    pub(crate) config: BanditConfig,
    pub(crate) remaining_budget: f64,
    pub(crate) rng: [u64; 4],
}

/// The serialized form of a checkpointable [`CostedBandit`] policy.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyState {
    /// A [`UcbAlp`] policy.
    UcbAlp(UcbAlpState),
    /// An [`EpsilonGreedy`] policy.
    EpsilonGreedy(EpsilonGreedyState),
    /// A [`FixedPolicy`].
    Fixed(FixedState),
    /// A [`RandomPolicy`].
    Random(RandomState),
}

impl PolicyState {
    /// The saved policy's configuration — restore paths check its
    /// action/context arity before rebuilding dependent structures.
    pub fn config(&self) -> &BanditConfig {
        match self {
            PolicyState::UcbAlp(s) => &s.config,
            PolicyState::EpsilonGreedy(s) => &s.config,
            PolicyState::Fixed(s) => &s.config,
            PolicyState::Random(s) => &s.config,
        }
    }

    /// Rebuilds the concrete policy this state was captured from.
    pub fn into_bandit(self) -> Box<dyn CostedBandit> {
        match self {
            PolicyState::UcbAlp(s) => Box::new(UcbAlp::from_state(s)),
            PolicyState::EpsilonGreedy(s) => Box::new(EpsilonGreedy::from_state(s)),
            PolicyState::Fixed(s) => Box::new(FixedPolicy::from_state(s)),
            PolicyState::Random(s) => Box::new(RandomPolicy::from_state(s)),
        }
    }
}

/// Per-(context, action) tables must match the configuration's dimensions,
/// or indexing in `select`/`observe` would panic after resume.
fn tables_match(config: &BanditConfig, counts: &[Vec<u64>], means: &[Vec<f64>]) -> bool {
    counts.len() == config.contexts()
        && means.len() == config.contexts()
        && counts.iter().all(|row| row.len() == config.actions())
        && means
            .iter()
            .all(|row| row.len() == config.actions() && row.iter().all(|m| m.is_finite()))
}

fn budget_ok(remaining: f64) -> bool {
    remaining.is_finite() && remaining >= 0.0
}

impl Encode for PolicyState {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PolicyState::UcbAlp(s) => {
                0u8.encode(out);
                s.config.encode(out);
                s.remaining_budget.encode(out);
                s.counts.encode(out);
                s.means.encode(out);
                s.context_counts.encode(out);
                s.rounds_elapsed.encode(out);
                s.exploration_scale.encode(out);
                s.rng.encode(out);
            }
            PolicyState::EpsilonGreedy(s) => {
                1u8.encode(out);
                s.config.encode(out);
                s.remaining_budget.encode(out);
                s.epsilon.encode(out);
                s.counts.encode(out);
                s.means.encode(out);
                s.rounds_elapsed.encode(out);
                s.rng.encode(out);
            }
            PolicyState::Fixed(s) => {
                2u8.encode(out);
                s.config.encode(out);
                s.remaining_budget.encode(out);
                s.action.encode(out);
            }
            PolicyState::Random(s) => {
                3u8.encode(out);
                s.config.encode(out);
                s.remaining_budget.encode(out);
                s.rng.encode(out);
            }
        }
    }
}

impl Decode for PolicyState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => {
                let s = UcbAlpState {
                    config: BanditConfig::decode(r)?,
                    remaining_budget: f64::decode(r)?,
                    counts: Vec::<Vec<u64>>::decode(r)?,
                    means: Vec::<Vec<f64>>::decode(r)?,
                    context_counts: Vec::<u64>::decode(r)?,
                    rounds_elapsed: u64::decode(r)?,
                    exploration_scale: f64::decode(r)?,
                    rng: <[u64; 4]>::decode(r)?,
                };
                let valid = budget_ok(s.remaining_budget)
                    && tables_match(&s.config, &s.counts, &s.means)
                    && s.context_counts.len() == s.config.contexts()
                    && s.exploration_scale.is_finite()
                    && s.exploration_scale >= 0.0;
                if !valid {
                    return Err(DecodeError::Invalid);
                }
                Ok(PolicyState::UcbAlp(s))
            }
            1 => {
                let s = EpsilonGreedyState {
                    config: BanditConfig::decode(r)?,
                    remaining_budget: f64::decode(r)?,
                    epsilon: f64::decode(r)?,
                    counts: Vec::<Vec<u64>>::decode(r)?,
                    means: Vec::<Vec<f64>>::decode(r)?,
                    rounds_elapsed: u64::decode(r)?,
                    rng: <[u64; 4]>::decode(r)?,
                };
                let valid = budget_ok(s.remaining_budget)
                    && tables_match(&s.config, &s.counts, &s.means)
                    && (0.0..=1.0).contains(&s.epsilon);
                if !valid {
                    return Err(DecodeError::Invalid);
                }
                Ok(PolicyState::EpsilonGreedy(s))
            }
            2 => {
                let s = FixedState {
                    config: BanditConfig::decode(r)?,
                    remaining_budget: f64::decode(r)?,
                    action: usize::decode(r)?,
                };
                if !budget_ok(s.remaining_budget) || s.action >= s.config.actions() {
                    return Err(DecodeError::Invalid);
                }
                Ok(PolicyState::Fixed(s))
            }
            3 => {
                let s = RandomState {
                    config: BanditConfig::decode(r)?,
                    remaining_budget: f64::decode(r)?,
                    rng: <[u64; 4]>::decode(r)?,
                };
                if !budget_ok(s.remaining_budget) {
                    return Err(DecodeError::Invalid);
                }
                Ok(PolicyState::Random(s))
            }
            _ => Err(DecodeError::Invalid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BanditConfig {
        BanditConfig::new(2, vec![1.0, 2.0, 4.0], 300.0, 120)
            .with_context_distribution(vec![0.5, 0.5])
    }

    /// Drives a policy `rounds` times, alternating contexts, with a fixed
    /// payoff schedule; returns the picks.
    fn drive(bandit: &mut dyn CostedBandit, rounds: u64) -> Vec<Option<usize>> {
        (0..rounds)
            .map(|r| {
                let ctx = (r % 2) as usize;
                let pick = bandit.select(ctx);
                if let Some(a) = pick {
                    bandit.observe(ctx, a, [0.2, 0.6, 0.9][a]);
                }
                pick
            })
            .collect()
    }

    fn assert_resume_is_transparent(mut live: Box<dyn CostedBandit>) {
        drive(live.as_mut(), 37);
        let state = live.save_state().expect("policy is checkpointable");
        let bytes = state.to_bytes();
        let restored = PolicyState::from_bytes(&bytes).expect("round trip");
        assert_eq!(restored, state);
        let mut resumed = restored.into_bandit();
        assert_eq!(drive(live.as_mut(), 40), drive(resumed.as_mut(), 40));
        assert_eq!(live.remaining_budget(), resumed.remaining_budget());
    }

    #[test]
    fn ucb_alp_resumes_byte_identically() {
        assert_resume_is_transparent(Box::new(UcbAlp::new(config(), 9)));
    }

    #[test]
    fn epsilon_greedy_resumes_byte_identically() {
        assert_resume_is_transparent(Box::new(EpsilonGreedy::new(config(), 0.2, 9)));
    }

    #[test]
    fn fixed_resumes_byte_identically() {
        assert_resume_is_transparent(Box::new(FixedPolicy::new(config(), 1)));
    }

    #[test]
    fn random_resumes_byte_identically() {
        assert_resume_is_transparent(Box::new(RandomPolicy::new(config(), 9)));
    }

    #[test]
    fn unknown_tag_is_invalid() {
        assert!(matches!(
            PolicyState::from_bytes(&[9]),
            Err(DecodeError::Invalid)
        ));
    }

    #[test]
    fn mismatched_tables_are_invalid() {
        let state = PolicyState::EpsilonGreedy(EpsilonGreedyState {
            config: config(),
            remaining_budget: 10.0,
            epsilon: 0.1,
            counts: vec![vec![0; 2]; 2], // 2 actions, config has 3
            means: vec![vec![0.0; 2]; 2],
            rounds_elapsed: 0,
            rng: [1, 2, 3, 4],
        });
        assert!(matches!(
            PolicyState::from_bytes(&state.to_bytes()),
            Err(DecodeError::Invalid)
        ));
    }

    #[test]
    fn every_policy_rejects_non_finite_payoffs_and_stays_resumable() {
        let policies: [fn() -> Box<dyn CostedBandit>; 6] = [
            || Box::new(UcbAlp::new(config(), 1)),
            || Box::new(EpsilonGreedy::new(config(), 0.2, 1)),
            || Box::new(FixedPolicy::new(config(), 1)),
            || Box::new(RandomPolicy::new(config(), 1)),
            || Box::new(crate::ThompsonSampling::new(config(), 1)),
            || Box::new(crate::Exp3::new(config(), 0.1, 1)),
        ];
        for make in policies {
            for payoff in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut bandit = make();
                let name = bandit.name().to_string();
                drive(bandit.as_mut(), 5);
                let observed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    bandit.observe(0, 1, payoff);
                }));
                assert!(observed.is_err(), "{name} accepted payoff {payoff}");
                if let Some(state) = bandit.save_state() {
                    assert_eq!(
                        PolicyState::from_bytes(&state.to_bytes()),
                        Ok(state),
                        "{name}: checkpoint no longer resumes"
                    );
                }
            }
        }
    }

    #[test]
    fn non_checkpointable_policies_save_none() {
        let thompson = crate::ThompsonSampling::new(config(), 1);
        assert!(thompson.save_state().is_none());
    }
}
