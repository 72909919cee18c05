//! Guard conditions for conditional visits (`<C→S; T>`, paper §3).
//!
//! A guard is a serializable predicate evaluated just before a visit
//! against the naplet's own state and travel history. The paper's
//! motivating case: "in a mobile agent-based sequential search
//! application, the agent will search along its route until the end of
//! its route or the search is completed" — i.e. every visit after the
//! first is guarded on *search not yet completed*. That guard is
//! expressed here as `Guard::not(Guard::state_truthy("found"))`.

use crate::codec::{Decode, Encode};

use crate::value::Value;

use super::cursor::GuardEnv;

/// Serializable guard expression.
#[derive(Debug, Clone, PartialEq, Encode, Decode, Default)]
pub enum Guard {
    /// Always visit (the unconditional `<S; T>` case).
    #[default]
    Always,
    /// Never visit (useful for disabling branches in tests/ablations).
    Never,
    /// Negation.
    Not(Box<Guard>),
    /// Conjunction over all sub-guards (true when empty).
    All(Vec<Guard>),
    /// Disjunction over sub-guards (false when empty).
    Any(Vec<Guard>),
    /// True when the named state entry is truthy ([`Value::is_truthy`]).
    StateTruthy(String),
    /// True when the named state entry equals the given value.
    StateEquals(String, Value),
    /// True while the naplet has completed fewer than `n` visits.
    HopsLessThan(u32),
}

impl Guard {
    /// Negate a guard. (Named after the paper's condition algebra, not
    /// `std::ops::Not` — guards negate by value at construction time.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(g: Guard) -> Guard {
        Guard::Not(Box::new(g))
    }

    /// Shorthand for [`Guard::StateTruthy`].
    pub fn state_truthy(key: &str) -> Guard {
        Guard::StateTruthy(key.to_string())
    }

    /// Shorthand for [`Guard::StateEquals`].
    pub fn state_equals(key: &str, value: impl Into<Value>) -> Guard {
        Guard::StateEquals(key.to_string(), value.into())
    }

    /// Evaluate against the naplet's current environment.
    pub fn eval(&self, env: &GuardEnv<'_>) -> bool {
        match self {
            Guard::Always => true,
            Guard::Never => false,
            Guard::Not(g) => !g.eval(env),
            Guard::All(gs) => gs.iter().all(|g| g.eval(env)),
            Guard::Any(gs) => gs.iter().any(|g| g.eval(env)),
            Guard::StateTruthy(key) => env.state.get(key).is_truthy(),
            Guard::StateEquals(key, v) => &env.state.get(key) == v,
            Guard::HopsLessThan(n) => env.hops < *n as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NapletState;

    fn env_with(state: &NapletState, hops: usize) -> GuardEnv<'_> {
        GuardEnv {
            state,
            hops,
            unreachable: &[],
        }
    }

    #[test]
    fn constants() {
        let s = NapletState::new();
        let env = env_with(&s, 0);
        assert!(Guard::Always.eval(&env));
        assert!(!Guard::Never.eval(&env));
        assert!(Guard::not(Guard::Never).eval(&env));
    }

    #[test]
    fn boolean_algebra() {
        let s = NapletState::new();
        let env = env_with(&s, 0);
        assert!(Guard::All(vec![]).eval(&env));
        assert!(!Guard::Any(vec![]).eval(&env));
        assert!(Guard::All(vec![Guard::Always, Guard::Always]).eval(&env));
        assert!(!Guard::All(vec![Guard::Always, Guard::Never]).eval(&env));
        assert!(Guard::Any(vec![Guard::Never, Guard::Always]).eval(&env));
    }

    #[test]
    fn state_predicates() {
        let mut s = NapletState::new();
        s.set("found", true);
        s.set("target", "router-7");
        let env = env_with(&s, 0);
        assert!(Guard::state_truthy("found").eval(&env));
        assert!(!Guard::state_truthy("missing").eval(&env));
        assert!(Guard::state_equals("target", "router-7").eval(&env));
        assert!(!Guard::state_equals("target", "router-8").eval(&env));
    }

    #[test]
    fn sequential_search_guard() {
        // the paper's canonical conditional visit: keep going while the
        // search is not completed
        let keep_going = Guard::not(Guard::state_truthy("found"));
        let mut s = NapletState::new();
        assert!(keep_going.eval(&env_with(&s, 3)));
        s.set("found", true);
        assert!(!keep_going.eval(&env_with(&s, 3)));
    }

    #[test]
    fn hop_budget() {
        let s = NapletState::new();
        assert!(Guard::HopsLessThan(2).eval(&env_with(&s, 1)));
        assert!(!Guard::HopsLessThan(2).eval(&env_with(&s, 2)));
    }

    #[test]
    fn codec_round_trip() {
        let g = Guard::All(vec![
            Guard::not(Guard::state_truthy("found")),
            Guard::HopsLessThan(10),
        ]);
        let bytes = crate::codec::to_bytes(&g).unwrap();
        let back: Guard = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, g);
    }
}
