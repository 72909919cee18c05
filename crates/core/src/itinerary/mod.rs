//! Structured itinerary mechanism (paper §3).
//!
//! An itinerary separates *where an agent travels* from *what it does*
//! (its business logic). Following the paper's BNF:
//!
//! ```text
//! <Visit V>            ::= <S> | <S; T> | <C→S; T>
//! <ItineraryPattern P> ::= Singleton(V) | Seq(P, P) | Alt(P, P) | Par(P, P)
//! ```
//!
//! * `S` — server-specific business logic (the naplet's `on_start`);
//! * `T` — an itinerary-dependent post-action ([`ActionSpec`]) run
//!   after the visit, used for inter-agent communication and
//!   synchronization;
//! * `C` — a guard condition ([`Guard`]) making the visit conditional.
//!
//! [`Pattern`] is the static, composable travel plan; [`Cursor`] is the
//! serializable runtime traversal state that moves with the naplet —
//! indices into that plan, never a copy of any part of it — and tells
//! the server what to do next ([`Step`]): travel somewhere, fork clones
//! for a `Par`, run a pattern-level action, or finish.

mod cursor;
mod guard;
mod pattern;

pub use cursor::{Cursor, GuardEnv, Step};
pub use guard::Guard;
pub use pattern::{ActionSpec, Pattern, Visit};

use serde::{Deserialize, Serialize};

use crate::error::Result;

/// A complete itinerary: a validated pattern plus an optional final
/// action run when the whole journey completes (the paper's Example 1
/// reports results home after the last visit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Itinerary {
    pattern: Pattern,
    final_action: Option<ActionSpec>,
}

impl Itinerary {
    /// Build an itinerary from a pattern, validating it.
    pub fn new(pattern: Pattern) -> Result<Itinerary> {
        pattern.validate()?;
        Ok(Itinerary {
            pattern,
            final_action: None,
        })
    }

    /// Attach an action to run after the itinerary completes.
    pub fn with_final_action(mut self, action: ActionSpec) -> Itinerary {
        self.final_action = Some(action);
        self
    }

    /// The underlying pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The final action, if any.
    pub fn final_action(&self) -> Option<&ActionSpec> {
        self.final_action.as_ref()
    }

    /// Begin traversal: the serializable cursor that travels with the
    /// naplet, pointing at the root of [`pattern`](Self::pattern). It
    /// copies nothing of the plan; drive it with
    /// [`Cursor::next`]`(self.pattern(), env)`.
    pub fn start(&self) -> Cursor {
        Cursor::begin(self.final_action.clone())
    }

    /// All hosts this itinerary could ever visit (deduplicated,
    /// deterministic order).
    pub fn hosts(&self) -> Vec<String> {
        self.pattern.hosts()
    }

    /// Upper bound on the number of visits a single naplet (one branch
    /// through every `Alt`/`Par`) performs.
    pub fn max_hops_per_agent(&self) -> usize {
        self.pattern.max_hops_per_agent()
    }

    /// Number of naplets (original + clones) a full traversal employs
    /// when every guard passes: each `Par` of `k` branches adds `k-1`
    /// clones.
    pub fn agents_required(&self) -> usize {
        self.pattern.agents_required()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1_single_agent_sequence() {
        // "an information collection application over s1..sn, a single
        // agent accumulates information, results reported after the
        // last visit"
        let servers = ["s1", "s2", "s3"];
        let it = Itinerary::new(Pattern::seq_of_hosts(&servers, None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        assert_eq!(it.hosts(), ["s1", "s2", "s3"]);
        assert_eq!(it.max_hops_per_agent(), 3);
        assert_eq!(it.agents_required(), 1);
    }

    #[test]
    fn paper_example_2_parallel_broadcast() {
        // one singleton per server, visited by clones in parallel, each
        // reporting home directly
        let servers = ["s1", "s2", "s3", "s4"];
        let it = Itinerary::new(Pattern::par_singletons(
            &servers,
            Some(ActionSpec::ReportHome),
        ))
        .unwrap();
        assert_eq!(it.agents_required(), 4);
        assert_eq!(it.max_hops_per_agent(), 1);
    }

    #[test]
    fn paper_example_3_par_of_seqs() {
        // par(seq(s0, s1), seq(s2, s3)) — four servers, two naplets
        let p = Pattern::par(vec![
            Pattern::seq_of_hosts(&["s0", "s1"], Some(ActionSpec::DataComm)),
            Pattern::seq_of_hosts(&["s2", "s3"], Some(ActionSpec::DataComm)),
        ]);
        let it = Itinerary::new(p).unwrap();
        assert_eq!(it.agents_required(), 2);
        assert_eq!(it.max_hops_per_agent(), 2);
        assert_eq!(it.hosts(), ["s0", "s1", "s2", "s3"]);
    }

    #[test]
    fn empty_pattern_rejected() {
        assert!(Itinerary::new(Pattern::seq(vec![])).is_err());
        assert!(Itinerary::new(Pattern::par(vec![])).is_err());
    }

    #[test]
    fn codec_round_trip() {
        let it = Itinerary::new(Pattern::alt(
            Pattern::singleton("fast-mirror"),
            Pattern::singleton("origin"),
        ))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
        let bytes = crate::codec::to_bytes(&it).unwrap();
        let back: Itinerary = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, it);
    }
}
