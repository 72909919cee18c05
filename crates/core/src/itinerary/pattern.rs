//! Itinerary patterns: the static travel plan (paper §3).
//!
//! The BNF is binary (`Seq(P,P)`, `Alt(P,P)`, `Par(P,P)`), but the
//! paper's own Java examples construct n-ary forms (`SeqPattern(servers,
//! act)`, `ParPattern(_ip, act)`). [`Pattern`] is therefore n-ary with
//! binary constructors provided for BNF fidelity; n-ary and nested
//! binary forms are semantically identical.

use crate::codec::{Decode, Encode};

use crate::error::{NapletError, Result};

use super::guard::Guard;

/// A post-action `T` run after a visit or pattern completes — the
/// paper's `Operable`. Actions are serializable *references*; the code
/// they name is resolved at the executing server (native behaviours
/// register `Operable` callbacks under these names; VM naplets bind
/// them to bytecode functions).
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub enum ActionSpec {
    /// Report gathered results back to the owner's listener
    /// (the paper's `ResultReport`).
    ReportHome,
    /// Exchange state with every naplet in the address book
    /// (the paper's `DataComm` collective operator).
    DataComm,
    /// An application-registered `Operable`, dispatched by name.
    Named(String),
}

/// One visit `<C→S; T>`: a target host, an optional guard `C` and an
/// optional post-action `T`. `S` is the naplet's own business logic
/// and lives in the behaviour, not here — that separation is the point
/// of §3.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct Visit {
    /// Host to visit.
    pub host: String,
    /// Guard condition; `Guard::Always` for unconditional visits.
    pub guard: Guard,
    /// Post-action run after the server-specific work.
    pub action: Option<ActionSpec>,
}

impl Visit {
    /// An unconditional visit with no post-action.
    pub fn to(host: impl Into<String>) -> Visit {
        Visit {
            host: host.into(),
            guard: Guard::Always,
            action: None,
        }
    }

    /// Add a guard (`<C→S; T>`).
    pub fn when(mut self, guard: Guard) -> Visit {
        self.guard = guard;
        self
    }

    /// Add a post-action (`<S; T>`).
    pub fn then(mut self, action: ActionSpec) -> Visit {
        self.action = Some(action);
        self
    }
}

/// A recursively composed itinerary pattern.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum Pattern {
    /// A single (possibly conditional) visit.
    Singleton(Visit),
    /// Visit the sub-patterns one after another.
    Seq(Vec<Pattern>),
    /// Visit exactly one alternative: the first whose entry guard
    /// passes at decision time.
    Alt(Vec<Pattern>),
    /// Visit all branches in parallel: the naplet clones itself, the
    /// originator branch (heritage `.0`) takes the first branch and
    /// continues with whatever follows the `Par`; spawned clones take
    /// one branch each and finish when their branch (and its actions)
    /// complete. An optional action runs on each executor after its
    /// branch.
    Par {
        /// Parallel branches (one agent each).
        branches: Vec<Pattern>,
        /// Action each executor runs after completing its branch
        /// (the `act` of the paper's `ParPattern(_ip, act)`).
        after: Option<ActionSpec>,
    },
}

impl Pattern {
    /// `Singleton(V)` with an unconditional visit.
    pub fn singleton(host: impl Into<String>) -> Pattern {
        Pattern::Singleton(Visit::to(host))
    }

    /// `Singleton(V)` from a full visit spec.
    pub fn visit(v: Visit) -> Pattern {
        Pattern::Singleton(v)
    }

    /// n-ary sequence.
    pub fn seq(parts: Vec<Pattern>) -> Pattern {
        Pattern::Seq(parts)
    }

    /// Binary `seq(P, Q)` (BNF form).
    pub fn seq2(p: Pattern, q: Pattern) -> Pattern {
        Pattern::Seq(vec![p, q])
    }

    /// n-ary alternative.
    pub fn alt_n(parts: Vec<Pattern>) -> Pattern {
        Pattern::Alt(parts)
    }

    /// Binary `alt(P, Q)` (BNF form).
    pub fn alt(p: Pattern, q: Pattern) -> Pattern {
        Pattern::Alt(vec![p, q])
    }

    /// n-ary parallel.
    pub fn par(branches: Vec<Pattern>) -> Pattern {
        Pattern::Par {
            branches,
            after: None,
        }
    }

    /// Binary `par(P, Q)` (BNF form).
    pub fn par2(p: Pattern, q: Pattern) -> Pattern {
        Pattern::par(vec![p, q])
    }

    /// n-ary parallel with a per-branch completion action
    /// (the paper's `ParPattern(_ip, act)`).
    pub fn par_with_action(branches: Vec<Pattern>, after: ActionSpec) -> Pattern {
        Pattern::Par {
            branches,
            after: Some(after),
        }
    }

    /// The paper's `SeqPattern(servers, act)`: visit `servers` in
    /// order, running `act` after each visit.
    pub fn seq_of_hosts(hosts: &[&str], action: Option<ActionSpec>) -> Pattern {
        Pattern::Seq(
            hosts
                .iter()
                .map(|h| {
                    let mut v = Visit::to(*h);
                    v.action = action.clone();
                    Pattern::Singleton(v)
                })
                .collect(),
        )
    }

    /// The paper's Example 2 broadcast: a `Par` of one `Singleton` per
    /// server, each with the given post-action.
    pub fn par_singletons(hosts: &[&str], action: Option<ActionSpec>) -> Pattern {
        Pattern::par(
            hosts
                .iter()
                .map(|h| {
                    let mut v = Visit::to(*h);
                    v.action = action.clone();
                    Pattern::Singleton(v)
                })
                .collect(),
        )
    }

    /// Sequential conditional search (paper §3): visit `hosts` in order
    /// but guard every visit after the first on `keep_going`.
    pub fn conditional_route(hosts: &[&str], keep_going: Guard) -> Pattern {
        Pattern::Seq(
            hosts
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let v = if i == 0 {
                        Visit::to(*h)
                    } else {
                        Visit::to(*h).when(keep_going.clone())
                    };
                    Pattern::Singleton(v)
                })
                .collect(),
        )
    }

    /// The sub-patterns directly under this node, in declaration
    /// order (none for a `Singleton`). A traversal
    /// [`Cursor`](super::Cursor) names a node by the indices it follows
    /// through these slices from the root.
    pub(super) fn children(&self) -> &[Pattern] {
        match self {
            Pattern::Singleton(_) => &[],
            Pattern::Seq(ps) | Pattern::Alt(ps) => ps,
            Pattern::Par { branches, .. } => branches,
        }
    }

    /// Validate structural invariants: no empty composites, no empty
    /// host names.
    pub fn validate(&self) -> Result<()> {
        match self {
            Pattern::Singleton(v) => {
                if v.host.is_empty() {
                    Err(NapletError::Itinerary("empty host in visit".into()))
                } else {
                    Ok(())
                }
            }
            Pattern::Seq(ps) | Pattern::Alt(ps) => {
                if ps.is_empty() {
                    return Err(NapletError::Itinerary("empty composite pattern".into()));
                }
                ps.iter().try_for_each(Pattern::validate)
            }
            Pattern::Par { branches, .. } => {
                if branches.is_empty() {
                    return Err(NapletError::Itinerary("empty Par pattern".into()));
                }
                branches.iter().try_for_each(Pattern::validate)
            }
        }
    }

    /// All hosts mentioned anywhere in the pattern, deduplicated,
    /// in first-mention order.
    pub fn hosts(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_hosts(&mut out);
        out
    }

    fn collect_hosts(&self, out: &mut Vec<String>) {
        match self {
            Pattern::Singleton(v) => {
                if !out.contains(&v.host) {
                    out.push(v.host.clone());
                }
            }
            Pattern::Seq(ps) | Pattern::Alt(ps) => {
                ps.iter().for_each(|p| p.collect_hosts(out));
            }
            Pattern::Par { branches, .. } => {
                branches.iter().for_each(|p| p.collect_hosts(out));
            }
        }
    }

    /// Upper bound on visits one agent performs traversing this
    /// pattern (Alt counts its widest alternative; Par counts only the
    /// widest branch because branches run on different agents).
    pub fn max_hops_per_agent(&self) -> usize {
        match self {
            Pattern::Singleton(_) => 1,
            Pattern::Seq(ps) => ps.iter().map(Pattern::max_hops_per_agent).sum(),
            Pattern::Alt(ps) => ps
                .iter()
                .map(Pattern::max_hops_per_agent)
                .max()
                .unwrap_or(0),
            Pattern::Par { branches, .. } => branches
                .iter()
                .map(Pattern::max_hops_per_agent)
                .max()
                .unwrap_or(0),
        }
    }

    /// Number of agents (original + clones) employed when every branch
    /// executes: each `Par` of `k` branches multiplies nothing but adds
    /// `k-1` clones at its position; agents for nested patterns
    /// compose additively along the executing branch.
    pub fn agents_required(&self) -> usize {
        match self {
            Pattern::Singleton(_) => 1,
            // a sequence is walked by one agent, but any Par inside a
            // part adds clones; the walker is shared across parts
            Pattern::Seq(ps) => 1 + ps.iter().map(|p| p.agents_required() - 1).sum::<usize>(),
            // only one alternative executes; take the worst case
            Pattern::Alt(ps) => ps.iter().map(Pattern::agents_required).max().unwrap_or(1),
            // every branch gets its own agent (branch 0 reuses the
            // parent), and branches may fork further
            Pattern::Par { branches, .. } => branches
                .iter()
                .map(Pattern::agents_required)
                .sum::<usize>()
                .max(1),
        }
    }

    /// Total visits across *all* agents when every guard passes and,
    /// for `Alt`, the first alternative is taken. This is the traffic
    /// analyst's hop count.
    pub fn total_visits_first_alt(&self) -> usize {
        match self {
            Pattern::Singleton(_) => 1,
            Pattern::Seq(ps) => ps.iter().map(Pattern::total_visits_first_alt).sum(),
            Pattern::Alt(ps) => ps.first().map(Pattern::total_visits_first_alt).unwrap_or(0),
            Pattern::Par { branches, .. } => {
                branches.iter().map(Pattern::total_visits_first_alt).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = Pattern::seq2(
            Pattern::singleton("a"),
            Pattern::par2(Pattern::singleton("b"), Pattern::singleton("c")),
        );
        p.validate().unwrap();
        assert_eq!(p.hosts(), ["a", "b", "c"]);
    }

    #[test]
    fn hosts_deduplicated_in_order() {
        let p = Pattern::seq_of_hosts(&["x", "y", "x", "z"], None);
        assert_eq!(p.hosts(), ["x", "y", "z"]);
    }

    #[test]
    fn validation_rejects_empty() {
        assert!(Pattern::Seq(vec![]).validate().is_err());
        assert!(Pattern::Alt(vec![]).validate().is_err());
        assert!(Pattern::par(vec![]).validate().is_err());
        assert!(Pattern::singleton("").validate().is_err());
        assert!(
            Pattern::seq(vec![Pattern::singleton("ok"), Pattern::par(vec![])])
                .validate()
                .is_err()
        );
    }

    #[test]
    fn hop_counting() {
        // seq of 3 → 3 hops, one agent
        let s3 = Pattern::seq_of_hosts(&["a", "b", "c"], None);
        assert_eq!(s3.max_hops_per_agent(), 3);
        assert_eq!(s3.agents_required(), 1);
        assert_eq!(s3.total_visits_first_alt(), 3);

        // par(seq2, seq2) → 2 hops per agent, 2 agents, 4 total visits
        let p = Pattern::par(vec![
            Pattern::seq_of_hosts(&["s0", "s1"], None),
            Pattern::seq_of_hosts(&["s2", "s3"], None),
        ]);
        assert_eq!(p.max_hops_per_agent(), 2);
        assert_eq!(p.agents_required(), 2);
        assert_eq!(p.total_visits_first_alt(), 4);

        // alt picks the widest for bounds, the first for traffic
        let a = Pattern::alt(Pattern::seq_of_hosts(&["x"], None), s3.clone());
        assert_eq!(a.max_hops_per_agent(), 3);
        assert_eq!(a.agents_required(), 1);
        assert_eq!(a.total_visits_first_alt(), 1);
    }

    #[test]
    fn nested_par_agent_counting() {
        // par(par(a,b), c) → 3 agents
        let p = Pattern::par(vec![
            Pattern::par2(Pattern::singleton("a"), Pattern::singleton("b")),
            Pattern::singleton("c"),
        ]);
        assert_eq!(p.agents_required(), 3);

        // seq(a, par(b,c)) → walker + 1 clone = 2
        let q = Pattern::seq2(
            Pattern::singleton("a"),
            Pattern::par2(Pattern::singleton("b"), Pattern::singleton("c")),
        );
        assert_eq!(q.agents_required(), 2);

        // seq(par(a,b), par(c,d)) → walker + 2 clones = 3
        let r = Pattern::seq2(
            Pattern::par2(Pattern::singleton("a"), Pattern::singleton("b")),
            Pattern::par2(Pattern::singleton("c"), Pattern::singleton("d")),
        );
        assert_eq!(r.agents_required(), 3);
    }

    #[test]
    fn conditional_route_guards_all_but_first() {
        let g = Guard::not(Guard::state_truthy("found"));
        let p = Pattern::conditional_route(&["a", "b", "c"], g.clone());
        let Pattern::Seq(parts) = &p else {
            panic!("expected seq")
        };
        let guards: Vec<&Guard> = parts
            .iter()
            .map(|p| match p {
                Pattern::Singleton(v) => &v.guard,
                _ => panic!("expected singleton"),
            })
            .collect();
        assert_eq!(guards[0], &Guard::Always);
        assert_eq!(guards[1], &g);
        assert_eq!(guards[2], &g);
    }

    #[test]
    fn visit_builder() {
        let v = Visit::to("h")
            .when(Guard::HopsLessThan(5))
            .then(ActionSpec::DataComm);
        assert_eq!(v.host, "h");
        assert_eq!(v.guard, Guard::HopsLessThan(5));
        assert_eq!(v.action, Some(ActionSpec::DataComm));
    }

    #[test]
    fn binary_and_nary_equivalent_hosts() {
        let binary = Pattern::seq2(
            Pattern::singleton("a"),
            Pattern::seq2(Pattern::singleton("b"), Pattern::singleton("c")),
        );
        let nary = Pattern::seq_of_hosts(&["a", "b", "c"], None);
        assert_eq!(binary.hosts(), nary.hosts());
        assert_eq!(binary.max_hops_per_agent(), nary.max_hops_per_agent());
        assert_eq!(
            binary.total_visits_first_alt(),
            nary.total_visits_first_alt()
        );
    }

    #[test]
    fn codec_round_trip() {
        let p = Pattern::par_with_action(
            vec![
                Pattern::seq_of_hosts(&["a", "b"], Some(ActionSpec::Named("sync".into()))),
                Pattern::singleton("c"),
            ],
            ActionSpec::ReportHome,
        );
        let bytes = crate::codec::to_bytes(&p).unwrap();
        let back: Pattern = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
    }
}
