//! Runtime itinerary traversal (paper §3).
//!
//! A [`Cursor`] is the serializable "where am I in the journey" state a
//! naplet carries. It holds no part of the travel plan: every pending
//! item is either an action to run or a *reference to a node of the
//! plan* — the child indices leading to it from the root — so the one
//! [`Pattern`] inside the naplet's [`Itinerary`](super::Itinerary) is
//! the only copy that travels, and a cursor can only ever name what
//! that plan declares. Servers drive it: [`Cursor::next`] resolves the
//! top reference against the plan and yields the next [`Step`] — travel
//! to a host, fork clones for a `Par`, run a post-action, or finish.
//! Guards are evaluated at decision time against the naplet's state and
//! hop count, so the same pattern can unfold differently depending on
//! what the agent has learned (conditional visits).
//!
//! ## `Par` semantics
//!
//! "par(P,Q) refers to a pattern that the visits of P and Q are carried
//! out in parallel by a naplet and its clone." On reaching a `Par` the
//! cursor emits [`Step::Fork`] carrying one fresh cursor per *extra*
//! branch; the emitting naplet itself continues with the first branch
//! **and whatever follows the `Par`**, while spawned clones finish when
//! their branch completes. This makes the originator (heritage `.0`)
//! the natural carrier of sequels and final actions.

use serde::{Deserialize, Serialize};

use crate::state::NapletState;

use super::pattern::{ActionSpec, Pattern};

/// Environment a guard sees at decision time.
pub struct GuardEnv<'a> {
    /// The naplet's own state.
    pub state: &'a NapletState,
    /// Completed visits so far (from the navigation log).
    pub hops: usize,
    /// Hosts the reliable-transfer layer has given up on (navigation-log
    /// failure entries). An `Alt` never chooses an alternative whose
    /// entry visit targets one of these, which is how migration failures
    /// fall back to the next branch. Plain `Seq` visits are *not*
    /// skipped — the server parks the naplet instead, so a hard
    /// requirement is never silently dropped.
    pub unreachable: &'a [String],
}

/// One traversal directive for the hosting server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Travel to `host`; after the naplet's business logic runs there,
    /// execute `action` (the visit's `T`).
    Visit {
        /// Destination host.
        host: String,
        /// Post-action for this visit, if any.
        action: Option<ActionSpec>,
    },
    /// Spawn one clone per cursor in `clones`; the current naplet
    /// continues traversal (first branch already queued internally).
    Fork {
        /// Traversal state for each spawned clone.
        clones: Vec<Cursor>,
    },
    /// Run a pattern-level action without travelling (e.g. a `Par`
    /// branch's completion action or the itinerary's final action).
    Action(ActionSpec),
    /// The journey is complete.
    Done,
}

/// A pending unit of traversal work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WorkItem {
    /// The plan node that `path` — child indices from the root — leads
    /// to. Of a `Seq`, the children from `next` on are still to come;
    /// every other node is entered whole and ignores `next`.
    Node { path: Vec<usize>, next: usize },
    /// A `Par` completion action or the itinerary's final action.
    Act(ActionSpec),
}

impl WorkItem {
    /// Child `index` of the node at `path`, not yet entered.
    fn child(path: &[usize], index: usize) -> WorkItem {
        let mut child = Vec::with_capacity(path.len() + 1);
        child.extend_from_slice(path);
        child.push(index);
        WorkItem::Node {
            path: child,
            next: 0,
        }
    }
}

/// Serializable traversal state: a stack of references into the plan
/// the naplet's itinerary holds (top = last element). Its size follows
/// the plan's nesting depth, not the number of visits still to come, so
/// checkpointing it is a few integers wherever the agent is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Cursor {
    stack: Vec<WorkItem>,
}

impl Cursor {
    /// Begin traversing a plan at its root; `final_action` (if any)
    /// runs after everything else, on the originator branch.
    pub(super) fn begin(final_action: Option<ActionSpec>) -> Cursor {
        let mut stack = Vec::with_capacity(2);
        stack.extend(final_action.map(WorkItem::Act));
        stack.push(WorkItem::Node {
            path: Vec::new(),
            next: 0,
        });
        Cursor { stack }
    }

    /// A cursor that is already finished (used for clones of empty
    /// branches and as a default).
    pub fn done() -> Cursor {
        Cursor { stack: Vec::new() }
    }

    /// True when no work item remains: [`Cursor::next`] returns
    /// [`Step::Done`] from here on. (What does remain may still unfold
    /// to nothing — failing guards, the exhausted tail of a `Seq`.)
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Advance to the next directive over `plan` — the pattern this
    /// cursor was started on — consuming skipped visits.
    ///
    /// A reference that leaves `plan` (a corrupted record, a hostile
    /// image, another agent's cursor) names nothing and is dropped.
    /// Every turn pops one item and pushes at most two that lie
    /// strictly deeper or further along the finite plan, so this
    /// neither panics nor loops whatever the cursor holds.
    pub fn next(&mut self, plan: &Pattern, env: &GuardEnv<'_>) -> Step {
        loop {
            let (path, next) = match self.stack.pop() {
                None => return Step::Done,
                Some(WorkItem::Act(a)) => return Step::Action(a),
                Some(WorkItem::Node { path, next }) => (path, next),
            };
            let Some(node) = resolve(plan, &path) else {
                continue;
            };
            match node {
                Pattern::Singleton(v) => {
                    if v.guard.eval(env) {
                        return Step::Visit {
                            host: v.host.clone(),
                            action: v.action.clone(),
                        };
                    }
                    // guard failed: conditional visit skipped
                }
                Pattern::Seq(parts) => {
                    if next < parts.len() {
                        // the rest of the sequence waits under the child
                        let child = WorkItem::child(&path, next);
                        self.stack.push(WorkItem::Node {
                            path,
                            next: next + 1,
                        });
                        self.stack.push(child);
                    }
                }
                Pattern::Alt(alts) => {
                    // take the first alternative whose entry guard
                    // passes; when none does, the Alt is skipped whole
                    if let Some(chosen) = alts.iter().position(|p| entry_guard_passes(p, env)) {
                        self.stack.push(WorkItem::child(&path, chosen));
                    }
                }
                Pattern::Par { branches, after } => {
                    if branches.is_empty() {
                        continue;
                    }
                    // one executor's share: its branch, then the
                    // completion action
                    let share = |branch: usize| {
                        let act = after.clone().map(WorkItem::Act);
                        act.into_iter().chain([WorkItem::child(&path, branch)])
                    };
                    // the emitting naplet continues with branch 0 before
                    // the existing sequel; each extra branch is a clone's
                    let clones: Vec<Cursor> = (1..branches.len())
                        .map(|b| Cursor {
                            stack: share(b).collect(),
                        })
                        .collect();
                    self.stack.extend(share(0));
                    if !clones.is_empty() {
                        return Step::Fork { clones };
                    }
                }
            }
        }
    }

    /// The host of the next visit *if* traversal over `plan` were
    /// advanced now, without consuming anything. Forks and actions
    /// yield `None`.
    pub fn peek_next_host(&self, plan: &Pattern, env: &GuardEnv<'_>) -> Option<String> {
        let mut probe = self.clone();
        match probe.next(plan, env) {
            Step::Visit { host, .. } => Some(host),
            _ => None,
        }
    }

    /// Remaining work items (diagnostic).
    pub fn remaining_depth(&self) -> usize {
        self.stack.len()
    }
}

/// The plan node `path` leads to; `None` when the path leaves the plan.
fn resolve<'p>(plan: &'p Pattern, path: &[usize]) -> Option<&'p Pattern> {
    path.iter()
        .try_fold(plan, |node, &index| node.children().get(index))
}

/// Would this pattern's first reachable visit run, under `env`?
/// Decision procedure for `Alt`: `Seq` looks at its head, `Alt`/`Par`
/// accept when any alternative/branch could start.
fn entry_guard_passes(p: &Pattern, env: &GuardEnv<'_>) -> bool {
    match p {
        Pattern::Singleton(v) => !env.unreachable.iter().any(|h| h == &v.host) && v.guard.eval(env),
        Pattern::Seq(parts) => parts.first().is_some_and(|p| entry_guard_passes(p, env)),
        Pattern::Alt(alts) => alts.iter().any(|p| entry_guard_passes(p, env)),
        Pattern::Par { branches, .. } => branches.iter().any(|p| entry_guard_passes(p, env)),
    }
}

#[cfg(test)]
mod tests {
    use super::super::guard::Guard;
    use super::super::pattern::Visit;
    use super::super::Itinerary;
    use super::*;

    fn env(state: &NapletState, hops: usize) -> GuardEnv<'_> {
        GuardEnv {
            state,
            hops,
            unreachable: &[],
        }
    }

    /// Drive a cursor to completion with all guards implicitly passing,
    /// collecting (hosts, actions) in order; panics on Fork.
    fn run_linear(
        it: &Itinerary,
        mut c: Cursor,
        state: &NapletState,
    ) -> (Vec<String>, Vec<ActionSpec>) {
        let mut hosts = Vec::new();
        let mut actions = Vec::new();
        let mut hops = 0;
        loop {
            match c.next(it.pattern(), &env(state, hops)) {
                Step::Visit { host, action } => {
                    hosts.push(host);
                    hops += 1;
                    if let Some(a) = action {
                        actions.push(a);
                    }
                }
                Step::Action(a) => actions.push(a),
                Step::Fork { .. } => panic!("unexpected fork in linear itinerary"),
                Step::Done => return (hosts, actions),
            }
        }
    }

    #[test]
    fn sequence_visits_in_order() {
        let it = Itinerary::new(Pattern::seq_of_hosts(&["a", "b", "c"], None)).unwrap();
        let state = NapletState::new();
        let (hosts, actions) = run_linear(&it, it.start(), &state);
        assert_eq!(hosts, ["a", "b", "c"]);
        assert!(actions.is_empty());
    }

    #[test]
    fn per_visit_actions_emitted() {
        let it = Itinerary::new(Pattern::seq_of_hosts(
            &["a", "b"],
            Some(ActionSpec::DataComm),
        ))
        .unwrap();
        let state = NapletState::new();
        let (hosts, actions) = run_linear(&it, it.start(), &state);
        assert_eq!(hosts.len(), 2);
        assert_eq!(actions, vec![ActionSpec::DataComm, ActionSpec::DataComm]);
    }

    #[test]
    fn final_action_runs_last() {
        let it = Itinerary::new(Pattern::seq_of_hosts(&["a"], None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let state = NapletState::new();
        let mut c = it.start();
        assert!(matches!(
            c.next(it.pattern(), &env(&state, 0)),
            Step::Visit { .. }
        ));
        assert_eq!(
            c.next(it.pattern(), &env(&state, 1)),
            Step::Action(ActionSpec::ReportHome)
        );
        assert_eq!(c.next(it.pattern(), &env(&state, 1)), Step::Done);
        assert!(c.is_done());
    }

    #[test]
    fn guarded_visits_skip_when_found() {
        // sequential search: stop visiting once state says found
        let keep = Guard::not(Guard::state_truthy("found"));
        let it = Itinerary::new(Pattern::conditional_route(&["a", "b", "c"], keep)).unwrap();
        let mut state = NapletState::new();
        let mut c = it.start();

        let Step::Visit { host, .. } = c.next(it.pattern(), &env(&state, 0)) else {
            panic!()
        };
        assert_eq!(host, "a");
        // found it at `a`: remaining conditional visits are skipped
        state.set("found", true);
        assert_eq!(c.next(it.pattern(), &env(&state, 1)), Step::Done);
    }

    #[test]
    fn alt_takes_first_passing_alternative() {
        let p = Pattern::alt(
            Pattern::visit(Visit::to("mirror").when(Guard::state_truthy("mirror-up"))),
            Pattern::singleton("origin"),
        );
        let it = Itinerary::new(p).unwrap();

        // mirror down → origin
        let state = NapletState::new();
        let (hosts, _) = run_linear(&it, it.start(), &state);
        assert_eq!(hosts, ["origin"]);

        // mirror up → mirror
        let mut state = NapletState::new();
        state.set("mirror-up", true);
        let (hosts, _) = run_linear(&it, it.start(), &state);
        assert_eq!(hosts, ["mirror"]);
    }

    #[test]
    fn alt_avoids_unreachable_alternative() {
        let p = Pattern::alt(Pattern::singleton("primary"), Pattern::singleton("backup"));
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();

        // with `primary` marked unreachable, the Alt falls back
        let unreachable = vec!["primary".to_string()];
        let mut c = it.start();
        let step = c.next(
            it.pattern(),
            &GuardEnv {
                state: &state,
                hops: 0,
                unreachable: &unreachable,
            },
        );
        assert_eq!(
            step,
            Step::Visit {
                host: "backup".to_string(),
                action: None
            }
        );

        // a plain Seq visit is NOT skipped by unreachability
        let it = Itinerary::new(Pattern::seq_of_hosts(&["primary", "b"], None)).unwrap();
        let mut c = it.start();
        let step = c.next(
            it.pattern(),
            &GuardEnv {
                state: &state,
                hops: 0,
                unreachable: &unreachable,
            },
        );
        assert_eq!(
            step,
            Step::Visit {
                host: "primary".to_string(),
                action: None
            }
        );
    }

    #[test]
    fn alt_with_no_passing_alternative_is_skipped() {
        let p = Pattern::seq2(
            Pattern::alt(
                Pattern::visit(Visit::to("x").when(Guard::Never)),
                Pattern::visit(Visit::to("y").when(Guard::Never)),
            ),
            Pattern::singleton("z"),
        );
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();
        let (hosts, _) = run_linear(&it, it.start(), &state);
        assert_eq!(hosts, ["z"]);
    }

    #[test]
    fn alt_entry_guard_looks_into_seq_head() {
        let p = Pattern::alt(
            Pattern::seq2(
                Pattern::visit(Visit::to("s1").when(Guard::Never)),
                Pattern::singleton("s2"),
            ),
            Pattern::singleton("fallback"),
        );
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();
        let (hosts, _) = run_linear(&it, it.start(), &state);
        assert_eq!(hosts, ["fallback"]);
    }

    #[test]
    fn par_forks_clones_and_continues_first_branch() {
        // par(seq(s0,s1), seq(s2,s3)) — paper Example 3
        let p = Pattern::par(vec![
            Pattern::seq_of_hosts(&["s0", "s1"], None),
            Pattern::seq_of_hosts(&["s2", "s3"], None),
        ]);
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();
        let mut c = it.start();

        let Step::Fork { clones } = c.next(it.pattern(), &env(&state, 0)) else {
            panic!("expected fork")
        };
        assert_eq!(clones.len(), 1);

        // originator walks s0, s1
        let (hosts, _) = run_linear(&it, c, &state);
        assert_eq!(hosts, ["s0", "s1"]);
        // clone walks s2, s3
        let (hosts, _) = run_linear(&it, clones.into_iter().next().unwrap(), &state);
        assert_eq!(hosts, ["s2", "s3"]);
    }

    #[test]
    fn par_completion_action_runs_on_every_executor() {
        let p = Pattern::par_with_action(
            vec![Pattern::singleton("a"), Pattern::singleton("b")],
            ActionSpec::DataComm,
        );
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();
        let mut c = it.start();
        let Step::Fork { clones } = c.next(it.pattern(), &env(&state, 0)) else {
            panic!()
        };

        let (hosts, actions) = run_linear(&it, c, &state);
        assert_eq!(hosts, ["a"]);
        assert_eq!(actions, vec![ActionSpec::DataComm]);

        let (hosts, actions) = run_linear(&it, clones.into_iter().next().unwrap(), &state);
        assert_eq!(hosts, ["b"]);
        assert_eq!(actions, vec![ActionSpec::DataComm]);
    }

    #[test]
    fn sequel_after_par_stays_with_originator() {
        let p = Pattern::seq2(
            Pattern::par2(Pattern::singleton("a"), Pattern::singleton("b")),
            Pattern::singleton("home-stretch"),
        );
        let it = Itinerary::new(p)
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let state = NapletState::new();
        let mut c = it.start();
        let Step::Fork { clones } = c.next(it.pattern(), &env(&state, 0)) else {
            panic!()
        };

        // clone: only its branch, no sequel, no final action
        let (hosts, actions) = run_linear(&it, clones.into_iter().next().unwrap(), &state);
        assert_eq!(hosts, ["b"]);
        assert!(actions.is_empty());

        // originator: branch 0, then sequel, then final action
        let (hosts, actions) = run_linear(&it, c, &state);
        assert_eq!(hosts, ["a", "home-stretch"]);
        assert_eq!(actions, vec![ActionSpec::ReportHome]);
    }

    #[test]
    fn broadcast_forks_n_minus_one_clones() {
        let it = Itinerary::new(Pattern::par_singletons(
            &["d1", "d2", "d3", "d4", "d5"],
            Some(ActionSpec::ReportHome),
        ))
        .unwrap();
        let state = NapletState::new();
        let mut c = it.start();
        let Step::Fork { clones } = c.next(it.pattern(), &env(&state, 0)) else {
            panic!()
        };
        assert_eq!(clones.len(), 4);
    }

    #[test]
    fn hop_budget_guard_uses_env_hops() {
        let p = Pattern::Seq(
            ["a", "b", "c", "d"]
                .iter()
                .map(|h| Pattern::visit(Visit::to(*h).when(Guard::HopsLessThan(2))))
                .collect(),
        );
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();
        let mut c = it.start();
        let mut hosts = Vec::new();
        let mut hops = 0;
        loop {
            match c.next(it.pattern(), &env(&state, hops)) {
                Step::Visit { host, .. } => {
                    hosts.push(host);
                    hops += 1;
                }
                Step::Done => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(hosts, ["a", "b"]);
    }

    #[test]
    fn cursor_serializes_mid_journey() {
        let it = Itinerary::new(Pattern::seq_of_hosts(&["a", "b", "c"], None)).unwrap();
        let state = NapletState::new();
        let mut c = it.start();
        let _ = c.next(it.pattern(), &env(&state, 0)); // consume visit to `a`

        let bytes = crate::codec::to_bytes(&c).unwrap();
        let mut back: Cursor = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);

        let Step::Visit { host, .. } = back.next(it.pattern(), &env(&state, 1)) else {
            panic!()
        };
        assert_eq!(host, "b");
    }

    #[test]
    fn peek_does_not_consume() {
        let it = Itinerary::new(Pattern::seq_of_hosts(&["a", "b"], None)).unwrap();
        let state = NapletState::new();
        let c = it.start();
        assert_eq!(
            c.peek_next_host(it.pattern(), &env(&state, 0)),
            Some("a".to_string())
        );
        assert_eq!(
            c.peek_next_host(it.pattern(), &env(&state, 0)),
            Some("a".to_string())
        );
        assert_eq!(c.remaining_depth(), 1);
    }

    #[test]
    fn done_cursor_stays_done() {
        let plan = Pattern::singleton("a");
        let mut c = Cursor::done();
        let state = NapletState::new();
        assert!(c.is_done());
        assert_eq!(c.next(&plan, &env(&state, 0)), Step::Done);
        assert_eq!(c.next(&plan, &env(&state, 0)), Step::Done);
    }

    /// The layout is the format: `Node` is variant 0 (path length, the
    /// path's indices, `next`), `Act` variant 1, each a varint, the
    /// stack bottom first.
    #[test]
    fn cursor_golden_bytes() {
        let bytes = |c: &Cursor| crate::codec::to_bytes(c).unwrap();
        let state = NapletState::new();

        // seq(a, par(seq(b, c), d); DataComm), then ReportHome
        let it = Itinerary::new(Pattern::seq2(
            Pattern::singleton("a"),
            Pattern::par_with_action(
                vec![
                    Pattern::seq_of_hosts(&["b", "c"], None),
                    Pattern::singleton("d"),
                ],
                ActionSpec::DataComm,
            ),
        ))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);

        // start: [Act(ReportHome), Node{[], 0}]
        let mut c = it.start();
        assert_eq!(bytes(&c), [2, 1, 0, 0, 0, 0]);

        // mid-Seq, sent to `a`: [Act(ReportHome), Node{[], 1}]
        assert!(matches!(
            c.next(it.pattern(), &env(&state, 0)),
            Step::Visit { .. }
        ));
        assert_eq!(bytes(&c), [2, 1, 0, 0, 0, 1]);

        // the fork: the clone holds [Act(DataComm), Node{[1, 1], 0}]
        let Step::Fork { clones } = c.next(it.pattern(), &env(&state, 1)) else {
            panic!("expected fork")
        };
        assert_eq!(bytes(&clones[0]), [2, 1, 1, 0, 2, 1, 1, 0]);

        // inside branch 0, sent to `b`: [Act(ReportHome), Node{[], 2},
        // Act(DataComm), Node{[1, 0], 1}]
        assert!(matches!(
            c.next(it.pattern(), &env(&state, 1)),
            Step::Visit { .. }
        ));
        assert_eq!(bytes(&c), [4, 1, 0, 0, 0, 2, 1, 1, 0, 2, 1, 0, 1]);
    }

    #[test]
    fn a_flat_route_keeps_its_cursor_in_a_few_bytes() {
        let hosts: Vec<String> = (0..48).map(|i| format!("host-{i:02}")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let it = Itinerary::new(Pattern::seq_of_hosts(&refs, None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let state = NapletState::new();
        let mut c = it.start();
        let size = crate::codec::encoded_size(&c).unwrap();
        assert!(size <= 8, "{size} bytes at the start");
        for (hops, host) in hosts.iter().enumerate() {
            let step = c.next(it.pattern(), &env(&state, hops));
            assert_eq!(
                step,
                Step::Visit {
                    host: host.clone(),
                    action: None
                }
            );
            assert_eq!(crate::codec::encoded_size(&c).unwrap(), size, "hop {hops}");
        }
    }

    #[test]
    fn a_reference_that_leaves_the_plan_is_dropped() {
        let plan = Pattern::seq_of_hosts(&["a", "b"], None);
        let state = NapletState::new();
        let node = |path: &[usize], next| WorkItem::Node {
            path: path.to_vec(),
            next,
        };
        let mut c = Cursor {
            stack: vec![
                WorkItem::Act(ActionSpec::ReportHome),
                node(&[1], usize::MAX), // a real visit: `next` is ignored
                node(&[], usize::MAX),  // past the end of the Seq
                node(&[0, 0], 0),       // below a Singleton
                node(&[7], 0),          // no such child
            ],
        };
        assert_eq!(
            c.next(&plan, &env(&state, 0)),
            Step::Visit {
                host: "b".into(),
                action: None
            }
        );
        assert_eq!(
            c.next(&plan, &env(&state, 1)),
            Step::Action(ActionSpec::ReportHome)
        );
        assert_eq!(c.next(&plan, &env(&state, 1)), Step::Done);
    }
}
