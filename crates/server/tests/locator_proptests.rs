//! The front-door law of the locator alone — a `Journal::in_memory()`
//! and nothing else, no server: for any sequence of registrations,
//! removals and lookups, feeding each through the local entry (this
//! host's own move: `holder` answers `Here`, the frame names this host
//! as registrar) and through the wire entry (the frame a registrar
//! elsewhere sent) leaves the same shard contents, answers every
//! lookup alike and releases the same acks in the same order — on a
//! plain table and on a single-member consensus shard, which must
//! also agree with each other. What kind of shard a host holds is
//! decided inside `Locator::file` / `Locator::directory` and shows
//! nowhere else.
//!
//! Mutation-checked: a table that skips removals, a leader that holds
//! no ack and a commit that releases none each fail this property
//! within two cases.
//!
//! One documented difference is kept out of the sequences: the
//! consensus core tombstones a removed naplet (a straggling retry that
//! outlives its journey commits as nothing) and a table does not, so a
//! naplet is never registered again after its removal — as in life.

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_server::{DirEvent, Filed, Holder, Journal, LocationMode, Locator, Wire};

const SHARD: &str = "dir";

#[derive(Debug, Clone, Copy)]
enum Op {
    Register {
        naplet: u64,
        event: DirEvent,
        acked: bool,
    },
    Remove(u64),
    Lookup(u64),
}

fn op() -> impl Strategy<Value = Op> {
    (0..8u8, 0..5u64, any::<bool>(), any::<bool>()).prop_map(|(kind, naplet, arrival, acked)| {
        match kind {
            0..=4 => Op::Register {
                naplet,
                event: if arrival {
                    DirEvent::Arrival
                } else {
                    DirEvent::Departure
                },
                acked,
            },
            5 => Op::Remove(naplet),
            _ => Op::Lookup(naplet),
        }
    })
}

fn nid(naplet: u64) -> NapletId {
    NapletId::new("czxu", "home", Millis(naplet)).unwrap()
}

/// The locator of the host holding the whole directory, as a plain
/// table or as the elected only member of a replica set.
fn shard(consensus: bool) -> (Locator, Journal) {
    let mut journal = Journal::in_memory();
    let mode = if consensus {
        LocationMode::ReplicatedDirectory(vec![SHARD.to_string()])
    } else {
        LocationMode::CentralDirectory(SHARD.to_string())
    };
    let mut locator = Locator::new(SHARD, mode, None, &journal);
    // a set of one elects itself at its first due tick (no-op on a table)
    let elected = locator.tick(Millis(2_000), &mut journal);
    for (index, op, _) in elected.committed {
        locator.committed(index, op);
    }
    (locator, journal)
}

/// What a run shows from outside: every lookup's answer, the naplets
/// whose registrars were acked (in order), the entries left.
#[derive(Debug, PartialEq)]
struct Seen {
    lookups: Vec<Option<DirEvent>>,
    acks: Vec<NapletId>,
    left: Vec<(NapletId, DirEvent)>,
}

fn run(ops: &[Op], consensus: bool, local: bool) -> Result<Seen, TestCaseError> {
    let (mut locator, mut journal) = shard(consensus);
    let mut seen = Seen {
        lookups: Vec::new(),
        acks: Vec::new(),
        left: Vec::new(),
    };
    let mut ended = BTreeSet::new();
    for (step, op) in ops.iter().enumerate() {
        let now = Millis(3_000 + step as u64);
        let wire = match *op {
            Op::Lookup(naplet) => {
                let found = locator.directory().lookup(&nid(naplet));
                seen.lookups.push(found.map(|e| e.event));
                continue;
            }
            Op::Register { naplet, .. } if ended.contains(&naplet) => continue,
            Op::Register {
                naplet,
                event,
                acked,
            } => {
                let registrar = if local {
                    SHARD.to_string()
                } else {
                    format!("s{}", naplet % 3)
                };
                Wire::DirRegister {
                    id: nid(naplet),
                    host: registrar.clone(),
                    event,
                    ack_to: acked.then_some(registrar),
                    attempt: 1,
                }
            }
            Op::Remove(naplet) => {
                ended.insert(naplet);
                Wire::DirRemove { id: nid(naplet) }
            }
        };
        if local {
            let id = wire.subject().unwrap();
            prop_assert_eq!(locator.holder(id), Holder::Here);
        }
        // the server's enactment: a landed frame is `registered()` at
        // once, a proposal when its commit surfaces
        let landed = match locator.file(&wire, now, &mut journal).0 {
            Filed::Landed => vec![wire],
            Filed::Proposed(rout) => {
                let committed = rout.committed.into_iter();
                let landed = committed.filter_map(|(index, op, _)| locator.committed(index, op));
                landed.map(|(wire, _echo)| wire).collect()
            }
            other => return Err(TestCaseError::fail(format!("the shard's holder {other:?}"))),
        };
        for wire in landed {
            if let Wire::DirRegister {
                id,
                ack_to: Some(_),
                ..
            } = wire
            {
                seen.acks.push(id);
            }
        }
    }
    let left = locator.directory().entries().into_iter();
    seen.left = left.map(|(id, entry)| (id, entry.event)).collect();
    Ok(seen)
}

proptest! {
    #[test]
    fn one_front_door_whatever_the_entry_and_the_shard(ops in vec(op(), 0..40)) {
        let table = run(&ops, false, false)?;
        prop_assert_eq!(&run(&ops, false, true)?, &table, "table: local entry vs wire entry");
        let consensus = run(&ops, true, false)?;
        prop_assert_eq!(&run(&ops, true, true)?, &consensus, "consensus: local vs wire");
        prop_assert_eq!(&consensus, &table, "consensus shard vs table");
    }
}
