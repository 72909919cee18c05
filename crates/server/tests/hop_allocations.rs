//! Image-sized allocations of one hop of a 64 KiB agent between two
//! servers, each driven through `handle` by hand, every frame encoded and
//! decoded through `codec` the way `Node` sends and receives it.
//!
//! The global allocator counts the process's allocations of at least
//! 64 KiB, so this binary holds one test and nothing else allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::codec;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::itinerary::{Itinerary, Pattern};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_server::{
    Input, LocalEvent, LocationMode, NapletServer, NapletStatus, Output, ServerConfig, Wire,
};

/// The agent's ballast, and the size an allocation must reach to count.
const IMAGE: usize = 64 * 1024;

static LARGE: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation (or growth) of at least [`IMAGE`]
/// bytes.
struct CountLarge;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that guards no memory.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= IMAGE {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= IMAGE {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

const CODEBASE: &str = "naplet://code/ballast.jar";

/// Runs its visit and changes nothing: the visit-end snapshot is the
/// agent as it arrived plus its arrival.
struct Idle;

impl NapletBehavior for Idle {
    fn on_start(&mut self, _ctx: &mut dyn NapletContext) -> Result<()> {
        Ok(())
    }
}

fn server(host: &str) -> NapletServer {
    let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
    cfg.codebase = CodebaseRegistry::new();
    cfg.codebase.register(CODEBASE, 4096, || Idle);
    NapletServer::new(cfg)
}

/// A frame as `Node::send` makes it (sized, then encoded into a buffer
/// of exactly that size) and as `Node::receive` reads it.
fn over_the_wire(wire: Wire) -> Wire {
    let mut payload = Vec::new();
    payload.reserve_exact(codec::encoded_size(&wire).unwrap() as usize);
    codec::to_bytes_into(&wire, &mut payload).unwrap();
    codec::from_bytes(&payload).unwrap()
}

/// One hop, `home` → `s1`, and the journey's end there. Five buffers the
/// size of the image are made: the departure image (`wire_bytes`), the
/// frame, the decoded ballast, the decode's copy of the image's span and
/// the visit-end snapshot. The in-flight, admission and visit-end records
/// share the image they are handed (the memory store keeps it), so none
/// of them copies it. Only image-sized allocations are counted;
/// everything smaller is another test's business.
#[test]
fn image_sized_allocations_of_one_hop_of_a_64k_agent() {
    let mut hosts = [server("home"), server("s1")];
    let key = SigningKey::new("czxu", b"test-secret");
    let route = Itinerary::new(Pattern::seq_of_hosts(&["s1"], None)).unwrap();
    let kind = AgentKind::Native;
    let mut naplet = Naplet::create(
        &key,
        "czxu",
        "home",
        Millis(1),
        CODEBASE,
        kind,
        route,
        vec![],
    )
    .unwrap();
    naplet.state.set("ballast", vec![0xa5u8; IMAGE]);
    let id = naplet.id().clone();

    // (due, sequence, host index) earliest first; inputs by sequence
    let mut due = BinaryHeap::new();
    let mut inputs = Vec::new();
    let before = LARGE.load(Ordering::Relaxed);
    let mut outputs = hosts[0].launch(naplet, Millis(1));
    let mut at = (1, 0);
    for _ in 0..1_000 {
        let from = ["home", "s1"][at.1];
        for output in outputs {
            let (delay, to, input) = match output {
                Output::Send { to, wire } => {
                    let wire = over_the_wire(wire);
                    let from = from.to_string();
                    (1, to, Input::Wire { from, wire })
                }
                Output::Schedule { delay_ms, event } => {
                    (delay_ms, from.to_string(), Input::Local(event))
                }
                Output::FetchCode { id, .. } => (
                    1,
                    from.to_string(),
                    Input::Local(LocalEvent::CodeReady { id }),
                ),
            };
            let to = usize::from(to == "s1");
            due.push(Reverse((at.0 + delay, inputs.len(), to)));
            inputs.push(Some(input));
        }
        let Some(Reverse((now, seq, to))) = due.pop() else {
            break;
        };
        at = (now, to);
        let input = inputs[seq].take().expect("each input once");
        outputs = hosts[to].handle(Millis(now), input);
    }
    let large = LARGE.load(Ordering::Relaxed) - before;

    let entry = hosts[0].manager.table_entry(&id).expect("home's record");
    assert_eq!(entry.status, NapletStatus::Completed);
    let records = hosts[1].journal().naplet_records();
    assert!(records.is_empty(), "retired at the journey's end");
    assert_eq!(large, 5, "image-sized allocations over the hop");
}
