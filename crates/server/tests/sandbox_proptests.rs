//! The law the sandbox's one VM loop obeys, checked on the sandbox
//! alone — a resource manager, a security manager, two registries, no
//! server: *what a program does is oblivious to the scheduling
//! quantum*. A generated program (logs, reports, posts, state writes,
//! padding, instructions dearer than a small slice) runs a visit up to
//! its `travel_next` and then the final slice to its `halt`; under any
//! `gas_slice` from 1 to the program's whole cost, the effects of both
//! runs, their outcomes, the image the visit persists and the gas each
//! meter ends up holding equal those of the single-slice run.

use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::behavior::ActionRegistry;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{Itinerary, Pattern};
use naplet_core::message::Mailbox;
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_server::{
    Effects, ExecOutcome, Meter, MonitorPolicy, ResourceManager, Sandbox, SecurityManager, What,
};
use naplet_vm::{assemble, VmImage};

const PEER: &str = "peer@s1:9";

#[derive(Debug, Clone)]
enum Stmt {
    Log(u8),
    Report(i64),
    Post(i64),
    Set(u8, i64),
    /// `n` one-gas instruction pairs.
    Pad(u8),
    /// One `mklist n`: a single instruction costing `2 + n`.
    List(u8),
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        any::<u8>().prop_map(Stmt::Log),
        any::<i64>().prop_map(Stmt::Report),
        any::<i64>().prop_map(Stmt::Post),
        (0u8..4, any::<i64>()).prop_map(|(k, v)| Stmt::Set(k, v)),
        (1u8..40).prop_map(Stmt::Pad),
        (0u8..30).prop_map(Stmt::List),
    ]
}

fn emit(src: &mut String, stmts: &[Stmt]) {
    for s in stmts {
        src.push_str(&match s {
            Stmt::Log(n) => format!("const \"l{n}\"\nhcall log\npop\n"),
            Stmt::Report(v) => format!("int {v}\nhcall report\npop\n"),
            Stmt::Post(v) => format!("const \"{PEER}\"\nint {v}\nhcall msg_send\npop\n"),
            Stmt::Set(k, v) => format!("const \"k{k}\"\nint {v}\nhcall state_set\npop\n"),
            Stmt::Pad(n) => "int 1\npop\n".repeat(*n as usize),
            Stmt::List(n) => format!("{}mklist {n}\npop\n", "nil\n".repeat(*n as usize)),
        });
    }
}

/// `before`, a `travel_next`, `after`, `halt` — as a fresh VM agent
/// that knows its peer.
fn agent(before: &[Stmt], after: &[Stmt]) -> Naplet {
    let mut src = String::from(".program p\n.func main locals=1\n");
    emit(&mut src, before);
    src.push_str("hcall travel_next\npop\n");
    emit(&mut src, after);
    src.push_str("nil\nhalt\n.end\n");
    let image = VmImage::new(assemble(&src).unwrap()).unwrap();
    let kind = AgentKind::Vm(image.to_wire().unwrap());
    let key = SigningKey::new("u", b"k");
    let it = Itinerary::new(Pattern::singleton("s0")).unwrap();
    let mut naplet =
        Naplet::create(&key, "u", "home", Millis(1), "vm:p", kind, it, vec![]).unwrap();
    naplet
        .address_book
        .put(PEER.parse::<NapletId>().unwrap(), "s1");
    naplet
}

type Ran = (Result<ExecOutcome>, Effects, Meter);

/// The visit, then the final slice, each on its own meter; returns
/// both and the agent as the visit left it.
fn journey(mut naplet: Naplet, gas_slice: u64) -> (Ran, Ran, Naplet) {
    let policy = MonitorPolicy {
        gas_slice,
        ..MonitorPolicy::default()
    };
    let (security, codebase) = (SecurityManager::open(), CodebaseRegistry::new());
    let (mut resources, actions) = (ResourceManager::new(), ActionRegistry::new());
    let mut run = |naplet: &mut Naplet, what| {
        let sandbox = Sandbox {
            host: "s0",
            now: Millis(7),
            co_residents: 0,
            resources: &mut resources,
            security: &security,
            codebase: &codebase,
            actions: &actions,
            policy: &policy,
        };
        let mut meter = Meter::default();
        let (result, effects) = sandbox.run(naplet, &mut Mailbox::new(), &mut meter, what);
        (result, effects, meter)
    };
    let visit = run(&mut naplet, What::Visit(None));
    let visited = naplet.clone();
    let last = run(&mut naplet, What::FinalSlice);
    (visit, last, visited)
}

/// Both ran to the same outcome, emitted the same, metered the same.
fn same(a: &Ran, b: &Ran) -> bool {
    a.0.is_ok() && a.0.as_ref().ok() == b.0.as_ref().ok() && a.1 == b.1 && a.2 == b.2
}

proptest! {
    #[test]
    fn what_a_program_does_is_oblivious_to_the_gas_slice(
        before in vec(stmt(), 0..12),
        after in vec(stmt(), 0..12),
        pick in any::<u64>(),
    ) {
        let naplet = agent(&before, &after);
        let (visit, last, visited) = journey(naplet.clone(), u64::MAX);
        prop_assert!(!visit.0.clone().unwrap().program_done);
        prop_assert!(last.0.clone().unwrap().program_done);
        let whole = visit.2.gas + last.2.gas;
        let gas_slice = 1 + pick % whole;
        let (sliced_visit, sliced_last, sliced_visited) = journey(naplet, gas_slice);
        prop_assert!(same(&visit, &sliced_visit), "visit under gas_slice {}", gas_slice);
        prop_assert!(same(&last, &sliced_last), "final slice under gas_slice {}", gas_slice);
        prop_assert_eq!(visited, sliced_visited, "persisted image under gas_slice {}", gas_slice);
    }
}
