//! The napcode format, pinned by digest: the bytes of one frame per
//! `Wire` variant, and of every record the journals hold across a
//! seeded ring journey under the replicated directory with an owner
//! post chasing the agent. The per-type goldens in `codec.rs`,
//! `cursor.rs`, `id.rs`, `journal.rs` and `events.rs` pin a handful of
//! types byte by byte; this pins every derived type a frame or a
//! journal record reaches. A change to either digest is a format
//! change and must say so.

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::codec;
use naplet_core::context::NapletContext;
use naplet_core::credential::{Credential, SigningKey};
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::message::{ControlVerb, Mailbox, Message, Payload, Sender};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_server::events::{OpsPage, OpsRead, TransferEnvelope, Visit, Wire};
use naplet_server::repl::ReplEntry;
use naplet_server::{
    DirEntry, DirOp, LeasePolicy, LocationMode, MonitorPolicy, NapletStatus, ReplMsg, ServerConfig,
    SimRuntime,
};

const CODEBASE: &str = "probe";
const HOSTS: [&str; 4] = ["home", "s0", "s1", "s2"];

/// FNV-1a, 64 bit, over every labelled byte string fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn feed(&mut self, label: &str, bytes: &[u8]) {
        let len = (bytes.len() as u64).to_le_bytes();
        for &b in label.as_bytes().iter().chain(&len).chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Records what it saw in a state rich in every kind of `Value`.
struct Probe;

impl NapletBehavior for Probe {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
        let host = ctx.host_name().to_string();
        let mut visits = match ctx.state().get("visits") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        let mut seen = std::collections::BTreeMap::new();
        seen.insert("host".to_string(), Value::Str(host));
        seen.insert("load".to_string(), Value::Float(0.25 * visits.len() as f64));
        seen.insert(
            "raw".to_string(),
            Value::Bytes(vec![0x00, 0x7f, 0x80, 0xff]),
        );
        seen.insert("first".to_string(), Value::Bool(visits.is_empty()));
        visits.push(Value::Map(seen));
        ctx.state().set("visits", Value::List(visits));
        while let Some(m) = ctx.get_message()? {
            if let Payload::User(v) = m.payload {
                ctx.state().set("mail", v);
            }
        }
        Ok(())
    }
}

fn key() -> SigningKey {
    SigningKey::new("czxu", b"secret")
}

fn probe(route: &[&str], kind: AgentKind) -> Naplet {
    let it = Itinerary::new(Pattern::seq_of_hosts(route, None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let attrs = vec![("role".to_string(), "probe".to_string())];
    let mut naplet =
        Naplet::create(&key(), "czxu", "home", Millis(1), CODEBASE, kind, it, attrs).unwrap();
    naplet.state.set("count", Value::Int(-3));
    naplet.state.set("nothing", Value::Nil);
    naplet
}

/// One value of every `Wire` variant in declaration order, then a
/// second `Repl` carrying a log entry.
fn one_frame_per_variant(status: naplet_server::StatusReport) -> Vec<Wire> {
    let naplet = probe(&["s0", "s1"], AgentKind::Vm(vec![0x00, 0x7f, 0x80, 0xff]));
    let id = naplet.id().clone();
    let child = id.clone_child(2).clone_child(1);
    let envelope = TransferEnvelope {
        naplet: naplet.into(),
        action: Some(ActionSpec::ReportHome),
        transfer_id: 300,
        attempt: 2,
        floor_gap: 3,
    };
    let message = |seq, payload| Message {
        seq,
        from: Sender::Naplet(child.clone()),
        to: id.clone(),
        sent_at: Millis(77),
        payload,
        forward_hops: 1,
    };
    let mut mail = Mailbox::new();
    mail.deposit(message(1, Payload::User(Value::Int(7))));
    mail.deposit(message(2, Payload::User(Value::Str("x".into()))));
    let register = DirOp::Register {
        id: id.clone(),
        host: "s0".into(),
        at: Millis(12),
    };
    let credential = Credential::issue(&key(), id.clone(), CODEBASE, vec![]);
    let visit = Visit {
        origin: "s0".into(),
        transfer_id: 300,
    };
    vec![
        Wire::Transfer(envelope.clone()),
        Wire::DirRegister {
            id: id.clone(),
            host: "s1".into(),
            visit: Some(visit.clone()),
            attempt: 1,
        },
        Wire::DirAck {
            id: id.clone(),
            visit,
        },
        Wire::DirRemove { id: child.clone() },
        Wire::DirQuery {
            token: 1 << 40,
            id: id.clone(),
            reply_to: "home".into(),
        },
        Wire::DirReply {
            token: 5,
            id: id.clone(),
            entry: Some(DirEntry {
                host: "s2".into(),
                at: Millis(99),
            }),
        },
        Wire::Post {
            msg: message(3, Payload::System(ControlVerb::Custom("x".into()))),
            origin_host: "home".into(),
        },
        Wire::PostConfirm {
            sender: Sender::Owner("home".into()),
            seq: 4,
            target: id.clone(),
            delivered_at: "s0".into(),
        },
        Wire::Report {
            id: id.clone(),
            body: Value::List(vec![Value::Float(-0.5), Value::Str("λ".into())]),
        },
        Wire::Notify {
            id: id.clone(),
            status: NapletStatus::Completed,
            host: "s1".into(),
        },
        Wire::AppRequest {
            token: 6,
            reply_to: "man".into(),
            tag: "snmp".into(),
            body: vec![0xff; 3],
        },
        Wire::AppReply {
            token: 6,
            tag: "snmp".into(),
            body: vec![],
        },
        Wire::TransferAck {
            transfer_id: 300,
            id: id.clone(),
            refused: Some("server full (1)".into()),
        },
        Wire::OpsRequest {
            token: 8,
            reply_to: "man".into(),
            credential,
            read: OpsRead::Trace {
                from_seq: 3,
                max: 64,
            },
        },
        Wire::OpsReply {
            token: 8,
            page: Some(OpsPage::Status(status)),
        },
        Wire::Repl {
            msg: ReplMsg::Snapshot {
                term: 3,
                leader: "s0".into(),
                last_index: 40,
                last_term: 2,
                state: vec![(
                    id.clone(),
                    DirEntry {
                        host: "s1".into(),
                        at: Millis(30),
                    },
                )],
                removed: vec![(child.to_string(), 39)],
            },
        },
        Wire::TransferWithMail(envelope, mail),
    ]
    .into_iter()
    .chain([Wire::Repl {
        msg: ReplMsg::Append {
            term: 3,
            leader: "s0".into(),
            prev_index: 40,
            prev_term: 2,
            entries: vec![ReplEntry {
                term: 3,
                op: register,
            }],
            commit: 39,
            idle: false,
        },
    }])
    .collect()
}

/// A 4-host ring under the replicated directory: the agent tours
/// `s0 → s1 → s2` from home while the owner posts to it.
fn ring() -> SimRuntime {
    let mut registry = CodebaseRegistry::new();
    registry.register(CODEBASE, 2048, || Probe);
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), 39);
    let mut rt = SimRuntime::new(fabric);
    let replicas = HOSTS[1..].iter().map(|h| h.to_string()).collect();
    let mode = LocationMode::ReplicatedDirectory(replicas);
    for host in HOSTS {
        let mut cfg = ServerConfig::open(host, mode.clone());
        cfg.codebase = registry.clone();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: 40,
            ..MonitorPolicy::default()
        };
        cfg.lease = Some(LeasePolicy::default());
        rt.add_server(cfg);
    }
    rt
}

/// Every record `host`'s journal holds, as bytes.
fn journal_records(rt: &SimRuntime, host: &str, digest: &mut Digest) -> usize {
    let journal = rt.server(host).unwrap().journal();
    let mut fed = 0;
    let mut feed = |label: String, bytes: Vec<u8>| {
        digest.feed(&label, &bytes);
        fed += 1;
    };
    for (id, record) in journal.naplet_records() {
        feed(format!("{host} n/{id}"), codec::to_bytes(&record).unwrap());
    }
    for id in journal.creations() {
        let parsed: NapletId = id.parse().unwrap();
        let naplet = journal.creation(&parsed).unwrap();
        feed(format!("{host} c/{id}"), codec::to_bytes(&naplet).unwrap());
    }
    for (origin, t, floor, refused) in journal.seen() {
        let note = codec::to_bytes(&(floor, refused)).unwrap();
        feed(format!("{host} s/{origin}/{t}"), note);
    }
    if let Some(life) = journal.incarnation().unwrap() {
        feed(format!("{host} t/"), codec::to_bytes(&life).unwrap());
    }
    for suffix in journal.repl_keys() {
        let bytes = journal.get_repl(&suffix).unwrap();
        feed(format!("{host} r/{suffix}"), bytes);
    }
    fed
}

#[test]
fn one_frame_per_wire_variant_keeps_its_bytes() {
    let mut rt = ring();
    rt.launch(probe(&["s0"], AgentKind::Native)).unwrap();
    rt.run_to_quiescence(100_000);
    let status = rt.status_reports().into_iter().next().unwrap();
    let mut digest = Digest::new();
    for wire in one_frame_per_variant(status) {
        let bytes = codec::to_bytes(&wire).unwrap();
        assert_eq!(codec::encoded_size(&wire).unwrap(), bytes.len() as u64);
        assert_eq!(codec::from_bytes::<Wire>(&bytes).unwrap(), wire);
        digest.feed(wire.label(), &bytes);
    }
    assert_eq!(format!("{:016x}", digest.0), "b50f7aa80b0f4f60");
}

#[test]
fn every_journal_record_of_a_seeded_ring_keeps_its_bytes() {
    let mut rt = ring();
    let naplet = probe(&["s0", "s1", "s2"], AgentKind::Native);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    let mut digest = Digest::new();
    let mut records = 0;
    let mut posted = false;
    for t in (0..2000).step_by(20) {
        rt.run_until(Millis(t));
        if !posted && rt.server("s0").unwrap().monitor.get(&id).is_some() {
            let body = Payload::User(Value::Str("chase".into()));
            rt.owner_post("home", id.clone(), body).unwrap();
            posted = true;
        }
        for host in HOSTS {
            records += journal_records(&rt, host, &mut digest);
        }
    }
    rt.run_to_quiescence(100_000);
    for host in HOSTS {
        records += journal_records(&rt, host, &mut digest);
    }
    assert!(
        posted,
        "the owner's post went out while the agent was at s0"
    );
    assert_eq!(rt.drain_reports("home").len(), 1);
    let digest = format!("{:016x}", digest.0);
    assert_eq!((records, digest.as_str()), (1247, "a65156b00721b5d0"));
}
