//! Property-based tests over naplet-core invariants.

use proptest::collection::{btree_map, vec};
use proptest::option;
use proptest::prelude::*;

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::credential::SigningKey;
use naplet_core::itinerary::{ActionSpec, Guard, GuardEnv, Itinerary, Pattern, Step, Visit};
use naplet_core::message::{Message, Sender};
use naplet_core::naplet::{AgentKind, Naplet, SharedNaplet};
use naplet_core::navlog::NavigationLog;
use naplet_core::state::NapletState;
use naplet_core::value::Value;
use naplet_core::NapletId;

// ---------------------------------------------------------------------------
// strategies
// ---------------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,12}"
}

fn naplet_id() -> impl Strategy<Value = NapletId> {
    (ident(), ident(), any::<u64>(), vec(any::<u32>(), 0..5)).prop_map(
        |(user, home, ts, heritage)| {
            let mut id = NapletId::new(&user, &home, Millis(ts)).unwrap();
            for h in heritage {
                id = id.clone_child(h);
            }
            id
        },
    )
}

fn value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // avoid NaN: Value uses PartialEq in tests
        (-1e12f64..1e12).prop_map(Value::Float),
        ".{0,24}".prop_map(Value::Str),
        vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        // one large case, either side of the 2- to 3-byte length prefix
        vec(any::<u8>(), 16_380..16_390).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..6).prop_map(Value::List),
            btree_map("[a-z]{1,6}", inner, 0..6).prop_map(Value::Map),
        ]
    })
    .boxed()
}

fn pattern(depth: u32) -> BoxedStrategy<Pattern> {
    let visit = (ident(), option::of(Just(ActionSpec::ReportHome))).prop_map(|(h, a)| {
        let mut v = Visit::to(h);
        v.action = a;
        Pattern::Singleton(v)
    });
    visit
        .prop_recursive(depth, 24, 4, |inner| {
            prop_oneof![
                vec(inner.clone(), 1..4).prop_map(Pattern::Seq),
                vec(inner.clone(), 1..4).prop_map(Pattern::Alt),
                vec(inner, 1..4).prop_map(Pattern::par),
            ]
        })
        .boxed()
}

/// An arbitrary live naplet: random route, random state entries,
/// random launch instant — the shapes that actually cross the wire.
fn naplet() -> impl Strategy<Value = Naplet> {
    (
        vec(ident(), 1..6),
        vec(("[a-z]{1,8}", value(2)), 0..5),
        1u64..1_000_000,
    )
        .prop_map(|(hosts, entries, ts)| {
            let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
            let it = Itinerary::new(Pattern::seq_of_hosts(&refs, None))
                .unwrap()
                .with_final_action(ActionSpec::ReportHome);
            let mut nap = Naplet::create(
                &SigningKey::new("czxu", b"proptest-secret"),
                "czxu",
                "home",
                Millis(ts),
                "naplet://code/probe.jar",
                AgentKind::Native,
                it,
                vec![],
            )
            .unwrap();
            for (k, v) in entries {
                nap.state.set(&k, v);
            }
            nap
        })
}

fn message() -> impl Strategy<Value = Message> {
    (any::<u64>(), ident(), ident(), any::<u64>(), value(2)).prop_map(
        |(seq, owner, home, ts, body)| {
            let to = NapletId::new("czxu", &home, Millis(1)).unwrap();
            Message::user(seq, Sender::Owner(owner), to, Millis(ts), body)
        },
    )
}

// ---------------------------------------------------------------------------
// NapletId laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn id_display_parse_round_trip(id in naplet_id()) {
        let text = id.to_string();
        let parsed: NapletId = text.parse().unwrap();
        prop_assert_eq!(parsed, id);
    }

    #[test]
    fn id_clone_child_is_proper_descendant(id in naplet_id(), k in any::<u32>()) {
        let child = id.clone_child(k);
        prop_assert!(id.is_ancestor_of(&child));
        prop_assert!(!child.is_ancestor_of(&id));
        prop_assert_eq!(child.parent().unwrap(), id.clone());
        prop_assert_eq!(child.generation(), id.generation() + 1);
        prop_assert!(id.same_family(&child));
        prop_assert_eq!(child.original(), id.original());
    }

    #[test]
    fn id_ancestry_is_transitive(id in naplet_id(), a in any::<u32>(), b in any::<u32>()) {
        let x = id.clone_child(a);
        let y = x.clone_child(b);
        prop_assert!(id.is_ancestor_of(&y));
    }

    #[test]
    fn id_codec_round_trip(id in naplet_id()) {
        let bytes = codec::to_bytes(&id).unwrap();
        let back: NapletId = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, id);
    }
}

// ---------------------------------------------------------------------------
// Value / codec laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn value_codec_round_trip(v in value(3)) {
        let bytes = codec::to_bytes(&v).unwrap();
        let back: Value = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn value_deep_size_positive_and_additive(v in value(2)) {
        let single = v.deep_size();
        prop_assert!(single >= 16);
        let list = Value::List(vec![v.clone(), v]);
        prop_assert!(list.deep_size() >= 2 * single);
    }

    #[test]
    fn encoded_size_equals_len(v in value(2)) {
        let bytes = codec::to_bytes(&v).unwrap();
        prop_assert_eq!(codec::encoded_size(&v).unwrap(), bytes.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Encode-path identity laws: the handoff's shared image and the scratch
// buffers must produce the bytes a fresh encode produces
// ---------------------------------------------------------------------------

proptest! {
    /// The CoW snapshot serializes byte-for-byte like the naplet it
    /// wraps, its cached wire image is that same encoding, and the
    /// counting walk agrees with the real encoder.
    #[test]
    fn shared_naplet_is_byte_identical(nap in naplet()) {
        let naive = codec::to_bytes(&nap).unwrap();
        let shared = SharedNaplet::new(nap.clone());
        prop_assert_eq!(&codec::to_bytes(&shared).unwrap(), &naive);
        let cached = shared.wire_bytes().unwrap();
        prop_assert_eq!(cached.as_slice(), naive.as_slice());
        prop_assert_eq!(shared.wire_size().unwrap(), naive.len() as u64);
        prop_assert_eq!(codec::encoded_size(&nap).unwrap(), naive.len() as u64);
        // and the round trip returns the same agent
        let back: Naplet = codec::from_bytes(&naive).unwrap();
        prop_assert_eq!(back, nap);
    }

    /// Scratch-buffer encoding reuses capacity but must produce the
    /// same bytes as a fresh encode, even when the scratch is dirty.
    #[test]
    fn scratch_encode_is_byte_identical(
        nap in naplet(),
        msg in message(),
        junk in vec(any::<u8>(), 0..64),
    ) {
        let mut scratch = junk;
        codec::to_bytes_into(&nap, &mut scratch).unwrap();
        prop_assert_eq!(&scratch, &codec::to_bytes(&nap).unwrap());
        codec::to_bytes_into(&msg, &mut scratch).unwrap();
        prop_assert_eq!(&scratch, &codec::to_bytes(&msg).unwrap());
        prop_assert_eq!(codec::encoded_size(&msg).unwrap(), scratch.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Itinerary laws
// ---------------------------------------------------------------------------

/// Fully unfold a cursor (including forks), collecting every visited
/// host across all agents.
fn unfold_all(mut cursor: naplet_core::Cursor, state: &NapletState) -> Vec<String> {
    let mut visited = Vec::new();
    let mut hops = 0usize;
    let mut pending = Vec::new();
    loop {
        let step = cursor.next(&GuardEnv {
            state,
            hops,
            unreachable: &[],
        });
        match step {
            Step::Visit { host, .. } => {
                visited.push(host);
                hops += 1;
            }
            Step::Fork { clones } => pending.extend(clones),
            Step::Action(_) => {}
            Step::Done => match pending.pop() {
                Some(next) => {
                    cursor = next;
                    hops = 0;
                }
                None => return visited,
            },
        }
    }
}

proptest! {
    #[test]
    fn unguarded_traversal_visits_expected_count(p in pattern(3)) {
        prop_assume!(p.validate().is_ok());
        let it = Itinerary::new(p.clone()).unwrap();
        let state = NapletState::new();
        let visited = unfold_all(it.start(), &state);
        // With no guards, total visits across all agents equals the
        // analytic count with first-alternative choice.
        prop_assert_eq!(visited.len(), p.total_visits_first_alt());
        // And every visited host is mentioned by the pattern.
        let hosts = p.hosts();
        for h in &visited {
            prop_assert!(hosts.contains(h));
        }
    }

    #[test]
    fn cursor_codec_round_trip_mid_journey(p in pattern(3), steps in 0usize..4) {
        prop_assume!(p.validate().is_ok());
        let it = Itinerary::new(p).unwrap();
        let state = NapletState::new();
        let mut cursor = it.start();
        let mut hops = 0usize;
        for _ in 0..steps {
            match cursor.next(&GuardEnv { state: &state, hops, unreachable: &[] }) {
                Step::Visit { .. } => hops += 1,
                Step::Done => break,
                _ => {}
            }
        }
        let bytes = codec::to_bytes(&cursor).unwrap();
        let back: naplet_core::Cursor = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, cursor);
    }

    #[test]
    fn never_guard_prunes_everything(hosts in vec(ident(), 1..6)) {
        let parts: Vec<Pattern> = hosts
            .iter()
            .map(|h| Pattern::visit(Visit::to(h.clone()).when(Guard::Never)))
            .collect();
        let it = Itinerary::new(Pattern::Seq(parts)).unwrap();
        let state = NapletState::new();
        prop_assert!(unfold_all(it.start(), &state).is_empty());
    }

    #[test]
    fn agents_required_matches_forks(p in pattern(3)) {
        prop_assume!(p.validate().is_ok());
        let it = Itinerary::new(p.clone()).unwrap();
        let state = NapletState::new();
        // count agents = 1 (original) + forks spawned during full unfold
        let mut agents = 1usize;
        let mut stack = vec![it.start()];
        let mut hops = 0usize;
        while let Some(mut cursor) = stack.pop() {
            loop {
                match cursor.next(&GuardEnv { state: &state, hops, unreachable: &[] }) {
                    Step::Fork { clones } => {
                        agents += clones.len();
                        stack.extend(clones);
                    }
                    Step::Visit { .. } => hops += 1,
                    Step::Action(_) => {}
                    Step::Done => break,
                }
            }
            hops = 0;
        }
        // Alt chooses the first alternative at runtime, while
        // agents_required() bounds by the max; the runtime count can
        // never exceed the static bound.
        prop_assert!(agents <= p.agents_required());
    }
}

// ---------------------------------------------------------------------------
// NavigationLog laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn navlog_times_are_consistent(dwells in vec((0u64..1000, 0u64..1000), 1..10)) {
        let mut log = NavigationLog::new();
        let mut t = 0u64;
        for (i, (dwell, transit)) in dwells.iter().enumerate() {
            log.record_arrival(format!("s{i}"), Millis(t));
            t += dwell;
            log.record_departure(Millis(t));
            t += transit;
        }
        let total: u64 = dwells.iter().map(|(d, _)| d).sum();
        let transit: u64 = dwells[..dwells.len() - 1].iter().map(|(_, tr)| tr).sum();
        prop_assert_eq!(log.total_dwell(), total);
        prop_assert_eq!(log.total_transit(), transit);
        prop_assert_eq!(log.journey_time(), total + transit);
        prop_assert_eq!(log.hops(), dwells.len());
    }
}

// ---------------------------------------------------------------------------
// State access-mode laws
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn private_entries_never_server_visible(
        key in "[a-z]{1,8}",
        v in value(1),
        host in ident(),
    ) {
        let mut s = NapletState::new();
        s.set(&key, v);
        prop_assert!(s.server_view(&host).get(&key).is_err());
        prop_assert!(s.server_view(&host).visible_keys().is_empty());
    }

    #[test]
    fn protected_entries_visible_only_to_listed(
        key in "[a-z]{1,8}",
        v in value(1),
        listed in vec(ident(), 1..4),
        other in ident(),
    ) {
        prop_assume!(!listed.contains(&other));
        let mut s = NapletState::new();
        s.set_protected(&key, v, listed.clone());
        for h in &listed {
            prop_assert!(s.server_view(h).get(&key).is_ok());
        }
        prop_assert!(s.server_view(&other).get(&key).is_err());
    }
}

// ---------------------------------------------------------------------------
// Codec robustness: arbitrary bytes never panic the decoder
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn decoder_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..256)) {
        // decoding garbage must return Err or a value, never panic
        let _ = codec::from_bytes::<Value>(&bytes);
        let _ = codec::from_bytes::<NapletId>(&bytes);
        let _ = codec::from_bytes::<naplet_core::Naplet>(&bytes);
        let _ = codec::from_bytes::<naplet_core::Message>(&bytes);
        let _ = codec::from_bytes::<Vec<String>>(&bytes);
    }

    #[test]
    fn truncated_valid_encodings_error_cleanly(v in value(2), cut in any::<u16>()) {
        let bytes = codec::to_bytes(&v).unwrap();
        prop_assume!(!bytes.is_empty());
        let cut = (cut as usize) % bytes.len();
        // any strict prefix must fail (napcode values are not
        // self-delimiting prefixes of themselves)
        let result = codec::from_bytes::<Value>(&bytes[..cut]);
        if cut == 0 {
            // zero bytes can decode Value::Nil? no: Nil is variant tag 0,
            // which needs one byte — must fail
            prop_assert!(result.is_err());
        }
        // no panic is the main property; exact Err-ness at interior cuts
        // depends on varint boundaries
    }
}
