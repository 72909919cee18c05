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
        option::of(vec(any::<u8>(), 0..48)),
    )
        .prop_map(|(hosts, entries, ts, vm_image)| {
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
                vm_image.map_or(AgentKind::Native, AgentKind::Vm),
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

    /// The handle compares, orders, hashes and encodes as its four
    /// fields do, whether two ids share an allocation (`clone`), hold
    /// equal content in separate ones (decoded, parsed) or differ.
    #[test]
    fn id_handle_behaves_as_its_fields(a in close_id(), other in close_id(), how in 0usize..4) {
        let b = match how {
            0 => a.clone(),
            1 => codec::from_bytes(&codec::to_bytes(&a).unwrap()).unwrap(),
            2 => a.to_string().parse().unwrap(),
            _ => other,
        };
        let fields = |id: &NapletId| {
            (id.user().to_string(), id.home().to_string(), id.created(), id.heritage().to_vec())
        };
        prop_assert_eq!(a == b, fields(&a) == fields(&b));
        prop_assert_eq!(a.cmp(&b), fields(&a).cmp(&fields(&b)));
        prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
        prop_assert_eq!(hash_of(&a), hash_of(&fields(&a)));
        prop_assert_eq!(codec::to_bytes(&a).unwrap(), codec::to_bytes(&fields(&a)).unwrap());
    }
}

/// Ids from a domain small enough that two draws often coincide in
/// some or all fields.
fn close_id() -> impl Strategy<Value = NapletId> {
    ("[ab]", "[ab]", 0u64..2, vec(0u32..2, 0..3)).prop_map(|(user, home, ts, heritage)| {
        let id = NapletId::new(&user, &home, Millis(ts)).unwrap();
        heritage.into_iter().fold(id, |id, h| id.clone_child(h))
    })
}

fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
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
// Splice laws: a handle that holds its image hands napcode the bytes
// instead of a walk, and nothing downstream can tell
// ---------------------------------------------------------------------------

/// The shape of a transfer envelope around a plain naplet: what the
/// wire carried before handles spliced.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct PlainEnvelope {
    naplet: Naplet,
    action: Option<ActionSpec>,
    transfer_id: u64,
}

/// The same envelope around a handle.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct SharedEnvelope {
    naplet: SharedNaplet,
    action: Option<ActionSpec>,
    transfer_id: u64,
}

/// A serializer that is not napcode: a text dump of the data-model
/// calls it receives. It does not override `serialize_encoded`.
struct Dump<'a>(&'a mut String);

#[derive(Debug)]
struct DumpError(String);

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl serde::ser::Error for DumpError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        DumpError(msg.to_string())
    }
}

macro_rules! dump_leaves {
    ($($method:ident($ty:ty);)+) => {
        $(fn $method(self, v: $ty) -> Result<(), DumpError> {
            self.0.push_str(&format!("{v:?} "));
            Ok(())
        })+
    };
}

macro_rules! dump_compounds {
    ($($tr:ident $method:ident($($key:ty)?);)+) => {
        $(impl serde::ser::$tr for Dump<'_> {
            type Ok = ();
            type Error = DumpError;
            fn $method<T: serde::Serialize + ?Sized>(
                &mut self,
                $(_: $key,)?
                value: &T,
            ) -> Result<(), DumpError> {
                value.serialize(Dump(&mut *self.0))
            }
            fn end(self) -> Result<(), DumpError> {
                self.0.push_str("] ");
                Ok(())
            }
        })+
    };
}

dump_compounds! {
    SerializeSeq serialize_element();
    SerializeTuple serialize_element();
    SerializeTupleStruct serialize_field();
    SerializeTupleVariant serialize_field();
    SerializeStruct serialize_field(&'static str);
    SerializeStructVariant serialize_field(&'static str);
}

impl serde::ser::SerializeMap for Dump<'_> {
    type Ok = ();
    type Error = DumpError;
    fn serialize_key<T: serde::Serialize + ?Sized>(&mut self, key: &T) -> Result<(), DumpError> {
        key.serialize(Dump(&mut *self.0))
    }
    fn serialize_value<T: serde::Serialize + ?Sized>(
        &mut self,
        value: &T,
    ) -> Result<(), DumpError> {
        value.serialize(Dump(&mut *self.0))
    }
    fn end(self) -> Result<(), DumpError> {
        self.0.push_str("] ");
        Ok(())
    }
}

impl<'a> Dump<'a> {
    fn open(self, what: &str) -> Result<Dump<'a>, DumpError> {
        self.0.push_str(what);
        self.0.push_str("[ ");
        Ok(self)
    }
}

impl<'a> serde::Serializer for Dump<'a> {
    type Ok = ();
    type Error = DumpError;
    type SerializeSeq = Dump<'a>;
    type SerializeTuple = Dump<'a>;
    type SerializeTupleStruct = Dump<'a>;
    type SerializeTupleVariant = Dump<'a>;
    type SerializeMap = Dump<'a>;
    type SerializeStruct = Dump<'a>;
    type SerializeStructVariant = Dump<'a>;

    dump_leaves! {
        serialize_bool(bool); serialize_char(char); serialize_str(&str); serialize_bytes(&[u8]);
        serialize_i8(i8); serialize_i16(i16); serialize_i32(i32); serialize_i64(i64);
        serialize_u8(u8); serialize_u16(u16); serialize_u32(u32); serialize_u64(u64);
        serialize_f32(f32); serialize_f64(f64);
    }
    fn serialize_none(self) -> Result<(), DumpError> {
        self.serialize_str("none")
    }
    fn serialize_some<T: serde::Serialize + ?Sized>(self, value: &T) -> Result<(), DumpError> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), DumpError> {
        self.serialize_str("unit")
    }
    fn serialize_unit_struct(self, name: &'static str) -> Result<(), DumpError> {
        self.serialize_str(name)
    }
    fn serialize_unit_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
    ) -> Result<(), DumpError> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: serde::Serialize + ?Sized>(
        self,
        _: &'static str,
        value: &T,
    ) -> Result<(), DumpError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: serde::Serialize + ?Sized>(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), DumpError> {
        self.0.push_str(variant);
        value.serialize(self)
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Self, DumpError> {
        self.open("seq")
    }
    fn serialize_tuple(self, _: usize) -> Result<Self, DumpError> {
        self.open("tuple")
    }
    fn serialize_tuple_struct(self, name: &'static str, _: usize) -> Result<Self, DumpError> {
        self.open(name)
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        _: usize,
    ) -> Result<Self, DumpError> {
        self.open(variant)
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Self, DumpError> {
        self.open("map")
    }
    fn serialize_struct(self, name: &'static str, _: usize) -> Result<Self, DumpError> {
        self.open(name)
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        _: usize,
    ) -> Result<Self, DumpError> {
        self.open(variant)
    }
}

fn dump<T: serde::Serialize>(value: &T) -> String {
    let mut text = String::new();
    value.serialize(Dump(&mut text)).unwrap();
    text
}

proptest! {
    /// Inside an envelope, a handle encodes and sizes to the bytes the
    /// plain naplet gives, whether its image is cached or not.
    #[test]
    fn a_handle_in_an_envelope_splices_byte_identically(
        nap in naplet(),
        action in option::of(Just(ActionSpec::ReportHome)),
        transfer_id in any::<u64>(),
    ) {
        let plain = codec::to_bytes(&PlainEnvelope {
            naplet: nap.clone(),
            action: action.clone(),
            transfer_id,
        })
        .unwrap();
        let shared = SharedEnvelope { naplet: nap.into(), action, transfer_id };
        // cache empty: the walk
        prop_assert_eq!(&codec::to_bytes(&shared).unwrap(), &plain);
        prop_assert_eq!(codec::encoded_size(&shared).unwrap(), plain.len() as u64);
        // cache filled: the splice
        let image = shared.naplet.wire_bytes().unwrap();
        prop_assert_eq!(&codec::to_bytes(&shared).unwrap(), &plain);
        prop_assert_eq!(codec::encoded_size(&shared).unwrap(), plain.len() as u64);
        let mut scratch = vec![0xAA; 7];
        codec::to_bytes_into(&shared, &mut scratch).unwrap();
        prop_assert_eq!(&scratch, &plain);
        prop_assert_eq!(&plain[..image.len()], image.as_slice());
    }

    /// A handle decoded off a frame arrives holding the frame's own
    /// span, and that span is what encoding the decoded naplet gives.
    #[test]
    fn a_decoded_handle_keeps_the_span_it_was_read_from(
        nap in naplet(),
        transfer_id in any::<u64>(),
    ) {
        let image = nap.to_wire().unwrap();
        let sent = SharedEnvelope { naplet: nap.into(), action: None, transfer_id };
        for fill in [false, true] {
            if fill {
                sent.naplet.wire_bytes().unwrap();
            }
            let frame = codec::to_bytes(&sent).unwrap();
            let got: SharedEnvelope = codec::from_bytes(&frame).unwrap();
            prop_assert_eq!(&got, &sent);
            let span = got.naplet.wire_bytes().unwrap();
            prop_assert_eq!(span.as_slice(), &frame[..image.len()]);
            prop_assert_eq!(span.as_slice(), &got.naplet.get().to_wire().unwrap()[..]);
            // forwarding the decoded envelope re-emits the same frame
            prop_assert_eq!(&codec::to_bytes(&got).unwrap(), &frame);
        }
    }

    /// A serializer other than napcode is handed the naplet itself,
    /// never the cached napcode image.
    #[test]
    fn a_foreign_serializer_sees_a_plain_naplet(nap in naplet()) {
        let plain = dump(&nap);
        prop_assert!(plain.starts_with("Naplet[ "));
        let shared = SharedNaplet::new(nap);
        prop_assert_eq!(&dump(&shared), &plain);
        shared.wire_bytes().unwrap();
        prop_assert_eq!(&dump(&shared), &plain);
    }
}

// ---------------------------------------------------------------------------
// Itinerary laws
// ---------------------------------------------------------------------------

/// Fully unfold an itinerary (including forks), collecting every
/// visited host across all agents.
fn unfold_all(it: &Itinerary, state: &NapletState) -> Vec<String> {
    let deeds = unfold(it, state, &[], false).into_values().flatten();
    deeds
        .filter_map(|did| match did {
            Did::Visit(host, _) => Some(host),
            Did::Act(_) => None,
        })
        .collect()
}

proptest! {
    #[test]
    fn unguarded_traversal_visits_expected_count(p in pattern(3)) {
        prop_assume!(p.validate().is_ok());
        let it = Itinerary::new(p.clone()).unwrap();
        let state = NapletState::new();
        let visited = unfold_all(&it, &state);
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
            match cursor.next(it.pattern(), &GuardEnv { state: &state, hops, unreachable: &[] }) {
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
        prop_assert!(unfold_all(&it, &state).is_empty());
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
                match cursor.next(it.pattern(), &GuardEnv { state: &state, hops, unreachable: &[] }) {
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
// The index cursor against a reference interpreter of `Pattern`
// ---------------------------------------------------------------------------

fn action() -> impl Strategy<Value = ActionSpec> {
    prop_oneof![
        Just(ActionSpec::ReportHome),
        Just(ActionSpec::DataComm),
        "[a-z]{1,4}".prop_map(ActionSpec::Named),
    ]
}

fn guard() -> impl Strategy<Value = Guard> {
    prop_oneof![
        Just(Guard::Always),
        Just(Guard::Always),
        Just(Guard::Never),
        (0u32..4).prop_map(Guard::HopsLessThan),
        Just(Guard::state_truthy("flag")),
        Just(Guard::not(Guard::state_truthy("flag"))),
    ]
}

/// A plan over five hosts with every feature the BNF has: guarded
/// visits, per-visit actions, `Par` completion actions.
fn plan(depth: u32) -> BoxedStrategy<Pattern> {
    let visit = ("[a-e]", guard(), option::of(action())).prop_map(|(host, guard, action)| {
        Pattern::Singleton(Visit {
            host,
            guard,
            action,
        })
    });
    visit
        .prop_recursive(depth, 24, 4, |inner| {
            prop_oneof![
                vec(inner.clone(), 1..4).prop_map(Pattern::Seq),
                vec(inner.clone(), 1..4).prop_map(Pattern::Alt),
                (vec(inner, 1..4), option::of(action()))
                    .prop_map(|(branches, after)| Pattern::Par { branches, after }),
            ]
        })
        .boxed()
}

/// One thing an agent did on its journey.
#[derive(Debug, Clone, PartialEq)]
enum Did {
    Visit(String, Option<ActionSpec>),
    Act(ActionSpec),
}

/// What every agent of a family did, in order, keyed by clone heritage:
/// the originator is `[]`, an agent's k-th clone appends `k`.
type Deeds = std::collections::BTreeMap<Vec<u32>, Vec<Did>>;

/// The itinerary semantics of DESIGN.md §4.1, written as a recursive
/// interpreter of `Pattern` that shares nothing with `Cursor`.
struct Reference<'a> {
    state: &'a NapletState,
    unreachable: &'a [String],
    deeds: Deeds,
}

impl Reference<'_> {
    fn run(it: &Itinerary, state: &NapletState, unreachable: &[String]) -> Deeds {
        let mut r = Reference {
            state,
            unreachable,
            deeds: Deeds::new(),
        };
        r.deeds.insert(Vec::new(), Vec::new());
        r.walk(it.pattern(), &[]);
        r.deeds
            .get_mut(&[][..])
            .unwrap()
            .extend(it.final_action().cloned().map(Did::Act));
        r.deeds
    }

    /// Decision-time environment of agent `me`: its own visits so far.
    fn env(&self, me: &[u32]) -> GuardEnv<'_> {
        let hops = self.deeds[me]
            .iter()
            .filter(|d| matches!(d, Did::Visit(..)))
            .count();
        GuardEnv {
            state: self.state,
            hops,
            unreachable: self.unreachable,
        }
    }

    fn walk(&mut self, p: &Pattern, me: &[u32]) {
        match p {
            Pattern::Singleton(v) => {
                if v.guard.eval(&self.env(me)) {
                    let did = Did::Visit(v.host.clone(), v.action.clone());
                    self.deeds.get_mut(me).unwrap().push(did);
                }
            }
            Pattern::Seq(parts) => parts.iter().for_each(|p| self.walk(p, me)),
            Pattern::Alt(alts) => {
                if let Some(p) = alts.iter().find(|p| self.may_start(p, me)) {
                    self.walk(p, me);
                }
            }
            Pattern::Par { branches, after } => {
                // clones are born when the Par is reached, before anyone moves
                let born = self
                    .deeds
                    .keys()
                    .filter(|k| k.len() == me.len() + 1 && k.starts_with(me))
                    .count();
                let agents: Vec<Vec<u32>> = (0..branches.len())
                    .map(|b| {
                        if b == 0 {
                            me.to_vec()
                        } else {
                            [me, &[(born + b) as u32]].concat()
                        }
                    })
                    .collect();
                for agent in &agents {
                    self.deeds.entry(agent.clone()).or_default();
                }
                for (p, agent) in branches.iter().zip(&agents) {
                    self.walk(p, agent);
                    self.deeds
                        .get_mut(agent)
                        .unwrap()
                        .extend(after.clone().map(Did::Act));
                }
            }
        }
    }

    /// An `Alt` takes its first alternative whose entry visit would run.
    fn may_start(&self, p: &Pattern, me: &[u32]) -> bool {
        match p {
            Pattern::Singleton(v) => {
                !self.unreachable.contains(&v.host) && v.guard.eval(&self.env(me))
            }
            Pattern::Seq(parts) => self.may_start(&parts[0], me),
            Pattern::Alt(ps) | Pattern::Par { branches: ps, .. } => {
                ps.iter().any(|p| self.may_start(p, me))
            }
        }
    }
}

/// Drive the real cursor over `it` for every agent it forks; with
/// `reencode`, the cursor goes through its wire form before every step
/// (as it does between two hosts).
fn unfold(it: &Itinerary, state: &NapletState, unreachable: &[String], reencode: bool) -> Deeds {
    let mut deeds = Deeds::new();
    let mut agents = vec![(Vec::new(), it.start())];
    while let Some((me, mut cursor)) = agents.pop() {
        let (mut did, mut hops, mut born) = (Vec::new(), 0, 0);
        loop {
            if reencode {
                cursor = codec::from_bytes(&codec::to_bytes(&cursor).unwrap()).unwrap();
            }
            match cursor.next(
                it.pattern(),
                &GuardEnv {
                    state,
                    hops,
                    unreachable,
                },
            ) {
                Step::Visit { host, action } => {
                    did.push(Did::Visit(host, action));
                    hops += 1;
                }
                Step::Action(a) => did.push(Did::Act(a)),
                Step::Fork { clones } => {
                    for clone in clones {
                        born += 1;
                        agents.push(([&me[..], &[born]].concat(), clone));
                    }
                }
                Step::Done => break,
            }
        }
        deeds.insert(me, did);
    }
    deeds
}

/// A stand-in with `Cursor`'s wire layout (pinned by
/// `cursor_golden_bytes`), to build cursors no traversal would produce.
#[derive(Debug, Clone, serde::Serialize)]
enum ForgedItem {
    Node { path: Vec<usize>, next: usize },
    Act(ActionSpec),
}

fn forged_cursor() -> impl Strategy<Value = naplet_core::Cursor> {
    let index = || prop_oneof![0usize..5, Just(usize::MAX)];
    let item = prop_oneof![
        (vec(index(), 0..5), index()).prop_map(|(path, next)| ForgedItem::Node { path, next }),
        action().prop_map(ForgedItem::Act),
    ];
    vec(item, 0..6).prop_map(|stack| codec::from_bytes(&codec::to_bytes(&stack).unwrap()).unwrap())
}

fn nodes(p: &Pattern) -> usize {
    match p {
        Pattern::Singleton(_) => 1,
        Pattern::Seq(ps) | Pattern::Alt(ps) | Pattern::Par { branches: ps, .. } => {
            1 + ps.iter().map(nodes).sum::<usize>()
        }
    }
}

proptest! {
    /// The cursor unfolds every plan exactly as the reference
    /// interpreter reads it — same agents, same visits and actions in
    /// the same order — under any state, hop budget and unreachable
    /// set, and whether or not it crosses the wire between steps.
    #[test]
    fn cursor_unfolds_like_the_reference_interpreter(
        p in plan(3),
        final_action in option::of(action()),
        flag in any::<bool>(),
        unreachable in vec("[a-e]", 0..3),
    ) {
        let mut it = Itinerary::new(p).unwrap();
        if let Some(a) = final_action {
            it = it.with_final_action(a);
        }
        let mut state = NapletState::new();
        state.set("flag", flag);
        let expected = Reference::run(&it, &state, &unreachable);
        prop_assert_eq!(&unfold(&it, &state, &unreachable, false), &expected);
        prop_assert_eq!(&unfold(&it, &state, &unreachable, true), &expected);
    }

    /// A cursor that was never taken from the plan it is driven over
    /// (corrupted record, hostile image) cannot panic, cannot loop and
    /// cannot name a visit the plan does not declare.
    #[test]
    fn a_forged_cursor_terminates_inside_the_plan(forged in forged_cursor(), p in plan(3)) {
        let state = NapletState::new();
        let hosts = p.hosts();
        let budget = (forged.remaining_depth() + 1) * 4 * (nodes(&p) + 1);
        let mut agents = vec![forged];
        let mut steps = 0usize;
        while let Some(mut cursor) = agents.pop() {
            let mut hops = 0usize;
            loop {
                steps += 1;
                prop_assert!(steps <= budget, "{} steps over a {}-node plan", steps, nodes(&p));
                match cursor.next(&p, &GuardEnv { state: &state, hops, unreachable: &[] }) {
                    Step::Visit { host, .. } => {
                        prop_assert!(hosts.contains(&host));
                        hops += 1;
                    }
                    Step::Action(_) => {}
                    Step::Fork { clones } => agents.extend(clones),
                    Step::Done => break,
                }
            }
        }
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
