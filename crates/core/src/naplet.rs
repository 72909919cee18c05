//! The `Naplet` itself (paper §2.1): the serializable agent that
//! travels between servers.
//!
//! A naplet bundles its immutable identity (`NapletId`, codebase,
//! credential), its protected application state, its itinerary and the
//! traversal cursor that indexes into it (the plan travels once; the
//! cursor is a few integers), its address book and its navigation log. The
//! execution context is *not* part of the naplet — it is transient,
//! attached by the hosting server on arrival (see
//! [`crate::context::NapletContext`]).
//!
//! Two agent kinds exist (DESIGN.md §2):
//! * [`AgentKind::Native`] — business logic resolved from the
//!   [`CodebaseRegistry`](crate::codebase::CodebaseRegistry) at each
//!   host (weak mobility, like the paper's Java classes);
//! * [`AgentKind::Vm`] — bytecode and execution image carried inside
//!   the naplet (strong mobility; interpreted by `naplet-vm`). The
//!   image is opaque bytes at this layer.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::codec::{Decode, Encode, Reader, Sink, Writer};

use crate::address_book::AddressBook;
use crate::clock::Millis;
use crate::codec;
use crate::credential::{Credential, SigningKey};
use crate::error::{NapletError, Result};
use crate::id::NapletId;
use crate::itinerary::{Cursor, GuardEnv, Itinerary, Step};
use crate::navlog::NavigationLog;
use crate::state::NapletState;

/// How the naplet's business logic is carried.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum AgentKind {
    /// Logic lives in the codebase registry; only the codebase URL
    /// travels (lazy code loading).
    Native,
    /// Logic travels with the agent as an opaque VM image
    /// (serialized `naplet_vm::VmImage`), giving strong mobility.
    Vm(Vec<u8>),
}

/// The mobile agent.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct Naplet {
    id: NapletId,
    codebase: String,
    credential: Credential,
    kind: AgentKind,
    /// Application state container (naplet-side full access; servers
    /// only ever get the mode-checked view).
    pub state: NapletState,
    itinerary: Itinerary,
    cursor: Cursor,
    /// Known peers for messaging.
    pub address_book: AddressBook,
    /// Travel history.
    pub nav_log: NavigationLog,
    next_clone_ordinal: u32,
}

impl Naplet {
    /// Create a new original naplet.
    ///
    /// `key` signs the credential over the immutable attributes
    /// (id + codebase + attribute claims).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        key: &SigningKey,
        user: &str,
        home: &str,
        created: Millis,
        codebase: &str,
        kind: AgentKind,
        itinerary: Itinerary,
        attributes: Vec<(String, String)>,
    ) -> Result<Naplet> {
        let id = NapletId::new(user, home, created)?;
        let credential = Credential::issue(key, id.clone(), codebase, attributes);
        Ok(Naplet {
            id,
            codebase: codebase.to_string(),
            credential,
            kind,
            state: NapletState::new(),
            cursor: itinerary.start(),
            itinerary,
            address_book: AddressBook::new(),
            nav_log: NavigationLog::new(),
            next_clone_ordinal: 1,
        })
    }

    /// Immutable identifier.
    pub fn id(&self) -> &NapletId {
        &self.id
    }

    /// Immutable codebase URL.
    pub fn codebase(&self) -> &str {
        &self.codebase
    }

    /// The signed credential.
    pub fn credential(&self) -> &Credential {
        &self.credential
    }

    /// Agent kind (native vs VM image).
    pub fn kind(&self) -> &AgentKind {
        &self.kind
    }

    /// Mutable access to a VM image payload, used by the hosting
    /// monitor to persist execution progress between hops.
    pub fn kind_mut(&mut self) -> &mut AgentKind {
        &mut self.kind
    }

    /// The naplet's home server, derived from its identifier — this
    /// derivability is what enables home-manager directory service
    /// (paper §4.1).
    pub fn home(&self) -> &str {
        self.id.home()
    }

    /// The static itinerary (travel plan).
    pub fn itinerary(&self) -> &Itinerary {
        &self.itinerary
    }

    /// The live traversal cursor: references into
    /// [`itinerary`](Self::itinerary)'s pattern, cheap to clone.
    pub fn cursor(&self) -> &Cursor {
        &self.cursor
    }

    /// Verify the credential and that it certifies this naplet's
    /// family: clones carry the family credential, so the certified id
    /// must be this id or one of its ancestors.
    pub fn verify(&self, key: &SigningKey) -> Result<()> {
        self.credential.verify(key)?;
        let cert_id = &self.credential.naplet_id;
        let certified = cert_id == &self.id || cert_id.is_ancestor_of(&self.id);
        if !certified {
            return Err(NapletError::SecurityDenied {
                permission: "VERIFY".into(),
                subject: format!(
                    "credential certifies {cert_id}, which does not cover {}",
                    self.id
                ),
            });
        }
        if self.credential.codebase != self.codebase {
            return Err(NapletError::Immutable(format!(
                "codebase `{}` differs from certified `{}`",
                self.codebase, self.credential.codebase
            )));
        }
        Ok(())
    }

    /// Advance the itinerary: evaluate guards against the current
    /// state, travel history and unreachable hosts, and return the next
    /// directive.
    pub fn advance(&mut self) -> Step {
        let unreachable = self.nav_log.failed_hosts();
        let env = GuardEnv {
            state: &self.state,
            hops: self.nav_log.hops(),
            unreachable: &unreachable,
        };
        self.cursor.next(self.itinerary.pattern(), &env)
    }

    /// The next destination host without consuming traversal state.
    pub fn peek_next_host(&self) -> Option<String> {
        let unreachable = self.nav_log.failed_hosts();
        let env = GuardEnv {
            state: &self.state,
            hops: self.nav_log.hops(),
            unreachable: &unreachable,
        };
        self.cursor.peek_next_host(self.itinerary.pattern(), &env)
    }

    /// Rewind the traversal cursor to a previously saved checkpoint.
    /// The reliable-transfer layer snapshots the cursor before each
    /// `advance()` so a permanently failed migration can be re-decided
    /// (an `Alt` then picks another branch via the failure records).
    /// The cursor is resolved against this naplet's own itinerary, so
    /// one that was not taken from it can skip work but never add a
    /// visit the plan does not declare.
    pub fn set_cursor(&mut self, cursor: Cursor) {
        self.cursor = cursor;
    }

    /// True when the journey has completed.
    pub fn journey_done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Spawn a clone to execute a `Par` branch (paper §3): the clone
    /// receives the branch cursor, a copy of the state, the inherited
    /// address book (including this naplet at `current_host`), a fresh
    /// navigation log, and the next heritage ordinal. Ordinal `0` is
    /// reserved: the continuing parent *is* the `.0` branch.
    pub fn clone_for_branch(&mut self, branch: Cursor, current_host: &str) -> Naplet {
        let ordinal = self.next_clone_ordinal;
        self.next_clone_ordinal += 1;
        let clone_id = self.id.clone_child(ordinal);
        let address_book = self.address_book.inherited(&self.id, current_host);
        // the parent also learns about its clone, starting here
        self.address_book.put(clone_id.clone(), current_host);
        Naplet {
            id: clone_id,
            codebase: self.codebase.clone(),
            credential: self.credential.clone(),
            kind: self.kind.clone(),
            state: self.state.clone(),
            cursor: branch,
            itinerary: self.itinerary.clone(),
            address_book,
            nav_log: NavigationLog::new(),
            next_clone_ordinal: 1,
        }
    }

    /// Serialized wire size in bytes — what a migration of this naplet
    /// costs on the fabric (code transfer excluded; that is metered by
    /// the code cache).
    pub fn wire_size(&self) -> Result<u64> {
        codec::encoded_size(self)
    }

    /// Serialize for migration. The buffer starts at the size of what
    /// makes an agent large — its state and a carried VM image — so a
    /// 64 KiB agent is not copied through a dozen doublings on its way
    /// out.
    pub fn to_wire(&self) -> Result<Vec<u8>> {
        let vm_image = match &self.kind {
            AgentKind::Native => 0,
            AgentKind::Vm(image) => image.len(),
        };
        let mut out = Vec::with_capacity(512 + vm_image + self.state.deep_size() as usize);
        codec::to_bytes_into(self, &mut out)?;
        Ok(out)
    }

    /// Deserialize a migrated naplet.
    pub fn from_wire(bytes: &[u8]) -> Result<Naplet> {
        codec::from_bytes(bytes)
    }
}

/// A copy-on-write handle to an immutable [`Naplet`] snapshot plus its
/// wire image.
///
/// During a migration the same agent image is needed several times —
/// the origin's journal records, the transfer frame and every
/// retransmit of it, the byte metering on the fabric, the destination's
/// admission record. The image is produced once — by the first
/// [`wire_bytes`](Self::wire_bytes), or kept from the frame the handle
/// was decoded off — and from then on shared or copied: clones are `Arc`
/// bumps, a journal record takes the `Arc` (a memory store keeps it, not
/// a copy), and serializing the handle into napcode splices the cached
/// bytes instead of walking the agent again.
///
/// The handle serializes exactly like the underlying [`Naplet`]
/// (byte-identical `napcode`, cache filled or not), so it replaces
/// `Naplet` inside wire envelopes without changing the format; a
/// serializer other than napcode sees a plain `Naplet`.
#[derive(Debug, Clone)]
pub struct SharedNaplet {
    inner: Arc<SharedInner>,
}

#[derive(Debug)]
struct SharedInner {
    naplet: Naplet,
    /// The naplet's `to_wire` image, shared by every clone of the
    /// handle.
    bytes: OnceLock<Arc<Vec<u8>>>,
}

impl SharedNaplet {
    /// Freeze a naplet into a shared snapshot.
    pub fn new(naplet: Naplet) -> SharedNaplet {
        SharedNaplet {
            inner: Arc::new(SharedInner {
                naplet,
                bytes: OnceLock::new(),
            }),
        }
    }

    /// Borrow the underlying naplet.
    pub fn get(&self) -> &Naplet {
        &self.inner.naplet
    }

    /// Take the naplet back out for mutation: zero-copy when this is
    /// the last handle, a deep clone otherwise (copy-on-write).
    pub fn into_owned(self) -> Naplet {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.naplet,
            Err(shared) => shared.naplet.clone(),
        }
    }

    /// The wire image: encoded on first use unless the handle arrived
    /// with it, then shared across clones.
    pub fn wire_bytes(&self) -> Result<Arc<Vec<u8>>> {
        if let Some(bytes) = self.inner.bytes.get() {
            return Ok(Arc::clone(bytes));
        }
        let bytes = Arc::new(self.inner.naplet.to_wire()?);
        Ok(Arc::clone(self.inner.bytes.get_or_init(|| bytes)))
    }

    /// The wire size in bytes: the length of
    /// [`wire_bytes`](Self::wire_bytes). Shadows [`Naplet::wire_size`],
    /// which would walk the agent behind the handle's back.
    pub fn wire_size(&self) -> Result<u64> {
        Ok(self.wire_bytes()?.len() as u64)
    }
}

impl Deref for SharedNaplet {
    type Target = Naplet;
    fn deref(&self) -> &Naplet {
        &self.inner.naplet
    }
}

impl From<Naplet> for SharedNaplet {
    fn from(naplet: Naplet) -> SharedNaplet {
        SharedNaplet::new(naplet)
    }
}

impl PartialEq for SharedNaplet {
    fn eq(&self, other: &SharedNaplet) -> bool {
        self.inner.naplet == other.inner.naplet
    }
}

impl Encode for SharedNaplet {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        match self.inner.bytes.get() {
            Some(image) => {
                w.put(image);
                Ok(())
            }
            None => w.root(&self.inner.naplet),
        }
    }
}

impl Decode for SharedNaplet {
    fn decode(r: &mut Reader<'_>) -> Result<SharedNaplet> {
        let (naplet, span) = r.spanned_root::<Naplet>()?;
        let shared = SharedNaplet::new(naplet);
        let _ = shared.inner.bytes.set(Arc::new(span.to_vec()));
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itinerary::{ActionSpec, Pattern};
    use crate::value::Value;

    fn key() -> SigningKey {
        SigningKey::new("czxu", b"secret")
    }

    fn sample() -> Naplet {
        let it = Itinerary::new(Pattern::seq_of_hosts(&["s1", "s2"], None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        Naplet::create(
            &key(),
            "czxu",
            "home.host",
            Millis(7),
            "naplet://code/demo.jar",
            AgentKind::Native,
            it,
            vec![("role".into(), "demo".into())],
        )
        .unwrap()
    }

    #[test]
    fn creation_sets_immutables() {
        let n = sample();
        assert_eq!(n.id().user(), "czxu");
        assert_eq!(n.home(), "home.host");
        assert_eq!(n.codebase(), "naplet://code/demo.jar");
        assert!(n.id().is_original());
        n.verify(&key()).unwrap();
    }

    #[test]
    fn verification_rejects_wrong_key_and_tampered_codebase() {
        let mut n = sample();
        assert!(n.verify(&SigningKey::new("czxu", b"wrong")).is_err());
        n.codebase = "naplet://code/evil.jar".into();
        assert!(n.verify(&key()).is_err());
    }

    #[test]
    fn advance_walks_itinerary() {
        let mut n = sample();
        let Step::Visit { host, .. } = n.advance() else {
            panic!()
        };
        assert_eq!(host, "s1");
        n.nav_log.record_arrival("s1", Millis(10));
        n.nav_log.record_departure(Millis(20));
        let Step::Visit { host, .. } = n.advance() else {
            panic!()
        };
        assert_eq!(host, "s2");
        assert_eq!(n.advance(), Step::Action(ActionSpec::ReportHome));
        assert_eq!(n.advance(), Step::Done);
        assert!(n.journey_done());
    }

    #[test]
    fn clone_gets_next_ordinal_and_inherited_book() {
        let mut n = sample();
        n.state.set("shared", Value::Int(1));
        n.address_book
            .put(NapletId::new("peer", "p", Millis(0)).unwrap(), "ps");

        let c1 = n.clone_for_branch(Cursor::done(), "here");
        let c2 = n.clone_for_branch(Cursor::done(), "here");

        assert_eq!(c1.id().heritage(), [1]);
        assert_eq!(c2.id().heritage(), [2]);
        assert!(n.id().is_ancestor_of(c1.id()));
        // clone inherits peers + parent location
        assert!(c1.address_book.knows(n.id()));
        assert!(c1
            .address_book
            .knows(&NapletId::new("peer", "p", Millis(0)).unwrap()));
        // parent learns about clones
        assert!(n.address_book.knows(c1.id()));
        assert!(n.address_book.knows(c2.id()));
        // state copied, log fresh
        assert_eq!(c1.state.get("shared"), Value::Int(1));
        assert_eq!(c1.nav_log.hops(), 0);
        // clones verify under the family credential
        c1.verify(&key()).unwrap();
        c2.verify(&key()).unwrap();
    }

    #[test]
    fn recursive_clone_heritage() {
        let mut n = sample();
        let mut c2 = n.clone_for_branch(Cursor::done(), "h");
        let mut c2x = c2.clone_for_branch(Cursor::done(), "h");
        let c2y = c2.clone_for_branch(Cursor::done(), "h");
        assert_eq!(c2x.id().heritage(), [1, 1]);
        assert_eq!(c2y.id().heritage(), [1, 2]);
        c2x.verify(&key()).unwrap();
        let deep = c2x.clone_for_branch(Cursor::done(), "h");
        assert_eq!(deep.id().heritage(), [1, 1, 1]);
        deep.verify(&key()).unwrap();
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let mut n = sample();
        n.state.set("gathered", Value::list([Value::Int(3)]));
        n.nav_log.record_arrival("s1", Millis(10));
        let bytes = n.to_wire().unwrap();
        assert_eq!(bytes.len() as u64, n.wire_size().unwrap());
        let back = Naplet::from_wire(&bytes).unwrap();
        assert_eq!(back, n);
        back.verify(&key()).unwrap();
    }

    #[test]
    fn wire_size_grows_with_state() {
        let mut n = sample();
        let before = n.wire_size().unwrap();
        n.state.set("blob", Value::Bytes(vec![0; 2048]));
        assert!(n.wire_size().unwrap() >= before + 2048);
    }

    /// The plan travels once: apart from the navigation log, the image
    /// is the same size at every stop of a flat route.
    #[test]
    fn the_image_grows_only_by_its_navigation_log() {
        let hosts: Vec<String> = (0..48).map(|i| format!("host-{i:02}")).collect();
        let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
        let it = Itinerary::new(Pattern::seq_of_hosts(&refs, None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let mut n = Naplet::create(
            &key(),
            "czxu",
            "home.host",
            Millis(7),
            "naplet://code/demo.jar",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        let rest = |n: &Naplet| {
            n.to_wire().unwrap().len() as u64 - codec::encoded_size(&n.nav_log).unwrap()
        };
        let at_launch = rest(&n);
        for (hop, host) in hosts.iter().enumerate() {
            assert!(matches!(n.advance(), Step::Visit { .. }));
            assert_eq!(rest(&n), at_launch, "departing for hop {hop}");
            n.nav_log
                .record_arrival(host.as_str(), Millis(10 * hop as u64));
            n.nav_log.record_departure(Millis(10 * hop as u64 + 5));
        }
    }

    #[test]
    fn shared_naplet_encodes_byte_identically() {
        let mut n = sample();
        n.state.set("gathered", Value::list([Value::Int(3)]));
        let plain = n.to_wire().unwrap();
        let shared = SharedNaplet::new(n.clone());
        assert_eq!(codec::to_bytes(&shared).unwrap(), plain);
        assert_eq!(shared.wire_size().unwrap(), plain.len() as u64);
        assert_eq!(shared.wire_bytes().unwrap().as_slice(), plain.as_slice());
        // decoding a plain wire image yields the same snapshot
        let back: SharedNaplet = codec::from_bytes(&plain).unwrap();
        assert_eq!(back, shared);
        assert_eq!(back.into_owned(), n);
    }

    #[test]
    fn shared_naplet_cache_is_shared_and_cow_is_cheap_when_unique() {
        let n = sample();
        let a = SharedNaplet::new(n.clone());
        let b = a.clone();
        // the snapshot computed through one handle is visible via the other
        let bytes = a.wire_bytes().unwrap();
        assert!(Arc::ptr_eq(&bytes, &b.wire_bytes().unwrap()));
        drop(a);
        // last handle: into_owned must not clone
        let owned = b.into_owned();
        assert_eq!(owned, n);
    }

    #[test]
    fn vm_kind_carries_image() {
        let it = Itinerary::new(Pattern::singleton("s1")).unwrap();
        let n = Naplet::create(
            &key(),
            "czxu",
            "h",
            Millis(1),
            "vm:demo",
            AgentKind::Vm(vec![1, 2, 3]),
            it,
            vec![],
        )
        .unwrap();
        assert_eq!(n.kind(), &AgentKind::Vm(vec![1, 2, 3]));
        let back = Naplet::from_wire(&n.to_wire().unwrap()).unwrap();
        assert_eq!(back.kind(), &AgentKind::Vm(vec![1, 2, 3]));
    }
}
