//! Write-ahead journal — the crash-consistency layer of a server.
//!
//! A `NapletServer` is otherwise a purely volatile process: every
//! resident naplet, pending transfer and dedup entry lives in RAM and
//! dies with the process. The journal records a durable snapshot of
//! each hosted naplet at the boundaries the protocol already computes:
//!
//! * **admission** — before the arrival is acknowledged, so the origin
//!   may safely retire its copy once the `TransferAck` arrives. The
//!   record is the image exactly as received; recovery stamps the
//!   arrival (at the record's time) that admission stamped on the live
//!   copy;
//! * **visit completion** — the post-checkpoint snapshot together with
//!   the navigation log's *visit epoch*, the exactly-once ratchet that
//!   stops a replayed visit from re-applying its effects;
//! * **departure** — the in-flight snapshot plus the transfer id and
//!   retry state, so a crashed origin resumes the handoff instead of
//!   dropping it. Its image is the one the Transfer frame carries and
//!   the destination's admission record stores;
//! * **retirement** — once a `TransferAck` confirms the destination
//!   holds the agent durably (or the journey ends), the record is
//!   removed.
//!
//! The invariant the two ends uphold together: *an agent is journaled
//! at the destination before it is acked away from the origin, and
//! retired at the origin only after the ack* — at every instant at
//! least one journal holds the naplet, so a crash on either side of a
//! handoff loses nothing.
//!
//! Storage is pluggable through [`JournalStore`]: [`MemoryStore`] for
//! simulation (survives the simulated crash because the driver carries
//! it across the server rebuild) and [`FileStore`] for real durability
//! (one file per record, atomic tmp-and-rename writes).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;
use naplet_core::itinerary::{ActionSpec, Cursor};
use naplet_core::naplet::Naplet;
use naplet_core::{codec, NapletError, NapletId, Result};
use naplet_obs::{TraceKind, COUNT_BOUNDS};

use crate::events::Outbox;

/// Pluggable durable key/value backing for a [`Journal`].
///
/// Keys are short UTF-8 strings; values are opaque byte blobs. A store
/// must make `put` atomic per key (no torn records) — that is the only
/// durability primitive the journal needs.
pub trait JournalStore: std::fmt::Debug + Send {
    /// Durably write `value` under `key`, replacing any prior value.
    fn put(&mut self, key: &str, value: &[u8]) -> Result<()>;
    /// Remove `key` if present.
    fn remove(&mut self, key: &str) -> Result<()>;
    /// Read the value under `key`, if any.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>>;
    /// All keys, sorted, for recovery scans.
    fn keys(&self) -> Result<Vec<String>>;
    /// Number of records. The default walks `keys()`; stores that can
    /// answer cheaper should override — this is polled on every
    /// journal write for the ops-plane gauge, so an O(records)
    /// implementation turns a long-running server quadratic.
    fn count(&self) -> usize {
        self.keys().map(|k| k.len()).unwrap_or(0)
    }
}

/// In-memory store: "durable" relative to a *simulated* crash, which
/// wipes the server but hands the store to the rebuilt instance.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: BTreeMap<String, Vec<u8>>,
}

impl MemoryStore {
    /// Empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl JournalStore for MemoryStore {
    fn put(&mut self, key: &str, value: &[u8]) -> Result<()> {
        // a naplet is re-recorded several times per stay: overwrite in
        // place, keeping the key and the value's buffer
        if let Some(held) = self.map.get_mut(key) {
            held.clear();
            held.extend_from_slice(value);
        } else {
            self.map.insert(key.to_string(), value.to_vec());
        }
        Ok(())
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        self.map.remove(key);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.map.get(key).cloned())
    }

    fn keys(&self) -> Result<Vec<String>> {
        Ok(self.map.keys().cloned().collect())
    }

    fn count(&self) -> usize {
        self.map.len()
    }
}

/// File-backed store: one file per key under a directory, written with
/// tmp-and-rename so a crash mid-write never leaves a torn record.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    /// Records on disk: scanned once in `open`, then kept by `put` and
    /// `remove`, because the journal asks for it on every write.
    records: usize,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| NapletError::Internal(format!("journal dir {}: {e}", dir.display())))?;
        let mut store = FileStore { dir, records: 0 };
        store.records = store.keys()?.len();
        Ok(store)
    }

    /// Keys contain `/` separators; encode every byte outside
    /// `[A-Za-z0-9_.-]` as `%XX` so each key maps to one flat filename.
    fn encode(key: &str) -> String {
        let mut out = String::with_capacity(key.len());
        for b in key.bytes() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-') {
                out.push(b as char);
            } else {
                let _ = write!(out, "%{b:02X}");
            }
        }
        out
    }

    fn decode(name: &str) -> Option<String> {
        let bytes = name.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                let hex = name.get(i + 1..i + 3)?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        String::from_utf8(out).ok()
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(Self::encode(key))
    }
}

impl JournalStore for FileStore {
    fn put(&mut self, key: &str, value: &[u8]) -> Result<()> {
        let path = self.path(key);
        let tmp = path.with_extension("tmp");
        let replaces = path.exists();
        std::fs::write(&tmp, value)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| NapletError::Internal(format!("journal write {key}: {e}")))?;
        if !replaces {
            self.records += 1;
        }
        Ok(())
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        match std::fs::remove_file(self.path(key)) {
            Ok(()) => {
                self.records = self.records.saturating_sub(1);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(NapletError::Internal(format!("journal remove {key}: {e}"))),
        }
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(NapletError::Internal(format!("journal read {key}: {e}"))),
        }
    }

    fn keys(&self) -> Result<Vec<String>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| NapletError::Internal(format!("journal scan: {e}")))?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| NapletError::Internal(format!("journal scan: {e}")))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                continue; // torn write from a crash mid-put
            }
            if let Some(key) = Self::decode(name) {
                keys.push(key);
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn count(&self) -> usize {
        self.records
    }
}

/// A durable verdict note: `((origin, transfer_id), seen-at, refusal
/// reason)`, `None` when the transfer was admitted.
pub type SeenNote = ((String, u64), Millis, Option<String>);

/// Where a journaled naplet stood when its snapshot was taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalPhase {
    /// Resident on this server. `applied_epoch` is the navigation-log
    /// visit epoch up to which visit effects have been applied: equal
    /// to the snapshot's own epoch once the visit ran, one less while
    /// the naplet was only admitted. `action` is the pending visit
    /// action carried in the transfer envelope, needed to re-run an
    /// unapplied visit after recovery.
    Resident {
        /// Visit epoch whose effects are already durable in the world.
        applied_epoch: u64,
        /// Pending per-visit action, if the visit has not run yet.
        action: Option<ActionSpec>,
    },
    /// Departing: the handoff to `dest` under `transfer_id` was in
    /// progress. `checkpoint` is the pre-departure cursor to rewind to
    /// if the migration permanently fails after recovery.
    InFlight {
        /// Transfer id of the in-progress handoff.
        transfer_id: u64,
        /// Destination host.
        dest: String,
        /// Cursor to restore on permanent failure.
        checkpoint: Cursor,
        /// Send attempts made so far.
        attempt: u32,
        /// Per-visit action travelling with the naplet.
        action: Option<ActionSpec>,
    },
    /// Parked on this server awaiting manual resumption.
    Parked,
}

impl JournalPhase {
    /// Stable label of the phase for traces and logs.
    pub fn label(&self) -> &'static str {
        match self {
            JournalPhase::InFlight { .. } => "in-flight",
            JournalPhase::Resident { .. } => "resident",
            JournalPhase::Parked => "parked",
        }
    }
}

/// One durable naplet record: the serialized agent plus its phase. On
/// disk that is the length-prefixed raw image, then the phase, then the
/// timestamp; [`Journal::record_naplet_bytes`] emits exactly this layout
/// from a borrowed image, so the field order here is the format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// `napcode`-encoded [`Naplet`] snapshot.
    pub naplet: Vec<u8>,
    /// Protocol phase at snapshot time.
    pub phase: JournalPhase,
    /// When the record was written (virtual time).
    pub updated: Millis,
}

impl JournalRecord {
    /// Decode the carried naplet snapshot.
    pub fn decode_naplet(&self) -> Result<Naplet> {
        codec::from_bytes(&self.naplet)
    }
}

/// Counters a recovery replay produces, merged into server diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Naplets rehydrated from the journal after a crash.
    pub rehydrated: u64,
    /// Visits whose re-execution was suppressed because the journaled
    /// `applied_epoch` showed their effects already escaped.
    pub replays_suppressed: u64,
    /// In-flight handoffs resumed by re-driving the retry machinery.
    pub handoffs_resumed: u64,
    /// Home-side leases that expired without renewal.
    pub leases_expired: u64,
    /// Orphaned agents re-dispatched from their creation record.
    pub orphans_redispatched: u64,
    /// Agents given up as `Lost` after lease expiry.
    pub agents_lost: u64,
}

impl RecoveryStats {
    /// Add `other` into `self` (for cross-server aggregation).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.rehydrated += other.rehydrated;
        self.replays_suppressed += other.replays_suppressed;
        self.handoffs_resumed += other.handoffs_resumed;
        self.leases_expired += other.leases_expired;
        self.orphans_redispatched += other.orphans_redispatched;
        self.agents_lost += other.agents_lost;
    }
}

/// The server-side write-ahead journal.
///
/// Key layout (flat, prefix-partitioned):
///
/// * `n/<naplet-id>` — [`JournalRecord`] for a hosted/in-flight naplet
/// * `c/<naplet-id>` — creation snapshot for lease re-dispatch (home)
/// * `s/<transfer-id>/<origin>` — receiver-side transfer dedup entry
/// * `t/watermark` — high-water mark of issued transfer tokens
/// * `r/<suffix>` — replicated-directory consensus records (term/vote
///   meta, log runs, compaction snapshot); opaque to the journal
#[derive(Debug)]
pub struct Journal {
    store: Box<dyn JournalStore>,
    /// Scratch the per-hop `n/<naplet-id>` and per-entry `r/…` keys are
    /// written into.
    key: String,
}

impl Journal {
    /// Journal over a fresh in-memory store.
    pub fn in_memory() -> Journal {
        Journal::with_store(Box::new(MemoryStore::new()))
    }

    /// Journal over any store implementation.
    pub fn with_store(store: Box<dyn JournalStore>) -> Journal {
        Journal {
            store,
            key: String::new(),
        }
    }

    /// `key`, written over the scratch: `n/<id>` is built five times per
    /// stay, and a replica journals `r/…` records per log append.
    fn key_in<'k>(scratch: &'k mut String, key: fmt::Arguments) -> &'k str {
        scratch.clear();
        let _ = scratch.write_fmt(key);
        scratch
    }

    fn creation_key(id: &NapletId) -> String {
        format!("c/{id}")
    }

    fn seen_key(origin: &str, transfer_id: u64) -> String {
        format!("s/{transfer_id}/{origin}")
    }

    /// Durably record the agent whose encoded `image` the caller holds
    /// — a [`naplet_core::naplet::SharedNaplet`]'s cached bytes, or one
    /// fresh encoding of a resident — in `phase`. The one writer of
    /// naplet records: the byte string, the phase and the time as one
    /// tuple are a [`JournalRecord`]'s bytes (napcode frames neither
    /// tuples nor structs), encoded once into a buffer of exactly that
    /// size while only borrowing the image and the phase.
    /// Errors are returned for the caller to log; the protocol proceeds
    /// regardless (a failed write degrades durability, not correctness
    /// of the live run).
    pub fn record_naplet_bytes(
        &mut self,
        id: &NapletId,
        image: &[u8],
        phase: &JournalPhase,
        now: Millis,
    ) -> Result<()> {
        let record = (image, phase, now);
        let mut buf = Vec::with_capacity(codec::encoded_size(&record)? as usize);
        codec::to_bytes_into(&record, &mut buf)?;
        let key = Self::key_in(&mut self.key, format_args!("n/{id}"));
        self.store.put(key, &buf)
    }

    /// Retire a naplet record: the agent is durably someone else's
    /// responsibility (acked away) or its journey ended here.
    pub fn retire(&mut self, id: &NapletId) -> Result<()> {
        let key = Self::key_in(&mut self.key, format_args!("n/{id}"));
        self.store.remove(key)
    }

    /// Record `id` from the `image` a caller holds (a handle's
    /// `wire_bytes()`, or one walk of a resident) in `phase`, and
    /// account for it in `out`. Every record the protocol writes comes
    /// through here. A missing image or a refusing store is logged,
    /// never raised: a degraded journal weakens durability, not the
    /// live run.
    pub fn put_naplet(
        &mut self,
        id: &NapletId,
        image: Result<Arc<Vec<u8>>>,
        phase: &JournalPhase,
        out: &mut Outbox,
    ) {
        let now = out.now();
        let written = image.and_then(|image| self.record_naplet_bytes(id, &image, phase, now));
        if let Err(e) = written {
            out.log(format!("JOURNAL write failed for {id}: {e}"));
        }
        let records = self.len() as u64;
        out.observe("journal_records", COUNT_BOUNDS, records);
        out.trace(Some(id), || TraceKind::JournalAppend {
            phase: phase.label().to_string(),
            records,
        });
    }

    /// [`retire`](Self::retire) `id`'s record and trace the shrink in
    /// `out` (a refusing store is logged).
    pub fn retire_naplet(&mut self, id: &NapletId, out: &mut Outbox) {
        if let Err(e) = self.retire(id) {
            out.log(format!("JOURNAL retire failed for {id}: {e}"));
        }
        let records = self.len() as u64;
        out.trace(Some(id), || TraceKind::JournalRetire { records });
    }

    /// The keys under `prefix`, sorted (none when the store cannot be
    /// scanned).
    fn keys_under(&self, prefix: &str) -> Vec<String> {
        let mut keys = self.store.keys().unwrap_or_default();
        keys.retain(|key| key.starts_with(prefix));
        keys
    }

    /// All live naplet records, sorted by id, for recovery scans.
    pub fn naplet_records(&self) -> Vec<(String, JournalRecord)> {
        let decode = |key: String| {
            let record = codec::from_bytes(&self.store.get(&key).ok()??).ok()?;
            Some((key["n/".len()..].to_string(), record))
        };
        self.keys_under("n/")
            .into_iter()
            .filter_map(decode)
            .collect()
    }

    /// Record the creation snapshot of a naplet dispatched from this
    /// (home) server, for lease-driven re-dispatch.
    pub fn record_creation(&mut self, id: &NapletId, naplet: &Naplet) -> Result<()> {
        self.store
            .put(&Self::creation_key(id), &codec::to_bytes(naplet)?)
    }

    /// The creation snapshot for `id`, if still held.
    pub fn creation(&self, id: &NapletId) -> Option<Naplet> {
        let bytes = self.store.get(&Self::creation_key(id)).ok().flatten()?;
        codec::from_bytes(&bytes).ok()
    }

    /// Ids with a creation record, sorted.
    pub fn creations(&self) -> Vec<String> {
        let ids = self.keys_under("c/").into_iter();
        ids.map(|key| key["c/".len()..].to_string()).collect()
    }

    /// Drop the creation record once the journey reaches a terminal
    /// status (no re-dispatch will ever be needed).
    pub fn remove_creation(&mut self, id: &NapletId) -> Result<()> {
        self.store.remove(&Self::creation_key(id))
    }

    /// Durably note the verdict on a transfer (receiver-side dedup):
    /// admitted, or `refused` for a reason. A restarted receiver still
    /// answers a retransmission with it instead of deciding again.
    pub fn note_seen(
        &mut self,
        origin: &str,
        transfer_id: u64,
        at: Millis,
        refused: Option<&str>,
    ) -> Result<()> {
        let value = ((origin, transfer_id), at, refused);
        self.store.put(
            &Self::seen_key(origin, transfer_id),
            &codec::to_bytes(&value)?,
        )
    }

    /// All durable verdict notes.
    pub fn seen(&self) -> Vec<SeenNote> {
        let decode = |key: &String| codec::from_bytes(&self.store.get(key).ok()??).ok();
        self.keys_under("s/").iter().filter_map(decode).collect()
    }

    /// Evict dedup entries older than `ttl_ms`; returns how many.
    pub fn compact_seen(&mut self, now: Millis, ttl_ms: u64) -> usize {
        let mut evicted = 0;
        for ((origin, transfer_id), at, _) in self.seen() {
            if now.since(at) >= ttl_ms {
                let _ = self.store.remove(&Self::seen_key(&origin, transfer_id));
                evicted += 1;
            }
        }
        evicted
    }

    /// Durably advance the transfer-token high-water mark. Written on
    /// every token issue so a recovered server never reuses an id that
    /// may still be live in a peer's dedup table.
    pub fn set_token_watermark(&mut self, token: u64) -> Result<()> {
        self.store.put("t/watermark", &codec::to_bytes(&token)?)
    }

    /// The last durable token watermark, 0 if never written.
    pub fn token_watermark(&self) -> u64 {
        self.store
            .get("t/watermark")
            .ok()
            .flatten()
            .and_then(|b| codec::from_bytes(&b).ok())
            .unwrap_or(0)
    }

    /// Journal lag for the ops plane: `(entries, bytes)` over the
    /// un-retired naplet records (`n/` prefix) — durable work the
    /// protocol has not yet confirmed away. O(records); meant for
    /// status sweeps, not hot paths.
    pub fn lag(&self) -> (u64, u64) {
        let keys = self.keys_under("n/");
        let values = keys.iter().filter_map(|key| self.store.get(key).ok()?);
        (keys.len() as u64, values.map(|v| v.len() as u64).sum())
    }

    /// Durably write a consensus record under `r/<suffix>`. The
    /// replicated directory ([`crate::repl`]) persists its term/vote
    /// meta, log runs and snapshots here; the journal treats the bytes
    /// as opaque. The suffix is formatted straight into the key scratch
    /// (`format_args!("e/{first:016x}")` allocates nothing).
    pub fn put_repl(&mut self, suffix: impl fmt::Display, bytes: &[u8]) -> Result<()> {
        let key = Self::key_in(&mut self.key, format_args!("r/{suffix}"));
        self.store.put(key, bytes)
    }

    /// Read the consensus record under `r/<suffix>`, if any.
    pub fn get_repl(&self, suffix: &str) -> Option<Vec<u8>> {
        self.store.get(&format!("r/{suffix}")).ok().flatten()
    }

    /// Remove the consensus record under `r/<suffix>`.
    pub fn remove_repl(&mut self, suffix: impl fmt::Display) -> Result<()> {
        let key = Self::key_in(&mut self.key, format_args!("r/{suffix}"));
        self.store.remove(key)
    }

    /// All consensus-record suffixes, sorted (recovery scan).
    pub fn repl_keys(&self) -> Vec<String> {
        let suffixes = self.keys_under("r/").into_iter();
        suffixes.map(|key| key["r/".len()..].to_string()).collect()
    }

    /// Number of records of any kind.
    pub fn len(&self) -> usize {
        self.store.count()
    }

    /// True when nothing is journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use naplet_core::credential::SigningKey;
    use naplet_core::itinerary::{Itinerary, Pattern};
    use naplet_core::naplet::AgentKind;

    fn sample_naplet() -> Naplet {
        let key = SigningKey::new("czxu", b"test-secret");
        let it = Itinerary::new(Pattern::seq_of_hosts(&["s1", "s2"], None)).unwrap();
        Naplet::create(
            &key,
            "czxu",
            "home",
            Millis(1),
            "naplet://code/probe.jar",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap()
    }

    impl Journal {
        /// The naplet key layout, stated apart from the scratch writer.
        fn naplet_key(id: &NapletId) -> String {
            format!("n/{id}")
        }
    }

    fn temp_dir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("naplet-journal-{}-{n}", std::process::id()))
    }

    fn naplet_round_trip(mut journal: Journal) {
        let naplet = sample_naplet();
        let id = naplet.id().clone();
        journal
            .record_naplet_bytes(
                &id,
                &naplet.to_wire().unwrap(),
                &JournalPhase::Resident {
                    applied_epoch: 0,
                    action: Some(ActionSpec::ReportHome),
                },
                Millis(5),
            )
            .unwrap();
        let records = journal.naplet_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, id.to_string());
        assert_eq!(records[0].1.updated, Millis(5));
        let back = records[0].1.decode_naplet().unwrap();
        assert_eq!(back.id(), &id);
        match &records[0].1.phase {
            JournalPhase::Resident {
                applied_epoch,
                action,
            } => {
                assert_eq!(*applied_epoch, 0);
                assert_eq!(action, &Some(ActionSpec::ReportHome));
            }
            other => panic!("unexpected phase {other:?}"),
        }
        journal.retire(&id).unwrap();
        assert!(journal.naplet_records().is_empty());
    }

    /// The writer hands the store the bytes of the `JournalRecord` it
    /// stands for — no more than the image plus a few dozen bytes of
    /// phase and timestamp — and the one reader gets the naplet back.
    #[test]
    fn a_record_is_the_image_once_plus_phase_and_time() {
        let mut naplet = sample_naplet();
        // high bytes: a byte's value must not change what it costs
        naplet.state.set("ballast", vec![0xffu8; 64 * 1024]);
        let id = naplet.id().clone();
        let image = naplet.to_wire().unwrap();
        assert!(image.len() <= 64 * 1024 + 1024, "image {}", image.len());
        let record = JournalRecord {
            naplet: image.clone(),
            phase: JournalPhase::Resident {
                applied_epoch: 3,
                action: None,
            },
            updated: Millis(5),
        };
        let expected = codec::to_bytes(&record).unwrap();
        assert_eq!(codec::encoded_size(&record).unwrap(), expected.len() as u64);
        assert!(expected.len() <= image.len() + 64, "{}", expected.len());

        let mut journal = Journal::in_memory();
        journal
            .record_naplet_bytes(&id, &image, &record.phase, Millis(5))
            .unwrap();
        let stored = journal.store.get(&Journal::naplet_key(&id)).unwrap();
        assert_eq!(stored.expect("record written"), expected);

        let records = journal.naplet_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1, record);
        assert_eq!(records[0].1.decode_naplet().unwrap(), naplet);
    }

    /// One hop, one image: what the origin journals in flight, what the
    /// Transfer frame carries and what the destination journals at
    /// admission are the same bytes — moved with the handle (the sim)
    /// or decoded off the frame (a `Node`).
    #[test]
    fn both_ends_of_a_hop_journal_the_identical_image() {
        use crate::{Input, LocationMode, NapletServer, Output, ServerConfig};

        let sent_to = |out: Vec<Output>, host: &str| {
            let mut wires = out.into_iter().filter_map(|o| match o {
                Output::Send { to, wire } if to == host => Some(wire),
                _ => None,
            });
            wires.next().expect("a frame for the peer")
        };
        for framed in [false, true] {
            // home managers: the visit waits for home's DirAck, so the
            // admission record is still the journal's latest
            let server =
                |host| NapletServer::new(ServerConfig::open(host, LocationMode::HomeManagers));
            let (mut home, mut s1) = (server("home"), server("s1"));
            let deliver = |to: &mut NapletServer, at, from: &str, wire| {
                let from = from.to_string();
                to.handle(Millis(at), Input::Wire { from, wire })
            };
            let mut transfer = sent_to(home.launch(sample_naplet(), Millis(1)), "s1");
            let frame = codec::to_bytes(&transfer).unwrap();
            if framed {
                transfer = codec::from_bytes(&frame).unwrap();
            }
            deliver(&mut s1, 4, "home", transfer);

            let origin = home.journal().naplet_records();
            let dest = s1.journal().naplet_records();
            let (origin, dest) = (&origin[0].1, &dest[0].1);
            assert!(matches!(origin.phase, JournalPhase::InFlight { .. }));
            assert_eq!(
                dest.phase,
                JournalPhase::Resident {
                    applied_epoch: 0,
                    action: None
                }
            );
            assert_eq!(dest.updated, Millis(4));
            assert_eq!(origin.naplet, dest.naplet, "framed={framed}");
            assert_eq!(frame[1..1 + dest.naplet.len()], dest.naplet[..]);
            // as received: the arrival is stamped on the live copy only
            assert_eq!(dest.decode_naplet().unwrap().nav_log.hops(), 0);
        }
    }

    /// The record layout, pinned: length-prefixed raw image, phase,
    /// timestamp (see `naplet_core::codec`'s `byte_strings_golden`).
    #[test]
    fn journal_record_golden_bytes() {
        let record = JournalRecord {
            naplet: vec![0x00, 0x7f, 0x80, 0xff],
            phase: JournalPhase::Parked,
            updated: Millis(5),
        };
        let golden = [4, 0x00, 0x7f, 0x80, 0xff, 2, 5];
        assert_eq!(codec::to_bytes(&record).unwrap(), golden);
        assert_eq!(codec::from_bytes::<JournalRecord>(&golden).unwrap(), record);
    }

    #[test]
    fn memory_store_round_trips_naplet_records() {
        naplet_round_trip(Journal::in_memory());
    }

    #[test]
    fn file_store_round_trips_naplet_records() {
        let dir = temp_dir();
        naplet_round_trip(Journal::with_store(Box::new(
            FileStore::open(&dir).unwrap(),
        )));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_survives_reopen_and_skips_tmp() {
        let dir = temp_dir();
        {
            let mut store = FileStore::open(&dir).unwrap();
            store.put("n/abc", b"hello").unwrap();
            // simulate a crash mid-put: a stray tmp file left behind
            std::fs::write(dir.join("torn.tmp"), b"junk").unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.keys().unwrap(), vec!["n/abc".to_string()]);
        assert_eq!(store.get("n/abc").unwrap().unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_count_tracks_keys_through_writes_and_reopen() {
        let dir = temp_dir();
        let mut store = FileStore::open(&dir).unwrap();
        let agrees = |store: &FileStore| {
            assert_eq!(store.count(), store.keys().unwrap().len());
            store.count()
        };
        assert_eq!(agrees(&store), 0);
        for key in ["n/a", "n/b", "s/1/x"] {
            store.put(key, b"v1").unwrap();
        }
        store.put("n/a", b"v2").unwrap(); // an overwrite adds no record
        assert_eq!(agrees(&store), 3);
        store.remove("n/b").unwrap();
        store.remove("n/b").unwrap(); // nor does removing twice take two
        store.remove("never/there").unwrap();
        assert_eq!(agrees(&store), 2);
        store.put("n/b", b"back").unwrap();
        assert_eq!(agrees(&store), 3);
        // a torn write left by a crash is not a record
        std::fs::write(dir.join("torn.tmp"), b"junk").unwrap();
        drop(store);
        let mut store = FileStore::open(&dir).unwrap();
        assert_eq!(agrees(&store), 3);
        store.remove("s/1/x").unwrap();
        assert_eq!(agrees(&store), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_key_encoding_round_trips() {
        let ugly = "s/42/host%with/odd chars";
        let encoded = FileStore::encode(ugly);
        assert!(!encoded.contains('/'));
        assert_eq!(FileStore::decode(&encoded).unwrap(), ugly);
    }

    #[test]
    fn creations_tracked_and_removed() {
        let mut journal = Journal::in_memory();
        let naplet = sample_naplet();
        let id = naplet.id().clone();
        assert!(journal.creation(&id).is_none());
        journal.record_creation(&id, &naplet).unwrap();
        assert_eq!(journal.creations(), vec![id.to_string()]);
        assert_eq!(journal.creation(&id).unwrap().id(), &id);
        journal.remove_creation(&id).unwrap();
        assert!(journal.creations().is_empty());
    }

    #[test]
    fn seen_entries_compacted_by_ttl() {
        let mut journal = Journal::in_memory();
        journal.note_seen("s1", 7, Millis(100), None).unwrap();
        journal
            .note_seen("s2", 9, Millis(500), Some("full"))
            .unwrap();
        assert_eq!(journal.seen().len(), 2);
        let evicted = journal.compact_seen(Millis(700), 300);
        assert_eq!(evicted, 1);
        let left = journal.seen();
        let refused = Some("full".to_string());
        assert_eq!(left, [(("s2".to_string(), 9), Millis(500), refused)]);
    }

    #[test]
    fn lag_counts_only_unretired_naplet_records() {
        let mut journal = Journal::in_memory();
        assert_eq!(journal.lag(), (0, 0));
        let naplet = sample_naplet();
        let id = naplet.id().clone();
        let image = naplet.to_wire().unwrap();
        journal
            .record_naplet_bytes(&id, &image, &JournalPhase::Parked, Millis(1))
            .unwrap();
        journal.record_creation(&id, &naplet).unwrap(); // not lag
        journal.note_seen("s1", 7, Millis(1), None).unwrap(); // not lag
        let (entries, bytes) = journal.lag();
        assert_eq!(entries, 1);
        assert!(bytes > 0, "a journaled agent image has bytes");
        journal.retire(&id).unwrap();
        assert_eq!(journal.lag(), (0, 0));
    }

    #[test]
    fn token_watermark_persists() {
        let mut journal = Journal::in_memory();
        assert_eq!(journal.token_watermark(), 0);
        journal.set_token_watermark(41).unwrap();
        assert_eq!(journal.token_watermark(), 41);
    }

    #[test]
    fn recovery_stats_merge() {
        let mut a = RecoveryStats {
            rehydrated: 1,
            replays_suppressed: 2,
            ..Default::default()
        };
        let b = RecoveryStats {
            rehydrated: 3,
            handoffs_resumed: 1,
            leases_expired: 4,
            orphans_redispatched: 2,
            agents_lost: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rehydrated, 4);
        assert_eq!(a.replays_suppressed, 2);
        assert_eq!(a.handoffs_resumed, 1);
        assert_eq!(a.leases_expired, 4);
        assert_eq!(a.orphans_redispatched, 2);
        assert_eq!(a.agents_lost, 1);
    }
}
