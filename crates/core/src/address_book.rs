//! Address books for inter-naplet communication (paper §2.1).
//!
//! Each naplet carries an `AddressBook`: a set of naplet identifiers
//! with their *initial* (home or last-known) locations. Locations may
//! be stale — they are hints that seed tracing and location (§4.1) —
//! but every entry provides at least one residing server to start a
//! forwarding chase from. The book grows as the naplet learns about
//! peers, and it is inherited (and extended) on clone. The framework
//! restricts communication to naplets whose identifiers appear in the
//! sender's book.

use crate::codec::{Decode, Encode};

use crate::id::NapletId;

/// One address book entry: a peer naplet and a location hint.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct AddressEntry {
    /// The peer's identifier.
    pub naplet_id: NapletId,
    /// A server the peer was last known to reside on (possibly stale).
    pub server: String,
}

/// The communication directory a naplet carries.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode, Default)]
pub struct AddressBook {
    entries: Vec<AddressEntry>,
}

impl AddressBook {
    /// An empty book.
    pub fn new() -> AddressBook {
        AddressBook::default()
    }

    /// Insert or update the location hint for a peer. Returns `true`
    /// when the peer was new to the book.
    pub fn put(&mut self, naplet_id: NapletId, server: impl Into<String>) -> bool {
        let server = server.into();
        match self.entries.iter_mut().find(|e| e.naplet_id == naplet_id) {
            Some(entry) => {
                entry.server = server;
                false
            }
            None => {
                self.entries.push(AddressEntry { naplet_id, server });
                true
            }
        }
    }

    /// Look up the location hint for a peer.
    pub fn lookup(&self, naplet_id: &NapletId) -> Option<&AddressEntry> {
        self.entries.iter().find(|e| &e.naplet_id == naplet_id)
    }

    /// True when the peer is known — the precondition the framework
    /// imposes on sending a message to it.
    pub fn knows(&self, naplet_id: &NapletId) -> bool {
        self.lookup(naplet_id).is_some()
    }

    /// Remove a peer, returning whether it was present.
    pub fn remove(&mut self, naplet_id: &NapletId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| &e.naplet_id != naplet_id);
        self.entries.len() != before
    }

    /// Iterate all entries (the `DataComm` collective pattern in the
    /// paper's Example 2 walks the book exactly like this).
    pub fn iter(&self) -> impl Iterator<Item = &AddressEntry> {
        self.entries.iter()
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no peers are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another book into this one (peer entries from `other`
    /// overwrite stale hints here). Used when a clone's discoveries are
    /// folded back into its parent, and when a book is inherited.
    pub fn merge(&mut self, other: &AddressBook) {
        for e in &other.entries {
            self.put(e.naplet_id.clone(), e.server.clone());
        }
    }

    /// The book a clone inherits: the parent's entries plus the parent
    /// itself at its current server, so siblings can always reach the
    /// originator branch.
    pub fn inherited(&self, parent: &NapletId, parent_server: &str) -> AddressBook {
        let mut book = self.clone();
        book.put(parent.clone(), parent_server);
        book
    }
}

impl<'a> IntoIterator for &'a AddressBook {
    type Item = &'a AddressEntry;
    type IntoIter = std::slice::Iter<'a, AddressEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Millis;

    fn nid(user: &str, n: u64) -> NapletId {
        NapletId::new(user, "host", Millis(n)).unwrap()
    }

    #[test]
    fn put_lookup_update() {
        let mut book = AddressBook::new();
        assert!(book.put(nid("a", 1), "s1"));
        assert!(book.put(nid("b", 2), "s2"));
        assert!(!book.put(nid("a", 1), "s9")); // update, not insert
        assert_eq!(book.len(), 2);
        assert_eq!(book.lookup(&nid("a", 1)).unwrap().server, "s9");
        assert!(book.knows(&nid("b", 2)));
        assert!(!book.knows(&nid("c", 3)));
    }

    #[test]
    fn remove() {
        let mut book = AddressBook::new();
        book.put(nid("a", 1), "s1");
        assert!(book.remove(&nid("a", 1)));
        assert!(!book.remove(&nid("a", 1)));
        assert!(book.is_empty());
    }

    #[test]
    fn merge_overwrites_stale_hints() {
        let mut a = AddressBook::new();
        a.put(nid("x", 1), "old");
        a.put(nid("y", 2), "keep");
        let mut b = AddressBook::new();
        b.put(nid("x", 1), "new");
        b.put(nid("z", 3), "add");
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.lookup(&nid("x", 1)).unwrap().server, "new");
        assert_eq!(a.lookup(&nid("y", 2)).unwrap().server, "keep");
    }

    #[test]
    fn clone_inheritance_includes_parent() {
        let mut parent_book = AddressBook::new();
        parent_book.put(nid("peer", 9), "sp");
        let parent = nid("czxu", 1);
        let child_book = parent_book.inherited(&parent, "current-server");
        assert!(child_book.knows(&parent));
        assert!(child_book.knows(&nid("peer", 9)));
        assert_eq!(child_book.lookup(&parent).unwrap().server, "current-server");
        // the parent book itself is untouched
        assert!(!parent_book.knows(&parent));
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mut book = AddressBook::new();
        book.put(nid("a", 1), "s1");
        book.put(nid("b", 2), "s2");
        let names: Vec<&str> = book.iter().map(|e| e.naplet_id.user()).collect();
        assert_eq!(names, ["a", "b"]);
        let count = (&book).into_iter().count();
        assert_eq!(count, 2);
    }

    #[test]
    fn codec_round_trip() {
        let mut book = AddressBook::new();
        book.put(nid("a", 1), "s1");
        let bytes = crate::codec::to_bytes(&book).unwrap();
        let back: AddressBook = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, book);
    }
}
