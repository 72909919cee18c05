//! Hierarchical naplet identifiers (paper §2.1, Figure 1).
//!
//! A naplet identifier records **who, when and where** the naplet was
//! created, plus clone-heritage information: a sequence of integers in
//! which `0` is reserved for the originator in each generation. The
//! textual form is
//!
//! ```text
//! user@host:timestamp:h0.h1.h2...
//! ```
//!
//! e.g. `czxu@ece.eng.wayne.edu:010512172720:2.1` — the first clone of
//! the second clone of the original naplet created by `czxu`.
//! Identifiers are immutable for the naplet's whole life cycle, which
//! is what lets [`NapletId`] be a shared handle: every table, frame and
//! event that names a naplet holds a reference to one set of fields
//! instead of its own copy of two strings and a vector.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::clock::Millis;
use crate::error::{NapletError, Result};

/// Immutable, system-wide unique naplet identifier.
///
/// A refcounted handle: `clone` bumps a counter and `==` tries pointer
/// identity first. Ordering, hashing, text form and encoding are those
/// of the four fields, whichever allocation they sit in.
#[derive(Clone)]
pub struct NapletId(Arc<Fields>);

/// What an identifier says; its declaration order is the comparison
/// order and the wire layout.
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
struct Fields {
    user: String,
    home: String,
    created: Millis,
    /// Clone heritage. Empty for an original naplet; each element is
    /// the clone ordinal within its generation, with 0 reserved for
    /// the originator branch (see [`NapletId::clone_child`]).
    heritage: Vec<u32>,
}

impl NapletId {
    /// Create an original (un-cloned) identifier.
    ///
    /// `user` and `home` must be non-empty and must not contain the
    /// reserved separator characters `@`, `:` or whitespace
    /// (`home` may contain dots, as host names do).
    pub fn new(user: &str, home: &str, created: Millis) -> Result<NapletId> {
        NapletId::checked(user, home, created, Vec::new())
    }

    /// An identifier from parts that arrive from outside (a caller, a
    /// parsed string): `user` and `home` are validated.
    fn checked(user: &str, home: &str, created: Millis, heritage: Vec<u32>) -> Result<NapletId> {
        validate_part(user, "user")?;
        validate_part(home, "home host")?;
        Ok(NapletId(Arc::new(Fields {
            user: user.to_string(),
            home: home.to_string(),
            created,
            heritage,
        })))
    }

    /// The member of this identifier's family with the given heritage.
    fn relative(&self, heritage: Vec<u32>) -> NapletId {
        NapletId(Arc::new(Fields {
            user: self.0.user.clone(),
            home: self.0.home.clone(),
            created: self.0.created,
            heritage,
        }))
    }

    /// The creating user ("who").
    pub fn user(&self) -> &str {
        &self.0.user
    }

    /// The home host on which the naplet was created ("where").
    /// The home server is derivable from the id, which is what lets
    /// home NapletManagers provide distributed directory service
    /// (paper §4.1).
    pub fn home(&self) -> &str {
        &self.0.home
    }

    /// Creation timestamp ("when").
    pub fn created(&self) -> Millis {
        self.0.created
    }

    /// Clone heritage sequence (empty for the original).
    pub fn heritage(&self) -> &[u32] {
        &self.0.heritage
    }

    /// True when this id belongs to the original, never-cloned naplet
    /// of its family.
    pub fn is_original(&self) -> bool {
        self.0.heritage.is_empty()
    }

    /// Number of clone generations between this naplet and the family
    /// original.
    pub fn generation(&self) -> usize {
        self.0.heritage.len()
    }

    /// Derive the identifier of the `ordinal`-th clone of this naplet.
    ///
    /// The paper reserves ordinal `0` for "the originator in a
    /// generation": when a naplet clones, the continuing parent is
    /// logically re-identified as `….0` and the `k`-th spawned clone as
    /// `….k` (`k ≥ 1`). Both are produced with this method.
    pub fn clone_child(&self, ordinal: u32) -> NapletId {
        let mut heritage = self.0.heritage.clone();
        heritage.push(ordinal);
        self.relative(heritage)
    }

    /// The parent identifier in the clone tree, or `None` for the
    /// original.
    pub fn parent(&self) -> Option<NapletId> {
        if self.0.heritage.is_empty() {
            return None;
        }
        let mut heritage = self.0.heritage.clone();
        heritage.pop();
        Some(self.relative(heritage))
    }

    /// The family original this naplet descends from.
    pub fn original(&self) -> NapletId {
        self.relative(Vec::new())
    }

    /// True if `self` is an ancestor of `other` in the clone tree
    /// (proper ancestor: `x` is not an ancestor of itself).
    pub fn is_ancestor_of(&self, other: &NapletId) -> bool {
        self.same_family(other)
            && self.0.heritage.len() < other.0.heritage.len()
            && other.0.heritage[..self.0.heritage.len()] == self.0.heritage[..]
    }

    /// True when two ids descend from the same original naplet.
    pub fn same_family(&self, other: &NapletId) -> bool {
        self.0.user == other.0.user
            && self.0.home == other.0.home
            && self.0.created == other.0.created
    }

    /// A short display form for logs: `user@host:…:heritage` with the
    /// timestamp elided.
    pub fn short(&self) -> String {
        if self.0.heritage.is_empty() {
            format!("{}@{}", self.0.user, self.0.home)
        } else {
            format!(
                "{}@{}:{}",
                self.0.user,
                self.0.home,
                Dotted(&self.0.heritage)
            )
        }
    }
}

fn validate_part(s: &str, what: &str) -> Result<()> {
    if s.is_empty() {
        return Err(NapletError::Parse(format!("{what} must be non-empty")));
    }
    if s.chars().any(|c| c == '@' || c == ':' || c.is_whitespace()) {
        return Err(NapletError::Parse(format!(
            "{what} `{s}` contains a reserved character (@, : or whitespace)"
        )));
    }
    Ok(())
}

/// A heritage in its dotted text form, `h0.h1.h2`.
struct Dotted<'a>(&'a [u32]);

impl fmt::Display for Dotted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ordinal) in self.0.iter().enumerate() {
            let dot = if i == 0 { "" } else { "." };
            write!(f, "{dot}{ordinal}")?;
        }
        Ok(())
    }
}

impl fmt::Display for NapletId {
    /// Canonical textual form: `user@host:timestamp[:h0.h1...]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.0.user, self.0.home, self.0.created.0)?;
        if !self.0.heritage.is_empty() {
            write!(f, ":{}", Dotted(&self.0.heritage))?;
        }
        Ok(())
    }
}

impl FromStr for NapletId {
    type Err = NapletError;

    fn from_str(s: &str) -> Result<NapletId> {
        let (user, rest) = s
            .split_once('@')
            .ok_or_else(|| NapletError::Parse(format!("missing `@` in naplet id `{s}`")))?;
        let mut parts = rest.split(':');
        let home = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| NapletError::Parse(format!("missing home host in `{s}`")))?;
        let ts_part = parts
            .next()
            .ok_or_else(|| NapletError::Parse(format!("missing timestamp in `{s}`")))?;
        let created = Millis(
            ts_part
                .parse::<u64>()
                .map_err(|_| NapletError::Parse(format!("bad timestamp `{ts_part}` in `{s}`")))?,
        );
        let heritage = match parts.next() {
            None | Some("") => Vec::new(),
            Some(h) => h
                .split('.')
                .map(|seg| {
                    seg.parse::<u32>().map_err(|_| {
                        NapletError::Parse(format!("bad heritage segment `{seg}` in `{s}`"))
                    })
                })
                .collect::<Result<Vec<u32>>>()?,
        };
        if parts.next().is_some() {
            return Err(NapletError::Parse(format!(
                "too many `:` sections in `{s}`"
            )));
        }
        NapletId::checked(user, home, created, heritage)
    }
}

impl PartialEq for NapletId {
    /// Same handle, else same fields — the cheap ones first, since ids
    /// of one run mostly share `user` and `home` and differ in these.
    fn eq(&self, other: &NapletId) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.created == other.0.created
                && self.0.heritage == other.0.heritage
                && self.0.user == other.0.user
                && self.0.home == other.0.home)
    }
}

impl Eq for NapletId {}

impl PartialOrd for NapletId {
    fn partial_cmp(&self, other: &NapletId) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NapletId {
    fn cmp(&self, other: &NapletId) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl Hash for NapletId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for NapletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NapletId")
            .field("user", &self.0.user)
            .field("home", &self.0.home)
            .field("created", &self.0.created)
            .field("heritage", &self.0.heritage)
            .finish()
    }
}

// napcode frames no struct, so delegating to the fields keeps the bytes
// a four-field `NapletId` always had
impl Serialize for NapletId {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for NapletId {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<NapletId, D::Error> {
        Fields::deserialize(deserializer).map(|fields| NapletId(Arc::new(fields)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> NapletId {
        NapletId::new("czxu", "ece.eng.wayne.edu", Millis(10512172720)).unwrap()
    }

    #[test]
    fn paper_example_displays() {
        // the Figure 1 example: czxu@ece.eng.wayne.edu:010512172720:2.1
        let id = base().clone_child(2).clone_child(1);
        assert_eq!(id.to_string(), "czxu@ece.eng.wayne.edu:10512172720:2.1");
        assert_eq!(id.generation(), 2);
    }

    #[test]
    fn parse_round_trip() {
        for s in [
            "czxu@ece.eng.wayne.edu:10512172720",
            "czxu@ece:1:0",
            "a@b:0:2.1.0.7",
            "user-1@host_2:999999999999:0.0.0",
        ] {
            let id: NapletId = s.parse().unwrap();
            assert_eq!(id.to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "",
            "czxu",
            "czxu@",
            "@host:1",
            "czxu@host",
            "czxu@host:abc",
            "czxu@host:1:x",
            "czxu@host:1:2.",
            "czxu@host:1:2:3",
            "cz xu@host:1",
            "czxu@ho st:1",
            "czxu@host:1:-2",
        ] {
            assert!(s.parse::<NapletId>().is_err(), "should reject `{s}`");
        }
    }

    #[test]
    fn reserved_characters_rejected_at_creation() {
        assert!(NapletId::new("a@b", "h", Millis(0)).is_err());
        assert!(NapletId::new("a", "h:1", Millis(0)).is_err());
        assert!(NapletId::new("", "h", Millis(0)).is_err());
    }

    #[test]
    fn heritage_tree_relations() {
        let root = base();
        let continuing = root.clone_child(0); // originator branch
        let clone2 = root.clone_child(2);
        let clone21 = clone2.clone_child(1);

        assert!(root.is_original());
        assert!(!clone2.is_original());
        assert_eq!(clone21.parent().unwrap(), clone2);
        assert_eq!(clone2.parent().unwrap(), root);
        assert_eq!(root.parent(), None);
        assert_eq!(clone21.original(), root);

        assert!(root.is_ancestor_of(&clone21));
        assert!(clone2.is_ancestor_of(&clone21));
        assert!(!clone21.is_ancestor_of(&clone2));
        assert!(!root.is_ancestor_of(&root));
        assert!(!continuing.is_ancestor_of(&clone21));
        assert!(root.same_family(&clone21));
    }

    #[test]
    fn different_creations_are_different_families() {
        let a = NapletId::new("u", "h", Millis(1)).unwrap();
        let b = NapletId::new("u", "h", Millis(2)).unwrap();
        assert!(!a.same_family(&b));
        assert!(!a.is_ancestor_of(&b.clone_child(1)));
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let root = base();
        set.insert(root.clone());
        set.insert(root.clone_child(0));
        set.insert(root.clone_child(1));
        set.insert(root.clone_child(1)); // duplicate
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn short_form() {
        assert_eq!(base().short(), "czxu@ece.eng.wayne.edu");
        assert_eq!(base().clone_child(3).short(), "czxu@ece.eng.wayne.edu:3");
    }

    #[test]
    fn codec_round_trip() {
        let id = base().clone_child(4).clone_child(0);
        let bytes = crate::codec::to_bytes(&id).unwrap();
        let back: NapletId = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, id);
    }

    /// The handle is invisible on the wire: an id encodes as its four
    /// fields in order, whether built, cloned or decoded.
    #[test]
    fn encodes_as_the_plain_four_fields() {
        use crate::codec::to_bytes;
        let id = base().clone_child(4).clone_child(0);
        let mut golden = vec![4];
        golden.extend(b"czxu");
        golden.push(17);
        golden.extend(b"ece.eng.wayne.edu");
        golden.extend([0xb0, 0x8d, 0xcc, 0x94, 0x27]); // 10512172720
        golden.extend([2, 4, 0]);
        let fields = ("czxu", "ece.eng.wayne.edu", 10512172720u64, vec![4u32, 0]);
        assert_eq!(to_bytes(&fields).unwrap(), golden);
        assert_eq!(to_bytes(&id).unwrap(), golden);
        assert_eq!(to_bytes(&id.clone()).unwrap(), golden);
        let decoded: NapletId = crate::codec::from_bytes(&golden).unwrap();
        assert_eq!(to_bytes(&decoded).unwrap(), golden);
        // an original's heritage is the empty sequence
        golden.truncate(golden.len() - 3);
        golden.push(0);
        assert_eq!(to_bytes(&base()).unwrap(), golden);
    }

    #[test]
    fn equality_is_by_content_across_allocations() {
        let a = base().clone_child(1);
        let b: NapletId = a.to_string().parse().unwrap();
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_ne!(a, base().clone_child(2));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(format!("{a:?}").starts_with("NapletId { user: \"czxu\", "));
    }

    #[test]
    fn ids_cross_threads() {
        fn shareable<T: Send + Sync>() {}
        shareable::<NapletId>();
    }
}
