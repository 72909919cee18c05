//! # naplet-core
//!
//! Core agent model of **Naplet-RS**, a Rust reproduction of
//! *"Naplet: A Flexible Mobile Agent Framework for Network-Centric
//! Applications"* (Cheng-Zhong Xu, IPPS 2002).
//!
//! This crate contains everything an agent *carries*: its hierarchical
//! identifier, credential, protected state container, structured
//! itinerary with traversal cursor, address book and navigation log —
//! plus the traits the hosting environment implements (execution
//! context, behaviours, operable post-actions), the lazy code-loading
//! registry, the wire codec and a shared dynamic value type.
//!
//! Server-side machinery (navigator, messenger, locator, monitor, …)
//! lives in `naplet-server`; the mobile-code VM in `naplet-vm`; the
//! metered network fabric in `naplet-net`.
//!
//! ## Quick tour
//!
//! ```
//! use naplet_core::clock::Millis;
//! use naplet_core::credential::SigningKey;
//! use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern, Step};
//! use naplet_core::naplet::{AgentKind, Naplet};
//!
//! let key = SigningKey::new("czxu", b"campus-secret");
//! let itinerary = Itinerary::new(Pattern::seq_of_hosts(&["s1", "s2"], None))
//!     .unwrap()
//!     .with_final_action(ActionSpec::ReportHome);
//!
//! let mut naplet = Naplet::create(
//!     &key, "czxu", "home.host", Millis(0),
//!     "naplet://code/demo.jar", AgentKind::Native, itinerary, vec![],
//! ).unwrap();
//!
//! // the itinerary directs travel; the server enacts it
//! match naplet.advance() {
//!     Step::Visit { host, .. } => assert_eq!(host, "s1"),
//!     other => panic!("unexpected step {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

// the derived codec impls name `::naplet_core::codec`, here as everywhere
extern crate self as naplet_core;

pub mod address_book;
pub mod behavior;
pub mod clock;
pub mod codebase;
pub mod codec;
pub mod context;
pub mod credential;
pub mod error;
pub mod id;
pub mod itinerary;
pub mod message;
pub mod naplet;
pub mod navlog;
pub mod state;
pub mod tracectx;
pub mod value;

pub use address_book::{AddressBook, AddressEntry};
pub use behavior::{ActionRegistry, NapletBehavior, Operable};
pub use clock::{Clock, Millis};
pub use codebase::{CodeCache, CodebaseRegistry};
pub use context::{LocalContext, NapletContext};
pub use credential::{Credential, SigningKey};
pub use error::{NapletError, Result};
pub use id::NapletId;
pub use itinerary::{ActionSpec, Cursor, Guard, GuardEnv, Itinerary, Pattern, Step, Visit};
pub use message::{ControlVerb, Mailbox, Message, Payload, Sender};
pub use naplet::{AgentKind, Naplet};
pub use navlog::{NavigationLog, VisitRecord};
pub use state::{Access, NapletState, ServerStateView};
pub use value::Value;
