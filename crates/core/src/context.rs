//! The naplet execution context (paper §2.1).
//!
//! "The naplet executes in a confined environment, defined by its
//! `NapletContext` object. The context object provides references to
//! dispatch proxy, message, and stationary application services on the
//! server. The context object is a transient attribute and is to be set
//! by a resource manager on the arrival of the naplet. It can't be
//! serialized for migration."
//!
//! [`NapletContext`] is therefore a *trait*, implemented by the run
//! context of the hosting server's sandbox and handed to the
//! behaviour's lifecycle hooks. It is never part of the serialized naplet. A self-contained
//! [`LocalContext`] implementation backs unit tests and single-host
//! examples.

use crate::address_book::AddressBook;
use crate::clock::Millis;
use crate::error::{NapletError, Result};
use crate::id::NapletId;
use crate::message::Message;
use crate::state::NapletState;
use crate::value::Value;

/// Server-provided capabilities available to a running naplet.
///
/// Everything a behaviour can do on a host flows through this trait:
/// state, messaging, services (open and privileged), reporting home.
/// Travel and cloning are *not* here — they are directed by the
/// itinerary cursor and enacted by the server between visits, which is
/// exactly the separation of business logic from travel the paper
/// builds §3 around.
pub trait NapletContext {
    /// Name of the host this naplet currently executes on.
    fn host_name(&self) -> &str;

    /// The executing naplet's identifier.
    fn naplet_id(&self) -> &NapletId;

    /// Full (naplet-side) access to the carried state container.
    fn state(&mut self) -> &mut NapletState;

    /// The naplet's address book.
    fn address_book(&mut self) -> &mut AddressBook;

    /// Post a user message to a peer naplet through the server's
    /// Messenger. The peer must be present in the address book.
    fn post_message(&mut self, to: &NapletId, body: Value) -> Result<()>;

    /// Take the oldest waiting message from this naplet's mailbox,
    /// if any. Non-blocking: "it is the naplet that decides when to
    /// check its mailbox".
    fn get_message(&mut self) -> Result<Option<Message>>;

    /// Invoke a *non-privileged* (open) service registered on this
    /// server, by handler name (paper §2.2).
    fn call_service(&mut self, name: &str, args: Value) -> Result<Value>;

    /// Request a service channel to a *privileged* service: write a
    /// request down the channel and read the reply. One call models
    /// one `NapletWriter.writeLine` / `NapletReader.readLine` exchange
    /// over the synchronous pipe pair (paper §5.3). Repeated calls
    /// reuse the channel.
    fn channel_exchange(&mut self, service: &str, request: Value) -> Result<Value>;

    /// Report a result back to the owner's `NapletListener` at home.
    fn report_home(&mut self, body: Value) -> Result<()>;

    /// Current time on the server's clock.
    fn now(&self) -> Millis;

    /// Append a line to the naplet's execution log (diagnostics).
    fn log(&mut self, line: &str);
}

/// A minimal in-memory context for unit tests and single-host use:
/// services are closures, messages loop back into the own mailbox
/// queue, reports are collected.
pub struct LocalContext {
    host: String,
    id: NapletId,
    /// Carried naplet state.
    pub state: NapletState,
    /// Carried address book.
    pub address_book: AddressBook,
    /// Messages "sent" (captured for assertions).
    pub sent: Vec<(NapletId, Value)>,
    /// Incoming mailbox (push messages here in tests).
    pub inbox: Vec<Message>,
    /// Reports delivered home.
    pub reports: Vec<Value>,
    /// Captured log lines.
    pub log_lines: Vec<String>,
    clock: crate::clock::Clock,
    services: std::collections::HashMap<String, Box<dyn FnMut(Value) -> Result<Value> + Send>>,
    channels: std::collections::HashMap<String, Box<dyn FnMut(Value) -> Result<Value> + Send>>,
}

impl LocalContext {
    /// New local context for `id` pretending to run on `host`.
    pub fn new(host: &str, id: NapletId) -> LocalContext {
        LocalContext {
            host: host.to_string(),
            id,
            state: NapletState::new(),
            address_book: AddressBook::new(),
            sent: Vec::new(),
            inbox: Vec::new(),
            reports: Vec::new(),
            log_lines: Vec::new(),
            clock: crate::clock::Clock::virtual_at(Millis(0)),
            services: Default::default(),
            channels: Default::default(),
        }
    }

    /// Register an open service backed by a closure.
    pub fn register_service(
        &mut self,
        name: &str,
        f: impl FnMut(Value) -> Result<Value> + Send + 'static,
    ) {
        self.services.insert(name.to_string(), Box::new(f));
    }

    /// Register a privileged service backed by a closure.
    pub fn register_channel(
        &mut self,
        name: &str,
        f: impl FnMut(Value) -> Result<Value> + Send + 'static,
    ) {
        self.channels.insert(name.to_string(), Box::new(f));
    }

    /// The clock driving [`NapletContext::now`].
    pub fn clock(&self) -> &crate::clock::Clock {
        &self.clock
    }
}

impl NapletContext for LocalContext {
    fn host_name(&self) -> &str {
        &self.host
    }
    fn naplet_id(&self) -> &NapletId {
        &self.id
    }
    fn state(&mut self) -> &mut NapletState {
        &mut self.state
    }
    fn address_book(&mut self) -> &mut AddressBook {
        &mut self.address_book
    }
    fn post_message(&mut self, to: &NapletId, body: Value) -> Result<()> {
        if !self.address_book.knows(to) {
            return Err(NapletError::Communication(format!(
                "peer {to} not in address book"
            )));
        }
        self.sent.push((to.clone(), body));
        Ok(())
    }
    fn get_message(&mut self) -> Result<Option<Message>> {
        if self.inbox.is_empty() {
            Ok(None)
        } else {
            Ok(Some(self.inbox.remove(0)))
        }
    }
    fn call_service(&mut self, name: &str, args: Value) -> Result<Value> {
        match self.services.get_mut(name) {
            Some(f) => f(args),
            None => Err(NapletError::Service(format!("no open service `{name}`"))),
        }
    }
    fn channel_exchange(&mut self, service: &str, request: Value) -> Result<Value> {
        match self.channels.get_mut(service) {
            Some(f) => f(request),
            None => Err(NapletError::Service(format!(
                "no privileged service `{service}`"
            ))),
        }
    }
    fn report_home(&mut self, body: Value) -> Result<()> {
        self.reports.push(body);
        Ok(())
    }
    fn now(&self) -> Millis {
        self.clock.now()
    }
    fn log(&mut self, line: &str) {
        self.log_lines.push(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Sender;

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "h", Millis(n)).unwrap()
    }

    #[test]
    fn services_dispatch_by_name() {
        let mut ctx = LocalContext::new("s1", nid(1));
        ctx.register_service("math.double", |v| Ok(Value::Int(v.as_int()? * 2)));
        assert_eq!(
            ctx.call_service("math.double", Value::Int(21)).unwrap(),
            Value::Int(42)
        );
        assert!(ctx.call_service("nope", Value::Nil).is_err());
    }

    #[test]
    fn channel_exchange_dispatches() {
        let mut ctx = LocalContext::new("s1", nid(1));
        ctx.register_channel("serviceImpl.NetManagement", |req| {
            Ok(Value::map([("echo", req)]))
        });
        let reply = ctx
            .channel_exchange("serviceImpl.NetManagement", Value::from("sysUpTime"))
            .unwrap();
        assert_eq!(reply.get("echo"), Value::from("sysUpTime"));
        assert!(ctx.channel_exchange("other", Value::Nil).is_err());
    }

    #[test]
    fn messaging_requires_address_book_entry() {
        let mut ctx = LocalContext::new("s1", nid(1));
        let peer = nid(2);
        assert!(ctx.post_message(&peer, Value::Nil).is_err());
        ctx.address_book.put(peer.clone(), "s2");
        ctx.post_message(&peer, Value::Int(5)).unwrap();
        assert_eq!(ctx.sent.len(), 1);
    }

    #[test]
    fn mailbox_and_reports() {
        let mut ctx = LocalContext::new("s1", nid(1));
        assert!(ctx.get_message().unwrap().is_none());
        ctx.inbox.push(Message::user(
            0,
            Sender::Owner("home".into()),
            nid(1),
            Millis(0),
            Value::Int(9),
        ));
        let m = ctx.get_message().unwrap().unwrap();
        assert_eq!(m.payload, crate::message::Payload::User(Value::Int(9)));
        ctx.report_home(Value::from("done")).unwrap();
        assert_eq!(ctx.reports, vec![Value::from("done")]);
    }

    #[test]
    fn state_and_log_accessible() {
        let mut ctx = LocalContext::new("s1", nid(1));
        ctx.state().set("k", 1i64);
        assert_eq!(ctx.state().get("k"), Value::Int(1));
        ctx.log("visited");
        assert_eq!(ctx.log_lines, vec!["visited"]);
        assert_eq!(ctx.host_name(), "s1");
        assert_eq!(ctx.naplet_id(), &nid(1));
    }
}
