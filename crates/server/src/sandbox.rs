//! The sandbox: the one place agent code runs (paper §5.2).
//!
//! "On receiving a naplet, the monitor creates a NapletThread object
//! and a thread group for the execution of the naplet." Here that
//! thread is [`Sandbox::run`]. A [`Sandbox`] is a borrowed view over
//! exactly what agent code may reach on this host — the resource
//! manager's services and channels, the security policy, the two code
//! registries, the monitor's policy — and `run` is handed one agent,
//! its mailbox and its [`Meter`] and told [`What`] to execute. The
//! agent sees the host only through the `NapletContext` built here;
//! whatever it asks of the rest of the server (posts, reports, log
//! lines) comes back as [`Effects`] for the caller to enact.
//!
//! Budgets are charged where the code runs: gas per VM slice (or the
//! modelled dwell of a native `on_start`), memory after a visit, and
//! every post against the meter's bandwidth total — the first post
//! over the budget and all after it are dropped and counted, reports
//! and log lines still flow. This module names no output, sink, record
//! store or other component, so it is tested with a resource manager,
//! a security manager and two registries and nothing else.

use naplet_core::behavior::ActionRegistry;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::itinerary::ActionSpec;
use naplet_core::message::{ControlVerb, Mailbox, Message, Payload};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_vm::{ContextVmHost, VmImage, VmStatus, VmYield};

use crate::monitor::{Meter, MonitorPolicy, NapletMonitor, Priority};
use crate::resources::ResourceManager;
use crate::security::{Permission, SecurityManager};

/// Which piece of agent code to run.
#[derive(Debug)]
pub enum What<'a> {
    /// A visit's business logic — a native `on_start`, or VM slices
    /// until the program travels or finishes — then the visit's
    /// post-action, if it has one. Gas is charged against the visit
    /// budget of the credential's priority tier; the memory budget is
    /// checked afterwards.
    Visit(Option<&'a ActionSpec>),
    /// The itinerary is over: a VM agent parked at `travel_next`
    /// learns so (nil) and runs on to report and halt, under one flat
    /// visit budget; asking to travel again ends the run. Nothing to
    /// do for a native agent.
    FinalSlice,
    /// A pattern-level action, run between visits.
    Action(&'a ActionSpec),
    /// The creator-defined `on_interrupt` for a control verb cast onto
    /// a native agent (a VM agent has no such hook).
    Interrupt(&'a ControlVerb),
    /// A native agent's `on_destroy`, its last word on this host.
    Destroy,
}

/// How a run that did not fail left off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOutcome {
    /// A VM program ran to completion: the agent is done whatever
    /// itinerary remains.
    pub program_done: bool,
    /// Modelled execution time of a visit: the policy's dwell for a
    /// native agent, the gas the meter holds for a VM one.
    pub dwell_ms: u64,
}

/// What the agent asked of the rest of the server, each kind in call
/// order.
#[derive(Debug, Default, PartialEq)]
pub struct Effects {
    /// Messages to post: (target, the address book's location hint,
    /// body). Only what the bandwidth budget admitted.
    pub posts: Vec<(NapletId, String, Value)>,
    /// Posts the bandwidth budget dropped.
    pub over_budget: u64,
    /// Reports for the owner's listener at home.
    pub reports: Vec<Value>,
    /// Lines the agent logged, as it wrote them.
    pub logs: Vec<String>,
}

/// What agent code may touch on this host, for the length of one run.
pub struct Sandbox<'a> {
    /// This host's name.
    pub host: &'a str,
    /// The server clock's reading.
    pub now: Millis,
    /// Naplets resident here besides the one about to run (priority
    /// sharing stretches a low-tier dwell by the load).
    pub co_residents: usize,
    /// Open services, and privileged ones behind channels.
    pub resources: &'a mut ResourceManager,
    /// The policy every service call, channel and post is checked
    /// against.
    pub security: &'a SecurityManager,
    /// Native behaviours by codebase.
    pub codebase: &'a CodebaseRegistry,
    /// Named post-actions.
    pub actions: &'a ActionRegistry,
    /// The budgets.
    pub policy: &'a MonitorPolicy,
}

impl Sandbox<'_> {
    /// Run `what` for `agent`, charging `meter`. Returns how the code
    /// left off — or why it failed — and, either way, everything it
    /// emitted up to that point.
    pub fn run(
        self,
        agent: &mut Naplet,
        mailbox: &mut Mailbox,
        meter: &mut Meter,
        what: What<'_>,
    ) -> (Result<ExecOutcome>, Effects) {
        let policy = self.policy;
        let mut ctx = RunCtx {
            on: self,
            naplet: agent,
            mailbox,
            effects: Effects::default(),
        };
        let result = ctx.exec(meter, what);
        let mut effects = ctx.effects;
        let over = effects.posts.iter().position(|post| {
            let bytes = naplet_core::codec::encoded_size(&post.2).unwrap_or(0);
            meter.charge_msg_bytes(policy, bytes).is_err()
        });
        if let Some(kept) = over {
            effects.over_budget = (effects.posts.len() - kept) as u64;
            effects.posts.truncate(kept);
        }
        (result, effects)
    }
}

/// The transient run context handed to agent code (paper §2.1: set by
/// the resource manager on arrival; never serialized).
struct RunCtx<'a> {
    on: Sandbox<'a>,
    naplet: &'a mut Naplet,
    mailbox: &'a mut Mailbox,
    effects: Effects,
}

impl RunCtx<'_> {
    fn exec(&mut self, meter: &mut Meter, what: What<'_>) -> Result<ExecOutcome> {
        let (policy, actions) = (self.on.policy, self.on.actions);
        match (what, self.naplet.kind()) {
            (What::Visit(then), kind) => {
                let priority = Priority::of(self.naplet.credential());
                let budget = policy.gas_budget_for(priority);
                let outcome = match kind {
                    AgentKind::Native => {
                        let mut behavior = self.on.codebase.instantiate(self.naplet.codebase())?;
                        let dwell_ms = policy.dwell_for(priority, self.on.co_residents + 1);
                        meter.charge_gas(budget, dwell_ms * policy.gas_per_ms)?;
                        behavior.on_start(self)?;
                        ExecOutcome {
                            program_done: false,
                            dwell_ms,
                        }
                    }
                    AgentKind::Vm(bytes) => {
                        let mut image = VmImage::from_wire(bytes)?;
                        let host = self.on.host;
                        let outcome = self.vm_slices(&mut image, Some(host), meter, budget)?;
                        // persist execution progress into the carried image
                        *self.naplet.kind_mut() = AgentKind::Vm(image.to_wire()?);
                        let extra = image.memory_footprint();
                        NapletMonitor::check_memory(self.naplet, policy, extra)?;
                        outcome
                    }
                };
                // the visit's post-action T
                if let Some(action) = then {
                    run_action(actions, action, self)?;
                }
                NapletMonitor::check_memory(self.naplet, policy, 0)?;
                return Ok(outcome);
            }
            (What::FinalSlice, AgentKind::Vm(bytes)) => {
                let mut image = VmImage::from_wire(bytes)?;
                return self.vm_slices(&mut image, None, meter, policy.max_gas_per_visit);
            }
            (What::Action(action), _) => run_action(actions, action, self)?,
            (What::Interrupt(verb), AgentKind::Native) => {
                let mut behavior = self.on.codebase.instantiate(self.naplet.codebase())?;
                behavior.on_interrupt(self, verb)?;
            }
            (What::Destroy, AgentKind::Native) => {
                let mut behavior = self.on.codebase.instantiate(self.naplet.codebase())?;
                behavior.on_destroy(self)?;
            }
            (What::FinalSlice, AgentKind::Native)
            | (What::Interrupt(_) | What::Destroy, AgentKind::Vm(_)) => {}
        }
        // a hook or an action has no outcome to speak of
        Ok(ExecOutcome::default())
    }

    /// Strong mobility, host side: resolve the image's pending
    /// `travel_next` to `arrived_at` (this host, or nil once the
    /// journey is over), then run it a gas slice at a time, charging
    /// each slice to the meter against `budget`, until the program
    /// asks to travel or finishes.
    fn vm_slices(
        &mut self,
        image: &mut VmImage,
        arrived_at: Option<&str>,
        meter: &mut Meter,
        budget: u64,
    ) -> Result<ExecOutcome> {
        if image.status == VmStatus::AwaitingTravel {
            image.resume_after_travel(arrived_at)?;
        }
        let policy = self.on.policy;
        let hops = self.naplet.nav_log.hops();
        let program_done = loop {
            let before = image.gas_used;
            let mut host_if = ContextVmHost::new(self, hops);
            let yielded = naplet_vm::run(image, &mut host_if, policy.gas_slice)?;
            meter.charge_gas(budget, image.gas_used - before)?;
            match yielded {
                VmYield::OutOfGas => continue,
                VmYield::Travel => break false,
                VmYield::Done(_) => break true,
            }
        };
        Ok(ExecOutcome {
            program_done,
            dwell_ms: NapletMonitor::gas_to_ms(policy, meter.gas.max(1)),
        })
    }
}

impl NapletContext for RunCtx<'_> {
    fn host_name(&self) -> &str {
        self.on.host
    }
    fn naplet_id(&self) -> &NapletId {
        self.naplet.id()
    }
    fn state(&mut self) -> &mut naplet_core::state::NapletState {
        &mut self.naplet.state
    }
    fn address_book(&mut self) -> &mut naplet_core::address_book::AddressBook {
        &mut self.naplet.address_book
    }
    fn post_message(&mut self, to: &NapletId, body: Value) -> Result<()> {
        self.on
            .security
            .check(self.naplet.credential(), Permission::Messaging)?;
        let entry =
            self.naplet.address_book.lookup(to).ok_or_else(|| {
                NapletError::Communication(format!("peer {to} not in address book"))
            })?;
        self.effects
            .posts
            .push((to.clone(), entry.server.clone(), body));
        Ok(())
    }
    fn get_message(&mut self) -> Result<Option<Message>> {
        Ok(self.mailbox.take())
    }
    fn call_service(&mut self, name: &str, args: Value) -> Result<Value> {
        self.on
            .resources
            .call_open(self.on.security, self.naplet.credential(), name, args)
    }
    fn channel_exchange(&mut self, service: &str, request: Value) -> Result<Value> {
        let (id, cred) = (self.naplet.id(), self.naplet.credential());
        self.on
            .resources
            .channel_exchange(self.on.security, cred, id, service, request)
    }
    fn report_home(&mut self, body: Value) -> Result<()> {
        self.effects.reports.push(body);
        Ok(())
    }
    fn now(&self) -> Millis {
        self.on.now
    }
    fn log(&mut self, line: &str) {
        self.effects.logs.push(line.to_string());
    }
}

/// Execute one itinerary post-action.
fn run_action(
    registry: &ActionRegistry,
    action: &ActionSpec,
    ctx: &mut dyn NapletContext,
) -> Result<()> {
    match action {
        ActionSpec::ReportHome => {
            // report the naplet's whole public+private view of state:
            // the conventional ResultReport sends gathered data home
            let mut snapshot = std::collections::BTreeMap::new();
            let keys: Vec<String> = ctx.state().keys().map(str::to_string).collect();
            for k in keys {
                snapshot.insert(k.clone(), ctx.state().get(&k));
            }
            ctx.report_home(Value::Map(snapshot))
        }
        ActionSpec::DataComm => {
            // the paper's collective operator: post own latest data to
            // every peer in the address book, then drain whatever has
            // already arrived into state["datacomm.received"]
            let payload = ctx.state().get("datacomm");
            let peers: Vec<NapletId> = ctx
                .address_book()
                .iter()
                .map(|e| e.naplet_id.clone())
                .collect();
            for peer in peers {
                // ignore transient failures, as the paper's example does
                let _ = ctx.post_message(&peer, payload.clone());
            }
            let mut received = match ctx.state().get("datacomm.received") {
                Value::List(l) => l,
                _ => Vec::new(),
            };
            while let Some(m) = ctx.get_message()? {
                if let Payload::User(v) = m.payload {
                    received.push(v);
                }
            }
            ctx.state().set("datacomm.received", Value::List(received));
            Ok(())
        }
        ActionSpec::Named(name) => registry.get(name)?.operate(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_core::behavior::NapletBehavior;
    use naplet_core::credential::SigningKey;
    use naplet_core::itinerary::{Itinerary, Pattern};
    use naplet_vm::assemble;

    use crate::security::Policy;

    /// Everything a run borrows — and no server.
    struct Host {
        resources: ResourceManager,
        security: SecurityManager,
        codebase: CodebaseRegistry,
        actions: ActionRegistry,
        policy: MonitorPolicy,
    }

    impl Host {
        fn new() -> Host {
            Host {
                resources: ResourceManager::new(),
                security: SecurityManager::open(),
                codebase: CodebaseRegistry::new(),
                actions: ActionRegistry::new(),
                policy: MonitorPolicy::default(),
            }
        }

        fn run(
            &mut self,
            agent: &mut Naplet,
            meter: &mut Meter,
            what: What<'_>,
        ) -> (Result<ExecOutcome>, Effects) {
            let sandbox = Sandbox {
                host: "s0",
                now: Millis(7),
                co_residents: 0,
                resources: &mut self.resources,
                security: &self.security,
                codebase: &self.codebase,
                actions: &self.actions,
                policy: &self.policy,
            };
            sandbox.run(agent, &mut Mailbox::new(), meter, what)
        }
    }

    fn agent(codebase: &str, kind: AgentKind) -> Naplet {
        let key = SigningKey::new("u", b"k");
        let it = Itinerary::new(Pattern::singleton("s0")).unwrap();
        Naplet::create(&key, "u", "home", Millis(1), codebase, kind, it, vec![]).unwrap()
    }

    fn vm_agent(body: &str) -> Naplet {
        let src = format!(".program p\n.func main locals=1\n{body}\n.end\n");
        let image = VmImage::new(assemble(&src).unwrap()).unwrap();
        agent("vm:p", AgentKind::Vm(image.to_wire().unwrap()))
    }

    fn peer() -> NapletId {
        NapletId::new("peer", "s1", Millis(9)).unwrap()
    }

    /// Logs, reports and posts alternately, ignoring what a post says.
    struct Chatty;
    impl NapletBehavior for Chatty {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
            ctx.address_book().put(peer(), "s1");
            for k in 0..2 {
                ctx.log(&format!("line {k}"));
                ctx.report_home(Value::Int(k))?;
                let _ = ctx.post_message(&peer(), Value::Int(10 + k));
            }
            Ok(())
        }
    }

    #[test]
    fn native_on_start_effects_come_back_in_call_order() {
        let mut host = Host::new();
        host.codebase.register("chatty", 0, || Chatty);
        let mut naplet = agent("chatty", AgentKind::Native);
        let mut meter = Meter::default();
        let (result, effects) = host.run(&mut naplet, &mut meter, What::Visit(None));
        let dwell_ms = host.policy.native_dwell_ms;
        let outcome = ExecOutcome {
            program_done: false,
            dwell_ms,
        };
        assert_eq!(result.unwrap(), outcome);
        assert_eq!(effects.logs, ["line 0", "line 1"]);
        assert_eq!(effects.reports, [Value::Int(0), Value::Int(1)]);
        let post = |k| (peer(), "s1".to_string(), Value::Int(k));
        assert_eq!(effects.posts, [post(10), post(11)]);
        assert_eq!(meter.gas, dwell_ms * host.policy.gas_per_ms);
        assert!(meter.msg_bytes > 0, "the posts are on the meter");
    }

    #[test]
    fn a_credential_denied_messaging_posts_nothing() {
        let mut host = Host::new();
        host.codebase.register("chatty", 0, || Chatty);
        host.security.set_policy(Policy::deny_all());
        let mut naplet = agent("chatty", AgentKind::Native);
        let mut meter = Meter::default();
        let (result, effects) = host.run(&mut naplet, &mut meter, What::Visit(None));
        result.unwrap();
        assert!(effects.posts.is_empty());
        assert_eq!(effects.reports.len(), 2, "reports need no permission");
        assert_eq!(meter.msg_bytes, 0);
    }

    #[test]
    fn a_gas_budget_kill_returns_the_error_and_what_was_emitted_before_it() {
        let mut host = Host::new();
        host.policy.gas_slice = 30;
        host.policy.max_gas_per_visit = 100;
        let mut naplet = vm_agent("const \"first\"\nhcall log\nspin:\njmp spin");
        let mut meter = Meter::default();
        let (result, effects) = host.run(&mut naplet, &mut meter, What::Visit(None));
        let err = result.unwrap_err();
        assert!(
            matches!(&err, NapletError::ResourceExhausted { resource, .. } if resource == "cpu"),
            "{err}"
        );
        assert_eq!(effects.logs, ["first"]);
        assert_eq!(
            meter.gas, 120,
            "killed at the first slice boundary past 100"
        );
    }

    #[test]
    fn the_final_slice_resolves_travel_next_to_nil_and_a_second_travel_ends_the_run() {
        // reports whatever `travel_next` answers, for ever
        let mut naplet = vm_agent("again:\nhcall travel_next\nhcall report\npop\njmp again");
        let mut host = Host::new();
        let still_going = |(result, effects): (Result<ExecOutcome>, Effects)| {
            assert!(!result.unwrap().program_done);
            effects.reports
        };
        let mut meter = Meter::default();
        let first = host.run(&mut naplet, &mut meter, What::Visit(None));
        assert!(still_going(first).is_empty(), "parked at once");
        let second = host.run(&mut naplet, &mut meter, What::Visit(None));
        assert_eq!(still_going(second), [Value::from("s0")]);
        let parked = naplet.clone();
        let last = host.run(&mut naplet, &mut Meter::default(), What::FinalSlice);
        assert_eq!(still_going(last), [Value::Nil]);
        assert_eq!(naplet, parked, "the final slice persists nothing");
    }

    #[test]
    fn an_interrupt_on_a_vm_agent_is_a_no_op() {
        let mut naplet = vm_agent("const \"ran\"\nhcall log\nnil\nhalt");
        let untouched = naplet.clone();
        let mut meter = Meter::default();
        let verb = ControlVerb::Callback;
        let (result, effects) = Host::new().run(&mut naplet, &mut meter, What::Interrupt(&verb));
        assert_eq!(result.unwrap(), ExecOutcome::default());
        assert_eq!(effects, Effects::default());
        assert_eq!((naplet, meter), (untouched, Meter::default()));
    }
}
