//! Instruction set of the Naplet VM.
//!
//! A compact stack machine: operands live on an explicit value stack,
//! locals are stack slots addressed from a frame base (Lua-style).
//! Instructions are serializable — a program travels inside the naplet
//! as part of its VM image, which is what makes the agent's *code*
//! genuinely mobile on a statically compiled host language.

use naplet_core::codec::{Decode, Encode};

/// Host functions callable from mobile code via [`Instr::HCall`].
///
/// Each host function maps onto a capability of the naplet execution
/// context (paper §2.1/§5.3): state access, messaging, services,
/// reporting, and the strong-mobility yield `TravelNext`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Encode, Decode)]
pub enum HostFn {
    /// `(key) -> value` — read own state (naplet-side, full access).
    StateGet,
    /// `(key, value) -> nil` — write a private state entry.
    StateSet,
    /// `(key, value) -> nil` — write a public state entry.
    StateSetPublic,
    /// `() -> str` — name of the current host.
    HostName,
    /// `() -> str` — own naplet identifier (textual form).
    AgentId,
    /// `() -> int` — completed hops (navigation log length).
    Hops,
    /// `() -> int` — current server time in ms.
    Now,
    /// `(line) -> nil` — append to the naplet's execution log.
    Log,
    /// `(name, args) -> value` — call an open (non-privileged) service.
    SvcCall,
    /// `(service, request) -> value` — one request/reply exchange over
    /// a privileged service channel.
    ChanExchange,
    /// `(peer_id_str, value) -> bool` — post a user message to a peer
    /// in the address book; `false` when the post office reports a
    /// (transient) failure.
    MsgSend,
    /// `() -> value|nil` — non-blocking mailbox check.
    MsgRecv,
    /// `() -> list[str]` — textual ids of all address book peers.
    Peers,
    /// `(value) -> nil` — report to the owner's listener at home.
    Report,
    /// `() -> str|nil` — *strong-mobility yield*: suspend the VM,
    /// let the server advance the itinerary and migrate the whole VM
    /// image; execution resumes here on the next host with the new
    /// host name on the stack (or nil when the journey is done).
    TravelNext,
}

impl HostFn {
    /// Number of arguments consumed from the stack.
    pub fn arity(self) -> usize {
        match self {
            HostFn::StateGet | HostFn::Log | HostFn::Report => 1,
            HostFn::StateSet
            | HostFn::StateSetPublic
            | HostFn::SvcCall
            | HostFn::ChanExchange
            | HostFn::MsgSend => 2,
            HostFn::HostName
            | HostFn::AgentId
            | HostFn::Hops
            | HostFn::Now
            | HostFn::MsgRecv
            | HostFn::Peers
            | HostFn::TravelNext => 0,
        }
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            HostFn::StateGet => "state_get",
            HostFn::StateSet => "state_set",
            HostFn::StateSetPublic => "state_set_public",
            HostFn::HostName => "host_name",
            HostFn::AgentId => "agent_id",
            HostFn::Hops => "hops",
            HostFn::Now => "now",
            HostFn::Log => "log",
            HostFn::SvcCall => "svc_call",
            HostFn::ChanExchange => "chan_exchange",
            HostFn::MsgSend => "msg_send",
            HostFn::MsgRecv => "msg_recv",
            HostFn::Peers => "peers",
            HostFn::Report => "report",
            HostFn::TravelNext => "travel_next",
        }
    }

    /// Parse an assembler mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<HostFn> {
        Some(match s {
            "state_get" => HostFn::StateGet,
            "state_set" => HostFn::StateSet,
            "state_set_public" => HostFn::StateSetPublic,
            "host_name" => HostFn::HostName,
            "agent_id" => HostFn::AgentId,
            "hops" => HostFn::Hops,
            "now" => HostFn::Now,
            "log" => HostFn::Log,
            "svc_call" => HostFn::SvcCall,
            "chan_exchange" => HostFn::ChanExchange,
            "msg_send" => HostFn::MsgSend,
            "msg_recv" => HostFn::MsgRecv,
            "peers" => HostFn::Peers,
            "report" => HostFn::Report,
            "travel_next" => HostFn::TravelNext,
            _ => return None,
        })
    }

    /// Every host function (for exhaustive tests).
    pub fn all() -> &'static [HostFn] {
        &[
            HostFn::StateGet,
            HostFn::StateSet,
            HostFn::StateSetPublic,
            HostFn::HostName,
            HostFn::AgentId,
            HostFn::Hops,
            HostFn::Now,
            HostFn::Log,
            HostFn::SvcCall,
            HostFn::ChanExchange,
            HostFn::MsgSend,
            HostFn::MsgRecv,
            HostFn::Peers,
            HostFn::Report,
            HostFn::TravelNext,
        ]
    }
}

/// One VM instruction. Jump targets are absolute instruction indexes
/// within the current function.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum Instr {
    /// Push constant-pool entry `i`.
    Const(u16),
    /// Push an immediate small integer.
    Int(i64),
    /// Push nil.
    Nil,
    /// Push boolean.
    Bool(bool),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost values.
    Swap,
    /// Push local slot `i` of the current frame.
    Load(u8),
    /// Pop into local slot `i`.
    Store(u8),
    /// Push global slot `i`.
    GLoad(u16),
    /// Pop into global slot `i`.
    GStore(u16),

    /// Arithmetic (int/float with widening). Division by zero traps.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (traps on zero divisor).
    Div,
    /// Remainder (ints only; traps on zero divisor).
    Mod,
    /// Arithmetic negation.
    Neg,

    /// Structural equality.
    Eq,
    /// Structural inequality.
    Ne,
    /// Numeric/string less-than.
    Lt,
    /// Numeric/string less-or-equal.
    Le,
    /// Numeric/string greater-than.
    Gt,
    /// Numeric/string greater-or-equal.
    Ge,
    /// Logical not (truthiness).
    Not,

    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Jump when the popped value is falsy.
    JumpIfFalse(u32),
    /// Jump when the popped value is truthy.
    JumpIfTrue(u32),

    /// Call function `f` with `argc` arguments on the stack.
    Call(u16, u8),
    /// Return the top of stack from the current function.
    Ret,

    /// Pop `n` values, push them as a list (first-pushed first).
    MakeList(u16),
    /// `(list, index) -> value` — index read (traps out of range).
    ListGet,
    /// `(list, value) -> list` — append.
    ListPush,
    /// `(list|map|str|bytes) -> int` — length.
    Len,
    /// Pop `2n` values (alternating key, value), push a map.
    MakeMap(u16),
    /// `(map, key) -> value|nil` — map read.
    MapGet,
    /// `(map, key, value) -> map` — map write (functional update).
    MapSet,

    /// `(a, b) -> str` — string concatenation of displays.
    StrCat,
    /// `(v) -> str` — stringify.
    ToStr,
    /// `(v) -> int` — parse/convert to int (traps on failure).
    ToInt,
    /// `(str, sep) -> list[str]` — split a string.
    StrSplit,

    /// Call a host function with its fixed arity.
    HCall(HostFn),
    /// Stop the program; the value on top of the stack (or nil) is the
    /// program result.
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// Gas cost of executing this instruction. Host calls are an order
    /// of magnitude more expensive than plain instructions; this is the
    /// knob experiment E6 (monitor overhead) turns.
    pub fn gas_cost(&self) -> u64 {
        match self {
            Instr::HCall(_) => 10,
            Instr::Call(_, _) => 4,
            Instr::MakeList(n) | Instr::MakeMap(n) => 2 + *n as u64,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_round_trip() {
        for &h in HostFn::all() {
            assert_eq!(HostFn::from_mnemonic(h.mnemonic()), Some(h));
        }
        assert_eq!(HostFn::from_mnemonic("bogus"), None);
    }

    #[test]
    fn arities_match_docs() {
        assert_eq!(HostFn::StateGet.arity(), 1);
        assert_eq!(HostFn::StateSet.arity(), 2);
        assert_eq!(HostFn::TravelNext.arity(), 0);
        assert_eq!(HostFn::MsgSend.arity(), 2);
    }

    #[test]
    fn gas_costs_ordered() {
        assert!(Instr::HCall(HostFn::Log).gas_cost() > Instr::Add.gas_cost());
        assert!(Instr::Call(0, 0).gas_cost() > Instr::Add.gas_cost());
        assert_eq!(Instr::MakeList(8).gas_cost(), 10);
    }

    #[test]
    fn instr_codec_round_trip() {
        let instrs = vec![
            Instr::Const(3),
            Instr::Int(-9),
            Instr::Jump(42),
            Instr::HCall(HostFn::ChanExchange),
            Instr::Call(2, 3),
        ];
        let bytes = naplet_core::codec::to_bytes(&instrs).unwrap();
        let back: Vec<Instr> = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, instrs);
    }
}
