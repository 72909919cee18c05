//! VM programs: functions, constant pool, validation.

use naplet_core::codec::{Decode, Encode};

use naplet_core::error::{NapletError, Result};
use naplet_core::value::Value;

use crate::isa::Instr;

/// One function: named, fixed arity, `locals` total local slots
/// (including the arguments, which occupy slots `0..arity`).
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct Function {
    /// Function name (call target for the assembler; diagnostics).
    pub name: String,
    /// Number of arguments.
    pub arity: u8,
    /// Total local slots, `>= arity`.
    pub locals: u8,
    /// Instruction sequence.
    pub code: Vec<Instr>,
}

/// A complete mobile program.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct Program {
    /// Human-readable program name (diagnostics, codebase naming).
    pub name: String,
    /// Constant pool shared by all functions.
    pub consts: Vec<Value>,
    /// Functions; entry point is index `entry`.
    pub funcs: Vec<Function>,
    /// Index of the entry function (must take 0 arguments).
    pub entry: u16,
    /// Number of global slots.
    pub globals: u16,
}

impl Program {
    /// Find a function index by name.
    pub fn func_index(&self, name: &str) -> Option<u16> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u16)
    }

    /// The entry function.
    pub fn entry_func(&self) -> &Function {
        &self.funcs[self.entry as usize]
    }

    /// Serialized size in bytes — the cost of carrying this code.
    pub fn wire_size(&self) -> u64 {
        naplet_core::codec::encoded_size(self).unwrap_or(u64::MAX)
    }

    /// Validate structural invariants so the interpreter can trust
    /// indexes: entry exists and takes no arguments, all jump targets
    /// are in range, all local/global/const/function references are in
    /// bounds, functions end in `Ret`/`Halt`/`Jump` (no fall-through).
    pub fn validate(&self) -> Result<()> {
        if self.funcs.is_empty() {
            return Err(err("program has no functions"));
        }
        let entry = self
            .funcs
            .get(self.entry as usize)
            .ok_or_else(|| err("entry index out of range"))?;
        if entry.arity != 0 {
            return Err(err("entry function must take 0 arguments"));
        }
        for f in &self.funcs {
            if f.locals < f.arity {
                return Err(err(&format!("function `{}`: locals < arity", f.name)));
            }
            if f.code.is_empty() {
                return Err(err(&format!("function `{}` is empty", f.name)));
            }
            match f.code.last() {
                Some(Instr::Ret | Instr::Halt | Instr::Jump(_)) => {}
                _ => {
                    return Err(err(&format!(
                        "function `{}` may fall off its end (must end in ret/halt/jump)",
                        f.name
                    )))
                }
            }
            for (pc, ins) in f.code.iter().enumerate() {
                let ctx = || format!("`{}`@{pc}", f.name);
                match ins {
                    Instr::Const(i) if *i as usize >= self.consts.len() => {
                        return Err(err(&format!("{}: const {i} out of range", ctx())));
                    }
                    Instr::Load(i) | Instr::Store(i) if *i >= f.locals => {
                        return Err(err(&format!("{}: local {i} out of range", ctx())));
                    }
                    Instr::GLoad(i) | Instr::GStore(i) if *i >= self.globals => {
                        return Err(err(&format!("{}: global {i} out of range", ctx())));
                    }
                    Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t)
                        if *t as usize >= f.code.len() =>
                    {
                        return Err(err(&format!("{}: jump target {t} out of range", ctx())));
                    }
                    Instr::Call(fi, argc) => {
                        let callee = self
                            .funcs
                            .get(*fi as usize)
                            .ok_or_else(|| err(&format!("{}: call target {fi} missing", ctx())))?;
                        if callee.arity != *argc {
                            return Err(err(&format!(
                                "{}: call `{}` with {argc} args, arity {}",
                                ctx(),
                                callee.name,
                                callee.arity
                            )));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

fn err(msg: &str) -> NapletError {
    NapletError::VmTrap(format!("invalid program: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> Program {
        Program {
            name: "t".into(),
            consts: vec![Value::from("hello")],
            funcs: vec![Function {
                name: "main".into(),
                arity: 0,
                locals: 1,
                code: vec![Instr::Const(0), Instr::Halt],
            }],
            entry: 0,
            globals: 1,
        }
    }

    #[test]
    fn valid_program_passes() {
        minimal().validate().unwrap();
        assert_eq!(minimal().func_index("main"), Some(0));
        assert_eq!(minimal().func_index("missing"), None);
        assert!(minimal().wire_size() > 0);
    }

    #[test]
    fn rejects_bad_entry() {
        let mut p = minimal();
        p.entry = 7;
        assert!(p.validate().is_err());
        let mut p = minimal();
        p.funcs[0].arity = 1;
        p.funcs[0].locals = 1;
        assert!(p.validate().is_err()); // entry with args
    }

    #[test]
    fn rejects_out_of_range_refs() {
        let mut p = minimal();
        p.funcs[0].code[0] = Instr::Const(9);
        assert!(p.validate().is_err());

        let mut p = minimal();
        p.funcs[0].code[0] = Instr::Load(5);
        assert!(p.validate().is_err());

        let mut p = minimal();
        p.funcs[0].code[0] = Instr::GStore(3);
        assert!(p.validate().is_err());

        let mut p = minimal();
        p.funcs[0].code[0] = Instr::Jump(99);
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_fall_through() {
        let mut p = minimal();
        p.funcs[0].code = vec![Instr::Nil, Instr::Pop];
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_arity_mismatch_call() {
        let mut p = minimal();
        p.funcs.push(Function {
            name: "f1".into(),
            arity: 2,
            locals: 2,
            code: vec![Instr::Nil, Instr::Ret],
        });
        p.funcs[0].code = vec![Instr::Nil, Instr::Call(1, 1), Instr::Halt];
        assert!(p.validate().is_err());
        p.funcs[0].code = vec![Instr::Nil, Instr::Nil, Instr::Call(1, 2), Instr::Halt];
        p.validate().unwrap();
    }

    #[test]
    fn rejects_locals_smaller_than_arity() {
        let mut p = minimal();
        p.funcs.push(Function {
            name: "bad".into(),
            arity: 3,
            locals: 1,
            code: vec![Instr::Nil, Instr::Ret],
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn codec_round_trip() {
        let p = minimal();
        let bytes = naplet_core::codec::to_bytes(&p).unwrap();
        let back: Program = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
    }
}
