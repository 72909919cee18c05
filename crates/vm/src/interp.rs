//! The gas-metered interpreter.
//!
//! [`run`] executes an image until it finishes, runs out of its gas
//! budget, or yields for migration. Gas is the NapletMonitor's CPU
//! accounting unit (paper §5.2): the hosting server grants a budget per
//! scheduling slice and decides what to do when it is exhausted
//! (reschedule, or terminate the naplet for exceeding its CPU policy).

use naplet_core::error::{NapletError, Result};
use naplet_core::value::Value;

use crate::host::VmHost;
use crate::image::{Frame, VmImage, VmStatus};
use crate::isa::{HostFn, Instr};

/// Why `run` returned.
#[derive(Debug, Clone, PartialEq)]
pub enum VmYield {
    /// The program completed with this result.
    Done(Value),
    /// The program executed `travel_next`: migrate the image, then
    /// [`VmImage::resume_after_travel`] and `run` again.
    Travel,
    /// The gas budget for this slice is exhausted; the image remains
    /// runnable.
    OutOfGas,
}

fn trap(msg: impl Into<String>) -> NapletError {
    NapletError::VmTrap(msg.into())
}

/// Plain (unquoted) string form used by `StrCat`/`ToStr`.
fn plain_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Execute `img` against `host` with a gas budget for this slice.
///
/// Returns a trap error when the program misbehaves (type errors,
/// division by zero, stack underflow, …); the image should then be
/// discarded (its status is left unchanged so post-mortem inspection
/// sees the faulting position).
pub fn run(img: &mut VmImage, host: &mut dyn VmHost, gas_budget: u64) -> Result<VmYield> {
    match img.status {
        VmStatus::Ready => {}
        VmStatus::Done => {
            return Ok(VmYield::Done(img.result.clone().unwrap_or(Value::Nil)));
        }
        VmStatus::AwaitingTravel => {
            return Err(trap("run called on an image awaiting travel"));
        }
    }

    let mut spent: u64 = 0;

    macro_rules! pop {
        () => {
            img.stack.pop().ok_or_else(|| trap("stack underflow"))?
        };
    }

    loop {
        let frame = img
            .frames
            .last()
            .ok_or_else(|| trap("no active frame"))?
            .clone();
        let func = img
            .program
            .funcs
            .get(frame.func as usize)
            .ok_or_else(|| trap("bad function index"))?;
        let ins = func
            .code
            .get(frame.pc as usize)
            .ok_or_else(|| trap(format!("pc {} out of range in `{}`", frame.pc, func.name)))?
            .clone();

        // a slice always runs its first instruction, whatever it costs:
        // one dearer than the whole slice would otherwise yield
        // `OutOfGas` forever, and whether a program makes progress must
        // not depend on the scheduling quantum (`gas_used` takes the
        // full charge, so the caller's budget still sees it)
        let cost = ins.gas_cost();
        if spent > 0 && spent + cost > gas_budget {
            return Ok(VmYield::OutOfGas);
        }
        spent += cost;
        img.gas_used += cost;

        // pc advances before execution; jumps overwrite it
        img.frames.last_mut().unwrap().pc = frame.pc + 1;

        match ins {
            Instr::Const(i) => {
                let v = img
                    .program
                    .consts
                    .get(i as usize)
                    .ok_or_else(|| trap("const index out of range"))?
                    .clone();
                img.stack.push(v);
            }
            Instr::Int(n) => img.stack.push(Value::Int(n)),
            Instr::Nil => img.stack.push(Value::Nil),
            Instr::Bool(b) => img.stack.push(Value::Bool(b)),
            Instr::Dup => {
                let v = img
                    .stack
                    .last()
                    .ok_or_else(|| trap("dup on empty stack"))?
                    .clone();
                img.stack.push(v);
            }
            Instr::Pop => {
                pop!();
            }
            Instr::Swap => {
                let n = img.stack.len();
                if n < 2 {
                    return Err(trap("swap needs two values"));
                }
                img.stack.swap(n - 1, n - 2);
            }
            Instr::Load(i) => {
                let idx = frame.base as usize + i as usize;
                let v = img
                    .stack
                    .get(idx)
                    .ok_or_else(|| trap(format!("local {i} out of frame")))?
                    .clone();
                img.stack.push(v);
            }
            Instr::Store(i) => {
                let v = pop!();
                let idx = frame.base as usize + i as usize;
                let slot = img
                    .stack
                    .get_mut(idx)
                    .ok_or_else(|| trap(format!("local {i} out of frame")))?;
                *slot = v;
            }
            Instr::GLoad(i) => {
                let v = img.globals.get(i as usize).cloned().unwrap_or(Value::Nil);
                img.stack.push(v);
            }
            Instr::GStore(i) => {
                let v = pop!();
                let i = i as usize;
                if img.globals.len() <= i {
                    img.globals.resize(i + 1, Value::Nil);
                }
                img.globals[i] = v;
            }

            Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Mod => {
                let b = pop!();
                let a = pop!();
                img.stack.push(arith(&ins, a, b)?);
            }
            Instr::Neg => {
                let v = pop!();
                img.stack.push(match v {
                    Value::Int(i) => Value::Int(
                        i.checked_neg()
                            .ok_or_else(|| trap("integer overflow in neg"))?,
                    ),
                    Value::Float(f) => Value::Float(-f),
                    other => return Err(trap(format!("neg on {}", other.type_name()))),
                });
            }

            Instr::Eq => {
                let b = pop!();
                let a = pop!();
                img.stack.push(Value::Bool(a == b));
            }
            Instr::Ne => {
                let b = pop!();
                let a = pop!();
                img.stack.push(Value::Bool(a != b));
            }
            Instr::Lt | Instr::Le | Instr::Gt | Instr::Ge => {
                let b = pop!();
                let a = pop!();
                img.stack.push(Value::Bool(compare(&ins, &a, &b)?));
            }
            Instr::Not => {
                let v = pop!();
                img.stack.push(Value::Bool(!v.is_truthy()));
            }

            Instr::Jump(t) => img.frames.last_mut().unwrap().pc = t,
            Instr::JumpIfFalse(t) => {
                let v = pop!();
                if !v.is_truthy() {
                    img.frames.last_mut().unwrap().pc = t;
                }
            }
            Instr::JumpIfTrue(t) => {
                let v = pop!();
                if v.is_truthy() {
                    img.frames.last_mut().unwrap().pc = t;
                }
            }

            Instr::Call(fi, argc) => {
                let callee = img
                    .program
                    .funcs
                    .get(fi as usize)
                    .ok_or_else(|| trap("call target out of range"))?;
                if callee.arity != argc {
                    return Err(trap(format!(
                        "call `{}`: arity {} got {argc}",
                        callee.name, callee.arity
                    )));
                }
                if img.stack.len() < argc as usize {
                    return Err(trap("call: missing arguments"));
                }
                let base = (img.stack.len() - argc as usize) as u32;
                let extra = callee.locals - argc;
                for _ in 0..extra {
                    img.stack.push(Value::Nil);
                }
                img.frames.push(Frame {
                    func: fi,
                    pc: 0,
                    base,
                });
            }
            Instr::Ret => {
                let rv = pop!();
                let done_frame = img.frames.pop().ok_or_else(|| trap("ret without frame"))?;
                img.stack.truncate(done_frame.base as usize);
                if img.frames.is_empty() {
                    img.status = VmStatus::Done;
                    img.result = Some(rv.clone());
                    return Ok(VmYield::Done(rv));
                }
                img.stack.push(rv);
            }

            Instr::MakeList(n) => {
                let n = n as usize;
                if img.stack.len() < n {
                    return Err(trap("make_list: missing elements"));
                }
                let items = img.stack.split_off(img.stack.len() - n);
                img.stack.push(Value::List(items));
            }
            Instr::ListGet => {
                let idx = pop!()
                    .as_int()
                    .map_err(|_| trap("list_get: index not int"))?;
                let list = pop!();
                let l = list.as_list().map_err(|_| trap("list_get: not a list"))?;
                let v = usize::try_from(idx)
                    .ok()
                    .and_then(|i| l.get(i))
                    .ok_or_else(|| trap(format!("list index {idx} out of range ({})", l.len())))?;
                img.stack.push(v.clone());
            }
            Instr::ListPush => {
                let v = pop!();
                let mut list = pop!();
                match &mut list {
                    Value::List(l) => l.push(v),
                    other => return Err(trap(format!("list_push on {}", other.type_name()))),
                }
                img.stack.push(list);
            }
            Instr::Len => {
                let v = pop!();
                let n = match &v {
                    Value::List(l) => l.len(),
                    Value::Map(m) => m.len(),
                    Value::Str(s) => s.chars().count(),
                    Value::Bytes(b) => b.len(),
                    other => return Err(trap(format!("len on {}", other.type_name()))),
                };
                img.stack.push(Value::Int(n as i64));
            }
            Instr::MakeMap(n) => {
                let n = n as usize;
                if img.stack.len() < 2 * n {
                    return Err(trap("make_map: missing entries"));
                }
                let mut flat = img.stack.split_off(img.stack.len() - 2 * n);
                let mut map = std::collections::BTreeMap::new();
                while !flat.is_empty() {
                    let k = flat.remove(0);
                    let v = flat.remove(0);
                    let key = k.as_str().map_err(|_| trap("make_map: key not str"))?;
                    map.insert(key.to_string(), v);
                }
                img.stack.push(Value::Map(map));
            }
            Instr::MapGet => {
                let k = pop!();
                let m = pop!();
                let key = k.as_str().map_err(|_| trap("map_get: key not str"))?;
                let map = m.as_map().map_err(|_| trap("map_get: not a map"))?;
                img.stack.push(map.get(key).cloned().unwrap_or(Value::Nil));
            }
            Instr::MapSet => {
                let v = pop!();
                let k = pop!();
                let mut m = pop!();
                let key = k
                    .as_str()
                    .map_err(|_| trap("map_set: key not str"))?
                    .to_string();
                m.as_map_mut()
                    .map_err(|_| trap("map_set: not a map"))?
                    .insert(key, v);
                img.stack.push(m);
            }

            Instr::StrCat => {
                let b = pop!();
                let a = pop!();
                img.stack
                    .push(Value::Str(plain_string(&a) + &plain_string(&b)));
            }
            Instr::ToStr => {
                let v = pop!();
                img.stack.push(Value::Str(plain_string(&v)));
            }
            Instr::ToInt => {
                let v = pop!();
                let n = match &v {
                    Value::Int(i) => *i,
                    Value::Float(f) => *f as i64,
                    Value::Bool(b) => *b as i64,
                    Value::Str(s) => s
                        .trim()
                        .parse::<i64>()
                        .map_err(|_| trap(format!("to_int: cannot parse `{s}`")))?,
                    other => return Err(trap(format!("to_int on {}", other.type_name()))),
                };
                img.stack.push(Value::Int(n));
            }
            Instr::StrSplit => {
                let sep = pop!();
                let s = pop!();
                let sep = sep.as_str().map_err(|_| trap("str_split: sep not str"))?;
                let s = s.as_str().map_err(|_| trap("str_split: not str"))?;
                let parts: Vec<Value> = if sep.is_empty() {
                    s.chars().map(|c| Value::Str(c.to_string())).collect()
                } else {
                    s.split(sep).map(|p| Value::Str(p.to_string())).collect()
                };
                img.stack.push(Value::List(parts));
            }

            Instr::HCall(HostFn::TravelNext) => {
                img.status = VmStatus::AwaitingTravel;
                return Ok(VmYield::Travel);
            }
            Instr::HCall(hf) => {
                let result = exec_hostcall(img, host, hf)?;
                img.stack.push(result);
            }
            Instr::Halt => {
                let rv = img.stack.pop().unwrap_or(Value::Nil);
                img.status = VmStatus::Done;
                img.result = Some(rv.clone());
                return Ok(VmYield::Done(rv));
            }
            Instr::Nop => {}
        }
    }
}

fn exec_hostcall(img: &mut VmImage, host: &mut dyn VmHost, hf: HostFn) -> Result<Value> {
    let mut pop = || {
        img.stack
            .pop()
            .ok_or_else(|| trap(format!("hostcall {}: stack underflow", hf.mnemonic())))
    };
    Ok(match hf {
        HostFn::StateGet => {
            let key = pop()?;
            host.state_get(key.as_str().map_err(|_| trap("state_get: key not str"))?)?
        }
        HostFn::StateSet | HostFn::StateSetPublic => {
            let value = pop()?;
            let key = pop()?;
            host.state_set(
                key.as_str().map_err(|_| trap("state_set: key not str"))?,
                value,
                hf == HostFn::StateSetPublic,
            )?;
            Value::Nil
        }
        HostFn::HostName => Value::Str(host.host_name()),
        HostFn::AgentId => Value::Str(host.agent_id()),
        HostFn::Hops => Value::Int(host.hops()),
        HostFn::Now => Value::Int(host.now()),
        HostFn::Log => {
            let line = pop()?;
            host.log(&plain_string(&line));
            Value::Nil
        }
        HostFn::SvcCall => {
            let args = pop()?;
            let name = pop()?;
            host.svc_call(
                name.as_str().map_err(|_| trap("svc_call: name not str"))?,
                args,
            )?
        }
        HostFn::ChanExchange => {
            let request = pop()?;
            let service = pop()?;
            host.chan_exchange(
                service
                    .as_str()
                    .map_err(|_| trap("chan_exchange: service not str"))?,
                request,
            )?
        }
        HostFn::MsgSend => {
            let value = pop()?;
            let peer = pop()?;
            let ok = host.msg_send(
                peer.as_str().map_err(|_| trap("msg_send: peer not str"))?,
                value,
            )?;
            Value::Bool(ok)
        }
        HostFn::MsgRecv => host.msg_recv()?,
        HostFn::Peers => Value::List(host.peers().into_iter().map(Value::Str).collect()),
        HostFn::Report => {
            let v = pop()?;
            host.report(v)?;
            Value::Nil
        }
        HostFn::TravelNext => unreachable!("handled by the interpreter loop"),
    })
}

fn arith(op: &Instr, a: Value, b: Value) -> Result<Value> {
    use Value::{Float, Int};
    match (op, a, b) {
        (Instr::Add, Int(x), Int(y)) => Ok(Int(x
            .checked_add(y)
            .ok_or_else(|| trap("int overflow in add"))?)),
        (Instr::Sub, Int(x), Int(y)) => Ok(Int(x
            .checked_sub(y)
            .ok_or_else(|| trap("int overflow in sub"))?)),
        (Instr::Mul, Int(x), Int(y)) => Ok(Int(x
            .checked_mul(y)
            .ok_or_else(|| trap("int overflow in mul"))?)),
        (Instr::Div, Int(_), Int(0)) => Err(trap("division by zero")),
        (Instr::Div, Int(x), Int(y)) => Ok(Int(x
            .checked_div(y)
            .ok_or_else(|| trap("int overflow in div"))?)),
        (Instr::Mod, Int(_), Int(0)) => Err(trap("modulo by zero")),
        (Instr::Mod, Int(x), Int(y)) => Ok(Int(x
            .checked_rem(y)
            .ok_or_else(|| trap("int overflow in mod"))?)),
        (Instr::Mod, a, b) => Err(trap(format!(
            "mod on {} and {}",
            a.type_name(),
            b.type_name()
        ))),
        (op, a, b) => {
            // float path (with int widening)
            let x = a
                .as_float()
                .map_err(|_| trap(format!("{op:?} on {}", a.type_name())))?;
            let y = b
                .as_float()
                .map_err(|_| trap(format!("{op:?} on {}", b.type_name())))?;
            Ok(Float(match op {
                Instr::Add => x + y,
                Instr::Sub => x - y,
                Instr::Mul => x * y,
                Instr::Div => {
                    if y == 0.0 {
                        return Err(trap("division by zero"));
                    }
                    x / y
                }
                _ => unreachable!(),
            }))
        }
    }
}

fn compare(op: &Instr, a: &Value, b: &Value) -> Result<bool> {
    let ord = match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => {
            let x = a
                .as_float()
                .map_err(|_| trap(format!("compare on {}", a.type_name())))?;
            let y = b
                .as_float()
                .map_err(|_| trap(format!("compare on {}", b.type_name())))?;
            x.partial_cmp(&y).ok_or_else(|| trap("compare on NaN"))?
        }
    };
    Ok(match op {
        Instr::Lt => ord.is_lt(),
        Instr::Le => ord.is_le(),
        Instr::Gt => ord.is_gt(),
        Instr::Ge => ord.is_ge(),
        _ => unreachable!(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MockHost;
    use crate::program::{Function, Program};

    fn prog(consts: Vec<Value>, code: Vec<Instr>) -> Program {
        Program {
            name: "t".into(),
            consts,
            funcs: vec![Function {
                name: "main".into(),
                arity: 0,
                locals: 4,
                code,
            }],
            entry: 0,
            globals: 4,
        }
    }

    fn run_to_done(p: Program) -> Value {
        let mut img = VmImage::new(p).unwrap();
        let mut host = MockHost::new("test");
        match run(&mut img, &mut host, u64::MAX).unwrap() {
            VmYield::Done(v) => v,
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_halt() {
        let v = run_to_done(prog(
            vec![],
            vec![Instr::Int(20), Instr::Int(22), Instr::Add, Instr::Halt],
        ));
        assert_eq!(v, Value::Int(42));
    }

    #[test]
    fn float_widening() {
        let v = run_to_done(prog(
            vec![Value::Float(0.5)],
            vec![Instr::Int(3), Instr::Const(0), Instr::Mul, Instr::Halt],
        ));
        assert_eq!(v, Value::Float(1.5));
    }

    #[test]
    fn division_by_zero_traps() {
        let p = prog(
            vec![],
            vec![Instr::Int(1), Instr::Int(0), Instr::Div, Instr::Halt],
        );
        let mut img = VmImage::new(p).unwrap();
        let mut host = MockHost::new("t");
        let err = run(&mut img, &mut host, u64::MAX).unwrap_err();
        assert_eq!(err.kind(), "vm-trap");
    }

    #[test]
    fn int_overflow_traps() {
        let p = prog(
            vec![],
            vec![Instr::Int(i64::MAX), Instr::Int(1), Instr::Add, Instr::Halt],
        );
        let mut img = VmImage::new(p).unwrap();
        let mut host = MockHost::new("t");
        assert!(run(&mut img, &mut host, u64::MAX).is_err());
    }

    #[test]
    fn locals_and_loop() {
        // sum 1..=5 via a loop: local0 = i, local1 = acc
        let code = vec![
            Instr::Int(0),
            Instr::Store(0),
            Instr::Int(0),
            Instr::Store(1),
            // loop head (4): i < 5 ?
            Instr::Load(0),
            Instr::Int(5),
            Instr::Lt,
            Instr::JumpIfFalse(16),
            // i += 1; acc += i
            Instr::Load(0),
            Instr::Int(1),
            Instr::Add,
            Instr::Store(0),
            Instr::Load(1),
            Instr::Load(0),
            Instr::Add,
            Instr::Store(1),
            // (16 is exit) jump head
            Instr::Jump(4),
            // exit
        ];
        // fix: exit label index
        let mut code = code;
        code.push(Instr::Load(1)); // 17
        code.push(Instr::Halt); // 18
                                // adjust: JumpIfFalse target should be 17 (Load(1)) and Jump(4) at 16
        code[7] = Instr::JumpIfFalse(17);
        assert_eq!(run_to_done(prog(vec![], code)), Value::Int(15));
    }

    #[test]
    fn function_calls_and_recursion() {
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
        let fib = Function {
            name: "fib".into(),
            arity: 1,
            locals: 1,
            code: vec![
                Instr::Load(0),
                Instr::Int(2),
                Instr::Lt,
                Instr::JumpIfFalse(6),
                Instr::Load(0),
                Instr::Ret,
                Instr::Load(0),
                Instr::Int(1),
                Instr::Sub,
                Instr::Call(1, 1),
                Instr::Load(0),
                Instr::Int(2),
                Instr::Sub,
                Instr::Call(1, 1),
                Instr::Add,
                Instr::Ret,
            ],
        };
        let main = Function {
            name: "main".into(),
            arity: 0,
            locals: 0,
            code: vec![Instr::Int(10), Instr::Call(1, 1), Instr::Halt],
        };
        let p = Program {
            name: "fib".into(),
            consts: vec![],
            funcs: vec![main, fib],
            entry: 0,
            globals: 0,
        };
        p.validate().unwrap();
        let mut img = VmImage::new(p).unwrap();
        let mut host = MockHost::new("t");
        let VmYield::Done(v) = run(&mut img, &mut host, u64::MAX).unwrap() else {
            panic!()
        };
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn globals_persist_across_functions() {
        let setter = Function {
            name: "setter".into(),
            arity: 0,
            locals: 0,
            code: vec![Instr::Int(7), Instr::GStore(2), Instr::Nil, Instr::Ret],
        };
        let main = Function {
            name: "main".into(),
            arity: 0,
            locals: 0,
            code: vec![Instr::Call(1, 0), Instr::Pop, Instr::GLoad(2), Instr::Halt],
        };
        let p = Program {
            name: "g".into(),
            consts: vec![],
            funcs: vec![main, setter],
            entry: 0,
            globals: 3,
        };
        let mut img = VmImage::new(p).unwrap();
        let mut host = MockHost::new("t");
        let VmYield::Done(v) = run(&mut img, &mut host, u64::MAX).unwrap() else {
            panic!()
        };
        assert_eq!(v, Value::Int(7));
    }

    #[test]
    fn lists_and_maps() {
        let v = run_to_done(prog(
            vec![Value::from("k")],
            vec![
                Instr::Int(1),
                Instr::Int(2),
                Instr::MakeList(2),
                Instr::Int(3),
                Instr::ListPush,
                Instr::Dup,
                Instr::Len,
                Instr::Store(0), // len == 3
                Instr::Int(2),
                Instr::ListGet, // == 3
                Instr::Store(1),
                Instr::Const(0),
                Instr::Load(0),
                Instr::MakeMap(1),
                Instr::Const(0),
                Instr::Load(1),
                Instr::MapSet, // {k: 3}
                Instr::Const(0),
                Instr::MapGet,
                Instr::Halt,
            ],
        ));
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn string_ops() {
        let v = run_to_done(prog(
            vec![Value::from("a;b;c"), Value::from(";")],
            vec![
                Instr::Const(0),
                Instr::Const(1),
                Instr::StrSplit,
                Instr::Int(1),
                Instr::ListGet,
                Instr::Const(1),
                Instr::StrCat,
                Instr::Int(42),
                Instr::ToStr,
                Instr::StrCat,
                Instr::Halt,
            ],
        ));
        assert_eq!(v, Value::from("b;42"));
    }

    #[test]
    fn to_int_parses() {
        let v = run_to_done(prog(
            vec![Value::from(" 17 ")],
            vec![Instr::Const(0), Instr::ToInt, Instr::Halt],
        ));
        assert_eq!(v, Value::Int(17));
    }

    #[test]
    fn comparisons_and_logic() {
        let v = run_to_done(prog(
            vec![Value::from("abc"), Value::from("abd")],
            vec![
                Instr::Const(0),
                Instr::Const(1),
                Instr::Lt,  // true
                Instr::Not, // false
                Instr::Halt,
            ],
        ));
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn hostcalls_route_to_host() {
        let p = prog(
            vec![
                Value::from("key"),
                Value::from("logged"),
                Value::from("double"),
            ],
            vec![
                Instr::Const(0),
                Instr::Int(5),
                Instr::HCall(HostFn::StateSet),
                Instr::Pop,
                Instr::Const(1),
                Instr::HCall(HostFn::Log),
                Instr::Pop,
                Instr::Const(2),
                Instr::Int(21),
                Instr::HCall(HostFn::SvcCall),
                Instr::HCall(HostFn::Report),
                Instr::Pop,
                Instr::Const(0),
                Instr::HCall(HostFn::StateGet),
                Instr::Halt,
            ],
        );
        let mut img = VmImage::new(p).unwrap();
        let mut host =
            MockHost::new("srv").with_service("double", |v| Ok(Value::Int(v.as_int()? * 2)));
        let VmYield::Done(v) = run(&mut img, &mut host, u64::MAX).unwrap() else {
            panic!()
        };
        assert_eq!(v, Value::Int(5));
        assert_eq!(host.logs, vec!["logged"]);
        assert_eq!(host.reports, vec![Value::Int(42)]);
        assert_eq!(host.state.get("key"), Some(&Value::Int(5)));
    }

    #[test]
    fn out_of_gas_is_resumable() {
        // long loop; run with small slices until done
        let code = vec![
            Instr::Int(0),
            Instr::Store(0),
            Instr::Load(0),
            Instr::Int(1000),
            Instr::Lt,
            Instr::JumpIfFalse(11),
            Instr::Load(0),
            Instr::Int(1),
            Instr::Add,
            Instr::Store(0),
            Instr::Jump(2),
            Instr::Load(0),
            Instr::Halt,
        ];
        let mut img = VmImage::new(prog(vec![], code)).unwrap();
        let mut host = MockHost::new("t");
        let mut slices = 0;
        loop {
            match run(&mut img, &mut host, 100).unwrap() {
                VmYield::OutOfGas => slices += 1,
                VmYield::Done(v) => {
                    assert_eq!(v, Value::Int(1000));
                    break;
                }
                VmYield::Travel => panic!("no travel here"),
            }
            assert!(slices < 1000, "not making progress");
        }
        assert!(slices > 10, "gas limit should have split execution");
        assert!(img.gas_used >= 1000);
    }

    #[test]
    fn a_slice_smaller_than_an_instruction_still_makes_progress() {
        // MakeList(8) costs 10: under a 3-gas slice it runs alone, and
        // the image charges all of it
        let code = vec![
            Instr::MakeList(0),
            Instr::Pop,
            Instr::MakeList(8),
            Instr::Halt,
        ];
        let code = [vec![Instr::Nil; 8], code].concat();
        let mut img = VmImage::new(prog(vec![], code)).unwrap();
        let mut host = MockHost::new("t");
        let mut slices = 0;
        while run(&mut img, &mut host, 3).unwrap() == VmYield::OutOfGas {
            slices += 1;
            assert!(slices < 100, "not making progress");
        }
        assert_eq!(img.gas_used, 8 + 2 + 1 + 10 + 1);
    }

    #[test]
    fn travel_yield_and_resume_mid_function() {
        // loop: h = travel_next(); while h != nil { log(h) }
        let code = vec![
            Instr::HCall(HostFn::TravelNext), // 0
            Instr::Dup,                       // 1
            Instr::JumpIfFalse(6),            // 2 → exit when nil
            Instr::HCall(HostFn::Log),        // 3 (consumes host name)
            Instr::Pop,                       // 4
            Instr::Jump(0),                   // 5
            Instr::Pop,                       // 6 (the nil)
            Instr::Int(99),                   // 7
            Instr::Halt,                      // 8
        ];
        let mut img = VmImage::new(prog(vec![], code)).unwrap();
        let mut host = MockHost::new("h0");

        // first slice: yields for travel
        assert_eq!(run(&mut img, &mut host, u64::MAX).unwrap(), VmYield::Travel);

        // simulate migration: serialize → deserialize → resume at h1
        let mut img = VmImage::from_wire(&img.to_wire().unwrap()).unwrap();
        img.resume_after_travel(Some("h1")).unwrap();
        let mut host = MockHost::new("h1");
        assert_eq!(run(&mut img, &mut host, u64::MAX).unwrap(), VmYield::Travel);
        assert_eq!(host.logs, vec!["h1"]);

        // journey ends
        img.resume_after_travel(None).unwrap();
        let VmYield::Done(v) = run(&mut img, &mut host, u64::MAX).unwrap() else {
            panic!()
        };
        assert_eq!(v, Value::Int(99));
    }

    #[test]
    fn done_image_returns_done_again() {
        let mut img = VmImage::new(prog(vec![], vec![Instr::Int(1), Instr::Halt])).unwrap();
        let mut host = MockHost::new("t");
        assert_eq!(
            run(&mut img, &mut host, u64::MAX).unwrap(),
            VmYield::Done(Value::Int(1))
        );
        assert_eq!(
            run(&mut img, &mut host, u64::MAX).unwrap(),
            VmYield::Done(Value::Int(1))
        );
    }

    #[test]
    fn awaiting_travel_image_rejects_run() {
        let mut img = VmImage::new(prog(
            vec![],
            vec![Instr::HCall(HostFn::TravelNext), Instr::Halt],
        ))
        .unwrap();
        let mut host = MockHost::new("t");
        assert_eq!(run(&mut img, &mut host, u64::MAX).unwrap(), VmYield::Travel);
        assert!(run(&mut img, &mut host, u64::MAX).is_err());
    }

    #[test]
    fn stack_underflow_traps() {
        let mut img = VmImage::new(prog(vec![], vec![Instr::Add, Instr::Halt])).unwrap();
        let mut host = MockHost::new("t");
        assert!(run(&mut img, &mut host, u64::MAX).is_err());
    }

    #[test]
    fn msg_send_recv_roundtrip_via_host() {
        let p = prog(
            vec![Value::from("peer@p:0")],
            vec![
                Instr::Const(0),
                Instr::Int(5),
                Instr::HCall(HostFn::MsgSend),
                Instr::Pop,
                Instr::HCall(HostFn::MsgRecv),
                Instr::Halt,
            ],
        );
        let mut img = VmImage::new(p).unwrap();
        let mut host = MockHost::new("t");
        host.inbox.push(Value::Int(31));
        let VmYield::Done(v) = run(&mut img, &mut host, u64::MAX).unwrap() else {
            panic!()
        };
        assert_eq!(v, Value::Int(31));
        assert_eq!(host.sent, vec![("peer@p:0".to_string(), Value::Int(5))]);
    }
}
