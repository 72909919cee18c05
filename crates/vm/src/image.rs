//! Serializable VM execution images — the strong-mobility substrate.
//!
//! A [`VmImage`] is the *entire* execution state of a mobile program:
//! code, globals, operand stack and call frames. Because it is plain
//! serializable data, a naplet can carry it across hosts and resume
//! mid-function — stronger mobility than the paper's Java system,
//! which can only restart agents at `onStart()` after each hop
//! (DESIGN.md §2).

use naplet_core::codec::{Decode, Encode};

use naplet_core::error::{NapletError, Result};
use naplet_core::value::Value;

use crate::program::Program;

/// One call frame. `base` is the stack index of local slot 0.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct Frame {
    /// Function index into `program.funcs`.
    pub func: u16,
    /// Next instruction index within the function.
    pub pc: u32,
    /// Stack index where this frame's locals start.
    pub base: u32,
}

/// Execution status of an image.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub enum VmStatus {
    /// Runnable: `run` may be called.
    Ready,
    /// Suspended at a `travel_next` host call; migrate the image, then
    /// call [`VmImage::resume_after_travel`].
    AwaitingTravel,
    /// The program finished with a result.
    Done,
}

/// Complete, serializable execution state of a mobile program.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct VmImage {
    /// The carried code.
    pub program: Program,
    /// Global slots.
    pub globals: Vec<Value>,
    /// Operand + locals stack.
    pub stack: Vec<Value>,
    /// Call frames (innermost last).
    pub frames: Vec<Frame>,
    /// Current status.
    pub status: VmStatus,
    /// Program result once `status == Done`.
    pub result: Option<Value>,
    /// Total gas consumed over the image's lifetime (all hosts).
    pub gas_used: u64,
}

impl VmImage {
    /// Build a fresh image positioned at the entry function.
    pub fn new(program: Program) -> Result<VmImage> {
        program.validate()?;
        let entry = program.entry_func();
        let stack = vec![Value::Nil; entry.locals as usize];
        let frames = vec![Frame {
            func: program.entry,
            pc: 0,
            base: 0,
        }];
        Ok(VmImage {
            program,
            globals: vec![],
            stack,
            frames,
            status: VmStatus::Ready,
            result: None,
            gas_used: 0,
        })
    }

    /// Resume after a migration that was requested by `travel_next`:
    /// push the new host name (or nil when the journey completed) as
    /// the host call's return value and become runnable again.
    pub fn resume_after_travel(&mut self, new_host: Option<&str>) -> Result<()> {
        if self.status != VmStatus::AwaitingTravel {
            return Err(NapletError::VmTrap(
                "resume_after_travel on an image that was not awaiting travel".into(),
            ));
        }
        self.stack.push(match new_host {
            Some(h) => Value::Str(h.to_string()),
            None => Value::Nil,
        });
        self.status = VmStatus::Ready;
        Ok(())
    }

    /// Is the program finished?
    pub fn is_done(&self) -> bool {
        self.status == VmStatus::Done
    }

    /// Serialize for migration.
    pub fn to_wire(&self) -> Result<Vec<u8>> {
        naplet_core::codec::to_bytes(self)
    }

    /// Deserialize a migrated image.
    pub fn from_wire(bytes: &[u8]) -> Result<VmImage> {
        naplet_core::codec::from_bytes(bytes)
    }

    /// Wire size in bytes (migration cost of carrying this code+state).
    pub fn wire_size(&self) -> u64 {
        naplet_core::codec::encoded_size(self).unwrap_or(u64::MAX)
    }

    /// Approximate live memory footprint for monitor budgeting.
    pub fn memory_footprint(&self) -> u64 {
        let stack: u64 = self.stack.iter().map(Value::deep_size).sum();
        let globals: u64 = self.globals.iter().map(Value::deep_size).sum();
        stack + globals + 64 * self.frames.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;
    use crate::program::Function;

    fn program() -> Program {
        Program {
            name: "t".into(),
            consts: vec![],
            funcs: vec![Function {
                name: "main".into(),
                arity: 0,
                locals: 2,
                code: vec![Instr::Nil, Instr::Halt],
            }],
            entry: 0,
            globals: 0,
        }
    }

    #[test]
    fn new_image_positions_at_entry() {
        let img = VmImage::new(program()).unwrap();
        assert_eq!(img.frames.len(), 1);
        assert_eq!(img.frames[0].pc, 0);
        assert_eq!(img.stack.len(), 2); // entry locals pre-allocated
        assert_eq!(img.status, VmStatus::Ready);
        assert!(!img.is_done());
    }

    #[test]
    fn invalid_program_rejected() {
        let mut p = program();
        p.funcs.clear();
        assert!(VmImage::new(p).is_err());
    }

    #[test]
    fn resume_requires_awaiting_state() {
        let mut img = VmImage::new(program()).unwrap();
        assert!(img.resume_after_travel(Some("h")).is_err());
        img.status = VmStatus::AwaitingTravel;
        img.resume_after_travel(Some("h2")).unwrap();
        assert_eq!(img.stack.last(), Some(&Value::from("h2")));
        assert_eq!(img.status, VmStatus::Ready);
    }

    #[test]
    fn resume_with_done_journey_pushes_nil() {
        let mut img = VmImage::new(program()).unwrap();
        img.status = VmStatus::AwaitingTravel;
        img.resume_after_travel(None).unwrap();
        assert_eq!(img.stack.last(), Some(&Value::Nil));
    }

    #[test]
    fn wire_round_trip() {
        let mut img = VmImage::new(program()).unwrap();
        img.stack.push(Value::from("mid-flight"));
        img.gas_used = 123;
        let bytes = img.to_wire().unwrap();
        assert_eq!(bytes.len() as u64, img.wire_size());
        let back = VmImage::from_wire(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn memory_footprint_counts_stack() {
        let mut img = VmImage::new(program()).unwrap();
        let before = img.memory_footprint();
        img.stack.push(Value::Bytes(vec![0; 4096]));
        assert!(img.memory_footprint() > before + 4096);
    }
}
