//! The target abstraction: the architecture- and platform-specific part of
//! the framework that the code-generation pass delegates to.
//!
//! A [`Target`] knows the register file, the calling convention, how to emit
//! the prologue/epilogue skeleton (completed once the function's frame size
//! and used callee-saved registers are known), and how to emit the small set
//! of "glue"
//! instructions the framework itself needs: register moves, spills, reloads,
//! constant materialization, jumps and calls. Everything else — the actual
//! semantics of IR instructions — is emitted by the user's instruction
//! compilers and snippet encoders, which write directly into the
//! [`CodeBuffer`].
//!
//! Concrete implementations for x86-64 and AArch64 live in the `tpde-enc`
//! crate (`tpde_enc::X64Target` and `tpde_enc::A64Target`).

use crate::callconv::CallConv;
use crate::codebuf::{CodeBuffer, Label, SymbolId};
use crate::error::Result;
use crate::regs::{Reg, RegBank, RegSet};

/// Supported target architectures.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TargetArch {
    /// x86-64 (System V ABI).
    X86_64,
    /// AArch64 (AAPCS64).
    Aarch64,
}

/// Per-function frame bookkeeping shared between the code generator and the
/// target.
///
/// The prologue is emitted before the frame size or the set of used
/// callee-saved registers is known; the target records here what
/// [`Target::finish_func`] completes at the end of the function: it inserts
/// the frame allocation and exactly the needed saves into the prologue
/// ([`CodeBuffer::insert_text_with`]) and emits one epilogue that every
/// return reaches.
///
/// The code generator keeps one `FrameState` per compile session and hands it
/// to [`Target::emit_prologue`] for every function.
#[derive(Debug, Clone, Default)]
pub struct FrameState {
    /// Where the frame allocation and the saves are inserted: the end of
    /// the prologue as emitted.
    pub frame_size_patch: u64,
    /// The shared epilogue, bound by [`Target::finish_func`]; created by
    /// the first return.
    pub epilogue: Option<Label>,
}

impl FrameState {
    /// Starts the bookkeeping of a new function.
    pub fn reset(&mut self) {
        self.frame_size_patch = 0;
        self.epilogue = None;
    }
}

/// Architecture/platform-specific operations required by the code generator.
pub trait Target {
    /// Whether a single-part phi of a forward join, whose live range ends
    /// in that join, arrives in a caller-saved register instead of its
    /// stack slot: every in-edge moves the incoming value there and the
    /// join starts with the phi in it. This changes the emitted code, so a
    /// target opts in.
    const JOIN_PHI_REGS: bool = false;

    /// The architecture this target generates code for.
    fn arch(&self) -> TargetArch;

    /// The C calling convention used for function arguments, returns and
    /// calls.
    fn call_conv(&self) -> &CallConv;

    /// Registers the framework may allocate, in allocation order (the paper
    /// allocates the lowest-numbered free register first). Must not include
    /// the stack/frame pointer or the emergency scratch register.
    fn allocatable_regs(&self, bank: RegBank) -> &[Reg];

    /// Callee-saved registers without a special purpose, usable as *fixed*
    /// registers for values kept in registers across an innermost loop.
    fn fixed_reg_candidates(&self, bank: RegBank) -> &[Reg];

    /// An emergency general-purpose scratch register that is never
    /// allocated (used for address computations and FP constant
    /// materialization).
    fn scratch_gp(&self) -> Reg;

    /// An emergency floating-point scratch register that is never allocated
    /// (used for memory-to-memory moves of FP values).
    fn scratch_fp(&self) -> Reg;

    /// Size in bytes of the callee-save area reserved directly below the
    /// frame pointer (enough to save every callee-saved register).
    fn callee_save_area_size(&self) -> u32;

    // ---- function skeleton -------------------------------------------------

    /// Emits the start of the function prologue, recording in `frame` where
    /// [`Target::finish_func`] completes it, and restarts `frame` for the
    /// new function ([`FrameState::reset`]).
    fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState);

    /// Emits a return at the current position. `at_end` says that no code
    /// of the function follows it, so a return into an epilogue emitted by
    /// [`Target::finish_func`] needs no jump.
    fn emit_ret(&self, buf: &mut CodeBuffer, frame: &mut FrameState, at_end: bool);

    /// Completes the prologue and the epilogue(s) once the final frame size
    /// and set of used callee-saved registers are known.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeBuffer::insert_text_with`] errors.
    fn finish_func(
        &self,
        buf: &mut CodeBuffer,
        frame: &FrameState,
        frame_size: u32,
        used_callee_saved: RegSet,
    ) -> Result<()>;

    // ---- framework glue instructions ----------------------------------------

    /// Register-to-register move within one bank.
    fn emit_mov_rr(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, src: Reg);

    /// Store `src` to the frame slot at `off` from the frame pointer (spill).
    fn emit_frame_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: i32, src: Reg);

    /// Load the frame slot at `off` from the frame pointer into `dst`
    /// (reload).
    fn emit_frame_load(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, off: i32);

    /// Compute the frame pointer plus `off` into `dst` (address of a stack
    /// variable).
    fn emit_frame_addr(&self, buf: &mut CodeBuffer, dst: Reg, off: i32);

    /// Materialize a constant into a register.
    fn emit_const(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, value: u64);

    /// Unconditional jump to a label (fixed up when the label is bound).
    fn emit_jump(&self, buf: &mut CodeBuffer, label: Label);

    /// Call a symbol (emits a relocation).
    fn emit_call_sym(&self, buf: &mut CodeBuffer, sym: SymbolId);

    /// Indirect call through a register.
    fn emit_call_reg(&self, buf: &mut CodeBuffer, reg: Reg);

    /// Adjust the stack pointer by `delta` bytes (negative allocates).
    fn emit_sp_adjust(&self, buf: &mut CodeBuffer, delta: i32);

    /// Store `src` to `[sp + off]` (outgoing stack argument).
    fn emit_sp_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: u32, src: Reg);

    /// Hook for variadic calls: on x86-64 SysV, set `al` to the number of
    /// vector registers used. Default: no-op.
    fn emit_vararg_fp_count(&self, buf: &mut CodeBuffer, count: u8) {
        let _ = (buf, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_state_reset_empties_it() {
        let mut f = FrameState {
            frame_size_patch: 8,
            epilogue: Some(Label(3)),
        };
        f.reset();
        assert_eq!(f.frame_size_patch, 0);
        assert!(f.epilogue.is_none());
    }
}
