//! The target abstraction: the architecture- and platform-specific part of
//! the framework that the code-generation pass delegates to.
//!
//! A [`Target`] knows the register file, the calling convention, how to emit
//! the prologue/epilogue skeleton (with reserved, patchable space, as
//! described in the paper), and how to emit the small set of "glue"
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
use crate::regs::{Reg, RegBank, RegSet};

/// Supported target architectures.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TargetArch {
    /// x86-64 (System V ABI).
    X86_64,
    /// AArch64 (AAPCS64).
    Aarch64,
}

impl TargetArch {
    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TargetArch::X86_64 => "x86-64",
            TargetArch::Aarch64 => "aarch64",
        }
    }
}

/// Per-function frame bookkeeping shared between the code generator and the
/// target.
///
/// The prologue is emitted before the frame size or the set of used
/// callee-saved registers is known; the target records the offsets of the
/// reserved (nop-padded) areas here so [`Target::finish_func`] can patch in
/// the real instructions at the end of the function, exactly as described in
/// the paper.
///
/// The code generator keeps one `FrameState` per compile session and hands it
/// to [`Target::emit_prologue`] for every function, so the epilogue list's
/// buffer is reused.
#[derive(Debug, Clone, Default)]
pub struct FrameState {
    /// Offset of the prologue instruction encoding the frame size.
    pub frame_size_patch: u64,
    /// `(offset, length)` of the nop-padded callee-save area in the prologue.
    pub save_area: Option<(u64, u64)>,
    /// `(offset, length)` of each nop-padded callee-restore area (one per
    /// emitted epilogue).
    pub restore_areas: Vec<(u64, u64)>,
}

impl FrameState {
    /// Starts the bookkeeping of a new function, keeping the epilogue list's
    /// capacity.
    pub fn reset(&mut self) {
        self.frame_size_patch = 0;
        self.save_area = None;
        self.restore_areas.clear();
    }
}

/// Architecture/platform-specific operations required by the code generator.
pub trait Target {
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

    /// The frame pointer register.
    fn frame_reg(&self) -> Reg;

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

    /// Emits the function prologue with reserved space for callee-saved
    /// register saves and a patchable frame size, and restarts `frame` for
    /// the new function ([`FrameState::reset`]).
    fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState);

    /// Emits an epilogue (restore area + frame teardown + return) at the
    /// current position, recording its patch areas in `frame`.
    fn emit_epilogue_and_ret(&self, buf: &mut CodeBuffer, frame: &mut FrameState);

    /// Patches the prologue and all epilogues once the final frame size and
    /// set of used callee-saved registers are known.
    fn finish_func(
        &self,
        buf: &mut CodeBuffer,
        frame: &FrameState,
        frame_size: u32,
        used_callee_saved: RegSet,
    );

    // ---- framework glue instructions ----------------------------------------

    /// Register-to-register move within one bank.
    fn emit_mov_rr(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, src: Reg);

    /// Store `src` to `[frame_reg + off]` (spill).
    fn emit_frame_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: i32, src: Reg);

    /// Load `[frame_reg + off]` into `dst` (reload).
    fn emit_frame_load(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, off: i32);

    /// Compute `frame_reg + off` into `dst` (address of a stack variable).
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
    fn arch_names() {
        assert_eq!(TargetArch::X86_64.name(), "x86-64");
        assert_eq!(TargetArch::Aarch64.name(), "aarch64");
    }

    #[test]
    fn frame_state_reset_empties_it() {
        let mut f = FrameState::default();
        assert!(f.save_area.is_none());
        assert!(f.restore_areas.is_empty());
        f.save_area = Some((4, 8));
        f.restore_areas.push((16, 8));
        f.reset();
        assert!(f.save_area.is_none());
        assert!(f.restore_areas.is_empty());
    }
}
