//! # tpde-snippets
//!
//! Snippet encoders: target-specific instruction sequences behind an
//! architecture-independent interface.
//!
//! In the paper, snippet encoders are generated ahead-of-time from C
//! functions compiled to LLVM Machine IR; at compile time they morph the
//! extracted instruction sequence to the actual operands (folding
//! immediates, reusing dying operand registers, using memory operands for
//! spilled values). This crate provides the equivalent *runtime* layer as a
//! hand-written library: the [`SnippetEmitter`] trait exposes one `enc_*`
//! function per operation class, and the implementations for
//! [`tpde_enc::X64Target`] and [`tpde_enc::A64Target`] perform exactly those
//! operand-dependent decisions. Instruction compilers written against
//! [`SnippetEmitter`] are therefore architecture-independent, which is what
//! lets the LLVM, WebAssembly and Umbra back-ends in this workspace share
//! one implementation per IR.

#![forbid(unsafe_code)]

mod a64_impl;
mod magic;
mod ops;
mod x64_impl;

pub use ops::{AsmAddr, AsmOperand, BinOp, FBinOp, FCmp, ICmp, ShiftKind};

use tpde_core::adapter::{BlockRef, IrAdapter, ValueRef};
use tpde_core::codegen::FuncCodeGen;
use tpde_core::error::{Error, Result};
use tpde_core::target::Target;

/// A result destination: one part of an IR value.
pub(crate) type ResultPart = (ValueRef, u32);

/// Architecture-independent interface to the snippet encoders.
///
/// Every method emits the machine code for one IR-level operation, handling
/// operand placement (registers, spilled stack slots, immediates) and result
/// register allocation through the framework callbacks of [`FuncCodeGen`].
pub trait SnippetEmitter: Target + Sized {
    /// Whether [`Self::enc_load`] and [`Self::enc_store`] accept an
    /// [`AsmAddr`] with an index, so that an instruction compiler may fold
    /// an address computation into the access that uses it.
    const INDEXED_ADDR: bool = false;

    /// Whether an instruction compiler may leave a load from a stack
    /// variable in that variable's memory until its uses read it
    /// ([`FuncCodeGen::define_in_frame`]). Every use then reads the value
    /// through [`FuncCodeGen::val_as_reg`] or a folded memory operand,
    /// which changes the emitted code, so a target opts in.
    const LAZY_STACK_LOADS: bool = false;

    /// Integer binary operation (`add`, `sub`, `and`, `or`, `xor`, `mul`).
    fn enc_bin<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        op: BinOp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()>;

    /// Integer division or remainder.
    fn enc_divrem<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        signed: bool,
        rem: bool,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()>;

    /// Shift operation; the amount may be a constant or a value.
    fn enc_shift<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        kind: ShiftKind,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()>;

    /// Integer comparison producing a 0/1 value.
    fn enc_icmp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        cc: ICmp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()>;

    /// Fused compare-and-branch (§3.4.4 / §5.1.2 of the paper): emits the
    /// comparison, the spill code required before the branch and the
    /// conditional + unconditional jumps.
    fn enc_icmp_branch<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        cc: ICmp,
        size: u32,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
        if_true: BlockRef,
        if_false: BlockRef,
    ) -> Result<()>;

    /// Branch on a value being non-zero (or zero when `branch_if_zero`).
    fn enc_branch_nonzero<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        val: &AsmOperand,
        branch_if_zero: bool,
        if_true: BlockRef,
        if_false: BlockRef,
    ) -> Result<()>;

    /// Unconditional jump (handles phi moves and fallthrough).
    fn enc_jump<A: IrAdapter>(cg: &mut FuncCodeGen<'_, A, Self>, target: BlockRef) -> Result<()> {
        cg.spill_before_branch()?;
        cg.terminator_fallthrough(target)
    }

    /// Memory load of `mem_size` bytes from `addr`, optionally
    /// sign-extended, into a result in bank `fp`/`gp`.
    fn enc_load<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        mem_size: u32,
        sign_extend: bool,
        fp: bool,
        res: ResultPart,
        addr: &AsmAddr,
    ) -> Result<()>;

    /// `res = ` the address `addr` names. Only called on a target with
    /// [`Self::INDEXED_ADDR`]; the others return [`Error::Unsupported`].
    fn enc_addr<A: IrAdapter>(
        _cg: &mut FuncCodeGen<'_, A, Self>,
        _res: ResultPart,
        _addr: &AsmAddr,
    ) -> Result<()> {
        Err(Error::Unsupported(
            "address computation without an indexed addressing mode".into(),
        ))
    }

    /// Memory store of `mem_size` bytes of `value` to `addr`.
    fn enc_store<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        mem_size: u32,
        fp: bool,
        addr: &AsmAddr,
        value: &AsmOperand,
    ) -> Result<()>;

    /// Integer extension (zero or sign) or truncation.
    fn enc_ext<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        signed: bool,
        from_size: u32,
        to_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()>;

    /// Integer select (`res = cond != 0 ? tval : fval`).
    fn enc_select<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        res: ResultPart,
        cond: &AsmOperand,
        tval: &AsmOperand,
        fval: &AsmOperand,
    ) -> Result<()>;

    /// Scalar floating-point binary operation.
    fn enc_fbin<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        op: FBinOp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()>;

    /// Scalar floating-point comparison producing 0/1.
    fn enc_fcmp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        cc: FCmp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()>;

    /// Floating-point negation.
    fn enc_fneg<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()>;

    /// Signed integer to floating point.
    fn enc_int_to_fp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        int_size: u32,
        fp_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()>;

    /// Floating point to signed integer (truncating).
    fn enc_fp_to_int<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        fp_size: u32,
        int_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()>;

    /// Conversion between `f32` and `f64`.
    fn enc_fp_convert<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        from_size: u32,
        to_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()>;
}
