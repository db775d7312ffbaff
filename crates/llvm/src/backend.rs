//! The TPDE back-end for the LLVM-IR-like module.
//!
//! The instruction compiler is architecture-independent: it maps IR
//! instructions onto the snippet encoders of [`tpde_snippets::SnippetEmitter`]
//! and only uses the framework for calls, returns and branch bookkeeping,
//! mirroring §5.1.2 of the paper (calls/returns/branches and compare+branch
//! fusion are the only parts that are not expressed through snippets).
//!
//! It is also the one place that maps a [`ServiceBackendKind`] to a code
//! path: a module unit and a per-function unit on [`LlvmServiceWorker`],
//! plus one symbol predeclare, behind [`compile`], [`compile_parallel`]
//! and the [`LlvmCompileService`] alike.

use crate::adapter::{block_ref, value_ref, AdapterScratch, LlvmAdapter};
use crate::baselines::{compile_function_baseline, compile_function_stacky};
use crate::ir::{Inst, Module, Type};
use std::hash::Hasher;
use std::sync::Arc;
use tpde_core::adapter::{FuncRef, InstRef, IrAdapter};
use tpde_core::codebuf::{CodeBuffer, SymbolBinding};
use tpde_core::codegen::{
    declare_func_symbols, CallTarget, CodeGen, CompileOptions, CompileSession, CompileStats,
    CompiledModule, FuncCodeGen, InstCompiler,
};
use tpde_core::error::{Error, Result};
use tpde_core::hash::StableHasher;
use tpde_core::parallel::compile_sharded;
use tpde_core::service::{CompileService, ServiceBackend, ServiceConfig};
use tpde_core::target::{Target, TargetArch};
use tpde_core::timing::PassTimings;
use tpde_core::verify::Verifier;
use tpde_enc::{A64Target, X64Target};
use tpde_snippets::{AsmAddr, AsmOperand, SnippetEmitter};

/// The instruction compiler for the LLVM-IR-like IR, generic over the target
/// through the snippet-encoder abstraction.
///
/// Holds a reusable call-argument buffer and a per-module callee symbol
/// cache so compiling a call instruction does not allocate or re-intern the
/// callee name in steady state.
#[derive(Default)]
pub(crate) struct LlvmInstCompiler {
    arg_refs: Vec<tpde_core::codegen::ValuePartRef>,
    /// Cached `SymbolId` per IR function index, filled on first call. The
    /// ids belong to one module's `CodeBuffer`, so the cache is tagged with
    /// the module's address and dropped when a different module shows up.
    callee_syms: Vec<Option<tpde_core::codebuf::SymbolId>>,
    callee_syms_module: usize,
}

impl LlvmInstCompiler {
    /// Drops the per-module callee-symbol cache (keeping its capacity).
    /// Workers call this before each module, since the address tag alone
    /// cannot distinguish a new module that reuses a dropped module's
    /// allocation.
    fn reset(&mut self) {
        self.callee_syms.clear();
        self.callee_syms_module = 0;
    }

    fn operand<'m, T: SnippetEmitter>(
        cg: &mut FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        v: crate::ir::Value,
    ) -> Result<AsmOperand> {
        Ok(AsmOperand::Val(cg.val_ref(value_ref(v), 0)?))
    }

    fn load<'m, T: SnippetEmitter>(
        cg: &mut FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        ty: Type,
        res: crate::ir::Value,
        addr: &AsmAddr,
    ) -> Result<()> {
        // The IR has no sign-extending loads; sub-64-bit loads always
        // zero-extend.
        T::enc_load(cg, ty.size(), false, ty.is_fp(), (value_ref(res), 0), addr)
    }

    fn store<'m, T: SnippetEmitter>(
        cg: &mut FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        ty: Type,
        addr: &AsmAddr,
        value: crate::ir::Value,
    ) -> Result<()> {
        let v = Self::operand(cg, value)?;
        T::enc_store(cg, ty.size(), ty.is_fp(), addr, &v)
    }

    /// Whether a load's result can be left in the stack variable it reads,
    /// as its home ([`FuncCodeGen::define_in_frame`], or
    /// [`FuncCodeGen::define_in_reg`] for a variable that lives in a
    /// register), if [`SnippetEmitter::LAZY_STACK_LOADS`] holds. The
    /// variable must not escape, the load must be 4 or 8 bytes, and no
    /// store to the variable may run between the load and a use of its
    /// result unless the store is emitted after the load and before every
    /// such use, so that it moves the result out first
    /// ([`FuncCodeGen::clobber_frame`], [`FuncCodeGen::store_to_var_reg`]).
    ///
    /// The layout is a reverse post-order, so a use is emitted at or after
    /// the load's block `def`, and the result `v` can only be live in the
    /// blocks its live range `[def, last]` covers. A store in block `b`
    /// is therefore harmless when `b` is before `def` or after `last` (`v`
    /// is dead there), or is `def` itself or a `last` that `v` does not
    /// live out of: every use that can run after such a store is emitted
    /// after it. Any store strictly inside the range, or in a `last` that
    /// `v` lives out of, refuses the home.
    fn load_can_wait<'m, T: SnippetEmitter>(
        cg: &FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        load: &Inst,
    ) -> bool {
        let Inst::Load { ty, res, addr, off } = *load else {
            return false;
        };
        if !T::LAZY_STACK_LOADS || !matches!(ty.size(), 4 | 8) {
            return false;
        }
        let adapter = cg.adapter;
        let Some(var) = adapter.deferrable_stack_load(addr, off, ty.size()) else {
            return false;
        };
        let (def, live) = (cg.cur_pos(), cg.analysis.live(value_ref(res)));
        let clobbers =
            |pos: u32| pos > def && (pos < live.last || (pos == live.last && live.last_full));
        !adapter
            .stack_var_store_blocks(var)
            .any(|b| clobbers(cg.analysis.pos(b)))
    }

    /// The register the stack variable `base` is the address of lives in,
    /// if it got one ([`InstCompiler::stack_vars_in_regs`]).
    fn var_reg<'m, T: SnippetEmitter>(
        cg: &FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        base: &AsmOperand,
    ) -> Option<tpde_core::regs::Reg> {
        match base {
            AsmOperand::Val(p) => cg.val_var_reg(p),
            AsmOperand::Imm(_) => None,
        }
    }

    /// An indexed `gep`'s address plus `access_off` as one operand
    /// `[base + index*scale + disp]`, on a target with
    /// [`SnippetEmitter::INDEXED_ADDR`]: the index that stays in a register
    /// and `disp`. It needs a scale the addressing mode has (or a constant
    /// index, which goes into `disp`) and a `disp` that fits in 32 bits;
    /// the operand then computes the same 64-bit address as the
    /// multiply-and-add sequence.
    fn gep_operand<'m, T: SnippetEmitter>(
        cg: &FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        gep: &Inst,
        access_off: i32,
    ) -> Option<(Option<crate::ir::Value>, i32)> {
        let Inst::Gep {
            index: Some(index),
            scale,
            off,
            ..
        } = *gep
        else {
            return None;
        };
        if !T::INDEXED_ADDR {
            return None;
        }
        let adapter = cg.adapter;
        let index_ref = value_ref(index);
        let mut disp = off.wrapping_add(access_off as i64);
        let reg_index = if adapter.val_is_const(index_ref) {
            let index_bits = adapter.val_const_data(index_ref, 0);
            disp = disp.wrapping_add(index_bits.wrapping_mul(scale as u64) as i64);
            None
        } else if matches!(scale, 1 | 2 | 4 | 8) {
            Some(index)
        } else {
            return None;
        };
        Some((reg_index, i32::try_from(disp).ok()?))
    }

    /// The access an indexed `gep` can be folded into, with the
    /// [`Self::gep_operand`] of the folded memory operand. The access is
    /// the next instruction, if it is a load or a store through the GEP's
    /// result and the GEP's only use.
    fn gep_access<'m, T: SnippetEmitter>(
        cg: &FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        inst: InstRef,
        gep: &Inst,
    ) -> Option<(InstRef, Option<crate::ir::Value>, i32)> {
        let Inst::Gep { res, .. } = *gep else {
            return None;
        };
        let adapter = cg.adapter;
        let next = adapter.next_inst_in_block(inst)?;
        let access_off = match *adapter.inst(next) {
            Inst::Load { addr, off, .. } if addr == res => off,
            Inst::Store {
                addr, off, value, ..
            } if addr == res && value != res => off,
            _ => return None,
        };
        if cg.analysis.live(value_ref(res)).uses != 1 {
            return None;
        }
        let (reg_index, disp) = Self::gep_operand(cg, gep, access_off)?;
        Some((next, reg_index, disp))
    }
}

impl<'m, T: SnippetEmitter> InstCompiler<LlvmAdapter<'m>, T> for LlvmInstCompiler {
    fn stack_vars_in_regs(&self) -> bool {
        T::LAZY_STACK_LOADS
    }

    fn compile_inst(
        &mut self,
        cg: &mut FuncCodeGen<'_, LlvmAdapter<'m>, T>,
        inst: InstRef,
    ) -> Result<()> {
        // `inst()` borrows from the module ('m), not from the adapter
        // borrow, so no clone is needed before mutating `cg`.
        let adapter = cg.adapter;
        let ir: &'m Inst = adapter.inst(inst);
        match *ir {
            Inst::Bin {
                op,
                ty,
                res,
                lhs,
                rhs,
            } => {
                let l = Self::operand(cg, lhs)?;
                let r = Self::operand(cg, rhs)?;
                T::enc_bin(cg, op, ty.size(), (value_ref(res), 0), &l, &r)
            }
            Inst::Div {
                signed,
                rem,
                ty,
                res,
                lhs,
                rhs,
            } => {
                let l = Self::operand(cg, lhs)?;
                let r = Self::operand(cg, rhs)?;
                T::enc_divrem(cg, signed, rem, ty.size(), (value_ref(res), 0), &l, &r)
            }
            Inst::Shift {
                kind,
                ty,
                res,
                lhs,
                rhs,
            } => {
                let l = Self::operand(cg, lhs)?;
                let r = Self::operand(cg, rhs)?;
                T::enc_shift(cg, kind, ty.size(), (value_ref(res), 0), &l, &r)
            }
            Inst::Icmp {
                cc,
                ty,
                res,
                lhs,
                rhs,
            } => {
                // compare + branch fusion (§3.4.4): if the next instruction is
                // a conditional branch on this result and this is its only
                // use, emit the fused form and skip the branch.
                if let Some(next) = cg.adapter.next_inst_in_block(inst) {
                    if let Inst::CondBr {
                        cond,
                        if_true,
                        if_false,
                    } = cg.adapter.inst(next)
                    {
                        if *cond == res && cg.analysis.live(value_ref(res)).uses == 1 {
                            let (it, if_) = (*if_true, *if_false);
                            let l = Self::operand(cg, lhs)?;
                            let r = Self::operand(cg, rhs)?;
                            cg.mark_fused(next);
                            return T::enc_icmp_branch(
                                cg,
                                cc,
                                ty.size(),
                                &l,
                                &r,
                                block_ref(it),
                                block_ref(if_),
                            );
                        }
                    }
                }
                let l = Self::operand(cg, lhs)?;
                let r = Self::operand(cg, rhs)?;
                T::enc_icmp(cg, cc, ty.size(), (value_ref(res), 0), &l, &r)
            }
            Inst::Fbin {
                op,
                ty,
                res,
                lhs,
                rhs,
            } => {
                let l = Self::operand(cg, lhs)?;
                let r = Self::operand(cg, rhs)?;
                T::enc_fbin(cg, op, ty.size(), (value_ref(res), 0), &l, &r)
            }
            Inst::Fcmp {
                cc,
                ty,
                res,
                lhs,
                rhs,
            } => {
                let l = Self::operand(cg, lhs)?;
                let r = Self::operand(cg, rhs)?;
                T::enc_fcmp(cg, cc, ty.size(), (value_ref(res), 0), &l, &r)
            }
            Inst::Fneg { ty, res, v } => {
                let s = Self::operand(cg, v)?;
                T::enc_fneg(cg, ty.size(), (value_ref(res), 0), &s)
            }
            Inst::Load { ty, res, addr, off } => {
                let base = Self::operand(cg, addr)?;
                if let Some(reg) = Self::var_reg(cg, &base) {
                    return if Self::load_can_wait(cg, ir) {
                        cg.define_in_reg(value_ref(res), reg)
                    } else {
                        cg.define_copy(value_ref(res), reg)
                    };
                }
                let slot = match &base {
                    AsmOperand::Val(p) => cg.val_stack_addr(p),
                    AsmOperand::Imm(_) => None,
                };
                let home = slot.and_then(|slot| slot.checked_add(off));
                if let Some(home) = home.filter(|_| Self::load_can_wait(cg, ir)) {
                    return cg.define_in_frame(value_ref(res), home);
                }
                Self::load(cg, ty, res, &AsmAddr::base_disp(base, off))
            }
            Inst::Store {
                ty,
                addr,
                off,
                value,
            } => {
                let base = Self::operand(cg, addr)?;
                if let Some(reg) = Self::var_reg(cg, &base) {
                    let v = cg.val_ref(value_ref(value), 0)?;
                    return cg.store_to_var_reg(reg, &v);
                }
                let frame_off = match &base {
                    AsmOperand::Val(p) if T::LAZY_STACK_LOADS => cg.val_stack_addr(p),
                    _ => None,
                };
                if let Some(dst) = frame_off.and_then(|slot| slot.checked_add(off)) {
                    let v = value_ref(value);
                    // storing a value back to its own home changes nothing
                    if cg.val_home(v) == Some(dst) && adapter.val_part_size(v, 0) == ty.size() {
                        cg.val_ref(v, 0)?;
                        return Ok(());
                    }
                    // before the operand is taken, so a value homed here
                    // that this store reads is still live for the clobber
                    cg.clobber_frame(dst, ty.size())?;
                }
                Self::store(cg, ty, &AsmAddr::base_disp(base, off), value)
            }
            Inst::Gep {
                res,
                base,
                index,
                scale,
                off,
            } => {
                // address + memory access fusion: the next instruction's
                // memory operand computes the address instead
                let indexed = |cg: &mut FuncCodeGen<'_, LlvmAdapter<'m>, T>, reg_index, disp| {
                    let base = Self::operand(cg, base)?;
                    let index = match reg_index {
                        Some(i) => Some((Self::operand(cg, i)?, scale as u8)),
                        None => None,
                    };
                    Ok::<_, Error>(AsmAddr { base, index, disp })
                };
                if let Some((next, reg_index, disp)) = Self::gep_access(cg, inst, ir) {
                    cg.mark_fused(next);
                    let a = indexed(cg, reg_index, disp)?;
                    return match *adapter.inst(next) {
                        Inst::Load { ty, res, .. } => Self::load(cg, ty, res, &a),
                        Inst::Store { ty, value, .. } => Self::store(cg, ty, &a, value),
                        _ => unreachable!("gep_access returns a load or store"),
                    };
                }
                // otherwise one address computation, if the operand exists
                if let Some((reg_index, disp)) = Self::gep_operand(cg, ir, 0) {
                    let a = indexed(cg, reg_index, disp)?;
                    return T::enc_addr(cg, (value_ref(res), 0), &a);
                }
                // res = base + index*scale + off, computed with integer snippets
                let b = Self::operand(cg, base)?;
                match index {
                    None => {
                        let o = AsmOperand::Imm(off as u64);
                        T::enc_bin(cg, crate::ir::BinOp::Add, 8, (value_ref(res), 0), &b, &o)
                    }
                    Some(i) => {
                        let iv = Self::operand(cg, i)?;
                        // res = index * scale; res = res + base; res = res + off
                        // The intermediate references to `res` are built
                        // directly (not via val_ref) so they do not count as
                        // additional uses of the result.
                        let res_ref = |cg: &FuncCodeGen<'_, LlvmAdapter<'m>, T>| {
                            tpde_core::codegen::ValuePartRef {
                                val: value_ref(res),
                                part: 0,
                                bank: cg.adapter.val_part_bank(value_ref(res), 0),
                                size: 8,
                                is_const: false,
                                const_val: 0,
                            }
                        };
                        T::enc_bin(
                            cg,
                            crate::ir::BinOp::Mul,
                            8,
                            (value_ref(res), 0),
                            &iv,
                            &AsmOperand::Imm(scale as u64),
                        )?;
                        let partial = AsmOperand::Val(res_ref(cg));
                        T::enc_bin(
                            cg,
                            crate::ir::BinOp::Add,
                            8,
                            (value_ref(res), 0),
                            &partial,
                            &b,
                        )?;
                        if off != 0 {
                            let partial = AsmOperand::Val(res_ref(cg));
                            T::enc_bin(
                                cg,
                                crate::ir::BinOp::Add,
                                8,
                                (value_ref(res), 0),
                                &partial,
                                &AsmOperand::Imm(off as u64),
                            )?;
                        }
                        Ok(())
                    }
                }
            }
            Inst::Cast {
                signed,
                from,
                to,
                res,
                v,
            } => {
                let s = Self::operand(cg, v)?;
                T::enc_ext(cg, signed, from.size(), to.size(), (value_ref(res), 0), &s)
            }
            Inst::IntToFp { from, to, res, v } => {
                let s = Self::operand(cg, v)?;
                T::enc_int_to_fp(cg, from.size(), to.size(), (value_ref(res), 0), &s)
            }
            Inst::FpToInt { from, to, res, v } => {
                let s = Self::operand(cg, v)?;
                T::enc_fp_to_int(cg, from.size(), to.size(), (value_ref(res), 0), &s)
            }
            Inst::FpConvert { from, to, res, v } => {
                let s = Self::operand(cg, v)?;
                T::enc_fp_convert(cg, from.size(), to.size(), (value_ref(res), 0), &s)
            }
            Inst::Select {
                ty,
                res,
                cond,
                tval,
                fval,
            } => {
                let c = Self::operand(cg, cond)?;
                let t = Self::operand(cg, tval)?;
                let f = Self::operand(cg, fval)?;
                T::enc_select(cg, ty.size(), (value_ref(res), 0), &c, &t, &f)
            }
            Inst::Call {
                callee,
                res,
                ret_ty,
                ref args,
            } => {
                let module_tag = adapter.module as *const Module as usize;
                if self.callee_syms_module != module_tag {
                    self.callee_syms.clear();
                    self.callee_syms_module = module_tag;
                }
                if self.callee_syms.len() <= callee.0 as usize {
                    self.callee_syms.resize(adapter.module.funcs.len(), None);
                }
                let sym = match self.callee_syms[callee.0 as usize] {
                    Some(sym) => sym,
                    None => {
                        let f = &adapter.module.funcs[callee.0 as usize];
                        let binding = if f.internal {
                            SymbolBinding::Local
                        } else {
                            SymbolBinding::Global
                        };
                        let sym = cg.buf.declare_symbol(&f.name, binding, true);
                        self.callee_syms[callee.0 as usize] = Some(sym);
                        sym
                    }
                };
                self.arg_refs.clear();
                for a in args {
                    let r = cg.val_ref(value_ref(*a), 0)?;
                    self.arg_refs.push(r);
                }
                let ret_slot;
                let rets: &[_] = match res {
                    Some(r) if ret_ty != Type::Void => {
                        ret_slot = [(value_ref(r), 0)];
                        &ret_slot
                    }
                    _ => &[],
                };
                cg.emit_call(CallTarget::Sym(sym), &self.arg_refs, rets, None)
            }
            Inst::Br { target } => T::enc_jump(cg, block_ref(target)),
            Inst::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                let c = Self::operand(cg, cond)?;
                T::enc_branch_nonzero(cg, 4, &c, false, block_ref(if_true), block_ref(if_false))
            }
            Inst::Ret { value } => match value {
                Some(v) => {
                    let p = cg.val_ref(value_ref(v), 0)?;
                    cg.emit_return(&[p])
                }
                None => cg.emit_return_void(),
            },
        }
    }
}

// --------------------------------------------------------------------------
// The one (kind → code path) dispatch
// --------------------------------------------------------------------------

/// Which compiler answers a compile: the argument of [`compile`] and
/// [`compile_parallel`], and the choice a [`ModuleRequest`] carries to an
/// [`LlvmCompileService`].
///
/// The same worker state serves all of them, so one service pool (or one
/// thread's warm state) interleaves targets (x86-64 and AArch64) and
/// pipelines (TPDE and the paper's baselines) request by request.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ServiceBackendKind {
    /// TPDE targeting x86-64.
    TpdeX64,
    /// TPDE targeting AArch64.
    TpdeA64,
    /// The multi-pass LLVM-O0-like baseline, x86-64
    /// ([`crate::baselines::compile_baseline`]).
    BaselineO0,
    /// The copy-and-patch-style baseline, x86-64
    /// ([`crate::baselines::compile_copy_patch`]).
    CopyPatch,
}

impl ServiceBackendKind {
    /// Stable identity of the backend for artifact keying: unlike the
    /// derived `Hash` (which hashes the declaration-order discriminant,
    /// stable only within one build), these values are pinned forever, so a
    /// disk-cache key computed by one build of the service means the same
    /// backend to every other build. New variants get new tags; existing
    /// tags never change or get reused.
    ///
    /// Tags 3, 5 and 6 are retired: they named the LLVM-O1-like baseline
    /// (whose output was byte-identical to tag 2's) and the tier-0
    /// (instrumented) TPDE x86-64 and copy-and-patch backends, which were
    /// removed. They are never reused, so artifacts stored under them are
    /// simply never looked up again and age out of the disk cache's LRU.
    pub(crate) fn artifact_tag(self) -> u8 {
        match self {
            ServiceBackendKind::TpdeX64 => 0,
            ServiceBackendKind::TpdeA64 => 1,
            ServiceBackendKind::BaselineO0 => 2,
            ServiceBackendKind::CopyPatch => 4,
        }
    }

    /// The TPDE kind for a target architecture.
    fn tpde(arch: TargetArch) -> ServiceBackendKind {
        match arch {
            TargetArch::X86_64 => ServiceBackendKind::TpdeX64,
            TargetArch::Aarch64 => ServiceBackendKind::TpdeA64,
        }
    }
}

/// Runs `f` on an adapter for `module` that borrows the warm flat tables
/// in `scratch` for the duration.
fn with_adapter<R>(
    scratch: &mut AdapterScratch,
    module: &Module,
    f: impl FnOnce(&mut LlvmAdapter<'_>) -> R,
) -> R {
    let mut adapter = LlvmAdapter::with_scratch(module, std::mem::take(scratch));
    let r = f(&mut adapter);
    *scratch = adapter.into_scratch();
    r
}

/// Declares one symbol per module function, in function order, for every
/// kind: the prefix each shard buffer and the merged buffer of a sharded
/// compile start from.
fn predeclare(module: &Module, buf: &mut CodeBuffer) {
    let _ = declare_func_symbols(&LlvmAdapter::new(module), buf);
}

/// The warm state one thread compiles with, for every
/// [`ServiceBackendKind`]: the instruction compiler, the adapter's
/// flat-table scratch and the per-target code generators (built on first
/// use), kept across compiles so none regrows them. A service worker, a
/// [`compile_parallel`] thread and [`compile`]'s thread-local each own one.
#[derive(Default)]
pub struct LlvmServiceWorker {
    compiler: LlvmInstCompiler,
    scratch: AdapterScratch,
    x64: Option<CodeGen<X64Target>>,
    a64: Option<CodeGen<A64Target>>,
}

impl LlvmServiceWorker {
    /// The module unit: compiles all of `module` with `kind` on this
    /// thread. TPDE runs the framework's sequential module compile
    /// ([`CodeGen::compile_module_with`]); the baselines run their
    /// per-function unit over every function.
    fn compile_module(
        &mut self,
        module: &Module,
        kind: ServiceBackendKind,
        session: &mut CompileSession,
    ) -> Result<CompiledModule> {
        self.compiler.reset();
        match kind {
            ServiceBackendKind::TpdeX64 => {
                let cg = self
                    .x64
                    .get_or_insert_with(|| CodeGen::new(X64Target::new()));
                with_adapter(&mut self.scratch, module, |a| {
                    cg.compile_module_with(session, a, &mut self.compiler)
                })
            }
            ServiceBackendKind::TpdeA64 => {
                let cg = self
                    .a64
                    .get_or_insert_with(|| CodeGen::new(A64Target::new()));
                with_adapter(&mut self.scratch, module, |a| {
                    cg.compile_module_with(session, a, &mut self.compiler)
                })
            }
            ServiceBackendKind::BaselineO0 | ServiceBackendKind::CopyPatch => {
                let mut out = CompiledModule {
                    buf: CodeBuffer::new(),
                    stats: CompileStats::default(),
                    timings: PassTimings::new(),
                };
                let CompiledModule {
                    buf,
                    stats,
                    timings,
                } = &mut out;
                predeclare(module, buf);
                for f in 0..module.funcs.len() as u32 {
                    self.compile_func(module, kind, session, buf, f, stats, timings)?;
                }
                Ok(out)
            }
        }
    }

    /// Readies this worker and `session` for [`Self::compile_func`] calls
    /// on one module: TPDE configures the session's register file for its
    /// target; the baselines use no session.
    fn prepare(&mut self, kind: ServiceBackendKind, session: &mut CompileSession) {
        self.compiler.reset();
        match kind {
            ServiceBackendKind::TpdeX64 => self
                .x64
                .get_or_insert_with(|| CodeGen::new(X64Target::new()))
                .prepare_session(session),
            ServiceBackendKind::TpdeA64 => self
                .a64
                .get_or_insert_with(|| CodeGen::new(A64Target::new()))
                .prepare_session(session),
            ServiceBackendKind::BaselineO0 | ServiceBackendKind::CopyPatch => {}
        }
    }

    /// The per-function unit: compiles function `f` of `module` with `kind`
    /// into `buf` under `SymbolId(f)`, self-contained as
    /// [`tpde_core::parallel`] requires, or skips a declaration
    /// (`Ok(false)`). Every sharded compile and, for the baselines, the
    /// module unit emit through it.
    #[allow(clippy::too_many_arguments)]
    fn compile_func(
        &mut self,
        module: &Module,
        kind: ServiceBackendKind,
        session: &mut CompileSession,
        buf: &mut CodeBuffer,
        f: u32,
        stats: &mut CompileStats,
        timings: &mut PassTimings,
    ) -> Result<bool> {
        let (compiler, func) = (&mut self.compiler, FuncRef(f));
        match kind {
            ServiceBackendKind::TpdeX64 => {
                let cg = self
                    .x64
                    .get_or_insert_with(|| CodeGen::new(X64Target::new()));
                with_adapter(&mut self.scratch, module, |a| {
                    cg.compile_func_pooled(session, a, compiler, buf, func, stats, timings)
                })
            }
            ServiceBackendKind::TpdeA64 => {
                let cg = self
                    .a64
                    .get_or_insert_with(|| CodeGen::new(A64Target::new()));
                with_adapter(&mut self.scratch, module, |a| {
                    cg.compile_func_pooled(session, a, compiler, buf, func, stats, timings)
                })
            }
            ServiceBackendKind::BaselineO0 => {
                crate::baselines::compile_func(module, f, compile_function_baseline, buf, stats)
            }
            ServiceBackendKind::CopyPatch => {
                crate::baselines::compile_func(module, f, compile_function_stacky, buf, stats)
            }
        }
    }
}

// --------------------------------------------------------------------------
// Entry points
// --------------------------------------------------------------------------

/// The working memory of [`compile`] and of the service's admission verify,
/// kept per thread. A JIT calling [`compile`] or submitting to a service per
/// module would otherwise regrow all of it every time.
#[derive(Default)]
struct WarmState {
    worker: LlvmServiceWorker,
    session: CompileSession,
    verifier: Verifier,
}

thread_local! {
    static WARM: std::cell::RefCell<WarmState> = std::cell::RefCell::default();
}

/// The module unit with this thread's warm state (and the caller's session,
/// if given). The state is taken out of the thread-local for the duration,
/// so a nested or panicking compile just starts cold.
fn compile_on_thread(
    module: &Module,
    kind: ServiceBackendKind,
    session: Option<&mut CompileSession>,
) -> Result<CompiledModule> {
    let mut warm = WARM.take();
    let session = session.unwrap_or(&mut warm.session);
    let r = warm.worker.compile_module(module, kind, session);
    WARM.set(warm);
    r
}

/// Compiles a module with `kind` on the calling thread.
///
/// The thread keeps its working memory in a thread-local, so its first
/// compile is cold and later ones reuse what it grew. The output is
/// byte-identical to [`compile_parallel`] at any thread count and to an
/// [`LlvmCompileService`] response to the same request. `opts` is
/// ignored: [`CompileOptions`] has no settings.
pub fn compile(
    module: &Module,
    kind: ServiceBackendKind,
    _opts: &CompileOptions,
) -> Result<CompiledModule> {
    compile_on_thread(module, kind, None)
}

/// One thread's state in [`compile_parallel`].
#[derive(Default)]
struct ShardWorker {
    worker: LlvmServiceWorker,
    session: CompileSession,
    stats: CompileStats,
    timings: PassTimings,
}

/// Compiles a module with `kind`, its functions sharded across up to
/// `threads` threads (at most one per function), each with a fresh
/// worker state. Even one thread goes through the shard-and-merge path.
/// The output is byte-identical to [`compile`] for any thread count (see
/// [`tpde_core::parallel`] for the determinism contract). `opts` is
/// ignored: [`CompileOptions`] has no settings.
pub fn compile_parallel(
    module: &Module,
    kind: ServiceBackendKind,
    _opts: &CompileOptions,
    threads: usize,
) -> Result<CompiledModule> {
    let nfuncs = module.funcs.len();
    let states = (0..threads.max(1).min(nfuncs.max(1)))
        .map(|_| {
            let mut w = ShardWorker::default();
            w.worker.prepare(kind, &mut w.session);
            w
        })
        .collect();
    let (states, buf) = compile_sharded(
        nfuncs,
        states,
        |buf| predeclare(module, buf),
        |w: &mut ShardWorker, buf, f| {
            let (stats, timings) = (&mut w.stats, &mut w.timings);
            w.worker
                .compile_func(module, kind, &mut w.session, buf, f, stats, timings)
        },
    );
    let mut out = CompiledModule {
        buf: buf?,
        stats: CompileStats::default(),
        timings: PassTimings::new(),
    };
    for w in &states {
        out.stats.merge(&w.stats);
        out.timings.merge(&w.timings);
    }
    Ok(out)
}

/// [`compile`] with [`ServiceBackendKind::TpdeX64`].
pub fn compile_x64(module: &Module, opts: &CompileOptions) -> Result<CompiledModule> {
    compile(module, ServiceBackendKind::TpdeX64, opts)
}

/// [`compile`] with [`ServiceBackendKind::TpdeA64`].
pub fn compile_a64(module: &Module, opts: &CompileOptions) -> Result<CompiledModule> {
    compile(module, ServiceBackendKind::TpdeA64, opts)
}

/// [`compile_parallel`] with [`ServiceBackendKind::TpdeX64`].
pub fn compile_x64_parallel(
    module: &Module,
    opts: &CompileOptions,
    threads: usize,
) -> Result<CompiledModule> {
    compile_parallel(module, ServiceBackendKind::TpdeX64, opts, threads)
}

/// [`compile`] with the TPDE kind of `target`'s architecture, and with the
/// caller's compile session in place of the thread's own. `opts` is
/// ignored: [`CompileOptions`] has no settings.
pub fn compile_with_session<T: Target>(
    module: &Module,
    target: T,
    _opts: &CompileOptions,
    session: &mut CompileSession,
) -> Result<CompiledModule> {
    compile_on_thread(
        module,
        ServiceBackendKind::tpde(target.arch()),
        Some(session),
    )
}

// --------------------------------------------------------------------------
// Persistent compile service
// --------------------------------------------------------------------------

/// The bits above the artifact tag in a request key's first word:
/// `0b011 << 8`, the flags of the one compile configuration (fixed loop
/// registers 1, fusion 2, all-live 4 clear). Every pinned key and every
/// artifact already on disk was keyed with them, so they stay.
const CONFIG_KEY_BITS: u64 = 0x300;

/// One compile request for the LLVM-IR-like module service.
#[derive(Clone)]
pub struct ModuleRequest {
    /// The module to compile, shared with the worker threads.
    pub module: Arc<Module>,
    /// Which compiler/target answers the request.
    pub backend: ServiceBackendKind,
}

impl ModuleRequest {
    /// A request for `module` with `backend`.
    pub fn new(module: Arc<Module>, backend: ServiceBackendKind) -> ModuleRequest {
        ModuleRequest { module, backend }
    }
}

/// The [`ServiceBackend`] for the LLVM-IR-like module: every request runs
/// the same module and per-function units as [`compile`] and
/// [`compile_parallel`].
pub struct LlvmServiceBackend;

/// A persistent compile service for the LLVM-IR-like module.
pub type LlvmCompileService = CompileService<LlvmServiceBackend>;

impl ServiceBackend for LlvmServiceBackend {
    type Request = ModuleRequest;
    type Worker = LlvmServiceWorker;

    fn new_worker(&self) -> LlvmServiceWorker {
        LlvmServiceWorker::default()
    }

    /// `StableHasher` over two words: the pinned artifact tag with
    /// `CONFIG_KEY_BITS` above it, then the module's content hash.
    /// Nothing derived enters the key, so it means the same to every build
    /// (the on-disk cache outlives any single binary).
    fn request_key(&self, req: &ModuleRequest) -> Option<u64> {
        let mut h = StableHasher::new();
        h.write_u64(req.backend.artifact_tag() as u64 | CONFIG_KEY_BITS);
        h.write_u64(req.module.content_hash());
        Some(h.finish())
    }

    /// Admission-time IR verification: every defined function must satisfy
    /// the adapter contract (see [`tpde_core::verify`]) before any worker
    /// compiles it. Runs on the submitting thread with that thread's own
    /// warm tables, so concurrent submitters share nothing and a thread's
    /// second and later calls allocate nothing (the error is built from the
    /// verdict afterwards and may).
    fn verify(&self, req: &ModuleRequest) -> Result<()> {
        // Taken out for the call and put back on every path; a panic in
        // between just leaves the next call cold.
        let mut warm = WARM.take();
        let WarmState {
            worker, verifier, ..
        } = &mut warm;
        let verdict = with_adapter(&mut worker.scratch, &req.module, |a| {
            verifier.verify_module(a)
        });
        WARM.set(warm);
        verdict.map_err(Error::from)
    }

    fn func_count(&self, req: &ModuleRequest) -> usize {
        req.module.funcs.len()
    }

    fn prepare_session(
        &self,
        req: &ModuleRequest,
        worker: &mut LlvmServiceWorker,
        session: &mut CompileSession,
    ) {
        worker.prepare(req.backend, session);
    }

    fn predeclare(&self, req: &ModuleRequest, buf: &mut CodeBuffer) {
        predeclare(&req.module, buf);
    }

    fn compile_func(
        &self,
        req: &ModuleRequest,
        worker: &mut LlvmServiceWorker,
        session: &mut CompileSession,
        buf: &mut CodeBuffer,
        f: u32,
        stats: &mut CompileStats,
        timings: &mut PassTimings,
    ) -> Result<bool> {
        let (m, kind) = (&*req.module, req.backend);
        worker.compile_func(m, kind, session, buf, f, stats, timings)
    }

    fn compile_module(
        &self,
        req: &ModuleRequest,
        worker: &mut LlvmServiceWorker,
        session: &mut CompileSession,
    ) -> Result<CompiledModule> {
        worker.compile_module(&req.module, req.backend, session)
    }
}

/// Creates a persistent compile service for the LLVM-IR-like module. All
/// [`ServiceBackendKind`]s are served by the same worker pool; see
/// [`tpde_core::service`] for the scheduling and caching behaviour.
pub fn compile_service(cfg: ServiceConfig) -> LlvmCompileService {
    CompileService::new(LlvmServiceBackend, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::ALL_KINDS;
    use crate::ir::FunctionBuilder;
    use tpde_core::codebuf::SymbolId;

    /// An `internal` declaration is still an undefined, hence global,
    /// symbol, and every kind's symbol table says the same.
    #[test]
    fn every_kind_builds_the_same_symbol_table() {
        let mut m = Module::new();
        let helper = m.declare("helper", vec![Type::I64], Type::I64);
        m.funcs[helper.0 as usize].internal = true;
        let mut b = FunctionBuilder::new("local", &[Type::I64], Type::I64);
        b.set_internal();
        let r = b.call(helper, Type::I64, vec![b.arg(0)]);
        b.ret(Some(r));
        let local = m.add_function(b.build());
        let mut b = FunctionBuilder::new("main", &[Type::I64], Type::I64);
        let r = b.call(local, Type::I64, vec![b.arg(0)]);
        b.ret(Some(r));
        m.add_function(b.build());

        let table = |kind| {
            let buf = compile(&m, kind, &CompileOptions::default()).unwrap().buf;
            let syms = buf.symbols().iter().enumerate();
            syms.map(|(i, s)| {
                let name = buf.symbol_name(SymbolId(i as u32)).to_string();
                (name, s.binding, s.section.is_some(), s.is_func)
            })
            .collect::<Vec<_>>()
        };
        let want = [
            ("helper", SymbolBinding::Global, false),
            ("local", SymbolBinding::Local, true),
            ("main", SymbolBinding::Global, true),
        ]
        .map(|(name, binding, defined)| (name.to_string(), binding, defined, true));
        for kind in ALL_KINDS {
            assert_eq!(table(kind), want, "{kind:?}");
        }
    }
}
