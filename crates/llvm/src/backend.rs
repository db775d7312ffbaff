//! The TPDE back-end for the LLVM-IR-like module.
//!
//! The instruction compiler is architecture-independent: it maps IR
//! instructions onto the snippet encoders of [`tpde_snippets::SnippetEmitter`]
//! and only uses the framework for calls, returns and branch bookkeeping,
//! mirroring §5.1.2 of the paper (calls/returns/branches and compare+branch
//! fusion are the only parts that are not expressed through snippets).

use crate::adapter::{block_ref, value_ref, AdapterScratch, LlvmAdapter};
use crate::baselines::{
    compile_function_baseline, compile_function_stacky, declare_baseline_symbols, BaselineOutput,
};
use crate::ir::{Function, Inst, Module, Type};
use std::hash::Hasher;
use std::sync::{Arc, Weak};
use tpde_core::adapter::{FuncRef, InstRef, IrAdapter};
use tpde_core::codebuf::{CodeBuffer, SymbolBinding};
use tpde_core::codegen::{
    declare_func_symbols, CallTarget, CodeGen, CompileOptions, CompileSession, CompileStats,
    CompiledModule, FuncCodeGen, InstCompiler,
};
use tpde_core::error::{Error, Result};
use tpde_core::hash::StableHasher;
use tpde_core::parallel::{ParallelDriver, WorkerPool};
use tpde_core::service::{CompileService, Request, ServiceBackend, ServiceConfig, ServiceResponse};
use tpde_core::target::Target;
use tpde_core::timing::PassTimings;
use tpde_core::verify::Verifier;
use tpde_enc::{A64Target, X64Target};
use tpde_snippets::{AsmOperand, SnippetEmitter};

/// The instruction compiler for the LLVM-IR-like IR, generic over the target
/// through the snippet-encoder abstraction.
///
/// Holds a reusable call-argument buffer and a per-module callee symbol
/// cache so compiling a call instruction does not allocate or re-intern the
/// callee name in steady state.
#[derive(Default)]
pub struct LlvmInstCompiler {
    arg_refs: Vec<tpde_core::codegen::ValuePartRef>,
    /// Cached `SymbolId` per IR function index, filled on first call. The
    /// ids belong to one module's `CodeBuffer`, so the cache is tagged with
    /// the module's address and dropped when a different module shows up.
    callee_syms: Vec<Option<tpde_core::codebuf::SymbolId>>,
    callee_syms_module: usize,
}

impl LlvmInstCompiler {
    /// Drops the per-module callee-symbol cache (keeping its capacity).
    /// Long-lived workers call this when they move to a different module,
    /// since the address tag alone cannot distinguish a new module that
    /// reuses a dropped module's allocation.
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
}

impl<'m, T: SnippetEmitter> InstCompiler<LlvmAdapter<'m>, T> for LlvmInstCompiler {
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
                if cg.options().fusion {
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
                let a = Self::operand(cg, addr)?;
                T::enc_load(
                    cg,
                    ty.size(),
                    // The IR has no sign-extending loads; sub-64-bit loads
                    // always zero-extend.
                    false,
                    ty.is_fp(),
                    (value_ref(res), 0),
                    &a,
                    off,
                )
            }
            Inst::Store {
                ty,
                addr,
                off,
                value,
            } => {
                let a = Self::operand(cg, addr)?;
                let v = Self::operand(cg, value)?;
                T::enc_store(cg, ty.size(), ty.is_fp(), &a, off, &v)
            }
            Inst::Gep {
                res,
                base,
                index,
                scale,
                off,
            } => {
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

/// Compiles a module with the TPDE back-end for x86-64.
pub fn compile_x64(module: &Module, opts: &CompileOptions) -> Result<CompiledModule> {
    compile_with_target(module, X64Target::new(), opts)
}

/// Compiles a module with the TPDE back-end for AArch64.
pub fn compile_a64(module: &Module, opts: &CompileOptions) -> Result<CompiledModule> {
    compile_with_target(module, A64Target::new(), opts)
}

/// The working memory the one-shot entry points and the service's admission
/// verify keep per thread: compile session, adapter tables, instruction
/// compiler and verifier. A JIT calling [`compile_x64`] or submitting to a
/// service per module would otherwise regrow all of it every time.
#[derive(Default)]
struct WarmState {
    session: CompileSession,
    scratch: AdapterScratch,
    compiler: LlvmInstCompiler,
    verifier: Verifier,
}

thread_local! {
    static WARM: std::cell::RefCell<WarmState> = std::cell::RefCell::default();
}

/// One-shot sequential compile with this thread's warm state (and the
/// caller's session, if given). The state is taken out of the thread-local
/// for the duration, so a nested or panicking compile just starts cold.
fn compile_warm<T: Target + SnippetEmitter>(
    cg: &CodeGen<T>,
    module: &Module,
    session: Option<&mut CompileSession>,
) -> Result<CompiledModule> {
    let mut warm = WARM.take();
    // The callee-symbol cache is per module, and a module's address can be
    // reused by the next one.
    warm.compiler.reset();
    let r = tpde_service_module(
        cg,
        &mut warm.compiler,
        &mut warm.scratch,
        module,
        session.unwrap_or(&mut warm.session),
    );
    WARM.set(warm);
    r
}

/// Compiles a module with the TPDE back-end for an arbitrary target that has
/// snippet encoders.
pub fn compile_with_target<T: Target + SnippetEmitter>(
    module: &Module,
    target: T,
    opts: &CompileOptions,
) -> Result<CompiledModule> {
    compile_warm(&CodeGen::new(target, opts.clone()), module, None)
}

/// Like [`compile_with_target`], but with the caller's compile session in
/// place of the thread's own.
pub fn compile_with_session<T: Target + SnippetEmitter>(
    module: &Module,
    target: T,
    opts: &CompileOptions,
    session: &mut tpde_core::codegen::CompileSession,
) -> Result<CompiledModule> {
    compile_warm(&CodeGen::new(target, opts.clone()), module, Some(session))
}

/// Compiles a module for x86-64 with functions sharded across `threads`
/// worker threads. The output is byte-identical to [`compile_x64`] for any
/// thread count (see [`tpde_core::parallel`] for the determinism contract).
pub fn compile_x64_parallel(
    module: &Module,
    opts: &CompileOptions,
    threads: usize,
) -> Result<CompiledModule> {
    compile_with_target_parallel(module, X64Target::new(), opts, threads)
}

/// Compiles a module for AArch64 with functions sharded across `threads`
/// worker threads; byte-identical to [`compile_a64`].
pub fn compile_a64_parallel(
    module: &Module,
    opts: &CompileOptions,
    threads: usize,
) -> Result<CompiledModule> {
    compile_with_target_parallel(module, A64Target::new(), opts, threads)
}

/// Parallel variant of [`compile_with_target`]: every worker owns a full
/// compile session, an [`LlvmAdapter`] that pre-indexes functions
/// independently, and its own instruction compiler (so the per-module
/// callee-symbol cache is worker-local).
pub fn compile_with_target_parallel<T: Target + SnippetEmitter + Sync>(
    module: &Module,
    target: T,
    opts: &CompileOptions,
    threads: usize,
) -> Result<CompiledModule> {
    let cg = CodeGen::new(target, opts.clone());
    ParallelDriver::new(threads).compile_module(
        &cg,
        || LlvmAdapter::new(module),
        LlvmInstCompiler::default,
    )
}

/// Parallel variant of [`compile_with_session`]: reuses the pool's worker
/// sessions, so no worker regrows its working memory from module to module.
pub fn compile_with_pool<T: Target + SnippetEmitter + Sync>(
    module: &Module,
    target: T,
    opts: &CompileOptions,
    threads: usize,
    pool: &mut WorkerPool,
) -> Result<CompiledModule> {
    let cg = CodeGen::new(target, opts.clone());
    ParallelDriver::new(threads).compile_module_with(
        pool,
        &cg,
        || LlvmAdapter::new(module),
        LlvmInstCompiler::default,
    )
}

// --------------------------------------------------------------------------
// Persistent compile service
// --------------------------------------------------------------------------

/// Which compiler answers a [`ModuleRequest`].
///
/// One [`LlvmCompileService`] serves all of these from the same persistent
/// worker pool — heterogeneous targets (x86-64 and AArch64) and
/// heterogeneous pipelines (TPDE and the paper's baselines) can be
/// interleaved request by request without re-spawning threads.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ServiceBackendKind {
    /// TPDE targeting x86-64 (byte-identical to [`compile_x64`]).
    TpdeX64,
    /// TPDE targeting AArch64 (byte-identical to [`compile_a64`]).
    TpdeA64,
    /// The multi-pass LLVM-O0-like baseline, x86-64
    /// (byte-identical to [`crate::baselines::compile_baseline`] at level 0).
    BaselineO0,
    /// The multi-pass LLVM-O1-like baseline, x86-64 (level 1).
    BaselineO1,
    /// The copy-and-patch-style baseline, x86-64
    /// (byte-identical to [`crate::baselines::compile_copy_patch`]).
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
    /// Tags 5 and 6 are retired: they named the tier-0 (instrumented) TPDE
    /// x86-64 and copy-and-patch backends, which were removed. They are never
    /// reused, so artifacts stored under them are simply never looked up
    /// again and age out of the disk cache's LRU.
    pub fn artifact_tag(self) -> u8 {
        match self {
            ServiceBackendKind::TpdeX64 => 0,
            ServiceBackendKind::TpdeA64 => 1,
            ServiceBackendKind::BaselineO0 => 2,
            ServiceBackendKind::BaselineO1 => 3,
            ServiceBackendKind::CopyPatch => 4,
        }
    }
}

/// One compile request for the LLVM-IR-like module service.
#[derive(Clone)]
pub struct ModuleRequest {
    /// The module to compile, shared with the worker threads.
    pub module: Arc<Module>,
    /// Which compiler/target answers the request.
    pub backend: ServiceBackendKind,
    /// Compile options (part of the cache key).
    pub opts: CompileOptions,
}

impl ModuleRequest {
    /// A request with default compile options.
    pub fn new(module: Arc<Module>, backend: ServiceBackendKind) -> ModuleRequest {
        ModuleRequest {
            module,
            backend,
            opts: CompileOptions::default(),
        }
    }
}

/// A [`CodeGen`] cached per worker, rebuilt only when a request carries
/// different options than the previous one for the same target.
struct CachedCg<T: Target> {
    opts: CompileOptions,
    cg: CodeGen<T>,
}

impl<T: Target> CachedCg<T> {
    fn new(make: impl Fn() -> T) -> CachedCg<T> {
        CachedCg {
            opts: CompileOptions::default(),
            cg: CodeGen::new(make(), CompileOptions::default()),
        }
    }

    fn get(&mut self, opts: &CompileOptions, make: impl Fn() -> T) -> &CodeGen<T> {
        if self.opts != *opts {
            self.cg = CodeGen::new(make(), opts.clone());
            self.opts = opts.clone();
        }
        &self.cg
    }
}

/// Warm per-thread state of the LLVM service: the instruction compiler, the
/// adapter's flat-table scratch and the per-target code generators, all
/// kept across requests so no request regrows them.
pub struct LlvmServiceWorker {
    compiler: LlvmInstCompiler,
    scratch: AdapterScratch,
    x64: CachedCg<X64Target>,
    a64: CachedCg<A64Target>,
    /// The previous request's module. Holding a `Weak` pins the allocation's
    /// address (the control block outlives the module), so pointer equality
    /// is a sound "same module?" test and the callee-symbol cache is cleared
    /// exactly when the module really changes.
    last_module: Weak<Module>,
}

impl LlvmServiceWorker {
    fn sync_module(&mut self, module: &Arc<Module>) {
        if !std::ptr::eq(self.last_module.as_ptr(), Arc::as_ptr(module)) {
            self.compiler.reset();
            self.last_module = Arc::downgrade(module);
        }
    }
}

/// The [`ServiceBackend`] for the LLVM-IR-like module; see
/// [`ServiceBackendKind`] for the compilers it dispatches to.
pub struct LlvmServiceBackend;

/// A persistent compile service for the LLVM-IR-like module.
pub type LlvmCompileService = CompileService<LlvmServiceBackend>;

/// Wraps a baseline result as a [`CompiledModule`] (the baselines track an
/// instruction count but no per-pass timings).
fn wrap_baseline(out: BaselineOutput, module: &Module) -> CompiledModule {
    CompiledModule {
        buf: out.buf,
        stats: CompileStats {
            funcs: module.funcs.iter().filter(|f| !f.is_decl).count(),
            insts: out.insts,
            ..CompileStats::default()
        },
        timings: PassTimings::new(),
    }
}

/// Sequential whole-module TPDE compile with warm worker state — this *is*
/// the one-shot path ([`CodeGen::compile_module_with`]), so the batched
/// service output is byte-identical by construction.
fn tpde_service_module<T: Target + SnippetEmitter>(
    cg: &CodeGen<T>,
    compiler: &mut LlvmInstCompiler,
    scratch: &mut AdapterScratch,
    module: &Module,
    session: &mut CompileSession,
) -> Result<CompiledModule> {
    let mut adapter = LlvmAdapter::with_scratch(module, std::mem::take(scratch));
    let r = cg.compile_module_with(session, &mut adapter, compiler);
    *scratch = adapter.into_scratch();
    r
}

/// Per-function TPDE shard unit with warm worker state; the same
/// [`CodeGen::compile_func_pooled`] unit the scoped parallel driver uses.
#[allow(clippy::too_many_arguments)]
fn tpde_service_func<T: Target + SnippetEmitter>(
    cg: &CodeGen<T>,
    compiler: &mut LlvmInstCompiler,
    scratch: &mut AdapterScratch,
    module: &Module,
    session: &mut CompileSession,
    buf: &mut CodeBuffer,
    f: u32,
    stats: &mut CompileStats,
    timings: &mut PassTimings,
) -> Result<bool> {
    let mut adapter = LlvmAdapter::with_scratch(module, std::mem::take(scratch));
    let r = cg.compile_func_pooled(
        session,
        &mut adapter,
        compiler,
        buf,
        FuncRef(f),
        stats,
        timings,
    );
    *scratch = adapter.into_scratch();
    r
}

/// Per-function baseline shard unit (the closure body of the scoped
/// `compile_baseline_sharded` harness, reused by the service).
fn baseline_service_func(
    f: &Function,
    buf: &mut CodeBuffer,
    stats: &mut CompileStats,
    compile_fn: impl FnOnce(&Function, &mut CodeBuffer) -> Result<()>,
) -> Result<bool> {
    if f.is_decl {
        return Ok(false);
    }
    compile_fn(f, buf)?;
    buf.finish_func_fixups()?;
    stats.funcs += 1;
    stats.insts += f.inst_count();
    Ok(true)
}

impl ServiceBackend for LlvmServiceBackend {
    type Request = ModuleRequest;
    type Worker = LlvmServiceWorker;

    fn new_worker(&self) -> LlvmServiceWorker {
        LlvmServiceWorker {
            compiler: LlvmInstCompiler::default(),
            scratch: AdapterScratch::default(),
            x64: CachedCg::new(X64Target::new),
            a64: CachedCg::new(A64Target::new),
            last_module: Weak::new(),
        }
    }

    /// `StableHasher` over two words: the pinned artifact tag with the
    /// compile options as flag bits above it, then the module's content
    /// hash. Nothing derived enters the key, so it means the same to every
    /// build (the on-disk cache outlives any single binary).
    fn request_key(&self, req: &ModuleRequest) -> Option<u64> {
        // All fields named: a new option must not be left out of the key.
        let CompileOptions {
            fixed_loop_regs,
            fusion,
            assume_all_live,
        } = req.opts;
        let opts = fixed_loop_regs as u64 | (fusion as u64) << 1 | (assume_all_live as u64) << 2;
        let mut h = StableHasher::new();
        h.write_u64(req.backend.artifact_tag() as u64 | opts << 8);
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
        let mut adapter = LlvmAdapter::with_scratch(&req.module, std::mem::take(&mut warm.scratch));
        let verdict = warm.verifier.verify_module(&mut adapter);
        warm.scratch = adapter.into_scratch();
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
        match req.backend {
            ServiceBackendKind::TpdeX64 => {
                worker
                    .x64
                    .get(&req.opts, X64Target::new)
                    .prepare_session(session);
            }
            ServiceBackendKind::TpdeA64 => {
                worker
                    .a64
                    .get(&req.opts, A64Target::new)
                    .prepare_session(session);
            }
            // The baselines do not use the framework session.
            _ => {}
        }
    }

    fn predeclare(&self, req: &ModuleRequest, buf: &mut CodeBuffer) {
        match req.backend {
            ServiceBackendKind::TpdeX64 | ServiceBackendKind::TpdeA64 => {
                let _ = declare_func_symbols(&LlvmAdapter::new(&req.module), buf);
            }
            _ => declare_baseline_symbols(&req.module, buf),
        }
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
        let module = &*req.module;
        worker.sync_module(&req.module);
        match req.backend {
            ServiceBackendKind::TpdeX64 => tpde_service_func(
                worker.x64.get(&req.opts, X64Target::new),
                &mut worker.compiler,
                &mut worker.scratch,
                module,
                session,
                buf,
                f,
                stats,
                timings,
            ),
            ServiceBackendKind::TpdeA64 => tpde_service_func(
                worker.a64.get(&req.opts, A64Target::new),
                &mut worker.compiler,
                &mut worker.scratch,
                module,
                session,
                buf,
                f,
                stats,
                timings,
            ),
            ServiceBackendKind::BaselineO0 => {
                baseline_service_func(&module.funcs[f as usize], buf, stats, |func, buf| {
                    compile_function_baseline(module, func, buf, 0)
                })
            }
            ServiceBackendKind::BaselineO1 => {
                baseline_service_func(&module.funcs[f as usize], buf, stats, |func, buf| {
                    compile_function_baseline(module, func, buf, 1)
                })
            }
            ServiceBackendKind::CopyPatch => {
                baseline_service_func(&module.funcs[f as usize], buf, stats, |func, buf| {
                    compile_function_stacky(module, func, buf)
                })
            }
        }
    }

    fn compile_module(
        &self,
        req: &ModuleRequest,
        worker: &mut LlvmServiceWorker,
        session: &mut CompileSession,
    ) -> Result<CompiledModule> {
        let module = &*req.module;
        worker.sync_module(&req.module);
        match req.backend {
            ServiceBackendKind::TpdeX64 => tpde_service_module(
                worker.x64.get(&req.opts, X64Target::new),
                &mut worker.compiler,
                &mut worker.scratch,
                module,
                session,
            ),
            ServiceBackendKind::TpdeA64 => tpde_service_module(
                worker.a64.get(&req.opts, A64Target::new),
                &mut worker.compiler,
                &mut worker.scratch,
                module,
                session,
            ),
            ServiceBackendKind::BaselineO0 => {
                crate::baselines::compile_baseline(module, 0).map(|o| wrap_baseline(o, module))
            }
            ServiceBackendKind::BaselineO1 => {
                crate::baselines::compile_baseline(module, 1).map(|o| wrap_baseline(o, module))
            }
            ServiceBackendKind::CopyPatch => {
                crate::baselines::compile_copy_patch(module).map(|o| wrap_baseline(o, module))
            }
        }
    }
}

/// Creates a persistent compile service for the LLVM-IR-like module. All
/// [`ServiceBackendKind`]s are served by the same worker pool; see
/// [`tpde_core::service`] for the scheduling and caching behaviour.
pub fn compile_service(cfg: ServiceConfig) -> LlvmCompileService {
    CompileService::new(LlvmServiceBackend, cfg)
}

/// Submits an x86-64 TPDE compile to a service and waits for the response;
/// the output is byte-identical to [`compile_x64`].
pub fn compile_service_x64(
    svc: &LlvmCompileService,
    module: &Arc<Module>,
    opts: &CompileOptions,
) -> ServiceResponse {
    svc.compile(Request::new(ModuleRequest {
        module: Arc::clone(module),
        backend: ServiceBackendKind::TpdeX64,
        opts: opts.clone(),
    }))
}

/// Submits an AArch64 TPDE compile to a service and waits for the response;
/// the output is byte-identical to [`compile_a64`].
pub fn compile_service_a64(
    svc: &LlvmCompileService,
    module: &Arc<Module>,
    opts: &CompileOptions,
) -> ServiceResponse {
    svc.compile(Request::new(ModuleRequest {
        module: Arc::clone(module),
        backend: ServiceBackendKind::TpdeA64,
        opts: opts.clone(),
    }))
}
