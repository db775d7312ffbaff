//! The single-pass code-generation driver.
//!
//! [`CodeGen`] drives module compilation: for every defined function it runs
//! the analysis pass and then walks the blocks in layout order exactly once,
//! delegating the semantics of each instruction to a user-provided
//! [`InstCompiler`]. The per-function context handed to instruction
//! compilers is [`FuncCodeGen`]; it provides operand handles, register
//! allocation, scratch registers, spilling, phi/branch handling, calls and
//! returns — everything described in §3.4 of the paper.

use crate::adapter::{BlockRef, FuncRef, InstRef, IrAdapter, Linkage, ValueRef};
use crate::analysis::{Analysis, Analyzer};
use crate::assignments::{
    Assignment, AssignmentTable, FrameAlloc, PartState, Recompute, MAX_PARTS,
};
use crate::bitset::DenseBitSet;
use crate::callconv::ArgLoc;
use crate::codebuf::{CodeBuffer, FixupPool, Label, SectionKind, SymbolBinding, SymbolId};
use crate::error::{Error, Result};
use crate::regalloc::{RegFile, RegOwner};
use crate::regs::{Reg, RegBank, RegSet};
use crate::target::{FrameState, Target};
use crate::timing::{PassTimings, Phase};
use std::cmp::Reverse;
use std::time::Instant;

/// The compile configuration. It has no settings: every compile runs the
/// one configuration (fixed loop registers, instruction fusion, liveness
/// from the analysis pass). The type remains for the `tpde_llvm` compile
/// wrappers, which take and ignore it.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileOptions {}

/// Counters collected during compilation (used by the benches and tests).
#[derive(Clone, Debug, Default)]
pub struct CompileStats {
    /// Number of compiled functions.
    pub funcs: usize,
    /// Number of compiled basic blocks.
    pub blocks: usize,
    /// Number of compiled IR instructions.
    pub insts: usize,
    /// Number of emitted spill stores.
    pub spills: usize,
    /// Number of emitted reloads.
    pub reloads: usize,
    /// Number of emitted register/memory moves (excluding spills/reloads).
    pub moves: usize,
}

impl CompileStats {
    /// Adds another set of counters (used to combine per-worker statistics
    /// of a parallel compile; the sums are independent of worker order).
    pub fn merge(&mut self, other: &CompileStats) {
        self.funcs += other.funcs;
        self.blocks += other.blocks;
        self.insts += other.insts;
        self.spills += other.spills;
        self.reloads += other.reloads;
        self.moves += other.moves;
    }
}

/// Text bytes reserved per IR instruction of a module before compiling it,
/// so the section rarely has to grow and move while it is filled (the
/// in-repo workloads take 6–9 on x86-64 and 8–13 on AArch64).
const TEXT_BYTES_PER_INST: usize = 16;

/// A compiled module: the filled code buffer plus statistics and timings.
#[derive(Debug)]
pub struct CompiledModule {
    /// All sections, symbols and relocations of the module.
    pub buf: CodeBuffer,
    /// Event counters.
    pub stats: CompileStats,
    /// Per-pass wall-clock timings.
    pub timings: PassTimings,
}

impl CompiledModule {
    /// Size of the generated text section in bytes.
    pub fn text_size(&self) -> u64 {
        self.buf.section_size(SectionKind::Text)
    }

    /// Structural consistency check of the compiled module: every defined
    /// symbol lies within its section, every relocation patches a field that
    /// exists and targets a symbol that exists.
    ///
    /// The compiler upholds these invariants by construction; the check
    /// exists for modules that arrive from *outside* a compile — above all
    /// artifacts deserialized from the on-disk cache ([`crate::diskcache`]
    /// runs it on every load so a hash-consistent but structurally bogus
    /// artifact is a cache miss, never a wrong answer) — and as a debug
    /// assertion in the service determinism suite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Emit`] describing the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        let buf = &self.buf;
        let corrupt = |what: String| Err(Error::Emit(format!("invalid module: {what}")));
        for i in 0..buf.symbols().len() as u32 {
            let id = crate::codebuf::SymbolId(i);
            let sym = buf.symbol(id);
            if let Some(kind) = sym.section {
                let limit = buf.section_size(kind);
                match sym.offset.checked_add(sym.size) {
                    Some(end) if end <= limit => {}
                    _ => {
                        return corrupt(format!(
                            "symbol {i} ({}) extends past the end of {}",
                            buf.symbol_name(id),
                            kind.name()
                        ))
                    }
                }
            }
        }
        for (i, reloc) in buf.relocs().iter().enumerate() {
            if reloc.symbol.0 as usize >= buf.symbols().len() {
                return corrupt(format!(
                    "relocation {i} targets a symbol that does not exist"
                ));
            }
            if reloc.section == SectionKind::Bss {
                return corrupt(format!("relocation {i} patches .bss, which has no bytes"));
            }
            match reloc.offset.checked_add(reloc.kind.field_len()) {
                Some(end) if end <= buf.section_size(reloc.section) => {}
                _ => {
                    return corrupt(format!(
                        "relocation {i} field extends past the end of {}",
                        reloc.section.name()
                    ))
                }
            }
        }
        Ok(())
    }
}

/// User-provided instruction compilers: generates machine code for a single
/// IR instruction by calling back into [`FuncCodeGen`].
pub trait InstCompiler<A: IrAdapter, T: Target> {
    /// Compiles one instruction. Terminators must use the branch/return API
    /// of [`FuncCodeGen`].
    fn compile_inst(&mut self, cg: &mut FuncCodeGen<'_, A, T>, inst: InstRef) -> Result<()>;

    /// Whether the stack variables the adapter lets live in a register
    /// ([`IrAdapter::stack_var_accesses`]) get one: the callee-saved
    /// general-purpose registers that loop phis leave, most-accessed
    /// variable first. The compiler must then compile every load and
    /// store through such a variable's address with
    /// [`FuncCodeGen::val_var_reg`] and the calls it names, since the
    /// variable has no frame slot.
    fn stack_vars_in_regs(&self) -> bool {
        false
    }
}

impl<A: IrAdapter, T: Target, F> InstCompiler<A, T> for F
where
    F: FnMut(&mut FuncCodeGen<'_, A, T>, InstRef) -> Result<()>,
{
    fn compile_inst(&mut self, cg: &mut FuncCodeGen<'_, A, T>, inst: InstRef) -> Result<()> {
        self(cg, inst)
    }
}

/// Handle to one part of an IR value operand or result (§3.4.3 step 1).
///
/// Obtaining a handle through [`FuncCodeGen::val_ref`] counts as observing
/// one use of the value.
#[derive(Copy, Clone, Debug)]
pub struct ValuePartRef {
    /// The referenced value.
    pub val: ValueRef,
    /// The referenced part.
    pub part: u32,
    /// Register bank of the part.
    pub bank: RegBank,
    /// Size of the part in bytes.
    pub size: u32,
    /// Whether the value is an IR constant.
    pub is_const: bool,
    /// Constant bits (only meaningful if `is_const`).
    pub const_val: u64,
}

/// An abstract location used for value moves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum MoveLoc {
    /// In a register.
    Reg(Reg),
    /// In the stack frame at the given frame-pointer-relative offset.
    Frame(i32),
    /// A constant.
    Const(u64),
    /// The address `frame pointer + offset` (source only).
    FrameAddr(i32),
}

#[derive(Copy, Clone, Debug)]
struct MoveDesc {
    dst: MoveLoc,
    src: MoveLoc,
    bank: RegBank,
    size: u32,
}

/// A deferred critical-edge block: label to bind, jump target, and the range
/// of this edge's moves within the session's pooled `edge_moves` buffer.
#[derive(Copy, Clone, Debug)]
struct PendingEdge {
    label: Label,
    succ_label: Label,
    moves_start: u32,
    moves_end: u32,
}

/// Call target for [`FuncCodeGen::emit_call`].
#[derive(Clone, Debug)]
pub enum CallTarget {
    /// Direct call to a symbol.
    Sym(SymbolId),
    /// Indirect call through the address held by a value part.
    Indirect(ValuePartRef),
}

/// Per-function scratch state of the code generator, hoisted out of
/// [`FuncCodeGen`] so one instance can be reused across all functions of a
/// module (and across modules). Every buffer is cleared — never dropped —
/// between functions and instructions, so once the buffers have grown to
/// the largest function the compile loop allocates nothing here
/// (`crates/llvm/tests/alloc_steady_state.rs` counts it).
#[derive(Debug, Default)]
struct FuncScratch {
    assignments: AssignmentTable,
    frame: FrameAlloc,
    /// What the target completes in the current function's prologue and
    /// epilogue at [`Target::finish_func`].
    frame_state: FrameState,
    block_labels: Vec<Label>,
    inst_scratch: Vec<Reg>,
    maybe_dead: Vec<ValueRef>,
    /// Deferred critical-edge blocks of the current block.
    pending_edges: Vec<PendingEdge>,
    /// Pooled backing storage for the moves of all pending edges.
    edge_moves: Vec<MoveDesc>,
    /// General move-list scratch (phi edges, returns, call arguments).
    move_scratch: Vec<MoveDesc>,
    /// Worklist of the parallel-move resolver.
    pm_pending: Vec<MoveDesc>,
    /// Instructions marked fused (dense, indexed by [`InstRef`]).
    fused: DenseBitSet,
    /// Part descriptors for ABI assignment (prologue, calls, returns).
    parts_desc: Vec<(RegBank, u32)>,
    /// (value, part) owner of each prologue part descriptor.
    arg_owners: Vec<(ValueRef, u32)>,
    /// Argument locations from the calling convention.
    arg_locs: Vec<ArgLoc>,
    /// Return registers from the calling convention.
    ret_regs: Vec<Reg>,
    /// Call arguments materialized after the parallel moves.
    recompute_args: Vec<(Reg, ValuePartRef)>,
    /// Registers currently owned by values (spill sweeps around branches/calls).
    owned_regs: Vec<(Reg, ValueRef, u32)>,
    /// Registers cleared at block boundaries.
    cleared_regs: Vec<(Reg, RegOwner)>,
    /// Values defined in place by [`FuncCodeGen::define_in_frame`] and
    /// [`FuncCodeGen::define_in_reg`], for [`FuncCodeGen::clobber_frame`]
    /// and the stores of [`FuncCodeGen::store_to_var_reg`]. May name values
    /// that are no longer homed; the next clobber drops them.
    homed: Vec<ValueRef>,
    /// The stack variables that live in a register: address value and
    /// register.
    var_regs: Vec<(ValueRef, Reg)>,
}

/// Reusable compile session: the analysis pass working memory, the analysis
/// result, the register file and all per-function codegen scratch.
///
/// Drivers that compile many modules (e.g. a JIT serving many requests)
/// should allocate a session once and pass it to every
/// [`CodeGen::compile_module_with`]. A warm session
/// allocates only for the module it returns:
/// `crates/llvm/tests/alloc_steady_state.rs` counts that doubling a module's
/// function count adds no allocation per function, block, instruction or
/// value, only the logarithmic growth of the output's sections, symbols and
/// relocations.
#[derive(Debug, Default)]
pub struct CompileSession {
    analyzer: Analyzer,
    analysis: Analysis,
    regfile: RegFile,
    scratch: FuncScratch,
    /// Label/fixup storage, lent to each module's [`CodeBuffer`] and
    /// recycled at every function boundary (see [`crate::codebuf`]).
    pub(crate) fixups: FixupPool,
}

impl CompileSession {
    /// Creates a session with empty buffers.
    pub fn new() -> CompileSession {
        CompileSession::default()
    }
}

/// The module-level compilation driver.
#[derive(Debug)]
pub struct CodeGen<T: Target> {
    target: T,
}

impl<T: Target> CodeGen<T> {
    /// Creates a driver for the given target.
    pub fn new(target: T) -> CodeGen<T> {
        CodeGen { target }
    }

    /// Compiles all defined functions of the adapter's module, reusing the
    /// given session's working memory: once its buffers have grown to the
    /// largest function, the analysis and codegen layers allocate nothing
    /// per function (see [`CompileSession`]).
    ///
    /// # Errors
    ///
    /// Propagates any error produced by the analysis pass, the register
    /// allocator or the instruction compilers.
    pub fn compile_module_with<A: IrAdapter, C: InstCompiler<A, T>>(
        &self,
        session: &mut CompileSession,
        adapter: &mut A,
        compiler: &mut C,
    ) -> Result<CompiledModule> {
        let mut buf = CodeBuffer::new();
        buf.text_mut()
            .reserve(adapter.module_inst_count() * TEXT_BYTES_PER_INST);
        // Lend the session's recycled label/fixup pool to this module's
        // buffer so the steady-state loop reuses its allocations.
        buf.adopt_fixup_pool(std::mem::take(&mut session.fixups));
        let mut stats = CompileStats::default();
        let mut timings = PassTimings::new();

        self.prepare_session(session);
        let syms = declare_func_symbols(&*adapter, &mut buf);

        // The body runs in a closure so the pool is handed back to the
        // session even when a function fails to compile.
        let result = (|| -> Result<()> {
            for (i, &sym) in syms.iter().enumerate() {
                let f = FuncRef(i as u32);
                if !adapter.func_is_definition(f) {
                    continue;
                }
                self.compile_func_into(
                    session,
                    adapter,
                    compiler,
                    &mut buf,
                    f,
                    sym,
                    &mut stats,
                    &mut timings,
                )?;
            }
            Ok(())
        })();

        session.fixups = buf.release_fixup_pool();
        result?;
        Ok(CompiledModule {
            buf,
            stats,
            timings,
        })
    }

    /// Sets up the session's register file for this driver's target.
    /// Called once per module by [`CodeGen::compile_module_with`]; parallel
    /// drivers call it once per worker session before the first
    /// [`CodeGen::compile_func_pooled`].
    pub fn prepare_session(&self, session: &mut CompileSession) {
        session.regfile.configure(
            self.target.allocatable_regs(RegBank::GP),
            self.target.allocatable_regs(RegBank::FP),
        );
    }

    /// Compiles a single function into `buf`: switches the adapter to `f`,
    /// runs the analysis pass, generates code, defines `sym` over the
    /// emitted range and resolves the function's fixups.
    ///
    /// This is the self-contained per-function compilation unit the parallel
    /// pipeline shards across workers (see [`crate::parallel`]); the
    /// session's register file must have been configured via
    /// [`CodeGen::prepare_session`] first, and `buf`'s fixup pool is used
    /// as-is (callers that recycle a pool adopt/release it around this
    /// call).
    ///
    /// # Errors
    ///
    /// Propagates any error produced by the analysis pass, the register
    /// allocator or the instruction compilers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compile_func_into<A: IrAdapter, C: InstCompiler<A, T>>(
        &self,
        session: &mut CompileSession,
        adapter: &mut A,
        compiler: &mut C,
        buf: &mut CodeBuffer,
        f: FuncRef,
        sym: SymbolId,
        stats: &mut CompileStats,
        timings: &mut PassTimings,
    ) -> Result<()> {
        adapter.switch_func(f);
        let CompileSession {
            analyzer,
            analysis,
            regfile,
            scratch,
            fixups: _,
        } = &mut *session;
        timings.time(Phase::Analysis, || {
            analyzer.analyze_into(&*adapter, analysis)
        })?;
        let cg_start = Instant::now();
        let func_off = buf.text_offset();
        buf.define_symbol(sym, SectionKind::Text, func_off, 0);
        {
            let mut fcg = FuncCodeGen::new(
                &*adapter,
                &self.target,
                buf,
                analysis,
                stats,
                scratch,
                regfile,
            );
            fcg.compile_function(compiler)?;
        }
        let size = buf.text_offset() - func_off;
        buf.set_symbol_size(sym, size);
        buf.finish_func_fixups()?;
        timings.add(Phase::CodeGen, cg_start.elapsed());
        adapter.finalize_func();
        stats.funcs += 1;
        Ok(())
    }

    /// The worker-side sharding unit: compiles function `f` into `buf` with
    /// `SymbolId(f.0)` as its symbol, lending the session's recycled fixup
    /// pool to `buf` for the duration of the call, and skips declarations
    /// (returns `Ok(false)`).
    ///
    /// A front end's per-function unit calls this from the scoped workers
    /// of [`crate::parallel::compile_sharded`].
    ///
    /// # Errors
    ///
    /// Propagates any error produced by the analysis pass, the register
    /// allocator or the instruction compilers.
    #[allow(clippy::too_many_arguments)]
    pub fn compile_func_pooled<A: IrAdapter, C: InstCompiler<A, T>>(
        &self,
        session: &mut CompileSession,
        adapter: &mut A,
        compiler: &mut C,
        buf: &mut CodeBuffer,
        f: FuncRef,
        stats: &mut CompileStats,
        timings: &mut PassTimings,
    ) -> Result<bool> {
        if !adapter.func_is_definition(f) {
            return Ok(false);
        }
        buf.adopt_fixup_pool(std::mem::take(&mut session.fixups));
        let r = self.compile_func_into(
            session,
            adapter,
            compiler,
            buf,
            f,
            SymbolId(f.0),
            stats,
            timings,
        );
        session.fixups = buf.release_fixup_pool();
        r.map(|()| true)
    }
}

/// Declares one symbol per module function, in function-index order, with
/// the binding derived from the function's linkage. Returns the symbol ids;
/// for a fresh buffer and unique function names these are `0..func_count`.
///
/// Used by [`CodeGen::compile_module_with`] and by the parallel pipeline,
/// which relies on every worker shard and the merged buffer pre-declaring
/// the identical symbol prefix.
pub fn declare_func_symbols<A: IrAdapter>(adapter: &A, buf: &mut CodeBuffer) -> Vec<SymbolId> {
    let nfuncs = adapter.func_count();
    let mut syms = Vec::with_capacity(nfuncs);
    for i in 0..nfuncs {
        let f = FuncRef(i as u32);
        let binding = match adapter.func_linkage(f) {
            Linkage::External => SymbolBinding::Global,
            Linkage::Internal => SymbolBinding::Local,
            Linkage::Weak => SymbolBinding::Weak,
        };
        syms.push(buf.declare_symbol(adapter.func_name(f), binding, true));
    }
    syms
}

/// Per-function code-generation context handed to instruction compilers.
pub struct FuncCodeGen<'a, A: IrAdapter, T: Target> {
    /// The IR adapter (also usable for IR-specific queries by the compiler).
    pub adapter: &'a A,
    /// The target.
    pub target: &'a T,
    /// The code buffer instructions are emitted into.
    pub buf: &'a mut CodeBuffer,
    /// The analysis result of the current function.
    pub analysis: &'a Analysis,

    stats: &'a mut CompileStats,
    /// Reused per-function scratch state (see [`FuncScratch`]).
    s: &'a mut FuncScratch,
    regfile: &'a mut RegFile,
    cur_pos: u32,
    entry_state_valid: bool,
    state_valid_next: bool,
    used_callee_saved: RegSet,
    cycle_temp: Option<i32>,
}

impl<'a, A: IrAdapter, T: Target> FuncCodeGen<'a, A, T> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        adapter: &'a A,
        target: &'a T,
        buf: &'a mut CodeBuffer,
        analysis: &'a Analysis,
        stats: &'a mut CompileStats,
        s: &'a mut FuncScratch,
        regfile: &'a mut RegFile,
    ) -> FuncCodeGen<'a, A, T> {
        regfile.reset();
        s.assignments.reset(adapter.value_count());
        s.frame.reset(target.callee_save_area_size());
        s.block_labels.clear();
        s.inst_scratch.clear();
        s.maybe_dead.clear();
        s.pending_edges.clear();
        s.edge_moves.clear();
        s.homed.clear();
        s.var_regs.clear();
        s.fused.reset(adapter.inst_count());
        FuncCodeGen {
            adapter,
            target,
            buf,
            analysis,
            stats,
            s,
            regfile,
            cur_pos: 0,
            entry_state_valid: true,
            state_valid_next: false,
            used_callee_saved: RegSet::empty(),
            cycle_temp: None,
        }
    }

    // ---- general accessors --------------------------------------------------

    /// The block currently being compiled.
    pub(crate) fn cur_block(&self) -> BlockRef {
        self.analysis.layout[self.cur_pos as usize]
    }

    /// Layout position of the block currently being compiled.
    pub fn cur_pos(&self) -> u32 {
        self.cur_pos
    }

    /// Label of a basic block (created on demand, bound when the block is
    /// compiled).
    pub(crate) fn block_label(&self, block: BlockRef) -> Label {
        self.s.block_labels[self.analysis.pos(block) as usize]
    }

    /// Marks an instruction as fused: the main loop will skip it. Used by
    /// instruction compilers that emit the code of a later instruction early
    /// (e.g. compare+branch fusion, §3.4.4).
    pub fn mark_fused(&mut self, inst: InstRef) {
        self.s.fused.insert(inst.0);
    }

    // ---- function driver ------------------------------------------------------

    fn compile_function<C: InstCompiler<A, T>>(&mut self, compiler: &mut C) -> Result<()> {
        let n = self.analysis.layout.len();
        for _ in 0..n {
            let l = self.buf.new_label();
            self.s.block_labels.push(l);
        }
        self.pin_loop_phis()?;
        if compiler.stack_vars_in_regs() {
            self.assign_var_regs()?;
        }
        self.emit_prologue_and_args()?;

        let adapter = self.adapter;
        for pos in 0..n as u32 {
            self.begin_block(pos)?;
            let block = self.analysis.layout[pos as usize];
            for &inst in adapter.block_insts(block) {
                if self.s.fused.take(inst.0) {
                    continue;
                }
                compiler.compile_inst(self, inst)?;
                self.end_inst();
                self.stats.insts += 1;
            }
            self.finish_terminator()?;
            self.stats.blocks += 1;
        }

        self.target.finish_func(
            self.buf,
            &self.s.frame_state,
            self.s.frame.frame_size(),
            self.used_callee_saved,
        )
    }

    fn emit_prologue_and_args(&mut self) -> Result<()> {
        self.target.emit_prologue(self.buf, &mut self.s.frame_state);
        let adapter = self.adapter;

        // Static stack variables: allocated in the frame, value = address,
        // trivially recomputable (never spilled).
        for sv in adapter.static_stack_vars() {
            if self.s.var_regs.iter().any(|&(v, _)| v == sv.value) {
                continue;
            }
            let off = self.s.frame.alloc(sv.size, sv.align);
            self.ensure_assignment(sv.value)?;
            if let Some(a) = self.s.assignments.get_mut(sv.value) {
                a.recompute = Some(Recompute::StackAddr(off));
            }
        }

        // Arguments.
        self.s.parts_desc.clear();
        self.s.arg_owners.clear();
        for &v in adapter.args() {
            for p in 0..adapter.val_part_count(v) {
                self.s
                    .parts_desc
                    .push((adapter.val_part_bank(v, p), adapter.val_part_size(v, p)));
                self.s.arg_owners.push((v, p));
            }
        }
        let cc = self.target.call_conv();
        self.s.arg_locs.clear();
        cc.assign_args_into(&self.s.parts_desc, &mut self.s.arg_locs);
        for i in 0..self.s.arg_owners.len() {
            let (v, p) = self.s.arg_owners[i];
            let loc = self.s.arg_locs[i];
            self.ensure_assignment(v)?;
            match loc {
                ArgLoc::Reg(r) => {
                    if let Some(a) = self.s.assignments.get_mut(v) {
                        a.parts[p as usize].reg = Some(r);
                        a.parts[p as usize].in_mem = false;
                    }
                    self.regfile.set_owner(r, RegOwner::Value(v, p));
                }
                ArgLoc::Stack(off) => {
                    // Incoming stack arguments live above the saved frame
                    // pointer and return address.
                    let fp_off = 16 + off as i32;
                    if adapter.val_part_count(v) == 1 {
                        if let Some(a) = self.s.assignments.get_mut(v) {
                            a.frame_off = Some(fp_off);
                            a.parts[0].in_mem = true;
                        }
                    } else {
                        // Rare: a part of a multi-part value on the stack.
                        // Load it into a register right away.
                        let bank = adapter.val_part_bank(v, p);
                        let size = adapter.val_part_size(v, p);
                        let reg = self.alloc_reg(bank, None)?;
                        self.target
                            .emit_frame_load(self.buf, bank, size, reg, fp_off);
                        if let Some(a) = self.s.assignments.get_mut(v) {
                            a.parts[p as usize].reg = Some(reg);
                        }
                        self.regfile.set_owner(reg, RegOwner::Value(v, p));
                    }
                }
            }
        }

        // If the entry block can also be reached by a branch (it has
        // predecessors), its entry register state must be the canonical one:
        // spill all register arguments now.
        let entry = self.analysis.layout[0];
        if self.analysis.num_preds[entry.idx()] > 0 {
            self.spill_all_register_values(None)?;
            self.entry_state_valid = false;
        }
        Ok(())
    }

    /// Gives the stack variables that may live in a register
    /// ([`IrAdapter::stack_var_accesses`]) the callee-saved allocatable
    /// general-purpose registers that no loop phi is pinned to, in
    /// allocation order, most-accessed variable first: on x86-64 the first
    /// register, `rbx`, is the one whose 32-bit forms need no REX prefix.
    /// Each register is pinned to the variable's address value for the
    /// whole function (never allocated, stored or cleared), saved by the
    /// prologue, and holds the variable's current contents.
    fn assign_var_regs(&mut self) -> Result<()> {
        let (adapter, target) = (self.adapter, self.target);
        let vars = adapter.static_stack_vars();
        let callee_saved = target.call_conv().callee_saved;
        for &reg in target.allocatable_regs(RegBank::GP) {
            if !callee_saved.contains(reg) || self.regfile.is_fixed(reg) {
                continue;
            }
            // the most-accessed variable left, the first of equals
            let placed = |v| self.s.var_regs.iter().any(|&(w, _)| w == v);
            let left = (0..vars.len()).filter(|&i| !placed(vars[i].value));
            let best = left.max_by_key(|&i| (adapter.stack_var_accesses(i), Reverse(i)));
            let Some(i) = best.filter(|&i| adapter.stack_var_accesses(i) > 0) else {
                break;
            };
            let v = vars[i].value;
            self.ensure_assignment(v)?;
            self.regfile.set_fixed(reg, v, 0);
            self.used_callee_saved.insert(reg);
            self.s.var_regs.push((v, reg));
        }
        Ok(())
    }

    /// Pins the single-part phi values of loop headers to the target's
    /// fixed-register candidates (§3.4.5).
    fn pin_loop_phis(&mut self) -> Result<()> {
        let adapter = self.adapter;
        let mut next_idx = [0usize; RegBank::COUNT];
        for pos in 0..self.analysis.layout.len() as u32 {
            if !self.analysis.is_loop_header(pos) {
                continue;
            }
            let block = self.analysis.layout[pos as usize];
            for &phi in adapter.block_phis(block) {
                if adapter.val_part_count(phi) != 1 {
                    continue;
                }
                let bank = adapter.val_part_bank(phi, 0);
                let candidates = self.target.fixed_reg_candidates(bank);
                let idx = &mut next_idx[bank.index()];
                if *idx >= candidates.len() {
                    continue;
                }
                let reg = candidates[*idx];
                *idx += 1;
                self.ensure_assignment(phi)?;
                if let Some(a) = self.s.assignments.get_mut(phi) {
                    a.parts[0].fixed = true;
                    a.parts[0].reg = Some(reg);
                    a.parts[0].in_mem = false;
                }
                self.regfile.set_fixed(reg, phi, 0);
                self.used_callee_saved.insert(reg);
            }
        }
        Ok(())
    }

    fn begin_block(&mut self, pos: u32) -> Result<()> {
        self.cur_pos = pos;
        self.sweep_dead_values(pos);
        self.buf.bind_label(self.s.block_labels[pos as usize]);

        let keep_state = if pos == 0 {
            self.entry_state_valid
        } else {
            self.state_valid_next
        };
        if !keep_state {
            self.s.cleared_regs.clear();
            self.regfile.reset_non_fixed_into(&mut self.s.cleared_regs);
            for i in 0..self.s.cleared_regs.len() {
                let (_, owner) = self.s.cleared_regs[i];
                if let RegOwner::Value(v, p) = owner {
                    if let Some(a) = self.s.assignments.get_mut(v) {
                        a.parts[p as usize].reg = None;
                    }
                }
            }
        }

        // Phi values arrive through edge moves: their canonical location is
        // their stack slot, fixed register or join register.
        let adapter = self.adapter;
        let block = self.analysis.layout[pos as usize];
        for &phi in adapter.block_phis(block) {
            self.ensure_assignment(phi)?;
            let nparts = adapter.val_part_count(phi);
            for p in 0..nparts {
                if self.s.assignments.get(phi).unwrap().parts[p as usize].fixed {
                    continue;
                }
                let reg = self.join_phi_reg(block, phi);
                if reg.is_none() {
                    self.ensure_frame_slot(phi)?;
                }
                let part = &mut self.s.assignments.get_mut(phi).unwrap().parts[p as usize];
                part.reg = reg;
                part.in_mem = reg.is_none();
                if let Some(r) = reg {
                    self.regfile.set_owner(r, RegOwner::Value(phi, p));
                }
            }
        }
        Ok(())
    }

    /// Frees, in insertion order, every value whose live range ended before
    /// block `pos`. Walks the compact active list, not the assignment slots.
    fn sweep_dead_values(&mut self, pos: u32) {
        let mut i = 0;
        while let Some((v, last_pos)) = self.s.assignments.active(i) {
            if last_pos < pos {
                self.free_value(v);
            }
            i += 1;
        }
        self.s.assignments.prune_active(pos);
    }

    fn free_value(&mut self, v: ValueRef) {
        if let Some(a) = self.s.assignments.remove(v) {
            for (p, part) in a.parts[..a.nparts as usize].iter().enumerate() {
                if let Some(r) = part.reg {
                    if self.regfile.owner(r) == Some(RegOwner::Value(v, p as u32)) {
                        self.regfile.clear(r);
                    }
                }
            }
            // Incoming stack arguments (above the frame pointer) and
            // homes belong to someone else.
            if let Some(off) = a.frame_off.filter(|&off| off < 0 && !a.homed) {
                self.s.frame.free(off, a.spill_size());
            }
        }
    }

    // ---- assignments -----------------------------------------------------------

    fn ensure_assignment(&mut self, v: ValueRef) -> Result<()> {
        if self.s.assignments.contains(v) {
            return Ok(());
        }
        let live = self
            .analysis
            .liveness
            .get(v.idx())
            .copied()
            .unwrap_or_default();
        let nparts = self.adapter.val_part_count(v).max(1);
        if nparts as usize > MAX_PARTS {
            return Err(Error::Unsupported(format!(
                "value {v:?} has {nparts} parts, at most {MAX_PARTS} are supported"
            )));
        }
        let mut parts = [PartState::new(1, RegBank::GP); MAX_PARTS];
        for p in 0..nparts {
            let size = u8::try_from(self.adapter.val_part_size(v, p).max(1))
                .map_err(|_| Error::Unsupported(format!("part of value {v:?} too large")))?;
            parts[p as usize] = PartState::new(size, self.adapter.val_part_bank(v, p));
        }
        self.s.assignments.insert(
            v,
            Assignment {
                frame_off: None,
                recompute: None,
                remaining_uses: live.uses,
                last_pos: live.last,
                last_full: live.last_full,
                phi_end: live.phi_end,
                homed: false,
                home_read: false,
                nparts: nparts as u8,
                parts,
            },
        );
        Ok(())
    }

    fn ensure_frame_slot(&mut self, v: ValueRef) -> Result<i32> {
        self.ensure_assignment(v)?;
        let a = self.s.assignments.get_mut(v).unwrap();
        if let Some(off) = a.frame_off {
            return Ok(off);
        }
        let off = self.s.frame.alloc(a.spill_size(), 8);
        a.frame_off = Some(off);
        Ok(off)
    }

    // ---- operand handles ---------------------------------------------------------

    /// Obtains a handle to one part of an operand value; counts as one use
    /// (for part 0).
    pub fn val_ref(&mut self, v: ValueRef, part: u32) -> Result<ValuePartRef> {
        let bank = self.adapter.val_part_bank(v, part);
        let size = self.adapter.val_part_size(v, part).max(1);
        if self.adapter.val_is_const(v) {
            return Ok(ValuePartRef {
                val: v,
                part,
                bank,
                size,
                is_const: true,
                const_val: self.adapter.val_const_data(v, part),
            });
        }
        self.ensure_assignment(v)?;
        if part == 0 {
            let a = self.s.assignments.get_mut(v).unwrap();
            if a.remaining_uses > 0 {
                a.remaining_uses -= 1;
                if a.remaining_uses == 0 {
                    self.s.maybe_dead.push(v);
                }
            }
            // In its defining block, a homed value that is used again is
            // read into a register once, as the load it stands for would
            // have been; elsewhere it is read where it is used.
            if a.homed
                && a.parts[0].reg.is_none()
                && a.remaining_uses > 0
                && self.analysis.live(v).first == self.cur_pos
            {
                let a = *a;
                self.read_home(v, &a)?;
            }
        }
        Ok(ValuePartRef {
            val: v,
            part,
            bank,
            size,
            is_const: false,
            const_val: 0,
        })
    }

    /// Whether a value part is currently spilled (only in memory), and at
    /// which frame offset — used by back-ends that can fold memory operands.
    pub fn val_mem_loc(&self, p: &ValuePartRef) -> Option<i32> {
        if p.is_const {
            return None;
        }
        let a = self.s.assignments.get(p.val)?;
        let ps = &a.parts[p.part as usize];
        if ps.reg.is_none() && ps.in_mem {
            a.frame_off.map(|off| off + a.part_offset(p.part))
        } else {
            None
        }
    }

    /// Frame offset of the static stack variable a value part is the
    /// address of, if it is one (`Recompute::StackAddr`) — used by
    /// back-ends that address it frame-relative instead of materializing
    /// the address.
    pub fn val_stack_addr(&self, p: &ValuePartRef) -> Option<i32> {
        if p.is_const {
            return None;
        }
        self.s
            .assignments
            .get(p.val)?
            .recompute
            .map(|Recompute::StackAddr(off)| off)
    }

    /// Current register of a value part, if it happens to be in one.
    pub fn val_cur_reg(&self, p: &ValuePartRef) -> Option<Reg> {
        self.s
            .assignments
            .get(p.val)
            .and_then(|a| a.parts[p.part as usize].reg)
    }

    /// Whether this handle observes the last use of the value (so its
    /// register may be reused for a result).
    pub fn val_is_last_use(&self, p: &ValuePartRef) -> bool {
        if p.is_const {
            return false;
        }
        match self.s.assignments.get(p.val) {
            Some(a) => {
                a.remaining_uses == 0
                    && a.last_pos == self.cur_pos
                    && !a.last_full
                    && !a.parts[p.part as usize].fixed
            }
            None => false,
        }
    }

    /// Ensures the value part is in a register and returns it. The register
    /// is locked until the end of the instruction.
    pub fn val_as_reg(&mut self, p: &ValuePartRef) -> Result<Reg> {
        self.val_as_reg_impl(p, None)
    }

    /// Like [`FuncCodeGen::val_as_reg`], but restricts the register to the
    /// given set (instruction constraints like x86 shifts using `cl`).
    pub fn val_as_reg_in(&mut self, p: &ValuePartRef, allowed: RegSet) -> Result<Reg> {
        self.val_as_reg_impl(p, Some(allowed))
    }

    fn val_as_reg_impl(&mut self, p: &ValuePartRef, allowed: Option<RegSet>) -> Result<Reg> {
        if p.is_const {
            let reg = self.alloc_reg(p.bank, allowed)?;
            self.target
                .emit_const(self.buf, p.bank, p.size, reg, p.const_val);
            self.regfile.set_owner(reg, RegOwner::Scratch);
            self.regfile.lock(reg);
            self.s.inst_scratch.push(reg);
            return Ok(reg);
        }
        self.ensure_assignment(p.val)?;
        let cur = self.s.assignments.get(p.val).unwrap().parts[p.part as usize];
        if let Some(reg) = cur.reg {
            if allowed.is_none_or(|set| set.contains(reg)) {
                self.regfile.lock(reg);
                return Ok(reg);
            }
            // move to a register within the constraint set
            let dst = self.alloc_reg(p.bank, allowed)?;
            self.mov_rr(p.bank, 8.max(p.size), dst, reg);
            if !cur.fixed {
                self.regfile.clear(reg);
                let a = self.s.assignments.get_mut(p.val).unwrap();
                a.parts[p.part as usize].reg = Some(dst);
                self.regfile.set_owner(dst, RegOwner::Value(p.val, p.part));
            } else {
                // fixed values stay in their register; the copy is a scratch
                self.regfile.set_owner(dst, RegOwner::Scratch);
                self.s.inst_scratch.push(dst);
            }
            self.regfile.lock(dst);
            return Ok(dst);
        }
        // not in a register: materialize
        let reg = self.alloc_reg(p.bank, allowed)?;
        let a = self.s.assignments.get(p.val).unwrap();
        let ps = a.parts[p.part as usize];
        let frame_off = a.frame_off.map(|o| o + a.part_offset(p.part));
        match (a.recompute, frame_off, ps.in_mem) {
            (Some(Recompute::StackAddr(off)), _, _) => {
                self.target.emit_frame_addr(self.buf, reg, off);
            }
            (None, Some(off), true) => {
                self.target
                    .emit_frame_load(self.buf, p.bank, p.size, reg, off);
                self.count_frame_load(p.val);
            }
            _ => {
                // Undefined value (e.g. LLVM `undef`): materialize zero.
                self.target.emit_const(self.buf, p.bank, p.size, reg, 0);
            }
        }
        let a = self.s.assignments.get_mut(p.val).unwrap();
        a.parts[p.part as usize].reg = Some(reg);
        self.regfile.set_owner(reg, RegOwner::Value(p.val, p.part));
        self.regfile.lock(reg);
        Ok(reg)
    }

    // ---- results & scratch registers -------------------------------------------------

    /// Allocates a register for one part of an instruction result.
    pub fn result_reg(&mut self, v: ValueRef, part: u32) -> Result<Reg> {
        self.ensure_assignment(v)?;
        let bank = self.adapter.val_part_bank(v, part);
        let reg = self.alloc_reg(bank, None)?;
        let a = self.s.assignments.get_mut(v).unwrap();
        a.parts[part as usize].reg = Some(reg);
        a.parts[part as usize].in_mem = false;
        self.regfile.set_owner(reg, RegOwner::Value(v, part));
        self.regfile.lock(reg);
        Ok(reg)
    }

    /// Allocates a register for a result, reusing the operand's register if
    /// this is the operand's last use (otherwise the operand is copied or
    /// loaded into it). This is the `result_ref_will_overwrite` pattern from
    /// the paper's Listing 1.
    pub fn result_reuse(&mut self, v: ValueRef, part: u32, op: &ValuePartRef) -> Result<Reg> {
        if !op.is_const && self.val_is_last_use(op) {
            if let Some(reg) = self.val_cur_reg(op) {
                // transfer ownership from the dying operand to the result
                if let Some(a) = self.s.assignments.get_mut(op.val) {
                    a.parts[op.part as usize].reg = None;
                }
                self.ensure_assignment(v)?;
                let a = self.s.assignments.get_mut(v).unwrap();
                a.parts[part as usize].reg = Some(reg);
                a.parts[part as usize].in_mem = false;
                self.regfile.set_owner(reg, RegOwner::Value(v, part));
                self.regfile.lock(reg);
                return Ok(reg);
            }
        }
        // An operand outside a register is loaded (or rematerialized)
        // straight into the result register, not into a register of its
        // own that is then copied.
        if op.is_const || (op.val != v && self.val_cur_reg(op).is_none()) {
            let dst = self.result_reg(v, part)?;
            self.materialize_into(dst, op, 8.max(op.size))?;
            return Ok(dst);
        }
        let src = self.val_as_reg(op)?;
        let dst = self.result_reg(v, part)?;
        let bank = self.adapter.val_part_bank(v, part);
        self.mov_rr(bank, 8.max(op.size), dst, src);
        Ok(dst)
    }

    /// Allocates an unevictable scratch register, released at the end of the
    /// instruction.
    pub fn alloc_scratch(&mut self, bank: RegBank) -> Result<Reg> {
        let reg = self.alloc_reg(bank, None)?;
        self.regfile.set_owner(reg, RegOwner::Scratch);
        self.regfile.lock(reg);
        self.s.inst_scratch.push(reg);
        Ok(reg)
    }

    /// Allocates a scratch register from a constrained set.
    pub fn alloc_scratch_in(&mut self, bank: RegBank, allowed: RegSet) -> Result<Reg> {
        let reg = self.alloc_reg(bank, Some(allowed))?;
        self.regfile.set_owner(reg, RegOwner::Scratch);
        self.regfile.lock(reg);
        self.s.inst_scratch.push(reg);
        Ok(reg)
    }

    /// Marks the end of an instruction: releases operand locks and scratch
    /// registers and frees values whose last use was in this instruction.
    pub(crate) fn end_inst(&mut self) {
        // Both lists are walked by index and cleared, not taken: taking them
        // would free their buffers every instruction.
        for i in 0..self.s.inst_scratch.len() {
            let reg = self.s.inst_scratch[i];
            if self.regfile.owner(reg) == Some(RegOwner::Scratch) {
                self.regfile.clear(reg);
            }
        }
        self.s.inst_scratch.clear();
        self.regfile.end_inst();
        for i in 0..self.s.maybe_dead.len() {
            let v = self.s.maybe_dead[i];
            if let Some(a) = self.s.assignments.get(v) {
                if a.remaining_uses == 0 && a.last_pos == self.cur_pos && !a.last_full {
                    self.free_value(v);
                }
            }
        }
        self.s.maybe_dead.clear();
    }

    // ---- register allocation ------------------------------------------------------

    fn alloc_reg(&mut self, bank: RegBank, within: Option<RegSet>) -> Result<Reg> {
        let reg = if let Some(r) = self.regfile.find_free(bank, RegSet::empty(), within) {
            r
        } else {
            let victim = self
                .regfile
                .pick_eviction(bank, RegSet::empty(), within)
                .ok_or(Error::RegisterExhausted { bank: bank.name() })?;
            self.evict(victim)?;
            victim
        };
        if self.target.call_conv().callee_saved.contains(reg) {
            self.used_callee_saved.insert(reg);
        }
        Ok(reg)
    }

    fn evict(&mut self, reg: Reg) -> Result<()> {
        match self.regfile.owner(reg) {
            Some(RegOwner::Value(v, p)) => {
                // an operand whose last use is the current instruction may
                // not have been read yet: it is stored like a live value
                let operand = self.s.maybe_dead.contains(&v);
                self.spill_part(v, p, operand)?;
                if let Some(a) = self.s.assignments.get_mut(v) {
                    a.parts[p as usize].reg = None;
                }
                self.regfile.clear(reg);
            }
            Some(RegOwner::Scratch) | None => {
                self.regfile.clear(reg);
            }
        }
        Ok(())
    }

    /// Whether a value may still be read after the current instruction.
    fn lives_on(&self, a: &Assignment) -> bool {
        a.remaining_uses > 0
            || a.last_pos > self.cur_pos
            || (a.last_pos == self.cur_pos && a.last_full)
    }

    /// Counts a load of `v` from its frame location: a reload, unless it
    /// is the first read of a homed value, which stands for the IR's load.
    fn count_frame_load(&mut self, v: ValueRef) {
        match self.s.assignments.get_mut(v) {
            Some(a) if a.homed && !a.home_read => a.home_read = true,
            _ => self.stats.reloads += 1,
        }
    }

    /// Copies `src` into `dst` with one `size`-byte move.
    fn mov_rr(&mut self, bank: RegBank, size: u32, dst: Reg, src: Reg) {
        self.target.emit_mov_rr(self.buf, bank, size, dst, src);
        self.stats.moves += 1;
    }

    /// Stores a register-resident part to its slot unless it is already
    /// there, is recomputable or fixed, or is dead: no longer read after
    /// the current instruction and not `read_now`.
    fn spill_part(&mut self, v: ValueRef, p: u32, read_now: bool) -> Result<()> {
        let Some(&a) = self.s.assignments.get(v) else {
            return Ok(());
        };
        let ps = a.parts[p as usize];
        let dead = !read_now && !self.lives_on(&a);
        if dead || ps.in_mem || a.recompute.is_some() || ps.fixed {
            return Ok(());
        }
        let Some(reg) = ps.reg else { return Ok(()) };
        let part_off = self.ensure_frame_slot(v)? + a.part_offset(p);
        self.target
            .emit_frame_store(self.buf, ps.bank, ps.size as u32, part_off, reg);
        self.stats.spills += 1;
        self.s.assignments.get_mut(v).unwrap().parts[p as usize].in_mem = true;
        Ok(())
    }

    /// Spills every live register-resident value. At a branch (`branch` is
    /// `Some(first)`), a value is skipped if its range ends before layout
    /// position `first`, so that no successor needing the canonical state
    /// reads it, or if it ends in the current block only for the phi moves
    /// of its out-edges ([`Assignment::phi_end`]): those moves read it from
    /// its register, so a store to its slot would never be read.
    fn spill_all_register_values(&mut self, branch: Option<u32>) -> Result<()> {
        self.s.owned_regs.clear();
        self.regfile.value_owned_into(&mut self.s.owned_regs);
        for i in 0..self.s.owned_regs.len() {
            let (reg, v, p) = self.s.owned_regs[i];
            if self.regfile.is_fixed(reg) {
                continue;
            }
            if let (Some(first), Some(a)) = (branch, self.s.assignments.get(v)) {
                if a.last_pos < first || (a.phi_end && a.last_pos == self.cur_pos) {
                    continue;
                }
            }
            self.spill_part(v, p, false)?;
        }
        Ok(())
    }

    // ---- branches & phi handling -----------------------------------------------------

    /// Spills the live register-resident values before a branch, if required
    /// by any successor (§3.4.5: values must be in a well-known location
    /// when entering a block with multiple or non-fallthrough predecessors).
    /// When all successors that need this are forward ones, a value whose
    /// range ends before the first of them stays unstored; a back edge
    /// among them keeps every value.
    pub fn spill_before_branch(&mut self) -> Result<()> {
        let block = self.cur_block();
        let succs = self.adapter.block_succs(block);
        let first_need = succs
            .iter()
            .filter(|&&s| !self.succ_keeps_state(s))
            .map(|&s| self.analysis.pos(s))
            .min();
        if let Some(first) = first_need {
            let first = if first <= self.cur_pos { 0 } else { first };
            self.spill_all_register_values(Some(first))?;
        }
        // Determine whether the register state stays valid for the next
        // layout block.
        let next_pos = self.cur_pos + 1;
        self.state_valid_next = (next_pos as usize) < self.analysis.layout.len() && {
            let next = self.analysis.layout[next_pos as usize];
            self.analysis.num_preds[next.idx()] == 1 && succs.contains(&next)
        };
        Ok(())
    }

    fn succ_keeps_state(&self, succ: BlockRef) -> bool {
        self.analysis.num_preds[succ.idx()] == 1 && self.is_next_block(succ)
    }

    /// Whether `block` is laid out directly after the current block, so a
    /// branch to it can fall through.
    pub fn is_next_block(&self, block: BlockRef) -> bool {
        self.analysis.pos(block) == self.cur_pos + 1
    }

    /// Returns the label a conditional branch should target for `succ`.
    /// If the edge requires phi moves, a critical-edge block is created and
    /// its label returned; the block is emitted by
    /// `FuncCodeGen::finish_terminator` (called automatically at the end of
    /// the block).
    pub fn branch_target(&mut self, succ: BlockRef) -> Result<Label> {
        let mut moves = std::mem::take(&mut self.s.move_scratch);
        moves.clear();
        let result = self.phi_moves_for_edge(succ, &mut moves);
        let out = match result {
            Err(e) => Err(e),
            Ok(()) if moves.is_empty() => Ok(self.block_label(succ)),
            Ok(()) => {
                let succ_label = self.block_label(succ);
                let label = self.buf.new_label();
                let start = self.s.edge_moves.len() as u32;
                self.s.edge_moves.extend_from_slice(&moves);
                self.s.pending_edges.push(PendingEdge {
                    label,
                    succ_label,
                    moves_start: start,
                    moves_end: start + moves.len() as u32,
                });
                Ok(label)
            }
        };
        self.s.move_scratch = moves;
        out
    }

    /// Finishes the terminator along the "fallthrough" edge: emits phi moves
    /// inline and a jump to `succ` unless the block can fall through.
    pub fn terminator_fallthrough(&mut self, succ: BlockRef) -> Result<()> {
        let mut moves = std::mem::take(&mut self.s.move_scratch);
        moves.clear();
        let result = self
            .phi_moves_for_edge(succ, &mut moves)
            .and_then(|()| self.emit_parallel_moves(&moves));
        self.s.move_scratch = moves;
        result?;
        if !self.is_next_block(succ) || !self.s.pending_edges.is_empty() {
            let label = self.block_label(succ);
            self.target.emit_jump(self.buf, label);
        }
        Ok(())
    }

    /// Emits any pending critical-edge blocks. Called automatically after the
    /// last instruction of each block; calling it again is a no-op.
    pub(crate) fn finish_terminator(&mut self) -> Result<()> {
        let edges = std::mem::take(&mut self.s.pending_edges);
        let edge_moves = std::mem::take(&mut self.s.edge_moves);
        let mut result = Ok(());
        for e in &edges {
            self.buf.bind_label(e.label);
            let moves = &edge_moves[e.moves_start as usize..e.moves_end as usize];
            if let Err(err) = self.emit_parallel_moves(moves) {
                result = Err(err);
                break;
            }
            self.target.emit_jump(self.buf, e.succ_label);
        }
        // hand the buffers back (cleared) so their capacity is reused
        self.s.pending_edges = edges;
        self.s.pending_edges.clear();
        self.s.edge_moves = edge_moves;
        self.s.edge_moves.clear();
        result
    }

    /// Computes the phi moves of the edge `cur_block -> succ` into `out`.
    fn phi_moves_for_edge(&mut self, succ: BlockRef, out: &mut Vec<MoveDesc>) -> Result<()> {
        let pred = self.cur_block();
        let adapter = self.adapter;
        for &phi in adapter.block_phis(succ) {
            let incoming = adapter.phi_incoming(phi);
            let Some(inc) = incoming.iter().find(|i| i.block == pred) else {
                return Err(Error::InvalidIr(format!(
                    "phi {:?} has no incoming value for predecessor {:?}",
                    phi, pred
                )));
            };
            let src_val = inc.value;
            if src_val == phi {
                continue;
            }
            self.ensure_assignment(phi)?;
            let nparts = adapter.val_part_count(phi);
            for p in 0..nparts {
                let bank = adapter.val_part_bank(phi, p);
                let size = adapter.val_part_size(phi, p).max(1);
                // destination: fixed register or stack slot
                let dst = {
                    let fixed_reg = self.s.assignments.get(phi).and_then(|a| {
                        let ps = &a.parts[p as usize];
                        if ps.fixed {
                            ps.reg
                        } else {
                            None
                        }
                    });
                    match fixed_reg.or_else(|| self.join_phi_reg(succ, phi)) {
                        Some(r) => MoveLoc::Reg(r),
                        None => {
                            let off = self.ensure_frame_slot(phi)?;
                            let a = self.s.assignments.get(phi).unwrap();
                            MoveLoc::Frame(off + a.part_offset(p))
                        }
                    }
                };
                let src = self.canonical_loc(src_val, p)?;
                if src != dst {
                    out.push(MoveDesc {
                        dst,
                        src,
                        bank,
                        size,
                    });
                }
            }
        }
        Ok(())
    }

    /// The register in which `phi`, a phi of block `join`, arrives there
    /// ([`Target::JOIN_PHI_REGS`]): `phi` has one part and a range that
    /// ends in `join`, and `join` has several predecessors, all earlier in
    /// layout, so every in-edge stores the live values and `join` starts
    /// from an empty register file. The n-th such phi of a bank takes the
    /// bank's n-th caller-saved allocatable register; any other phi
    /// arrives in its stack slot.
    fn join_phi_reg(&self, join: BlockRef, phi: ValueRef) -> Option<Reg> {
        if !T::JOIN_PHI_REGS {
            return None;
        }
        let adapter = self.adapter;
        let pos = self.analysis.pos(join);
        let in_reg =
            |v: ValueRef| adapter.val_part_count(v) == 1 && self.analysis.live(v).last == pos;
        if self.analysis.num_preds[join.idx()] < 2
            || !in_reg(phi)
            || adapter
                .phi_incoming(phi)
                .iter()
                .any(|i| self.analysis.pos(i.block) >= pos)
        {
            return None;
        }
        let bank = adapter.val_part_bank(phi, 0);
        let nth = adapter
            .block_phis(join)
            .iter()
            .take_while(|&&v| v != phi)
            .filter(|&&v| in_reg(v) && adapter.val_part_bank(v, 0) == bank)
            .count();
        let callee_saved = self.target.call_conv().callee_saved;
        self.target
            .allocatable_regs(bank)
            .iter()
            .copied()
            .filter(|&r| !callee_saved.contains(r))
            .nth(nth)
    }

    /// Canonical (stable) location of a value part: constant, fixed/current
    /// register, stack-variable address, or stack slot.
    fn canonical_loc(&mut self, v: ValueRef, part: u32) -> Result<MoveLoc> {
        if self.adapter.val_is_const(v) {
            return Ok(MoveLoc::Const(self.adapter.val_const_data(v, part)));
        }
        self.ensure_assignment(v)?;
        let a = self.s.assignments.get(v).unwrap();
        let ps = a.parts[part as usize];
        if let Some(r) = ps.reg {
            return Ok(MoveLoc::Reg(r));
        }
        if let Some(Recompute::StackAddr(off)) = a.recompute {
            return Ok(MoveLoc::FrameAddr(off));
        }
        if ps.in_mem {
            if let Some(off) = a.frame_off {
                return Ok(MoveLoc::Frame(off + a.part_offset(part)));
            }
        }
        // Undefined along this path.
        Ok(MoveLoc::Const(0))
    }

    fn cycle_temp_slot(&mut self) -> i32 {
        if let Some(off) = self.cycle_temp {
            return off;
        }
        let off = self.s.frame.alloc(8, 8);
        self.cycle_temp = Some(off);
        off
    }

    fn emit_parallel_moves(&mut self, moves: &[MoveDesc]) -> Result<()> {
        let mut pending = std::mem::take(&mut self.s.pm_pending);
        pending.clear();
        pending.extend(moves.iter().filter(|m| m.dst != m.src).copied());
        let mut result = Ok(());
        while !pending.is_empty() {
            let ready = pending
                .iter()
                .position(|m| !pending.iter().any(|o| o.src == m.dst));
            let step = match ready {
                Some(i) => {
                    let m = pending.swap_remove(i);
                    self.emit_move(&m)
                }
                None => {
                    // break a cycle: park the first move's source in a temp slot
                    let m0 = pending[0];
                    let temp = MoveLoc::Frame(self.cycle_temp_slot());
                    let parked = self.emit_move(&MoveDesc {
                        dst: temp,
                        src: m0.src,
                        bank: m0.bank,
                        size: m0.size,
                    });
                    for m in pending.iter_mut() {
                        if m.src == m0.src {
                            m.src = temp;
                        }
                    }
                    parked
                }
            };
            if let Err(e) = step {
                result = Err(e);
                break;
            }
        }
        pending.clear();
        self.s.pm_pending = pending;
        result
    }

    fn emit_move(&mut self, m: &MoveDesc) -> Result<()> {
        let buf = &mut *self.buf;
        match (m.dst, m.src) {
            (MoveLoc::Reg(d), MoveLoc::Reg(s)) => self.mov_rr(m.bank, 8.max(m.size), d, s),
            (MoveLoc::Reg(d), MoveLoc::Frame(off)) => {
                self.target.emit_frame_load(buf, m.bank, m.size, d, off);
                self.stats.reloads += 1;
            }
            (MoveLoc::Reg(d), MoveLoc::Const(c)) => {
                self.target.emit_const(buf, m.bank, m.size, d, c);
                self.stats.moves += 1;
            }
            (MoveLoc::Reg(d), MoveLoc::FrameAddr(off)) => {
                self.target.emit_frame_addr(buf, d, off);
                self.stats.moves += 1;
            }
            (MoveLoc::Frame(off), MoveLoc::Reg(s)) => {
                self.target.emit_frame_store(buf, m.bank, m.size, off, s);
                self.stats.spills += 1;
            }
            (MoveLoc::Frame(doff), MoveLoc::Frame(soff)) => {
                let scratch = match m.bank {
                    RegBank::GP => self.target.scratch_gp(),
                    RegBank::FP => self.target.scratch_fp(),
                };
                self.target
                    .emit_frame_load(buf, m.bank, m.size, scratch, soff);
                self.target
                    .emit_frame_store(buf, m.bank, m.size, doff, scratch);
                self.stats.moves += 2;
            }
            (MoveLoc::Frame(doff), MoveLoc::Const(_) | MoveLoc::FrameAddr(_)) => {
                // through the scratch register
                let scratch = self.target.scratch_gp();
                self.emit_move(&MoveDesc {
                    dst: MoveLoc::Reg(scratch),
                    bank: RegBank::GP,
                    ..*m
                })?;
                self.target
                    .emit_frame_store(self.buf, RegBank::GP, m.size, doff, scratch);
                self.stats.moves += 1;
            }
            (MoveLoc::Const(_) | MoveLoc::FrameAddr(_), _) => {
                return Err(Error::InvalidIr(
                    "constant or address as move destination".into(),
                ));
            }
        }
        Ok(())
    }

    // ---- returns & calls ------------------------------------------------------------

    /// Moves the given value parts into the ABI return registers and emits
    /// the return.
    pub fn emit_return(&mut self, parts: &[ValuePartRef]) -> Result<()> {
        let cc = self.target.call_conv();
        self.s.parts_desc.clear();
        self.s
            .parts_desc
            .extend(parts.iter().map(|p| (p.bank, p.size)));
        self.s.ret_regs.clear();
        if !cc.assign_rets_into(&self.s.parts_desc, &mut self.s.ret_regs) {
            return Err(Error::Unsupported(
                "return value does not fit in registers".into(),
            ));
        }
        // Materialize sources into registers first so the parallel move only
        // deals with registers and constants.
        let mut moves = std::mem::take(&mut self.s.move_scratch);
        moves.clear();
        let mut prep = Ok(());
        for (i, p) in parts.iter().enumerate() {
            let dst = self.s.ret_regs[i];
            let src = if p.is_const {
                MoveLoc::Const(p.const_val)
            } else {
                match self.val_cur_reg(p) {
                    Some(r) => MoveLoc::Reg(r),
                    None => match self.val_as_reg(p) {
                        Ok(r) => MoveLoc::Reg(r),
                        Err(e) => {
                            prep = Err(e);
                            break;
                        }
                    },
                }
            };
            moves.push(MoveDesc {
                dst: MoveLoc::Reg(dst),
                src,
                bank: p.bank,
                size: p.size,
            });
        }
        let result = prep.and_then(|()| self.emit_parallel_moves(&moves));
        self.s.move_scratch = moves;
        result?;
        self.emit_return_void()
    }

    /// Emits a return without a return value.
    pub fn emit_return_void(&mut self) -> Result<()> {
        // a return in the last block is the function's last code
        let at_end = self.cur_pos as usize + 1 == self.analysis.layout.len();
        self.target
            .emit_ret(self.buf, &mut self.s.frame_state, at_end);
        self.state_valid_next = false;
        Ok(())
    }

    /// Emits a call: spills caller-saved values, moves arguments into place
    /// (registers and stack), emits the call and binds the results to the
    /// ABI return registers.
    ///
    /// `rets` lists the `(value, part)` pairs the call defines, in ABI order.
    pub fn emit_call(
        &mut self,
        callee: CallTarget,
        args: &[ValuePartRef],
        rets: &[(ValueRef, u32)],
        vararg_fp_count: Option<u8>,
    ) -> Result<()> {
        let target = self.target;
        let cc = target.call_conv();

        // 1. spill caller-saved registers holding values that live past the
        //    call. The register associations stay valid until the call so
        //    argument values that only live in registers can still be read.
        self.s.owned_regs.clear();
        self.regfile.value_owned_into(&mut self.s.owned_regs);
        for i in 0..self.s.owned_regs.len() {
            let (reg, v, p) = self.s.owned_regs[i];
            if !cc.caller_saved.contains(reg) {
                continue;
            }
            self.spill_part(v, p, false)?;
        }

        // 2. assign argument locations
        self.s.parts_desc.clear();
        self.s
            .parts_desc
            .extend(args.iter().map(|a| (a.bank, a.size)));
        self.s.arg_locs.clear();
        let arg_stack_bytes = cc.assign_args_into(&self.s.parts_desc, &mut self.s.arg_locs);
        let stack_bytes = (arg_stack_bytes + cc.stack_align - 1) & !(cc.stack_align - 1);
        if stack_bytes > 0 {
            self.target.emit_sp_adjust(self.buf, -(stack_bytes as i32));
        }

        // 3. stack arguments: materialize through the scratch register
        //    (argument registers are still untouched here).
        for (i, arg) in args.iter().enumerate() {
            if let ArgLoc::Stack(off) = self.s.arg_locs[i] {
                let scratch = match arg.bank {
                    RegBank::GP => self.target.scratch_gp(),
                    RegBank::FP => self.target.scratch_fp(),
                };
                self.materialize_into(scratch, arg, 8.max(arg.size))?;
                self.target
                    .emit_sp_store(self.buf, arg.bank, arg.size, off, scratch);
            }
        }

        // 3b. an indirect call target is moved into the scratch register
        //     before the argument registers are overwritten.
        let indirect = match &callee {
            CallTarget::Indirect(vp) => {
                let scratch = self.target.scratch_gp();
                self.materialize_into(scratch, vp, 8.max(vp.size))?;
                Some(scratch)
            }
            CallTarget::Sym(_) => None,
        };

        // 4. register arguments. Sources may themselves sit in argument
        //    registers, so this is a parallel-move problem; values that are
        //    trivially recomputable are materialized afterwards (their
        //    sources cannot be clobbered by the moves).
        let mut moves = std::mem::take(&mut self.s.move_scratch);
        moves.clear();
        self.s.recompute_args.clear();
        for (i, arg) in args.iter().enumerate() {
            let ArgLoc::Reg(r) = self.s.arg_locs[i] else {
                continue;
            };
            let src = if arg.is_const {
                MoveLoc::Const(arg.const_val)
            } else {
                match self.s.assignments.get(arg.val) {
                    Some(a) if a.parts[arg.part as usize].reg.is_some() => {
                        MoveLoc::Reg(a.parts[arg.part as usize].reg.unwrap())
                    }
                    Some(a) if a.recompute.is_some() => {
                        self.s.recompute_args.push((r, *arg));
                        continue;
                    }
                    Some(a) if a.parts[arg.part as usize].in_mem => {
                        MoveLoc::Frame(a.frame_off.unwrap_or(0) + a.part_offset(arg.part))
                    }
                    // undefined
                    _ => MoveLoc::Const(0),
                }
            };
            moves.push(MoveDesc {
                dst: MoveLoc::Reg(r),
                src,
                bank: arg.bank,
                size: arg.size,
            });
        }
        let moved = self.emit_parallel_moves(&moves);
        self.s.move_scratch = moves;
        moved?;
        for i in 0..self.s.recompute_args.len() {
            let (r, arg) = self.s.recompute_args[i];
            self.materialize_into(r, &arg, 8.max(arg.size))?;
        }

        if let Some(n) = vararg_fp_count {
            self.target.emit_vararg_fp_count(self.buf, n);
        }

        // 5. the call itself; afterwards every caller-saved register is
        //    considered clobbered.
        match callee {
            CallTarget::Sym(sym) => self.target.emit_call_sym(self.buf, sym),
            CallTarget::Indirect(_) => self.target.emit_call_reg(self.buf, indirect.unwrap()),
        }
        self.s.owned_regs.clear();
        self.regfile.value_owned_into(&mut self.s.owned_regs);
        for i in 0..self.s.owned_regs.len() {
            let (reg, v, p) = self.s.owned_regs[i];
            if !cc.caller_saved.contains(reg) {
                continue;
            }
            if let Some(a) = self.s.assignments.get_mut(v) {
                a.parts[p as usize].reg = None;
            }
            self.regfile.clear(reg);
        }

        if stack_bytes > 0 {
            self.target.emit_sp_adjust(self.buf, stack_bytes as i32);
        }

        // 6. bind results to the return registers
        if !rets.is_empty() {
            let adapter = self.adapter;
            self.s.parts_desc.clear();
            self.s.parts_desc.extend(
                rets.iter()
                    .map(|&(v, p)| (adapter.val_part_bank(v, p), adapter.val_part_size(v, p))),
            );
            self.s.ret_regs.clear();
            if !cc.assign_rets_into(&self.s.parts_desc, &mut self.s.ret_regs) {
                return Err(Error::Unsupported(
                    "call result does not fit in registers".into(),
                ));
            }
            for (i, &(v, p)) in rets.iter().enumerate() {
                let r = self.s.ret_regs[i];
                self.ensure_assignment(v)?;
                let a = self.s.assignments.get_mut(v).unwrap();
                a.parts[p as usize].reg = Some(r);
                a.parts[p as usize].in_mem = false;
                self.regfile.set_owner(r, RegOwner::Value(v, p));
                self.regfile.lock(r);
            }
        }
        Ok(())
    }

    /// Materializes a value part into a specific register (used for call
    /// arguments, indirect call targets and variable registers); a copy
    /// from another register moves `mov_size` bytes.
    pub(crate) fn materialize_into(
        &mut self,
        dst: Reg,
        p: &ValuePartRef,
        mov_size: u32,
    ) -> Result<()> {
        if p.is_const {
            self.target
                .emit_const(self.buf, p.bank, p.size, dst, p.const_val);
            return Ok(());
        }
        self.ensure_assignment(p.val)?;
        let a = self.s.assignments.get(p.val).unwrap();
        let ps = a.parts[p.part as usize];
        if let Some(r) = ps.reg {
            if r != dst {
                self.mov_rr(p.bank, mov_size, dst, r);
            }
            return Ok(());
        }
        if let Some(Recompute::StackAddr(off)) = a.recompute {
            self.target.emit_frame_addr(self.buf, dst, off);
            return Ok(());
        }
        if ps.in_mem {
            if let Some(off) = a.frame_off {
                let off = off + a.part_offset(p.part);
                self.target
                    .emit_frame_load(self.buf, p.bank, p.size, dst, off);
                self.count_frame_load(p.val);
                return Ok(());
            }
        }
        // undefined
        self.target.emit_const(self.buf, p.bank, p.size, dst, 0);
        Ok(())
    }

    /// Defines the single-part value `v` in place: the frame bytes at
    /// `off` already hold it (e.g. `v` is a load from a stack variable), so
    /// they become its home and nothing is emitted. Uses read the home on
    /// demand or fold it as a memory operand ([`FuncCodeGen::val_mem_loc`]);
    /// the value is never spilled and its home is never freed.
    ///
    /// The caller guarantees that every store to the home that can run
    /// between this definition and a use of `v` is emitted after this call
    /// and preceded by [`FuncCodeGen::clobber_frame`].
    pub fn define_in_frame(&mut self, v: ValueRef, off: i32) -> Result<()> {
        self.define_homed(v, Some(off), None)
    }

    /// Defines the single-part value `v` in place in `reg`, the register of
    /// a stack variable ([`FuncCodeGen::val_var_reg`]) that already holds it
    /// (`v` is a load from the variable), so nothing is emitted. Uses read
    /// the register; `v` never owns it, so it is never spilled, moved or
    /// handed to a result.
    ///
    /// The caller guarantees that every store to the variable that can run
    /// between this definition and a use of `v` is emitted after this call
    /// by [`FuncCodeGen::store_to_var_reg`].
    pub fn define_in_reg(&mut self, v: ValueRef, reg: Reg) -> Result<()> {
        self.define_homed(v, None, Some(reg))
    }

    fn define_homed(&mut self, v: ValueRef, off: Option<i32>, reg: Option<Reg>) -> Result<()> {
        self.ensure_assignment(v)?;
        let a = self.s.assignments.get_mut(v).unwrap();
        if a.nparts != 1 {
            return Err(Error::Unsupported(format!(
                "value {v:?} has {} parts and cannot live in one home",
                a.nparts
            )));
        }
        a.frame_off = off;
        a.homed = true;
        a.home_read = false;
        a.parts[0].in_mem = off.is_some();
        a.parts[0].reg = reg;
        a.parts[0].fixed = reg.is_some();
        self.s.homed.push(v);
        Ok(())
    }

    /// Defines `v` as a copy of `reg`, with one move: a load from a
    /// variable register ([`FuncCodeGen::val_var_reg`]) whose value cannot
    /// wait in it until its uses.
    pub fn define_copy(&mut self, v: ValueRef, reg: Reg) -> Result<()> {
        let size = self.adapter.val_part_size(v, 0);
        let dst = self.result_reg(v, 0)?;
        self.mov_rr(RegBank::GP, size, dst, reg);
        Ok(())
    }

    /// Stores `p` to the stack variable that lives in `reg`
    /// ([`FuncCodeGen::val_var_reg`]): every value homed in `reg`
    /// ([`FuncCodeGen::define_in_reg`]) that may still be read first moves
    /// to a register of its own, then `p` is materialized into `reg`, a
    /// copy moving `p`'s size. Storing a value back to the variable it is
    /// homed in emits nothing.
    pub fn store_to_var_reg(&mut self, reg: Reg, p: &ValuePartRef) -> Result<()> {
        let homed_here = |a: &Assignment| a.frame_off.is_none() && a.parts[0].reg == Some(reg);
        let home = self.s.assignments.get(p.val).filter(|a| a.homed);
        if !p.is_const && home.is_some_and(homed_here) {
            return Ok(());
        }
        self.clobber_homes(homed_here)?;
        self.materialize_into(reg, p, p.size)
    }

    /// Must precede a store to the `size` frame bytes at `off`: every value
    /// homed there ([`FuncCodeGen::define_in_frame`]) that may still be read
    /// moves into a register, and from then on is an ordinary value.
    pub fn clobber_frame(&mut self, off: i32, size: u32) -> Result<()> {
        let (lo, hi) = (off as i64, off as i64 + size as i64);
        let overlaps = |home: i32, a: &Assignment| {
            let home = home as i64;
            home < hi && lo < home + a.parts[0].size as i64
        };
        self.clobber_homes(|a| a.frame_off.is_some_and(|home| overlaps(home, a)))
    }

    /// Moves every homed value `hit` selects that may still be read into a
    /// register of its own; from then on it is an ordinary value.
    fn clobber_homes(&mut self, hit: impl Fn(&Assignment) -> bool) -> Result<()> {
        let mut i = 0;
        while i < self.s.homed.len() {
            let v = self.s.homed[i];
            let Some(&a) = self.s.assignments.get(v).filter(|a| a.homed) else {
                self.s.homed.swap_remove(i);
                continue;
            };
            if !hit(&a) {
                i += 1;
                continue;
            }
            self.s.homed.swap_remove(i);
            // a frame-homed value may already have a register of its own
            let owned = a.frame_off.is_some() && a.parts[0].reg.is_some();
            let read = !owned && self.lives_on(&a);
            if read {
                self.read_home(v, &a)?;
            }
            let a = self.s.assignments.get_mut(v).unwrap();
            a.homed = false;
            a.frame_off = None;
            a.parts[0].in_mem = false;
            a.parts[0].fixed = false;
            if !read && !owned {
                a.parts[0].reg = None;
            }
        }
        Ok(())
    }

    /// Reads homed value `v` (assignment `a`) into a register of its own:
    /// a load from its frame home, or a move from its variable register.
    fn read_home(&mut self, v: ValueRef, a: &Assignment) -> Result<()> {
        let ps = a.parts[0];
        let reg = self.alloc_reg(ps.bank, None)?;
        match (a.frame_off, ps.reg) {
            (Some(home), _) => {
                self.target
                    .emit_frame_load(self.buf, ps.bank, ps.size as u32, reg, home);
                self.count_frame_load(v);
            }
            (None, src) => {
                let src = src.expect("a value homed in a register");
                self.mov_rr(ps.bank, ps.size as u32, reg, src);
            }
        }
        self.s.assignments.get_mut(v).unwrap().parts[0].reg = Some(reg);
        self.regfile.set_owner(reg, RegOwner::Value(v, 0));
        Ok(())
    }

    /// The home of a value defined by [`FuncCodeGen::define_in_frame`], as
    /// long as no [`FuncCodeGen::clobber_frame`] has touched it. Does not
    /// count as a use.
    pub fn val_home(&self, v: ValueRef) -> Option<i32> {
        self.s.assignments.get(v).filter(|a| a.homed)?.frame_off
    }

    /// The register the static stack variable `p` is the address of lives
    /// in for the whole function, if it got one
    /// ([`InstCompiler::stack_vars_in_regs`]).
    pub fn val_var_reg(&self, p: &ValuePartRef) -> Option<Reg> {
        if p.is_const {
            return None;
        }
        let mut regs = self.s.var_regs.iter();
        regs.find(|&&(v, _)| v == p.val).map(|&(_, r)| r)
    }

    /// Ensures the value part has an up-to-date copy in its stack slot (used
    /// by instruction compilers before an instruction that clobbers the
    /// operand's register, e.g. x86-64 division).
    pub fn ensure_spilled(&mut self, p: &ValuePartRef) -> Result<()> {
        if p.is_const {
            return Ok(());
        }
        self.spill_part(p.val, p.part, false)
    }

    /// Breaks the association between a register and the value that was in
    /// it, without spilling. Used after instructions with fixed-register
    /// outputs clobbered the register. The caller must have ensured the
    /// value is dead or has a memory copy (see [`FuncCodeGen::ensure_spilled`]).
    pub fn forget_reg(&mut self, reg: Reg) {
        if let Some(RegOwner::Value(v, p)) = self.regfile.owner(reg) {
            if let Some(a) = self.s.assignments.get_mut(v) {
                a.parts[p as usize].reg = None;
            }
        }
        self.regfile.clear(reg);
    }

    /// Declares that `reg` (e.g. a fixed instruction output such as `rax`
    /// after a division) now holds the given result value part, detaching
    /// whatever value was previously associated with the register without
    /// spilling it.
    pub fn take_reg_for_result(&mut self, v: ValueRef, part: u32, reg: Reg) -> Result<()> {
        self.forget_reg(reg);
        self.ensure_assignment(v)?;
        let a = self.s.assignments.get_mut(v).unwrap();
        a.parts[part as usize].reg = Some(reg);
        a.parts[part as usize].in_mem = false;
        self.regfile.set_owner(reg, RegOwner::Value(v, part));
        self.regfile.lock(reg);
        Ok(())
    }

    /// The set of allocatable registers of a bank, minus the given
    /// exclusions; useful for expressing instruction register constraints.
    pub fn allocatable_set(&self, bank: RegBank, exclude: &[Reg]) -> RegSet {
        let mut set: RegSet = self.target.allocatable_regs(bank).iter().copied().collect();
        for r in exclude {
            set.remove(*r);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callconv::{sysv_x64, CallConv};
    use crate::target::TargetArch;
    use crate::test_ir::{TestInst, TestIr};

    // ----- a pseudo target that emits readable byte codes --------------------

    const OP_MOV: u8 = 0x01;
    const OP_STORE: u8 = 0x02;
    const OP_LOAD: u8 = 0x03;
    const OP_CONST: u8 = 0x04;
    const OP_JUMP: u8 = 0x05;
    const OP_RET: u8 = 0x06;

    struct MockTarget {
        cc: CallConv,
        gp: Vec<Reg>,
        fp: Vec<Reg>,
        fixed: Vec<Reg>,
    }

    impl MockTarget {
        fn new() -> MockTarget {
            let cc = sysv_x64();
            let gp: Vec<Reg> = [0u8, 7, 6, 2, 1, 8, 9, 3]
                .iter()
                .map(|&i| Reg::new(RegBank::GP, i))
                .collect();
            let fp: Vec<Reg> = (0..8).map(|i| Reg::new(RegBank::FP, i)).collect();
            let fixed = vec![Reg::new(RegBank::GP, 12), Reg::new(RegBank::GP, 13)];
            MockTarget { cc, gp, fp, fixed }
        }
    }

    impl Target for MockTarget {
        fn arch(&self) -> TargetArch {
            TargetArch::X86_64
        }
        fn call_conv(&self) -> &CallConv {
            &self.cc
        }
        fn allocatable_regs(&self, bank: RegBank) -> &[Reg] {
            match bank {
                RegBank::GP => &self.gp,
                RegBank::FP => &self.fp,
            }
        }
        fn fixed_reg_candidates(&self, bank: RegBank) -> &[Reg] {
            match bank {
                RegBank::GP => &self.fixed,
                RegBank::FP => &[],
            }
        }
        fn scratch_gp(&self) -> Reg {
            Reg::new(RegBank::GP, 11)
        }
        fn scratch_fp(&self) -> Reg {
            Reg::new(RegBank::FP, 15)
        }
        fn callee_save_area_size(&self) -> u32 {
            48
        }
        fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState) {
            frame.reset();
            buf.emit_u8(0xAA);
        }
        fn emit_ret(&self, buf: &mut CodeBuffer, _frame: &mut FrameState, _at_end: bool) {
            buf.emit_u8(OP_RET);
        }
        fn finish_func(&self, _: &mut CodeBuffer, _: &FrameState, _: u32, _: RegSet) -> Result<()> {
            Ok(())
        }
        fn emit_mov_rr(&self, buf: &mut CodeBuffer, _: RegBank, _: u32, dst: Reg, src: Reg) {
            buf.emit_u8(OP_MOV);
            buf.emit_u8(dst.compact() as u8);
            buf.emit_u8(src.compact() as u8);
        }
        fn emit_frame_store(&self, buf: &mut CodeBuffer, _: RegBank, _: u32, _off: i32, src: Reg) {
            buf.emit_u8(OP_STORE);
            buf.emit_u8(src.compact() as u8);
        }
        fn emit_frame_load(&self, buf: &mut CodeBuffer, _: RegBank, _: u32, dst: Reg, _off: i32) {
            buf.emit_u8(OP_LOAD);
            buf.emit_u8(dst.compact() as u8);
        }
        fn emit_frame_addr(&self, buf: &mut CodeBuffer, dst: Reg, _off: i32) {
            buf.emit_u8(0x07);
            buf.emit_u8(dst.compact() as u8);
        }
        fn emit_const(&self, buf: &mut CodeBuffer, _: RegBank, _: u32, dst: Reg, _v: u64) {
            buf.emit_u8(OP_CONST);
            buf.emit_u8(dst.compact() as u8);
        }
        fn emit_jump(&self, buf: &mut CodeBuffer, label: Label) {
            buf.emit_u8(OP_JUMP);
            let off = buf.text_offset();
            buf.emit_u32(0);
            buf.add_fixup(off, label, crate::codebuf::FixupKind::AbsTextOff32);
        }
        fn emit_call_sym(&self, buf: &mut CodeBuffer, _sym: SymbolId) {
            buf.emit_u8(0x08);
        }
        fn emit_call_reg(&self, buf: &mut CodeBuffer, _reg: Reg) {
            buf.emit_u8(0x09);
        }
        fn emit_sp_adjust(&self, buf: &mut CodeBuffer, _delta: i32) {
            buf.emit_u8(0x0A);
        }
        fn emit_sp_store(&self, buf: &mut CodeBuffer, _: RegBank, _: u32, _off: u32, _src: Reg) {
            buf.emit_u8(0x0B);
        }
    }

    // ----- a tiny IR for driving the code generator ----------------------------

    #[derive(Clone, Debug)]
    enum MiniOp {
        /// result = op0 + op1 (or just "define" when no operands)
        Add(u32, Vec<u32>),
        /// jump to block
        Jump(u32),
        /// conditional branch on value to (true, false)
        Branch(u32, u32, u32),
        /// return the given value
        Ret(Option<u32>),
    }

    impl TestInst for MiniOp {
        fn result(&self) -> Option<u32> {
            match self {
                MiniOp::Add(r, _) => Some(*r),
                _ => None,
            }
        }
        fn operands(&self) -> Vec<u32> {
            match self {
                MiniOp::Add(_, ops) => ops.clone(),
                MiniOp::Branch(c, _, _) | MiniOp::Ret(Some(c)) => vec![*c],
                _ => Vec::new(),
            }
        }
        fn successors(&self) -> Vec<u32> {
            match self {
                MiniOp::Jump(t) => vec![*t],
                MiniOp::Branch(_, t, f) => vec![*t, *f],
                _ => Vec::new(),
            }
        }
    }

    /// A function of [`MiniOp`]s, whose jumps and branches give its CFG.
    type MiniIr = TestIr<MiniOp>;

    /// `num_blocks` empty blocks.
    fn mini_ir(num_blocks: usize, num_args: u32) -> MiniIr {
        TestIr::new(vec![Vec::new(); num_blocks], num_args)
    }

    struct MiniCompiler;

    impl InstCompiler<MiniIr, MockTarget> for MiniCompiler {
        fn compile_inst(
            &mut self,
            cg: &mut FuncCodeGen<'_, MiniIr, MockTarget>,
            inst: InstRef,
        ) -> Result<()> {
            let op = cg.adapter.op(inst).clone();
            match op {
                MiniOp::Add(res, ops) => {
                    if ops.is_empty() {
                        let r = cg.result_reg(ValueRef(res), 0)?;
                        cg.target.emit_const(cg.buf, RegBank::GP, 8, r, 1);
                    } else {
                        let lhs = cg.val_ref(ValueRef(ops[0]), 0)?;
                        let mut rest = Vec::new();
                        for o in &ops[1..] {
                            let r = cg.val_ref(ValueRef(*o), 0)?;
                            rest.push(cg.val_as_reg(&r)?);
                        }
                        let dst = cg.result_reuse(ValueRef(res), 0, &lhs)?;
                        // pretend to add: just emit a mov marker per operand
                        for r in rest {
                            cg.target.emit_mov_rr(cg.buf, RegBank::GP, 8, dst, r);
                        }
                    }
                    Ok(())
                }
                MiniOp::Jump(t) => {
                    cg.spill_before_branch()?;
                    cg.terminator_fallthrough(BlockRef(t))?;
                    Ok(())
                }
                MiniOp::Branch(c, t, f) => {
                    let cref = cg.val_ref(ValueRef(c), 0)?;
                    let _creg = cg.val_as_reg(&cref)?;
                    cg.spill_before_branch()?;
                    let taken = cg.branch_target(BlockRef(t))?;
                    // pretend conditional jump
                    cg.target.emit_jump(cg.buf, taken);
                    cg.terminator_fallthrough(BlockRef(f))?;
                    Ok(())
                }
                MiniOp::Ret(v) => {
                    cg.spill_before_branch()?;
                    match v {
                        Some(v) => {
                            let r = cg.val_ref(ValueRef(v), 0)?;
                            cg.emit_return(&[r])
                        }
                        None => cg.emit_return_void(),
                    }
                }
            }
        }
    }

    fn compile(ir: &mut MiniIr) -> CompiledModule {
        let cg = CodeGen::new(MockTarget::new());
        cg.compile_module_with(&mut CompileSession::new(), ir, &mut MiniCompiler)
            .expect("compile")
    }

    #[test]
    fn straight_line_function_compiles() {
        let mut ir = mini_ir(1, 2);
        ir.push(0, MiniOp::Add(2, vec![0, 1]));
        ir.push(0, MiniOp::Ret(Some(2)));
        let m = compile(&mut ir);
        assert_eq!(m.stats.funcs, 1);
        assert_eq!(m.stats.insts, 2);
        assert!(m.text_size() > 0);
        // ends with mock RET
        assert_eq!(*m.buf.text().last().unwrap(), OP_RET);
        // function symbol defined with correct size
        let sym = m.buf.symbol_by_name("test").unwrap();
        assert_eq!(m.buf.symbol(sym).size, m.text_size());
    }

    #[test]
    fn values_wider_than_two_parts_are_unsupported() {
        let mut ir = mini_ir(1, 1);
        ir.parts = MAX_PARTS as u32 + 1;
        ir.push(0, MiniOp::Ret(None));
        let cg = CodeGen::new(MockTarget::new());
        let err = cg
            .compile_module_with(&mut CompileSession::new(), &mut ir, &mut MiniCompiler)
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn diamond_with_phi_compiles_and_resolves_labels() {
        let mut ir = mini_ir(4, 1);
        ir.push(0, MiniOp::Branch(0, 1, 2));
        ir.push(1, MiniOp::Add(1, vec![0, 0]));
        ir.push(1, MiniOp::Jump(3));
        ir.push(2, MiniOp::Add(2, vec![0]));
        ir.push(2, MiniOp::Jump(3));
        ir.phi(3, 3, vec![(1, 1), (2, 2)]);
        ir.push(3, MiniOp::Ret(Some(3)));
        let m = compile(&mut ir);
        assert_eq!(m.buf.pending_fixups(), 0, "all labels resolved");
        assert_eq!(m.stats.blocks, 4);
        assert!(m.stats.spills > 0, "values spilled before the join block");
    }

    #[test]
    fn loop_with_phi_uses_fixed_register() {
        // b0 -> b1(header, phi i) -> b2(latch: i' = i + i) -> b1 or b3(ret i')
        let mut ir = mini_ir(4, 1);
        ir.push(0, MiniOp::Jump(1));
        ir.phi(1, 1, vec![(0, 0), (2, 2)]);
        ir.push(1, MiniOp::Jump(2));
        ir.push(2, MiniOp::Add(2, vec![1, 1]));
        ir.push(2, MiniOp::Branch(2, 1, 3));
        ir.push(3, MiniOp::Ret(Some(2)));
        let m = compile(&mut ir);
        assert_eq!(m.buf.pending_fixups(), 0);
        assert_eq!(m.stats.funcs, 1);
    }

    /// b0 -> b1 (header, phi v1 of v0 and `latch_inc`) -> b2 (latch:
    /// v2 = v1 + v1, back edge on v2) -> b3 (return). v5 is defined in b0.
    fn counted_loop(latch_inc: u32) -> MiniIr {
        let mut ir = mini_ir(4, 1);
        ir.push(0, MiniOp::Add(5, vec![]));
        ir.push(0, MiniOp::Jump(1));
        ir.phi(1, 1, vec![(0, 0), (2, latch_inc)]);
        ir.push(1, MiniOp::Jump(2));
        ir.push(2, MiniOp::Add(2, vec![1, 1]));
        ir.push(2, MiniOp::Branch(2, 1, 3));
        ir.push(3, MiniOp::Ret(None));
        ir
    }

    #[test]
    fn phi_only_values_are_not_spilled_before_the_branch() {
        // v0 only feeds the entry edge's move and v2 only the back edge's:
        // both moves read the register, and the phi sits in a fixed one.
        let m = compile(&mut counted_loop(2));
        assert_eq!(m.stats.spills, 0);
    }

    #[test]
    fn a_loop_invariant_phi_incoming_is_still_spilled() {
        // v5 must survive every iteration, so it is stored before the loop.
        let m = compile(&mut counted_loop(5));
        assert_eq!(m.stats.spills, 1);
    }

    /// b0: v1 = def, v2 = def; branch on v2 to b2 or on to b1; b1: v3 =
    /// v1 + ..., jump b2; b2 (two predecessors): v4 = def, or v4 = v1 +
    /// ... if `join_reads`; return. b1 has one predecessor and follows
    /// b0, so it keeps the register state; b2 needs the canonical one.
    fn branch_over_a_use(join_reads: bool) -> MiniIr {
        let mut ir = mini_ir(3, 0);
        ir.push(0, MiniOp::Add(1, vec![]));
        ir.push(0, MiniOp::Add(2, vec![]));
        ir.push(0, MiniOp::Branch(2, 2, 1));
        ir.push(1, MiniOp::Add(3, vec![1]));
        ir.push(1, MiniOp::Jump(2));
        ir.push(2, MiniOp::Add(4, if join_reads { vec![1] } else { vec![] }));
        ir.push(2, MiniOp::Ret(None));
        ir
    }

    #[test]
    fn a_value_only_the_next_block_reads_is_not_stored_before_the_branch() {
        assert_eq!(compile(&mut branch_over_a_use(false)).stats.spills, 0);
    }

    #[test]
    fn a_value_the_taken_successor_reads_is_stored_before_the_branch() {
        assert_eq!(compile(&mut branch_over_a_use(true)).stats.spills, 1);
    }

    #[test]
    fn a_back_edge_keeps_every_value_stored() {
        // b0 -> b1 (header) -> b2 (latch: v2 = def, v3 = def; branch on v3
        // back to b1 or on to b3) -> b3 (v4 = v2 + ...; return). v2 is
        // dead on the back edge and b3 keeps the register state, but the
        // back edge needs the canonical state, so v2 is stored.
        let mut ir = mini_ir(4, 0);
        ir.push(0, MiniOp::Jump(1));
        ir.push(1, MiniOp::Jump(2));
        ir.push(2, MiniOp::Add(2, vec![]));
        ir.push(2, MiniOp::Add(3, vec![]));
        ir.push(2, MiniOp::Branch(3, 1, 3));
        ir.push(3, MiniOp::Add(4, vec![2]));
        ir.push(3, MiniOp::Ret(None));
        assert_eq!(compile(&mut ir).stats.spills, 1);
    }

    #[test]
    fn result_reuse_loads_a_spilled_live_operand_into_the_result() {
        // b0: v1 = def; branch on v1 to b1 / b2; b1: jump b2. b2 has two
        // predecessors, so v1 arrives there spilled and is used twice:
        // v2 = v1 + ...; v3 = v1 + v2.
        let mut ir = mini_ir(3, 0);
        ir.push(0, MiniOp::Add(1, vec![]));
        ir.push(0, MiniOp::Branch(1, 1, 2));
        ir.push(1, MiniOp::Jump(2));
        ir.push(2, MiniOp::Add(2, vec![1]));
        ir.push(2, MiniOp::Add(3, vec![1, 2]));
        ir.push(2, MiniOp::Ret(Some(3)));
        let probe = InstRef(3); // v2 = v1 + ...
        let mut seen = None;
        let mut compiler = |cg: &mut FuncCodeGen<'_, MiniIr, MockTarget>, inst: InstRef| {
            if inst != probe {
                return MiniCompiler.compile_inst(cg, inst);
            }
            let op = cg.val_ref(ValueRef(1), 0)?;
            assert!(cg.val_mem_loc(&op).is_some(), "v1 arrives spilled");
            assert!(!cg.val_is_last_use(&op), "v1 is still live");
            let start = cg.buf.text_offset() as usize;
            let before = cg.stats.clone();
            let dst = cg.result_reuse(ValueRef(2), 0, &op)?;
            let after = cg.stats.clone();
            seen = Some((
                cg.buf.text()[start..].to_vec(),
                dst,
                after.reloads - before.reloads,
                after.moves - before.moves,
            ));
            Ok(())
        };
        let cg = CodeGen::new(MockTarget::new());
        cg.compile_module_with(&mut CompileSession::new(), &mut ir, &mut compiler)
            .unwrap();
        let (bytes, dst, reloads, moves) = seen.expect("probe compiled");
        assert_eq!(bytes, [OP_LOAD, dst.compact() as u8], "one load, no mov");
        assert_eq!((reloads, moves), (1, 0));
    }

    #[test]
    fn an_operand_evicted_before_it_is_read_is_stored_first() {
        // v1..v16 are defined in b0 (8 GP registers: v9..v16 evict v1..v8
        // round-robin, and the clock wraps), then v20 = v9 + v1 is v9's
        // last use: loading v1 evicts v9, which has not been read yet.
        // v21 keeps v10..v16 live.
        let mut ir = mini_ir(1, 0);
        for i in 1..=16u32 {
            ir.push(0, MiniOp::Add(i, vec![]));
        }
        ir.push(0, MiniOp::Add(20, vec![9, 1]));
        ir.push(0, MiniOp::Add(21, (10..=16).chain([20]).collect()));
        ir.push(0, MiniOp::Ret(Some(21)));
        let probe = InstRef(16);
        let mut seen = None;
        let mut compiler = |cg: &mut FuncCodeGen<'_, MiniIr, MockTarget>, inst: InstRef| {
            let start = cg.buf.text_offset() as usize;
            let r = MiniCompiler.compile_inst(cg, inst);
            if inst == probe {
                seen = Some(cg.buf.text()[start..].to_vec());
            }
            r
        };
        let cg = CodeGen::new(MockTarget::new());
        cg.compile_module_with(&mut CompileSession::new(), &mut ir, &mut compiler)
            .unwrap();
        let bytes = seen.expect("probe compiled");
        let (mut ops, mut i) = (Vec::new(), 0);
        while i < bytes.len() {
            ops.push(bytes[i]);
            i += if bytes[i] == OP_MOV { 3 } else { 2 };
        }
        // store v9 and load v1 into its register, then store v10 and load
        // v9 into the result, and add: no zero stands in for a lost v9
        let want = [OP_STORE, OP_LOAD, OP_STORE, OP_LOAD, OP_MOV];
        assert_eq!(ops, want, "{bytes:02x?}");
        assert_eq!(bytes[1], bytes[3], "v9's register is stored, then reused");
    }

    #[test]
    fn call_spills_caller_saved_and_binds_results() {
        // function: v1 = def; call; use v1 afterwards -> v1 must be spilled
        struct CallCompiler;
        impl InstCompiler<MiniIr, MockTarget> for CallCompiler {
            fn compile_inst(
                &mut self,
                cg: &mut FuncCodeGen<'_, MiniIr, MockTarget>,
                inst: InstRef,
            ) -> Result<()> {
                let op = cg.adapter.op(inst).clone();
                match op {
                    MiniOp::Add(res, ops) if ops.is_empty() => {
                        let r = cg.result_reg(ValueRef(res), 0)?;
                        cg.target.emit_const(cg.buf, RegBank::GP, 8, r, 7);
                        Ok(())
                    }
                    MiniOp::Add(res, ops) => {
                        // model "call result = f(ops...)"
                        let mut args = Vec::new();
                        for o in &ops {
                            args.push(cg.val_ref(ValueRef(*o), 0)?);
                        }
                        let sym = cg.buf.declare_symbol("callee", SymbolBinding::Global, true);
                        cg.emit_call(CallTarget::Sym(sym), &args, &[(ValueRef(res), 0)], None)?;
                        Ok(())
                    }
                    MiniOp::Ret(v) => {
                        let parts = match v {
                            Some(v) => vec![cg.val_ref(ValueRef(v), 0)?],
                            None => vec![],
                        };
                        if parts.is_empty() {
                            cg.emit_return_void()
                        } else {
                            cg.emit_return(&parts)
                        }
                    }
                    _ => Ok(()),
                }
            }
        }
        let mut ir = mini_ir(1, 1);
        ir.push(0, MiniOp::Add(1, vec![])); // v1 = 7
        ir.push(0, MiniOp::Add(2, vec![0])); // v2 = call(arg0)
        ir.push(0, MiniOp::Add(3, vec![1, 2])); // v3 = call(v1, v2) -- v1 live across first call
        ir.push(0, MiniOp::Ret(Some(3)));
        let cg = CodeGen::new(MockTarget::new());
        let m = cg
            .compile_module_with(&mut CompileSession::new(), &mut ir, &mut CallCompiler)
            .unwrap();
        assert!(m.stats.spills >= 1, "v1 must be spilled across the call");
        let text = m.buf.text();
        assert!(text.contains(&0x08), "call byte emitted");
    }

    #[test]
    fn register_pressure_causes_eviction_not_failure() {
        // define 12 values (only 8 allocatable GP regs), then use each one
        let mut ir = mini_ir(1, 0);
        for i in 0..12u32 {
            ir.push(0, MiniOp::Add(1 + i, vec![]));
        }
        for i in 0..12u32 {
            ir.push(0, MiniOp::Add(20 + i, vec![1 + i, 1]));
        }
        ir.push(0, MiniOp::Ret(Some(31)));
        let m = compile(&mut ir);
        assert!(m.stats.spills > 0, "eviction spills under pressure");
        assert!(m.stats.reloads > 0, "evicted values reloaded at use");
    }
}
