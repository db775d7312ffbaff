//! The TPDE IR adapter for the LLVM-IR-like module (§5.1.1 of the paper).

use crate::ir::{Block, Function, Inst, Module, Type, Value, ValueDef};
use tpde_core::adapter::{
    BlockRef, FuncRef, InstRef, IrAdapter, Linkage, PhiIncoming, StackVarDesc, ValueRef,
};
use tpde_core::regs::RegBank;

/// Adapter exposing a [`Module`] to the TPDE framework.
///
/// The IR already numbers values, blocks and functions densely, so
/// `switch_func` only has to pre-index the current function into flat
/// tables: one entry per instruction and per block, plus the operand, phi
/// and phi-edge lists they slice. All tables are `clear()`ed — never
/// dropped — between functions, so after the largest function of a module
/// has been indexed once, the compile loop performs no adapter allocations
/// (see the `tpde_core::adapter` module docs).
pub struct LlvmAdapter<'m> {
    /// The module being compiled.
    pub(crate) module: &'m Module,
    /// The current function (`None` before the first `switch_func`).
    func: Option<&'m Function>,
    /// The reusable flat-table storage.
    s: AdapterScratch,
}

/// Marks an instruction without a result in [`InstEntry::result`].
const NO_RESULT: ValueRef = ValueRef(u32::MAX);

/// Per-instruction index entry.
#[derive(Debug, Clone, Copy)]
struct InstEntry {
    /// Block and index within the block.
    block: u32,
    idx: u32,
    /// Range in `AdapterScratch::operands`.
    op_start: u32,
    op_len: u32,
    /// The result value, or [`NO_RESULT`].
    result: ValueRef,
}

/// Per-block index entry.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    /// Range of flat instruction indices.
    inst_start: u32,
    inst_len: u32,
    /// Range in `AdapterScratch::phis`.
    phi_start: u32,
    phi_len: u32,
    /// Successors of the terminator (at most two).
    succs: [BlockRef; 2],
    succ_len: u32,
}

/// The flat-table working memory of an [`LlvmAdapter`], detached from the
/// module borrow so it can be kept warm across modules.
///
/// [`LlvmAdapter::new`] starts from empty tables; the one-shot entry points
/// and the compile-service workers park the scratch between modules
/// ([`LlvmAdapter::into_scratch`]) and re-attach it to the next one
/// ([`LlvmAdapter::with_scratch`]), so the per-function indexing in
/// `switch_func` reuses the grown capacities.
#[derive(Debug, Default)]
pub(crate) struct AdapterScratch {
    insts: Vec<InstEntry>,
    blocks: Vec<BlockEntry>,
    /// `InstRef(i)` at index `i`: what `block_insts` slices. Only ever
    /// grows; it is the same for every function.
    inst_refs: Vec<InstRef>,
    /// All operand lists back to back.
    operands: Vec<ValueRef>,
    /// All phi lists back to back.
    phis: Vec<ValueRef>,
    /// All phi incoming edges back to back; per-value range below.
    phi_inc: Vec<PhiIncoming>,
    /// Per value: (start, len) into `phi_inc`; non-zero only for `phis`.
    phi_inc_ranges: Vec<(u32, u32)>,
    /// Argument values of the current function.
    args: Vec<ValueRef>,
    /// Static stack variables of the current function.
    stack_vars: Vec<StackVarDesc>,
    /// How the current function uses its stack variables.
    stack_uses: StackVarUses,
}

/// Marks the end of a store-block list in [`StackVarUses::stores`].
const NO_LINK: u32 = u32::MAX;

/// How one function uses its static stack variables, gathered by the
/// indexing walk of `switch_func`: what a back-end needs to tell whether a
/// load from a stack variable may be deferred to the load's uses, and
/// whether the variable may live in a register.
#[derive(Debug, Default)]
struct StackVarUses {
    /// Per stack variable: size, whether its address escapes, whether
    /// every access is a whole-variable integer one, how many accesses
    /// there are, and the head of its list of storing blocks in `stores`.
    vars: Vec<StackVarUse>,
    /// The storing blocks of every variable, as linked lists: a block and
    /// the index of the variable's previous storing block (or `NO_LINK`).
    stores: Vec<(BlockRef, u32)>,
    /// Whether every load and store through a stack variable's address
    /// stays inside that variable.
    in_bounds: bool,
    /// The smallest and largest value id of a variable's address, which
    /// rule out most operands before the value table is read.
    ids: (u32, u32),
}

#[derive(Debug, Clone, Copy)]
struct StackVarUse {
    size: u32,
    escaped: bool,
    /// Every access loads or stores the whole 4- or 8-byte variable at
    /// offset 0 as an integer or pointer.
    whole: bool,
    accesses: u32,
    stores: u32,
}

impl StackVarUses {
    fn reset(&mut self, f: &Function) {
        self.vars.clear();
        self.stores.clear();
        self.in_bounds = true;
        let ids = f.stack_slot_values.iter().map(|v| v.0);
        self.ids = (ids.clone().min().unwrap_or(1), ids.max().unwrap_or(0));
        self.vars
            .extend(f.stack_slots.iter().map(|&(size, _)| StackVarUse {
                size,
                escaped: false,
                whole: matches!(size, 4 | 8),
                accesses: 0,
                stores: NO_LINK,
            }));
    }

    /// The stack variable `v` is the address of, if it is one.
    fn var_of(&self, f: &Function, v: Value) -> Option<usize> {
        if v.0 < self.ids.0 || v.0 > self.ids.1 {
            return None;
        }
        match f.values.get(v.0 as usize)?.def {
            ValueDef::StackSlot(i) => Some(i as usize),
            _ => None,
        }
    }

    /// Any use of a variable's address other than as the address of a
    /// load or store lets it escape.
    fn escape(&mut self, f: &Function, v: Value) {
        if let Some(var) = self.var_of(f, v).and_then(|i| self.vars.get_mut(i)) {
            var.escaped = true;
        }
    }

    /// An access of type `ty` at `off` through `addr`; returns the
    /// variable `addr` is the address of.
    fn access(&mut self, f: &Function, addr: Value, off: i32, ty: Type) -> Option<usize> {
        let i = self.var_of(f, addr)?;
        let var = self.vars.get_mut(i)?;
        let size = ty.size();
        if off < 0 || off as u64 + size as u64 > var.size as u64 {
            self.in_bounds = false;
        }
        var.whole &= off == 0 && size == var.size && !ty.is_fp();
        var.accesses += 1;
        Some(i)
    }

    fn note_inst(&mut self, f: &Function, block: BlockRef, inst: &Inst) {
        match *inst {
            Inst::Load { ty, addr, off, .. } => {
                self.access(f, addr, off, ty);
            }
            Inst::Store {
                ty,
                addr,
                off,
                value,
            } => {
                if let Some(i) = self.access(f, addr, off, ty) {
                    let head = self.vars[i].stores;
                    if head == NO_LINK || self.stores[head as usize].0 != block {
                        self.vars[i].stores = self.stores.len() as u32;
                        self.stores.push((block, head));
                    }
                }
                self.escape(f, value);
            }
            _ => inst.visit_operands(|v| self.escape(f, v)),
        }
    }
}

impl<'m> LlvmAdapter<'m> {
    /// Creates an adapter for a module with empty tables.
    pub fn new(module: &'m Module) -> LlvmAdapter<'m> {
        LlvmAdapter::with_scratch(module, AdapterScratch::default())
    }

    /// Creates an adapter for a module reusing previously grown table
    /// capacities (see [`AdapterScratch`]).
    pub(crate) fn with_scratch(module: &'m Module, scratch: AdapterScratch) -> LlvmAdapter<'m> {
        LlvmAdapter {
            module,
            func: None,
            s: scratch,
        }
    }

    /// Detaches the flat-table storage for reuse with another module.
    pub(crate) fn into_scratch(self) -> AdapterScratch {
        self.s
    }

    /// The function currently being compiled.
    ///
    /// # Panics
    ///
    /// Panics before the first `switch_func`.
    #[inline]
    pub(crate) fn cur_func(&self) -> &'m Function {
        self.func.expect("switch_func selects the function first")
    }

    /// The IR instruction behind an [`InstRef`].
    #[inline]
    pub(crate) fn inst(&self, inst: InstRef) -> &'m Inst {
        let e = &self.s.insts[inst.idx()];
        &self.cur_func().blocks[e.block as usize].insts[e.idx as usize]
    }

    /// The instruction following `inst` within the same block, if any.
    pub(crate) fn next_inst_in_block(&self, inst: InstRef) -> Option<InstRef> {
        let e = &self.s.insts[inst.idx()];
        (e.idx + 1 < self.s.blocks[e.block as usize].inst_len).then_some(InstRef(inst.0 + 1))
    }

    /// The stack variable a load of `size` bytes at `addr + off` reads,
    /// if the loaded value may stay in that memory until its uses: `addr`
    /// is the address of a static stack variable that does not escape
    /// (every use of it is the address of a load or store), and no access
    /// through any stack variable of the function leaves its variable.
    /// Whether a store to it can then run before a use is the caller's
    /// question ([`LlvmAdapter::stack_var_store_blocks`]).
    pub(crate) fn deferrable_stack_load(
        &self,
        addr: crate::ir::Value,
        off: i32,
        size: u32,
    ) -> Option<u32> {
        let u = &self.s.stack_uses;
        let i = u.var_of(self.cur_func(), addr)?;
        let var = u.vars.get(i)?;
        let inside = off >= 0 && off as u64 + size as u64 <= var.size as u64;
        (u.in_bounds && !var.escaped && inside).then_some(i as u32)
    }

    /// The blocks that store to stack variable `var`, each once, in no
    /// particular order.
    pub(crate) fn stack_var_store_blocks(&self, var: u32) -> impl Iterator<Item = BlockRef> + '_ {
        let u = &self.s.stack_uses;
        let mut next = u.vars.get(var as usize).map_or(NO_LINK, |v| v.stores);
        std::iter::from_fn(move || {
            let (block, prev) = *u.stores.get(next as usize)?;
            next = prev;
            Some(block)
        })
    }
}

fn bank_of(ty: Type) -> RegBank {
    if ty.is_fp() {
        RegBank::FP
    } else {
        RegBank::GP
    }
}

impl<'m> IrAdapter for LlvmAdapter<'m> {
    fn func_count(&self) -> usize {
        self.module.funcs.len()
    }

    fn func_name(&self, func: FuncRef) -> &str {
        &self.module.funcs[func.idx()].name
    }

    fn func_linkage(&self, func: FuncRef) -> Linkage {
        // An undefined symbol cannot be local: a declaration is external
        // whatever its `internal` flag says.
        let f = &self.module.funcs[func.idx()];
        if f.internal && !f.is_decl {
            Linkage::Internal
        } else {
            Linkage::External
        }
    }

    fn func_is_definition(&self, func: FuncRef) -> bool {
        !self.module.funcs[func.idx()].is_decl
    }

    fn module_inst_count(&self) -> usize {
        let defined = self.module.funcs.iter().filter(|f| !f.is_decl);
        defined.flat_map(|f| &f.blocks).map(|b| b.insts.len()).sum()
    }

    fn switch_func(&mut self, func: FuncRef) {
        let f = &self.module.funcs[func.idx()];
        self.func = Some(f);
        let s = &mut self.s;
        // Only the previous function's phis have a non-zero range. Ids that
        // are out of range are tolerated while indexing: the verifier reads
        // the raw lists and rejects them with a typed error.
        for p in s.phis.drain(..) {
            if let Some(r) = s.phi_inc_ranges.get_mut(p.idx()) {
                *r = (0, 0);
            }
        }
        s.phi_inc_ranges.resize(f.value_count(), (0, 0));
        s.insts.clear();
        s.blocks.clear();
        s.operands.clear();
        s.phi_inc.clear();
        s.args.clear();
        s.stack_vars.clear();
        s.stack_uses.reset(f);
        let track_stack = !f.stack_slots.is_empty();

        s.args.extend((0..f.params.len() as u32).map(ValueRef));
        s.stack_vars
            .extend(f.stack_slots.iter().zip(f.stack_slot_values.iter()).map(
                |(&(size, align), &v)| StackVarDesc {
                    value: ValueRef(v.0),
                    size,
                    align,
                },
            ));

        for (bi, b) in f.blocks.iter().enumerate() {
            let inst_start = s.insts.len() as u32;
            for (ii, inst) in b.insts.iter().enumerate() {
                let op_start = s.operands.len() as u32;
                inst.visit_operands(|v| s.operands.push(ValueRef(v.0)));
                if track_stack {
                    s.stack_uses.note_inst(f, BlockRef(bi as u32), inst);
                }
                s.insts.push(InstEntry {
                    block: bi as u32,
                    idx: ii as u32,
                    op_start,
                    op_len: s.operands.len() as u32 - op_start,
                    result: inst.result().map_or(NO_RESULT, |r| ValueRef(r.0)),
                });
            }

            let mut succs = [BlockRef(0); 2];
            let mut succ_len = 0;
            if let Some(t) = b.insts.last() {
                t.visit_successors(|succ| {
                    succs[succ_len] = BlockRef(succ.0);
                    succ_len += 1;
                });
            }

            let phi_start = s.phis.len() as u32;
            for p in &b.phis {
                if track_stack {
                    for &(_, v) in &p.incoming {
                        s.stack_uses.escape(f, v);
                    }
                }
                s.phis.push(ValueRef(p.res.0));
                let inc_start = s.phi_inc.len() as u32;
                s.phi_inc
                    .extend(p.incoming.iter().map(|&(blk, v)| PhiIncoming {
                        block: BlockRef(blk.0),
                        value: ValueRef(v.0),
                    }));
                if let Some(r) = s.phi_inc_ranges.get_mut(p.res.0 as usize) {
                    *r = (inc_start, s.phi_inc.len() as u32 - inc_start);
                }
            }
            s.blocks.push(BlockEntry {
                inst_start,
                inst_len: b.insts.len() as u32,
                phi_start,
                phi_len: b.phis.len() as u32,
                succs,
                succ_len: succ_len as u32,
            });
        }
        let known = s.inst_refs.len() as u32;
        s.inst_refs
            .extend((known..s.insts.len() as u32).map(InstRef));
    }

    fn value_count(&self) -> usize {
        self.cur_func().value_count()
    }

    fn inst_count(&self) -> usize {
        self.s.insts.len()
    }

    fn args(&self) -> &[ValueRef] {
        &self.s.args
    }

    fn static_stack_vars(&self) -> &[StackVarDesc] {
        &self.s.stack_vars
    }

    fn stack_var_accesses(&self, var: usize) -> u32 {
        let u = &self.s.stack_uses;
        let fits = |v: &&StackVarUse| u.in_bounds && !v.escaped && v.whole;
        u.vars.get(var).filter(fits).map_or(0, |v| v.accesses)
    }

    fn block_count(&self) -> usize {
        self.s.blocks.len()
    }

    fn block_succs(&self, block: BlockRef) -> &[BlockRef] {
        let b = &self.s.blocks[block.idx()];
        &b.succs[..b.succ_len as usize]
    }

    fn block_phis(&self, block: BlockRef) -> &[ValueRef] {
        let b = &self.s.blocks[block.idx()];
        &self.s.phis[b.phi_start as usize..(b.phi_start + b.phi_len) as usize]
    }

    fn block_insts(&self, block: BlockRef) -> &[InstRef] {
        let b = &self.s.blocks[block.idx()];
        &self.s.inst_refs[b.inst_start as usize..(b.inst_start + b.inst_len) as usize]
    }

    fn phi_incoming(&self, phi: ValueRef) -> &[PhiIncoming] {
        let (start, len) = self.s.phi_inc_ranges[phi.idx()];
        &self.s.phi_inc[start as usize..(start + len) as usize]
    }

    #[inline]
    fn inst_operands(&self, inst: InstRef) -> &[ValueRef] {
        let e = &self.s.insts[inst.idx()];
        &self.s.operands[e.op_start as usize..(e.op_start + e.op_len) as usize]
    }

    #[inline]
    fn inst_results(&self, inst: InstRef) -> &[ValueRef] {
        let e = &self.s.insts[inst.idx()];
        if e.result == NO_RESULT {
            &[]
        } else {
            std::slice::from_ref(&e.result)
        }
    }

    fn val_part_count(&self, _val: ValueRef) -> u32 {
        1
    }

    #[inline]
    fn val_part_size(&self, val: ValueRef, _part: u32) -> u32 {
        self.cur_func().values[val.idx()].ty.size().max(1)
    }

    #[inline]
    fn val_part_bank(&self, val: ValueRef, _part: u32) -> RegBank {
        bank_of(self.cur_func().values[val.idx()].ty)
    }

    #[inline]
    fn val_is_const(&self, val: ValueRef) -> bool {
        matches!(self.cur_func().values[val.idx()].def, ValueDef::Const(_))
    }

    fn val_const_data(&self, val: ValueRef, _part: u32) -> u64 {
        match self.cur_func().values[val.idx()].def {
            ValueDef::Const(bits) => bits,
            _ => 0,
        }
    }

    // Verification support: this adapter can classify terminators and
    // direct calls exactly, so the verifier checks terminator placement
    // and call arity for LLVM-IR modules.

    fn inst_is_terminator(&self, inst: InstRef) -> Option<bool> {
        Some(self.inst(inst).is_terminator())
    }

    fn inst_call_target(&self, inst: InstRef) -> Option<(FuncRef, usize)> {
        match self.inst(inst) {
            Inst::Call { callee, args, .. } => Some((FuncRef(callee.0), args.len())),
            _ => None,
        }
    }

    fn func_param_count(&self, func: FuncRef) -> Option<usize> {
        self.module.funcs.get(func.idx()).map(|f| f.params.len())
    }
}

/// Helper to convert IR blocks to framework block references.
pub(crate) fn block_ref(b: Block) -> BlockRef {
    BlockRef(b.0)
}

/// Helper to convert IR values to framework value references.
pub(crate) fn value_ref(v: Value) -> ValueRef {
    ValueRef(v.0)
}
