//! A scriptable one-function IR for the unit tests of the analysis pass and
//! the code generator.
//!
//! Blocks, phis and instructions are given as plain numbers; the adapter
//! builds the dense index tables the [`IrAdapter`] contract asks for in
//! [`IrAdapter::switch_func`], so every query answers with a borrowed slice.
//! The instruction type is the test's own: it names the value it defines,
//! the values it reads and the blocks it branches to.

use crate::adapter::{BlockRef, FuncRef, InstRef, IrAdapter, Linkage, PhiIncoming, ValueRef};
use crate::regs::RegBank;

/// An instruction of a [`TestIr`].
pub(crate) trait TestInst {
    /// The value the instruction defines, if any.
    fn result(&self) -> Option<u32>;
    /// The values the instruction reads, in operand order.
    fn operands(&self) -> Vec<u32>;
    /// The blocks the instruction branches to.
    fn successors(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// Per block: (phi value, [(pred, incoming value)]).
type PhiList = Vec<Vec<(u32, Vec<(u32, u32)>)>>;

/// One function named `test`. Values `0..num_args` are its arguments, and
/// every value has [`TestIr::parts`] 8-byte GP parts.
pub(crate) struct TestIr<I> {
    /// Per block: the successors given up front, then those of its
    /// instructions.
    succs: Vec<Vec<u32>>,
    insts: Vec<Vec<I>>,
    phis: PhiList,
    num_args: u32,
    num_values: usize,
    /// Parts per value (1 unless a test widens it).
    pub(crate) parts: u32,
    // dense index tables built by switch_func
    idx_args: Vec<ValueRef>,
    idx_succs: Vec<Vec<BlockRef>>,
    idx_phis: Vec<Vec<ValueRef>>,
    idx_insts: Vec<Vec<InstRef>>,
    idx_ops: Vec<Vec<ValueRef>>,
    idx_res: Vec<Vec<ValueRef>>,
    idx_phi_inc: Vec<Vec<PhiIncoming>>,
    /// flat instruction index -> (block, index within block)
    inst_index: Vec<(u32, u32)>,
}

impl<I: TestInst> TestIr<I> {
    /// A function with one block per entry of `succs`, each with those
    /// successors and no instructions yet.
    pub(crate) fn new(succs: Vec<Vec<u32>>, num_args: u32) -> TestIr<I> {
        let n = succs.len();
        TestIr {
            succs,
            insts: (0..n).map(|_| Vec::new()).collect(),
            phis: vec![Vec::new(); n],
            num_args,
            num_values: num_args as usize,
            parts: 1,
            idx_args: Vec::new(),
            idx_succs: Vec::new(),
            idx_phis: Vec::new(),
            idx_insts: Vec::new(),
            idx_ops: Vec::new(),
            idx_res: Vec::new(),
            idx_phi_inc: Vec::new(),
            inst_index: Vec::new(),
        }
    }

    /// Appends `inst` to `block`, and its successors to the block's.
    pub(crate) fn push(&mut self, block: u32, inst: I) {
        if let Some(r) = inst.result() {
            self.num_values = self.num_values.max(r as usize + 1);
        }
        self.succs[block as usize].extend(inst.successors());
        self.insts[block as usize].push(inst);
    }

    /// Adds phi `val` to `block`, with `(pred, value)` incomings.
    pub(crate) fn phi(&mut self, block: u32, val: u32, incoming: Vec<(u32, u32)>) {
        self.num_values = self.num_values.max(val as usize + 1);
        self.phis[block as usize].push((val, incoming));
    }

    /// The instruction behind `inst` (valid after [`IrAdapter::switch_func`]).
    pub(crate) fn op(&self, inst: InstRef) -> &I {
        let (b, i) = self.inst_index[inst.idx()];
        &self.insts[b as usize][i as usize]
    }
}

impl<I: TestInst> IrAdapter for TestIr<I> {
    fn func_count(&self) -> usize {
        1
    }
    fn func_name(&self, _: FuncRef) -> &str {
        "test"
    }
    fn func_linkage(&self, _: FuncRef) -> Linkage {
        Linkage::External
    }
    fn func_is_definition(&self, _: FuncRef) -> bool {
        true
    }
    fn switch_func(&mut self, _: FuncRef) {
        self.idx_args = (0..self.num_args).map(ValueRef).collect();
        self.idx_succs = self
            .succs
            .iter()
            .map(|s| s.iter().map(|&b| BlockRef(b)).collect())
            .collect();
        self.idx_phis = self
            .phis
            .iter()
            .map(|p| p.iter().map(|&(v, _)| ValueRef(v)).collect())
            .collect();
        self.idx_phi_inc = vec![Vec::new(); self.num_values];
        for blk in &self.phis {
            for (v, inc) in blk {
                self.idx_phi_inc[*v as usize] = inc
                    .iter()
                    .map(|&(b, val)| PhiIncoming {
                        block: BlockRef(b),
                        value: ValueRef(val),
                    })
                    .collect();
            }
        }
        // dense instruction numbering: flat index across blocks
        self.idx_insts.clear();
        self.idx_ops.clear();
        self.idx_res.clear();
        self.inst_index.clear();
        for (bi, blk) in self.insts.iter().enumerate() {
            let mut refs = Vec::new();
            for (ii, inst) in blk.iter().enumerate() {
                refs.push(InstRef(self.inst_index.len() as u32));
                self.inst_index.push((bi as u32, ii as u32));
                self.idx_ops
                    .push(inst.operands().into_iter().map(ValueRef).collect());
                self.idx_res
                    .push(inst.result().map(ValueRef).into_iter().collect());
            }
            self.idx_insts.push(refs);
        }
    }
    fn value_count(&self) -> usize {
        self.num_values
    }
    fn inst_count(&self) -> usize {
        self.inst_index.len()
    }
    fn args(&self) -> &[ValueRef] {
        &self.idx_args
    }
    fn block_count(&self) -> usize {
        self.succs.len()
    }
    fn block_succs(&self, block: BlockRef) -> &[BlockRef] {
        &self.idx_succs[block.idx()]
    }
    fn block_phis(&self, block: BlockRef) -> &[ValueRef] {
        &self.idx_phis[block.idx()]
    }
    fn block_insts(&self, block: BlockRef) -> &[InstRef] {
        &self.idx_insts[block.idx()]
    }
    fn phi_incoming(&self, phi: ValueRef) -> &[PhiIncoming] {
        &self.idx_phi_inc[phi.idx()]
    }
    fn inst_operands(&self, inst: InstRef) -> &[ValueRef] {
        &self.idx_ops[inst.idx()]
    }
    fn inst_results(&self, inst: InstRef) -> &[ValueRef] {
        &self.idx_res[inst.idx()]
    }
    fn val_part_count(&self, _: ValueRef) -> u32 {
        self.parts
    }
    fn val_part_size(&self, _: ValueRef, _: u32) -> u32 {
        8
    }
    fn val_part_bank(&self, _: ValueRef, _: u32) -> RegBank {
        RegBank::GP
    }
}
