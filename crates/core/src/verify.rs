//! IR verifier: the admission gate between untrusted IR and the back-ends.
//!
//! The framework trusts its [`IrAdapter`]
//! contract completely — analysis indexes successor arrays without bounds
//! checks, codegen assumes every block ends in a terminator, the register
//! allocator assumes every operand was defined earlier in layout order.
//! That is the right trade-off on the hot path (§2 of the paper: a
//! single-pass back-end cannot afford per-query validation), but it means a
//! malformed module turns into an out-of-bounds panic deep inside a worker
//! instead of an error the caller can act on.
//!
//! [`Verifier`] restores the error: one reusable, allocation-free pass over
//! any `IrAdapter` that checks the full contract *before* the IR reaches
//! analysis or codegen, producing a typed [`VerifyError`].
//! [`CompileService`](crate::service::CompileService) runs it at admission
//! (via [`ServiceBackend::verify`](crate::service::ServiceBackend::verify)),
//! so malformed modules answer [`Error::InvalidIr`](crate::error::Error)
//! immediately instead of tripping per-job panic containment.
//!
//! ## Invariants codegen may assume after verification
//!
//! Once `verify_func` returns `Ok(())` for a function, every later pass may
//! assume — without re-checking — that:
//!
//! 1. **Dense indices are in range.** Every `BlockRef` returned by
//!    `block_succs` and every `PhiIncoming::block` is `< block_count()`;
//!    every `InstRef` in `block_insts` is `< inst_count()` and appears in
//!    exactly one block, exactly once; every `ValueRef` appearing as an
//!    argument, stack variable, phi, operand, result or phi-incoming value
//!    is `< value_count()`.
//! 2. **Single definition.** No value is defined twice (across arguments,
//!    stack variables, phis and instruction results).
//! 3. **Terminator placement.** Every block has at least one instruction;
//!    if the adapter classifies terminators
//!    ([`inst_is_terminator`](crate::adapter::IrAdapter::inst_is_terminator)),
//!    the last instruction of each block is a terminator and no terminator
//!    appears earlier in a block.
//! 4. **Uses follow definitions in layout order** — the same dominance
//!    approximation the analyzer computes (reverse post-order with
//!    contiguous loops). A non-constant operand used at instruction `i` of
//!    block `b` was defined either at function entry (argument / stack
//!    variable), by an earlier phi or instruction of a block at an earlier
//!    layout position, or earlier within `b` itself. Phi-incoming values
//!    are uses *at the end of the incoming block*, so back-edge values
//!    defined later in layout are accepted exactly when the incoming block
//!    itself is later in layout.
//! 5. **Call arity.** If the adapter reports direct-call targets
//!    ([`inst_call_target`](crate::adapter::IrAdapter::inst_call_target))
//!    and callee signatures
//!    ([`func_param_count`](crate::adapter::IrAdapter::func_param_count)),
//!    every direct call passes exactly as many arguments as the callee
//!    declares, and the callee index is `< func_count()`.
//!
//! The verifier is deliberately *layout-order* based, not true-dominance
//! based: it accepts exactly the set of modules the single-pass back-ends
//! can compile, no fewer and no more.
//!
//! Buffers (including the embedded [`Analyzer`]) are owned by the
//! `Verifier` and reused across functions and modules, so steady-state
//! verification performs no allocations once the buffers have grown to the
//! largest function seen.

use crate::adapter::{BlockRef, FuncRef, IrAdapter, ValueRef};
use crate::analysis::{Analysis, Analyzer};
use std::fmt;

/// A structural defect found by the [`Verifier`].
///
/// Each variant corresponds to one invariant from the
/// [module docs](self); fields are the dense indices of the offending
/// entities (function / block / instruction / value), so a fuzzer can
/// assert the exact rejection class and a user can locate the defect.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The function has no basic blocks (nothing to compile, no entry).
    NoBlocks { func: u32 },
    /// A block successor index is `>= block_count()`.
    SuccOutOfRange { func: u32, block: u32, succ: u32 },
    /// An instruction index in a block is `>= inst_count()`.
    InstOutOfRange { func: u32, block: u32, inst: u32 },
    /// An instruction appears in more than one block (or twice in one).
    DuplicateInst { func: u32, inst: u32 },
    /// A value index (operand, result, phi, argument, stack variable or
    /// phi-incoming value) is `>= value_count()`.
    ValueOutOfRange { func: u32, value: u32 },
    /// A value is defined more than once.
    Redefined { func: u32, value: u32 },
    /// A block is empty or does not end in a terminator.
    MissingTerminator { func: u32, block: u32 },
    /// A terminator appears before the end of a block.
    MisplacedTerminator { func: u32, block: u32, inst: u32 },
    /// A non-constant value is used before (or without) its definition in
    /// layout order. `block` is the block containing the use.
    UseBeforeDef { func: u32, block: u32, value: u32 },
    /// A direct call targets a function index `>= func_count()`.
    CalleeOutOfRange { func: u32, inst: u32, callee: u32 },
    /// A direct call passes the wrong number of arguments.
    CallArityMismatch {
        func: u32,
        inst: u32,
        callee: u32,
        expected: u32,
        got: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VerifyError::NoBlocks { func } => write!(f, "f{func}: function has no blocks"),
            VerifyError::SuccOutOfRange { func, block, succ } => {
                write!(f, "f{func} b{block}: successor b{succ} out of range")
            }
            VerifyError::InstOutOfRange { func, block, inst } => {
                write!(f, "f{func} b{block}: instruction i{inst} out of range")
            }
            VerifyError::DuplicateInst { func, inst } => {
                write!(
                    f,
                    "f{func}: instruction i{inst} listed in more than one block"
                )
            }
            VerifyError::ValueOutOfRange { func, value } => {
                write!(f, "f{func}: value v{value} out of range")
            }
            VerifyError::Redefined { func, value } => {
                write!(f, "f{func}: value v{value} defined more than once")
            }
            VerifyError::MissingTerminator { func, block } => {
                write!(f, "f{func} b{block}: block does not end in a terminator")
            }
            VerifyError::MisplacedTerminator { func, block, inst } => {
                write!(
                    f,
                    "f{func} b{block}: terminator i{inst} before end of block"
                )
            }
            VerifyError::UseBeforeDef { func, block, value } => {
                write!(
                    f,
                    "f{func} b{block}: value v{value} used before its definition in layout order"
                )
            }
            VerifyError::CalleeOutOfRange { func, inst, callee } => {
                write!(f, "f{func} i{inst}: call target f{callee} out of range")
            }
            VerifyError::CallArityMismatch {
                func,
                inst,
                callee,
                expected,
                got,
            } => write!(
                f,
                "f{func} i{inst}: call to f{callee} passes {got} arguments, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<VerifyError> for crate::error::Error {
    fn from(e: VerifyError) -> Self {
        crate::error::Error::InvalidIr(e.to_string())
    }
}

/// Timestamp sentinel: "never defined".
const UNDEF: u32 = u32::MAX;

/// Reusable IR verifier. See the [module docs](self) for the checked
/// invariants. Create once, call [`Verifier::verify_module`] (or
/// `Verifier::verify_func` per function) as often as needed; all internal
/// buffers are reused.
#[derive(Default)]
pub struct Verifier {
    analyzer: Analyzer,
    analysis: Analysis,
    /// Per-instruction "already seen in some block" marker.
    seen_inst: Vec<bool>,
    /// Per-value "has a definition site" marker (structural pass).
    defined: Vec<bool>,
    /// Per-value definition timestamp (layout-order pass).
    def_time: Vec<u32>,
    /// Per-block timestamp of the block's end (layout-order pass).
    block_end: Vec<u32>,
}

impl Verifier {
    /// Creates a verifier with empty buffers.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Verifies every defined function of the module, switching the adapter
    /// to each function in turn. Stops at the first defect.
    pub fn verify_module<A: IrAdapter>(&mut self, adapter: &mut A) -> Result<(), VerifyError> {
        for f in 0..adapter.func_count() {
            let func = FuncRef(f as u32);
            if !adapter.func_is_definition(func) {
                continue;
            }
            adapter.switch_func(func);
            let res = self.verify_func(adapter, func);
            adapter.finalize_func();
            res?;
        }
        Ok(())
    }

    /// Verifies the adapter's *current* function (after `switch_func`).
    /// `func` is only used to label errors.
    pub(crate) fn verify_func<A: IrAdapter>(
        &mut self,
        adapter: &A,
        func: FuncRef,
    ) -> Result<(), VerifyError> {
        let fi = func.0;
        let nb = adapter.block_count();
        if nb == 0 {
            return Err(VerifyError::NoBlocks { func: fi });
        }
        let nv = adapter.value_count();
        let ni = adapter.inst_count();

        // ---- pass 1: bounds, density, terminators, calls, single-def ----
        // Everything here must hold before the analyzer may run (its DFS
        // indexes successor arrays unchecked).
        self.seen_inst.clear();
        self.seen_inst.resize(ni, false);
        self.defined.clear();
        self.defined.resize(nv, false);

        let define = |defined: &mut Vec<bool>, v: ValueRef| -> Result<(), VerifyError> {
            if v.idx() >= nv {
                return Err(VerifyError::ValueOutOfRange {
                    func: fi,
                    value: v.0,
                });
            }
            if defined[v.idx()] {
                return Err(VerifyError::Redefined {
                    func: fi,
                    value: v.0,
                });
            }
            defined[v.idx()] = true;
            Ok(())
        };

        for &a in adapter.args() {
            define(&mut self.defined, a)?;
        }
        for sv in adapter.static_stack_vars() {
            define(&mut self.defined, sv.value)?;
        }

        for b in 0..nb {
            let block = BlockRef(b as u32);
            for &s in adapter.block_succs(block) {
                if s.idx() >= nb {
                    return Err(VerifyError::SuccOutOfRange {
                        func: fi,
                        block: block.0,
                        succ: s.0,
                    });
                }
            }
            for &p in adapter.block_phis(block) {
                define(&mut self.defined, p)?;
                for inc in adapter.phi_incoming(p) {
                    if inc.block.idx() >= nb {
                        return Err(VerifyError::SuccOutOfRange {
                            func: fi,
                            block: block.0,
                            succ: inc.block.0,
                        });
                    }
                    if inc.value.idx() >= nv {
                        return Err(VerifyError::ValueOutOfRange {
                            func: fi,
                            value: inc.value.0,
                        });
                    }
                }
            }
            let insts = adapter.block_insts(block);
            if insts.is_empty() {
                return Err(VerifyError::MissingTerminator {
                    func: fi,
                    block: block.0,
                });
            }
            for (k, &inst) in insts.iter().enumerate() {
                if inst.idx() >= ni {
                    return Err(VerifyError::InstOutOfRange {
                        func: fi,
                        block: block.0,
                        inst: inst.0,
                    });
                }
                if self.seen_inst[inst.idx()] {
                    return Err(VerifyError::DuplicateInst {
                        func: fi,
                        inst: inst.0,
                    });
                }
                self.seen_inst[inst.idx()] = true;
                let last = k + 1 == insts.len();
                match adapter.inst_is_terminator(inst) {
                    Some(true) if !last => {
                        return Err(VerifyError::MisplacedTerminator {
                            func: fi,
                            block: block.0,
                            inst: inst.0,
                        });
                    }
                    Some(false) if last => {
                        return Err(VerifyError::MissingTerminator {
                            func: fi,
                            block: block.0,
                        });
                    }
                    _ => {}
                }
                for &op in adapter.inst_operands(inst) {
                    if op.idx() >= nv {
                        return Err(VerifyError::ValueOutOfRange {
                            func: fi,
                            value: op.0,
                        });
                    }
                }
                for &r in adapter.inst_results(inst) {
                    define(&mut self.defined, r)?;
                }
                if let Some((callee, got)) = adapter.inst_call_target(inst) {
                    if callee.idx() >= adapter.func_count() {
                        return Err(VerifyError::CalleeOutOfRange {
                            func: fi,
                            inst: inst.0,
                            callee: callee.0,
                        });
                    }
                    if let Some(expected) = adapter.func_param_count(callee) {
                        if expected != got {
                            return Err(VerifyError::CallArityMismatch {
                                func: fi,
                                inst: inst.0,
                                callee: callee.0,
                                expected: expected as u32,
                                got: got as u32,
                            });
                        }
                    }
                }
            }
        }

        // ---- pass 2: layout (the analyzer's dominance approximation) ----
        // Safe now: all indices are in range, so the unchecked DFS cannot
        // fault. Only the layout: admission reads neither the loop forest
        // nor a live range. It only errors on zero blocks, handled above.
        self.analyzer
            .layout_into(adapter, &mut self.analysis)
            .map_err(|_| VerifyError::NoBlocks { func: fi })?;

        // ---- pass 3: use-before-def in layout order ----
        // Timestamps increase along the layout; a use is valid iff its
        // definition has a strictly smaller timestamp. Phi-incoming values
        // are uses at the *end* of the incoming block.
        self.def_time.clear();
        self.def_time.resize(nv, UNDEF);
        self.block_end.clear();
        self.block_end.resize(nb, 0);

        let mut t: u32 = 1;
        for &a in adapter.args() {
            self.def_time[a.idx()] = 0;
        }
        for sv in adapter.static_stack_vars() {
            self.def_time[sv.value.idx()] = 0;
        }
        for &block in &self.analysis.layout {
            t += 1;
            for &p in adapter.block_phis(block) {
                self.def_time[p.idx()] = t;
            }
            for &inst in adapter.block_insts(block) {
                t += 1;
                for &op in adapter.inst_operands(inst) {
                    if adapter.val_is_const(op) {
                        continue;
                    }
                    if self.def_time[op.idx()] >= t {
                        return Err(VerifyError::UseBeforeDef {
                            func: fi,
                            block: block.0,
                            value: op.0,
                        });
                    }
                }
                for &r in adapter.inst_results(inst) {
                    self.def_time[r.idx()] = t;
                }
            }
            self.block_end[block.idx()] = t;
        }
        for b in 0..nb {
            let block = BlockRef(b as u32);
            for &p in adapter.block_phis(block) {
                for inc in adapter.phi_incoming(p) {
                    if adapter.val_is_const(inc.value) {
                        continue;
                    }
                    let def = self.def_time[inc.value.idx()];
                    if def == UNDEF || def > self.block_end[inc.block.idx()] {
                        return Err(VerifyError::UseBeforeDef {
                            func: fi,
                            block: inc.block.0,
                            value: inc.value.0,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{InstRef, Linkage, PhiIncoming, StackVarDesc};
    use crate::regs::RegBank;

    /// Minimal scriptable adapter: one function, explicit tables.
    #[derive(Default)]
    struct TestIr {
        nvals: usize,
        ninsts: usize,
        args: Vec<ValueRef>,
        stack_vars: Vec<StackVarDesc>,
        succs: Vec<Vec<BlockRef>>,
        insts: Vec<Vec<InstRef>>,
        phis: Vec<Vec<ValueRef>>,
        phi_in: Vec<(ValueRef, Vec<PhiIncoming>)>,
        operands: Vec<Vec<ValueRef>>,
        results: Vec<Vec<ValueRef>>,
        consts: Vec<ValueRef>,
        terms: Vec<Option<bool>>,
    }

    impl IrAdapter for TestIr {
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
        fn switch_func(&mut self, _: FuncRef) {}
        fn value_count(&self) -> usize {
            self.nvals
        }
        fn inst_count(&self) -> usize {
            self.ninsts
        }
        fn args(&self) -> &[ValueRef] {
            &self.args
        }
        fn static_stack_vars(&self) -> &[StackVarDesc] {
            &self.stack_vars
        }
        fn block_count(&self) -> usize {
            self.succs.len()
        }
        fn block_succs(&self, b: BlockRef) -> &[BlockRef] {
            &self.succs[b.idx()]
        }
        fn block_phis(&self, b: BlockRef) -> &[ValueRef] {
            &self.phis[b.idx()]
        }
        fn block_insts(&self, b: BlockRef) -> &[InstRef] {
            &self.insts[b.idx()]
        }
        fn phi_incoming(&self, phi: ValueRef) -> &[PhiIncoming] {
            &self
                .phi_in
                .iter()
                .find(|(p, _)| *p == phi)
                .expect("phi incoming")
                .1
        }
        fn inst_operands(&self, i: InstRef) -> &[ValueRef] {
            &self.operands[i.idx()]
        }
        fn inst_results(&self, i: InstRef) -> &[ValueRef] {
            &self.results[i.idx()]
        }
        fn val_part_count(&self, _: ValueRef) -> u32 {
            1
        }
        fn val_part_size(&self, _: ValueRef, _: u32) -> u32 {
            8
        }
        fn val_part_bank(&self, _: ValueRef, _: u32) -> RegBank {
            RegBank::GP
        }
        fn val_is_const(&self, v: ValueRef) -> bool {
            self.consts.contains(&v)
        }
        fn inst_is_terminator(&self, i: InstRef) -> Option<bool> {
            self.terms.get(i.idx()).copied().flatten()
        }
    }

    /// `f(a) { b0: r1 = op a; ret }` — a well-formed two-inst function.
    fn straight_line() -> TestIr {
        TestIr {
            nvals: 2,
            ninsts: 2,
            args: vec![ValueRef(0)],
            succs: vec![vec![]],
            insts: vec![vec![InstRef(0), InstRef(1)]],
            phis: vec![vec![]],
            operands: vec![vec![ValueRef(0)], vec![ValueRef(1)]],
            results: vec![vec![ValueRef(1)], vec![]],
            terms: vec![Some(false), Some(true)],
            ..TestIr::default()
        }
    }

    #[test]
    fn accepts_well_formed_function() {
        let mut ir = straight_line();
        assert_eq!(Verifier::new().verify_module(&mut ir), Ok(()));
    }

    #[test]
    fn rejects_layout_order_violation_but_accepts_back_edge_phi() {
        // b0 -> b1 -> b1 (self loop): phi in b1 takes the loop value from
        // b1 itself (a back edge) — legal. Using the loop value in b0 — not.
        let mut ir = TestIr {
            nvals: 3,
            ninsts: 4,
            args: vec![ValueRef(0)],
            succs: vec![vec![BlockRef(1)], vec![BlockRef(1)]],
            insts: vec![vec![InstRef(0), InstRef(1)], vec![InstRef(2), InstRef(3)]],
            phis: vec![vec![], vec![ValueRef(1)]],
            phi_in: vec![(
                ValueRef(1),
                vec![
                    PhiIncoming {
                        block: BlockRef(0),
                        value: ValueRef(0),
                    },
                    PhiIncoming {
                        block: BlockRef(1),
                        value: ValueRef(2),
                    },
                ],
            )],
            operands: vec![vec![], vec![], vec![ValueRef(1)], vec![]],
            results: vec![vec![], vec![], vec![ValueRef(2)], vec![]],
            terms: vec![Some(false), Some(true), Some(false), Some(true)],
            ..TestIr::default()
        };
        assert_eq!(Verifier::new().verify_module(&mut ir), Ok(()));

        // Now use the loop-defined v2 already in b0: layout-order violation.
        ir.operands[0] = vec![ValueRef(2)];
        assert_eq!(
            Verifier::new().verify_module(&mut ir),
            Err(VerifyError::UseBeforeDef {
                func: 0,
                block: 0,
                value: 2
            })
        );
    }

    #[test]
    fn verifier_buffers_are_reused() {
        let mut v = Verifier::new();
        let mut ir = straight_line();
        assert_eq!(v.verify_module(&mut ir), Ok(()));
        // Second run over the same shapes must not grow buffers.
        let cap = (v.seen_inst.capacity(), v.def_time.capacity());
        assert_eq!(v.verify_module(&mut ir), Ok(()));
        assert_eq!(cap, (v.seen_inst.capacity(), v.def_time.capacity()));
    }
}
