//! Verifier rejection suite: one deliberately-malformed module per
//! [`VerifyError`] variant.
//!
//! Each case asserts two things:
//!
//! 1. the [`Verifier`] reports the *exact* typed error for the defect, and
//! 2. the same module submitted to a [`CompileService`] (whose backend runs
//!    the verifier at admission) answers [`Error::InvalidIr`] carrying that
//!    error's message — without any worker compiling it, panicking over it,
//!    or being respawned.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tpde_core::adapter::{
    BlockRef, FuncRef, InstRef, IrAdapter, Linkage, PhiIncoming, StackVarDesc, ValueRef,
};
use tpde_core::codebuf::{CodeBuffer, SectionKind, SymbolBinding};
use tpde_core::codegen::{CompileSession, CompileStats, CompiledModule};
use tpde_core::error::{Error, Result};
use tpde_core::hash::StableHasher;
use tpde_core::regs::RegBank;
use tpde_core::service::{CompileService, Request, ServiceBackend, ServiceConfig};
use tpde_core::timing::PassTimings;
use tpde_core::verify::{Verifier, VerifyError};

/// A scriptable single-definition mock IR: function 0 is the definition
/// whose tables are spelled out explicitly; functions `1..nfuncs` are
/// declarations that exist only as call targets.
#[derive(Clone, Default)]
struct MockModule {
    nfuncs: usize,
    /// Declared parameter count per function (None = unknown signature).
    param_counts: Vec<Option<usize>>,
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
    /// Terminator classification per instruction (None = unknown).
    terms: Vec<Option<bool>>,
    /// Direct-call info per instruction: (callee, args passed).
    calls: Vec<Option<(FuncRef, usize)>>,
}

impl MockModule {
    /// A minimal well-formed module: `f0() { b0: i0; i1(term) }`.
    fn well_formed() -> MockModule {
        MockModule {
            nfuncs: 1,
            param_counts: vec![Some(0)],
            nvals: 2,
            ninsts: 2,
            succs: vec![vec![]],
            insts: vec![vec![InstRef(0), InstRef(1)]],
            phis: vec![vec![]],
            operands: vec![vec![], vec![ValueRef(0)]],
            results: vec![vec![ValueRef(0)], vec![]],
            terms: vec![Some(false), Some(true)],
            calls: vec![None, None],
            ..MockModule::default()
        }
    }

    /// A well-formed chain of `n` blocks, `b_k: v_k = op; br b_k+1`.
    fn chain(n: usize) -> MockModule {
        let next = |k: usize| (k + 1 < n).then_some(BlockRef(k as u32 + 1));
        MockModule {
            nfuncs: 1,
            param_counts: vec![Some(0)],
            nvals: n,
            ninsts: 2 * n,
            succs: (0..n).map(|k| next(k).into_iter().collect()).collect(),
            insts: (0..n as u32)
                .map(|k| vec![InstRef(2 * k), InstRef(2 * k + 1)])
                .collect(),
            phis: vec![vec![]; n],
            operands: (0..2 * n as u32)
                .map(|i| {
                    (i % 2 == 1)
                        .then_some(ValueRef(i / 2))
                        .into_iter()
                        .collect()
                })
                .collect(),
            results: (0..2 * n as u32)
                .map(|i| {
                    (i % 2 == 0)
                        .then_some(ValueRef(i / 2))
                        .into_iter()
                        .collect()
                })
                .collect(),
            terms: (0..2 * n).map(|i| Some(i % 2 == 1)).collect(),
            calls: vec![None; 2 * n],
            ..MockModule::default()
        }
    }

    fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        self.nfuncs.hash(&mut h);
        self.nvals.hash(&mut h);
        self.ninsts.hash(&mut h);
        for b in &self.insts {
            for i in b {
                i.0.hash(&mut h);
            }
        }
        for ops in &self.operands {
            for v in ops {
                v.0.hash(&mut h);
            }
        }
        for b in &self.succs {
            for s in b {
                s.0.hash(&mut h);
            }
        }
        h.finish()
    }
}

/// Borrowing adapter over a [`MockModule`] (function 0 is always current).
struct MockAdapter<'m>(&'m MockModule);

impl IrAdapter for MockAdapter<'_> {
    fn func_count(&self) -> usize {
        self.0.nfuncs
    }
    fn func_name(&self, f: FuncRef) -> &str {
        if f.0 == 0 {
            "m"
        } else {
            "decl"
        }
    }
    fn func_linkage(&self, _: FuncRef) -> Linkage {
        Linkage::External
    }
    fn func_is_definition(&self, f: FuncRef) -> bool {
        f.0 == 0
    }
    fn switch_func(&mut self, f: FuncRef) {
        assert_eq!(f.0, 0, "only f0 has a body");
    }
    fn value_count(&self) -> usize {
        self.0.nvals
    }
    fn inst_count(&self) -> usize {
        self.0.ninsts
    }
    fn args(&self) -> &[ValueRef] {
        &self.0.args
    }
    fn static_stack_vars(&self) -> &[StackVarDesc] {
        &self.0.stack_vars
    }
    fn block_count(&self) -> usize {
        self.0.succs.len()
    }
    fn block_succs(&self, b: BlockRef) -> &[BlockRef] {
        &self.0.succs[b.idx()]
    }
    fn block_phis(&self, b: BlockRef) -> &[ValueRef] {
        &self.0.phis[b.idx()]
    }
    fn block_insts(&self, b: BlockRef) -> &[InstRef] {
        &self.0.insts[b.idx()]
    }
    fn phi_incoming(&self, phi: ValueRef) -> &[PhiIncoming] {
        &self
            .0
            .phi_in
            .iter()
            .find(|(p, _)| *p == phi)
            .expect("phi incoming")
            .1
    }
    fn inst_operands(&self, i: InstRef) -> &[ValueRef] {
        &self.0.operands[i.idx()]
    }
    fn inst_results(&self, i: InstRef) -> &[ValueRef] {
        &self.0.results[i.idx()]
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
    fn inst_is_terminator(&self, i: InstRef) -> Option<bool> {
        self.0.terms.get(i.idx()).copied().flatten()
    }
    fn inst_call_target(&self, i: InstRef) -> Option<(FuncRef, usize)> {
        self.0.calls.get(i.idx()).copied().flatten()
    }
    fn func_param_count(&self, f: FuncRef) -> Option<usize> {
        self.0.param_counts.get(f.idx()).copied().flatten()
    }
}

/// Service backend that verifies the mock IR at admission; compilation of
/// a verified module just emits a marker byte per instruction.
struct MockBackend;

impl ServiceBackend for MockBackend {
    type Request = Arc<MockModule>;
    type Worker = ();

    fn new_worker(&self) {}

    fn request_key(&self, req: &Arc<MockModule>) -> Option<u64> {
        Some(req.content_hash())
    }

    fn verify(&self, req: &Arc<MockModule>) -> Result<()> {
        let mut a = MockAdapter(req);
        Verifier::new().verify_module(&mut a).map_err(Error::from)
    }

    fn func_count(&self, _req: &Arc<MockModule>) -> usize {
        1
    }

    fn prepare_session(&self, _: &Arc<MockModule>, _: &mut (), _: &mut CompileSession) {}

    fn predeclare(&self, _req: &Arc<MockModule>, buf: &mut CodeBuffer) {
        buf.declare_symbol("m", SymbolBinding::Global, true);
    }

    fn compile_func(
        &self,
        req: &Arc<MockModule>,
        _worker: &mut (),
        _session: &mut CompileSession,
        buf: &mut CodeBuffer,
        _f: u32,
        stats: &mut CompileStats,
        _timings: &mut PassTimings,
    ) -> Result<bool> {
        for _ in 0..req.ninsts {
            buf.emit_u8(0x90);
        }
        stats.funcs += 1;
        Ok(true)
    }

    fn compile_module(
        &self,
        req: &Arc<MockModule>,
        worker: &mut (),
        session: &mut CompileSession,
    ) -> Result<CompiledModule> {
        let mut buf = CodeBuffer::new();
        self.predeclare(req, &mut buf);
        let mut stats = CompileStats::default();
        let mut timings = PassTimings::new();
        let start = buf.text_offset();
        self.compile_func(req, worker, session, &mut buf, 0, &mut stats, &mut timings)?;
        buf.define_symbol(
            tpde_core::codebuf::SymbolId(0),
            SectionKind::Text,
            start,
            buf.text_offset() - start,
        );
        Ok(CompiledModule {
            buf,
            stats,
            timings,
        })
    }
}

fn service() -> CompileService<MockBackend> {
    CompileService::new(
        MockBackend,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
}

/// Asserts both halves of the contract for one malformed module.
fn assert_rejected(m: MockModule, expected: VerifyError) {
    // Typed error from the verifier itself.
    let got = Verifier::new().verify_module(&mut MockAdapter(&m));
    assert_eq!(got, Err(expected), "verifier verdict mismatch");

    // A long-lived verifier (the service keeps one per submitting thread)
    // holds the marks of a larger module in every table when the malformed
    // one arrives: they must not mask the defect.
    let mut warm = Verifier::new();
    let big = MockModule::chain(64);
    assert_eq!(warm.verify_module(&mut MockAdapter(&big)), Ok(()));
    let got = warm.verify_module(&mut MockAdapter(&m));
    assert_eq!(got, Err(expected), "stale scratch changed the verdict");

    // The service answers InvalidIr with the same message, without letting
    // any worker near the module.
    let svc = service();
    let resp = svc.compile(Request::new(Arc::new(m)));
    match resp.module {
        Err(Error::InvalidIr(msg)) => {
            assert_eq!(msg, expected.to_string(), "service error message");
        }
        other => panic!("expected InvalidIr, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!(stats.rejected_invalid, 1);
    assert_eq!(stats.panics_backend, 0, "module reached a worker");
    assert_eq!(stats.workers_respawned, 0, "worker was respawned");
    assert_eq!(stats.batched + stats.sharded, 0, "module was scheduled");
}

#[test]
fn well_formed_module_compiles() {
    let svc = service();
    let resp = svc.compile(Request::new(Arc::new(MockModule::well_formed())));
    assert!(resp.module.is_ok());
    let stats = svc.stats();
    assert_eq!(stats.rejected_invalid, 0);
    assert_eq!(stats.panics_backend, 0);
}

#[test]
fn rejects_function_without_blocks() {
    let mut m = MockModule::well_formed();
    m.succs.clear();
    m.insts.clear();
    m.phis.clear();
    assert_rejected(m, VerifyError::NoBlocks { func: 0 });
}

#[test]
fn rejects_successor_out_of_range() {
    let mut m = MockModule::well_formed();
    m.succs[0] = vec![BlockRef(3)];
    assert_rejected(
        m,
        VerifyError::SuccOutOfRange {
            func: 0,
            block: 0,
            succ: 3,
        },
    );
}

#[test]
fn rejects_instruction_out_of_range() {
    let mut m = MockModule::well_formed();
    m.insts[0] = vec![InstRef(0), InstRef(9)];
    assert_rejected(
        m,
        VerifyError::InstOutOfRange {
            func: 0,
            block: 0,
            inst: 9,
        },
    );
}

#[test]
fn rejects_duplicate_instruction() {
    let mut m = MockModule::well_formed();
    m.insts[0] = vec![InstRef(0), InstRef(0)];
    assert_rejected(m, VerifyError::DuplicateInst { func: 0, inst: 0 });
}

#[test]
fn rejects_operand_out_of_range() {
    let mut m = MockModule::well_formed();
    m.operands[1] = vec![ValueRef(7)];
    assert_rejected(m, VerifyError::ValueOutOfRange { func: 0, value: 7 });
}

#[test]
fn rejects_double_definition() {
    let mut m = MockModule::well_formed();
    m.results[1] = vec![ValueRef(0)]; // i1 redefines i0's result
    assert_rejected(m, VerifyError::Redefined { func: 0, value: 0 });
}

#[test]
fn rejects_missing_terminator() {
    let mut m = MockModule::well_formed();
    m.insts[0] = vec![InstRef(0)]; // i0 is a non-terminator
    assert_rejected(m, VerifyError::MissingTerminator { func: 0, block: 0 });
}

#[test]
fn rejects_empty_block() {
    let mut m = MockModule::well_formed();
    m.insts[0] = vec![];
    assert_rejected(m, VerifyError::MissingTerminator { func: 0, block: 0 });
}

#[test]
fn rejects_misplaced_terminator() {
    let mut m = MockModule::well_formed();
    m.terms = vec![Some(true), Some(true)]; // i0 terminates mid-block
    assert_rejected(
        m,
        VerifyError::MisplacedTerminator {
            func: 0,
            block: 0,
            inst: 0,
        },
    );
}

#[test]
fn rejects_use_before_def() {
    let mut m = MockModule::well_formed();
    // i0 uses v1, which only i1 (later in the block) would define.
    m.operands[0] = vec![ValueRef(1)];
    m.operands[1] = vec![];
    m.results = vec![vec![ValueRef(0)], vec![ValueRef(1)]];
    m.terms = vec![Some(false), Some(true)];
    assert_rejected(
        m,
        VerifyError::UseBeforeDef {
            func: 0,
            block: 0,
            value: 1,
        },
    );
}

#[test]
fn rejects_callee_out_of_range() {
    let mut m = MockModule::well_formed();
    m.calls[0] = Some((FuncRef(5), 0));
    assert_rejected(
        m,
        VerifyError::CalleeOutOfRange {
            func: 0,
            inst: 0,
            callee: 5,
        },
    );
}

#[test]
fn rejects_call_arity_mismatch() {
    let mut m = MockModule::well_formed();
    m.nfuncs = 2;
    m.param_counts = vec![Some(0), Some(2)];
    m.calls[0] = Some((FuncRef(1), 3)); // callee wants 2, call passes 3
    assert_rejected(
        m,
        VerifyError::CallArityMismatch {
            func: 0,
            inst: 0,
            callee: 1,
            expected: 2,
            got: 3,
        },
    );
}
