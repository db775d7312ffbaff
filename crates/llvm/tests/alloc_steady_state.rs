//! Counts heap allocations on the warm one-shot compile path, on the
//! service's admission verify and on a service memory hit.
//!
//! The claims under test: once a thread has compiled a module of some shape,
//! compiling a module with twice as many functions of that shape allocates
//! only for the output it returns (sections, symbols and relocations growing
//! by doubling) — nothing per function, block, instruction or value; once a
//! thread has verified a module, verifying it again allocates nothing; and a
//! warm memory hit, submitted and redeemed on one thread, allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tpde_core::codegen::CompileOptions;
use tpde_core::service::{Request, ServiceBackend, ServiceConfig};
use tpde_llvm::backend::{compile_service, LlvmServiceBackend};
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, IrStyle, Workload, WorkloadKind};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts `alloc` and `realloc` calls per thread, so tests running on other
/// threads do not disturb the count.
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_of(compile: impl Fn(&Module), m: &Module) -> u64 {
    let before = ALLOCS.with(Cell::get);
    compile(m);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn doubling_the_module_adds_only_output_growth() {
    let opts = CompileOptions::default();
    let x64: &dyn Fn(&Module) = &|m| drop(tpde_llvm::compile_x64(m, &opts).unwrap());
    let a64: &dyn Fn(&Module) = &|m| drop(tpde_llvm::compile_a64(m, &opts).unwrap());
    for (kind, style, compile) in [
        (WorkloadKind::Branchy, IrStyle::O0, x64),
        (WorkloadKind::IntLoop, IrStyle::O1, x64),
        (WorkloadKind::CallHeavy, IrStyle::O0, a64),
    ] {
        let module = |funcs| {
            let w = Workload {
                name: "alloc",
                kind,
                funcs,
                input: 1,
            };
            build_workload(&w, style)
        };
        let (small, large) = (module(32), module(64));
        for _ in 0..2 {
            compile(&large);
        }
        let (a32, a64) = (allocs_of(compile, &small), allocs_of(compile, &large));
        assert!(
            a64 <= a32 + 24,
            "{kind:?} {style:?}: 32 kernels take {a32} allocations, 64 take {a64}"
        );
    }
}

#[test]
fn second_and_later_admission_verifies_allocate_nothing() {
    let w = Workload {
        name: "alloc",
        kind: WorkloadKind::Branchy,
        funcs: 32,
        input: 1,
    };
    let module = Arc::new(build_workload(&w, IrStyle::O0));
    let req = tpde_llvm::ModuleRequest::new(module, tpde_llvm::ServiceBackendKind::TpdeX64);
    let verify = |_: &Module| LlvmServiceBackend.verify(&req).unwrap();
    assert!(allocs_of(verify, &req.module) > 0, "the first call grows");
    for call in 2..5 {
        assert_eq!(allocs_of(verify, &req.module), 0, "call {call}");
    }
}

#[test]
fn warm_memory_hits_allocate_nothing() {
    let w = Workload {
        name: "alloc",
        kind: WorkloadKind::Branchy,
        funcs: 8,
        input: 1,
    };
    let module = Arc::new(build_workload(&w, IrStyle::O0));
    let svc = compile_service(ServiceConfig::with_workers(1));
    let compile = || {
        svc.compile(Request::new(tpde_llvm::ModuleRequest::new(
            Arc::clone(&module),
            tpde_llvm::ServiceBackendKind::TpdeX64,
        )))
    };
    assert!(!compile().timing.cache_hit);
    let hit = |_: &Module| {
        let r = compile();
        assert!(r.timing.cache_hit && r.module.is_ok());
    };
    // Warm-up hits before the counted ones: nothing on the hit path may
    // allocate once its per-client record exists.
    for _ in 0..256 {
        hit(&module);
    }
    let total: u64 = (0..64).map(|_| allocs_of(hit, &module)).sum();
    assert_eq!(total, 0, "64 warm memory hits allocated {total} times");
}
