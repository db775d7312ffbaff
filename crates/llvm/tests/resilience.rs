//! Resilience suite over the real LLVM-IR backends: injected worker
//! hangs must surface as explicit per-request errors,
//! and the service must keep producing byte-identical output afterwards
//! — the respawned worker's rebuilt warm state may not change a single
//! output byte.

use std::sync::Arc;
use std::time::Duration;
use tpde_core::codebuf::assert_identical;
use tpde_core::codegen::CompileOptions;
use tpde_core::error::Error;
use tpde_core::faultpoint::{arm, sites, FaultAction, FaultRule};
use tpde_core::service::{Request, ServiceConfig};
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile_service, compile_x64, ModuleRequest, ServiceBackendKind};

fn workload_module(index: usize, funcs_scale: u32) -> Arc<tpde_llvm::ir::Module> {
    let w = spec_workloads()[index].clone();
    let w = Workload {
        input: w.input.min(500),
        funcs: w.funcs * funcs_scale,
        ..w
    };
    Arc::new(build_workload(&w, IrStyle::O0))
}

#[test]
fn respawned_worker_rebuilds_warm_state_byte_identically() {
    let opts = CompileOptions::default();
    let module = workload_module(1, 1);
    let want = compile_x64(&module, &opts).unwrap();
    // The first (and only the first) single-module job stalls for far
    // longer than the hang budget, inside the compile region.
    let _g = arm(vec![FaultRule::new(
        sites::WORKER_JOB,
        FaultAction::Delay(Duration::from_millis(300)),
    )
    .limit(1)]);
    let svc = compile_service(ServiceConfig {
        workers: 1,
        cache_capacity: 8,
        hang_timeout: Some(Duration::from_millis(50)),
        ..ServiceConfig::default()
    });
    let hung = svc.compile(Request::new(ModuleRequest::new(
        Arc::clone(&module),
        ServiceBackendKind::TpdeX64,
    )));
    assert!(
        matches!(hung.module, Err(Error::Timeout(_))),
        "stalled job must be poisoned by the watchdog"
    );
    let stats = svc.stats();
    assert!(stats.watchdog_timeouts >= 1);
    assert!(stats.workers_respawned >= 1);
    // The replacement worker rebuilt its warm state (adapter tables, target
    // drivers) from scratch; its output must not differ in a single byte —
    // and must really recompile, since a poisoned result is never cached.
    let again = svc.compile(Request::new(ModuleRequest::new(
        Arc::clone(&module),
        ServiceBackendKind::TpdeX64,
    )));
    assert!(
        !again.timing.cache_hit,
        "poisoned result must not be cached"
    );
    assert_identical(
        &want.buf,
        &again.module.expect("respawned worker compile").buf,
        "after watchdog respawn",
    );
}

#[test]
fn coalesced_waiters_get_byte_identical_modules() {
    let opts = CompileOptions::default();
    let module = workload_module(3, 4);
    let want = compile_x64(&module, &opts).unwrap();
    // Fault plans are process-wide: an empty armed section keeps this
    // test's jobs from consuming another test's one-shot stall rule.
    let _g = arm(Vec::new());
    let svc = compile_service(ServiceConfig {
        workers: 1,
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
    // Same content, submitted back-to-back while the first is still in
    // flight on the single worker: late submissions either attach to the
    // in-flight compile or (if it already finished) hit the cache — in
    // both cases exactly one real compile runs.
    const N: usize = 6;
    let tickets: Vec<_> = (0..N)
        .map(|_| {
            svc.submit(Request::new(ModuleRequest::new(
                Arc::clone(&module),
                ServiceBackendKind::TpdeX64,
            )))
        })
        .collect();
    for t in tickets {
        let got = t.wait().module.expect("coalesced compile");
        assert_identical(&want.buf, &got.buf, "coalesced waiter");
    }
    let stats = svc.stats();
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        (N - 1) as u64,
        "all but one submission must be deduplicated"
    );
    assert_eq!(stats.batched, 1, "exactly one real compile");
}
