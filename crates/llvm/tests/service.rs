//! Determinism, stress and cache suite for the persistent compile service:
//! for every workload kind, worker count and backend, a service response
//! must be byte-identical to the one-shot sequential compiler — whether the
//! module was compiled by a worker or served from the content-addressed
//! module cache.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;
use tpde_core::codebuf::assert_identical;
use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_core::diskcache::DiskCacheConfig;
use tpde_core::error::Error;
use tpde_core::faultpoint::{arm, sites, FaultAction, FaultRule};
use tpde_core::service::{Request, ServiceConfig, ServiceResponse};
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{
    compile, compile_service, compile_x64, LlvmCompileService, ModuleRequest, ServiceBackendKind,
};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn small(w: &Workload) -> Workload {
    Workload {
        input: w.input.min(500),
        ..w.clone()
    }
}

/// A service with `workers` threads and a `cache`-module memory cache.
fn service(workers: usize, cache: usize) -> LlvmCompileService {
    compile_service(ServiceConfig {
        workers,
        cache_capacity: cache,
        disk_cache: None,
        ..ServiceConfig::default()
    })
}

/// A fresh, empty temp directory unique to `tag`.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpde-llvm-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A service backed by the persistent disk cache at `dir`.
fn disk_service(workers: usize, cache: usize, dir: &Path) -> LlvmCompileService {
    compile_service(ServiceConfig {
        workers,
        cache_capacity: cache,
        disk_cache: Some(DiskCacheConfig::new(dir)),
        ..ServiceConfig::default()
    })
}

/// `w` with eight times its functions: at least 64, the size a module
/// must reach before it is worth spreading over several threads.
fn enlarged(w: &Workload) -> Workload {
    let big = Workload {
        funcs: w.funcs * 8,
        ..w.clone()
    };
    assert!(big.funcs >= 64, "{} x8 has {} functions", w.name, big.funcs);
    big
}

/// Submits a compile of `module` with `kind` and waits for the response.
fn request(
    svc: &LlvmCompileService,
    module: &Arc<Module>,
    kind: ServiceBackendKind,
) -> ServiceResponse {
    svc.compile(Request::new(ModuleRequest::new(Arc::clone(module), kind)))
}

#[test]
fn service_matches_one_shot_for_all_workloads_and_worker_counts() {
    let opts = CompileOptions::default();
    for workers in WORKERS {
        // Cache disabled: every request must really compile.
        let svc = service(workers, 0);
        for w in spec_workloads() {
            let w = small(&w);
            for style in [IrStyle::O0, IrStyle::O1] {
                let module = Arc::new(build_workload(&w, style));
                let seq = compile_x64(&module, &opts).unwrap();
                let got = request(&svc, &module, ServiceBackendKind::TpdeX64);
                let what = format!("{} {:?} workers={workers}", w.name, style);
                let got_module = got.module.expect(&what);
                got_module
                    .validate()
                    .unwrap_or_else(|e| panic!("structurally invalid module for {what}: {e}"));
                assert_identical(&seq.buf, &got_module.buf, &what);
                assert_eq!(seq.stats.funcs, got_module.stats.funcs, "{what}");
                assert_eq!(seq.stats.insts, got_module.stats.insts, "{what}");
            }
        }
        let mut requests = 18;
        if workers == 4 {
            // A large module is still one job on one worker.
            let w = enlarged(&small(&spec_workloads()[0]));
            let module = Arc::new(build_workload(&w, IrStyle::O1));
            let seq = compile_x64(&module, &opts).unwrap();
            let got = request(&svc, &module, ServiceBackendKind::TpdeX64);
            assert_identical(&seq.buf, &got.module.unwrap().buf, "enlarged module");
            requests += 1;
        }
        let stats = svc.stats();
        assert_eq!(stats.completed, requests);
        assert_eq!(
            stats.batched, requests,
            "every request is one whole-module compile at {workers} workers"
        );
    }
}

#[test]
fn heterogeneous_backends_share_one_pool() {
    let opts = CompileOptions::default();
    let svc = service(4, 0);
    for w in spec_workloads().iter().step_by(2) {
        let module = Arc::new(build_workload(&small(w), IrStyle::O0));
        // Interleave targets and pipelines request by request on the same
        // persistent threads; each must match its own sequential compiler.
        for kind in tpde_llvm::fuzz::ALL_KINDS {
            let want = compile(&module, kind, &opts).unwrap();
            let got = svc
                .compile(Request::new(ModuleRequest::new(Arc::clone(&module), kind)))
                .module
                .unwrap();
            assert_identical(&want.buf, &got.buf, &format!("{} {kind:?}", w.name));
        }
    }
    assert_eq!(svc.workers(), 4);
}

#[test]
fn concurrent_stress_interleaves_small_and_large_modules() {
    let opts = CompileOptions::default();
    let svc = service(4, 0);
    // Build a mix: every workload kind (small modules) plus enlarged
    // copies of a few workloads (at least 64 functions), with a seeded PRNG
    // picking backends and enlargements so the interleaving varies more
    // than a fixed modulus while staying reproducible.
    let mut rng = tpde_core::rng::Xoshiro256::new(0x0057_A355);
    let mut requests: Vec<(String, ModuleRequest)> = Vec::new();
    let mut enlarged_count = 0;
    for (i, w) in spec_workloads().iter().enumerate() {
        let w = small(w);
        let module = Arc::new(build_workload(&w, IrStyle::O0));
        let kind = *rng.pick(&[ServiceBackendKind::TpdeX64, ServiceBackendKind::TpdeA64]);
        requests.push((
            format!("{} {kind:?}", w.name),
            ModuleRequest::new(module, kind),
        ));
        // Always enlarge the first workload (the queue-depth assertion
        // below needs at least one slow module), then a random ~quarter of
        // the rest.
        if i == 0 || (rng.chance(1, 4) && enlarged_count < 3) {
            enlarged_count += 1;
            let module = Arc::new(build_workload(&enlarged(&w), IrStyle::O1));
            requests.push((
                format!("{}x8 TpdeX64", w.name),
                ModuleRequest::new(module, ServiceBackendKind::TpdeX64),
            ));
        }
    }
    // Submit everything up front (pipelined), then verify each response
    // against the one-shot compiler. An enlarged (slow) module goes first,
    // and worker jobs are delayed for the duration of the submit loop so
    // the queue verifiably builds up: on a single-CPU host an unpark can
    // otherwise context-switch straight to a worker that finishes each
    // small module before the next submit lands, never overlapping.
    let big_first = requests
        .iter()
        .position(|(what, _)| what.contains("x8"))
        .expect("an enlarged module");
    requests.swap(0, big_first);
    let slow_workers = arm(vec![FaultRule::new(
        sites::WORKER_JOB,
        FaultAction::Delay(Duration::from_millis(5)),
    )
    .every(1)]);
    let tickets: Vec<_> = requests
        .iter()
        .map(|(_, r)| svc.submit(Request::new(r.clone())))
        .collect();
    drop(slow_workers);
    for ((what, req), ticket) in requests.iter().zip(tickets) {
        let want = compile(&req.module, req.backend, &opts).unwrap();
        let got = ticket.wait().module.expect(what);
        assert_identical(&want.buf, &got.buf, what);
    }
    let stats = svc.stats();
    assert_eq!(
        stats.batched,
        requests.len() as u64,
        "every request, enlarged or not, is one whole-module compile"
    );
    assert!(
        stats.max_queue_depth > 1,
        "requests must overlap in the queue"
    );
}

#[test]
fn service_output_executes_correctly() {
    let w = small(&spec_workloads()[6]);
    let module = Arc::new(build_workload(&w, IrStyle::O0));
    let svc = service(4, 8);
    let compiled = request(&svc, &module, ServiceBackendKind::TpdeX64)
        .module
        .unwrap();
    let image = tpde_core::jit::link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
    let (ret, _) = tpde_x64emu::run_function(&image, "bench_main", &[w.input]).unwrap();
    assert_eq!(ret, expected_result(&w));

    // A cache hit links to an identical image (same fingerprint) and runs
    // to the same result.
    let warm = request(&svc, &module, ServiceBackendKind::TpdeX64);
    assert!(warm.timing.cache_hit);
    let warm_image =
        tpde_core::jit::link_in_memory(&warm.module.unwrap().buf, 0x40_0000, |_| None).unwrap();
    assert_eq!(image.fingerprint(), warm_image.fingerprint());
    let (warm_ret, _) = tpde_x64emu::run_function(&warm_image, "bench_main", &[w.input]).unwrap();
    assert_eq!(warm_ret, ret);
}

#[test]
fn cache_hits_are_deterministic_across_equal_modules() {
    let svc = service(2, 16);
    let w = small(&spec_workloads()[2]);
    let module = Arc::new(build_workload(&w, IrStyle::O0));
    let cold = request(&svc, &module, ServiceBackendKind::TpdeX64);
    assert!(!cold.timing.cache_hit);
    // A structurally equal module in a different allocation hits the cache
    // (content-addressed, not pointer-addressed)...
    let rebuilt = Arc::new(build_workload(&w, IrStyle::O0));
    let warm = request(&svc, &rebuilt, ServiceBackendKind::TpdeX64);
    assert!(warm.timing.cache_hit, "content-equal module must hit");
    assert_identical(
        &cold.module.unwrap().buf,
        &warm.module.unwrap().buf,
        "cache hit",
    );
    // ...while a different target or different content each miss.
    assert!(
        !request(&svc, &module, ServiceBackendKind::TpdeA64)
            .timing
            .cache_hit
    );
    let different = Arc::new(build_workload(&small(&spec_workloads()[3]), IrStyle::O0));
    assert!(
        !request(&svc, &different, ServiceBackendKind::TpdeX64)
            .timing
            .cache_hit
    );
    let stats = svc.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 3);
}

#[test]
fn cache_hits_share_the_compiled_module() {
    let opts = CompileOptions::default();
    let svc = service(2, 16);
    let module = Arc::new(build_workload(&small(&spec_workloads()[2]), IrStyle::O0));
    let compiled = request(&svc, &module, ServiceBackendKind::TpdeX64)
        .module
        .unwrap();
    let hits: Vec<_> = (0..2)
        .map(|_| {
            let r = request(&svc, &module, ServiceBackendKind::TpdeX64);
            assert!(r.timing.cache_hit);
            r.module.unwrap()
        })
        .collect();
    // Both hits hold the module the compile produced: nothing was copied.
    assert!(Arc::ptr_eq(&hits[0], &hits[1]));
    assert!(Arc::ptr_eq(&compiled, &hits[0]));
    let one_shot = compile_x64(&module, &opts).unwrap();
    assert_identical(&one_shot.buf, &hits[0].buf, "shared cache hit");
}

#[test]
fn cache_eviction_keeps_serving_correct_bytes() {
    let opts = CompileOptions::default();
    // Capacity 2: compiling a third distinct module evicts the LRU entry.
    let svc = compile_service(ServiceConfig {
        workers: 1,
        cache_capacity: 2,
        disk_cache: None,
        ..ServiceConfig::default()
    });
    let modules: Vec<Arc<Module>> = spec_workloads()
        .iter()
        .take(3)
        .map(|w| Arc::new(build_workload(&small(w), IrStyle::O0)))
        .collect();
    let references: Vec<CompiledModule> = modules
        .iter()
        .map(|m| compile_x64(m, &opts).unwrap())
        .collect();
    for (m, want) in modules.iter().zip(&references) {
        let got = request(&svc, m, ServiceBackendKind::TpdeX64)
            .module
            .unwrap();
        assert_identical(&want.buf, &got.buf, "cold fill");
    }
    // modules[0] was evicted (LRU); recompiling it must still be identical.
    let again = request(&svc, &modules[0], ServiceBackendKind::TpdeX64);
    assert!(!again.timing.cache_hit, "evicted module must recompile");
    assert_identical(
        &references[0].buf,
        &again.module.unwrap().buf,
        "recompile after eviction",
    );
    let stats = svc.stats();
    assert!(stats.evictions >= 1);
    assert!(stats.cached_modules <= 2);
}

#[test]
fn restarted_process_answers_from_disk_byte_identically() {
    let opts = CompileOptions::default();
    let dir = temp_dir("restart");
    let kinds = [
        ServiceBackendKind::TpdeX64,
        ServiceBackendKind::TpdeA64,
        ServiceBackendKind::BaselineO0,
    ];
    let modules: Vec<Arc<Module>> = spec_workloads()
        .iter()
        .take(kinds.len())
        .map(|w| Arc::new(build_workload(&small(w), IrStyle::O0)))
        .collect();

    // "Process one": compile every (module, backend) pair and populate the
    // artifact store as a side effect.
    {
        let svc = disk_service(2, 8, &dir);
        for (m, &kind) in modules.iter().zip(&kinds) {
            let r = svc.compile(Request::new(ModuleRequest::new(Arc::clone(m), kind)));
            assert!(!r.timing.disk_hit, "cold run must not hit disk");
            r.module.expect("cold compile");
        }
        let stats = svc.stats();
        assert_eq!(stats.disk_misses, kinds.len() as u64);
        assert_eq!(stats.disk_stores, kinds.len() as u64);
        assert_eq!(stats.disk_hits, 0);
    } // drop: simulated process exit (memory cache and workers are gone)

    // "Process two": a fresh service over the same directory must answer
    // every request from disk — byte-identical to the one-shot compiler —
    // without invoking any backend compile path.
    let svc = disk_service(2, 8, &dir);
    for (m, &kind) in modules.iter().zip(&kinds) {
        let r = svc.compile(Request::new(ModuleRequest::new(Arc::clone(m), kind)));
        let what = format!("{kind:?} after restart");
        assert!(r.timing.disk_hit, "{what}: must be served from disk");
        assert!(!r.timing.cache_hit, "{what}: memory cache starts empty");
        let got = r.module.expect(&what);
        got.validate().unwrap();
        let want = compile(m, kind, &opts).unwrap();
        assert_identical(&want.buf, &got.buf, &what);
        // The disk-loaded module links to the same image as a fresh compile.
        let a = tpde_core::jit::link_in_memory(&got.buf, 0x40_0000, |_| None).unwrap();
        let b = tpde_core::jit::link_in_memory(&want.buf, 0x40_0000, |_| None).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "{what}");
    }
    let stats = svc.stats();
    assert_eq!(stats.disk_hits, kinds.len() as u64, "all served from disk");
    assert_eq!(stats.batched, 0, "no compile ran");
    assert!((stats.disk_hit_rate() - 1.0).abs() < 1e-9);

    // Re-asking within the same process now hits the promoted memory entry.
    let again = svc.compile(Request::new(ModuleRequest::new(
        Arc::clone(&modules[0]),
        kinds[0],
    )));
    assert!(again.timing.cache_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cross-process restart test's name, as libtest prints it.
const CROSS_PROCESS_TEST: &str = "disk_store_answers_a_second_process";

/// A real process restart over one artifact store: this test re-executes
/// its own binary twice. The first child compiles every request into a
/// fresh store; the second, a genuinely different process, must answer
/// every one from disk — no miss, no store, no compile path — byte-identical
/// to the one-shot compiler.
///
/// A child is told its role and store by one extra libtest filter after
/// the test's own name, `populate=<dir>` or `reuse=<dir>`; under `--exact`
/// that filter matches no test, so only this one runs.
#[test]
fn disk_store_answers_a_second_process() {
    let role = std::env::args()
        .skip_while(|a| a != CROSS_PROCESS_TEST)
        .nth(1);
    if let Some(role) = role {
        let (role, dir) = role.split_once('=').expect("<role>=<dir>");
        return disk_restart_child(role == "reuse", Path::new(dir));
    }
    let dir = temp_dir("cross-process");
    for role in ["populate", "reuse"] {
        let out = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", CROSS_PROCESS_TEST])
            .arg(format!("{role}={}", dir.display()))
            .output()
            .expect("spawn child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{role} child failed ({}):\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One side of [`disk_store_answers_a_second_process`].
fn disk_restart_child(reuse: bool, dir: &Path) {
    let opts = CompileOptions::default();
    let kinds = [ServiceBackendKind::TpdeX64, ServiceBackendKind::TpdeA64];
    let requests: Vec<(Arc<Module>, ServiceBackendKind)> = spec_workloads()
        .iter()
        .map(|w| Arc::new(build_workload(&small(w), IrStyle::O0)))
        .flat_map(|m| kinds.map(|kind| (Arc::clone(&m), kind)))
        .collect();
    let svc = disk_service(2, 0, dir);
    for (i, (m, kind)) in requests.iter().enumerate() {
        let r = svc.compile(Request::new(ModuleRequest::new(Arc::clone(m), *kind)));
        let what = format!("request {i} ({kind:?}), reuse={reuse}");
        assert_eq!(r.timing.disk_hit, reuse, "{what}: disk hit");
        let got = r.module.expect(&what);
        assert_identical(&compile(m, *kind, &opts).unwrap().buf, &got.buf, &what);
    }
    let stats = svc.stats();
    let n = requests.len() as u64;
    if reuse {
        assert_eq!(
            (stats.disk_hits, stats.disk_misses, stats.disk_stores),
            (n, 0, 0)
        );
        assert_eq!(stats.batched, 0, "no compile ran");
    } else {
        assert_eq!((stats.disk_misses, stats.disk_stores), (n, n));
    }
}

#[test]
fn teardown_drains_pipelined_requests() {
    let opts = CompileOptions::default();
    let svc = service(2, 0);
    let modules: Vec<Arc<Module>> = spec_workloads()
        .iter()
        .map(|w| Arc::new(build_workload(&small(w), IrStyle::O0)))
        .collect();
    let tickets: Vec<_> = modules
        .iter()
        .map(|m| {
            svc.submit(Request::new(ModuleRequest::new(
                Arc::clone(m),
                ServiceBackendKind::TpdeX64,
            )))
        })
        .collect();
    drop(svc); // must drain the queue, not abandon the tickets
    for (m, t) in modules.iter().zip(tickets) {
        let want = compile_x64(m, &opts).unwrap();
        let got = t.wait().module.expect("request dropped at teardown");
        assert_identical(&want.buf, &got.buf, "drained at teardown");
    }
}

/// `sum7(a, .., g) = a + 2b + .. + 7g`, and `bench_main(x)` calling it on
/// `x, x+1, .., x+6`; without `sum7`'s body when `with_callee` is false.
fn seven_arg_call_module(with_callee: bool) -> Module {
    use tpde_llvm::ir::{BinOp, FunctionBuilder, Type};
    let mut m = Module::new();
    let params = [Type::I64; 7];
    let callee = if with_callee {
        let mut b = FunctionBuilder::new("sum7", &params, Type::I64);
        let mut acc = b.arg(0);
        for i in 1..7 {
            let k = b.iconst(Type::I64, i as i64 + 1);
            let term = b.bin(BinOp::Mul, Type::I64, b.arg(i), k);
            acc = b.bin(BinOp::Add, Type::I64, acc, term);
        }
        b.ret(Some(acc));
        m.add_function(b.build())
    } else {
        m.declare("sum7", params.to_vec(), Type::I64)
    };
    let mut b = FunctionBuilder::new("bench_main", &[Type::I64], Type::I64);
    let args = (0..7i64)
        .map(|i| {
            let k = b.iconst(Type::I64, i);
            b.bin(BinOp::Add, Type::I64, b.arg(0), k)
        })
        .collect();
    let r = b.call(callee, Type::I64, args);
    b.ret(Some(r));
    m.add_function(b.build());
    m
}

#[test]
fn baselines_reject_stack_passed_arguments_as_unsupported() {
    let opts = CompileOptions::default();
    let module = Arc::new(seven_arg_call_module(true));
    let tpde = compile(&module, ServiceBackendKind::TpdeX64, &opts).unwrap();
    let image = tpde_core::jit::link_in_memory(&tpde.buf, 0x40_0000, |_| None).unwrap();
    let (ret, _) = tpde_x64emu::run_function(&image, "bench_main", &[10]).unwrap();
    assert_eq!(ret, (0..7).map(|i| (i + 1) * (10 + i)).sum::<u64>());

    // The callee's parameters and, with the callee only declared, the
    // call's arguments: both are an error, not a panic, on every path.
    let svc = service(2, 0);
    let caller_only = Arc::new(seven_arg_call_module(false));
    for m in [&module, &caller_only] {
        let kind = ServiceBackendKind::BaselineO0;
        let direct = compile(m, kind, &opts);
        assert!(matches!(direct, Err(Error::Unsupported(_))), "{kind:?}");
        let served = request(&svc, m, kind).module;
        assert!(matches!(served, Err(Error::Unsupported(_))), "{kind:?}");
        let copy_patch = tpde_llvm::compile_copy_patch(m);
        assert!(
            matches!(copy_patch, Err(Error::Unsupported(_))),
            "copy-patch"
        );
    }
    assert_eq!(svc.stats().panics_backend, 0);
}
