//! Fault-injection suite: arms destructive [`tpde_core::faultpoint`] rules
//! (short reads, hard failures, panics, hangs) against the disk cache and
//! the compile service and asserts the degradation contract — every fault
//! is either absorbed (retry, fallback) or surfaces as an explicit error,
//! and the affected component heals afterwards.
//!
//! Every test wraps *all* of its cache/service activity in an [`arm`]
//! scope. Armed sections are serialized process-wide by the guard, so the
//! destructive rules of one test can never leak into another.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tpde_core::codebuf::{assert_identical, CodeBuffer, SectionKind, SymbolBinding, SymbolId};
use tpde_core::codegen::{CompileSession, CompileStats, CompiledModule};
use tpde_core::diskcache::{serialize_module, DiskCache, DiskCacheConfig};
use tpde_core::error::{Error, Result};
use tpde_core::faultpoint::{arm, sites, FaultAction, FaultRule};
use tpde_core::hash::StableHasher;
use tpde_core::service::{CompileService, Request, ServiceBackend, ServiceConfig};
use tpde_core::timing::PassTimings;

// --------------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------------

/// A fresh, empty temp directory unique to `tag`.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpde-resilience-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cache(dir: &Path) -> DiskCache {
    DiskCache::open(DiskCacheConfig::new(dir)).unwrap()
}

/// A small but non-trivial module to store and reload.
fn sample_module() -> CompiledModule {
    let mut buf = CodeBuffer::new();
    let f = buf.declare_symbol("func", SymbolBinding::Global, true);
    buf.emit_slice(&[0x55, 0x48, 0x89, 0xe5, 0xc3]);
    buf.define_symbol(f, SectionKind::Text, 0, 5);
    buf.append(SectionKind::ROData, b"resilience");
    CompiledModule {
        buf,
        stats: CompileStats {
            funcs: 1,
            insts: 3,
            ..CompileStats::default()
        },
        timings: PassTimings::new(),
    }
}

/// A toy service backend over the public API: a "module" is a list of
/// byte-sized functions, each emitting its payload byte and its index.
struct ToyBackend;

struct ToyModule {
    data: Vec<u8>,
}

fn toy(data: Vec<u8>) -> Arc<ToyModule> {
    Arc::new(ToyModule { data })
}

impl ServiceBackend for ToyBackend {
    type Request = Arc<ToyModule>;
    type Worker = ();

    fn new_worker(&self) {}

    fn request_key(&self, req: &Arc<ToyModule>) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = StableHasher::new();
        req.data.hash(&mut h);
        Some(h.finish())
    }

    fn compile_module(
        &self,
        req: &Arc<ToyModule>,
        _worker: &mut (),
        _session: &mut CompileSession,
    ) -> Result<CompiledModule> {
        let mut buf = CodeBuffer::new();
        for i in 0..req.data.len() {
            buf.declare_symbol(&format!("f{i}"), SymbolBinding::Global, true);
        }
        for (f, &byte) in (0u32..).zip(&req.data) {
            let start = buf.text_offset();
            buf.emit_u8(byte);
            buf.emit_u8(f as u8);
            buf.define_symbol(SymbolId(f), SectionKind::Text, start, 2);
        }
        Ok(CompiledModule {
            buf,
            stats: CompileStats {
                funcs: req.data.len(),
                ..CompileStats::default()
            },
            timings: PassTimings::new(),
        })
    }
}

fn toy_service(cfg: ServiceConfig) -> CompileService<ToyBackend> {
    CompileService::new(ToyBackend, cfg)
}

// --------------------------------------------------------------------------
// Disk cache under injected faults
// --------------------------------------------------------------------------

#[test]
fn transient_read_faults_are_retried_and_absorbed() {
    let dir = temp_dir("transient-retried");
    let module = sample_module();
    let _g = arm(vec![
        // Two transient errors on the first two read attempts; the third
        // attempt succeeds within the retry budget.
        FaultRule::new(sites::DISK_READ, FaultAction::Transient).limit(2),
    ]);
    let store = cache(&dir);
    store.store(1, &module).unwrap();
    let loaded = store.load(1).expect("transient faults must be retried");
    assert_identical(&module.buf, &loaded.buf, "after transient retries");
    assert!(store.io_retries() >= 2, "retries must be counted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_transient_faults_miss_without_unlinking() {
    let dir = temp_dir("transient-exhausted");
    let module = sample_module();
    let store = {
        let _g = arm(Vec::new());
        let store = cache(&dir);
        store.store(2, &module).unwrap();
        store
    };
    {
        // Every read attempt fails transiently: the retry budget runs out.
        let _g = arm(vec![FaultRule::new(
            sites::DISK_READ,
            FaultAction::Transient,
        )]);
        assert!(store.load(2).is_none(), "exhausted retries are a miss");
    }
    // The artifact was NOT treated as corrupt: once the interference stops
    // it loads again, no recompile-and-heal needed.
    let _g = arm(Vec::new());
    assert!(store.contains(2), "transient failure must not unlink");
    let loaded = store.load(2).expect("artifact intact after the storm");
    assert_identical(&module.buf, &loaded.buf, "after exhausted transients");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn short_read_is_caught_as_corruption_and_heals() {
    let dir = temp_dir("short-read");
    let module = sample_module();
    let store = {
        let _g = arm(Vec::new());
        let store = cache(&dir);
        store.store(4, &module).unwrap();
        store
    };
    {
        // Truncate the bytes read: the payload-length/hash verification
        // must reject the artifact rather than serve half a module.
        let _g = arm(vec![FaultRule::new(
            sites::DISK_SHORT_READ,
            FaultAction::Short,
        )]);
        assert!(store.load(4).is_none(), "short read must never verify");
    }
    // Treated as corruption: unlinked, and the next store heals it.
    let _g = arm(Vec::new());
    assert!(!store.contains(4), "corrupt artifact is unlinked");
    assert!(store.store(4, &module).unwrap());
    assert_identical(&module.buf, &store.load(4).unwrap().buf, "healed");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hard_rename_failure_degrades_the_store_not_the_answer() {
    let dir = temp_dir("rename-fail");
    let module = sample_module();
    {
        let _g = arm(vec![FaultRule::new(sites::DISK_RENAME, FaultAction::Fail)]);
        let store = cache(&dir);
        let err = store.store(5, &module).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(!store.contains(5), "failed publish leaves no artifact");
        assert!(store.load(5).is_none(), "and the key simply misses");
    }
    // Disarmed, the same store succeeds — the failure was not sticky.
    let _g = arm(Vec::new());
    let store = cache(&dir);
    assert!(store.store(5, &module).unwrap());
    assert_identical(&module.buf, &store.load(5).unwrap().buf, "recovered");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn transient_rename_faults_are_retried() {
    let dir = temp_dir("rename-transient");
    let module = sample_module();
    let _g = arm(vec![FaultRule::new(
        sites::DISK_RENAME,
        FaultAction::Transient,
    )
    .limit(2)]);
    let store = cache(&dir);
    assert!(
        store.store(6, &module).unwrap(),
        "publish absorbs transients"
    );
    assert!(store.io_retries() >= 2);
    assert_identical(&module.buf, &store.load(6).unwrap().buf, "stored");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flock_contention_delay_only_adds_latency() {
    let dir = temp_dir("flock-delay");
    let module = sample_module();
    let _g = arm(vec![FaultRule::new(
        sites::DISK_FLOCK,
        FaultAction::Delay(Duration::from_millis(2)),
    )]);
    let store = cache(&dir);
    store.store(7, &module).unwrap();
    assert_identical(
        &module.buf,
        &store.load(7).unwrap().buf,
        "despite lock delay",
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hard_flock_failure_on_a_store_is_reconciled_by_the_next_store() {
    let dir = temp_dir("flock-fail");
    let module = sample_module();
    let max_bytes = 3 * serialize_module(0, &module).len() as u64;
    let store = {
        let _g = arm(Vec::new());
        let store = DiskCache::open(DiskCacheConfig {
            dir: dir.clone(),
            max_bytes,
        })
        .unwrap();
        store.store(1, &module).unwrap();
        store.store(2, &module).unwrap();
        store
    };
    {
        // Published, but neither its recency nor its bytes reach the index
        // lock's ledger.
        let _g = arm(vec![FaultRule::new(sites::DISK_FLOCK, FaultAction::Fail)]);
        assert!(store.store(3, &module).unwrap());
    }
    let _g = arm(Vec::new());
    // The ledger still says two artifacts, so a fourth would seem to fit;
    // the handle that missed the lock reconciles instead.
    store.store(4, &module).unwrap();
    assert!(store.total_bytes() <= max_bytes);
    assert_eq!(store.artifact_count(), 3);
    assert!(store.contains(4), "just-stored artifact survives");
    let _ = fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------------------
// Service worker loop under injected faults
// --------------------------------------------------------------------------

#[test]
fn injected_hang_is_condemned_by_the_watchdog() {
    let _g = arm(vec![
        // The delay lands inside the compile, after the start-of-job
        // heartbeat, so the heartbeat goes stale and the watchdog must
        // poison the ticket.
        FaultRule::new(
            sites::WORKER_JOB,
            FaultAction::Delay(Duration::from_millis(250)),
        )
        .limit(1),
    ]);
    let svc = toy_service(ServiceConfig {
        workers: 1,
        cache_capacity: 8,
        hang_timeout: Some(Duration::from_millis(40)),
        ..ServiceConfig::default()
    });
    let r = svc.compile(Request::new(toy(vec![1, 2, 3])));
    assert!(matches!(r.module.unwrap_err(), Error::Timeout(_)));
    let stats = svc.stats();
    assert!(stats.watchdog_timeouts >= 1);
    assert!(stats.workers_respawned >= 1);
    // The respawned worker serves the next request normally.
    assert!(svc.compile(Request::new(toy(vec![4, 5, 6]))).module.is_ok());
}

// --------------------------------------------------------------------------
// Submission front-end under injected faults
// --------------------------------------------------------------------------

/// Shutdown under load: `Drop` must drain the scheduler and answer every
/// outstanding ticket instead of leaving waiters hung.
#[test]
fn drop_under_load_with_delayed_jobs_loses_no_ticket() {
    // Slow each compile enough that a deep backlog survives to Drop.
    let _g = arm(vec![FaultRule::new(
        sites::WORKER_JOB,
        FaultAction::Delay(Duration::from_millis(10)),
    )]);
    let svc = Arc::new(toy_service(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    }));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 8;
    let (tx, rx) = std::sync::mpsc::channel();
    for t in 0..THREADS {
        let svc = Arc::clone(&svc);
        let tx = tx.clone();
        std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                // Payload unique per (thread, index): no two submissions
                // coalesce, so the scheduler sees the full load.
                let m = toy(vec![t as u8, i as u8, 0x5A]);
                let ticket = svc.submit(Request::new(Arc::clone(&m)));
                tx.send((m, ticket)).unwrap();
            }
            // Dropping this clone last runs the service's Drop while the
            // backlog is still deep.
            drop(svc);
        });
    }
    drop(tx);
    drop(svc);
    let mut answered = 0usize;
    for (m, t) in rx {
        let r = t
            .by_ref()
            .wait_timeout(Duration::from_secs(30))
            .expect("ticket lost across shutdown");
        match r.module {
            Ok(got) => {
                let reference = ToyBackend
                    .compile_module(&m, &mut (), &mut CompileSession::new())
                    .unwrap();
                assert_identical(&reference.buf, &got.buf, "drained under faults");
            }
            // A request cut off by shutdown must say so explicitly.
            Err(e) => assert!(
                format!("{e}").contains("shut down"),
                "unexpected error class: {e}"
            ),
        }
        answered += 1;
    }
    assert_eq!(answered, THREADS * PER_THREAD);
}

/// A lost wakeup (the notify itself is swallowed) may add latency but not
/// lose work: the parker's bounded park timeout picks the job up.
#[test]
fn lost_wakeups_are_bounded_by_the_park_timeout() {
    let _g = arm(vec![FaultRule::new(
        sites::WORKER_WAKEUP,
        FaultAction::Fail,
    )]);
    let svc = toy_service(ServiceConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    for i in 0..4u8 {
        let m = toy(vec![0xB0, i]);
        let r = svc
            .submit(Request::new(Arc::clone(&m)))
            .by_ref()
            .wait_timeout(Duration::from_secs(10))
            .expect("lost wakeup must not lose the job");
        let reference = ToyBackend
            .compile_module(&m, &mut (), &mut CompileSession::new())
            .unwrap();
        assert_identical(&reference.buf, &r.module.unwrap().buf, "lost wakeup");
    }
    assert_eq!(svc.stats().completed, 4);
}
