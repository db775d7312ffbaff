//! Regenerates the paper's evaluation figures (5a, 5b, 6, 7, 8a, 8b) plus
//! the ablation studies, printing one table per figure.
//!
//! Usage: `cargo run -p tpde-bench --bin figures [--quick] [--json]
//! [--threads N] [--service] [--disk-cache]
//! [--chaos] [--fuzz [N]] [--fuzz-seed S] [--gate [PCT]]`
//! (`--quick` scales down the
//! workload inputs for a fast smoke run; `--json` additionally writes the
//! per-workload compile-time speedups to `BENCH_compile.json`; `--threads N`
//! also measures the function-sharded parallel pipeline on an enlarged copy
//! of the largest workload, for 1..N workers, verifying the output stays
//! byte-identical to the sequential compiler; `--service` measures the
//! persistent compile service's request throughput — modules/sec at 1/2/4
//! workers, cold vs. warm cache, byte-identity asserted per request —
//! enforcing that warm-cache repeats are at least 5× faster than cold
//! compiles; `--disk-cache` runs
//! the persistent-cache restart scenario — a service backed by the on-disk
//! artifact store compiles the request mix cold, is dropped (simulated
//! process exit), and a fresh service over the same directory must answer
//! every request from disk, byte-identical and without running any compile
//! path, at ≥ 3× the cold throughput (the store directory defaults to a
//! fresh temp dir; set `TPDE_DISK_CACHE_DIR` to persist it across
//! invocations, in which case a pre-warmed first pass skips the cold-side
//! assertions); `--chaos` runs the resilience scenario — an open-loop burst
//! of mixed-priority requests (interactive without deadlines, bulk with
//! tight ones) hits a disk-backed service while `tpde-core::faultpoint`
//! rules inject transient disk errors, mmap failures, lock-contention
//! delays and two worker stalls long enough to trip the watchdog; the run
//! asserts that no ticket is lost, every successful response stays
//! byte-identical to the fault-free one-shot compiler, every failure is an
//! explicit shed class (admission rejection, deadline expiry, watchdog
//! timeout), bulk traffic is shed while interactive p99 stays bounded, the
//! watchdog respawned at least one worker, transient disk I/O was retried,
//! and — after a simulated restart over the same store, and again after
//! disarming the faults — the full mix compiles byte-identically;
//! `--fuzz [N]` runs the differential fuzzing campaign — N seeded random
//! modules (default 200 quick / 1000 full) compiled through every service
//! backend kind, asserting byte identity against the one-shot compilers
//! and emulator-equal results across the executable x86-64 back-ends,
//! plus one corrupted mutant per module that the IR verifier and the
//! service must reject with a typed error; failures are minimized and
//! written to `fuzz_failures/` as seed-reproducible test cases
//! (`--fuzz-seed S` overrides the campaign seed, which is always
//! printed); `--gate` fails the
//! run when this run's compile-time geomean drops more than PCT% — default
//! 10 — below the last recorded history entry of the same mode). The JSON
//! file carries a `history` array with one geomean entry per (git commit,
//! mode): each run appends (or, for the same SHA and mode, replaces) its
//! entry instead of overwriting the trajectory, so the file records the
//! compile-time speedup across PRs; `--threads`/`--service`/`--disk-cache`/
//! `--fuzz` runs add `par_tN`/`svc_*`/`disk_*`/`fuzz_*` fields to their
//! entry.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tpde_bench::{geomean, measure, measure_parallel, scaled, service_request_modules, Backend};
use tpde_core::codebuf::assert_identical;
use tpde_core::codegen::CompileOptions;
use tpde_core::diskcache::DiskCacheConfig;
use tpde_core::error::Error;
use tpde_core::faultpoint::{arm, sites, FaultAction, FaultRule};
use tpde_core::jit::link_in_memory;
use tpde_core::service::{ClientId, Priority, Request, ServiceConfig, Ticket};
use tpde_core::timing::Phase;
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle};
use tpde_llvm::{
    compile_baseline, compile_copy_patch, compile_service, compile_x64, LlvmCompileService,
    ModuleRequest, ServiceBackendKind,
};
use tpde_x64emu::{register_default_hostcalls, Machine};

/// The current git commit (short SHA), or `"unknown"` outside a checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extracts the per-PR history entry lines from a previously written report
/// (the lines inside the `"history": [...]` array), dropping any entry for
/// `current_sha` *in the same mode* (quick vs. full) so a re-run replaces
/// its own entry instead of duplicating it — a commit can carry one full
/// and one quick entry side by side. The dropped entry (if any) is returned
/// separately so fields the new run did not measure (e.g. `par_tN`,
/// `svc_*`) can be carried over.
fn read_history(path: &str, current_sha: &str, quick: bool) -> (Vec<String>, Option<String>) {
    let Ok(old) = std::fs::read_to_string(path) else {
        return (Vec::new(), None);
    };
    let Some(start) = old.find("\"history\": [") else {
        return (Vec::new(), None);
    };
    let sha_marker = format!("\"sha\": \"{current_sha}\"");
    let quick_marker = format!("\"quick\": {quick}");
    let mut kept = Vec::new();
    let mut replaced = None;
    for l in old[start..]
        .lines()
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('{'))
        .map(|l| l.trim().trim_end_matches(',').to_string())
    {
        if l.contains(&sha_marker) && l.contains(&quick_marker) {
            replaced = Some(l);
        } else {
            kept.push(l);
        }
    }
    (kept, replaced)
}

/// Collects the `"<prefix>...": <value>` fields of a history entry line, so
/// a re-run that did not measure an optional scenario (thread scaling,
/// service throughput) keeps the previously recorded numbers instead of
/// silently erasing them.
fn salvage_fields(entry: &str, prefix: &str) -> String {
    let mut out = String::new();
    let mut rest = entry;
    while let Some(i) = rest.find(prefix) {
        let field = &rest[i..];
        let end = field
            .find([',', '}'])
            .unwrap_or(field.len())
            .min(field.len());
        out.push_str(", ");
        out.push_str(field[..end].trim());
        rest = &field[end..];
    }
    out
}

/// Reads the numeric value of `"name": <value>` from a history entry line.
fn read_field(entry: &str, name: &str) -> Option<f64> {
    let marker = format!("\"{name}\": ");
    let i = entry.find(&marker)? + marker.len();
    let rest = &entry[i..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The bench-regression gate: compares this run's geomeans against the most
/// recent history entry of the same mode (quick runs against quick entries,
/// full against full — the absolute speedups differ between modes). Returns
/// an error message when either TPDE geomean dropped by more than
/// `threshold` percent.
fn check_regression(
    prior: &[String],
    quick: bool,
    geo: (f64, f64, f64),
    threshold: f64,
) -> Result<(), String> {
    let quick_marker = format!("\"quick\": {quick}");
    let Some(prev) = prior.iter().rev().find(|l| l.contains(&quick_marker)) else {
        println!(
            "(bench gate: no previous quick={quick} entry in history; nothing to compare against)"
        );
        return Ok(());
    };
    let prev_sha = prev
        .split("\"sha\": \"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or("?");
    let mut failures = Vec::new();
    for (name, new) in [("tpde_x64", geo.0), ("tpde_a64", geo.1)] {
        let Some(old) = read_field(prev, name) else {
            continue;
        };
        let drop_pct = (old - new) / old * 100.0;
        println!(
            "bench gate: {name} geomean {new:.4} vs {old:.4} at {prev_sha} ({drop_pct:+.1}% drop, limit {threshold:.0}%)"
        );
        if drop_pct > threshold {
            failures.push(format!(
                "{name} geomean regressed {drop_pct:.1}% ({old:.4} -> {new:.4}, vs {prev_sha})"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Thread-scaling results of the parallel pipeline (`--threads N`).
struct ParallelReport {
    workload: String,
    funcs: u32,
    seq_ms: f64,
    /// (worker count, best-of compile ms, speedup over sequential)
    points: Vec<(usize, f64, f64)>,
}

/// One worker-count measurement of the compile-service scenario.
struct ServicePoint {
    workers: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_mps: f64,
    warm_mps: f64,
    hit_rate: f64,
}

/// Request-throughput results of the persistent compile service
/// (`--service`).
struct ServiceReport {
    modules: usize,
    points: Vec<ServicePoint>,
}

/// Measures the persistent compile service: a mix of small (batched) and
/// enlarged (sharded) modules is submitted as one pipelined burst per pass,
/// cold (empty cache) and warm (every module repeated). Every response is
/// checked byte-identical against the one-shot sequential compiler, and the
/// warm pass must be at least 5× faster than the cold one.
fn service_throughput(quick: bool, worker_counts: &[usize]) -> ServiceReport {
    let mult = if quick { 8 } else { 16 };
    let mix = service_request_modules(mult);
    let opts = CompileOptions::default();
    let references: Vec<_> = mix
        .iter()
        .map(|(_, m)| compile_x64(m, &opts).expect("one-shot reference").buf)
        .collect();

    println!("\n== Compile service: pooled multi-request throughput (modules/sec)");
    println!(
        "   {} modules per pass ({} small + 1 sharded large), cold cache vs. warm cache",
        mix.len(),
        mix.len() - 1
    );
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "workers", "cold ms", "warm ms", "cold mod/s", "warm mod/s", "hit rate", "p50 ms", "p99 ms"
    );
    let mut points = Vec::new();
    for &workers in worker_counts {
        let svc = compile_service(ServiceConfig {
            workers,
            shard_threshold: 64,
            cache_capacity: 2 * mix.len(),
            disk_cache: None,
            ..ServiceConfig::default()
        });
        let run_pass = |expect_hits: bool| -> Duration {
            let start = Instant::now();
            let tickets: Vec<_> = mix
                .iter()
                .map(|(_, m)| {
                    svc.submit(Request::new(ModuleRequest::new(
                        Arc::clone(m),
                        ServiceBackendKind::TpdeX64,
                    )))
                })
                .collect();
            let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
            let elapsed = start.elapsed();
            for ((name, _), r) in mix.iter().zip(&responses) {
                assert_eq!(
                    r.timing.cache_hit, expect_hits,
                    "{name}: unexpected cache behaviour (hit={})",
                    r.timing.cache_hit
                );
            }
            for (((name, _), r), want) in mix.iter().zip(responses).zip(&references) {
                let got = r.module.expect(name);
                assert_identical(want, &got.buf, &format!("service {name} workers={workers}"));
            }
            elapsed
        };
        let cold = run_pass(false);
        let mut warm = Duration::MAX;
        for _ in 0..3 {
            warm = warm.min(run_pass(true));
        }
        let stats = svc.stats();
        let cold_ms = cold.as_secs_f64() * 1000.0;
        let warm_ms = warm.as_secs_f64() * 1000.0;
        let cold_mps = mix.len() as f64 / cold.as_secs_f64();
        let warm_mps = mix.len() as f64 / warm.as_secs_f64();
        println!(
            "{workers:<10} {cold_ms:>10.3} {warm_ms:>10.3} {cold_mps:>12.0} {warm_mps:>12.0} {:>9.0}% {:>10.3} {:>10.3}",
            stats.hit_rate() * 100.0,
            stats.p50_latency.as_secs_f64() * 1000.0,
            stats.p99_latency.as_secs_f64() * 1000.0
        );
        assert!(
            warm_ms * 5.0 <= cold_ms,
            "warm-cache pass must be at least 5x faster than cold \
             (cold {cold_ms:.3} ms, warm {warm_ms:.3} ms at {workers} workers)"
        );
        points.push(ServicePoint {
            workers,
            cold_ms,
            warm_ms,
            cold_mps,
            warm_mps,
            hit_rate: stats.hit_rate(),
        });
    }
    println!("   (byte-identity vs. the one-shot compiler is asserted for every request)");
    ServiceReport {
        modules: mix.len(),
        points,
    }
}

/// Results of the persistent-cache restart scenario (`--disk-cache`).
struct DiskReport {
    modules: usize,
    prewarmed: bool,
    cold_ms: f64,
    warm_ms: f64,
    cold_mps: f64,
    warm_mps: f64,
    disk_hits: u64,
    disk_misses: u64,
    disk_stores: u64,
    load_p50_ms: f64,
    load_p99_ms: f64,
}

/// The persistent-cache restart scenario: a disk-backed service compiles
/// the request mix cold (populating the artifact store as a side effect),
/// is dropped — a simulated process exit that discards the in-memory cache
/// and the worker pool — and a fresh service over the same directory must
/// then answer every request from disk: byte-identical to the one-shot
/// compiler, flagged `disk_hit`, with zero batched or sharded compiles, at
/// a warm throughput of at least 3× the cold one (all asserted).
///
/// The store lives in a fresh per-process temp directory unless
/// `TPDE_DISK_CACHE_DIR` names a persistent one. When that directory is
/// already warm from an earlier invocation (a real cross-process restart),
/// the first pass is served from disk too, so the cold-side assertions and
/// the 3× ratio are skipped — the warm-side assertions still run.
fn disk_cache_restart(quick: bool) -> DiskReport {
    let mult = if quick { 8 } else { 16 };
    let mix = service_request_modules(mult);
    let opts = CompileOptions::default();
    let references: Vec<_> = mix
        .iter()
        .map(|(_, m)| compile_x64(m, &opts).expect("one-shot reference").buf)
        .collect();

    let (dir, owned) = match std::env::var_os("TPDE_DISK_CACHE_DIR") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => {
            let d = std::env::temp_dir().join(format!("tpde-figures-disk-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            (d, true)
        }
    };
    std::fs::create_dir_all(&dir).expect("create disk cache dir");
    let prewarmed = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == "tpdeart"))
        })
        .unwrap_or(false);

    let service_at = |workers: usize| {
        compile_service(ServiceConfig {
            workers,
            shard_threshold: 64,
            cache_capacity: 2 * mix.len(),
            disk_cache: Some(DiskCacheConfig::new(&dir)),
            ..ServiceConfig::default()
        })
    };
    let run_pass = |svc: &LlvmCompileService| {
        let start = Instant::now();
        let tickets: Vec<_> = mix
            .iter()
            .map(|(_, m)| {
                svc.submit(Request::new(ModuleRequest::new(
                    Arc::clone(m),
                    ServiceBackendKind::TpdeX64,
                )))
            })
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let elapsed = start.elapsed();
        for (((name, _), r), want) in mix.iter().zip(&responses).zip(&references) {
            let buf = &r.module.as_ref().expect(name).buf;
            assert_identical(want, buf, &format!("disk scenario {name}"));
        }
        (elapsed, responses)
    };

    println!("\n== Persistent code cache: zero-compile warm restart (modules/sec)");
    println!(
        "   {} modules per pass, store at {} ({})",
        mix.len(),
        dir.display(),
        if prewarmed {
            "pre-warmed by an earlier process"
        } else {
            "fresh"
        }
    );

    // "Process one": cold pass. On a fresh store every request compiles and
    // is persisted by the workers as a side effect.
    let svc = service_at(4);
    let (cold, responses) = run_pass(&svc);
    let cold_stats = svc.stats();
    if !prewarmed {
        for ((name, _), r) in mix.iter().zip(&responses) {
            assert!(
                !r.timing.disk_hit && !r.timing.cache_hit,
                "{name}: cold pass on a fresh store must compile"
            );
        }
        assert_eq!(
            cold_stats.disk_stores,
            mix.len() as u64,
            "every cold compile must be persisted"
        );
    }
    drop(svc); // simulated process exit: memory cache and workers are gone

    // "Process two": warm passes, each on a freshly constructed service
    // (empty in-memory cache) so every request must come from disk. Best of
    // three restarts is reported.
    let mut warm = Duration::MAX;
    let mut warm_stats = None;
    for _ in 0..3 {
        let svc = service_at(4);
        let (elapsed, responses) = run_pass(&svc);
        for ((name, _), r) in mix.iter().zip(&responses) {
            assert!(
                r.timing.disk_hit && !r.timing.cache_hit,
                "{name}: restarted process must answer from disk"
            );
        }
        let stats = svc.stats();
        assert_eq!(
            stats.batched + stats.sharded,
            0,
            "restarted process must not invoke any compile path"
        );
        assert_eq!(stats.disk_hits, mix.len() as u64);
        warm = warm.min(elapsed);
        warm_stats = Some(stats);
    }
    let warm_stats = warm_stats.unwrap();

    let cold_ms = cold.as_secs_f64() * 1000.0;
    let warm_ms = warm.as_secs_f64() * 1000.0;
    let cold_mps = mix.len() as f64 / cold.as_secs_f64();
    let warm_mps = mix.len() as f64 / warm.as_secs_f64();
    let load_p50_ms = warm_stats.disk_load_p50.as_secs_f64() * 1000.0;
    let load_p99_ms = warm_stats.disk_load_p99.as_secs_f64() * 1000.0;
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12}",
        "pass", "cold ms", "warm ms", "cold mod/s", "warm mod/s"
    );
    println!(
        "{:<22} {cold_ms:>10.3} {warm_ms:>10.3} {cold_mps:>12.0} {warm_mps:>12.0}",
        "compile vs disk load"
    );
    println!(
        "disk cache stats: hits={} misses={} stores={} load_p50={:.3}ms load_p99={:.3}ms",
        warm_stats.disk_hits,
        cold_stats.disk_misses,
        cold_stats.disk_stores,
        load_p50_ms,
        load_p99_ms
    );
    if prewarmed {
        println!("   (pre-warmed store: cold pass was served from disk; 3x ratio not applicable)");
    } else {
        assert!(
            warm_ms * 3.0 <= cold_ms,
            "warm-disk restart must be at least 3x faster than cold compile \
             (cold {cold_ms:.3} ms, warm {warm_ms:.3} ms)"
        );
        println!("   (byte-identity, zero-compile restart and warm >= 3x cold are asserted)");
    }

    if owned {
        let _ = std::fs::remove_dir_all(&dir);
    }
    DiskReport {
        modules: mix.len(),
        prewarmed,
        cold_ms,
        warm_ms,
        cold_mps,
        warm_mps,
        disk_hits: warm_stats.disk_hits,
        disk_misses: cold_stats.disk_misses,
        disk_stores: cold_stats.disk_stores,
        load_p50_ms,
        load_p99_ms,
    }
}

/// Client identities of the chaos scenario's two submitters: the
/// interactive one whose tail latency is asserted, and the greedy bulk one
/// that is shed and preempted under pressure.
const INTERACTIVE_CLIENT: ClientId = ClientId(1);
const BULK_CLIENT: ClientId = ClientId(2);

/// Results of the resilience scenario (`--chaos`).
struct ChaosReport {
    submitted: usize,
    ok: usize,
    shed: usize,
    bulk_shed: usize,
    coalesced: u64,
    watchdog_timeouts: u64,
    workers_respawned: u64,
    disk_retries: u64,
    interactive_p99_ms: f64,
    preemptions: u64,
    recovered: usize,
}

/// The resilience scenario: an open-loop burst of mixed-priority requests
/// hits a small disk-backed service while armed faultpoints inject
/// transient disk I/O errors, mmap failures, lock-contention delays and two
/// worker stalls long past the hang budget. The front-end must degrade
/// explicitly, never silently: every ticket resolves, every `Ok` response
/// is byte-identical to the fault-free one-shot compiler, every `Err` is a
/// shed class (admission rejection, deadline expiry, watchdog timeout),
/// bulk traffic is shed while interactive p99 stays bounded, the watchdog
/// respawns the stalled workers, and transient disk errors are absorbed by
/// retrying. A restarted service over the same store — still under the
/// transparent disk faults — then answers the whole mix byte-identically,
/// and so does a final pass after disarming (all asserted).
fn chaos_resilience(quick: bool) -> ChaosReport {
    let mult = if quick { 8 } else { 16 };
    let mut mix = service_request_modules(mult);
    // The enlarged (sharded) module goes first: the injected stalls land on
    // its shard participants, pinning workers while the rest of the burst
    // arrives — and its round-two duplicate must coalesce onto it.
    mix.rotate_right(1);
    let opts = CompileOptions::default();
    let references: Vec<_> = mix
        .iter()
        .map(|(_, m)| compile_x64(m, &opts).expect("one-shot reference").buf)
        .collect();

    let hang = Duration::from_millis(if quick { 150 } else { 250 });
    let dir = std::env::temp_dir().join(format!("tpde-figures-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos store dir");

    println!("\n== Chaos: resilient front-end under injected disk and worker faults");
    println!(
        "   {} modules x2 rounds, workers=3, bulk queue cap 1, hang budget {} ms",
        mix.len(),
        hang.as_millis()
    );

    // Everything transparent is armed unbounded; the two destructive stalls
    // are limited so the run converges.
    let guard = arm(vec![
        FaultRule::new(sites::DISK_READ, FaultAction::Transient).every(4),
        FaultRule::new(sites::DISK_RENAME, FaultAction::Transient).every(3),
        FaultRule::new(sites::DISK_MMAP, FaultAction::Fail).every(3),
        FaultRule::new(
            sites::DISK_FLOCK,
            FaultAction::Delay(Duration::from_micros(500)),
        )
        .every(4),
        FaultRule::new(sites::WORKER_JOB, FaultAction::Delay(2 * hang)).limit(2),
        FaultRule::new(
            sites::WORKER_FUNC,
            FaultAction::Delay(Duration::from_micros(50)),
        )
        .every(31),
        FaultRule::new(sites::WORKER_WAKEUP, FaultAction::Fail).every(13),
    ]);
    let service_at = || {
        compile_service(ServiceConfig {
            workers: 3,
            shard_threshold: 64,
            cache_capacity: 2 * mix.len(),
            disk_cache: Some(DiskCacheConfig::new(&dir)),
            queue_capacity: 4 * mix.len(),
            bulk_queue_capacity: 1,
            hang_timeout: Some(hang),
        })
    };

    // Round one is an un-paced burst (the sharded module and its stalled
    // shards are still in flight when everything behind it is admitted);
    // round two re-submits the same mix with flipped priorities, paced as
    // an open-loop arrival process.
    let svc = service_at();
    let mut pending: Vec<(usize, bool, Ticket)> = Vec::new();
    for round in 0..2usize {
        for (i, (_, m)) in mix.iter().enumerate() {
            let bulk = (i + round) % 2 == 1;
            // Two distinct clients: the greedy bulk one (tight deadlines,
            // sheddable) and the interactive one whose p99 is asserted.
            let req = Request::new(ModuleRequest::new(
                Arc::clone(m),
                ServiceBackendKind::TpdeX64,
            ));
            let req = if bulk {
                req.priority(Priority::Bulk)
                    .deadline(Duration::from_millis(25))
                    .client(BULK_CLIENT)
            } else {
                req.client(INTERACTIVE_CLIENT)
            };
            pending.push((i, bulk, svc.submit(req)));
            if round > 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    let submitted = pending.len();

    let (mut ok, mut shed, mut bulk_shed) = (0usize, 0usize, 0usize);
    let mut interactive_ms: Vec<f64> = Vec::new();
    for (i, bulk, ticket) in pending {
        // A lost ticket (worker died without answering) hangs forever; the
        // generous timeout turns that bug into a crisp failure.
        let r = ticket
            .by_ref()
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("chaos: lost ticket for {}", mix[i].0));
        match r.module {
            Ok(m) => {
                assert_identical(
                    &references[i],
                    &m.buf,
                    &format!("chaos {} (bulk={bulk})", mix[i].0),
                );
                if !bulk {
                    interactive_ms.push(r.timing.total.as_secs_f64() * 1000.0);
                }
                ok += 1;
            }
            Err(Error::Rejected { .. } | Error::DeadlineExceeded | Error::Timeout(_)) => {
                shed += 1;
                if bulk {
                    bulk_shed += 1;
                }
            }
            Err(e) => panic!("chaos: unexpected error class for {}: {e}", mix[i].0),
        }
    }
    assert_eq!(ok + shed, submitted, "every ticket resolves exactly once");

    interactive_ms.sort_by(f64::total_cmp);
    let interactive_p99_ms = interactive_ms
        .get(((interactive_ms.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    // The bound is generous (it covers the full injected stall plus queue
    // drain) but finite: interactive latency must not absorb the bulk
    // backlog or the 60 s lost-ticket horizon.
    assert!(
        interactive_p99_ms < 20_000.0,
        "interactive p99 must stay bounded under faults ({interactive_p99_ms:.1} ms)"
    );
    let s = svc.stats();
    assert!(
        s.watchdog_timeouts >= 1,
        "the stalls must trip the watchdog"
    );
    assert!(s.workers_respawned >= 1, "condemned workers must respawn");
    assert!(s.disk_retries >= 1, "transient disk faults must be retried");
    assert!(
        s.coalesced >= 1,
        "the duplicated in-flight module coalesces"
    );
    assert!(bulk_shed >= 1, "bulk traffic must be shed under pressure");
    println!(
        "   burst: {ok}/{submitted} ok, {shed} shed ({bulk_shed} bulk), \
         interactive p99 {interactive_p99_ms:.1} ms"
    );
    println!(
        "   faults absorbed: disk_retries={} coalesced={} watchdog_timeouts={} respawned={}",
        s.disk_retries, s.coalesced, s.watchdog_timeouts, s.workers_respawned
    );
    println!("   front-end: preemptions={}", s.preemptions);
    for cs in &s.clients {
        println!(
            "   client {}: completed={} shed={} preemptions={} p50 {:.1} ms p99 {:.1} ms",
            cs.client,
            cs.completed,
            cs.shed,
            cs.preemptions,
            cs.p50_latency.as_secs_f64() * 1000.0,
            cs.p99_latency.as_secs_f64() * 1000.0
        );
    }
    assert!(
        s.clients.iter().any(|c| c.client == INTERACTIVE_CLIENT.0)
            && s.clients.iter().any(|c| c.client == BULK_CLIENT.0),
        "per-client stats must track both chaos submitters"
    );
    drop(svc); // simulated crash-restart: memory cache and workers are gone

    // Restarted process, faults still armed: only transparent rules remain
    // live (the stall budget is spent), so the full mix must now succeed —
    // from disk where the first pass stored artifacts, recompiled where the
    // watchdog discarded the poisoned result — byte for byte.
    let svc = service_at();
    let mut recovered = 0usize;
    for ((name, m), want) in mix.iter().zip(&references) {
        let r = svc.compile(Request::new(ModuleRequest::new(
            Arc::clone(m),
            ServiceBackendKind::TpdeX64,
        )));
        let got = r
            .module
            .unwrap_or_else(|e| panic!("chaos restart: {name}: {e}"));
        assert_identical(want, &got.buf, &format!("chaos restart {name}"));
        recovered += 1;
    }
    println!(
        "   restart under transparent faults: {recovered}/{} ok",
        mix.len()
    );

    // Disarmed, the same service answers the full mixed-priority mix with
    // zero faults in the path — nothing the chaos pass did may have left
    // sticky damage behind.
    drop(guard);
    for (i, (name, m)) in mix.iter().enumerate() {
        let class = if i % 2 == 1 {
            Priority::Bulk
        } else {
            Priority::Interactive
        };
        let r = svc.compile(
            Request::new(ModuleRequest::new(
                Arc::clone(m),
                ServiceBackendKind::TpdeX64,
            ))
            .priority(class),
        );
        let got = r
            .module
            .unwrap_or_else(|e| panic!("chaos disarmed: {name}: {e}"));
        assert_identical(&references[i], &got.buf, &format!("chaos disarmed {name}"));
    }
    println!("   (no lost tickets, explicit shed classes, byte-identity and recovery asserted)");

    let _ = std::fs::remove_dir_all(&dir);
    ChaosReport {
        submitted,
        ok,
        shed,
        bulk_shed,
        coalesced: s.coalesced,
        watchdog_timeouts: s.watchdog_timeouts,
        workers_respawned: s.workers_respawned,
        disk_retries: s.disk_retries,
        interactive_p99_ms,
        preemptions: s.preemptions,
        recovered,
    }
}

/// Results of the differential fuzzing campaign (`--fuzz`).
struct FuzzScenarioReport {
    modules: usize,
    total_insts: usize,
    mutants_rejected: u64,
    executed: usize,
    compared: usize,
}

/// Executes `bench_main(input)` from a compiled buffer under an
/// instruction budget, so a buggy candidate that loops forever reports a
/// timeout instead of hanging the campaign.
fn fuzz_exec(
    buf: &tpde_core::codebuf::CodeBuffer,
    input: u64,
    max_insts: u64,
) -> Result<u64, String> {
    let image = link_in_memory(buf, 0x40_0000, |_| None).map_err(|e| e.to_string())?;
    let mut m = Machine::new();
    m.max_insts = max_insts;
    m.load_image(&image);
    register_default_hostcalls(&mut m, &image);
    let addr = image
        .symbol_addr("bench_main")
        .ok_or_else(|| "no bench_main symbol".to_string())?;
    m.call(addr, &[input]).map_err(|e| format!("{e:?}"))
}

/// Runs the differential fuzzing campaign (`--fuzz [N]`): `n` seeded
/// random modules through every service backend kind (byte identity
/// against the one-shot compilers — the whole AArch64 check — plus
/// emulator-equal results across the executable x86-64 kinds) and one
/// corrupted mutant per module, which the verifier and the service must
/// reject with a typed error. Result-mismatch failures are re-minimized
/// and every failure is written to `fuzz_failures/` as a reproducer
/// (`gen_module(seed)` rebuilds the input) before the run aborts.
fn fuzz_campaign(n: usize, seed: u64) -> FuzzScenarioReport {
    use tpde_llvm::fuzz::{self, FuzzConfig};
    println!("\n== Fuzz: differential campaign, {n} random modules, seed {seed:#x}");
    let cfg = FuzzConfig {
        modules: n,
        seed,
        mutants_per_module: 1,
        workers: 3,
    };
    let rep = fuzz::run_fuzz(&cfg, &|b, i| fuzz_exec(b, i, 100_000_000));
    println!("   {}", rep.summary());
    println!(
        "   service: {} invalid rejected at admission, {} backend panics, {} respawns",
        rep.rejected_invalid, rep.panics_backend, rep.workers_respawned
    );
    if !rep.failures.is_empty() {
        let dir = std::path::Path::new("fuzz_failures");
        let _ = std::fs::create_dir_all(dir);
        for (i, f) in rep.failures.iter().enumerate() {
            println!("   FAILURE seed {:#x}: {} ({})", f.seed, f.kind, f.detail);
            let mut ir = f.ir.clone();
            if f.kind == "result mismatch" {
                // Shrink while any executable pair still disagrees, so the
                // reproducer is a few instructions instead of a whole module.
                let input = f.seed & 0x3F;
                let mut differs = |m: &tpde_llvm::ir::Module| -> bool {
                    let mut first: Option<u64> = None;
                    for kind in fuzz::EXEC_KINDS {
                        let Ok(buf) = fuzz::one_shot_buf(m, kind) else {
                            return false;
                        };
                        let Ok(r) = fuzz_exec(&buf, input, 200_000) else {
                            return false;
                        };
                        match first {
                            None => first = Some(r),
                            Some(r0) if r0 != r => return true,
                            Some(_) => {}
                        }
                    }
                    false
                };
                let full = fuzz::gen_module(f.seed);
                let small = fuzz::minimize(&full, &mut differs, 400);
                if differs(&small) {
                    ir = small.dump();
                }
            }
            let path = dir.join(format!("fuzz_{i:03}_{:016x}.txt", f.seed));
            let _ = std::fs::write(
                &path,
                format!(
                    "seed: {:#x}\nkind: {}\ndetail: {}\n\n{}\n",
                    f.seed, f.kind, f.detail, ir
                ),
            );
        }
        println!(
            "   wrote {} reproducer(s) to fuzz_failures/",
            rep.failures.len()
        );
    }
    assert!(
        rep.ok(),
        "fuzz campaign found {} failure(s); reproducers in fuzz_failures/",
        rep.failures.len()
    );
    FuzzScenarioReport {
        modules: rep.modules,
        total_insts: rep.total_insts,
        mutants_rejected: rep.rejected_invalid,
        executed: rep.executed,
        compared: rep.compared,
    }
}

/// Writes the machine-readable compile-time speedup report, appending this
/// run's geomeans to the per-commit history carried over from the previous
/// report.
///
/// Hand-rolled JSON (the container has no serde); numbers use enough digits
/// for diffing across PRs.
#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    quick: bool,
    rows: &[(&str, f64, f64, f64)],
    geo: (f64, f64, f64),
    par: Option<&ParallelReport>,
    service: Option<&ServiceReport>,
    disk: Option<&DiskReport>,
    chaos: Option<&ChaosReport>,
    fuzz: Option<&FuzzScenarioReport>,
) -> std::io::Result<Vec<String>> {
    use std::fmt::Write as _;
    let sha = git_sha();
    let (mut history, replaced) = read_history(path, &sha, quick);
    let prior = history.clone();
    // Every timing below depends on the host; record how many cores it had.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entry = format!(
        "{{\"sha\": \"{sha}\", \"quick\": {quick}, \"nproc\": {nproc}, \"tpde_x64\": {:.4}, \"tpde_a64\": {:.4}, \"copy_patch\": {:.4}",
        geo.0, geo.1, geo.2
    );
    match par {
        Some(p) => {
            for (t, _, speedup) in &p.points {
                let _ = write!(entry, ", \"par_t{t}\": {speedup:.4}");
            }
        }
        // no thread scaling this run: keep the same-SHA entry's numbers
        None => {
            if let Some(old) = &replaced {
                entry.push_str(&salvage_fields(old, "\"par_t"));
            }
        }
    }
    match service {
        Some(s) => {
            if let Some(p) = s.points.last() {
                let _ = write!(
                    entry,
                    ", \"svc_t{}_cold_mps\": {:.1}, \"svc_t{}_warm_mps\": {:.1}",
                    p.workers, p.cold_mps, p.workers, p.warm_mps
                );
            }
        }
        None => {
            if let Some(old) = &replaced {
                entry.push_str(&salvage_fields(old, "\"svc_"));
            }
        }
    }
    match disk {
        Some(d) => {
            let _ = write!(
                entry,
                ", \"disk_cold_mps\": {:.1}, \"disk_warm_mps\": {:.1}",
                d.cold_mps, d.warm_mps
            );
        }
        // no disk-cache scenario this run: keep the same-SHA entry's numbers
        None => {
            if let Some(old) = &replaced {
                entry.push_str(&salvage_fields(old, "\"disk_"));
            }
        }
    }
    match chaos {
        Some(c) => {
            let _ = write!(
                entry,
                ", \"chaos_ok\": {}, \"chaos_shed\": {}, \"chaos_disk_retries\": {}, \
                 \"chaos_respawned\": {}, \"chaos_p99_ms\": {:.1}",
                c.ok, c.shed, c.disk_retries, c.workers_respawned, c.interactive_p99_ms
            );
        }
        // no chaos scenario this run: keep the same-SHA entry's numbers
        None => {
            if let Some(old) = &replaced {
                entry.push_str(&salvage_fields(old, "\"chaos_"));
            }
        }
    }
    match fuzz {
        Some(f) => {
            let _ = write!(
                entry,
                ", \"fuzz_modules\": {}, \"fuzz_insts\": {}, \"fuzz_mutants_rejected\": {}, \
                 \"fuzz_execs\": {}, \"fuzz_compared\": {}",
                f.modules, f.total_insts, f.mutants_rejected, f.executed, f.compared
            );
        }
        // no fuzz campaign this run: keep the same-SHA entry's numbers
        None => {
            if let Some(old) = &replaced {
                entry.push_str(&salvage_fields(old, "\"fuzz_"));
            }
        }
    }
    entry.push('}');
    history.push(entry);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"figure\": \"5a_compile_speedup_over_llvm_o0_like\",\n  \"quick\": {quick},"
    );
    out.push_str("  \"workloads\": [\n");
    for (i, (name, x64, a64, cp)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"tpde_x64\": {x64:.4}, \"tpde_a64\": {a64:.4}, \"copy_patch\": {cp:.4}}}{comma}"
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"geomean\": {{\"tpde_x64\": {:.4}, \"tpde_a64\": {:.4}, \"copy_patch\": {:.4}}},",
        geo.0, geo.1, geo.2
    );
    if let Some(p) = par {
        let _ = writeln!(
            out,
            "  \"parallel\": {{\"workload\": \"{}\", \"funcs\": {}, \"seq_ms\": {:.4}, \"points\": [",
            p.workload, p.funcs, p.seq_ms
        );
        for (i, (t, ms, speedup)) in p.points.iter().enumerate() {
            let comma = if i + 1 < p.points.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"threads\": {t}, \"ms\": {ms:.4}, \"speedup\": {speedup:.4}}}{comma}"
            );
        }
        out.push_str("  ]},\n");
    }
    if let Some(s) = service {
        let _ = writeln!(
            out,
            "  \"service\": {{\"modules\": {}, \"points\": [",
            s.modules
        );
        for (i, p) in s.points.iter().enumerate() {
            let comma = if i + 1 < s.points.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"workers\": {}, \"cold_ms\": {:.4}, \"warm_ms\": {:.4}, \"cold_mps\": {:.1}, \"warm_mps\": {:.1}, \"hit_rate\": {:.4}}}{comma}",
                p.workers, p.cold_ms, p.warm_ms, p.cold_mps, p.warm_mps, p.hit_rate
            );
        }
        out.push_str("  ]},\n");
    }
    if let Some(d) = disk {
        let _ = writeln!(
            out,
            "  \"disk\": {{\"modules\": {}, \"prewarmed\": {}, \"cold_ms\": {:.4}, \
             \"warm_ms\": {:.4}, \"cold_mps\": {:.1}, \"warm_mps\": {:.1}, \"hits\": {}, \
             \"misses\": {}, \"stores\": {}, \"load_p50_ms\": {:.4}, \"load_p99_ms\": {:.4}}},",
            d.modules,
            d.prewarmed,
            d.cold_ms,
            d.warm_ms,
            d.cold_mps,
            d.warm_mps,
            d.disk_hits,
            d.disk_misses,
            d.disk_stores,
            d.load_p50_ms,
            d.load_p99_ms
        );
    }
    if let Some(c) = chaos {
        let _ = writeln!(
            out,
            "  \"chaos\": {{\"submitted\": {}, \"ok\": {}, \"shed\": {}, \"bulk_shed\": {}, \
             \"coalesced\": {}, \"watchdog_timeouts\": {}, \"workers_respawned\": {}, \
             \"disk_retries\": {}, \"interactive_p99_ms\": {:.1}, \"preemptions\": {}, \
             \"recovered\": {}}},",
            c.submitted,
            c.ok,
            c.shed,
            c.bulk_shed,
            c.coalesced,
            c.watchdog_timeouts,
            c.workers_respawned,
            c.disk_retries,
            c.interactive_p99_ms,
            c.preemptions,
            c.recovered
        );
    }
    out.push_str("  \"history\": [\n");
    for (i, entry) in history.iter().enumerate() {
        let comma = if i + 1 < history.len() { "," } else { "" };
        let _ = writeln!(out, "    {entry}{comma}");
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(path, out)?;
    Ok(prior)
}

/// Measures the thread-scaling curve of the parallel pipeline on an
/// enlarged copy of the largest workload (more cloned hot functions, so the
/// per-compile work is large enough to amortize worker startup), verifying
/// the parallel text stays byte-identical to the sequential compiler.
fn thread_scaling(quick: bool, max_threads: usize) -> ParallelReport {
    let base = spec_workloads()
        .into_iter()
        .max_by_key(|w| w.funcs)
        .expect("workloads");
    let mult = if quick { 8 } else { 32 };
    let w = tpde_llvm::workloads::Workload {
        funcs: base.funcs * mult,
        ..base
    };
    let module = build_workload(&w, IrStyle::O0);
    let reps = 3;
    let mut seq_best = std::time::Duration::MAX;
    let mut seq_buf = None;
    for _ in 0..reps {
        let start = Instant::now();
        let c = compile_x64(&module, &CompileOptions::default()).expect("sequential compile");
        seq_best = seq_best.min(start.elapsed());
        seq_buf = Some(c.buf);
    }
    let seq_buf = seq_buf.unwrap();
    let seq_ms = seq_best.as_secs_f64() * 1000.0;

    println!("\n== Thread scaling: function-sharded parallel compilation");
    println!(
        "   workload {} x{mult} funcs = {} functions, sequential compile {:.3} ms (best of {reps})",
        base.name, w.funcs, seq_ms
    );
    println!("{:<10} {:>12} {:>12}", "workers", "compile ms", "speedup");
    let mut counts = Vec::new();
    let mut t = 1;
    while t < max_threads {
        counts.push(t);
        t *= 2;
    }
    counts.push(max_threads);
    let mut points = Vec::new();
    for &t in &counts {
        let (best, buf) = measure_parallel(&module, t, reps);
        assert_identical(&seq_buf, &buf, &format!("{t} workers"));
        let ms = best.as_secs_f64() * 1000.0;
        let speedup = seq_ms / ms;
        println!("{t:<10} {ms:>12.3} {speedup:>11.2}x");
        points.push((t, ms, speedup));
    }
    println!("   (scaling is bounded by the host's cores; determinism is checked every run)");
    ParallelReport {
        workload: base.name.to_string(),
        funcs: w.funcs,
        seq_ms,
        points,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let service = args.iter().any(|a| a == "--service");
    let disk = args.iter().any(|a| a == "--disk-cache");
    let chaos = args.iter().any(|a| a == "--chaos");
    // `--fuzz` takes an optional module count (defaults scale with the
    // mode); `--fuzz-seed` overrides the fixed campaign seed, e.g. with a
    // time-derived one in the scheduled CI job (the seed is printed, so
    // any failure is reproducible).
    let fuzz_n: Option<usize> = args.iter().position(|a| a == "--fuzz").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 200 } else { 1000 })
    });
    let fuzz_seed: u64 = args
        .iter()
        .position(|a| a == "--fuzz-seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            };
            parsed.unwrap_or_else(|| {
                eprintln!("--fuzz-seed requires a u64 (decimal or 0x-hex)");
                std::process::exit(2);
            })
        })
        .unwrap_or(0xC60_2026);
    let threads: Option<usize> = args.iter().position(|a| a == "--threads").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--threads requires a positive integer worker count");
                std::process::exit(2);
            })
    });
    // `--gate` takes an optional drop threshold in percent (default 10).
    let gate: Option<f64> = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(10.0)
    });
    let scale = if quick { 2_000 } else { 50_000 };
    let workloads: Vec<_> = spec_workloads()
        .iter()
        .map(|w| scaled(w, w.input.min(scale)))
        .collect();

    // ------------------------------------------------------------------ fig 5a/5b/7
    println!("== Figure 5a: back-end compile-time speedup over LLVM-O0-like (unoptimized IR)");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "benchmark", "TPDE x86-64", "TPDE AArch64", "Copy-Patch"
    );
    let mut sp_x64 = Vec::new();
    let mut sp_a64 = Vec::new();
    let mut sp_cp = Vec::new();
    let mut json_rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    let mut run_rows = Vec::new();
    let mut size_rows = Vec::new();
    for w in &workloads {
        let base = measure(Backend::BaselineO0, w, IrStyle::O0, 3);
        let tpde = measure(Backend::TpdeX64, w, IrStyle::O0, 3);
        let a64 = measure(Backend::TpdeA64, w, IrStyle::O0, 3);
        let cp = measure(Backend::CopyPatch, w, IrStyle::O0, 3);
        assert!(
            base.correct && tpde.correct && cp.correct,
            "incorrect code for {}",
            w.name
        );
        let s_x = base.compile_time.as_secs_f64() / tpde.compile_time.as_secs_f64();
        let s_a = base.compile_time.as_secs_f64() / a64.compile_time.as_secs_f64();
        let s_c = base.compile_time.as_secs_f64() / cp.compile_time.as_secs_f64();
        println!(
            "{:<16} {:>11.2}x {:>11.2}x {:>11.2}x",
            w.name, s_x, s_a, s_c
        );
        sp_x64.push(s_x);
        sp_a64.push(s_a);
        sp_cp.push(s_c);
        json_rows.push((w.name, s_x, s_a, s_c));
        run_rows.push((
            w.name,
            base.cycles.unwrap() as f64 / tpde.cycles.unwrap() as f64,
            base.cycles.unwrap() as f64 / cp.cycles.unwrap() as f64,
        ));
        size_rows.push((
            w.name,
            tpde.text_size as f64 / base.text_size as f64,
            cp.text_size as f64 / base.text_size as f64,
            a64.text_size,
        ));
    }
    println!(
        "{:<16} {:>11.2}x {:>11.2}x {:>11.2}x   (geomean)",
        "geomean",
        geomean(&sp_x64),
        geomean(&sp_a64),
        geomean(&sp_cp)
    );
    let par_report = threads.map(|n| thread_scaling(quick, n.max(1)));
    let service_report = service.then(|| service_throughput(quick, &[1, 2, 4]));
    let disk_report = disk.then(|| disk_cache_restart(quick));
    let chaos_report = chaos.then(|| chaos_resilience(quick));
    let fuzz_report = fuzz_n.map(|n| fuzz_campaign(n, fuzz_seed));
    let geo = (geomean(&sp_x64), geomean(&sp_a64), geomean(&sp_cp));
    // The gate compares against the committed history; only `--json` runs
    // rewrite the report file.
    let prior = if json {
        match write_json(
            "BENCH_compile.json",
            quick,
            &json_rows,
            geo,
            par_report.as_ref(),
            service_report.as_ref(),
            disk_report.as_ref(),
            chaos_report.as_ref(),
            fuzz_report.as_ref(),
        ) {
            Ok(prior) => {
                println!("(wrote BENCH_compile.json)");
                Some(prior)
            }
            Err(e) => {
                eprintln!("failed to write BENCH_compile.json: {e}");
                None
            }
        }
    } else {
        gate.map(|_| read_history("BENCH_compile.json", &git_sha(), quick).0)
    };
    if let (Some(threshold), Some(prior)) = (gate, prior.as_ref()) {
        if let Err(msg) = check_regression(prior, quick, geo, threshold) {
            eprintln!("bench gate FAILED: {msg}");
            std::process::exit(1);
        }
        println!("bench gate passed");
    }

    println!(
        "\n== Figure 5b: run-time speedup of generated code over LLVM-O0-like (emulated cycles)"
    );
    println!(
        "{:<16} {:>12} {:>12}",
        "benchmark", "TPDE x86-64", "Copy-Patch"
    );
    let mut rt_tpde = Vec::new();
    let mut rt_cp = Vec::new();
    for (name, t, c) in &run_rows {
        println!("{:<16} {:>11.2}x {:>11.2}x", name, t, c);
        rt_tpde.push(*t);
        rt_cp.push(*c);
    }
    println!(
        "{:<16} {:>11.2}x {:>11.2}x   (geomean)",
        "geomean",
        geomean(&rt_tpde),
        geomean(&rt_cp)
    );

    println!("\n== Figure 7: .text size relative to LLVM-O0-like");
    println!(
        "{:<16} {:>12} {:>12}",
        "benchmark", "TPDE x86-64", "Copy-Patch"
    );
    let mut sz_tpde = Vec::new();
    let mut sz_cp = Vec::new();
    for (name, t, c, _) in &size_rows {
        println!("{:<16} {:>11.2}x {:>11.2}x", name, t, c);
        sz_tpde.push(*t);
        sz_cp.push(*c);
    }
    println!(
        "{:<16} {:>11.2}x {:>11.2}x   (geomean)",
        "geomean",
        geomean(&sz_tpde),
        geomean(&sz_cp)
    );

    // ------------------------------------------------------------------ fig 6
    println!("\n== Figure 6: time distribution inside TPDE (all workloads, -O0 style IR)");
    let mut totals = [0.0f64; 4];
    for w in &workloads {
        let module = build_workload(w, IrStyle::O0);
        let c = compile_x64(&module, &CompileOptions::default()).unwrap();
        for (i, phase) in Phase::ALL.iter().enumerate() {
            totals[i] += c.timings.total(*phase).as_secs_f64();
        }
    }
    let sum: f64 = totals.iter().sum();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        println!(
            "  {:<10} {:>6.1}%",
            phase.name(),
            100.0 * totals[i] / sum.max(1e-12)
        );
    }
    println!(
        "  (the paper additionally reports the Clang front-end share, which has no analogue here)"
    );

    // ------------------------------------------------------------------ fig 8a/8b
    println!("\n== Figure 8a: compile-time speedup over the LLVM-O1-like back-end (optimized IR)");
    println!(
        "{:<16} {:>12} {:>14}",
        "benchmark", "TPDE x86-64", "vs LLVM-O0-like"
    );
    let mut sp_o1 = Vec::new();
    let mut sp_o0 = Vec::new();
    let mut rt8 = Vec::new();
    for w in &workloads {
        let tpde = measure(Backend::TpdeX64, w, IrStyle::O1, 3);
        let o1 = measure(Backend::BaselineO1, w, IrStyle::O1, 3);
        let o0 = measure(Backend::BaselineO0, w, IrStyle::O1, 3);
        assert!(tpde.correct && o1.correct && o0.correct);
        let s1 = o1.compile_time.as_secs_f64() / tpde.compile_time.as_secs_f64();
        let s0 = o0.compile_time.as_secs_f64() / tpde.compile_time.as_secs_f64();
        println!("{:<16} {:>11.2}x {:>13.2}x", w.name, s1, s0);
        sp_o1.push(s1);
        sp_o0.push(s0);
        rt8.push((
            w.name,
            o1.cycles.unwrap() as f64 / tpde.cycles.unwrap() as f64,
            o1.cycles.unwrap() as f64 / o0.cycles.unwrap() as f64,
        ));
    }
    println!(
        "{:<16} {:>11.2}x {:>13.2}x   (geomean)",
        "geomean",
        geomean(&sp_o1),
        geomean(&sp_o0)
    );

    println!("\n== Figure 8b: run-time speedup over the LLVM-O1-like back-end (optimized IR)");
    println!(
        "{:<16} {:>12} {:>14}",
        "benchmark", "TPDE x86-64", "LLVM-O0-like"
    );
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (name, t, o) in &rt8 {
        println!("{:<16} {:>11.2}x {:>13.2}x", name, t, o);
        a.push(*t);
        b.push(*o);
    }
    println!(
        "{:<16} {:>11.2}x {:>13.2}x   (geomean)",
        "geomean",
        geomean(&a),
        geomean(&b)
    );

    // ------------------------------------------------------------------ ablations
    println!("\n== Ablations (geomean over all workloads, -O1 style IR, TPDE x86-64)");
    let configs: [(&str, CompileOptions); 4] = [
        ("default", CompileOptions::default()),
        (
            "no fixed loop regs",
            CompileOptions {
                fixed_loop_regs: false,
                ..CompileOptions::default()
            },
        ),
        (
            "no cmp/br fusion",
            CompileOptions {
                fusion: false,
                ..CompileOptions::default()
            },
        ),
        (
            "no liveness (all live)",
            CompileOptions {
                assume_all_live: true,
                ..CompileOptions::default()
            },
        ),
    ];
    let mut baseline_cycles = Vec::new();
    for (name, opts) in &configs {
        let mut cycles = Vec::new();
        let mut sizes = Vec::new();
        let mut ctime = Vec::new();
        for w in &workloads {
            let module = build_workload(w, IrStyle::O1);
            let start = Instant::now();
            let c = compile_x64(&module, opts).unwrap();
            ctime.push(start.elapsed().as_secs_f64());
            let image = tpde_core::jit::link_in_memory(&c.buf, 0x40_0000, |_| None).unwrap();
            let (_, stats) = tpde_x64emu::run_function(&image, "bench_main", &[w.input]).unwrap();
            cycles.push(stats.cycles as f64);
            sizes.push(c.text_size() as f64);
        }
        if baseline_cycles.is_empty() {
            baseline_cycles = cycles.clone();
        }
        let slowdown: Vec<f64> = cycles
            .iter()
            .zip(&baseline_cycles)
            .map(|(c, b)| c / b)
            .collect();
        println!(
            "  {:<24} run-time {:>5.2}x of default, compile {:>7.3} ms, code {:>8.0} B",
            name,
            geomean(&slowdown),
            ctime.iter().sum::<f64>() * 1000.0,
            sizes.iter().sum::<f64>()
        );
    }

    // sanity: the baselines exist and all produce correct code on one workload
    let w = scaled(&spec_workloads()[0], 1_000);
    let module = build_workload(&w, IrStyle::O0);
    assert!(compile_copy_patch(&module).is_ok());
    assert!(compile_baseline(&module, 1).is_ok());
    println!("\nAll figure data generated successfully.");
}
