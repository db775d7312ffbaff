//! The resilience scenario: an open-loop burst of mixed-priority requests
//! hits a small disk-backed service while armed faultpoints inject
//! transient disk I/O errors, lock-contention delays and two worker stalls
//! long past the hang budget. The front-end must degrade explicitly, never
//! silently: every ticket resolves, every `Ok` response
//! is byte-identical to the fault-free one-shot compiler, every `Err` is a
//! shed class (admission rejection, deadline expiry, watchdog timeout),
//! bulk traffic is shed while interactive p99 stays bounded, the watchdog
//! respawns the stalled workers, and transient disk errors are absorbed by
//! retrying. A restarted service over the same store — still under the
//! transparent disk faults — then answers the whole mix byte-identically,
//! and so does a final pass after disarming.
//!
//! `faultpoint::arm` installs its rules process-wide, so this scenario has
//! a test binary of its own: the rules must not fire inside other tests.

use std::sync::Arc;
use std::time::Duration;
use tpde_core::codebuf::assert_identical;
use tpde_core::codegen::CompileOptions;
use tpde_core::diskcache::DiskCacheConfig;
use tpde_core::error::Error;
use tpde_core::faultpoint::{arm, sites, FaultAction, FaultRule};
use tpde_core::service::{ClientId, Priority, Request, ServiceConfig};
use tpde_llvm::backend::LlvmServiceBackend;
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile_service, compile_x64, ModuleRequest, ServiceBackendKind};

/// The interactive client, whose tail latency is asserted.
const INTERACTIVE_CLIENT: ClientId = ClientId(1);
/// The greedy bulk client, which is shed under pressure.
const BULK_CLIENT: ClientId = ClientId(2);

/// The request mix: an 8x enlarged copy of the largest workload followed
/// by every SPEC-like workload as-is; each compiles whole on one worker.
/// The enlarged module goes first: the injected stalls land on the first
/// jobs, pinning workers while the rest of the burst arrives, and its
/// round-two duplicate must coalesce onto it.
fn request_mix() -> Vec<(String, Arc<Module>)> {
    let workloads = spec_workloads();
    let base = workloads.iter().max_by_key(|w| w.funcs).expect("workloads");
    let big = Workload {
        funcs: base.funcs * 8,
        ..base.clone()
    };
    let mut mix = vec![(
        format!("{}x8", base.name),
        Arc::new(build_workload(&big, IrStyle::O0)),
    )];
    mix.extend(
        workloads
            .iter()
            .map(|w| (w.name.to_string(), Arc::new(build_workload(w, IrStyle::O0)))),
    );
    mix
}

fn x64_request(m: &Arc<Module>) -> Request<LlvmServiceBackend> {
    Request::new(ModuleRequest::new(
        Arc::clone(m),
        ServiceBackendKind::TpdeX64,
    ))
}

#[test]
fn service_degrades_explicitly_under_injected_faults() {
    let mix = request_mix();
    let opts = CompileOptions::default();
    let references: Vec<_> = mix
        .iter()
        .map(|(_, m)| compile_x64(m, &opts).expect("one-shot reference").buf)
        .collect();

    let hang = Duration::from_millis(150);
    let dir = std::env::temp_dir().join(format!("tpde-llvm-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos store dir");

    // Everything transparent is armed unbounded; the two destructive stalls
    // are limited so the run converges.
    let guard = arm(vec![
        FaultRule::new(sites::DISK_READ, FaultAction::Transient).every(4),
        FaultRule::new(sites::DISK_RENAME, FaultAction::Transient).every(3),
        FaultRule::new(
            sites::DISK_FLOCK,
            FaultAction::Delay(Duration::from_micros(500)),
        )
        .every(4),
        FaultRule::new(sites::WORKER_JOB, FaultAction::Delay(2 * hang)).limit(2),
        FaultRule::new(sites::WORKER_WAKEUP, FaultAction::Fail).every(13),
    ]);
    let service = || {
        compile_service(ServiceConfig {
            workers: 3,
            cache_capacity: 2 * mix.len(),
            disk_cache: Some(DiskCacheConfig::new(&dir)),
            queue_capacity: 4 * mix.len(),
            bulk_queue_capacity: 1,
            hang_timeout: Some(hang),
        })
    };

    // Round one is an un-paced burst (the enlarged module and the stalled
    // jobs are still in flight when everything behind it is admitted);
    // round two re-submits the same mix with flipped priorities, paced as
    // an open-loop arrival process.
    let svc = service();
    let mut pending = Vec::new();
    for round in 0..2usize {
        for (i, (_, m)) in mix.iter().enumerate() {
            let bulk = (i + round) % 2 == 1;
            let req = if bulk {
                x64_request(m)
                    .priority(Priority::Bulk)
                    .deadline(Duration::from_millis(25))
                    .client(BULK_CLIENT)
            } else {
                x64_request(m).client(INTERACTIVE_CLIENT)
            };
            pending.push((i, bulk, svc.submit(req)));
            if round > 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    let mut bulk_shed = 0usize;
    let mut interactive_ms: Vec<f64> = Vec::new();
    for (i, bulk, ticket) in pending {
        let name = &mix[i].0;
        // A lost ticket (a worker died without answering) would hang
        // forever; the generous horizon turns that bug into a failure.
        let r = ticket
            .by_ref()
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("lost ticket for {name}"));
        match r.module {
            Ok(m) => {
                assert_identical(&references[i], &m.buf, &format!("{name} (bulk={bulk})"));
                if !bulk {
                    interactive_ms.push(r.timing.total.as_secs_f64() * 1000.0);
                }
            }
            Err(Error::Rejected { .. } | Error::DeadlineExceeded | Error::Timeout(_)) => {
                bulk_shed += usize::from(bulk);
            }
            Err(e) => panic!("unexpected error class for {name}: {e}"),
        }
    }

    interactive_ms.sort_by(f64::total_cmp);
    let p99 = interactive_ms
        .get(((interactive_ms.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    // Generous (it covers the injected stalls plus queue drain) but
    // finite: interactive latency must not absorb the bulk backlog.
    assert!(p99 < 20_000.0, "interactive p99 {p99:.1} ms under faults");
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
    for client in [INTERACTIVE_CLIENT, BULK_CLIENT] {
        assert!(
            s.clients.iter().any(|c| c.client == client.0),
            "per-client stats must track client {}",
            client.0
        );
    }
    drop(svc); // simulated crash-restart: memory cache and workers are gone

    // Restarted process, faults still armed: only transparent rules remain
    // live (the stall budget is spent), so the full mix must now succeed —
    // from disk where the first pass stored artifacts, recompiled where the
    // watchdog discarded the poisoned result — byte for byte.
    let svc = service();
    for ((name, m), want) in mix.iter().zip(&references) {
        let got = svc
            .compile(x64_request(m))
            .module
            .unwrap_or_else(|e| panic!("restart: {name}: {e}"));
        assert_identical(want, &got.buf, &format!("restart {name}"));
    }

    // Disarmed, the same service answers the full mixed-priority mix with
    // no faults in the path: the chaos pass left no sticky damage behind.
    drop(guard);
    for (i, ((name, m), want)) in mix.iter().zip(&references).enumerate() {
        let class = if i % 2 == 1 {
            Priority::Bulk
        } else {
            Priority::Interactive
        };
        let got = svc
            .compile(x64_request(m).priority(class))
            .module
            .unwrap_or_else(|e| panic!("disarmed: {name}: {e}"));
        assert_identical(want, &got.buf, &format!("disarmed {name}"));
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
