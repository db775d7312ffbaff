//! The two service workloads: `CompileService` with as many closed-loop
//! clients as workers, over 512 distinct small modules.
//!
//! * `svc-cold` — no cache at all; each client walks its own disjoint share
//!   of the modules, so every request is verified, queued, compiled and
//!   handed back. Modules are small, so the front-end is a large share of
//!   each request.
//! * `svc-warm` — default memory LRU (128) over a disk cache that set-up
//!   pre-populated with all 512 artifacts; Zipf(1.1) draws over the 128 most
//!   popular modules. Warm-up loads that working set from disk, so every
//!   request of the window is answered at submission from memory and the
//!   compiler does nothing: the bypass workload of every codegen
//!   optimisation.
//!
//! ISSUE 11 drew `svc-warm` over all 512 modules plus 5% never-seen ones.
//! Measured, that made a fifth of the requests disk hits of 2–4 ms each
//! (every `diskcache` load rewrites the index and scans the directory), each
//! never-seen compile two `fsync`s, and throughput a measure of the
//! container's file system, which moves by 20% from one minute to the next —
//! wider than any bound a gate can use. The disk tier is therefore exercised
//! where its noise is affordable: in set-up (`setup_s`, pre-population and
//! the working set's disk hits) and in the `diskcache` probes of the traced
//! run. The miss path is `svc-cold`'s.
//!
//! A closed loop sends a client's next request when the previous one has
//! returned, so the numbers measure the program, not a backlog. Every
//! response is compared byte for byte with the one-shot compile of the same
//! module, outside the latency span.

use crate::check::{self, EmuTotals};
use crate::gen::{self, Unit, Zipf};
use crate::harness::{end_to_end_metrics, finish_trace, one_shot, timed_setups, traced_metrics};
use crate::harness::{span_p50_us, Cfg, Outcome, SPAN_CAPACITY};
use crate::probes;
use crate::stats::{median, quantile_sorted, Summary};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tpde_core::codegen::CompiledModule;
use tpde_core::diskcache::{DiskCache, DiskCacheConfig};
use tpde_core::rng::Xoshiro256;
use tpde_core::service::{ClientId, Request, ServiceBackend, ServiceConfig};
use tpde_llvm::backend::LlvmServiceBackend;
use tpde_llvm::fuzz::buffers_equal;
use tpde_llvm::{compile_service, LlvmCompileService, ModuleRequest, ServiceBackendKind};

/// Latency samples a client keeps: a ring of the most recent ones, so that
/// memory stays bounded whatever the request rate.
const RING: usize = 1 << 18;
/// Throughput is the median rate over this many slices of the window.
const SLICES: usize = 100;
/// Requests per client before the window, to warm the workers.
const WARM_UP_REQUESTS: u64 = 256;

/// How a response was produced, from `ServiceResponse::timing`.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    MemoryHit,
    DiskHit,
    Compiled,
    Coalesced,
}

#[derive(Clone, Copy)]
struct Sample {
    latency_ns: u32,
    queued_ns: u32,
    class: Class,
}

/// A directory under `benchmark/out`, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = crate::out_dir().join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Prepared {
    units: Vec<Unit>,
    /// One-shot compiles: what every response must equal.
    refs: Vec<CompiledModule>,
    /// Popularity over the working set of `svc-warm`.
    zipf: Zipf,
    /// The order in which clients walk the modules: the seed's for
    /// `svc-cold`, the working set by popularity for `svc-warm`'s warm-up.
    walk: Vec<usize>,
    // Dropped before the directory its disk tier lives in.
    service: LlvmCompileService,
    _cache_dir: Option<ScratchDir>,
}

/// Everything before the timed window: IR generation, reference one-shot
/// compiles, cache pre-population, service spawn and warm-up.
fn set_up(cfg: &Cfg, warm: bool) -> Prepared {
    let specs = gen::service_specs(cfg.seed, cfg.scale);
    let units = gen::units(&specs);
    let refs: Vec<CompiledModule> = units
        .iter()
        .map(|u| one_shot(u).expect("generated IR compiles"))
        .collect();
    let mut config = ServiceConfig {
        workers: cfg.threads,
        ..ServiceConfig::default()
    };
    let mut cache_dir = None;
    if warm {
        // The artifacts are written by a store handle of their own, which is
        // closed before the service opens the directory, as after a restart.
        let dir = ScratchDir::new("cache");
        let store = DiskCache::open(DiskCacheConfig::new(&dir.0)).expect("cache directory");
        for (u, c) in units.iter().zip(&refs) {
            let key = LlvmServiceBackend
                .request_key(&ModuleRequest::new(Arc::clone(&u.module), u.backend))
                .expect("module requests are cacheable");
            store.store(key, c).expect("artifact store");
        }
        config.disk_cache = Some(DiskCacheConfig::new(&dir.0));
        cache_dir = Some(dir);
    } else {
        config.cache_capacity = 0;
    }
    let n = units.len();
    let working_set = config.cache_capacity.clamp(1, n);
    let prep = Prepared {
        zipf: Zipf::new(working_set, 1.1),
        walk: if warm {
            (0..working_set).map(|rank| gen::popular(rank, n)).collect()
        } else {
            gen::walk_order(n, cfg.seed)
        },
        units,
        refs,
        service: compile_service(config),
        _cache_dir: cache_dir,
    };
    // Warm-up walks, so on `svc-warm` every module of the working set is
    // loaded from disk into the memory cache, whatever the thread count.
    let walk = (prep.walk.len() as u64).max(WARM_UP_REQUESTS);
    drive(cfg, &prep, Draw::Walk, Stop::After(walk), None);
    prep
}

/// How a client picks its next module.
#[derive(Clone, Copy)]
enum Draw {
    /// Its share of `Prepared::walk`, round and round.
    Walk,
    /// A Zipf draw over the working set.
    Popularity,
}

#[derive(Clone, Copy)]
enum Stop {
    At(Duration),
    After(u64),
}

/// What one client saw.
struct ClientLog {
    samples: Vec<Sample>,
    requests: u64,
    failed: u64,
    /// `(requests, IR insts)` answered per slice of the window.
    slices: Vec<(u64, u64)>,
    tracer: Tracer,
}

/// One closed-loop client.
fn client(
    cfg: &Cfg,
    prep: &Prepared,
    draw: Draw,
    stop: Stop,
    trace_from: Option<Instant>,
    id: usize,
) -> ClientLog {
    let n = prep.units.len();
    let mut rng = Xoshiro256::new(cfg.seed ^ ((id as u64 + 1) << 32));
    let mut log = ClientLog {
        samples: Vec::with_capacity(RING),
        requests: 0,
        failed: 0,
        slices: vec![(0, 0); SLICES],
        tracer: match trace_from {
            Some(epoch) => Tracer::new(true, epoch, SPAN_CAPACITY / 2 / cfg.threads),
            None => Tracer::off(),
        },
    };
    let slice_ns = match stop {
        Stop::At(d) => (d.as_nanos() as u64 / SLICES as u64).max(1),
        Stop::After(_) => u64::MAX,
    };
    let start = Instant::now();
    loop {
        match stop {
            Stop::At(d) if start.elapsed() >= d => break,
            Stop::After(k) if log.requests >= k => break,
            _ => {}
        }
        let k = match draw {
            Draw::Popularity => gen::popular(prep.zipf.draw(&mut rng), n),
            Draw::Walk => {
                let walk = &prep.walk;
                walk[(log.requests as usize * cfg.threads + id) % walk.len()]
            }
        };
        let unit = &prep.units[k];
        let request: Request<LlvmServiceBackend> =
            Request::new(ModuleRequest::new(Arc::clone(&unit.module), unit.backend))
                .client(ClientId(id as u64 + 1));

        let op = log.requests as u32;
        let root = log.tracer.begin("request", op);
        let t0 = Instant::now();
        let ticket = log
            .tracer
            .span("submit", op, || prep.service.submit(request));
        let response = log.tracer.span("wait", op, || ticket.wait());
        let latency = t0.elapsed();
        log.tracer.end(root);

        let done_ns = (t0 + latency).duration_since(start).as_nanos() as u64;
        let slice = &mut log.slices[((done_ns / slice_ns) as usize).min(SLICES - 1)];
        slice.0 += 1;
        slice.1 += unit.insts;
        let timing = &response.timing;
        let sample = Sample {
            latency_ns: latency.as_nanos().min(u32::MAX as u128) as u32,
            queued_ns: timing.queued.as_nanos().min(u32::MAX as u128) as u32,
            class: if timing.cache_hit {
                Class::MemoryHit
            } else if timing.disk_hit {
                Class::DiskHit
            } else if timing.coalesced {
                Class::Coalesced
            } else {
                Class::Compiled
            },
        };
        if log.samples.len() < RING {
            log.samples.push(sample);
        } else {
            log.samples[log.requests as usize % RING] = sample;
        }
        log.requests += 1;
        if !response
            .module
            .is_ok_and(|c| buffers_equal(&c.buf, &prep.refs[k].buf))
        {
            log.failed += 1;
        }
    }
    log
}

/// Runs `cfg.threads` clients against the service and returns their logs.
///
/// `trace_from` is the epoch of a traced run; `None` records no spans.
fn drive(
    cfg: &Cfg,
    prep: &Prepared,
    draw: Draw,
    stop: Stop,
    trace_from: Option<Instant>,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(cfg.threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|id| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    client(cfg, prep, draw, stop, trace_from, id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn p50_us(samples: &[Sample], pick: impl Fn(&Sample) -> Option<u32>) -> f64 {
    let mut v: Vec<f64> = samples
        .iter()
        .filter_map(|s| pick(s).map(|ns| ns as f64 / 1e3))
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let warm = cfg.workload == "svc-warm";
    let (prep, setup_s) = timed_setups(|| set_up(cfg, warm));
    let before = prep.service.stats();

    // ---- timed window ----------------------------------------------------
    let window = cfg.window();
    let draw = if warm { Draw::Popularity } else { Draw::Walk };
    let epoch = Instant::now();
    let logs = drive(
        cfg,
        &prep,
        draw,
        Stop::At(window),
        cfg.trace.then_some(epoch),
    );
    let peak_rss_mb = check::peak_rss_mb();
    let after = prep.service.stats();

    let slice_secs = window.as_secs_f64() / SLICES as f64;
    let slice_rate = |pick: fn(&(u64, u64)) -> u64| {
        let mut rates: Vec<f64> = (0..SLICES)
            .map(|i| logs.iter().map(|l| pick(&l.slices[i])).sum::<u64>() as f64 / slice_secs)
            .collect();
        median(&mut rates)
    };
    let req_per_s = slice_rate(|s| s.0);
    let minsts_per_s = slice_rate(|s| s.1) / 1e6;
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let mut latencies_us: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e3).collect();
    let latency = Summary::of(&mut latencies_us);
    let requests: u64 = logs.iter().map(|l| l.requests).sum();
    let (mut attempted, mut failed) = (requests, logs.iter().map(|l| l.failed).sum::<u64>());

    // ---- checks ----------------------------------------------------------
    // Responses equal the references byte for byte, so executing the
    // references executes what the service answered.
    let emu_start = Instant::now();
    let mut emu = EmuTotals::default();
    let mut unexecuted = 0;
    for (unit, reference) in prep.units.iter().zip(&prep.refs) {
        if unit.backend == ServiceBackendKind::TpdeX64 {
            emu.add(&check::link_and_emulate(&reference.buf, &unit.entries));
        } else {
            unexecuted += 1;
        }
    }
    let emu_secs = emu_start.elapsed().as_secs_f64();
    attempted += emu.calls;
    failed += emu.wrong;

    let completed = (after.completed - before.completed) as f64;
    let mem_hits = (after.cache_hits - before.cache_hits) as f64;
    let disk_hits = (after.disk_hits - before.disk_hits) as f64;
    let mut notes = vec![
        format!(
            "{} modules, {} clients = workers, closed loop, {requests} requests",
            prep.units.len(),
            cfg.threads
        ),
        format!("latency_p50_us: {}", latency.describe("us")),
        format!(
            "answered from memory {mem_hits}, from disk {disk_hits}, of {completed}, \
             each compared with the one-shot compile"
        ),
        emu.describe(),
        format!("known gap: AArch64 code is not executed ({unexecuted} modules byte-checked only)"),
    ];

    // ---- metrics ---------------------------------------------------------
    let (metrics, spans) = if cfg.trace {
        let mut m = traced_metrics(minsts_per_s, latency.p50, &emu, emu_secs);
        let mut tr = Tracer::new(true, epoch, SPAN_CAPACITY);
        for log in logs {
            tr.absorb(log.tracer);
        }
        let hit = |s: &Sample| matches!(s.class, Class::MemoryHit | Class::DiskHit);
        let miss_p50 = p50_us(&samples, |s| {
            (s.class == Class::Compiled).then_some(s.latency_ns)
        });
        m.set("req_per_s", req_per_s);
        m.set("submit_us", span_p50_us(tr.spans(), "submit"));
        m.set("wait_us", span_p50_us(tr.spans(), "wait"));
        m.set(
            "queue_wait_p50_us",
            p50_us(&samples, |s| {
                (s.class == Class::Compiled).then_some(s.queued_ns)
            }),
        );
        m.set("mem_hit_rate", mem_hits / completed);
        m.set("disk_hit_rate", disk_hits / completed);
        m.set(
            "hit_latency_p50_us",
            p50_us(&samples, |s| hit(s).then_some(s.latency_ns)),
        );
        m.set("miss_latency_p50_us", miss_p50);
        m.set("latency_p99_us", quantile_sorted(&latencies_us, 0.99));
        m.set("latency_samples", latency.n as f64);
        m.set(
            "ring_fallbacks",
            (after.ring_fallbacks - before.ring_fallbacks) as f64,
        );
        m.set("coalesced", (after.coalesced - before.coalesced) as f64);
        let shed = |s: &tpde_core::timing::ServiceStats| s.rejected + s.deadline_expired;
        m.set("shed", (shed(&after) - shed(&before)) as f64);
        // The probes run with the service idle, on the same modules, and
        // only for layers on the workload's path: a hit neither verifies
        // nor compiles.
        probes::content_hash(&prep.units, cfg.probe_budget(0.04), &mut tr, &mut m);
        probes::encoders(cfg.probe_budget(0.06), &mut tr, &mut m);
        if warm {
            let dir = ScratchDir::new("probe");
            if let Err(e) = probes::diskcache(&prep.refs, &dir.0, &mut tr, &mut m) {
                notes.push(format!("diskcache probe failed: {e}"));
                failed += 1;
            }
        } else {
            let budget = cfg.probe_budget(0.2);
            probes::compile_path(&prep.units, &prep.refs, budget, &mut tr, &mut m);
            probes::verify(&prep.units, cfg.probe_budget(0.04), &mut tr, &mut m);
            let compile_p50 = span_p50_us(tr.spans(), "compile_warm");
            m.set("service_overhead_us", miss_p50 - compile_p50);
        }
        let spans = finish_trace(tr, &mut m, &mut notes);
        (m, spans)
    } else {
        let m = end_to_end_metrics(
            setup_s,
            minsts_per_s,
            latency.p50,
            peak_rss_mb,
            &prep.units,
            &prep.refs,
            &emu,
        );
        (m, Vec::new())
    };
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}
