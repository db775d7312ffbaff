//! Persistent compile service: pooled multi-request pipelining with a
//! content-addressed module cache.
//!
//! The one-shot entry points ([`crate::codegen::CodeGen::compile_module_with`]
//! and the [`crate::parallel`] driver) pay their setup cost — thread spawn,
//! session warm-up, adapter indexing — on every call. JIT-style workloads
//! instead see a *stream* of mostly small modules arriving continuously, so
//! a [`CompileService`] keeps everything warm across requests:
//!
//! * **Persistent workers.** `workers` threads are spawned once at
//!   construction; each owns a [`CompileSession`] and a backend-defined
//!   warm state ([`ServiceBackend::Worker`], e.g. pre-indexed adapter
//!   tables and an instruction compiler) that survive from request to
//!   request, so a request allocates for its output, not for the
//!   compiler's working memory.
//! * **Pipelining.** Requests are submitted without blocking and answered
//!   through a [`Ticket`]. Every admitted request is one job that one
//!   worker compiles whole; different requests compile concurrently on
//!   different workers. A caller with one large module to spread across
//!   cores uses the [`crate::parallel`] driver instead.
//! * **Module cache.** Responses of cacheable requests are stored under a
//!   content hash of the request ([`ServiceBackend::request_key`]); a
//!   repeated module skips compilation entirely and is answered at
//!   submission with the cached module itself, shared through an `Arc`
//!   (no copy, no channel). The cache is LRU-bounded by
//!   [`ServiceConfig::cache_capacity`].
//! * **Disk tier.** With [`ServiceConfig::disk_cache`] set, in-memory
//!   misses consult a persistent on-disk artifact store
//!   ([`crate::diskcache::DiskCache`]) before compiling: a hit is answered
//!   at submission (like a memory hit) and promoted into the in-memory
//!   cache; compiled responses are written back to disk by the workers, off
//!   the submit path. The store survives process restarts and is shared by
//!   concurrent service processes, so the lookup order is memory LRU → disk
//!   → compile.
//!
//! # Determinism contract
//!
//! For every request, the response buffer is **byte-identical to the
//! one-shot sequential compiler** for that backend: the one compile path
//! runs the sequential driver itself, and cache hits replay a buffer that
//! it produced. Pinned by `crates/llvm/tests/service.rs` for every
//! workload kind × worker count × backend.
//!
//! # Async front-end
//!
//! Submission is asynchronous: a request is admitted (cache lookup,
//! verification, coalescing, shedding), pushed under the mutex of a
//! round-robin fair queue (`fairness::FairQueue`), and one worker is woken
//! through its `front::Parker` state machine — no condvar, no thundering
//! herd. Requests carry a
//! [`ClientId`]; within a priority lane the queue serves clients in turn,
//! one request each, and when a queue capacity is configured a client's
//! share of the backlog (`fairness::Backlog`, kept under the same mutex as
//! the queue) is bounded by `capacity / active_clients`, so one
//! greedy client is shed while others still admit. See [`front`] for the
//! full picture and the ticket completion-state machine.
//!
//! # Resilience front-end
//!
//! Under overload or partial failure the service degrades *explicitly*,
//! never silently — every ticket resolves, every response is either byte
//! identical to the one-shot compiler or an explicit error:
//!
//! * **Admission control.** [`ServiceConfig::queue_capacity`] bounds the
//!   number of admitted-but-unstarted requests; the excess is shed at
//!   submission with [`Error::Rejected`] carrying the observed queue depth.
//!   [`ServiceConfig::bulk_queue_capacity`] gives [`Priority::Bulk`]
//!   traffic a tighter bound so bulk is shed first, and per-client
//!   fair-share bounds (see above) shed a flooding client first.
//! * **Priorities and deadlines.** A [`Request`] carries a priority and an
//!   optional deadline: [`Priority::Interactive`] requests are dequeued
//!   before [`Priority::Bulk`] ones, and a per-request deadline is enforced
//!   at dequeue (an expired request is answered with
//!   [`Error::DeadlineExceeded`] without paying for a compile).
//! * **Coalescing.** While a cacheable request is queued or compiling, an
//!   identical submission (same [`ServiceBackend::request_key`]) attaches
//!   to it instead of compiling twice; the result is fanned out to every
//!   waiter, closing the thundering-herd window the memory/disk caches
//!   leave open.
//! * **Watchdog.** With [`ServiceConfig::hang_timeout`] set, a monitor
//!   thread watches per-worker heartbeats (stamped at job start). A worker
//!   stuck longer than the timeout is condemned: its ticket is poisoned
//!   with [`Error::Timeout`], and its slot gets a fresh thread with fresh
//!   warm state immediately — the stuck thread exits on its own when (if)
//!   the backend returns.
//!
//! The degradation paths are exercised deterministically by the
//! [`crate::faultpoint`] injection layer and the chaos test in
//! `crates/llvm/tests/chaos.rs`.
//!
//! # Shutdown
//!
//! Dropping the service *drains* the queue: no new requests are accepted,
//! but every submitted request — queued or in flight — is compiled and its
//! ticket answered before the worker threads exit.

mod fairness;
pub mod front;

pub use fairness::ClientId;
pub use front::{Request, Ticket, TicketRef};

use crate::codegen::{CompileSession, CompiledModule};
use crate::diskcache::{DiskCache, DiskCacheConfig};
use crate::error::{Error, Result};
use crate::faultpoint;
use crate::hash::KeyMap;
use crate::timing::{ClientStats, RequestTiming, ServiceStats};
use front::{Dispatcher, Submission};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-tolerant lock: a panic on another thread must not cascade into
/// every thread that later touches the same service state — the panic
/// itself is already contained and reported through the ticket.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Configuration of a [`CompileService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of persistent worker threads (at least 1).
    pub workers: usize,
    /// Maximum number of cached modules; 0 disables the cache.
    pub cache_capacity: usize,
    /// Persistent on-disk artifact store consulted between the in-memory
    /// cache and a compile; `None` (the default) disables the disk tier.
    /// If the store cannot be opened the service logs to stderr and runs
    /// without it rather than failing construction.
    pub disk_cache: Option<DiskCacheConfig>,
    /// Admission bound: maximum number of admitted-but-unstarted requests.
    /// A submission over the bound is shed immediately with
    /// [`Error::Rejected`]; 0 (the default) admits everything. Cache hits
    /// and coalesced submissions bypass admission — they never occupy a
    /// worker.
    pub queue_capacity: usize,
    /// Tighter admission bound applied to [`Priority::Bulk`] submissions,
    /// so bulk traffic is shed before interactive traffic suffers;
    /// 0 (the default) falls back to [`ServiceConfig::queue_capacity`].
    pub bulk_queue_capacity: usize,
    /// Hang threshold of the worker watchdog: a worker whose heartbeat is
    /// older than this is condemned, its ticket poisoned with
    /// [`Error::Timeout`] and its slot respawned with fresh warm state.
    /// `None` (the default) disables the watchdog. The heartbeat is stamped
    /// only at job start, so a compile longer than the timeout is
    /// indistinguishable from a hang — pick a bound well above the largest
    /// expected module.
    pub hang_timeout: Option<Duration>,
}

impl ServiceConfig {
    /// A config with `workers` threads and the default cache and admission
    /// settings.
    pub fn with_workers(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            cache_capacity: 128,
            disk_cache: None,
            queue_capacity: 0,
            bulk_queue_capacity: 0,
            hang_timeout: None,
        }
    }
}

/// Scheduling class of a request (see [`Request::priority`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive JIT traffic: dequeued before any bulk work.
    #[default]
    Interactive,
    /// Throughput traffic (warm-up sweeps, prefetching):
    /// dequeued only when no interactive work is waiting and shed first
    /// under load.
    Bulk,
}

/// The IR- and target-specific half of a [`CompileService`].
///
/// A backend receives requests of its own type (typically an `Arc` of a
/// module plus a target/options selector) and compiles each one whole on
/// one worker with [`ServiceBackend::compile_module`].
pub trait ServiceBackend: Send + Sync + 'static {
    /// One compile request (owned, shared across worker threads).
    type Request: Send + Sync + 'static;
    /// Warm per-thread state kept across requests (adapter tables,
    /// instruction compilers, cached target drivers).
    type Worker: Send + 'static;

    /// Creates the warm state of one worker thread.
    fn new_worker(&self) -> Self::Worker;

    /// Content hash of the request — the module cache key. Must cover
    /// everything that influences the output bytes (module content, target,
    /// backend selection, compile options). `None` makes the request
    /// uncacheable.
    fn request_key(&self, req: &Self::Request) -> Option<u64>;

    /// Validates the request's IR before admission. Backends with a
    /// structured IR run [`crate::verify::Verifier`] here; the default
    /// accepts everything (for backends whose requests carry opaque data).
    ///
    /// An `Err` (conventionally [`Error::InvalidIr`]) rejects the request
    /// at admission: the ticket resolves immediately, no worker sees the
    /// request, and [`ServiceStats::rejected_invalid`] is incremented —
    /// malformed input is answered as an error, never absorbed by per-job
    /// panic containment.
    fn verify(&self, req: &Self::Request) -> Result<()> {
        let _ = req;
        Ok(())
    }

    /// Compiles the whole module on one worker — must be byte-identical to
    /// the backend's one-shot sequential entry point (the usual
    /// implementation simply calls it with the warm session).
    fn compile_module(
        &self,
        req: &Self::Request,
        worker: &mut Self::Worker,
        session: &mut CompileSession,
    ) -> Result<CompiledModule>;
}

/// A service response: the compile result plus its request-level timing.
#[derive(Debug)]
pub struct ServiceResponse {
    /// The compiled module, or the compile error. The module is shared, not
    /// copied: every response to the same cached compile (hits, coalesced
    /// waiters, the leader itself) holds the same `Arc`. Its `timings` are
    /// those of the compile that produced it, and empty for a module loaded
    /// from the disk tier.
    pub module: Result<Arc<CompiledModule>>,
    /// Request-level timing, and where the answer came from.
    pub timing: RequestTiming,
}

/// LRU module cache keyed by request content hash.
///
/// Entries hold the module behind an `Arc`, so a lookup under the cache
/// lock is a map probe plus a reference-count increment, and the hit hands
/// that same `Arc` to its response — nothing is copied, inside the lock or
/// out.
struct ModuleCache {
    capacity: usize,
    map: KeyMap<CacheEntry>,
    tick: AtomicU64,
    evictions: u64,
}

struct CacheEntry {
    module: Arc<CompiledModule>,
    last_use: AtomicU64,
}

impl ModuleCache {
    fn new(capacity: usize) -> ModuleCache {
        ModuleCache {
            capacity,
            map: KeyMap::default(),
            tick: AtomicU64::new(0),
            evictions: 0,
        }
    }

    fn get(&self, key: u64) -> Option<Arc<CompiledModule>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let e = self.map.get(&key)?;
        e.last_use.store(tick, Ordering::Relaxed);
        Some(Arc::clone(&e.module))
    }

    fn insert(&mut self, key: u64, module: &Arc<CompiledModule>) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the least recently used entry.
            if let Some((&victim, _)) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use.load(Ordering::Relaxed))
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            CacheEntry {
                module: Arc::clone(module),
                last_use: AtomicU64::new(tick),
            },
        );
    }
}

/// One admitted request: compiled whole on whichever worker pops it.
struct Job<B: ServiceBackend> {
    req: B::Request,
    key: Option<u64>,
    client: ClientId,
    /// Taken exactly once by whoever answers the ticket — normally the
    /// worker, but the watchdog takes it when it poisons a hung job (the
    /// late result of the condemned worker is then discarded).
    tx: Mutex<Option<Sender<ServiceResponse>>>,
    submitted: Instant,
    /// Deadline in nanoseconds since [`Shared::epoch`]; `u64::MAX` means
    /// none. Atomic because coalescing relaxes it (`fetch_max`) when a
    /// looser identical request attaches.
    deadline_ns: AtomicU64,
}

/// A coalesced submission waiting for an in-flight identical request.
struct Waiter {
    tx: Sender<ServiceResponse>,
    submitted: Instant,
    client: ClientId,
}

/// An in-flight cacheable request: the job itself plus the identical
/// submissions that attached to it instead of compiling again.
struct InflightEntry<B: ServiceBackend> {
    job: Arc<Job<B>>,
    waiters: Vec<Waiter>,
}

/// Monotone service counters (snapshot via [`CompileService::stats`]).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_stores: AtomicU64,
    batched: AtomicU64,
    /// Requests submitted but not yet answered (cache hits pass through
    /// briefly). Its high-water mark is the queue-depth statistic.
    inflight: AtomicU64,
    max_queue_depth: AtomicU64,
    rejected: AtomicU64,
    /// Requests whose IR failed [`ServiceBackend::verify`] at admission
    /// (answered `Error::InvalidIr` without touching a worker).
    rejected_invalid: AtomicU64,
    /// Worker panics contained by `catch_compile` on verified input — i.e.
    /// genuine backend bugs, now that bad input is rejected at admission.
    panics_backend: AtomicU64,
    deadline_expired: AtomicU64,
    coalesced: AtomicU64,
    watchdog_timeouts: AtomicU64,
    workers_respawned: AtomicU64,
}

/// Per-client accounting behind a short-lived mutex, updated once per
/// answered request: by the worker for a compile, and by the submitting
/// thread for an answer known at submission (hits and sheds included).
#[derive(Default)]
struct ClientRecord {
    completed: u64,
    shed: u64,
}

/// The watchdog's view of one worker: who owns the slot (generation), when
/// it last made progress (heartbeat) and what it is running (active job).
struct WorkerSlot<B: ServiceBackend> {
    /// Bumped by the watchdog when it condemns the worker. The condemned
    /// thread notices the mismatch after its (late) job, discards its
    /// result and exits; only the thread whose generation matches may
    /// touch the slot.
    generation: AtomicU64,
    /// Nanoseconds since [`Shared::epoch`] of the job start; 0 when idle.
    heartbeat_ns: AtomicU64,
    /// The job the current worker is executing, published for the
    /// watchdog to poison.
    active: Mutex<Option<Arc<Job<B>>>>,
    /// Join handle of the thread currently owning this slot.
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl<B: ServiceBackend> WorkerSlot<B> {
    fn new() -> WorkerSlot<B> {
        WorkerSlot {
            generation: AtomicU64::new(0),
            heartbeat_ns: AtomicU64::new(0),
            active: Mutex::new(None),
            handle: Mutex::new(None),
        }
    }

    /// Stamps a heartbeat, unless this worker has been condemned (a stale
    /// thread must not overwrite its replacement's state).
    fn beat(&self, generation: u64, now_ns: u64) {
        if self.generation.load(Ordering::Relaxed) == generation {
            self.heartbeat_ns.store(now_ns.max(1), Ordering::Relaxed);
        }
    }
}

struct Shared<B: ServiceBackend> {
    backend: B,
    cfg: ServiceConfig,
    /// The async front-end: the fair queue behind a mutex, with per-worker
    /// parker wakeups.
    dispatch: Dispatcher<Arc<Job<B>>>,
    /// Queued-or-compiling cacheable jobs by request key — the coalescing
    /// rendezvous. Attach (submit) and remove (completion) both run under
    /// this mutex, so they cannot race; lock order is inflight → cache and
    /// inflight → dispatcher, never reversed.
    inflight: Mutex<KeyMap<InflightEntry<B>>>,
    /// Completion-side per-client statistics.
    client_stats: Mutex<HashMap<u64, ClientRecord>>,
    cache: Mutex<ModuleCache>,
    /// Disk tier of the cache, if configured and openable.
    disk: Option<DiskCache>,
    counters: Counters,
    /// Time base of deadlines and heartbeats (created before any submit,
    /// so every instant in the service's life is at or after it).
    epoch: Instant,
    /// One slot per worker thread, indexed by worker id.
    slots: Vec<WorkerSlot<B>>,
    /// Stops the watchdog thread at drop.
    shutdown: AtomicBool,
}

impl<B: ServiceBackend> Shared<B> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Encodes an optional deadline as nanoseconds since the epoch
    /// (`u64::MAX` = none).
    fn deadline_ns_from(&self, submitted: Instant, deadline: Option<Duration>) -> u64 {
        match deadline {
            None => u64::MAX,
            Some(d) => (submitted + d)
                .saturating_duration_since(self.epoch)
                .as_nanos() as u64,
        }
    }

    fn deadline_passed(&self, deadline_ns: &AtomicU64) -> bool {
        let d = deadline_ns.load(Ordering::Relaxed);
        d != u64::MAX && self.now_ns() > d
    }

    /// Answers a request at submission: the ticket is resolved inline,
    /// without a channel.
    fn resolve(
        &self,
        module: Result<Arc<CompiledModule>>,
        timing: RequestTiming,
        client: ClientId,
    ) -> Ticket {
        let response = ServiceResponse { module, timing };
        self.account(&response, client);
        Ticket::resolved(response)
    }

    /// Answers a queued or coalesced request through its channel.
    fn finish_request(
        &self,
        tx: &Sender<ServiceResponse>,
        response: ServiceResponse,
        client: ClientId,
    ) {
        self.account(&response, client);
        // The submitter may have dropped its ticket; that is not an error.
        let _ = tx.send(response);
    }

    /// Completion accounting shared by every answered request.
    fn account(&self, response: &ServiceResponse, client: ClientId) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        let mut clients = lock(&self.client_stats);
        let rec = clients.entry(client.0).or_default();
        if response.module.is_ok() {
            rec.completed += 1;
        } else {
            rec.shed += 1;
        }
    }

    /// Answers the ticket of a queued job and fans the result out to every
    /// coalesced waiter, each holding the leader's `Arc`. `timing`
    /// describes the leader; waiters get their own submission-to-now
    /// latency and the `coalesced` flag.
    fn complete(
        &self,
        key: Option<u64>,
        tx: Sender<ServiceResponse>,
        result: Result<Arc<CompiledModule>>,
        timing: RequestTiming,
        client: ClientId,
    ) {
        let waiters = match key {
            Some(k) => lock(&self.inflight)
                .remove(&k)
                .map(|e| e.waiters)
                .unwrap_or_default(),
            None => Vec::new(),
        };
        for w in waiters {
            self.finish_request(
                &w.tx,
                ServiceResponse {
                    module: result.clone(),
                    timing: RequestTiming {
                        queued: timing.queued,
                        total: w.submitted.elapsed(),
                        coalesced: true,
                        ..RequestTiming::default()
                    },
                },
                w.client,
            );
        }
        self.finish_request(
            &tx,
            ServiceResponse {
                module: result,
                timing,
            },
            client,
        );
    }

    /// Wraps a compile result in the one `Arc` that the cache, the disk
    /// tier and every response to this compile share, and stores it.
    fn cache_store(
        &self,
        key: Option<u64>,
        result: Result<CompiledModule>,
    ) -> Result<Arc<CompiledModule>> {
        let module = Arc::new(result?);
        if let Some(k) = key {
            self.cache.lock().unwrap().insert(k, &module);
            // Persist to the disk tier. This runs on the worker thread that
            // compiled the module, so artifact I/O stays off the submit
            // path. Store failures degrade to a smaller cache, never to a
            // wrong answer.
            if let Some(disk) = &self.disk {
                match disk.store(k, &module) {
                    Ok(true) => {
                        self.counters.disk_stores.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) => {}
                    Err(e) => eprintln!("tpde: disk cache store failed: {e}"),
                }
            }
        }
        Ok(module)
    }
}

/// A long-lived compile service; see the module docs.
pub struct CompileService<B: ServiceBackend> {
    shared: Arc<Shared<B>>,
    watchdog: Option<JoinHandle<()>>,
}

impl<B: ServiceBackend> CompileService<B> {
    /// Spawns the worker threads (and the watchdog, if configured) and
    /// returns the running service.
    pub fn new(backend: B, cfg: ServiceConfig) -> CompileService<B> {
        let workers = cfg.workers.max(1);
        let cfg = ServiceConfig { workers, ..cfg };
        let disk = cfg
            .disk_cache
            .clone()
            .and_then(|dc| match DiskCache::open(dc) {
                Ok(d) => Some(d),
                Err(e) => {
                    eprintln!("tpde: disk cache disabled (open failed): {e}");
                    None
                }
            });
        let hang_timeout = cfg.hang_timeout;
        let shared = Arc::new(Shared {
            cache: Mutex::new(ModuleCache::new(cfg.cache_capacity)),
            disk,
            backend,
            dispatch: Dispatcher::new(workers),
            cfg,
            inflight: Mutex::new(KeyMap::default()),
            client_stats: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            epoch: Instant::now(),
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            shutdown: AtomicBool::new(false),
        });
        for i in 0..workers {
            *lock(&shared.slots[i].handle) = Some(spawn_worker(&shared, i, 0));
        }
        let watchdog = hang_timeout.map(|hang| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tpde-svc-watchdog".into())
                .spawn(move || watchdog_main(&shared, hang))
                .expect("spawn compile service watchdog")
        });
        CompileService { shared, watchdog }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// Submits a request and returns immediately with a [`Ticket`].
    ///
    /// [`Request::new`] defaults to [`Priority::Interactive`], no deadline
    /// and the anonymous client; use the builder methods to override.
    /// Answers known at submission — memory and disk hits, sheds, invalid
    /// IR — come back in a ticket that is already resolved; misses go
    /// through fair-share admission and the scheduler queue to the worker
    /// pool.
    pub fn submit(&self, req: Request<B>) -> Ticket {
        let Request {
            payload: req,
            priority,
            deadline,
            client,
        } = req;
        let submitted = Instant::now();
        let shared = &self.shared;
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let inflight = shared.counters.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        shared
            .counters
            .max_queue_depth
            .fetch_max(inflight, Ordering::Relaxed);
        let key = shared.backend.request_key(&req);
        // A memory hit shares the cached module and resolves the ticket
        // inline: no copy, no channel.
        let hit = |module| {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            let timing = RequestTiming {
                total: submitted.elapsed(),
                cache_hit: true,
                ..RequestTiming::default()
            };
            shared.resolve(Ok(module), timing, client)
        };
        // Other answers known at submission (sheds, invalid IR, a closed
        // service) resolve inline too.
        let reject = |e| {
            let timing = RequestTiming {
                total: submitted.elapsed(),
                ..RequestTiming::default()
            };
            shared.resolve(Err(e), timing, client)
        };

        if let Some(k) = key {
            let cached = shared.cache.lock().unwrap().get(k);
            if let Some(module) = cached {
                return hit(module);
            }
            shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed);

            // Memory miss: consult the disk tier before compiling. Like a
            // memory hit, a disk hit is answered at submission; the loaded
            // module is also promoted into the in-memory cache so repeats
            // in this process stay RAM-fast.
            if let Some(disk) = &shared.disk {
                if let Some(module) = disk.load(k) {
                    shared.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                    let module = Arc::new(module);
                    shared.cache.lock().unwrap().insert(k, &module);
                    let timing = RequestTiming {
                        total: submitted.elapsed(),
                        disk_hit: true,
                        ..RequestTiming::default()
                    };
                    return shared.resolve(Ok(module), timing, client);
                }
                shared.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Verify before admission: malformed IR is a caller error, answered
        // immediately with the typed reason. It must never reach a worker —
        // the back-ends assume the IrAdapter contract unchecked, so letting
        // bad input through would surface as a contained panic (and a
        // condemned worker) instead of an actionable `InvalidIr`.
        if let Err(e) = shared.backend.verify(&req) {
            shared
                .counters
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            return reject(e);
        }

        let deadline_ns = shared.deadline_ns_from(submitted, deadline);
        if shared.dispatch.is_closed() {
            return reject(Error::Emit("compile service is shutting down".into()));
        }

        // Coalescing, the late cache re-check and admission all run under
        // the inflight lock: the map is the rendezvous, and holding its
        // lock across the whole decision means two identical submissions
        // cannot both miss the map and both insert.
        let mut inflight = lock(&shared.inflight);

        // Coalesce: an identical cacheable request is already queued or
        // compiling — attach to it instead of compiling twice. Attaching
        // costs no worker time, so it bypasses admission control, and it
        // can only *relax* the leader's deadline.
        if let Some(k) = key {
            if let Some(entry) = inflight.get_mut(&k) {
                entry
                    .job
                    .deadline_ns
                    .fetch_max(deadline_ns, Ordering::Relaxed);
                let (tx, rx) = channel();
                entry.waiters.push(Waiter {
                    tx,
                    submitted,
                    client,
                });
                shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                return Ticket::pending(rx);
            }
            // An identical in-flight compile may have finished between the
            // cache lookup above and taking the inflight lock (verification
            // runs in that window). Successful compiles store into the
            // cache *before* leaving the inflight map, so re-checking the
            // cache here closes the race: a just-finished compile is
            // served as a hit rather than re-admitted as a second compile.
            let late_hit = shared.cache.lock().unwrap().get(k);
            if let Some(module) = late_hit {
                drop(inflight);
                return hit(module);
            }
        }

        let (tx, rx) = channel();
        let job = Arc::new(Job {
            req,
            key,
            client,
            tx: Mutex::new(Some(tx)),
            submitted,
            deadline_ns: AtomicU64::new(deadline_ns),
        });

        // Admission control: bound the backlog of unstarted requests and
        // shed the excess explicitly — a rejected ticket resolves
        // immediately with the observed depth, it never hangs. The bound
        // is fair-share: each client with a backlog owns an equal slice of
        // the capacity, so one greedy client exhausts its own slice while
        // everyone else still gets in. With a single active client the
        // slice is the whole capacity — identical to the old global bound.
        let limit = match priority {
            Priority::Bulk if shared.cfg.bulk_queue_capacity > 0 => shared.cfg.bulk_queue_capacity,
            _ => shared.cfg.queue_capacity,
        } as u64;
        let sub = Submission {
            item: Arc::clone(&job),
            class: priority,
            client,
        };
        if let Err(depth) = shared.dispatch.admit(sub, limit) {
            drop(inflight);
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return reject(Error::Rejected { queue_depth: depth });
        }
        shared.counters.batched.fetch_add(1, Ordering::Relaxed);

        // The job is already queued; a worker that finishes it before this
        // insert waits on the inflight lock to remove the entry.
        if let Some(k) = key {
            inflight.insert(
                k,
                InflightEntry {
                    job,
                    waiters: Vec::new(),
                },
            );
        }
        drop(inflight);
        shared.dispatch.wake();
        Ticket::pending(rx)
    }

    /// Submits a request and blocks until its response is ready.
    pub fn compile(&self, req: Request<B>) -> ServiceResponse {
        self.submit(req).wait()
    }

    /// Snapshot of the request-level statistics.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let (evictions, cached_modules) = {
            let cache = self.shared.cache.lock().unwrap();
            (cache.evictions, cache.map.len() as u64)
        };
        let clients = {
            let map = lock(&self.shared.client_stats);
            let mut v: Vec<ClientStats> = map
                .iter()
                .map(|(&client, rec)| ClientStats {
                    client,
                    completed: rec.completed,
                    shed: rec.shed,
                })
                .collect();
            v.sort_by_key(|c| c.client);
            v
        };
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            disk_misses: c.disk_misses.load(Ordering::Relaxed),
            disk_stores: c.disk_stores.load(Ordering::Relaxed),
            batched: c.batched.load(Ordering::Relaxed),
            evictions,
            cached_modules,
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            rejected_invalid: c.rejected_invalid.load(Ordering::Relaxed),
            panics_backend: c.panics_backend.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            watchdog_timeouts: c.watchdog_timeouts.load(Ordering::Relaxed),
            workers_respawned: c.workers_respawned.load(Ordering::Relaxed),
            ring_fallbacks: 0,
            clients,
            disk_retries: self
                .shared
                .disk
                .as_ref()
                .map(|d| d.io_retries())
                .unwrap_or(0),
        }
    }
}

impl<B: ServiceBackend> Drop for CompileService<B> {
    /// Drains the queue: already-submitted requests (queued or in flight)
    /// are compiled and answered before the worker threads exit.
    ///
    /// Shutdown closes the dispatcher: workers keep consuming until the
    /// fairness scheduler is empty, so a submission racing with drop is
    /// either answered by a worker or swept below — never silently lost.
    fn drop(&mut self) {
        self.shared.dispatch.close();
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Join the watchdog first so it cannot condemn (and replace) a
        // worker while we are collecting the slot handles below.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        for slot in &self.shared.slots {
            // A condemned thread's handle was already replaced (the thread
            // runs detached until its stuck job returns); we join only the
            // current owner of each slot. A worker that panicked already
            // poisoned its job's ticket; don't double-panic during drop.
            let handle = lock(&slot.handle).take();
            if let Some(t) = handle {
                let _ = t.join();
            }
        }
        // Backstop sweep: with every worker joined, anything still in the
        // scheduler (a submission that raced past the last worker's exit)
        // is answered with the shutdown error rather than
        // left to hang its ticket.
        for job in self.shared.dispatch.drain_remaining() {
            let Some(tx) = lock(&job.tx).take() else {
                continue;
            };
            self.shared.complete(
                job.key,
                tx,
                Err(Error::Emit(
                    "compile service shut down before answering".into(),
                )),
                RequestTiming {
                    total: job.submitted.elapsed(),
                    ..RequestTiming::default()
                },
                job.client,
            );
        }
    }
}

/// Runs a backend callback, converting a panic into [`Error::Emit`] so one
/// bad module cannot kill a persistent worker thread. The second return
/// value reports whether a panic was caught — the caller then discards its
/// warm state, which the unwound backend may have left inconsistent.
fn catch_compile<R>(what: &str, f: impl FnOnce() -> Result<R>) -> (Result<R>, bool) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => (r, false),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            (Err(Error::Emit(format!("{what} panicked: {msg}"))), true)
        }
    }
}

fn spawn_worker<B: ServiceBackend>(
    shared: &Arc<Shared<B>>,
    slot: usize,
    generation: u64,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("tpde-svc-{slot}-g{generation}"))
        .spawn(move || worker_main(&shared, slot, generation))
        .expect("spawn compile service worker")
}

fn worker_main<B: ServiceBackend>(shared: &Arc<Shared<B>>, slot_idx: usize, generation: u64) {
    let slot = &shared.slots[slot_idx];
    let mut session = CompileSession::new();
    let mut worker = shared.backend.new_worker();
    shared.dispatch.register(slot_idx);
    loop {
        let Some(job) = shared.dispatch.next(slot_idx) else {
            return;
        };
        // Publish the job and stamp a heartbeat before starting; the
        // watchdog condemns this slot if the heartbeat goes stale.
        *lock(&slot.active) = Some(job.clone());
        slot.beat(generation, shared.now_ns());
        // Codegen is gated on verified-only input: every admitted request
        // already passed `ServiceBackend::verify`, so a failure here means
        // the admission gate has a hole (or the request mutated). Checked
        // in debug builds only, like the faultpoint assertions.
        debug_assert!(
            shared.backend.verify(&job.req).is_ok(),
            "unverified request reached a service worker"
        );
        let poisoned = run_job(shared, &job, &mut worker, &mut session);
        // Withdraw from the watchdog's view — unless this worker has been
        // condemned meanwhile, in which case the slot (and its active/
        // heartbeat state) belongs to the replacement thread now.
        let condemned = {
            let mut active = lock(&slot.active);
            if slot.generation.load(Ordering::Relaxed) == generation {
                slot.heartbeat_ns.store(0, Ordering::Relaxed);
                *active = None;
                false
            } else {
                true
            }
        };
        if condemned {
            return;
        }
        if poisoned {
            // A caught panic may have left the warm state half-updated;
            // start this worker over with fresh scratch. The thread — and
            // with it the pool's capacity — survives.
            session = CompileSession::new();
            worker = shared.backend.new_worker();
        }
    }
}

fn run_job<B: ServiceBackend>(
    shared: &Shared<B>,
    job: &Job<B>,
    worker: &mut B::Worker,
    session: &mut CompileSession,
) -> bool {
    let started = Instant::now();
    // Deadline enforcement at dequeue: an expired request is answered
    // without paying for the compile.
    if shared.deadline_passed(&job.deadline_ns) {
        shared
            .counters
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = lock(&job.tx).take() {
            shared.complete(
                job.key,
                tx,
                Err(Error::DeadlineExceeded),
                RequestTiming {
                    queued: started - job.submitted,
                    total: job.submitted.elapsed(),
                    ..RequestTiming::default()
                },
                job.client,
            );
        }
        return false;
    }
    let (result, poisoned) = catch_compile("compile_module", || {
        if faultpoint::trip(faultpoint::sites::WORKER_JOB, 0).is_some() {
            return Err(Error::Emit("injected worker fault".into()));
        }
        shared.backend.compile_module(&job.req, worker, session)
    });
    if poisoned {
        // A contained panic on *verified* input is a genuine backend bug —
        // counted separately from invalid-IR rejections, which never reach
        // a worker. Counted before the ticket is answered so a caller that
        // waits and then snapshots stats observes it.
        shared
            .counters
            .panics_backend
            .fetch_add(1, Ordering::Relaxed);
    }
    // Whoever takes the sender answers the ticket; the watchdog takes it
    // when it poisons a hung job, and the condemned worker's late result
    // is then discarded (its warm state is suspect — don't even cache it).
    let Some(tx) = lock(&job.tx).take() else {
        return poisoned;
    };
    let result = shared.cache_store(job.key, result);
    shared.complete(
        job.key,
        tx,
        result,
        RequestTiming {
            queued: started - job.submitted,
            total: job.submitted.elapsed(),
            ..RequestTiming::default()
        },
        job.client,
    );
    poisoned
}

/// The watchdog loop: scans the worker slots and condemns any worker whose
/// heartbeat is older than `hang`. Condemnation poisons the stuck job's
/// ticket with [`Error::Timeout`] (fanning the error out to coalesced
/// waiters), bumps the slot generation so the stuck thread retires itself
/// when it eventually returns, and spawns a replacement with fresh warm
/// state so pool capacity recovers immediately.
fn watchdog_main<B: ServiceBackend>(shared: &Arc<Shared<B>>, hang: Duration) {
    let hang_ns = hang.as_nanos() as u64;
    let poll = (hang / 4).clamp(Duration::from_millis(1), Duration::from_millis(10));
    while !shared.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(poll);
        let now = shared.now_ns();
        for (i, slot) in shared.slots.iter().enumerate() {
            let beat = slot.heartbeat_ns.load(Ordering::Relaxed);
            if beat == 0 || now.saturating_sub(beat) < hang_ns {
                continue;
            }
            let mut active = lock(&slot.active);
            // Re-check under the lock: the worker may have finished (or
            // made progress) between the scan and the lock.
            let beat = slot.heartbeat_ns.load(Ordering::Relaxed);
            if beat == 0 || shared.now_ns().saturating_sub(beat) < hang_ns {
                continue;
            }
            let Some(job) = active.take() else { continue };
            slot.generation.fetch_add(1, Ordering::Relaxed);
            let generation = slot.generation.load(Ordering::Relaxed);
            slot.heartbeat_ns.store(0, Ordering::Relaxed);
            shared
                .counters
                .watchdog_timeouts
                .fetch_add(1, Ordering::Relaxed);
            // Respawn (and count) before answering the ticket, so a caller
            // unblocked by the poisoned response already sees the slot's
            // replacement in the stats.
            *lock(&slot.handle) = Some(spawn_worker(shared, i, generation));
            shared
                .counters
                .workers_respawned
                .fetch_add(1, Ordering::Relaxed);
            poison_job(shared, &job, hang);
            drop(active);
        }
    }
}

/// Answers the ticket of a hung job with a timeout error (the condemned
/// worker's late result, if any, is discarded because the sender is gone).
fn poison_job<B: ServiceBackend>(shared: &Shared<B>, job: &Job<B>, hang: Duration) {
    if let Some(tx) = lock(&job.tx).take() {
        shared.complete(
            job.key,
            tx,
            Err(Error::Timeout(format!(
                "worker hung past the {hang:?} watchdog timeout"
            ))),
            RequestTiming {
                total: job.submitted.elapsed(),
                ..RequestTiming::default()
            },
            job.client,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebuf::{CodeBuffer, SectionKind, SymbolBinding, SymbolId};
    use crate::codegen::CompileStats;
    use crate::hash::StableHasher;
    use crate::timing::PassTimings;
    use std::hash::{Hash, Hasher};
    use std::time::Duration;

    /// A toy backend: a "module" is a list of byte-sized functions; function
    /// `i` emits `data[i]` followed by its index.
    struct ByteBackend;

    struct ByteModule {
        data: Vec<u8>,
        /// Forced compile error for function index, for error-path tests.
        fail_at: Option<u32>,
        /// Forced panic for function index, for worker-survival tests.
        panic_at: Option<u32>,
        /// Sleep per compiled function — makes compiles slow enough for the
        /// admission/deadline/watchdog tests to observe them in flight.
        delay: Duration,
    }

    impl ByteModule {
        fn new(data: Vec<u8>) -> Arc<ByteModule> {
            ByteModule::slow(data, Duration::ZERO)
        }

        fn slow(data: Vec<u8>, delay: Duration) -> Arc<ByteModule> {
            Arc::new(ByteModule {
                data,
                fail_at: None,
                panic_at: None,
                delay,
            })
        }
    }

    impl ServiceBackend for ByteBackend {
        type Request = Arc<ByteModule>;
        type Worker = ();

        fn new_worker(&self) {}

        fn request_key(&self, req: &Arc<ByteModule>) -> Option<u64> {
            let mut h = StableHasher::new();
            req.data.hash(&mut h);
            req.fail_at.hash(&mut h);
            req.panic_at.hash(&mut h);
            Some(h.finish())
        }

        /// Toy IR verifier: byte `0xFF` is the one malformed "function".
        fn verify(&self, req: &Arc<ByteModule>) -> Result<()> {
            match req.data.iter().position(|&b| b == 0xFF) {
                Some(i) => Err(Error::InvalidIr(format!("byte 0xFF at f{i}"))),
                None => Ok(()),
            }
        }

        fn compile_module(
            &self,
            req: &Arc<ByteModule>,
            _worker: &mut (),
            _session: &mut CompileSession,
        ) -> Result<CompiledModule> {
            let mut buf = CodeBuffer::new();
            for i in 0..req.data.len() {
                buf.declare_symbol(&format!("f{i}"), SymbolBinding::Global, true);
            }
            let mut stats = CompileStats::default();
            for (f, &byte) in (0u32..).zip(&req.data) {
                if req.fail_at == Some(f) {
                    return Err(Error::Unsupported(format!("f{f}")));
                }
                if req.panic_at == Some(f) {
                    panic!("synthetic backend panic at f{f}");
                }
                if !req.delay.is_zero() {
                    std::thread::sleep(req.delay);
                }
                let start = buf.text_offset();
                buf.emit_u8(byte);
                buf.emit_u8(f as u8);
                buf.define_symbol(SymbolId(f), SectionKind::Text, start, 2);
                stats.funcs += 1;
            }
            Ok(CompiledModule {
                buf,
                stats,
                timings: PassTimings::new(),
            })
        }
    }

    fn service(workers: usize, cache: usize) -> CompileService<ByteBackend> {
        CompileService::new(
            ByteBackend,
            ServiceConfig {
                workers,
                cache_capacity: cache,
                ..ServiceConfig::default()
            },
        )
    }

    /// A fresh, empty temp directory unique to `tag` (tests run in
    /// parallel within one process).
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tpde-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn disk_service(
        workers: usize,
        cache: usize,
        dir: &std::path::Path,
    ) -> CompileService<ByteBackend> {
        CompileService::new(
            ByteBackend,
            ServiceConfig {
                workers,
                cache_capacity: cache,
                disk_cache: Some(crate::diskcache::DiskCacheConfig::new(dir)),
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn pipelined_requests_all_resolve() {
        let svc = service(3, 0);
        let modules: Vec<_> = (0..12u8)
            .map(|i| ByteModule::new(vec![i; (i as usize % 5) * 10 + 1]))
            .collect();
        let tickets: Vec<_> = modules
            .iter()
            .map(|m| svc.submit(Request::new(Arc::clone(m))))
            .collect();
        for (m, t) in modules.iter().zip(tickets) {
            let got = t.wait().module.unwrap();
            let want = svc.compile(Request::new(Arc::clone(m))); // cache may answer; still identical
            crate::codebuf::assert_identical(
                &want.module.unwrap().buf,
                &got.buf,
                "pipelined response",
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.completed, 24);
    }

    #[test]
    fn cache_hits_are_identical_and_counted() {
        let svc = service(2, 8);
        let module = ByteModule::new(vec![7; 10]);
        let cold = svc.compile(Request::new(Arc::clone(&module)));
        assert!(!cold.timing.cache_hit);
        let warm = svc.compile(Request::new(Arc::clone(&module)));
        assert!(warm.timing.cache_hit);
        crate::codebuf::assert_identical(
            &cold.module.unwrap().buf,
            &warm.module.unwrap().buf,
            "cache hit",
        );
        // A structurally identical but distinct allocation also hits.
        let clone = ByteModule::new(vec![7; 10]);
        assert!(svc.compile(Request::new(clone)).timing.cache_hit);
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let svc = service(1, 2);
        let a = ByteModule::new(vec![1]);
        let b = ByteModule::new(vec![2]);
        let c = ByteModule::new(vec![3]);
        svc.compile(Request::new(Arc::clone(&a)));
        svc.compile(Request::new(Arc::clone(&b)));
        svc.compile(Request::new(Arc::clone(&a))); // refresh a; b is now LRU
        svc.compile(Request::new(Arc::clone(&c))); // evicts b
        assert!(svc.compile(Request::new(Arc::clone(&a))).timing.cache_hit);
        assert!(svc.compile(Request::new(Arc::clone(&c))).timing.cache_hit);
        assert!(!svc.compile(Request::new(Arc::clone(&b))).timing.cache_hit);
        assert!(svc.stats().evictions >= 1);
    }

    #[test]
    fn disk_cache_survives_service_restart() {
        let dir = temp_dir("restart");
        let small = ByteModule::new(vec![3; 8]);
        let large = ByteModule::new((0..40).collect());
        let (small_ref, large_ref) = {
            let svc = disk_service(2, 8, &dir);
            let a = svc
                .compile(Request::new(Arc::clone(&small)))
                .module
                .unwrap();
            let b = svc
                .compile(Request::new(Arc::clone(&large)))
                .module
                .unwrap();
            let stats = svc.stats();
            assert_eq!(stats.disk_hits, 0);
            assert_eq!(stats.disk_misses, 2);
            assert_eq!(stats.disk_stores, 2);
            (a, b)
        }; // drop = simulated process exit; artifacts persist on disk
        let svc = disk_service(2, 8, &dir);
        for (module, reference) in [(&small, &small_ref), (&large, &large_ref)] {
            let r = svc.compile(Request::new(Arc::clone(module)));
            assert!(r.timing.disk_hit, "restart must answer from disk");
            assert!(!r.timing.cache_hit);
            let got = r.module.unwrap();
            got.validate().unwrap();
            crate::codebuf::assert_identical(&reference.buf, &got.buf, "disk restart");
            assert_eq!(reference.stats.funcs, got.stats.funcs);
        }
        let stats = svc.stats();
        assert_eq!(stats.disk_hits, 2);
        assert_eq!(stats.batched, 0, "no compile ran");
        assert!((stats.disk_hit_rate() - 1.0).abs() < 1e-9);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hit_promotes_into_memory_cache() {
        let dir = temp_dir("promote");
        let module = ByteModule::new(vec![9; 6]);
        drop(disk_service(1, 8, &dir).compile(Request::new(Arc::clone(&module))));
        let svc = disk_service(1, 8, &dir);
        assert!(
            svc.compile(Request::new(Arc::clone(&module)))
                .timing
                .disk_hit
        );
        // The disk hit warmed the in-memory cache; the repeat stays in RAM.
        let again = svc.compile(Request::new(Arc::clone(&module)));
        assert!(again.timing.cache_hit && !again.timing.disk_hit);
        assert_eq!(svc.stats().disk_hits, 1);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_two_live_services_share_the_store() {
        let dir = temp_dir("shared");
        let module = ByteModule::new(vec![5; 10]);
        let writer = disk_service(1, 8, &dir);
        let reader = disk_service(1, 8, &dir);
        assert!(
            !writer
                .compile(Request::new(Arc::clone(&module)))
                .timing
                .disk_hit
        );
        // The second service instance (stands in for a second process —
        // same directory, nothing shared in memory) hits the artifact.
        let r = reader.compile(Request::new(Arc::clone(&module)));
        assert!(r.timing.disk_hit);
        r.module.unwrap().validate().unwrap();
        drop(reader);
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_propagate_and_workers_survive() {
        let svc = service(2, 0);
        let bad = Arc::new(ByteModule {
            data: (0..16).collect(),
            fail_at: Some(9),
            panic_at: None,
            delay: Duration::ZERO,
        });
        let r = svc.compile(Request::new(Arc::clone(&bad)));
        assert!(matches!(r.module.unwrap_err(), Error::Unsupported(_)));
        // The pool keeps serving after a failed module.
        let good = ByteModule::new((0..16).collect());
        assert!(svc.compile(Request::new(good)).module.is_ok());
    }

    #[test]
    fn worker_panics_are_contained() {
        // A panicking backend yields an error response, and the same pool
        // keeps serving afterwards.
        let svc = service(2, 0);
        let bad = Arc::new(ByteModule {
            data: (0..16).collect(),
            fail_at: None,
            panic_at: Some(7),
            delay: Duration::ZERO,
        });
        let r = svc.compile(Request::new(Arc::clone(&bad)));
        let err = format!("{}", r.module.unwrap_err());
        assert!(err.contains("panicked"), "unexpected error: {err}");
        let good = ByteModule::new((0..16).collect());
        assert!(
            svc.compile(Request::new(good)).module.is_ok(),
            "pool died after panic"
        );
        // The contained panic is classified as a backend bug, not as
        // invalid input (the request passed verification).
        let stats = svc.stats();
        assert!(stats.panics_backend >= 1, "panic not counted");
        assert_eq!(stats.rejected_invalid, 0);
    }

    #[test]
    fn invalid_ir_is_rejected_at_admission() {
        let svc = service(2, 8);
        let bad = ByteModule::new(vec![1, 0xFF, 3]);
        let r = svc.compile(Request::new(Arc::clone(&bad)));
        match r.module {
            Err(Error::InvalidIr(what)) => assert!(what.contains("f1"), "got: {what}"),
            other => panic!("expected InvalidIr, got {other:?}"),
        }
        // Rejection happened at admission: no worker compiled (or panicked
        // over) the module, no respawn, and the dedicated counter moved.
        let stats = svc.stats();
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.panics_backend, 0);
        assert_eq!(stats.workers_respawned, 0);
        assert_eq!(stats.rejected, 0, "InvalidIr must not count as shed");
        // Invalid modules never enter the cache: resubmission is rejected
        // again rather than served.
        let r2 = svc.compile(Request::new(bad));
        assert!(matches!(r2.module, Err(Error::InvalidIr(_))));
        assert_eq!(svc.stats().rejected_invalid, 2);
        // The pool still serves valid requests.
        assert!(svc
            .compile(Request::new(ByteModule::new(vec![1, 2])))
            .module
            .is_ok());
    }

    #[test]
    fn invalid_ir_ticket_resolves_immediately() {
        // Regression test: an admission-rejected invalid-IR submission must
        // resolve without waiting out a timeout — even while every worker
        // is busy with a slow compile.
        let svc = service(1, 0);
        let slow = svc.submit(Request::new(ByteModule::slow(
            vec![1; 4],
            Duration::from_millis(80),
        )));
        let started = Instant::now();
        let bad = svc.submit(Request::new(ByteModule::new(vec![0xFF])));
        let r = bad
            .by_ref()
            .wait_timeout(Duration::from_secs(10))
            .expect("invalid-IR ticket must already be resolved");
        assert!(matches!(r.module, Err(Error::InvalidIr(_))));
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "rejection waited on the queue: {:?}",
            started.elapsed()
        );
        assert!(slow.wait().module.is_ok());
    }

    #[test]
    fn drop_drains_in_flight_requests() {
        let svc = service(2, 0);
        let modules: Vec<_> = (0..8u8).map(|i| ByteModule::new(vec![i; 30])).collect();
        let tickets: Vec<_> = modules
            .iter()
            .map(|m| svc.submit(Request::new(Arc::clone(m))))
            .collect();
        drop(svc); // must drain, not abandon
        for t in tickets {
            assert!(t.wait().module.is_ok(), "request dropped at teardown");
        }
    }

    // ----------------------------------------------------------------------
    // Resilience front-end: admission, deadlines, coalescing, watchdog
    // ----------------------------------------------------------------------

    fn front_service(cfg: ServiceConfig) -> CompileService<ByteBackend> {
        CompileService::new(ByteBackend, cfg)
    }

    /// Occupies the single worker with a slow module and gives the worker
    /// time to dequeue it, so follow-up submissions sit in the backlog.
    fn occupy_worker(svc: &CompileService<ByteBackend>, delay: Duration) -> Ticket {
        let t = svc.submit(Request::new(ByteModule::slow(vec![0xEE], delay)));
        std::thread::sleep(Duration::from_millis(20));
        t
    }

    #[test]
    fn admission_rejects_over_capacity_with_observed_depth() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let blocker = occupy_worker(&svc, Duration::from_millis(80));
        // Two distinct requests fill the backlog; the third is shed.
        let b = svc.submit(Request::new(ByteModule::new(vec![1])));
        let c = svc.submit(Request::new(ByteModule::new(vec![2])));
        let d = svc.submit(Request::new(ByteModule::new(vec![3])));
        let err = d.wait().module.unwrap_err();
        assert_eq!(err, Error::Rejected { queue_depth: 2 });
        // Admitted requests are unaffected by the shed one.
        assert!(blocker.wait().module.is_ok());
        assert!(b.wait().module.is_ok());
        assert!(c.wait().module.is_ok());
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.deadline_expired, 0);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn bulk_is_shed_before_interactive() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 4,
            bulk_queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let blocker = occupy_worker(&svc, Duration::from_millis(80));
        let b = svc.submit(Request::new(ByteModule::new(vec![1]))); // backlog depth 1
        let c = svc.submit(Request::new(ByteModule::new(vec![2])).priority(Priority::Bulk));
        let d = svc.submit(Request::new(ByteModule::new(vec![3]))); // interactive still fits
        assert!(matches!(
            c.wait().module.unwrap_err(),
            Error::Rejected { .. }
        ));
        assert!(b.wait().module.is_ok());
        assert!(d.wait().module.is_ok());
        assert!(blocker.wait().module.is_ok());
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn interactive_dequeues_before_earlier_bulk() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let blocker = occupy_worker(&svc, Duration::from_millis(80));
        let bulk = svc.submit(
            Request::new(ByteModule::slow(vec![1], Duration::from_millis(30)))
                .priority(Priority::Bulk),
        );
        let inter = svc.submit(Request::new(ByteModule::slow(
            vec![2],
            Duration::from_millis(30),
        )));
        let rb = bulk.wait();
        let ri = inter.wait();
        assert!(blocker.wait().module.is_ok());
        assert!(rb.module.is_ok() && ri.module.is_ok());
        // The later interactive submission ran first: it spent less time
        // queued than the bulk one that was submitted before it.
        assert!(
            ri.timing.queued < rb.timing.queued,
            "interactive queued {:?} !< bulk queued {:?}",
            ri.timing.queued,
            rb.timing.queued
        );
    }

    #[test]
    fn deadline_expired_at_dequeue_is_shed_explicitly() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let blocker = occupy_worker(&svc, Duration::from_millis(80));
        let t =
            svc.submit(Request::new(ByteModule::new(vec![1])).deadline(Duration::from_millis(10)));
        let r = t.wait();
        assert_eq!(r.module.unwrap_err(), Error::DeadlineExceeded);
        assert!(blocker.wait().module.is_ok());
        // The pool still serves fresh requests afterwards.
        assert!(svc
            .compile(Request::new(ByteModule::new(vec![2])))
            .module
            .is_ok());
        let stats = svc.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn identical_inflight_requests_coalesce_onto_one_compile() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        });
        let m = ByteModule::slow(vec![5; 4], Duration::from_millis(20));
        let t1 = svc.submit(Request::new(Arc::clone(&m)));
        let t2 = svc.submit(Request::new(Arc::clone(&m)));
        let t3 = svc.submit(Request::new(Arc::clone(&m)));
        let r1 = t1.wait();
        let r2 = t2.wait();
        let r3 = t3.wait();
        assert!(!r1.timing.coalesced);
        assert!(r2.timing.coalesced && r3.timing.coalesced);
        // Every waiter holds the leader's module itself, not a copy.
        let lead = r1.module.unwrap();
        for r in [r2, r3] {
            assert!(Arc::ptr_eq(&lead, &r.module.unwrap()));
        }
        let stats = svc.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.batched, 1, "exactly one compile ran");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn wait_timeout_times_out_then_delivers() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let t = svc.submit(Request::new(ByteModule::slow(
            vec![1],
            Duration::from_millis(60),
        )));
        assert!(t.by_ref().poll().is_none());
        assert!(t.by_ref().wait_timeout(Duration::from_millis(5)).is_none());
        let r = t
            .by_ref()
            .wait_timeout(Duration::from_secs(30))
            .expect("response after the compile finishes");
        assert!(r.module.is_ok());
        // The consuming wait still works after non-consuming polls: the
        // response was taken above, so a second wait reports shutdown-style
        // closure rather than hanging.
        assert!(t.wait().module.is_err());
    }

    #[test]
    fn tickets_resolved_at_submission_answer_once() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let cached = ByteModule::new(vec![4; 3]);
        assert!(svc
            .compile(Request::new(Arc::clone(&cached)))
            .module
            .is_ok());
        // The worker is busy and one request fills the backlog, so the next
        // distinct submission is shed.
        let blocker = occupy_worker(&svc, Duration::from_millis(200));
        let queued = svc.submit(Request::new(ByteModule::new(vec![1])));
        let is_spent = |r: ServiceResponse| matches!(r.module, Err(Error::Emit(msg)) if msg.contains("shut down"));
        type Check = fn(&ServiceResponse) -> bool;
        let cases: [(&str, Arc<ByteModule>, Check); 3] = [
            ("hit", Arc::clone(&cached), |r| r.timing.cache_hit),
            ("shed", ByteModule::new(vec![2]), |r| {
                matches!(r.module, Err(Error::Rejected { .. }))
            }),
            ("invalid", ByteModule::new(vec![0xFF]), |r| {
                matches!(r.module, Err(Error::InvalidIr(_)))
            }),
        ];
        for (what, m, expected) in cases {
            let t = svc.submit(Request::new(Arc::clone(&m)));
            let r = t.by_ref().poll().expect("resolved at submission");
            assert!(expected(&r), "{what}: {:?}", r.module);
            assert!(is_spent(t.by_ref().poll().unwrap()), "{what}: poll twice");
            assert!(is_spent(t.wait()), "{what}: wait after poll");

            let t = svc.submit(Request::new(m));
            let r = t.by_ref().wait_timeout(Duration::ZERO);
            assert!(r.is_some_and(|r| expected(&r)), "{what}: wait_timeout(0)");
            assert!(is_spent(t.wait()), "{what}: wait after wait_timeout");
        }
        assert!(blocker.wait().module.is_ok());
        drop(queued);
    }

    #[test]
    fn watchdog_poisons_hung_job_and_respawned_worker_serves_on() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            hang_timeout: Some(Duration::from_millis(40)),
            ..ServiceConfig::default()
        });
        // A single-function compile sleeping far past the hang threshold:
        // the heartbeat (stamped once, at job start) goes stale and the
        // watchdog condemns the worker instead of letting the ticket hang.
        let hung = svc.compile(Request::new(ByteModule::slow(
            vec![1],
            Duration::from_millis(250),
        )));
        let err = hung.module.unwrap_err();
        assert!(
            matches!(&err, Error::Timeout(msg) if msg.contains("hung")),
            "unexpected error: {err}"
        );
        let stats = svc.stats();
        assert!(stats.watchdog_timeouts >= 1);
        assert!(stats.workers_respawned >= 1);
        // The respawned worker (fresh warm state) keeps serving, and the
        // condemned thread's late result was discarded, not cached.
        let good = svc.compile(Request::new(ByteModule::new(vec![2; 6])));
        assert!(good.module.is_ok());
        assert!(!good.timing.cache_hit);
    }

    #[test]
    fn watchdog_timeout_fans_out_to_coalesced_waiters() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            hang_timeout: Some(Duration::from_millis(40)),
            ..ServiceConfig::default()
        });
        let m = ByteModule::slow(vec![3], Duration::from_millis(250));
        let t1 = svc.submit(Request::new(Arc::clone(&m)));
        let t2 = svc.submit(Request::new(Arc::clone(&m)));
        for t in [t1, t2] {
            assert!(matches!(t.wait().module.unwrap_err(), Error::Timeout(_)));
        }
        assert_eq!(svc.stats().coalesced, 1);
    }

    #[test]
    fn admission_share_is_split_across_active_clients() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        let a = ClientId(1);
        let b = ClientId(2);
        let blocker = occupy_worker(&svc, Duration::from_millis(120));
        // B enters the backlog first, so when A's submissions arrive there
        // are two active clients and A's fair share is queue_capacity/2 = 2.
        let b1 = svc.submit(Request::new(ByteModule::new(vec![10])).client(b));
        let a1 = svc.submit(Request::new(ByteModule::new(vec![11])).client(a));
        let a2 = svc.submit(Request::new(ByteModule::new(vec![12])).client(a));
        let a3 = svc.submit(Request::new(ByteModule::new(vec![13])).client(a));
        // The global queue (depth 3) still has room, so only the per-client
        // share can explain the rejection.
        let err = a3.wait().module.unwrap_err();
        assert!(matches!(err, Error::Rejected { .. }), "unexpected: {err}");
        // B is under its own share and is still admitted.
        let b2 = svc.submit(Request::new(ByteModule::new(vec![14])).client(b));
        for t in [blocker, b1, a1, a2, b2] {
            assert!(t.wait().module.is_ok());
        }
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        let of = |id: u64| stats.clients.iter().find(|c| c.client == id).unwrap();
        assert_eq!(of(1).completed, 2);
        assert_eq!(of(1).shed, 1);
        assert_eq!(of(2).completed, 2);
        assert_eq!(of(2).shed, 0);
    }

    #[test]
    fn admission_share_holds_after_64_distinct_clients() {
        let svc = front_service(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        // Clients that submitted once and drained must not use up the
        // service's capacity to tell clients apart.
        for id in 100..164u64 {
            let m = ByteModule::new(vec![id as u8]);
            assert!(svc
                .compile(Request::new(m).client(ClientId(id)))
                .module
                .is_ok());
        }
        let a = ClientId(1);
        let b = ClientId(2);
        let blocker = occupy_worker(&svc, Duration::from_millis(120));
        let b1 = svc.submit(Request::new(ByteModule::new(vec![10])).client(b));
        let a1 = svc.submit(Request::new(ByteModule::new(vec![11])).client(a));
        let a2 = svc.submit(Request::new(ByteModule::new(vec![12])).client(a));
        let a3 = svc.submit(Request::new(ByteModule::new(vec![13])).client(a));
        let err = a3.wait().module.unwrap_err();
        assert!(matches!(err, Error::Rejected { .. }), "unexpected: {err}");
        for t in [blocker, b1, a1, a2] {
            assert!(t.wait().module.is_ok());
        }
    }
}
