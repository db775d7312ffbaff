//! Per-phase compile timing ([`PassTimings`]: the analysis pass versus the
//! single code-generation pass), plus the service-side statistics types
//! ([`ServiceStats`], [`ClientStats`]) and the lock-free `Reservoir`
//! sampler backing them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Compilation phases the framework distinguishes for timing purposes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The framework's analysis pass (loops, layout, liveness).
    Analysis,
    /// The single code-generation pass.
    CodeGen,
}

/// Accumulates wall-clock time per compilation phase.
#[derive(Debug, Default, Clone)]
pub struct PassTimings {
    totals: [Duration; 2],
}

impl PassTimings {
    /// Creates an empty timing accumulator.
    pub fn new() -> PassTimings {
        PassTimings::default()
    }

    /// Adds `dur` to the total of `phase`.
    pub(crate) fn add(&mut self, phase: Phase, dur: Duration) {
        self.totals[phase as usize] += dur;
    }

    /// Runs `f`, attributing its wall-clock time to `phase`.
    pub(crate) fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let r = f();
        self.add(phase, start.elapsed());
        r
    }

    /// Total time recorded for a phase.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase as usize]
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &PassTimings) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            *a += *b;
        }
    }
}

/// Per-request timing of a [`crate::service::CompileService`] response.
#[derive(Clone, Debug, Default)]
pub struct RequestTiming {
    /// Time the request spent queued before a worker picked it up (zero for
    /// cache hits, which are answered at submission).
    pub queued: Duration,
    /// Submission-to-response latency.
    pub total: Duration,
    /// Whether the response was served from the in-memory module cache.
    pub cache_hit: bool,
    /// Whether the response was served from the persistent on-disk artifact
    /// cache (after missing the in-memory cache).
    pub disk_hit: bool,
    /// Whether the module was sharded across the pool (vs. batched onto one
    /// worker).
    pub sharded: bool,
    /// Whether the response was produced by coalescing onto an identical
    /// in-flight request (this request never occupied a worker; it shares
    /// the leader's compile byte for byte).
    pub coalesced: bool,
    /// How many times a sharded bulk compile of this request was paused by
    /// an interactive arrival and requeued before completing (zero for
    /// batched, interactive or never-preempted requests).
    pub preemptions: u32,
}

/// Aggregate request-level statistics of a
/// [`crate::service::CompileService`], snapshotted by
/// [`crate::service::CompileService::stats`].
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests submitted so far.
    pub submitted: u64,
    /// Requests answered so far (compiled or served from cache).
    pub completed: u64,
    /// Requests answered from the in-memory module cache.
    pub cache_hits: u64,
    /// Cacheable requests that missed the in-memory cache (they were then
    /// answered from disk or compiled).
    pub cache_misses: u64,
    /// Requests answered from the persistent on-disk artifact cache
    /// (in-memory misses that loaded, verified and validated an artifact).
    pub disk_hits: u64,
    /// In-memory misses that also missed the disk cache (no artifact, or a
    /// corrupt one that was discarded) and fell through to a compile.
    pub disk_misses: u64,
    /// Modules written to the on-disk artifact cache.
    pub disk_stores: u64,
    /// Median (nearest-rank p50) disk-artifact load latency — read, verify,
    /// validate and materialize. Zero until the first disk hit.
    pub disk_load_p50: Duration,
    /// Nearest-rank p99 disk-artifact load latency.
    pub disk_load_p99: Duration,
    /// Requests compiled by sharding functions across the pool.
    pub sharded: u64,
    /// Requests compiled whole on a single worker.
    pub batched: u64,
    /// Cache entries evicted to respect the configured capacity.
    pub evictions: u64,
    /// Modules currently held by the cache.
    pub cached_modules: u64,
    /// High-water mark of concurrently in-flight requests (submitted but
    /// not yet answered) — one count per request, however many shard jobs
    /// it fanned out into.
    pub max_queue_depth: u64,
    /// Sum of submission-to-response latencies over completed requests.
    pub total_latency: Duration,
    /// Median (nearest-rank p50) submission-to-response latency.
    pub p50_latency: Duration,
    /// Nearest-rank p99 submission-to-response latency.
    pub p99_latency: Duration,
    /// Requests shed at admission because the queue was at capacity.
    pub rejected: u64,
    /// Requests rejected at admission because their IR failed
    /// [`crate::service::ServiceBackend::verify`] — answered
    /// [`crate::error::Error::InvalidIr`] immediately, never compiled.
    /// A caller error, so *not* counted as shed.
    pub rejected_invalid: u64,
    /// Worker panics contained on *verified* input — genuine backend bugs.
    /// With admission verification in place, malformed IR shows up in
    /// [`ServiceStats::rejected_invalid`], never here.
    pub panics_backend: u64,
    /// Requests shed because their deadline expired before (or during)
    /// compilation.
    pub deadline_expired: u64,
    /// Requests answered by coalescing onto an identical in-flight request
    /// instead of compiling again.
    pub coalesced: u64,
    /// Hung jobs whose tickets the watchdog poisoned with a timeout error.
    pub watchdog_timeouts: u64,
    /// Worker threads condemned and respawned by the watchdog.
    pub workers_respawned: u64,
    /// Transient disk cache I/O errors absorbed by retrying (`EINTR`-like;
    /// each retry would previously have been treated as corruption).
    pub disk_retries: u64,
    /// Times a running bulk shard job was cooperatively paused (and
    /// requeued) so an interactive arrival could take its workers.
    pub preemptions: u64,
    /// Always 0: submissions have a single path into the scheduler, so
    /// none ever falls back. Kept so existing readers of the field build.
    pub ring_fallbacks: u64,
    /// Per-client request statistics, one entry per [`crate::service::ClientId`]
    /// observed on a completed (or shed) request, in ascending client-id
    /// order. Tracked at completion time, so a client with only in-flight
    /// requests has no entry yet.
    pub clients: Vec<ClientStats>,
}

/// Per-client aggregate statistics, reported by
/// [`ServiceStats::clients`]. All counters are completion-side: a request
/// is attributed to its client when its ticket resolves.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// The client these counters belong to (raw [`crate::service::ClientId`] value).
    pub client: u64,
    /// Requests answered successfully (compiled, cached or coalesced).
    pub completed: u64,
    /// Requests answered with an error (shed, invalid, failed, timed out).
    pub shed: u64,
    /// Times a bulk shard job from this client was cooperatively paused.
    pub preemptions: u64,
    /// Median submission-to-response latency over this client's recent
    /// completions (sliding window).
    pub p50_latency: Duration,
    /// Nearest-rank p99 submission-to-response latency over this client's
    /// recent completions (sliding window).
    pub p99_latency: Duration,
}

impl ServiceStats {
    /// Disk-cache hit rate over requests that reached the disk tier, i.e.
    /// cacheable in-memory misses on a service with a disk cache configured
    /// (0 when none did).
    pub fn disk_hit_rate(&self) -> f64 {
        let reached = self.disk_hits + self.disk_misses;
        if reached == 0 {
            0.0
        } else {
            self.disk_hits as f64 / reached as f64
        }
    }
}

/// A fixed-size lock-free reservoir sampler over `u64` observations.
///
/// The first `capacity` observations are stored verbatim; after that each
/// observation `i` replaces a uniformly chosen earlier sample with
/// probability `capacity / (i + 1)` (classic Algorithm R), using a
/// deterministic SplitMix64 hash of the observation index as the random
/// source so replays are reproducible. Recording is a `fetch_add` plus at
/// most one relaxed store — no lock, no allocation — so writers on the
/// service hot path never contend with [`Reservoir::snapshot`] readers.
///
/// Concurrent writers can interleave on the same slot; the loser's sample
/// is dropped. That bias is bounded by the write rate and acceptable for
/// the percentile estimates this feeds.
#[derive(Debug)]
pub(crate) struct Reservoir {
    count: AtomicU64,
    slots: Box<[AtomicU64]>,
}

/// SplitMix64 finalizer: a cheap, well-distributed hash of a counter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Default for Reservoir {
    /// A reservoir with the service's default sample capacity (512).
    fn default() -> Reservoir {
        Reservoir::new(512)
    }
}

impl Reservoir {
    /// Creates an empty reservoir holding at most `capacity` samples.
    pub(crate) fn new(capacity: usize) -> Reservoir {
        Reservoir {
            count: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation.
    pub(crate) fn record(&self, value: u64) {
        let i = self.count.fetch_add(1, Ordering::Relaxed);
        let n = self.slots.len() as u64;
        if i < n {
            self.slots[i as usize].store(value, Ordering::Relaxed);
        } else {
            let j = splitmix64(i) % (i + 1);
            if j < n {
                self.slots[j as usize].store(value, Ordering::Relaxed);
            }
        }
    }

    /// Copies the currently held samples out (at most `capacity` values,
    /// unsorted). Never blocks a concurrent writer.
    pub(crate) fn snapshot(&self) -> Vec<u64> {
        let filled = (self.count.load(Ordering::Relaxed) as usize).min(self.slots.len());
        self.slots[..filled]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_hit_rate_counts_only_requests_that_reached_disk() {
        let s = ServiceStats {
            cache_hits: 10,
            cache_misses: 4,
            disk_hits: 3,
            disk_misses: 1,
            ..ServiceStats::default()
        };
        assert!((s.disk_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(ServiceStats::default().disk_hit_rate(), 0.0);
    }

    #[test]
    fn time_accumulates() {
        let mut t = PassTimings::new();
        t.add(Phase::Analysis, Duration::from_millis(10));
        t.add(Phase::Analysis, Duration::from_millis(5));
        t.add(Phase::CodeGen, Duration::from_millis(15));
        assert_eq!(t.total(Phase::Analysis), Duration::from_millis(15));
        assert_eq!(t.total(Phase::CodeGen), Duration::from_millis(15));
    }

    #[test]
    fn time_closure_runs_and_attributes() {
        let mut t = PassTimings::new();
        let v = t.time(Phase::Analysis, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.total(Phase::CodeGen), Duration::ZERO);
    }

    #[test]
    fn merge_adds_all_phases() {
        let mut a = PassTimings::new();
        a.add(Phase::Analysis, Duration::from_millis(1));
        a.add(Phase::CodeGen, Duration::from_millis(4));
        let mut b = PassTimings::new();
        b.add(Phase::Analysis, Duration::from_millis(2));
        b.add(Phase::CodeGen, Duration::from_millis(8));
        a.merge(&b);
        assert_eq!(a.total(Phase::Analysis), Duration::from_millis(3));
        assert_eq!(a.total(Phase::CodeGen), Duration::from_millis(12));
    }

    #[test]
    fn reservoir_below_capacity_keeps_everything() {
        let r = Reservoir::new(8);
        for v in 1..=5u64 {
            r.record(v * 10);
        }
        let mut s = r.snapshot();
        s.sort_unstable();
        assert_eq!(s, [10, 20, 30, 40, 50]);
        assert_eq!(r.count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn reservoir_over_capacity_stays_bounded_and_samples_the_stream() {
        let r = Reservoir::new(16);
        for v in 0..10_000u64 {
            r.record(v);
        }
        let s = r.snapshot();
        assert_eq!(s.len(), 16);
        assert_eq!(r.count.load(Ordering::Relaxed), 10_000);
        // Algorithm R keeps a sample spread across the whole stream, not
        // just the head: with 16 slots over 10k observations, at least one
        // survivor should come from the later half.
        assert!(s.iter().any(|&v| v >= 5_000), "{s:?}");
    }

    #[test]
    fn reservoir_is_deterministic() {
        let a = Reservoir::new(8);
        let b = Reservoir::new(8);
        for v in 0..1000u64 {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn reservoir_concurrent_writers_never_lose_the_structure() {
        use std::sync::Arc;
        let r = Arc::new(Reservoir::new(32));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        r.record(t * 10_000 + v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.count.load(Ordering::Relaxed), 4000);
        assert_eq!(r.snapshot().len(), 32);
    }
}
