//! Per-phase compile timing ([`PassTimings`]: the analysis pass versus the
//! single code-generation pass), plus the service-side types: the timing
//! each response carries ([`RequestTiming`]) and the counter snapshots
//! ([`ServiceStats`], [`ClientStats`]).

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
}
