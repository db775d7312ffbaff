//! Deterministic fault injection for resilience testing.
//!
//! A *faultpoint* is a named probe compiled into a degradation-prone code
//! path — disk cache I/O, the service worker loop — that normally does
//! nothing. When the process is **armed** (via the `TPDE_FAULTS`
//! environment variable or programmatically with [`arm`]), each probe
//! consults the installed [`FaultRule`]s and may inject a fault: a
//! transient or hard I/O error, a short read, an in-place delay, or an
//! in-place panic.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when disarmed.** The fast path of `trip` is a single
//!   relaxed atomic load and a predictable branch; no lock, no allocation,
//!   no syscall. Production builds that never set `TPDE_FAULTS` pay one
//!   lazy env lookup per process.
//! * **Deterministic.** Firing is counter-based (`every`/`offset`/`limit`
//!   per rule), never random, so a failing chaos run replays exactly.
//! * **Scoped.** [`arm`] returns a guard that restores the previous plan on
//!   drop and serializes armed sections process-wide, so fault tests cannot
//!   leak rules into concurrently running tests.
//!
//! `TPDE_FAULTS` accepts a comma-separated list of categories. `disk` arms
//! a low-rate mix of *transparent* disk faults (transient read/rename
//! errors that the retry path must absorb, index-lock contention delays);
//! `worker` arms small worker-loop delays and dropped worker wakeups. All
//! are chosen so that a correct build passes its full test suite unchanged
//! while armed — that is the point: the suite *is* the assertion that
//! these degradations are invisible. Destructive actions
//! (short reads, panics) are only injected by targeted tests, such as
//! `crates/llvm/tests/chaos.rs`, with explicit rules.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Faultpoint site names. Probes and rules must agree on these strings;
/// keeping them in one place makes a typo a compile error on the probe
/// side and greppable on the rule side.
pub mod sites {
    /// Reading an artifact file from the disk cache (open/read path).
    pub const DISK_READ: &str = "disk.read";
    /// Short read of an artifact file (delivers truncated bytes).
    pub const DISK_SHORT_READ: &str = "disk.short_read";
    /// Publishing rename of a freshly written artifact.
    pub const DISK_RENAME: &str = "disk.rename";
    /// Acquiring the disk cache index lock (contention).
    pub const DISK_FLOCK: &str = "disk.flock";
    /// Start of one service worker job's compile. The watchdog heartbeat
    /// is stamped once, just before it, so a delay injected here counts
    /// toward the hang timeout like a slow compile.
    pub const WORKER_JOB: &str = "service.job";
    /// Worker wakeup after a submission. A firing rule drops the wakeup;
    /// the bounded park timeout must recover (latency only, never a lost
    /// ticket).
    pub const WORKER_WAKEUP: &str = "service.wakeup";
}

/// What an armed faultpoint injects when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// A transient I/O error (`EINTR`-like); retry paths must absorb it.
    Transient,
    /// A hard failure of the probed operation.
    Fail,
    /// A short read: the caller receives truncated bytes.
    Short,
    /// Sleep in place for the given duration (simulates contention and
    /// hung workers), then continue normally.
    Delay(Duration),
    /// Panic in place. Only meaningful inside a `catch_unwind` region —
    /// the service worker's compile has one.
    Panic,
}

/// One armed injection rule: fire `action` at `site` on a deterministic
/// subset of probe encounters.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Site name (see [`sites`]).
    pub(crate) site: &'static str,
    /// What to inject.
    pub(crate) action: FaultAction,
    /// Fire on every `every`-th matching encounter (1 = every one).
    pub(crate) every: u64,
    /// Skip the first `offset` matching encounters.
    pub(crate) offset: u64,
    /// Stop firing after this many injections (`None` = unlimited).
    pub(crate) limit: Option<u64>,
}

impl FaultRule {
    /// A rule that fires on every encounter of `site`.
    pub fn new(site: &'static str, action: FaultAction) -> FaultRule {
        FaultRule {
            site,
            action,
            every: 1,
            offset: 0,
            limit: None,
        }
    }

    /// Fire on every `n`-th matching encounter.
    pub fn every(mut self, n: u64) -> FaultRule {
        self.every = n.max(1);
        self
    }

    /// Skip the first `n` matching encounters.
    pub(crate) fn offset(mut self, n: u64) -> FaultRule {
        self.offset = n;
        self
    }

    /// Fire at most `n` times.
    pub fn limit(mut self, n: u64) -> FaultRule {
        self.limit = Some(n);
        self
    }
}

/// The fault a probed I/O path is asked to simulate. Delays and panics are
/// applied inside [`trip`] itself and never reach the caller.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum IoFault {
    /// Simulate a transient error (`EINTR`-like).
    Transient,
    /// Simulate a hard failure.
    Fail,
    /// Simulate a short read.
    Short,
}

impl IoFault {
    /// The `std::io::Error` equivalent of this fault, for I/O call sites.
    pub(crate) fn to_io_error(self) -> std::io::Error {
        match self {
            IoFault::Transient => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient I/O fault",
            ),
            IoFault::Fail => std::io::Error::other("injected I/O failure"),
            IoFault::Short => std::io::Error::other("injected short read"),
        }
    }
}

const UNINIT: u8 = 0;
const DISARMED: u8 = 1;
const ARMED: u8 = 2;

/// Global armed/disarmed flag — the only thing the fast path reads.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
/// The installed rules with their per-rule hit counters.
static PLAN: Mutex<Option<Plan>> = Mutex::new(None);
/// Serializes [`arm`] sections (and env initialization) process-wide.
static ARM_LOCK: Mutex<()> = Mutex::new(());

struct Rule {
    rule: FaultRule,
    /// Matching probe encounters seen so far.
    hits: AtomicU64,
    /// Times this rule fired.
    fired: AtomicU64,
}

struct Plan {
    rules: Vec<Rule>,
}

impl Plan {
    fn new(rules: Vec<FaultRule>) -> Plan {
        Plan {
            rules: rules
                .into_iter()
                .map(|rule| Rule {
                    rule,
                    hits: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Counts the encounter on every matching rule and returns the action
    /// of the first rule that fires.
    fn fire(&self, site: &str) -> Option<FaultAction> {
        let mut out = None;
        for r in &self.rules {
            if r.rule.site != site {
                continue;
            }
            let hit = r.hits.fetch_add(1, Ordering::Relaxed);
            if out.is_some() || hit < r.rule.offset {
                continue;
            }
            if (hit - r.rule.offset) % r.rule.every != 0 {
                continue;
            }
            if r.rule
                .limit
                .is_some_and(|l| r.fired.load(Ordering::Relaxed) >= l)
            {
                continue;
            }
            r.fired.fetch_add(1, Ordering::Relaxed);
            out = Some(r.rule.action.clone());
        }
        out
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether any fault plan is armed. One relaxed load on the fast path.
#[inline]
fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ARMED => true,
        DISARMED => false,
        _ => init_from_env(),
    }
}

/// First probe in the process: install whatever `TPDE_FAULTS` asks for.
#[cold]
fn init_from_env() -> bool {
    let _serial = lock(&ARM_LOCK);
    ensure_init_locked();
    STATE.load(Ordering::Relaxed) == ARMED
}

/// Must run with `ARM_LOCK` held.
fn ensure_init_locked() {
    if STATE.load(Ordering::Relaxed) != UNINIT {
        return;
    }
    let rules = std::env::var("TPDE_FAULTS")
        .map(|v| env_rules(&v))
        .unwrap_or_default();
    install(if rules.is_empty() { None } else { Some(rules) });
}

/// Installs a plan (`Some`) or disarms (`None`), updating `STATE` last so
/// probes never see an armed flag without rules.
fn install(rules: Option<Vec<FaultRule>>) {
    let armed = rules.is_some();
    *lock(&PLAN) = rules.map(Plan::new);
    STATE.store(if armed { ARMED } else { DISARMED }, Ordering::SeqCst);
}

/// Built-in rule sets for the `TPDE_FAULTS` categories. Rates are chosen
/// so every injected fault is *transparent* to a correct build: transient
/// errors are retried and delays only add latency.
fn env_rules(spec: &str) -> Vec<FaultRule> {
    let mut rules = Vec::new();
    for cat in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        match cat {
            "disk" => rules.extend([
                FaultRule::new(sites::DISK_READ, FaultAction::Transient)
                    .every(5)
                    .offset(2),
                FaultRule::new(sites::DISK_RENAME, FaultAction::Transient)
                    .every(7)
                    .offset(3),
                FaultRule::new(
                    sites::DISK_FLOCK,
                    FaultAction::Delay(Duration::from_micros(500)),
                )
                .every(4),
            ]),
            "worker" => rules.extend([
                FaultRule::new(
                    sites::WORKER_JOB,
                    FaultAction::Delay(Duration::from_millis(2)),
                )
                .every(13)
                .offset(5),
                FaultRule::new(sites::WORKER_WAKEUP, FaultAction::Fail)
                    .every(13)
                    .offset(1),
            ]),
            other => eprintln!("tpde: unknown TPDE_FAULTS category {other:?} ignored"),
        }
    }
    rules
}

/// Guard of an [`arm`] section: restores the previously installed plan
/// (env-derived or none) on drop and serializes armed sections.
pub struct FaultGuard {
    prev: Option<Vec<FaultRule>>,
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        install(self.prev.take());
    }
}

/// Installs `rules` as the process-wide fault plan until the returned
/// guard drops. Armed sections are serialized process-wide (tests in one
/// binary cannot interleave conflicting plans); do not nest on one thread.
pub fn arm(rules: Vec<FaultRule>) -> FaultGuard {
    let serial = lock(&ARM_LOCK);
    ensure_init_locked();
    let prev = lock(&PLAN)
        .take()
        .map(|p| p.rules.into_iter().map(|r| r.rule).collect());
    install(Some(rules));
    FaultGuard {
        prev,
        _serial: serial,
    }
}

/// Probes a faultpoint.
///
/// Returns the I/O fault the caller must simulate, if any; delays and
/// panics are applied here and return `None`/never. Disarmed cost: one
/// relaxed atomic load.
#[inline]
pub(crate) fn trip(site: &'static str) -> Option<IoFault> {
    if !armed() {
        return None;
    }
    trip_slow(site)
}

#[cold]
fn trip_slow(site: &'static str) -> Option<IoFault> {
    let action = lock(&PLAN).as_ref().and_then(|p| p.fire(site))?;
    match action {
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FaultAction::Panic => panic!("injected fault: {site} panicked"),
        FaultAction::Transient => Some(IoFault::Transient),
        FaultAction::Fail => Some(IoFault::Fail),
        FaultAction::Short => Some(IoFault::Short),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests use synthetic site names so concurrently running tests of
    // real components never match these rules.

    #[test]
    fn disarmed_probe_is_silent() {
        let _g = arm(Vec::new());
        assert_eq!(trip("test.silent"), None);
    }

    #[test]
    fn every_offset_and_limit_are_deterministic() {
        static SITE: &str = "test.pattern";
        let _g = arm(vec![FaultRule::new(SITE, FaultAction::Fail)
            .every(3)
            .offset(1)
            .limit(2)]);
        let fired: Vec<bool> = (0..10).map(|_| trip(SITE).is_some()).collect();
        // Offset 1, every 3, limit 2: encounters 1 and 4 fire, then spent.
        assert_eq!(
            fired,
            [false, true, false, false, true, false, false, false, false, false]
        );
    }

    #[test]
    fn guard_restores_previous_plan() {
        static SITE: &str = "test.restore";
        {
            let _outer = arm(vec![FaultRule::new(SITE, FaultAction::Fail)]);
            assert_eq!(trip(SITE), Some(IoFault::Fail));
        }
        // Outer guard dropped: back to the pre-arm state (env or nothing),
        // which has no rule for this synthetic site.
        assert_eq!(trip(SITE), None);
    }

    #[test]
    fn delay_applies_in_place_and_returns_none() {
        static SITE: &str = "test.delay";
        let _g = arm(vec![FaultRule::new(
            SITE,
            FaultAction::Delay(Duration::from_millis(5)),
        )]);
        let t = std::time::Instant::now();
        assert_eq!(trip(SITE), None);
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn panic_action_panics_in_place() {
        static SITE: &str = "test.panic";
        let _g = arm(vec![FaultRule::new(SITE, FaultAction::Panic)]);
        let r = std::panic::catch_unwind(|| trip(SITE));
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("test.panic"), "{msg}");
    }

    #[test]
    fn env_categories_parse() {
        assert!(env_rules("").is_empty());
        assert!(env_rules("disk")
            .iter()
            .all(|r| r.site.starts_with("disk.")));
        assert!(env_rules("worker")
            .iter()
            .all(|r| r.site.starts_with("service.")));
        let all = env_rules("disk, worker");
        assert_eq!(
            all.len(),
            env_rules("disk").len() + env_rules("worker").len()
        );
        assert!(env_rules("bogus").is_empty());
    }
}
