//! The service front-end: the submission API ([`Request`], [`Ticket`],
//! [`TicketRef`]) and the ingress machinery (fair queue + parker wakeups)
//! behind it.
//!
//! # Submission path
//!
//! ```text
//!  submitter ──Request──▶ admission ──▶ push under ──▶ wake one parked
//!     │                   (shed/verify/  scheduler      worker
//!     │                    cache/coalesce) mutex           │
//!     ▼                                                    │
//!  Ticket ◀────────── response ◀── workers ◀── fair pop ◀──┘
//!                                          (lane, then client rotation)
//! ```
//!
//! Submitters and workers share one mutex that guards the `FairQueue` and
//! the admission `Backlog`: a miss is admitted and pushed under it, then
//! one worker is poked through its `Parker`. Admission stays unbounded
//! unless a queue capacity is configured.
//!
//! # Wakeups
//!
//! One `Parker` per worker — a three-state atomic (`EMPTY`, `NOTIFIED`,
//! `PARKED`). A submitter wakes one worker per job instead of a global
//! `Condvar::notify_all` thundering herd. Parking always uses a bounded
//! `park_timeout`, so a *lost* wakeup (dropped by fault injection at the
//! `service.wakeup` site, or by a genuine bug) costs bounded latency,
//! never a stranded ticket.
//!
//! # Ticket completion-state machine
//!
//! An answer known at submission is stored in the ticket itself; only a
//! request that waits for a worker or for an identical in-flight job owns
//! a channel, with exactly one response in flight. The states a ticket
//! observes:
//!
//! ```text
//!  SUBMITTED ──(cache/disk hit, shed, invalid, closed)──▶ RESOLVED inline
//!      │
//!      ├──(coalesced onto identical in-flight job)──▶ RESOLVED with leader
//!      │
//!      └──▶ QUEUED ──▶ COMPILING ──▶ RESOLVED by worker
//!                 │            └──(watchdog timeout)──▶ RESOLVED poisoned
//!                 └──(service dropped)──▶ RESOLVED by drain or sweep
//! ```
//!
//! Exactly one party answers (the submit path inline, or whoever takes the
//! job's sender first: worker, watchdog or shutdown sweep), so a response
//! is observed *at most once*: [`Ticket::wait`] consumes the ticket, and
//! the non-consuming `TicketRef::poll` / [`TicketRef::wait_timeout`]
//! return the response the first time it is ready, after which the ticket
//! is spent (a later `wait` reports the service-shutdown error). Dropping
//! a ticket abandons the response; the service never blocks on it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::Mutex;
use std::time::Duration;

use super::fairness::{Backlog, ClientId, FairQueue};
use super::{lock, Priority, ServiceBackend, ServiceResponse};
use crate::error::Error;
use crate::faultpoint::{self, sites};
use crate::timing::RequestTiming;

/// A compile request under construction: the backend payload plus the
/// front-end's scheduling attributes. Build with [`Request::new`] and the
/// chainable setters, then hand to
/// [`super::CompileService::submit`]/[`super::CompileService::compile`]:
///
/// ```ignore
/// svc.submit(Request::new(module).priority(Priority::Bulk)
///     .deadline(Duration::from_millis(25))
///     .client(ClientId(7)));
/// ```
#[derive(Debug)]
pub struct Request<B: ServiceBackend> {
    pub(crate) payload: B::Request,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Duration>,
    pub(crate) client: ClientId,
}

impl<B: ServiceBackend> Request<B> {
    /// A request with the default attributes: [`Priority::Interactive`],
    /// no deadline, `ClientId::ANON`.
    pub fn new(payload: B::Request) -> Request<B> {
        Request {
            payload,
            priority: Priority::default(),
            deadline: None,
            client: ClientId::ANON,
        }
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Request<B> {
        self.priority = priority;
        self
    }

    /// Sets the time budget, measured from submission. An expired request
    /// is answered with [`Error::DeadlineExceeded`] at dequeue (before the
    /// compile starts); a compile already running is not interrupted. When
    /// an identical in-flight request coalesces with this one, the
    /// *loosest* deadline of the group wins — attaching a waiter never
    /// tightens the leader's budget.
    pub fn deadline(mut self, deadline: Duration) -> Request<B> {
        self.deadline = Some(deadline);
        self
    }

    /// Attributes the request to a client for fairness accounting.
    pub fn client(mut self, client: ClientId) -> Request<B> {
        self.client = client;
        self
    }
}

/// Handle to one in-flight request; redeem with the consuming
/// [`Ticket::wait`], or borrow a non-consuming [`TicketRef`] via
/// [`Ticket::by_ref`] for poll loops and bounded waits. See the module
/// docs for the completion-state machine.
///
/// Tickets outlive the service: dropping the
/// [`super::CompileService`] drains the queue first, so a ticket
/// submitted before the drop still resolves.
#[derive(Debug)]
pub struct Ticket {
    state: TicketState,
}

// A ticket may be redeemed on another thread than the one that submitted.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Ticket>();
};

#[derive(Debug)]
enum TicketState {
    /// Answered at submission; the first read takes the response.
    Resolved(RefCell<Option<ServiceResponse>>),
    /// Answered later by whoever takes the job's sender.
    Pending(Receiver<ServiceResponse>),
}

impl Ticket {
    pub(crate) fn resolved(response: ServiceResponse) -> Ticket {
        Ticket {
            state: TicketState::Resolved(RefCell::new(Some(response))),
        }
    }

    pub(crate) fn pending(rx: Receiver<ServiceResponse>) -> Ticket {
        Ticket {
            state: TicketState::Pending(rx),
        }
    }

    /// Blocks until the response is ready.
    pub fn wait(self) -> ServiceResponse {
        match self.state {
            TicketState::Resolved(r) => r.into_inner(),
            TicketState::Pending(rx) => rx.recv().ok(),
        }
        .unwrap_or_else(shutdown_response)
    }

    /// Borrows a non-consuming view for `TicketRef::poll` and
    /// [`TicketRef::wait_timeout`].
    pub fn by_ref(&self) -> TicketRef<'_> {
        TicketRef { ticket: self }
    }
}

/// A borrowed, non-consuming view of a [`Ticket`] for poll loops; see the
/// module docs for the completion-state machine.
#[derive(Debug)]
pub struct TicketRef<'a> {
    ticket: &'a Ticket,
}

impl TicketRef<'_> {
    /// Returns the response if it is ready, without blocking. `None`
    /// means still in flight — poll again or block via
    /// [`TicketRef::wait_timeout`].
    pub(crate) fn poll(&self) -> Option<ServiceResponse> {
        match &self.ticket.state {
            TicketState::Resolved(r) => Some(r.take().unwrap_or_else(shutdown_response)),
            TicketState::Pending(rx) => match rx.try_recv() {
                Ok(r) => Some(r),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(shutdown_response()),
            },
        }
    }

    /// Blocks until the response is ready or `timeout` elapses. Returns
    /// `None` on timeout; the ticket stays valid, so the caller can
    /// retry, do other work, or drop it.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServiceResponse> {
        match &self.ticket.state {
            TicketState::Resolved(_) => self.poll(),
            TicketState::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(r) => Some(r),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => Some(shutdown_response()),
            },
        }
    }
}

fn shutdown_response() -> ServiceResponse {
    ServiceResponse {
        module: Err(Error::Emit(
            "compile service shut down before answering".into(),
        )),
        timing: RequestTiming::default(),
    }
}

/// Parker states. `NOTIFIED` is a sticky token: an unpark delivered to a
/// running worker is consumed at its next park attempt.
const EMPTY: u8 = 0;
const NOTIFIED: u8 = 1;
const PARKED: u8 = 2;

/// Bounded sleep per park. This is the recovery bound for a lost wakeup:
/// a worker never sleeps longer than this without re-checking the
/// scheduler, so a dropped notification costs at most one timeout of latency.
pub(crate) const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// One worker's wakeup state machine (see the module docs).
pub(crate) struct Parker {
    state: AtomicU8,
    /// The worker thread currently owning this parker; re-registered by
    /// watchdog replacements. Locked only on registration and on the
    /// unpark slow path (target actually parked).
    thread: Mutex<Option<std::thread::Thread>>,
}

impl Parker {
    pub(crate) fn new() -> Parker {
        Parker {
            state: AtomicU8::new(EMPTY),
            thread: Mutex::new(None),
        }
    }

    /// Binds the calling thread to this parker (worker start/respawn).
    pub(crate) fn register(&self) {
        *lock(&self.thread) = Some(std::thread::current());
    }

    /// Sleeps until notified or `timeout` elapses. A notification
    /// delivered since the last park is consumed without sleeping.
    #[cfg(test)]
    pub(crate) fn park(&self, timeout: Duration) {
        self.park_unless(timeout, || false);
    }

    /// Like [`Parker::park`], but re-evaluates `work_pending` *after*
    /// publishing the `PARKED` state and returns without sleeping if it
    /// reports work. A producer publishes its item before waking, so
    /// either this check observes the item or the producer's wake scan
    /// observes `PARKED` — the lost-wakeup window is closed and the park
    /// timeout is a backstop, not a latency floor.
    pub(crate) fn park_unless(&self, timeout: Duration, work_pending: impl Fn() -> bool) {
        if self.state.swap(EMPTY, Ordering::Acquire) == NOTIFIED {
            return;
        }
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // NOTIFIED landed between the two operations.
            self.state.swap(EMPTY, Ordering::Acquire);
            return;
        }
        if work_pending() {
            self.state.swap(EMPTY, Ordering::Acquire);
            return;
        }
        std::thread::park_timeout(timeout);
        self.state.swap(EMPTY, Ordering::Acquire);
    }

    /// Delivers a notification; wakes the thread if it is parked. A
    /// spurious stale `std::thread` token can make one later park return
    /// early — harmless, the worker loop re-checks its queues.
    pub(crate) fn unpark(&self) {
        if self.state.swap(NOTIFIED, Ordering::AcqRel) == PARKED {
            if let Some(t) = lock(&self.thread).as_ref() {
                t.unpark();
            }
        }
    }

    fn is_parked(&self) -> bool {
        self.state.load(Ordering::Relaxed) == PARKED
    }
}

/// One request handed to the pool: the item and the scheduling
/// attributes the fair queue needs.
pub(crate) struct Submission<T> {
    pub(crate) item: T,
    pub(crate) class: Priority,
    pub(crate) client: ClientId,
}

/// What the dispatcher mutex guards: the queued requests, and the
/// admission backlog they are counted in. Popping a request takes it out of
/// the backlog, so a request counts from admission until a worker starts
/// it.
struct Sched<T> {
    queue: FairQueue<(T, ClientId)>,
    backlog: Backlog,
}

impl<T> Sched<T> {
    fn pop(&mut self) -> Option<T> {
        let (item, client) = self.queue.pop()?;
        self.backlog.depart(client);
        Some(item)
    }
}

/// The ingress pipeline between submitters and workers: the fair queue
/// and the admission backlog behind one mutex, with a parker per worker on
/// the side.
pub(crate) struct Dispatcher<T> {
    sched: Mutex<Sched<T>>,
    parkers: Box<[Parker]>,
    /// Rotation cursor for picking which parker to wake.
    next_wake: AtomicUsize,
    closed: AtomicBool,
}

impl<T> Dispatcher<T> {
    pub(crate) fn new(workers: usize) -> Dispatcher<T> {
        Dispatcher {
            sched: Mutex::new(Sched {
                queue: FairQueue::new(),
                backlog: Backlog::default(),
            }),
            parkers: (0..workers).map(|_| Parker::new()).collect(),
            next_wake: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Binds the calling worker thread to its parker.
    pub(crate) fn register(&self, worker: usize) {
        self.parkers[worker].register();
    }

    /// Admits one request against `limit` (see [`Backlog::admit`]) and
    /// queues it, or returns the observed backlog depth. Call
    /// [`Dispatcher::wake`] after an admission.
    pub(crate) fn admit(&self, sub: Submission<T>, limit: u64) -> Result<(), u64> {
        let mut sched = lock(&self.sched);
        sched.backlog.admit(sub.client, limit)?;
        sched
            .queue
            .push(sub.class, sub.client, (sub.item, sub.client));
        Ok(())
    }

    /// Wakes one worker, a parked one if any. If none is parked, the
    /// notification token is left on the next running worker in rotation,
    /// which consumes it at its next park attempt. An injected
    /// `service.wakeup` fault drops the wakeup — the bounded park timeout
    /// recovers.
    pub(crate) fn wake(&self) {
        if faultpoint::trip(sites::WORKER_WAKEUP).is_some() {
            return;
        }
        let w = self.parkers.len();
        let start = self.next_wake.fetch_add(1, Ordering::Relaxed);
        let parked = (0..w)
            .map(|i| &self.parkers[(start + i) % w])
            .find(|p| p.is_parked());
        parked.unwrap_or(&self.parkers[start % w]).unpark();
    }

    /// Closes the front-end (shutdown): no effect on already-enqueued
    /// work, but workers exit once the scheduler is drained. Shutdown
    /// wakeups bypass fault injection.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for p in self.parkers.iter() {
            p.unpark();
        }
    }

    /// Blocks until a job is available, returning `None` only when the
    /// dispatcher is closed *and* drained.
    pub(crate) fn next(&self, worker: usize) -> Option<T> {
        loop {
            {
                let mut sched = lock(&self.sched);
                if let Some(item) = sched.pop() {
                    return Some(item);
                }
                if self.is_closed() {
                    return None;
                }
            }
            // Producers push under the mutex before waking, so a push that
            // stamped its wakeup token on a busy peer is seen by the
            // post-PARKED re-check; the timeout only backstops injected
            // wakeup faults.
            self.parkers[worker].park_unless(PARK_TIMEOUT, || !lock(&self.sched).queue.is_empty());
        }
    }

    /// Post-join drain for `Drop`: returns what is left in the scheduler
    /// so the service can answer those tickets. Only sound once the
    /// workers have exited — they would otherwise race for the items.
    pub(crate) fn drain_remaining(&self) -> Vec<T> {
        let mut sched = lock(&self.sched);
        std::iter::from_fn(|| sched.pop()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn unpark_before_park_returns_immediately() {
        let p = Parker::new();
        p.register();
        p.unpark();
        let t = Instant::now();
        p.park(Duration::from_secs(5));
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_times_out_without_a_notification() {
        let p = Parker::new();
        p.register();
        let t = Instant::now();
        p.park(Duration::from_millis(10));
        assert!(t.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn unpark_wakes_a_parked_thread() {
        let p = Arc::new(Parker::new());
        let h = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                p.register();
                let t = Instant::now();
                p.park(Duration::from_secs(30));
                t.elapsed()
            })
        };
        // Give the worker time to actually park, then wake it.
        while !p.is_parked() {
            std::thread::yield_now();
        }
        p.unpark();
        let slept = h.join().unwrap();
        assert!(slept < Duration::from_secs(5), "parked thread never woke");
    }

    fn submission(item: u32, client: u32) -> Submission<u32> {
        Submission {
            item,
            class: Priority::Interactive,
            client: ClientId(client.into()),
        }
    }

    #[test]
    fn dispatcher_round_trips_submissions_in_fifo_order() {
        let d: Dispatcher<u32> = Dispatcher::new(1);
        d.register(0);
        for v in 0..5 {
            d.admit(submission(v, 1), 0).unwrap();
        }
        d.wake();
        let got: Vec<u32> = (0..5).map(|_| d.next(0).unwrap()).collect();
        assert_eq!(got, (0..5).collect::<Vec<_>>(), "same-client FIFO");
        d.close();
        assert_eq!(d.next(0), None);
    }

    #[test]
    fn dispatcher_delivers_each_item_exactly_once_under_contention() {
        const PRODUCERS: u32 = 4;
        const PER_PRODUCER: u32 = 1000;
        let d: Arc<Dispatcher<u32>> = Arc::new(Dispatcher::new(2));
        let consumers: Vec<_> = (0..2)
            .map(|w| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    d.register(w);
                    let mut got = Vec::new();
                    while let Some(v) = d.next(w) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        d.admit(submission(p * PER_PRODUCER + i, p), 0).unwrap();
                        d.wake();
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        d.close();
        // A consumer returns `None` only once closed and drained, so the
        // joined results must hold every item, each exactly once.
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
        assert_eq!((d.next(0), d.next(1)), (None, None));
    }
}
