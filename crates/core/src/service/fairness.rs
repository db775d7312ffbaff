//! Per-client fairness: weighted deficit round-robin scheduling and
//! lock-free admission accounting.
//!
//! Requests carry a [`ClientId`]. Two mechanisms keep one greedy client
//! from starving the rest:
//!
//! * **Dequeue fairness** — the worker-side backlog is a `DrrQueue`:
//!   two priority lanes (interactive strictly before bulk, preserving the
//!   service's existing priority semantics), and *within* each lane a
//!   weighted deficit round-robin over per-client FIFOs. Each visit tops
//!   a client's deficit up by its weight and serves up to that many
//!   requests before rotating, so a client with weight 2 drains twice as
//!   fast as a client with weight 1 — but never monopolizes the lane.
//! * **Admission fairness** — when a queue capacity is configured, a
//!   client's backlog share is bounded by `capacity / active_clients`
//!   (clients with queued work, tracked lock-free in `ClientTable`).
//!   With a single client this degenerates to the old global bound; with
//!   several, a flooding client is shed while the others still admit.
//!
//! Both structures are deterministic: rotation order is arrival order,
//! and the admission share uses exact integer arithmetic, so fairness
//! tests replay.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use super::Priority;

/// Identifies the submitting client of a request for fairness purposes.
///
/// An opaque caller-chosen 64-bit id: a tenant, a connection, a thread —
/// whatever granularity fairness should apply at. Requests that never set
/// one share `ClientId::ANON`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl ClientId {
    /// The client id of requests that never set one.
    pub(crate) const ANON: ClientId = ClientId(0);
}

/// One client's FIFO inside a lane.
struct ClientQueue<T> {
    id: ClientId,
    weight: u32,
    deficit: u64,
    items: VecDeque<T>,
}

/// One priority lane: a rotation of per-client FIFOs served by deficit
/// round-robin.
struct Lane<T> {
    clients: Vec<ClientQueue<T>>,
    /// Rotation cursor into `clients`.
    rr: usize,
    len: usize,
}

impl<T> Lane<T> {
    fn new() -> Lane<T> {
        Lane {
            clients: Vec::new(),
            rr: 0,
            len: 0,
        }
    }

    fn push(&mut self, client: ClientId, weight: u32, item: T) {
        self.len += 1;
        if let Some(cq) = self.clients.iter_mut().find(|c| c.id == client) {
            cq.weight = weight.max(1);
            cq.items.push_back(item);
        } else {
            let mut items = VecDeque::new();
            items.push_back(item);
            self.clients.push(ClientQueue {
                id: client,
                weight: weight.max(1),
                deficit: 0,
                items,
            });
        }
    }

    fn pop(&mut self) -> Option<T> {
        loop {
            if self.clients.is_empty() {
                return None;
            }
            if self.rr >= self.clients.len() {
                self.rr = 0;
            }
            let cq = &mut self.clients[self.rr];
            if cq.items.is_empty() {
                // Drained clients leave the rotation (and forfeit any
                // unused deficit — DRR's anti-hoarding rule).
                self.clients.remove(self.rr);
                continue;
            }
            if cq.deficit > 0 {
                cq.deficit -= 1;
                self.len -= 1;
                let item = cq.items.pop_front();
                if cq.items.is_empty() {
                    self.clients.remove(self.rr);
                }
                return item;
            }
            // Deficit exhausted: refill (quantum × weight, with a quantum
            // of one request) and move to the next client. After a full
            // rotation everyone is topped up and service resumes.
            cq.deficit = u64::from(cq.weight);
            self.rr += 1;
        }
    }
}

/// The worker-side backlog: two priority lanes of weighted deficit
/// round-robin client FIFOs. Not thread-safe by itself — the service
/// guards it with the dispatcher mutex, under which submitters push and
/// workers pop.
pub(crate) struct DrrQueue<T> {
    interactive: Lane<T>,
    bulk: Lane<T>,
}

impl<T> DrrQueue<T> {
    pub(crate) fn new() -> DrrQueue<T> {
        DrrQueue {
            interactive: Lane::new(),
            bulk: Lane::new(),
        }
    }

    pub(crate) fn push(&mut self, class: Priority, client: ClientId, weight: u32, item: T) {
        match class {
            Priority::Interactive => self.interactive.push(client, weight, item),
            Priority::Bulk => self.bulk.push(client, weight, item),
        }
    }

    /// Interactive lane strictly first; DRR within a lane.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.interactive.pop().or_else(|| self.bulk.pop())
    }

    pub(crate) fn len(&self) -> usize {
        self.interactive.len + self.bulk.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Slot count of the admission table. Fairness needs the *active client*
/// count and per-client backlog; 64 concurrently active clients is far
/// beyond any configured worker pool, and overflow degrades gracefully
/// (extra clients share the global bound only).
const TABLE_SLOTS: usize = 64;

/// Lock-free open-addressed table of per-client queued-request counts,
/// read on the admission fast path. Entries are claimed with a CAS on
/// first use and never freed (a drained client keeps its slot with count
/// zero — it no longer counts as active).
pub(crate) struct ClientTable {
    ids: [AtomicU64; TABLE_SLOTS],
    counts: [AtomicU64; TABLE_SLOTS],
}

/// Sentinel for an unclaimed id slot. Stored ids are `client.0 + 1` so
/// `ClientId(0)` is representable.
const FREE: u64 = 0;

impl ClientTable {
    pub(crate) fn new() -> ClientTable {
        ClientTable {
            ids: std::array::from_fn(|_| AtomicU64::new(FREE)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Finds (or claims) the slot of `client`. Returns `None` when the
    /// table is full — the caller then falls back to the global bound.
    fn slot(&self, client: ClientId) -> Option<usize> {
        let tag = client.0.wrapping_add(1);
        let start = {
            use std::hash::Hasher;
            let mut h = crate::hash::StableHasher::new();
            h.write_u64(client.0);
            (h.finish() as usize) % TABLE_SLOTS
        };
        for probe in 0..TABLE_SLOTS {
            let i = (start + probe) % TABLE_SLOTS;
            let cur = self.ids[i].load(Ordering::Acquire);
            if cur == tag {
                return Some(i);
            }
            if cur == FREE
                && self.ids[i]
                    .compare_exchange(FREE, tag, Ordering::AcqRel, Ordering::Acquire)
                    .map_or_else(|found| found == tag, |_| true)
            {
                return Some(i);
            }
        }
        None
    }

    /// Counts a queued request for `client`.
    pub(crate) fn incr(&self, client: ClientId) {
        if let Some(i) = self.slot(client) {
            self.counts[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Uncounts a queued request for `client` (job started or was swept).
    pub(crate) fn decr(&self, client: ClientId) {
        if let Some(i) = self.slot(client) {
            // Saturating: a table-full incr that found a slot freed later
            // must not wrap.
            let _ = self.counts[i].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(1))
            });
        }
    }

    /// This client's currently queued requests.
    pub(crate) fn queued(&self, client: ClientId) -> u64 {
        self.slot(client)
            .map_or(0, |i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Clients with queued work right now (at least 1).
    pub(crate) fn active(&self) -> u64 {
        let n = self
            .counts
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) > 0)
            .count() as u64;
        n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut DrrQueue<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        out
    }

    #[test]
    fn interactive_lane_preempts_bulk_lane() {
        let mut q = DrrQueue::new();
        q.push(Priority::Bulk, ClientId(1), 1, "b1");
        q.push(Priority::Interactive, ClientId(1), 1, "i1");
        q.push(Priority::Bulk, ClientId(1), 1, "b2");
        assert_eq!(drain(&mut q), ["i1", "b1", "b2"]);
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        let mut q = DrrQueue::new();
        for i in 0..3 {
            q.push(Priority::Bulk, ClientId(1), 1, format!("a{i}"));
        }
        for i in 0..3 {
            q.push(Priority::Bulk, ClientId(2), 1, format!("b{i}"));
        }
        assert_eq!(drain(&mut q), ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn weight_two_serves_twice_per_round() {
        let mut q = DrrQueue::new();
        for i in 0..4 {
            q.push(Priority::Bulk, ClientId(1), 2, format!("a{i}"));
        }
        for i in 0..2 {
            q.push(Priority::Bulk, ClientId(2), 1, format!("b{i}"));
        }
        assert_eq!(drain(&mut q), ["a0", "a1", "b0", "a2", "a3", "b1"]);
    }

    #[test]
    fn late_client_joins_the_rotation_not_the_back_of_a_global_fifo() {
        let mut q = DrrQueue::new();
        for i in 0..5 {
            q.push(Priority::Bulk, ClientId(1), 1, format!("a{i}"));
        }
        // Serve one item, then a second client arrives.
        assert_eq!(q.pop().unwrap(), "a0");
        q.push(Priority::Bulk, ClientId(2), 1, "b0".to_string());
        // b0 is served after at most one more of client 1's items, not
        // after all four.
        let next_two = [q.pop().unwrap(), q.pop().unwrap()];
        assert!(next_two.contains(&"b0".to_string()), "{next_two:?}");
    }

    #[test]
    fn drained_client_forfeits_unused_deficit() {
        let mut q = DrrQueue::new();
        q.push(Priority::Bulk, ClientId(1), 100, "a0".to_string());
        q.push(Priority::Bulk, ClientId(2), 1, "b0".to_string());
        assert_eq!(drain(&mut q), ["a0", "b0"]);
        // Client 1 returns: its huge weight must not have banked deficit.
        for i in 0..3 {
            q.push(Priority::Bulk, ClientId(1), 1, format!("a{i}"));
        }
        q.push(Priority::Bulk, ClientId(2), 1, "b1".to_string());
        let order = drain(&mut q);
        let b1_at = order.iter().position(|v| v == &"b1".to_string()).unwrap();
        assert!(b1_at <= 1, "b1 served at {b1_at} in {order:?}");
    }

    #[test]
    fn len_tracks_both_lanes() {
        let mut q = DrrQueue::new();
        assert!(q.is_empty());
        q.push(Priority::Interactive, ClientId(1), 1, 1u32);
        q.push(Priority::Bulk, ClientId(2), 1, 2u32);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn client_table_counts_per_client() {
        let t = ClientTable::new();
        assert_eq!(t.active(), 1); // floor of 1, nothing queued
        t.incr(ClientId(7));
        t.incr(ClientId(7));
        t.incr(ClientId(9));
        assert_eq!(t.queued(ClientId(7)), 2);
        assert_eq!(t.queued(ClientId(9)), 1);
        assert_eq!(t.active(), 2);
        t.decr(ClientId(7));
        t.decr(ClientId(7));
        assert_eq!(t.queued(ClientId(7)), 0);
        assert_eq!(t.active(), 1);
        // Underflow saturates.
        t.decr(ClientId(7));
        assert_eq!(t.queued(ClientId(7)), 0);
    }

    #[test]
    fn client_table_survives_concurrent_increments() {
        use std::sync::Arc;
        let t = Arc::new(ClientTable::new());
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.incr(ClientId(c % 2));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.queued(ClientId(0)), 2000);
        assert_eq!(t.queued(ClientId(1)), 2000);
    }
}
