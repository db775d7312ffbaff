//! Per-client fairness: round-robin scheduling and fair-share admission.
//!
//! Requests carry a [`ClientId`]. Two mechanisms keep one greedy client
//! from starving the rest:
//!
//! * **Dequeue fairness** — the worker-side queue is a `FairQueue`: two
//!   priority lanes (interactive strictly before bulk), and *within* each
//!   lane a round-robin over per-client FIFOs that serves one request per
//!   visit, so a flooding client never monopolizes the lane.
//! * **Admission fairness** — when a queue capacity is configured, a
//!   client's share of the `Backlog` of admitted-but-unstarted requests is
//!   bounded by `capacity / active_clients` (clients with queued work).
//!   With a single client this degenerates to the global bound; with
//!   several, a flooding client is shed while the others still admit.
//!
//! Both are plain data behind a mutex the service already takes, and both
//! are deterministic: rotation order is arrival order and the admission
//! share uses exact integer arithmetic, so fairness tests replay.

use std::collections::{HashMap, VecDeque};

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
    items: VecDeque<T>,
}

/// One priority lane: a rotation of non-empty per-client FIFOs.
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

    fn push(&mut self, client: ClientId, item: T) {
        self.len += 1;
        if let Some(cq) = self.clients.iter_mut().find(|c| c.id == client) {
            cq.items.push_back(item);
        } else {
            self.clients.push(ClientQueue {
                id: client,
                items: VecDeque::from([item]),
            });
        }
    }

    /// Serves the client under the cursor and moves on; a client whose
    /// FIFO drains leaves the rotation.
    fn pop(&mut self) -> Option<T> {
        if self.clients.is_empty() {
            return None;
        }
        if self.rr >= self.clients.len() {
            self.rr = 0;
        }
        let cq = &mut self.clients[self.rr];
        let item = cq.items.pop_front();
        self.len -= 1;
        if cq.items.is_empty() {
            self.clients.remove(self.rr);
        } else {
            self.rr += 1;
        }
        item
    }
}

/// The worker-side queue: two priority lanes of round-robin client FIFOs.
/// Not thread-safe by itself — the service guards it with the dispatcher
/// mutex, under which submitters push and workers pop.
pub(crate) struct FairQueue<T> {
    interactive: Lane<T>,
    bulk: Lane<T>,
}

impl<T> FairQueue<T> {
    pub(crate) fn new() -> FairQueue<T> {
        FairQueue {
            interactive: Lane::new(),
            bulk: Lane::new(),
        }
    }

    pub(crate) fn push(&mut self, class: Priority, client: ClientId, item: T) {
        match class {
            Priority::Interactive => self.interactive.push(client, item),
            Priority::Bulk => self.bulk.push(client, item),
        }
    }

    /// Interactive lane strictly first; round-robin within a lane.
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

/// Admitted-but-unstarted requests, counted in total and per client. A
/// client leaves the map when its count reaches zero, so the map's length
/// is the number of active clients. Not thread-safe by itself — the
/// dispatcher keeps it under the mutex of the queue it counts.
#[derive(Default)]
pub(crate) struct Backlog {
    total: u64,
    clients: HashMap<ClientId, u64>,
}

impl Backlog {
    /// Admits one request of `client` against `limit` (0 = unbounded):
    /// each active client may hold `limit / active` requests and all of
    /// them together `limit`. A rejection returns the observed depth.
    pub(crate) fn admit(&mut self, client: ClientId, limit: u64) -> Result<(), u64> {
        if limit > 0 {
            let active = (self.clients.len() as u64).max(1);
            let share = (limit / active).max(1);
            let mine = self.clients.get(&client).copied().unwrap_or(0);
            if mine >= share || self.total >= limit {
                return Err(self.total);
            }
        }
        self.total += 1;
        *self.clients.entry(client).or_default() += 1;
        Ok(())
    }

    /// Uncounts a request of `client` (its job started or was swept).
    pub(crate) fn depart(&mut self, client: ClientId) {
        self.total -= 1;
        let n = self
            .clients
            .get_mut(&client)
            .expect("departing client is in the backlog");
        *n -= 1;
        if *n == 0 {
            self.clients.remove(&client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut FairQueue<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = q.pop() {
            out.push(v);
        }
        out
    }

    #[test]
    fn interactive_lane_preempts_bulk_lane() {
        let mut q = FairQueue::new();
        q.push(Priority::Bulk, ClientId(1), "b1");
        q.push(Priority::Interactive, ClientId(1), "i1");
        q.push(Priority::Bulk, ClientId(1), "b2");
        assert_eq!(drain(&mut q), ["i1", "b1", "b2"]);
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        let mut q = FairQueue::new();
        for i in 0..3 {
            q.push(Priority::Bulk, ClientId(1), format!("a{i}"));
        }
        for i in 0..3 {
            q.push(Priority::Bulk, ClientId(2), format!("b{i}"));
        }
        assert_eq!(drain(&mut q), ["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn late_client_joins_the_rotation_not_the_back_of_a_global_fifo() {
        let mut q = FairQueue::new();
        for i in 0..5 {
            q.push(Priority::Bulk, ClientId(1), format!("a{i}"));
        }
        // Serve one item, then a second client arrives.
        assert_eq!(q.pop().unwrap(), "a0");
        q.push(Priority::Bulk, ClientId(2), "b0".to_string());
        // b0 is served after at most one more of client 1's items, not
        // after all four.
        let next_two = [q.pop().unwrap(), q.pop().unwrap()];
        assert!(next_two.contains(&"b0".to_string()), "{next_two:?}");
    }

    #[test]
    fn len_tracks_both_lanes() {
        let mut q = FairQueue::new();
        assert!(q.is_empty());
        q.push(Priority::Interactive, ClientId(1), 1u32);
        q.push(Priority::Bulk, ClientId(2), 2u32);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn backlog_splits_the_limit_across_active_clients() {
        let mut b = Backlog::default();
        // One active client owns the whole limit of 4.
        b.admit(ClientId(7), 4).unwrap();
        b.admit(ClientId(7), 4).unwrap();
        // A second client makes the share 4 / 2 = 2: client 7 is full,
        // and the rejection reports the observed depth.
        b.admit(ClientId(9), 4).unwrap();
        assert_eq!(b.admit(ClientId(7), 4), Err(3));
        b.admit(ClientId(9), 4).unwrap();
        // A newcomer is under its share but the global bound is reached.
        assert_eq!(b.admit(ClientId(5), 4), Err(4));
        // Client 7 drains and leaves the active count; client 9 alone owns
        // the whole limit again.
        b.depart(ClientId(7));
        b.depart(ClientId(7));
        assert_eq!(b.clients.len(), 1);
        b.admit(ClientId(9), 4).unwrap();
        // Limit 0 is unbounded.
        b.admit(ClientId(9), 0).unwrap();
        b.admit(ClientId(9), 0).unwrap();
        assert_eq!((b.total, b.clients[&ClientId(9)]), (5, 5));
    }
}
