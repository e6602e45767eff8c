//! The authentication queue and *LastRequest register* (paper §4.1).
//!
//! Every block fetched from external memory enqueues one verification
//! request. A single MAC engine serves requests **in order**; completion
//! is broadcast as a monotone watermark, so "request *i* verified"
//! implies every earlier request verified too — the property
//! *authen-then-write* and *authen-then-fetch* rely on.

use secsim_stats::CounterSet;

/// Identifier of an authentication request.
///
/// `AuthId::NONE` (= 0) denotes "no request / verified long ago"; real
/// ids start at 1 and increase monotonically (the *LastRequest register*
/// holds the most recent one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AuthId(pub u64);

impl AuthId {
    /// The null id: nothing to wait for.
    pub const NONE: AuthId = AuthId(0);

    /// Whether this is a real request id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Authentication queue parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthQueueConfig {
    /// Queue capacity; a full queue back-pressures new requests
    /// (request start waits for a slot).
    pub capacity: usize,
    /// MAC engine latency per request, cycles (paper reference: 74 ns
    /// HMAC-SHA256 at 1 GHz).
    pub mac_latency: u64,
    /// Engine initiation interval, cycles: 0 = fully pipelined (a new
    /// verification may start every cycle), otherwise the engine is
    /// busy this long per request.
    pub initiation_interval: u64,
}

impl Default for AuthQueueConfig {
    fn default() -> Self {
        // Paper reference: a pipelined HMAC engine (the synthesized
        // SHA-256 is round-pipelined) with 74-cycle latency; a new
        // 512-bit block may enter every memory-bus clock.
        Self { capacity: 16, mac_latency: 74, initiation_interval: 5 }
    }
}

/// The in-order authentication request queue.
///
/// Timing is computed eagerly: a request's completion time is fixed when
/// it is enqueued, as `max(data arrival, engine availability, in-order
/// predecessor) + mac_latency`. Completion times are therefore monotone
/// in request id.
///
/// # Examples
///
/// ```
/// use secsim_core::{AuthQueue, AuthQueueConfig};
///
/// let mut q = AuthQueue::new(AuthQueueConfig { capacity: 4, mac_latency: 74, initiation_interval: 74 });
/// let first = q.request(1000, 0);
/// assert_eq!(q.done_time(first), 1074);
/// // A burst of requests serializes on the single engine:
/// let ids: Vec<_> = (0..3).map(|_| q.request(1000, 0)).collect();
/// assert_eq!(q.done_time(ids[2]), 1074 + 3 * 74);
/// ```
#[derive(Debug, Clone)]
pub struct AuthQueue {
    cfg: AuthQueueConfig,
    /// `done_times[i]` = completion cycle of request id `i + 1`.
    done_times: Vec<u64>,
    /// `start_times[i]` = cycle request `i + 1` began verification.
    start_times: Vec<u64>,
    /// `arrive_times[i]` = cycle request `i + 1`'s data arrived on chip
    /// (clamped monotone so binary search is valid).
    arrive_times: Vec<u64>,
    // Plain fields: bumped on every enqueue.
    requests: u64,
    queue_wait_cycles: u64,
}

impl AuthQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `mac_latency == 0`.
    pub fn new(cfg: AuthQueueConfig) -> Self {
        assert!(cfg.capacity > 0, "queue capacity must be positive");
        assert!(cfg.mac_latency > 0, "MAC latency must be positive");
        Self {
            cfg,
            done_times: Vec::new(),
            start_times: Vec::new(),
            arrive_times: Vec::new(),
            requests: 0,
            queue_wait_cycles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AuthQueueConfig {
        &self.cfg
    }

    /// Enqueues a verification request for data arriving at
    /// `data_ready`: shorthand for [`AuthQueue::request_arrived`] with
    /// both cycles equal. `extra_latency` adds scheme-specific work
    /// (hash-tree levels). Returns the request id — afterwards also
    /// readable from the *LastRequest register*
    /// ([`AuthQueue::last_request`]).
    pub fn request(&mut self, data_ready: u64, extra_latency: u64) -> AuthId {
        self.request_arrived(data_ready, data_ready, extra_latency)
    }

    /// Enqueues a verification request, distinguishing the cycle the
    /// block became *consumable* (`arrived` — critical word decrypted,
    /// which is when dependents can start using it and thus when the
    /// *authen-then-fetch* watermark must start counting it) from the
    /// cycle the full line + MAC is home (`data_ready` — when hashing
    /// can start). The secure memory controller makes one such request
    /// per external line fill.
    pub fn request_arrived(&mut self, arrived: u64, data_ready: u64, extra_latency: u64) -> AuthId {
        let n = self.done_times.len();
        // Engine availability: in-order, single engine with the
        // configured initiation interval.
        let engine_free = if n == 0 {
            0
        } else if self.cfg.initiation_interval == 0 {
            self.start_times[n - 1]
        } else {
            self.start_times[n - 1] + self.cfg.initiation_interval
        };
        // Slot availability: a full queue waits for the oldest
        // outstanding request to retire.
        let slot_free = if n >= self.cfg.capacity {
            self.done_times[n - self.cfg.capacity]
        } else {
            0
        };
        let start = data_ready.max(engine_free).max(slot_free);
        if start > data_ready {
            self.queue_wait_cycles += start - data_ready;
        }
        let prev_done = if n == 0 { 0 } else { self.done_times[n - 1] };
        // In-order completion broadcast: done times are monotone.
        let done = (start + self.cfg.mac_latency + extra_latency).max(prev_done);
        // Security-invariant oracle (active in debug/check builds):
        // the in-order completion broadcast the write/fetch gates rely
        // on — a request can never finish before its data is home or
        // before its in-order predecessor.
        if cfg!(any(debug_assertions, feature = "oracles")) {
            assert!(
                done >= prev_done && done >= data_ready && start >= data_ready,
                "auth-queue oracle: request {} done {done} (start {start}) violates \
                 in-order completion (prev_done {prev_done}, data_ready {data_ready})",
                n + 1,
            );
        }
        self.start_times.push(start);
        self.done_times.push(done);
        let prev_arrive = self.arrive_times.last().copied().unwrap_or(0);
        self.arrive_times.push(arrived.min(data_ready).max(prev_arrive));
        self.requests += 1;
        AuthId(n as u64 + 1)
    }

    /// The *LastRequest tag* gate of `authen-then-fetch` (§4.2.4): the
    /// completion cycle of the newest request whose data had **arrived**
    /// by cycle `t` — the verification watermark a memory fetch
    /// triggered by an instruction issued at `t` must wait for.
    ///
    /// Outstanding fetches (data still in flight at `t`) cannot be
    /// dependencies of an already-issued instruction, so — exactly as
    /// the paper's Figure 6 states — they "have no latency impact on
    /// this new memory fetch".
    pub fn watermark_before(&self, t: u64) -> u64 {
        let idx = self.arrive_times.partition_point(|&c| c <= t);
        if idx == 0 {
            0
        } else {
            self.done_times[idx - 1]
        }
    }

    /// Completion cycle of `id` (0 for [`AuthId::NONE`]).
    ///
    /// Because verification is in-order, this is also the cycle by which
    /// *every request up to and including* `id` has verified.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this queue.
    pub fn done_time(&self, id: AuthId) -> u64 {
        if id == AuthId::NONE {
            0
        } else {
            self.done_times[(id.0 - 1) as usize]
        }
    }

    /// The *LastRequest register*: id of the most recent request
    /// ([`AuthId::NONE`] if none yet).
    pub fn last_request(&self) -> AuthId {
        AuthId(self.done_times.len() as u64)
    }

    /// Cycle by which the queue as currently filled fully drains
    /// (completion of the last request; 0 when empty). This is the gate
    /// used by `drain-authen-then-fetch`.
    pub fn drain_time(&self) -> u64 {
        self.done_times.last().copied().unwrap_or(0)
    }

    /// Total requests ever enqueued.
    pub fn len(&self) -> usize {
        self.done_times.len()
    }

    /// Whether no request was ever enqueued.
    pub fn is_empty(&self) -> bool {
        self.done_times.is_empty()
    }

    /// Per-request `(arrive, start, done)` cycle triples in request-id
    /// order: when the block's data was home, when the MAC engine began
    /// verifying it, and when verification completed. Backs the trace
    /// layer's MAC-queue spans and auth-queue occupancy series.
    pub fn spans(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.arrive_times
            .iter()
            .zip(&self.start_times)
            .zip(&self.done_times)
            .map(|((&a, &s), &d)| (a, s, d))
    }

    /// Queue counters (`requests`, `queue_wait_cycles`), materialized on
    /// demand.
    pub fn counters(&self) -> CounterSet {
        [("requests", self.requests), ("queue_wait_cycles", self.queue_wait_cycles)]
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cap: usize, lat: u64) -> AuthQueue {
        AuthQueue::new(AuthQueueConfig { capacity: cap, mac_latency: lat, initiation_interval: lat })
    }

    #[test]
    fn single_request_timing() {
        let mut q = q(8, 74);
        let id = q.request(500, 0);
        assert_eq!(id, AuthId(1));
        assert_eq!(q.done_time(id), 574);
        assert_eq!(q.last_request(), id);
        assert_eq!(q.drain_time(), 574);
    }

    #[test]
    fn completion_is_monotone() {
        let mut q = q(8, 74);
        let mut last = 0;
        // Out-of-order data arrivals still verify in order.
        for ready in [100u64, 50, 300, 10, 250] {
            let id = q.request(ready, 0);
            let done = q.done_time(id);
            assert!(done >= last, "done times must be monotone");
            last = done;
        }
    }

    #[test]
    fn engine_serializes_bursts() {
        let mut q = q(8, 10);
        let ids: Vec<_> = (0..4).map(|_| q.request(0, 0)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(q.done_time(*id), 10 * (i as u64 + 1));
        }
    }

    #[test]
    fn pipelined_engine_overlaps() {
        let mut q = AuthQueue::new(AuthQueueConfig {
            capacity: 8,
            mac_latency: 10,
            initiation_interval: 1,
        });
        let a = q.request(0, 0);
        let b = q.request(0, 0);
        assert_eq!(q.done_time(a), 10);
        assert_eq!(q.done_time(b), 11);
    }

    #[test]
    fn capacity_backpressure() {
        let mut q = q(2, 10);
        let a = q.request(0, 0); // done 10
        let _b = q.request(0, 0); // done 20
        // Third request must wait for slot of `a` (free at 10):
        let c = q.request(0, 0);
        assert!(q.done_time(c) >= q.done_time(a) + 10);
        assert!(q.counters().get("queue_wait_cycles") > 0);
    }

    #[test]
    fn extra_latency_adds() {
        let mut q = q(8, 74);
        let id = q.request(100, 300); // hash-tree walk
        assert_eq!(q.done_time(id), 100 + 74 + 300);
    }

    #[test]
    fn dropped_verification_stalls_but_keeps_invariants() {
        // A MAC-drop fault is modeled as a huge extra latency: the queue
        // stays well-formed (monotone done times, sane drain) while the
        // verification result effectively never arrives — the pipeline's
        // max_cycles fence is what terminates such runs.
        let mut q = q(8, 74);
        let ok = q.request(100, 0);
        let dropped = q.request(200, crate::faults::MAC_DROP_DELAY);
        let after = q.request(300, 0);
        assert_eq!(q.done_time(ok), 174);
        assert!(q.done_time(dropped) >= crate::faults::MAC_DROP_DELAY);
        // In-order verification: everything behind the drop waits too.
        assert!(q.done_time(after) >= q.done_time(dropped));
        assert_eq!(q.drain_time(), q.done_time(after));
    }

    #[test]
    fn none_id_is_always_done() {
        let q = q(8, 74);
        assert_eq!(q.done_time(AuthId::NONE), 0);
        assert!(!AuthId::NONE.is_some());
        assert_eq!(q.last_request(), AuthId::NONE);
        assert!(q.is_empty());
    }

    #[test]
    fn watermark_before_selects_by_arrival_time() {
        let mut q = q(8, 74);
        q.request(200, 0); // data arrives 200 → done 274
        q.request(400, 0); // data arrives 400 → done ≥ 474
        assert_eq!(q.watermark_before(50), 0, "nothing had arrived yet");
        assert_eq!(q.watermark_before(200), 274);
        assert_eq!(q.watermark_before(399), 274, "second block still in flight");
        assert_eq!(q.watermark_before(400), q.drain_time());
        assert_eq!(q.watermark_before(u64::MAX), q.drain_time());
    }

    #[test]
    fn arrive_times_clamped_monotone() {
        let mut q = q(8, 10);
        q.request(500, 0);
        q.request(100, 0); // out-of-order arrival clamps to 500
        assert_eq!(q.watermark_before(499), 0);
        assert_eq!(q.watermark_before(500), q.drain_time());
    }

    #[test]
    fn request_arrived_counts_the_block_from_its_arrival() {
        // Verification starts once the whole line is home, but the
        // watermark counts the block from its arrival; an arrival after
        // `data_ready` clamps down to it.
        let mut q = q(8, 10);
        let a = q.request_arrived(90, 120, 0);
        assert_eq!(q.done_time(a), 130);
        assert_eq!(q.watermark_before(89), 0);
        assert_eq!(q.watermark_before(90), 130, "counted from arrival, not data_ready");
        let b = q.request_arrived(600, 500, 0);
        assert_eq!(q.done_time(b), 510);
        assert_eq!(q.watermark_before(499), 130);
        assert_eq!(q.watermark_before(500), 510, "a late arrival clamps to data_ready");
    }

    #[test]
    fn last_request_tracks() {
        let mut q = q(8, 74);
        q.request(0, 0);
        q.request(0, 0);
        assert_eq!(q.last_request(), AuthId(2));
        assert_eq!(q.len(), 2);
    }
}
