//! The authentication queue and *LastRequest register* (paper §4.1).
//!
//! Every block fetched from external memory enqueues one verification
//! request. A single MAC engine serves requests **in order**; completion
//! is broadcast as a monotone watermark, so "request *i* verified"
//! implies every earlier request verified too — the property
//! *authen-then-write* and *authen-then-fetch* rely on.

use secsim_stats::CounterSet;
use std::collections::VecDeque;

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
/// in request order.
///
/// The queue keeps what the hardware keeps, however long the run: the
/// cycle its engine frees, the newest request's done cycle (the
/// *LastRequest register*'s broadcast), the done cycles of the last
/// `capacity` requests (the slots a new request waits on), and the
/// arrivals a later [`AuthQueue::watermark_before`] query can still
/// select, which [`AuthQueue::forget_before`] prunes.
///
/// # Examples
///
/// ```
/// use secsim_core::{AuthQueue, AuthQueueConfig};
///
/// let mut q = AuthQueue::new(AuthQueueConfig { capacity: 4, mac_latency: 74, initiation_interval: 74 });
/// assert_eq!(q.request(1000, 0), 1074);
/// // A burst of requests serializes on the single engine:
/// let done: Vec<_> = (0..3).map(|_| q.request(1000, 0)).collect();
/// assert_eq!(done[2], 1074 + 3 * 74);
/// assert_eq!(q.drain_time(), done[2]);
/// ```
#[derive(Debug, Clone)]
pub struct AuthQueue {
    cfg: AuthQueueConfig,
    /// Cycle the engine may start the next request: the newest
    /// request's start plus the initiation interval (0 before the first).
    engine_free: u64,
    /// Completion cycle of the newest request, and so of every request
    /// (0 before the first).
    last_done: u64,
    /// The `capacity` queue slots, a ring of the last `capacity` done
    /// cycles: `slots[next_slot]` is the one `capacity` requests back
    /// (0 while never used).
    slots: Box<[u64]>,
    next_slot: usize,
    /// `(arrive, done)` of the newest request that had arrived by
    /// `horizon` and of every later one, arrivals ascending (each is
    /// clamped to its predecessor's, so binary search is valid).
    arrivals: VecDeque<(u64, u64)>,
    /// No watermark query may sample below this cycle.
    horizon: u64,
    /// Per-request `(arrive, start, done)`, kept only after
    /// [`AuthQueue::record_spans`].
    span_log: Option<Vec<(u64, u64, u64)>>,
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
            engine_free: 0,
            last_done: 0,
            slots: vec![0; cfg.capacity].into_boxed_slice(),
            next_slot: 0,
            arrivals: VecDeque::new(),
            horizon: 0,
            span_log: None,
            requests: 0,
            queue_wait_cycles: 0,
        }
    }

    /// Enqueues a verification request for data arriving at
    /// `data_ready`: shorthand for [`AuthQueue::request_arrived`] with
    /// both cycles equal. `extra_latency` adds scheme-specific work
    /// (hash-tree levels). Returns the request's completion cycle.
    pub fn request(&mut self, data_ready: u64, extra_latency: u64) -> u64 {
        self.request_arrived(data_ready, data_ready, extra_latency)
    }

    /// Enqueues a verification request, distinguishing the cycle the
    /// block became *consumable* (`arrived` — critical word decrypted,
    /// which is when dependents can start using it and thus when the
    /// *authen-then-fetch* watermark must start counting it) from the
    /// cycle the full line + MAC is home (`data_ready` — when hashing
    /// can start). The secure memory controller makes one such request
    /// per external line fill. Returns the request's completion cycle.
    pub fn request_arrived(&mut self, arrived: u64, data_ready: u64, extra_latency: u64) -> u64 {
        // Engine availability (in-order, single engine), and slot
        // availability: a full queue waits for the oldest outstanding
        // request to retire.
        let start = data_ready.max(self.engine_free).max(self.slots[self.next_slot]);
        if start > data_ready {
            self.queue_wait_cycles += start - data_ready;
        }
        let prev_done = self.last_done;
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
                self.requests + 1,
            );
        }
        self.engine_free = start + self.cfg.initiation_interval;
        self.last_done = done;
        self.slots[self.next_slot] = done;
        self.next_slot = (self.next_slot + 1) % self.slots.len();
        let prev_arrive = self.arrivals.back().map_or(0, |&(a, _)| a);
        let arrive = arrived.min(data_ready).max(prev_arrive);
        self.arrivals.push_back((arrive, done));
        if let Some(log) = self.span_log.as_mut() {
            log.push((arrive, start, done));
        }
        self.requests += 1;
        done
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
    ///
    /// `t` must be at or past every horizon passed to
    /// [`AuthQueue::forget_before`]; debug and `oracles` builds assert it.
    pub fn watermark_before(&self, t: u64) -> u64 {
        if cfg!(any(debug_assertions, feature = "oracles")) {
            assert!(
                t >= self.horizon,
                "auth-queue oracle: watermark sampled at cycle {t}, below the horizon {}",
                self.horizon,
            );
        }
        let idx = self.arrivals.partition_point(|&(a, _)| a <= t);
        if idx == 0 {
            0
        } else {
            self.arrivals[idx - 1].1
        }
    }

    /// Promises that no later [`AuthQueue::watermark_before`] query
    /// samples below `horizon`, and forgets every arrival such a query
    /// can no longer select: all but the newest that had arrived by
    /// `horizon`. A horizon below an earlier one changes nothing.
    pub fn forget_before(&mut self, horizon: u64) {
        self.horizon = self.horizon.max(horizon);
        while self.arrivals.get(1).is_some_and(|&(a, _)| a <= self.horizon) {
            self.arrivals.pop_front();
        }
    }

    /// Cycle by which the queue as currently filled fully drains
    /// (completion of the newest request; 0 when none was made). This
    /// is the gate used by `drain-authen-then-fetch`, and by
    /// `authen-then-write` as the LastRequest register's tag.
    pub fn drain_time(&self) -> u64 {
        self.last_done
    }

    /// Starts logging every later request's `(arrive, start, done)`
    /// cycles, readable via [`AuthQueue::spans`].
    pub fn record_spans(&mut self) {
        if self.span_log.is_none() {
            self.span_log = Some(Vec::new());
        }
    }

    /// Per-request `(arrive, start, done)` cycle triples in request
    /// order (empty unless [`AuthQueue::record_spans`] was called
    /// first): when the block's data was home, when the MAC engine began
    /// verifying it, and when verification completed. Backs the trace
    /// layer's MAC-queue spans and auth-queue occupancy series.
    pub fn spans(&self) -> &[(u64, u64, u64)] {
        self.span_log.as_deref().unwrap_or(&[])
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
        assert_eq!(q.request(500, 0), 574);
        assert_eq!(q.drain_time(), 574);
        assert_eq!(q.counters().get("requests"), 1);
    }

    #[test]
    fn completion_is_monotone() {
        let mut q = q(8, 74);
        let mut last = 0;
        // Out-of-order data arrivals still verify in order.
        for ready in [100u64, 50, 300, 10, 250] {
            let done = q.request(ready, 0);
            assert!(done >= last, "done times must be monotone");
            last = done;
        }
    }

    #[test]
    fn engine_serializes_bursts() {
        let mut q = q(8, 10);
        for i in 0..4 {
            assert_eq!(q.request(0, 0), 10 * (i + 1));
        }
    }

    #[test]
    fn pipelined_engine_overlaps() {
        let mut q = AuthQueue::new(AuthQueueConfig {
            capacity: 8,
            mac_latency: 10,
            initiation_interval: 1,
        });
        assert_eq!(q.request(0, 0), 10);
        assert_eq!(q.request(0, 0), 11);
    }

    #[test]
    fn capacity_backpressure() {
        let mut q = q(2, 10);
        let a = q.request(0, 0); // done 10
        let _b = q.request(0, 0); // done 20
        // Third request must wait for slot of `a` (free at 10):
        let c = q.request(0, 0);
        assert!(c >= a + 10);
        assert!(q.counters().get("queue_wait_cycles") > 0);
    }

    /// A fully pipelined engine behind two slots: the third and fourth
    /// requests each wait for the slot of the request two back, and the
    /// ring wraps onto the slot the first request freed.
    #[test]
    fn slots_ring_waits_on_the_request_capacity_back() {
        let mut q = AuthQueue::new(AuthQueueConfig {
            capacity: 2,
            mac_latency: 10,
            initiation_interval: 0,
        });
        let done = [0, 0, 0, 0, 100].map(|t| q.request(t, 0));
        assert_eq!(done, [10, 10, 20, 20, 110]);
        assert_eq!(q.counters().get("queue_wait_cycles"), 10 + 10);
    }

    #[test]
    fn extra_latency_adds() {
        let mut q = q(8, 74);
        assert_eq!(q.request(100, 300), 100 + 74 + 300); // hash-tree walk
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
        assert_eq!(ok, 174);
        assert!(dropped >= crate::faults::MAC_DROP_DELAY);
        // In-order verification: everything behind the drop waits too.
        assert!(after >= dropped);
        assert_eq!(q.drain_time(), after);
    }

    #[test]
    fn empty_queue_has_nothing_to_wait_for() {
        let q = q(8, 74);
        assert_eq!(q.drain_time(), 0);
        assert_eq!(q.watermark_before(u64::MAX), 0);
        assert_eq!(q.counters().get("requests"), 0);
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
    fn arrivals_clamped_monotone() {
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
        assert_eq!(q.request_arrived(90, 120, 0), 130);
        assert_eq!(q.watermark_before(89), 0);
        assert_eq!(q.watermark_before(90), 130, "counted from arrival, not data_ready");
        assert_eq!(q.request_arrived(600, 500, 0), 510);
        assert_eq!(q.watermark_before(499), 130);
        assert_eq!(q.watermark_before(500), 510, "a late arrival clamps to data_ready");
    }

    #[test]
    fn drain_time_tracks_the_newest_request() {
        let mut q = q(8, 74);
        q.request(0, 0);
        let newest = q.request(0, 0);
        assert_eq!(q.drain_time(), newest);
        assert_eq!(q.counters().get("requests"), 2);
    }

    /// Pruning keeps the newest arrival at or below the horizon and every
    /// later one, so each query at or past the horizon reads as before.
    #[test]
    fn forget_before_keeps_every_answer_at_or_past_the_horizon() {
        let mut q = q(8, 10);
        let done = [100, 200, 300, 400].map(|t| q.request(t, 0));
        q.forget_before(250);
        assert_eq!(q.arrivals.len(), 3, "only the arrival at 100 is forgotten");
        assert_eq!(q.watermark_before(250), done[1]);
        assert_eq!(q.watermark_before(399), done[2]);
        assert_eq!(q.watermark_before(400), done[3]);
        q.forget_before(150); // a lower horizon changes nothing
        assert_eq!(q.horizon, 250);
        assert_eq!(q.arrivals.len(), 3);
        q.forget_before(u64::MAX);
        assert_eq!(q.arrivals.len(), 1);
        assert_eq!(q.watermark_before(u64::MAX), done[3]);
    }

    /// A horizon that follows the arrivals holds the queue's state to its
    /// slots and a handful of arrivals, however many requests it served.
    #[test]
    fn state_stays_bounded_under_a_moving_horizon() {
        let mut q = q(16, 74);
        for t in 0..100_000u64 {
            q.forget_before(100 * t);
            q.request(100 * t + 300, 0);
            assert!(q.watermark_before(100 * t) <= q.drain_time());
        }
        assert!(q.arrivals.len() <= 4, "{} arrivals kept", q.arrivals.len());
        assert!(q.spans().is_empty(), "no span log unless recording");
    }

    #[test]
    fn spans_log_only_after_record_spans() {
        let mut q = q(8, 10);
        q.request(5, 0);
        q.record_spans();
        q.request_arrived(90, 120, 0);
        q.request(100, 0);
        assert_eq!(q.spans(), [(90, 120, 130), (100, 130, 140)]);
    }

    #[cfg(any(debug_assertions, feature = "oracles"))]
    #[test]
    #[should_panic(expected = "below the horizon 500")]
    fn a_watermark_below_the_horizon_trips_the_oracle() {
        let mut q = q(8, 10);
        q.request(100, 0);
        q.forget_before(500);
        q.watermark_before(499);
    }
}
