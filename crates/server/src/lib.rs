//! `secsim-serve`: simulation-as-a-service on top of
//! [`secsim_bench::Sweep`].
//!
//! The figure binaries all reduce to "run a grid of points, read the
//! reports". [`JobServer`] lifts that loop out of the CLI process into
//! a long-running service: clients submit sweep jobs over the
//! line-delimited JSON protocol of [`secsim_bench::protocol`],
//! a bounded queue feeds a worker pool that executes every point
//! through one shared [`Sweep`] — so N clients asking for the same
//! point share **one** simulation (in-process gates plus the store's
//! cross-process claim files), and every completed point lands in one
//! content-addressed [`ResultStore`] that
//! future jobs hit instead of simulating.
//!
//! # Resilience
//!
//! The server is built to survive misbehaving networks and clients:
//!
//! * **Job registry.** Every job lives in a registry keyed by its
//!   server-assigned id *and* by the content hash of its request
//!   ([`protocol::sweep_job_hash`]). Events are retained in a bounded
//!   per-job buffer with monotone sequence numbers, so a client that
//!   lost its connection can `resume {job, since_seq}` and replay only
//!   what it missed. A client that lost its *job id* resubmits; the
//!   content hash dedups the submission onto the original job —
//!   exactly-once execution either way.
//! * **Panic isolation.** The shared [`Sweep`] resolves each point
//!   under `catch_unwind`: a panic anywhere in its resolution (store
//!   load, simulation, store write) degrades to a typed
//!   [`SweepError::Failed`] hole in the job's results, published to
//!   everyone waiting on that point, and the worker survives to run the
//!   next job.
//! * **Load shedding.** A full queue answers `queue-full` with a
//!   `retry_after_ms` hint derived from the queue depth
//!   ([`retry_after_hint`]) so backoff across clients spreads out.
//! * **Crash-safe store.** [`JobServer::bind`] scavenges torn `.tmp-`
//!   and stale `.claim-` files left by crashed processes
//!   ([`ResultStore::scavenge`]); the counts surface in `status`.
//!
//! Lifecycle: [`JobServer::bind`] → [`JobServer::serve`], whose accept
//! blocks until a client connects, so a connection is served the moment
//! it arrives → a `shutdown` request, the one stop path (the
//! `secsim-serve` binary turns SIGINT into one), refuses new jobs and
//! connects once to the listener to wake the blocked accept → the
//! server drains the queue, waits for connected streams to deliver
//! their final `complete` events (never a bare EOF), flushes its
//! counters and job timeline under `results/`, and returns.
//!
//! Every sweep job is bounded by a wall-clock watchdog: points still
//! missing when the job's deadline passes are reported through the
//! existing [`SweepError::Failed`] degradation path — a slow grid costs
//! holes, never a wedged server.

use secsim_bench::protocol::{self, codes, Request};
use secsim_bench::{results_dir, ResultStore, Sweep, SweepError, SweepPoint};
use secsim_stats::{Json, Timeline};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything a [`JobServer`] needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 = ephemeral).
    pub addr: String,
    /// Concurrent jobs (worker threads popping the queue).
    pub workers: usize,
    /// Point-level parallelism within one sweep job.
    pub threads: usize,
    /// Bounded queue capacity; a full queue answers `queue-full` with a
    /// `retry_after_ms` hint.
    pub queue_cap: usize,
    /// Wall-clock budget per job; late points degrade to
    /// [`SweepError::Failed`].
    pub job_timeout: Duration,
    /// Directory of the content-addressed result store.
    pub store_dir: PathBuf,
    /// LRU byte budget for the store (`None` = unlimited).
    pub store_bytes: Option<u64>,
    /// Events retained per job for `resume`; older events answer
    /// `resume-too-old`.
    pub retain_events: usize,
    /// Completed jobs kept in the registry (resumable / dedup-able)
    /// before being forgotten.
    pub retain_jobs: usize,
    /// Override for the store's stale-claim deadline (`None` = store
    /// default).
    pub claim_wait: Option<Duration>,
    /// Override for the store's torn-tmp scavenge age (`None` = store
    /// default).
    pub scavenge_age: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self {
            addr: "127.0.0.1:2006".to_string(),
            workers: 2,
            threads: cores.div_ceil(2).max(1),
            queue_cap: 64,
            job_timeout: Duration::from_secs(600),
            store_dir: results_dir().join("cache"),
            store_bytes: None,
            retain_events: 4096,
            retain_jobs: 32,
            claim_wait: None,
            scavenge_age: None,
        }
    }
}

/// The `retry_after_ms` hint for a `queue-full` answer: linear in queue
/// fullness, 100ms when nearly empty to 2s when saturated. Spreading
/// hints by depth desynchronizes a thundering herd of backed-off
/// clients.
pub fn retry_after_hint(depth: usize, cap: usize) -> u64 {
    let cap = cap.max(1) as u64;
    let depth = (depth as u64).min(cap);
    100 + (1900 * depth) / cap
}

/// The bounded, sequence-numbered event history of one job.
struct EventBuf {
    /// Sequence number of `events[0]`. Starts at 1; advances past 1
    /// only when the retention cap discards old events.
    first_seq: u64,
    /// Sequence number the next pushed event will get.
    next_seq: u64,
    /// Whole wire lines, newline included; followers share them.
    events: VecDeque<Arc<str>>,
    /// Set once, after the final (`complete`) event.
    done: bool,
}

impl EventBuf {
    fn new() -> Self {
        Self { first_seq: 1, next_seq: 1, events: VecDeque::new(), done: false }
    }
}

/// One job in the registry: identity plus its event history. Workers
/// push events; any number of follower connections replay them.
struct JobState {
    id: u64,
    /// Content hash of the originating request (submission dedup).
    hash: u64,
    buf: Mutex<EventBuf>,
    ready: Condvar,
}

/// All jobs the server still remembers.
#[derive(Default)]
struct Registry {
    jobs: HashMap<u64, Arc<JobState>>,
    by_hash: HashMap<u64, u64>,
    /// Completed jobs in completion order, for bounded retention.
    done_order: VecDeque<u64>,
}

/// A job waiting for a worker.
struct QueuedJob {
    state: Arc<JobState>,
    points: Arc<Vec<SweepPoint>>,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    sweep: Sweep,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_ready: Condvar,
    queue_cap: usize,
    registry: Mutex<Registry>,
    retain_events: usize,
    retain_jobs: usize,
    /// Connections currently streaming job events; shutdown waits for
    /// this to reach zero so no client ever sees a bare EOF.
    streaming: AtomicUsize,
    /// Cleared when shutdown is requested: no new jobs.
    accepting: AtomicBool,
    /// [`JobServer::dial_addr`]: where `shutdown` connects to wake the
    /// blocked accept.
    wake: SocketAddr,
    active_jobs: AtomicU64,
    jobs_done: AtomicU64,
    next_job: AtomicU64,
    started: Instant,
    timeline: Mutex<Timeline>,
    threads: usize,
    job_timeout: Duration,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The `status` event object (also the shutdown flush payload).
    fn status_json(&self) -> Json {
        let stats = self.sweep.stats();
        let store = match self.sweep.store() {
            Some(s) => {
                let mut obj = s.counters().to_json();
                if let Json::Object(pairs) = &mut obj {
                    pairs.push((
                        "budget_bytes".to_string(),
                        s.budget().map_or(Json::Null, Json::UInt),
                    ));
                }
                obj
            }
            None => Json::Null,
        };
        let jobs_retained = self.registry.lock().expect("registry poisoned").jobs.len();
        Json::obj(vec![
            ("event", Json::Str("status".into())),
            ("protocol", Json::UInt(protocol::PROTOCOL_VERSION)),
            ("accepting", Json::Bool(self.accepting.load(Ordering::Relaxed))),
            (
                "queue_depth",
                Json::UInt(self.queue.lock().expect("queue poisoned").len() as u64),
            ),
            ("queue_cap", Json::UInt(self.queue_cap as u64)),
            ("active_jobs", Json::UInt(self.active_jobs.load(Ordering::Relaxed))),
            ("jobs_done", Json::UInt(self.jobs_done.load(Ordering::Relaxed))),
            ("jobs_retained", Json::UInt(jobs_retained as u64)),
            (
                "sweep",
                Json::obj(vec![
                    ("simulated", Json::UInt(stats.simulated)),
                    ("fanin", Json::UInt(stats.fanin)),
                    ("memo_hits", Json::UInt(stats.memo_hits)),
                ]),
            ),
            ("store", store),
            ("uptime_ms", Json::UInt(self.now_ms())),
        ])
    }

    /// Appends one event to a job's history: `render` gets the event's
    /// sequence number and returns its line. Applies the retention cap
    /// and wakes every follower.
    fn push_line(&self, state: &JobState, render: impl FnOnce(u64) -> String) {
        let mut buf = state.buf.lock().expect("event buf poisoned");
        let seq = buf.next_seq;
        buf.next_seq += 1;
        let mut line = render(seq);
        line.push('\n');
        buf.events.push_back(line.into());
        while buf.events.len() > self.retain_events {
            buf.events.pop_front();
            buf.first_seq += 1;
        }
        drop(buf);
        state.ready.notify_all();
    }

    /// [`push_line`](Shared::push_line) for the event object `pairs`,
    /// which gets its `seq` field last.
    fn push_event(&self, state: &JobState, mut pairs: Vec<(&str, Json)>) {
        self.push_line(state, |seq| {
            pairs.push(("seq", Json::UInt(seq)));
            Json::obj(pairs).render()
        });
    }

    /// Marks a job's stream finished and applies completed-job
    /// retention to the registry.
    fn finish_job(&self, state: &JobState) {
        {
            let mut buf = state.buf.lock().expect("event buf poisoned");
            buf.done = true;
        }
        state.ready.notify_all();
        let mut reg = self.registry.lock().expect("registry poisoned");
        reg.done_order.push_back(state.id);
        while reg.done_order.len() > self.retain_jobs {
            let Some(old) = reg.done_order.pop_front() else { break };
            if let Some(gone) = reg.jobs.remove(&old) {
                if reg.by_hash.get(&gone.hash) == Some(&old) {
                    reg.by_hash.remove(&gone.hash);
                }
            }
        }
    }
}

/// The job server. See the module docs.
pub struct JobServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

impl JobServer {
    /// Binds the listen socket, builds the shared store/sweep, and
    /// scavenges crash debris (torn `.tmp-`, stale `.claim-` files)
    /// from the store directory. The server accepts nothing until
    /// [`serve`](JobServer::serve).
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let mut store = ResultStore::new(cfg.store_dir.clone()).with_budget(cfg.store_bytes);
        if let Some(wait) = cfg.claim_wait {
            store = store.with_claim_wait(wait);
        }
        if let Some(age) = cfg.scavenge_age {
            store = store.with_scavenge_age(age);
        }
        let (tmp, claims) = store.scavenge();
        if tmp + claims > 0 {
            eprintln!("secsim-serve: scavenged {tmp} torn tmp file(s), {claims} stale claim(s)");
        }
        let shared = Arc::new(Shared {
            sweep: Sweep::new().with_store(store),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            queue_cap: cfg.queue_cap.max(1),
            registry: Mutex::new(Registry::default()),
            retain_events: cfg.retain_events.max(1),
            retain_jobs: cfg.retain_jobs.max(1),
            streaming: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            wake,
            active_jobs: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            started: Instant::now(),
            timeline: Mutex::new(Timeline::new()),
            threads: cfg.threads.max(1),
            job_timeout: cfg.job_timeout,
        });
        Ok(Self { listener, shared, workers: cfg.workers.max(1) })
    }

    /// The bound address (reports the real port when 0 was requested).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The address a client on this host dials to reach the server:
    /// [`local_addr`](JobServer::local_addr) with an unspecified bind IP
    /// (`0.0.0.0`, `::`) mapped to loopback.
    pub fn dial_addr(&self) -> SocketAddr {
        self.shared.wake
    }

    /// Runs the accept loop until a `shutdown` request, then drains the
    /// queue, joins the workers, waits for in-flight client streams to
    /// finish, and flushes status + timeline under `results/`. Returns
    /// the final status object.
    pub fn serve(self) -> std::io::Result<Json> {
        let worker_handles: Vec<_> = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        // Accept blocks until a client connects; a `shutdown` request
        // wakes it with a connection of its own after clearing
        // `accepting` (see handle_connection). Only a failing accept
        // (EMFILE and the like) backs off, so a persistent error cannot
        // spin.
        while self.shared.accepting.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) if self.shared.accepting.load(Ordering::SeqCst) => {
                    stream.set_nodelay(true).ok();
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || {
                        let _ = handle_connection(&shared, stream);
                    });
                }
                // The shutdown wake, or a client that raced it: closed
                // like a connection still waiting in the backlog.
                Ok(_) => {}
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }

        // Drain: workers exit once the queue is empty (accepting is
        // already false, so nothing refills it). Every queued job still
        // runs to completion.
        self.shared.queue_ready.notify_all();
        for h in worker_handles {
            let _ = h.join();
        }
        // Shutdown-race guarantee: connections still replaying events
        // get to deliver their final `complete` before the process can
        // exit — a mid-stream client never sees a bare EOF. Bounded so
        // a wedged socket cannot hold shutdown hostage.
        let stream_deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.streaming.load(Ordering::Relaxed) > 0
            && Instant::now() < stream_deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = self.shared.status_json();
        // Flush next to the store (results/ for the default config) so
        // an ad-hoc server never litters the global results directory.
        let dir = self
            .shared
            .sweep
            .store()
            .and_then(|s| s.dir().parent().map(std::path::Path::to_path_buf))
            .unwrap_or_else(results_dir);
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(dir.join("server_status.json"), status.render());
        let timeline = self.shared.timeline.lock().expect("timeline poisoned");
        if !timeline.is_empty() {
            let _ = std::fs::write(
                dir.join("server_timeline.json"),
                timeline.to_chrome_trace().render(),
            );
        }
        Ok(status)
    }
}

/// Pops and runs jobs until shutdown is requested and the queue is dry.
/// The whole job body runs under `catch_unwind`: a panic that somehow
/// escapes the sweep's per-point isolation still finishes the job's
/// event stream and leaves the worker alive for the next job.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if !shared.accepting.load(Ordering::Relaxed) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("queue poisoned");
                q = guard;
            }
        };
        let Some(QueuedJob { state, points }) = job else { return };
        shared.active_jobs.fetch_add(1, Ordering::Relaxed);
        let begin = shared.now_ms();
        let id = state.id;
        let mut complete = vec![("event", Json::Str("complete".into())), ("job", Json::UInt(id))];
        match catch_unwind(AssertUnwindSafe(|| run_sweep_job(shared, &state, points))) {
            Ok((ok, failed)) => {
                complete.push(("ok", Json::UInt(ok)));
                complete.push(("failed", Json::UInt(failed)));
            }
            Err(_) => {
                // Last-resort containment: the stream still terminates
                // with a `complete` so no follower waits forever.
                complete.push(("ok", Json::UInt(0)));
                complete.push(("failed", Json::UInt(0)));
                complete.push(("degraded", Json::Str("job runner panicked".into())));
            }
        }
        let end = shared.now_ms();
        shared
            .timeline
            .lock()
            .expect("timeline poisoned")
            .push_span("jobs", &format!("sweep#{id}"), begin, end.max(begin + 1));
        // Count the job before publishing its `complete`: a client that
        // saw `complete` and then asks `status` must find it done.
        shared.active_jobs.fetch_sub(1, Ordering::Relaxed);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        shared.push_event(&state, complete);
        shared.finish_job(&state);
    }
}

/// Executes one sweep grid through the shared [`Sweep`] and returns its
/// `(ok, failed)` counts; the caller publishes the final `complete`
/// event. Points fan across `shared.threads` detached runner threads,
/// each answered with its report's rendered JSON, which the sweep's
/// memo keeps, and the job-level wall-clock watchdog collects results:
/// a point that misses the deadline is abandoned (its runner thread
/// still finishes and warms the store for whoever asks next) and
/// reported as [`SweepError::Failed`].
fn run_sweep_job(
    shared: &Arc<Shared>,
    state: &Arc<JobState>,
    points: Arc<Vec<SweepPoint>>,
) -> (u64, u64) {
    shared.push_event(
        state,
        vec![("event", Json::Str("running".into())), ("job", Json::UInt(state.id))],
    );
    let n = points.len();
    let (ptx, prx) = mpsc::channel::<(usize, Result<Arc<str>, SweepError>)>();
    let next = Arc::new(AtomicUsize::new(0));
    for _ in 0..shared.threads.min(n) {
        let shared = Arc::clone(shared);
        let points = Arc::clone(&points);
        let next = Arc::clone(&next);
        let ptx = ptx.clone();
        std::thread::spawn(move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= points.len() {
                break;
            }
            let r = shared.sweep.run_point_rendered(&points[i]);
            if ptx.send((i, r)).is_err() {
                break; // job watchdog gave up on us
            }
        });
    }
    drop(ptx);

    let deadline = Instant::now() + shared.job_timeout;
    let mut seen = vec![false; n];
    let (mut ok, mut failed, mut done) = (0u64, 0u64, 0usize);
    while done < n {
        let remain = deadline.saturating_duration_since(Instant::now());
        match prx.recv_timeout(remain) {
            Ok((i, r)) => {
                seen[i] = true;
                done += 1;
                if r.is_ok() {
                    ok += 1;
                } else {
                    failed += 1;
                }
                shared.push_line(state, |seq| {
                    protocol::point_done_line(state.id, i as u64, r.as_deref(), seq)
                });
            }
            Err(_) => break, // deadline passed (or all runners gone)
        }
    }
    // The watchdog degradation path: late points become typed holes.
    for (i, seen) in seen.iter().enumerate() {
        if *seen {
            continue;
        }
        failed += 1;
        let err = SweepError::Failed {
            bench: points[i].bench.name().to_string(),
            detail: format!(
                "job watchdog: wall-clock timeout after {}s",
                shared.job_timeout.as_secs()
            ),
        };
        shared
            .push_line(state, |seq| protocol::point_done_line(state.id, i as u64, Err(&err), seq));
    }
    (ok, failed)
}

/// What a submission turned into.
enum Submit {
    /// A fresh job was queued.
    Queued(Arc<JobState>),
    /// An identical submission (by content hash) is already known; the
    /// caller follows the existing job's stream instead.
    Attached(Arc<JobState>),
    /// Refused with a pre-rendered error line (`shutting-down` or
    /// `queue-full` + `retry_after_ms`).
    Refused(String),
}

/// Admits one submission: dedups by content hash onto a live or
/// retained job, otherwise queues a fresh one (respecting the drain
/// flag and the bounded queue). The registry lock spans the whole
/// decision so two identical concurrent submissions cannot both queue.
fn submit_or_attach(shared: &Arc<Shared>, hash: u64, points: Arc<Vec<SweepPoint>>) -> Submit {
    if !shared.accepting.load(Ordering::Relaxed) {
        return Submit::Refused(protocol::error_line(
            codes::SHUTTING_DOWN,
            "server is draining; no new jobs",
        ));
    }
    let mut reg = shared.registry.lock().expect("registry poisoned");
    if let Some(state) = reg.by_hash.get(&hash).and_then(|id| reg.jobs.get(id)) {
        // Attach only when the full event history is still replayable;
        // a job whose buffer already overflowed would strand the new
        // follower at `resume-too-old`. A fresh job is correct either
        // way — the store dedups the actual simulation work.
        if state.buf.lock().expect("event buf poisoned").first_seq == 1 {
            return Submit::Attached(Arc::clone(state));
        }
    }
    let mut q = shared.queue.lock().expect("queue poisoned");
    if q.len() >= shared.queue_cap {
        let hint = retry_after_hint(q.len(), shared.queue_cap);
        return Submit::Refused(protocol::queue_full_line(hint));
    }
    let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
    let state = Arc::new(JobState {
        id,
        hash,
        buf: Mutex::new(EventBuf::new()),
        ready: Condvar::new(),
    });
    reg.jobs.insert(id, Arc::clone(&state));
    reg.by_hash.insert(hash, id);
    q.push_back(QueuedJob { state: Arc::clone(&state), points });
    let depth = q.len() as f64;
    drop(q);
    drop(reg);
    let ts = shared.now_ms();
    shared
        .timeline
        .lock()
        .expect("timeline poisoned")
        .push_counter("queue", ts, depth);
    shared.queue_ready.notify_one();
    Submit::Queued(state)
}

/// Counts a connection into the streaming gauge for its lifetime (the
/// shutdown path waits for this gauge to drain).
struct StreamGuard<'a>(&'a Shared);

impl<'a> StreamGuard<'a> {
    fn new(shared: &'a Shared) -> Self {
        shared.streaming.fetch_add(1, Ordering::SeqCst);
        Self(shared)
    }
}

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.0.streaming.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Sends one line (an event or a typed error) in a single write.
fn send_line(writer: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Sends a batch of event lines with vectored writes: one `writev` for
/// up to the system's `IOV_MAX` lines, with no copy into a send buffer.
fn send_lines(writer: &mut TcpStream, lines: &[Arc<str>]) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice> = lines.iter().map(|l| IoSlice::new(l.as_bytes())).collect();
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Replays a job's events with sequence numbers `> since` to the
/// client, waiting for new ones until the job completes. Answers
/// `resume-too-old` when the retention cap already discarded requested
/// events, and `resume-past-end` when `since` is at or past the job's
/// next sequence number (it names events the job never sent). Returns
/// `Ok` even if the client vanished mid-stream — the job itself is
/// unaffected.
fn follow(
    shared: &Shared,
    writer: &mut TcpStream,
    state: &JobState,
    mut since: u64,
) -> std::io::Result<()> {
    let _guard = StreamGuard::new(shared);
    loop {
        enum Step {
            TooOld(u64),
            PastEnd(u64),
            /// Events ready to send, and whether the job is done.
            Batch(Vec<Arc<str>>, bool),
        }
        let step = {
            let mut buf = state.buf.lock().expect("event buf poisoned");
            loop {
                // A cursor from an earlier server run that reused the
                // job id, or a forged one: waiting for its events would
                // stall the client until its read timeout.
                if since >= buf.next_seq {
                    break Step::PastEnd(buf.next_seq - 1);
                }
                // `first_seq >= 1` and `since < next_seq`: no overflow.
                if since < buf.first_seq - 1 {
                    break Step::TooOld(buf.first_seq);
                }
                let start = (since - (buf.first_seq - 1)) as usize;
                if start < buf.events.len() {
                    break Step::Batch(buf.events.range(start..).cloned().collect(), buf.done);
                }
                if buf.done {
                    break Step::Batch(Vec::new(), true);
                }
                let (guard, _) = state
                    .ready
                    .wait_timeout(buf, Duration::from_millis(100))
                    .expect("event buf poisoned");
                buf = guard;
            }
        };
        match step {
            Step::TooOld(first) => {
                let detail = format!("events before seq {first} were discarded; resubmit the job");
                return send_line(writer, protocol::error_line(codes::RESUME_TOO_OLD, &detail));
            }
            Step::PastEnd(last) => {
                let detail = format!(
                    "cursor {since} is past the job's last event (seq {last}); resubmit the job"
                );
                return send_line(writer, protocol::error_line(codes::RESUME_PAST_END, &detail));
            }
            Step::Batch(batch, done) => {
                if send_lines(writer, &batch).is_err() {
                    // Client gone; the job keeps running and its events
                    // stay resumable.
                    return Ok(());
                }
                since += batch.len() as u64;
                if done {
                    return Ok(());
                }
            }
        }
    }
}

/// Serves one client connection: reads request lines (bounded), answers
/// each with events. Parse failures answer typed errors and keep the
/// connection; transport failures close it. Jobs execute on the worker
/// pool, never here — a malformed request can never panic a worker.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let mut line = String::new();
        // Bound the line *before* buffering it: a request without a
        // newline inside the cap is oversized; EOF mid-line is
        // truncated.
        let n = (&mut reader)
            .take(protocol::MAX_REQUEST_BYTES as u64 + 1)
            .read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // clean EOF between requests
        }
        if line.len() > protocol::MAX_REQUEST_BYTES {
            let detail = format!("request exceeds {} bytes", protocol::MAX_REQUEST_BYTES);
            let _ = send_line(&mut writer, protocol::error_line(codes::OVERSIZED_REQUEST, &detail));
            return Ok(()); // the rest of the stream is unframed garbage
        }
        if !line.ends_with('\n') {
            // EOF mid-line: the client died or sent an unterminated
            // request. Typed answer on a best-effort basis, then close.
            let detail = "connection closed mid-request";
            let _ = send_line(&mut writer, protocol::error_line(codes::TRUNCATED, detail));
            return Ok(());
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match protocol::parse_request(trimmed) {
            Err(e) => send_line(&mut writer, e.to_line())?,
            Ok(Request::Status) => send_line(&mut writer, shared.status_json().render())?,
            Ok(Request::Shutdown) => {
                // The one stop path: refuse new jobs, wake idle workers
                // so they drain the queue and exit, acknowledge, then
                // connect once to the listener so the accept blocked in
                // `JobServer::serve` returns and sees `accepting` cleared.
                shared.accepting.store(false, Ordering::SeqCst);
                shared.queue_ready.notify_all();
                let ack = Json::obj(vec![("event", Json::Str("shutting-down".into()))]);
                let _ = send_line(&mut writer, ack.render());
                let _ = TcpStream::connect(shared.wake);
                return Ok(());
            }
            Ok(Request::Sweep { points }) => submit_and_stream(shared, &mut writer, points)?,
            Ok(Request::Resume { job, since_seq }) => {
                let state = {
                    let reg = shared.registry.lock().expect("registry poisoned");
                    reg.jobs.get(&job).map(Arc::clone)
                };
                match state {
                    None => {
                        let detail = format!("job {job} is not retained; resubmit");
                        send_line(&mut writer, protocol::error_line(codes::UNKNOWN_JOB, &detail))?;
                    }
                    Some(state) => {
                        let resumed = Json::obj(vec![
                            ("event", Json::Str("resumed".into())),
                            ("job", Json::UInt(job)),
                            ("since_seq", Json::UInt(since_seq)),
                        ]);
                        send_line(&mut writer, resumed.render())?;
                        follow(shared, &mut writer, &state, since_seq)?;
                    }
                }
            }
        }
    }
}

/// Admits one sweep submission and streams the job's events to the
/// client from the beginning.
fn submit_and_stream(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    points: Vec<SweepPoint>,
) -> std::io::Result<()> {
    let n = points.len();
    let hash = protocol::sweep_job_hash(&points);
    let (state, attached) = match submit_or_attach(shared, hash, Arc::new(points)) {
        Submit::Refused(line) => return send_line(writer, line),
        Submit::Queued(state) => (state, false),
        Submit::Attached(state) => (state, true),
    };
    let queued = Json::obj(vec![
        ("event", Json::Str("queued".into())),
        ("job", Json::UInt(state.id)),
        ("points", Json::UInt(n as u64)),
        ("attached", Json::Bool(attached)),
    ]);
    send_line(writer, queued.render())?;
    follow(shared, writer, &state, 0)
}

#[cfg(test)]
mod tests {
    use super::retry_after_hint;

    #[test]
    fn retry_hint_scales_with_queue_depth() {
        // Nearly-empty queue: minimal hint.
        assert_eq!(retry_after_hint(0, 64), 100);
        // Saturated queue: full 2s hint (and depth is clamped to cap).
        assert_eq!(retry_after_hint(64, 64), 2000);
        assert_eq!(retry_after_hint(1000, 64), 2000);
        // Monotone in between.
        let hints: Vec<u64> = (0..=64).map(|d| retry_after_hint(d, 64)).collect();
        assert!(hints.windows(2).all(|w| w[0] <= w[1]));
        // Degenerate cap never divides by zero.
        assert_eq!(retry_after_hint(5, 0), 2000);
    }
}
