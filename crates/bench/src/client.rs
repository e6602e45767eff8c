//! The resilient client of `secsim-serve`: submit a job over the
//! line-delimited JSON protocol (see [`crate::protocol`]) and stream
//! the results back, surviving transport faults along the way.
//!
//! This is what `--server ADDR` on any figure binary routes through:
//! [`run_sweep`] sends the full grid, collects `point-done` events and
//! returns reports **in grid order**, exactly shaped like
//! [`Sweep::run`](crate::Sweep::run)'s return value — so a binary
//! cannot tell (and its output cannot differ) whether its grid ran
//! in-process or on a server.
//!
//! # Resilience
//!
//! Every job call runs through one retry engine ([`RetryPolicy`]):
//!
//! * **Connect errors and `queue-full`** back off exponentially with
//!   deterministic jitter (capped; the store's file retries sleep by the
//!   same rule); a `queue-full` answer carrying a `retry_after_ms` hint
//!   sleeps that long instead.
//! * **Disconnects mid-stream** (EOF, resets, garbage lines, read
//!   timeouts) reconnect and send `resume {job, since_seq}` — the
//!   server replays only the missed events, identified by their
//!   monotone sequence numbers; duplicates are skipped client-side.
//! * **`resume-too-old` / `resume-past-end` / `unknown-job`** fall
//!   back to resubmission; the server dedups the submission by content
//!   hash, so the job is never executed twice.
//! * **Read timeouts** ([`RetryPolicy::read_timeout`]) turn a silently
//!   wedged connection (a black-holed socket, a dead server) into a
//!   typed [`ClientError::Timeout`] and a reconnect instead of blocking
//!   forever.
//!
//! Unrecoverable answers (`bad-request`, `shutting-down`, …) and
//! exhausted retry budgets abort the call: a half-delivered grid is
//! never returned.

use crate::protocol::{self, codes};
use crate::{SweepError, SweepPoint};
use secsim_cpu::SimReport;
use secsim_stats::Json;
use secsim_workloads::SplitMix64;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a server interaction failed. Any of these aborts the client
/// call: a half-delivered grid is never returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connecting, sending or receiving failed at the socket level.
    Io(String),
    /// The server sent something that is not a protocol event.
    Protocol(String),
    /// No byte arrived within the configured read timeout.
    Timeout {
        /// The timeout that fired, in milliseconds.
        ms: u64,
    },
    /// The server answered with a typed `error` event.
    Server {
        /// One of the [`codes`] constants.
        code: String,
        /// Server-provided detail.
        detail: String,
        /// Backoff hint from a `queue-full` answer.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::Timeout { ms } => write!(f, "no server event within {ms}ms"),
            ClientError::Server { code, detail, .. } => {
                write!(f, "server error [{code}]: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// How hard the client tries before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failures tolerated before the call aborts with the
    /// last error. Progress (any new event) resets the count.
    pub attempts: u32,
    /// First backoff step in milliseconds; doubles per consecutive
    /// failure.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Read timeout per event; a silent connection older than this is
    /// declared dead ([`ClientError::Timeout`]) and retried.
    pub read_timeout: Duration,
    /// Seed for the backoff jitter (deterministic runs replay their
    /// sleep schedule).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            base_ms: 50,
            cap_ms: 2000,
            read_timeout: Duration::from_secs(60),
            seed: 0x5ec5_c11e,
        }
    }
}

/// The sleep before retrying after the `n`-th consecutive failure
/// (`n >= 1`), in the unit of `base` and `cap`: a capped exponential
/// with equal jitter, drawn from `[d/2, d]` for
/// `d = min(base · 2^(n−1), cap)` (the doubling stops after 16 steps).
/// The client's reconnects and the store's file retries both back off
/// by this rule.
pub(crate) fn backoff(base: u64, cap: u64, n: u32, rng: &mut SplitMix64) -> u64 {
    let exp = n.saturating_sub(1).min(16);
    let d = base.saturating_mul(1u64 << exp).min(cap).max(1);
    d / 2 + rng.next_u64() % (d / 2 + 1)
}

/// What the retry engine did on a job's behalf — surfaced so callers
/// (and the chaos harness) can assert the resilience path was actually
/// exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful connections (1 for a fault-free run).
    pub connects: u64,
    /// Connections beyond the first (each one recovered a fault).
    pub reconnects: u64,
    /// `resume` requests sent (reconnects that kept the job id).
    pub resumes: u64,
    /// Full resubmissions (job id lost or rejected; server-side content
    /// dedup keeps execution exactly-once).
    pub resubmits: u64,
    /// `queue-full` answers honored with a backoff sleep.
    pub queue_full: u64,
    /// Read timeouts that killed a wedged connection.
    pub timeouts: u64,
}

/// A connected protocol session: one request out, a stream of events
/// back.
struct Session {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    timeout_ms: u64,
}

impl Session {
    fn connect(addr: &str, read_timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1)))).ok();
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
            timeout_ms: read_timeout.as_millis() as u64,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next event object; `Ok(None)` at EOF. Typed server
    /// errors surface as [`ClientError::Server`]; an expired read
    /// timeout as [`ClientError::Timeout`]. Either way the session is
    /// dead afterwards (a timeout may have consumed a partial line).
    fn next_event(&mut self) -> Result<Option<Json>, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ClientError::Timeout { ms: self.timeout_ms });
            }
            Err(e) => return Err(e.into()),
        }
        if !line.ends_with('\n') {
            // EOF (or a timeout surfaced as a short read) mid-line: the
            // transport truncated an event. Never parse half a line.
            return Err(ClientError::Io("stream ended mid-event".to_string()));
        }
        let v = Json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable event line: {e}")))?;
        if v.get("event").and_then(Json::as_str) == Some("error") {
            return Err(ClientError::Server {
                code: v.get("code").and_then(Json::as_str).unwrap_or("?").to_string(),
                detail: v.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
            });
        }
        Ok(Some(v))
    }
}

/// What [`drive`]'s event callback wants next.
enum Feed {
    /// Keep streaming.
    More,
    /// The job's final event arrived; the call is done.
    Done,
}

/// The retry engine behind every job call. Connects (with backoff),
/// submits, and streams events through `on_event` until it reports the
/// job done. On any transport fault it reconnects and resumes from the
/// last processed sequence number; when the job id is lost or rejected
/// it resubmits (server-side dedup keeps execution exactly-once) and
/// the replayed events reach `on_event` again, so what it keeps must be
/// keyed by the event (a sweep's grid index), not by arrival order.
fn drive(
    addr: &str,
    submit_line: &str,
    policy: RetryPolicy,
    mut on_event: impl FnMut(&Json) -> Result<Feed, String>,
) -> Result<ClientStats, ClientError> {
    let mut stats = ClientStats::default();
    let mut rng = SplitMix64::new(policy.seed);
    let mut failures: u32 = 0;
    let mut last_err = ClientError::Io("no attempt made".to_string());
    // Server-assigned job id + last event sequence number we processed;
    // together they are the resume cursor.
    let mut job: Option<u64> = None;
    let mut last_seq: u64 = 0;
    let mut skip_backoff = false;

    // One iteration = one connection's lifetime.
    loop {
        if failures >= policy.attempts.max(1) {
            return Err(last_err);
        }
        if failures > 0 && !std::mem::take(&mut skip_backoff) {
            // A queue-full hint already slept instead (see below).
            let ms = backoff(policy.base_ms, policy.cap_ms, failures, &mut rng);
            std::thread::sleep(Duration::from_millis(ms));
        }
        let mut session = match Session::connect(addr, policy.read_timeout) {
            Ok(s) => s,
            Err(e) => {
                failures += 1;
                last_err = e;
                continue;
            }
        };
        stats.connects += 1;
        if stats.connects > 1 {
            stats.reconnects += 1;
        }
        let sent = match job {
            Some(id) => {
                stats.resumes += 1;
                session.send(&protocol::resume_request(id, last_seq))
            }
            None => {
                if stats.connects > 1 || stats.resubmits > 0 {
                    stats.resubmits += 1;
                    // A fresh submission restarts the event stream from
                    // seq 1.
                    last_seq = 0;
                }
                session.send(submit_line)
            }
        };
        if let Err(e) = sent {
            failures += 1;
            last_err = e;
            continue;
        }

        // Stream this connection until the job finishes or the
        // connection dies.
        loop {
            match session.next_event() {
                Ok(Some(ev)) => {
                    match ev.get("event").and_then(Json::as_str) {
                        Some("queued") => {
                            job = ev.get("job").and_then(Json::as_u64).or(job);
                            continue;
                        }
                        Some("resumed") => continue,
                        _ => {}
                    }
                    // Job-stream events carry monotone sequence
                    // numbers; a resume replay may overlap what we
                    // already processed.
                    if let Some(seq) = ev.get("seq").and_then(Json::as_u64) {
                        if seq <= last_seq {
                            continue;
                        }
                        last_seq = seq;
                    }
                    failures = 0; // progress: the budget refills
                    match on_event(&ev) {
                        Ok(Feed::More) => continue,
                        Ok(Feed::Done) => return Ok(stats),
                        Err(msg) => {
                            // Semantically broken stream: start the job
                            // over from scratch (bounded like any other
                            // failure).
                            failures += 1;
                            last_err = ClientError::Protocol(msg);
                            job = None;
                            last_seq = 0;
                            break;
                        }
                    }
                }
                Ok(None) => {
                    // Bare EOF mid-job: reconnect and resume.
                    failures += 1;
                    last_err = ClientError::Io("connection closed mid-job".to_string());
                    break;
                }
                Err(ClientError::Timeout { ms }) => {
                    stats.timeouts += 1;
                    failures += 1;
                    last_err = ClientError::Timeout { ms };
                    break;
                }
                Err(ClientError::Server { code, detail, retry_after_ms }) => {
                    match code.as_str() {
                        c if c == codes::QUEUE_FULL => {
                            stats.queue_full += 1;
                            failures += 1;
                            last_err =
                                ClientError::Server { code, detail, retry_after_ms };
                            // Honor the server's load-shedding hint
                            // instead of this round's generic backoff.
                            if failures < policy.attempts.max(1) {
                                let ms = retry_after_ms
                                    .unwrap_or(policy.cap_ms)
                                    .clamp(1, 10_000);
                                std::thread::sleep(Duration::from_millis(ms));
                                skip_backoff = true;
                            }
                            break;
                        }
                        c if c == codes::TRUNCATED => {
                            // The network cut our request line mid-way;
                            // the request never ran. Retry it.
                            failures += 1;
                            last_err =
                                ClientError::Server { code, detail, retry_after_ms };
                            break;
                        }
                        c if c == codes::RESUME_TOO_OLD
                            || c == codes::RESUME_PAST_END
                            || c == codes::UNKNOWN_JOB =>
                        {
                            // The resume cursor is stale; fall back to
                            // resubmission (dedup keeps it exactly-once).
                            failures += 1;
                            last_err =
                                ClientError::Server { code, detail, retry_after_ms };
                            job = None;
                            last_seq = 0;
                            break;
                        }
                        _ => {
                            // bad-request, shutting-down, …: retrying
                            // cannot help.
                            return Err(ClientError::Server { code, detail, retry_after_ms });
                        }
                    }
                }
                Err(e) => {
                    // Io / Protocol (garbage bytes, resets): the
                    // connection is poisoned; reconnect and resume.
                    failures += 1;
                    last_err = e;
                    break;
                }
            }
        }
    }
}

/// Submits `points` as one sweep job and returns the results in grid
/// order — the remote counterpart of [`Sweep::run`](crate::Sweep::run)
/// — using the default [`RetryPolicy`].
pub fn run_sweep(
    addr: &str,
    points: &[SweepPoint],
) -> Result<Vec<Result<SimReport, SweepError>>, ClientError> {
    run_sweep_with(addr, points, RetryPolicy::default()).map(|(results, _)| results)
}

/// [`run_sweep`] with an explicit retry policy; also returns what the
/// retry engine had to do (reconnects, resumes, …).
pub fn run_sweep_with(
    addr: &str,
    points: &[SweepPoint],
    policy: RetryPolicy,
) -> Result<(Vec<Result<SimReport, SweepError>>, ClientStats), ClientError> {
    let submit = protocol::sweep_request_v2(points);
    let mut results: Vec<Option<Result<SimReport, SweepError>>> = vec![None; points.len()];
    // Results are keyed by grid index and deterministic: a replay
    // overwrites them with identical values, so restarts keep them.
    let stats = drive(addr, &submit, policy, |ev| match ev.get("event").and_then(Json::as_str) {
        Some("running") => Ok(Feed::More),
        Some("point-done") => {
            let i = ev
                .get("index")
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .filter(|&n| n < points.len())
                .ok_or_else(|| "point-done with a bad index".to_string())?;
            results[i] = Some(protocol::result_from_json(ev)?);
            Ok(Feed::More)
        }
        Some("complete") => {
            if results.iter().all(Option::is_some) {
                Ok(Feed::Done)
            } else {
                Err("job completed with missing points".to_string())
            }
        }
        other => Err(format!("unexpected event {other:?}")),
    })?;
    let collected = results
        .into_iter()
        .map(|r| r.expect("complete event validated all points present"))
        .collect();
    Ok((collected, stats))
}

/// Read timeout for one-shot control requests (`status`, `shutdown`).
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// Fetches the server's `status` object (queue depth, store counters,
/// sweep counters).
pub fn status(addr: &str) -> Result<Json, ClientError> {
    let mut s = Session::connect(addr, CONTROL_TIMEOUT)?;
    s.send(&protocol::status_request())?;
    match s.next_event()? {
        Some(ev) if ev.get("event").and_then(Json::as_str) == Some("status") => Ok(ev),
        Some(ev) => Err(ClientError::Protocol(format!("expected status, got {}", ev.render()))),
        None => Err(ClientError::Server {
            code: codes::TRUNCATED.to_string(),
            detail: "connection closed before the status arrived".to_string(),
            retry_after_ms: None,
        }),
    }
}

/// Asks the server to drain and exit. Returns once the server
/// acknowledges.
pub fn shutdown(addr: &str) -> Result<(), ClientError> {
    let mut s = Session::connect(addr, CONTROL_TIMEOUT)?;
    s.send(&protocol::shutdown_request())?;
    match s.next_event()? {
        None => Ok(()), // server exited before acking: fine
        Some(ev) if ev.get("event").and_then(Json::as_str) == Some("shutting-down") => Ok(()),
        Some(ev) => Err(ClientError::Protocol(format!(
            "expected shutting-down, got {}",
            ev.render()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sleep of the `n`-th retry lies in `[d/2, d]`, for
    /// `d = min(base · 2^(n−1), cap)`.
    #[test]
    fn backoff_sleeps_lie_in_the_equal_jitter_band() {
        let mut rng = SplitMix64::new(7);
        for (base, cap) in [(50u64, 2_000), (400, 800), (1, 1), (3, u64::MAX)] {
            for n in 1..=12u32 {
                let d = base.saturating_mul(1 << (n - 1)).min(cap);
                for _ in 0..200 {
                    let sleep = backoff(base, cap, n, &mut rng);
                    assert!((d / 2..=d).contains(&sleep), "base {base}, cap {cap}, n {n}: {sleep}");
                }
            }
        }
    }
}
