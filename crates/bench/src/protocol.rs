//! Wire protocol of the `secsim-serve` job server (version 2).
//!
//! Line-delimited JSON over TCP: the client sends **one request
//! object per line**, the server answers with a stream of **event
//! objects, one per line**, then (for job requests) keeps the
//! connection open until the job's `complete` event. The protocol is
//! deliberately std-only and hand-rolled on [`secsim_stats::Json`] —
//! the workspace is dependency-free and offline.
//!
//! # Requests
//!
//! ```json
//! {"v":2,"kind":"sweep","points":[{"bench":"mcf","seed":2006,"warmup":0,"cfg":{…}}]}
//! {"v":2,"kind":"status"}
//! {"v":2,"kind":"shutdown"}
//! {"v":2,"kind":"resume","job":3,"since_seq":17}
//! ```
//!
//! Client and server ship from one workspace, so the server speaks
//! exactly one version, [`PROTOCOL_VERSION`]. Jobs are *resumable*:
//! every job-stream event carries a monotone `seq` number, and a client
//! that lost its connection mid-stream reconnects and sends `resume` to
//! replay every event after the last one it saw, instead of
//! resubmitting the job.
//! Submissions themselves are deduplicated server-side by a content
//! hash of the request ([`sweep_job_hash`]), so
//! even a client that *does* resubmit after a crash attaches to the
//! already-running (or retained completed) job — exactly-once
//! execution across arbitrary disconnects.
//!
//! A sweep point carries the **full** `SimConfig` — every field, no
//! defaults filled in server-side — so the server reconstructs exactly
//! the [`SweepPoint`] the client would have run
//! in-process, its [`key()`](crate::SweepPoint::key) included. The
//! config's wire form, its share of the key and its validation all walk
//! one field list ([`SimConfig::to_json`]); a config that fails
//! [`SimConfig::validate`] is a `bad-request` naming the field. That is
//! what makes server-returned reports byte-identical to local runs and
//! lets N clients fan in on one simulation. External programs ship
//! their serialized `.sprog` image as hex and are registered on the
//! server by content hash.
//!
//! # Events
//!
//! ```json
//! {"event":"queued","job":3,"points":16}
//! {"event":"running","job":3,"seq":1}
//! {"event":"point-done","job":3,"index":0,"report":{…},"seq":2}
//! {"event":"point-done","job":3,"index":1,"error":{"kind":"failed","bench":"mcf","detail":"…"},"seq":3}
//! {"event":"complete","job":3,"ok":15,"failed":1,"seq":4}
//! {"event":"error","code":"malformed-json","detail":"…"}
//! ```
//!
//! Every client-visible failure is a typed `error` event with one of
//! the [`codes`] constants — a malformed line, an oversized request or
//! an unknown version can never panic a worker. A `queue-full` error
//! additionally carries a `retry_after_ms` load-shedding hint derived
//! from the queue depth.

use crate::{SweepError, SweepPoint};
use secsim_cpu::{SimConfig, SimReport};
use secsim_stats::{Json, StableHash, StableHasher};
use secsim_workloads::{register_program, BenchId, ProgramImage};

/// Version tag every request must carry (`"v"`): server-assigned job
/// ids, monotone per-job event sequence numbers, and `resume`.
pub const PROTOCOL_VERSION: u64 = 2;

/// Upper bound on one request line, bytes. Large enough for a sweep
/// grid with several embedded `.sprog` images, small enough that a
/// stray client cannot balloon the server.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024 * 1024;

/// Typed error codes of `error` events.
pub mod codes {
    /// The request line is not valid JSON.
    pub const MALFORMED_JSON: &str = "malformed-json";
    /// The request line exceeds [`super::MAX_REQUEST_BYTES`].
    pub const OVERSIZED_REQUEST: &str = "oversized-request";
    /// The request's `"v"` is missing or not [`super::PROTOCOL_VERSION`].
    pub const UNSUPPORTED_VERSION: &str = "unsupported-version";
    /// The request's `"kind"` is not one of
    /// `sweep`/`status`/`shutdown`/`resume`.
    pub const UNKNOWN_KIND: &str = "unknown-kind";
    /// The request parsed but its payload is invalid (bad point, bad
    /// program image, …).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The bounded job queue is full; retry later.
    pub const QUEUE_FULL: &str = "queue-full";
    /// The server is draining and refuses new jobs.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The connection closed mid-request or mid-response.
    pub const TRUNCATED: &str = "truncated";
    /// A `resume` named a job this server does not know (never
    /// submitted here, or already garbage-collected).
    pub const UNKNOWN_JOB: &str = "unknown-job";
    /// A `resume` asked for events older than the job's bounded
    /// retained-events buffer still holds; the client must resubmit.
    pub const RESUME_TOO_OLD: &str = "resume-too-old";
    /// A `resume` cursor at or past the job's next sequence number: it
    /// names events the job never sent (a cursor from an earlier server
    /// run that reused the job id, or a forged one); the client must
    /// resubmit.
    pub const RESUME_PAST_END: &str = "resume-past-end";
}

/// A parse/validation failure: a typed code plus a human detail,
/// rendered as an `error` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl ProtoError {
    fn bad(detail: impl Into<String>) -> Self {
        Self { code: codes::BAD_REQUEST, detail: detail.into() }
    }

    /// The `error` event line for this failure.
    pub fn to_line(&self) -> String {
        error_line(self.code, &self.detail)
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    /// Run a sweep grid; stream per-point results.
    Sweep {
        /// The grid, reconstructed server-side (external programs
        /// already registered).
        points: Vec<SweepPoint>,
    },
    /// Report queue/store/sweep counters.
    Status,
    /// Drain the queue, refuse new jobs, flush counters, exit.
    Shutdown,
    /// Re-attach to a known job and replay every retained event with a
    /// sequence number greater than `since_seq`.
    Resume {
        /// Server-assigned job id from the `queued` event.
        job: u64,
        /// Last sequence number the client received (0 = from the
        /// beginning).
        since_seq: u64,
    },
}

/// Parses one request line. Every failure is a [`ProtoError`] carrying
/// the typed code the server answers with.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(ProtoError {
            code: codes::OVERSIZED_REQUEST,
            detail: format!("request is {} bytes, limit {MAX_REQUEST_BYTES}", line.len()),
        });
    }
    let v = Json::parse(line).map_err(|e| ProtoError {
        code: codes::MALFORMED_JSON,
        detail: e.to_string(),
    })?;
    match v.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        got => {
            return Err(ProtoError {
                code: codes::UNSUPPORTED_VERSION,
                detail: match got {
                    Some(n) => format!("request version {n}, server speaks {PROTOCOL_VERSION}"),
                    None => "request carries no numeric \"v\" field".to_string(),
                },
            })
        }
    }
    let kind = v.get("kind").and_then(Json::as_str).unwrap_or("");
    match kind {
        "sweep" => {
            let raw = v
                .get("points")
                .and_then(Json::as_array)
                .ok_or_else(|| ProtoError::bad("sweep request carries no \"points\" array"))?;
            if raw.is_empty() {
                return Err(ProtoError::bad("sweep request with an empty grid"));
            }
            let points = raw
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    point_from_json(p).map_err(|e| ProtoError::bad(format!("point {i}: {e}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Sweep { points })
        }
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "resume" => {
            let job = v
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::bad("resume request carries no \"job\" id"))?;
            let since_seq = v.get("since_seq").and_then(Json::as_u64).unwrap_or(0);
            Ok(Request::Resume { job, since_seq })
        }
        other => Err(ProtoError {
            code: codes::UNKNOWN_KIND,
            detail: format!("unknown request kind {other:?}"),
        }),
    }
}

/// Renders a sweep request line for `points`.
pub fn sweep_request_v2(points: &[SweepPoint]) -> String {
    Json::obj(vec![
        ("v", Json::UInt(PROTOCOL_VERSION)),
        ("kind", Json::Str("sweep".into())),
        ("points", Json::Array(points.iter().map(point_to_json).collect())),
    ])
    .render()
}

/// Renders a resume request line: replay retained events of `job`
/// with `seq > since_seq`.
pub fn resume_request(job: u64, since_seq: u64) -> String {
    Json::obj(vec![
        ("v", Json::UInt(PROTOCOL_VERSION)),
        ("kind", Json::Str("resume".into())),
        ("job", Json::UInt(job)),
        ("since_seq", Json::UInt(since_seq)),
    ])
    .render()
}

/// Renders a status request line.
pub fn status_request() -> String {
    Json::obj(vec![
        ("v", Json::UInt(PROTOCOL_VERSION)),
        ("kind", Json::Str("status".into())),
    ])
    .render()
}

/// Renders a shutdown request line.
pub fn shutdown_request() -> String {
    Json::obj(vec![
        ("v", Json::UInt(PROTOCOL_VERSION)),
        ("kind", Json::Str("shutdown".into())),
    ])
    .render()
}

/// Renders an `error` event line.
pub fn error_line(code: &str, detail: &str) -> String {
    Json::obj(vec![
        ("event", Json::Str("error".into())),
        ("code", Json::Str(code.into())),
        ("detail", Json::Str(detail.into())),
    ])
    .render()
}

/// Renders the `queue-full` error line with its load-shedding hint:
/// how long the client should wait before retrying, derived from the
/// queue depth.
pub fn queue_full_line(retry_after_ms: u64) -> String {
    Json::obj(vec![
        ("event", Json::Str("error".into())),
        ("code", Json::Str(codes::QUEUE_FULL.into())),
        ("detail", Json::Str("job queue is full; retry later".into())),
        ("retry_after_ms", Json::UInt(retry_after_ms)),
    ])
    .render()
}

/// Content hash of a sweep submission: a stable fingerprint over the
/// grid's point keys **in grid order**. Two clients submitting the same
/// grid — including one client resubmitting after a crash — hash
/// identically, which is what lets the server attach them to one job
/// instead of executing twice.
pub fn sweep_job_hash(points: &[SweepPoint]) -> u64 {
    let mut h = StableHasher::new();
    "sweep".stable_hash(&mut h);
    (points.len() as u64).stable_hash(&mut h);
    for p in points {
        p.key().stable_hash(&mut h);
    }
    h.finish()
}

/// Renders a per-point result as the `point-done` event payload.
pub fn result_to_json(r: &Result<SimReport, SweepError>) -> (&'static str, Json) {
    match r {
        Ok(report) => match report.to_json() {
            Some(j) => ("report", j),
            // Traced reports refuse to serialize; the server never
            // traces, but degrade typed rather than panic.
            None => (
                "error",
                sweep_error_to_json(&SweepError::Failed {
                    bench: "?".into(),
                    detail: "report with instruction timings cannot cross the wire".into(),
                }),
            ),
        },
        Err(e) => ("error", sweep_error_to_json(e)),
    }
}

/// Renders the `point-done` event of grid point `index` of `job`, with
/// sequence number `seq`. A report comes already rendered (the text of
/// [`SimReport::to_json`], which the server's memo keeps from
/// [`Sweep::run_point_rendered`](crate::Sweep::run_point_rendered)) and is
/// copied into the line as is. The line is byte-identical to the event
/// object built from [`result_to_json`]'s payload and rendered whole.
pub fn point_done_line(
    job: u64,
    index: u64,
    result: Result<&str, &SweepError>,
    seq: u64,
) -> String {
    let mut pairs = vec![
        ("event", Json::Str("point-done".into())),
        ("job", Json::UInt(job)),
        ("index", Json::UInt(index)),
    ];
    if let Err(e) = result {
        pairs.push(("error", sweep_error_to_json(e)));
    }
    let mut line = Json::obj(pairs).render();
    line.pop(); // reopen the object for the fields that follow
    if let Ok(report) = result {
        line.push_str(",\"report\":");
        line.push_str(report);
    }
    line.push_str(",\"seq\":");
    line.push_str(&Json::UInt(seq).render());
    line.push('}');
    line
}

/// Parses what [`result_to_json`] rendered (from a `point-done` event).
pub fn result_from_json(v: &Json) -> Result<Result<SimReport, SweepError>, String> {
    if let Some(r) = v.get("report") {
        return SimReport::from_json(r)
            .map(Ok)
            .ok_or_else(|| "unparseable report in point-done event".to_string());
    }
    let e = v.get("error").ok_or("point-done event carries neither report nor error")?;
    Ok(Err(sweep_error_from_json(e)?))
}

/// `SweepError` as JSON.
pub fn sweep_error_to_json(e: &SweepError) -> Json {
    match e {
        SweepError::UnknownBench(name) => Json::obj(vec![
            ("kind", Json::Str("unknown-bench".into())),
            ("name", Json::Str(name.clone())),
        ]),
        SweepError::Failed { bench, detail } => Json::obj(vec![
            ("kind", Json::Str("failed".into())),
            ("bench", Json::Str(bench.clone())),
            ("detail", Json::Str(detail.clone())),
        ]),
    }
}

/// Parses what [`sweep_error_to_json`] rendered.
pub fn sweep_error_from_json(v: &Json) -> Result<SweepError, String> {
    match v.get("kind").and_then(Json::as_str) {
        Some("unknown-bench") => Ok(SweepError::UnknownBench(str_field(v, "name")?.to_string())),
        Some("failed") => Ok(SweepError::Failed {
            bench: str_field(v, "bench")?.to_string(),
            detail: str_field(v, "detail")?.to_string(),
        }),
        other => Err(format!("unknown sweep-error kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Sweep points
// ---------------------------------------------------------------------

/// One sweep point as JSON: benchmark identity (external programs ship
/// their `.sprog` image as hex), seed, warmup, and the complete
/// `SimConfig` ([`SimConfig::to_json`]).
pub fn point_to_json(p: &SweepPoint) -> Json {
    let bench = match p.bench {
        BenchId::External(id) => Json::obj(vec![
            ("name", Json::Str(id.name().to_string())),
            ("sprog", Json::Str(hex_encode(&id.image().to_bytes()))),
        ]),
        b => Json::Str(b.name().to_string()),
    };
    Json::obj(vec![
        ("bench", bench),
        ("seed", Json::UInt(p.seed)),
        ("warmup", Json::UInt(p.warmup_insts)),
        ("cfg", p.cfg.to_json()),
    ])
}

/// Parses what [`point_to_json`] rendered; the config must pass
/// [`SimConfig::validate`]. External programs are
/// registered in this process's program registry (idempotent by content
/// hash), so the reconstructed point's cache key is identical to the
/// sender's.
pub fn point_from_json(v: &Json) -> Result<SweepPoint, String> {
    let bench = match v.get("bench") {
        Some(Json::Str(name)) => {
            name.parse::<BenchId>().map_err(|e| format!("unknown benchmark {:?}", e.name()))?
        }
        Some(obj @ Json::Object(_)) => {
            let bytes = hex_decode(str_field(obj, "sprog")?)
                .ok_or("external program: \"sprog\" is not valid hex")?;
            let image = ProgramImage::from_bytes(&bytes)
                .map_err(|e| format!("external program: bad .sprog image: {e}"))?;
            BenchId::External(register_program(image))
        }
        _ => return Err("point carries no \"bench\"".into()),
    };
    Ok(SweepPoint {
        bench,
        seed: u64_field(v, "seed")?,
        warmup_insts: u64_field(v, "warmup")?,
        cfg: SimConfig::from_json(v.get("cfg").ok_or("point carries no \"cfg\"")?)
            .map_err(|e| e.to_string())?,
    })
}

// ---------------------------------------------------------------------
// Field and hex helpers
// ---------------------------------------------------------------------

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field {key:?}"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string field {key:?}"))
}

/// Lowercase hex of `bytes` (`.sprog` images on the wire).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Option<Vec<u8>> =
        s.chars().map(|c| c.to_digit(16).map(|d| d as u8)).collect();
    let digits = digits?;
    Some(digits.chunks_exact(2).map(|p| (p[0] << 4) | p[1]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sim_config_id, L2Size, RunOpts, Sweep};
    use secsim_core::{FetchGateVariant, Policy};

    /// Dotted paths of every value in `v` that is not an object.
    fn leaf_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        let Json::Object(pairs) = v else { return };
        for (k, x) in pairs {
            let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
            match x {
                Json::Object(_) => leaf_paths(x, &path, out),
                _ => out.push(path),
            }
        }
    }

    fn at_path<'a>(mut v: &'a mut Json, path: &str) -> &'a mut Json {
        for key in path.split('.') {
            let Json::Object(pairs) = v else { panic!("{path}: {key} is not in an object") };
            v = &mut pairs.iter_mut().find(|(k, _)| k == key).expect("path exists").1;
        }
        v
    }

    /// Every control point (both fetch-gate variants), both L2 sizes,
    /// hash tree off and on; commit+obfuscation carries the obfuscation
    /// engine.
    fn pin_grid() -> Vec<SweepPoint> {
        let policies = [
            Policy::baseline(),
            Policy::authen_then_issue(),
            Policy::authen_then_commit(),
            Policy::authen_then_write(),
            Policy::authen_then_fetch(),
            Policy::authen_then_fetch().with_fetch_variant(FetchGateVariant::Drain),
            Policy::commit_plus_fetch(),
            Policy::commit_plus_obfuscation(),
        ];
        let mut points = Vec::new();
        for l2 in [L2Size::K256, L2Size::M1] {
            for tree in [false, true] {
                for policy in policies {
                    let opts = RunOpts { l2, tree, max_insts: 20_000, ..RunOpts::default() };
                    points.push(SweepPoint::of(BenchId::Mcf, policy, &opts));
                }
            }
        }
        points
    }

    /// A `point-done` line with a spliced report, or with an error, is
    /// byte-identical to rendering the whole event object.
    #[test]
    fn point_done_line_matches_the_rendered_event() {
        let opts = RunOpts { max_insts: 3_000, ..RunOpts::default() };
        let point = SweepPoint::of(BenchId::Gzip, Policy::authen_then_commit(), &opts);
        let sweep = Sweep::new().without_cache();
        let report = sweep.run_point(&point);
        let hole: Result<SimReport, SweepError> =
            Err(SweepError::Failed { bench: "gzip".into(), detail: "a \"quoted\" detail".into() });
        for r in [report, hole] {
            let (key, payload) = result_to_json(&r);
            let whole = Json::obj(vec![
                ("event", Json::Str("point-done".into())),
                ("job", Json::UInt(7)),
                ("index", Json::UInt(71)),
                (key, payload),
                ("seq", Json::UInt(73)),
            ])
            .render();
            let rendered = match &r {
                Ok(_) => sweep.run_point_rendered(&point),
                Err(e) => Err(e.clone()),
            };
            assert_eq!(point_done_line(7, 71, rendered.as_deref(), 73), whole);
        }
    }

    /// The sweep request line's bytes, pinned by length and digest (the
    /// values the per-field codec this schema replaced rendered): a
    /// change to any config field's wire name, order or encoding moves
    /// them.
    #[test]
    fn sweep_request_line_is_pinned() {
        let points = pin_grid();
        let line = sweep_request_v2(&points);
        let mut h = StableHasher::new();
        h.write(line.as_bytes());
        assert_eq!((line.len(), h.finish()), (46_793, 0xf045_7662_6e8b_f0b4));
        // Points share a key exactly when they share a config (the
        // baseline builds no tree, so its tree column repeats).
        for a in &points {
            for b in &points {
                assert_eq!(
                    a.key() == b.key(),
                    a.cfg == b.cfg,
                    "{} vs {}",
                    a.cfg.secure.policy,
                    b.cfg.secure.policy
                );
            }
        }
    }

    /// Changing any one config field, to any value the decoder accepts,
    /// changes the point's cache key: the wire form and the key walk the
    /// same fields.
    #[test]
    fn every_config_field_moves_the_key() {
        let opts = RunOpts { tree: true, max_insts: 9_999, ..RunOpts::default() };
        let full = SweepPoint::of(BenchId::Mcf, Policy::commit_plus_obfuscation(), &opts);
        let bare = SweepPoint::of(BenchId::Mcf, Policy::baseline(), &RunOpts::default());
        let names = [
            "counter",
            "cbc",
            "hmac-sha256",
            "cbc-mac-aes",
            "gmac-aes",
            "last-request-tag",
            "drain",
        ];
        let mut moved = 0;
        for (base, other) in [(&full, &bare), (&bare, &full)] {
            let wire = base.cfg.to_json();
            let mut paths = Vec::new();
            leaf_paths(&wire, "", &mut paths);
            for path in paths {
                let candidates: Vec<Json> = match at_path(&mut wire.clone(), &path).clone() {
                    Json::Bool(b) => vec![Json::Bool(!b)],
                    Json::Str(s) => {
                        names.iter().filter(|&&n| n != s).map(|&n| Json::Str(n.into())).collect()
                    }
                    Json::Null => vec![at_path(&mut other.cfg.to_json(), &path).clone()],
                    n => {
                        let x = n.as_u64().expect("integer leaf");
                        [x.checked_add(1), x.checked_mul(2), Some(x / 2), x.checked_sub(1)]
                            .into_iter()
                            .flatten()
                            .map(Json::UInt)
                            .collect()
                    }
                };
                let cfg = candidates
                    .into_iter()
                    .find_map(|to| {
                        let mut w = wire.clone();
                        *at_path(&mut w, &path) = to;
                        SimConfig::from_json(&w).ok().filter(|c| *c != base.cfg)
                    })
                    .unwrap_or_else(|| panic!("{path}: no other value decodes"));
                let changed = SweepPoint { cfg, ..base.clone() };
                assert_ne!(changed.key(), base.key(), "{path} does not reach the key");
                moved += 1;
            }
        }
        assert!(moved > 90, "only {moved} fields moved");
    }

    /// Fields the model divides by, allocates from or needs one of.
    const NONZERO_FIELDS: [&str; 50] = [
        "cpu.fetch_width",
        "cpu.decode_width",
        "cpu.issue_width",
        "cpu.commit_width",
        "cpu.ruu_size",
        "cpu.lsq_size",
        "cpu.store_buffer",
        "cpu.int_alu",
        "cpu.int_mul",
        "cpu.fp_alu",
        "cpu.fp_mul",
        "cpu.mem_ports",
        "cpu.bpred.bimodal_entries",
        "cpu.bpred.btb_entries",
        "cpu.bpred.ras_depth",
        "mem.l1i.size_bytes",
        "mem.l1i.line_bytes",
        "mem.l1i.assoc",
        "mem.l1d.size_bytes",
        "mem.l1d.line_bytes",
        "mem.l1d.assoc",
        "mem.l2.size_bytes",
        "mem.l2.line_bytes",
        "mem.l2.assoc",
        "mem.dram.banks",
        "mem.dram.row_bytes",
        "mem.dram.core_per_bus",
        "mem.dram.bus_bytes",
        "mem.itlb.entries",
        "mem.itlb.assoc",
        "mem.itlb.page_bytes",
        "mem.dtlb.entries",
        "mem.dtlb.assoc",
        "mem.dtlb.page_bytes",
        "secure.ctrl.queue.capacity",
        "secure.ctrl.queue.mac_latency",
        "secure.ctrl.counter_cache.size_bytes",
        "secure.ctrl.counter_cache.line_bytes",
        "secure.ctrl.counter_cache.assoc",
        "secure.ctrl.tree.arity",
        "secure.ctrl.tree.line_bytes",
        "secure.ctrl.tree.node_cache.size_bytes",
        "secure.ctrl.tree.node_cache.line_bytes",
        "secure.ctrl.tree.node_cache.assoc",
        "secure.ctrl.obf.region_lines",
        "secure.ctrl.obf.line_bytes",
        "secure.ctrl.obf.remap_cache.size_bytes",
        "secure.ctrl.obf.remap_cache.line_bytes",
        "secure.ctrl.obf.remap_cache.assoc",
        "secure.ctrl.obf.chunk_lines",
    ];

    /// Each integer config field set to zero in turn, through
    /// `parse_request`: a field in [`NONZERO_FIELDS`] is a `bad-request`
    /// naming it, and every other field still simulates. Zeroed pairs
    /// that a cross-field check divides by are refused naming one.
    #[test]
    fn zeroed_config_fields_are_refused_by_name_or_simulate() {
        let opts =
            RunOpts { tree: true, max_insts: 3_000, max_cycles: 20_000, ..RunOpts::default() };
        let point = SweepPoint::of(BenchId::Gzip, Policy::commit_plus_obfuscation(), &opts);
        let request = Json::parse(&sweep_request_v2(std::slice::from_ref(&point))).unwrap();
        let zeroed = |paths: &[&str]| {
            let mut line = request.clone();
            let Json::Object(top) = &mut line else { unreachable!() };
            let Json::Array(points) = &mut top[2].1 else { panic!("points array") };
            for path in paths {
                *at_path(&mut points[0], &format!("cfg.{path}")) = Json::UInt(0);
            }
            parse_request(&line.render())
        };
        for pair in [
            ["mem.itlb.entries", "mem.itlb.assoc"],
            ["mem.l2.size_bytes", "mem.l2.assoc"],
            ["mem.l2.size_bytes", "mem.l2.line_bytes"],
            ["secure.ctrl.obf.remap_cache.size_bytes", "secure.ctrl.obf.remap_cache.assoc"],
        ] {
            let e = zeroed(&pair).unwrap_err();
            assert_eq!(e.code, codes::BAD_REQUEST, "{pair:?}: {e}");
            let named = |f: &&str| e.detail.starts_with(&format!("point 0: {f} "));
            assert!(pair.iter().any(named), "{pair:?}: {e}");
        }
        let mut paths = Vec::new();
        leaf_paths(&point.cfg.to_json(), "", &mut paths);
        let mut refused = Vec::new();
        let mut accepted = Vec::new();
        for path in paths {
            if at_path(&mut point.cfg.to_json(), &path).as_u64().is_none() {
                continue;
            }
            match zeroed(&[&path]) {
                Err(e) => {
                    assert_eq!(e.code, codes::BAD_REQUEST, "{path}: {e}");
                    assert!(e.detail.starts_with(&format!("point 0: {path} ")), "{path}: {e}");
                    refused.push(path);
                }
                Ok(Request::Sweep { points }) => accepted.push((path, points[0].clone())),
                Ok(other) => panic!("{path}: parsed as {other:?}"),
            }
        }
        assert_eq!(refused, NONZERO_FIELDS, "exactly the non-zero fields are refused at zero");
        let grid: Vec<SweepPoint> = accepted.iter().map(|(_, p)| p.clone()).collect();
        let reports = Sweep::new().without_cache().with_jobs(2).run(&grid);
        for ((path, _), r) in accepted.iter().zip(reports) {
            assert!(r.is_ok(), "{path} = 0 passed validation but did not simulate: {r:?}");
        }
        assert!(accepted.len() >= 25, "only {} zero-tolerant fields", accepted.len());
    }

    /// A line's objects may carry many keys: the duplicate check sorts
    /// rather than comparing every pair, and still refuses duplicates.
    #[test]
    fn objects_with_many_keys_parse_in_near_linear_time() {
        let keys: String = (0..40_000).map(|i| format!(",\"k{i}\":{i}")).collect();
        let line = format!("{{\"v\":2,\"kind\":\"status\"{keys}}}");
        let started = std::time::Instant::now();
        assert!(matches!(parse_request(&line), Ok(Request::Status)));
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "40 000 keys took {took:?}");
        let dup = format!("{{\"v\":2,\"kind\":\"status\"{keys},\"k123\":0}}");
        assert_eq!(parse_request(&dup).unwrap_err().code, codes::MALFORMED_JSON);
    }

    #[test]
    fn hex_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex");
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn point_round_trip_preserves_cache_key() {
        for policy in [
            Policy::baseline(),
            Policy::authen_then_issue(),
            Policy::authen_then_fetch(),
            Policy::commit_plus_obfuscation(),
        ] {
            let opts = RunOpts { max_insts: 9_999, tree: policy.authenticate, ..RunOpts::default() };
            let p = SweepPoint {
                bench: BenchId::Mcf,
                seed: 7,
                cfg: sim_config_id(BenchId::Mcf, policy, &opts),
                warmup_insts: 123,
            };
            let wire = point_to_json(&p).render();
            let back = point_from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back.key(), p.key(), "key must survive the wire for {policy:?}");
            assert_eq!(back.cfg, p.cfg);
        }
    }

    #[test]
    fn external_point_round_trips_by_content() {
        use secsim_workloads::assemble_named;
        let src = "addi r1, r0, 3\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n";
        let id = register_program(assemble_named(src, "wire-test").unwrap());
        let p = SweepPoint {
            bench: BenchId::External(id),
            seed: 2006,
            cfg: sim_config_id(BenchId::External(id), Policy::baseline(), &RunOpts::default()),
            warmup_insts: 0,
        };
        let wire = point_to_json(&p).render();
        let back = point_from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back.key(), p.key());
        assert_eq!(back.bench.name(), "wire-test");
    }

    #[test]
    fn request_parse_failures_are_typed() {
        let cases = [
            ("{not json", codes::MALFORMED_JSON),
            ("{\"kind\":\"sweep\"}", codes::UNSUPPORTED_VERSION),
            ("{\"v\":99,\"kind\":\"sweep\"}", codes::UNSUPPORTED_VERSION),
            // Version 1 is gone: even a request that was valid v1 is refused.
            ("{\"v\":1,\"kind\":\"status\"}", codes::UNSUPPORTED_VERSION),
            ("{\"v\":2,\"kind\":\"reticulate\"}", codes::UNKNOWN_KIND),
            ("{\"v\":2,\"kind\":\"sweep\"}", codes::BAD_REQUEST),
            ("{\"v\":2,\"kind\":\"sweep\",\"points\":[]}", codes::BAD_REQUEST),
            ("{\"v\":2,\"kind\":\"sweep\",\"points\":[{\"bench\":\"nope\"}]}", codes::BAD_REQUEST),
            // The fault campaign is the `faults` binary's alone.
            ("{\"v\":2,\"kind\":\"faults\",\"inject\":1}", codes::UNKNOWN_KIND),
            ("{\"v\":2,\"kind\":\"resume\"}", codes::BAD_REQUEST),
        ];
        for (line, want) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, want, "for {line:?}: {err}");
        }
        let big = format!("{{\"v\":2,\"pad\":\"{}\"}}", "x".repeat(MAX_REQUEST_BYTES));
        assert_eq!(parse_request(&big).unwrap_err().code, codes::OVERSIZED_REQUEST);
    }

    #[test]
    fn well_formed_requests_parse() {
        let p = SweepPoint {
            bench: BenchId::Gzip,
            seed: 2006,
            cfg: sim_config_id(BenchId::Gzip, Policy::baseline(), &RunOpts::default()),
            warmup_insts: 0,
        };
        match parse_request(&sweep_request_v2(std::slice::from_ref(&p))).unwrap() {
            Request::Sweep { points } => {
                assert_eq!(points.len(), 1);
                assert_eq!(points[0].key(), p.key());
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(parse_request(&status_request()).unwrap(), Request::Status));
        assert!(matches!(parse_request(&shutdown_request()).unwrap(), Request::Shutdown));
        assert!(matches!(
            parse_request(&resume_request(7, 42)).unwrap(),
            Request::Resume { job: 7, since_seq: 42 }
        ));
        // since_seq is optional: resume-from-the-beginning.
        assert!(matches!(
            parse_request("{\"v\":2,\"kind\":\"resume\",\"job\":0}").unwrap(),
            Request::Resume { job: 0, since_seq: 0 }
        ));
    }

    #[test]
    fn job_hashes_are_content_addressed() {
        let mk = |seed: u64| SweepPoint {
            bench: BenchId::Gzip,
            seed,
            cfg: sim_config_id(BenchId::Gzip, Policy::baseline(), &RunOpts::default()),
            warmup_insts: 0,
        };
        let (a, b) = (mk(1), mk(2));
        let grid1 = vec![a.clone(), b.clone()];
        let grid2 = vec![mk(1), mk(2)];
        assert_eq!(sweep_job_hash(&grid1), sweep_job_hash(&grid2), "same content, same hash");
        assert_ne!(
            sweep_job_hash(&grid1),
            sweep_job_hash(&[b, a]),
            "grid order is part of the identity (results stream by index)"
        );
        assert_ne!(sweep_job_hash(&grid1), sweep_job_hash(&grid1[..1]));
    }

    #[test]
    fn queue_full_line_carries_the_retry_hint() {
        let ev = Json::parse(&queue_full_line(350)).unwrap();
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("error"));
        assert_eq!(ev.get("code").and_then(Json::as_str), Some(codes::QUEUE_FULL));
        assert_eq!(ev.get("retry_after_ms").and_then(Json::as_u64), Some(350));
    }

    #[test]
    fn sweep_error_round_trips() {
        for e in [
            SweepError::UnknownBench("nope".into()),
            SweepError::Failed { bench: "mcf".into(), detail: "boom".into() },
        ] {
            let wire = sweep_error_to_json(&e).render();
            assert_eq!(sweep_error_from_json(&Json::parse(&wire).unwrap()).unwrap(), e);
        }
    }
}
