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
//! {"v":2,"kind":"faults","inject":2500}
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
//! hash of the request ([`sweep_job_hash`] / [`faults_job_hash`]), so
//! even a client that *does* resubmit after a crash attaches to the
//! already-running (or retained completed) job — exactly-once
//! execution across arbitrary disconnects.
//!
//! A sweep point carries the **full** `SimConfig` — every field, no
//! defaults filled in server-side — so the server reconstructs exactly
//! the [`SweepPoint`] the client would have run
//! in-process, its [`key()`](crate::SweepPoint::key) included. That is
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
use secsim_core::{FaultKind, FetchGateVariant, Policy, SecureConfig};
use secsim_cpu::{BPredConfig, CpuConfig, SimConfig, SimReport};
use secsim_crypto::{CryptoLatency, EncryptionMode, MacScheme};
use secsim_mem::{CacheConfig, DramConfig, MemSystemConfig, TlbConfig};
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
    /// `sweep`/`faults`/`status`/`shutdown`/`resume`.
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
    /// Run the fault campaign (8 schemes × 5 integrity kinds) with the
    /// fault injected at this cycle; stream per-point outcomes.
    Faults {
        /// Injection cycle.
        inject: u64,
        /// Wall-clock budget per point, seconds (default 60).
        timeout_secs: u64,
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
        "faults" => {
            let inject = v
                .get("inject")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::bad("faults request carries no \"inject\" cycle"))?;
            let timeout_secs = v.get("timeout_secs").and_then(Json::as_u64).unwrap_or(60);
            Ok(Request::Faults { inject, timeout_secs })
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

/// Renders a fault-campaign request line.
pub fn faults_request_v2(inject: u64, timeout_secs: u64) -> String {
    Json::obj(vec![
        ("v", Json::UInt(PROTOCOL_VERSION)),
        ("kind", Json::Str("faults".into())),
        ("inject", Json::UInt(inject)),
        ("timeout_secs", Json::UInt(timeout_secs)),
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

/// Content hash of a fault-campaign submission (the campaign grid is
/// implied by the server, so the injection cycle and timeout are the
/// whole identity).
pub fn faults_job_hash(inject: u64, timeout_secs: u64) -> u64 {
    let mut h = StableHasher::new();
    "faults".stable_hash(&mut h);
    inject.stable_hash(&mut h);
    timeout_secs.stable_hash(&mut h);
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
// Sweep points and the full configuration tree
// ---------------------------------------------------------------------

/// One sweep point as JSON: benchmark identity (external programs ship
/// their `.sprog` image as hex), seed, warmup, and the complete
/// `SimConfig`.
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
        ("cfg", config_to_json(&p.cfg)),
    ])
}

/// Parses what [`point_to_json`] rendered. External programs are
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
        cfg: config_from_json(v.get("cfg").ok_or("point carries no \"cfg\"")?)?,
    })
}

/// The complete `SimConfig` as JSON — every field explicit, so a config
/// round-trips bit-exactly and the server never fills in defaults that
/// could skew a cache key.
pub fn config_to_json(c: &SimConfig) -> Json {
    Json::obj(vec![
        ("cpu", cpu_to_json(&c.cpu)),
        ("mem", mem_to_json(&c.mem)),
        ("secure", secure_to_json(&c.secure)),
        ("max_insts", Json::UInt(c.max_insts)),
        ("max_cycles", Json::UInt(c.max_cycles)),
    ])
}

/// Parses what [`config_to_json`] rendered.
pub fn config_from_json(v: &Json) -> Result<SimConfig, String> {
    Ok(SimConfig {
        cpu: cpu_from_json(v.get("cpu").ok_or("cfg carries no \"cpu\"")?)?,
        mem: mem_from_json(v.get("mem").ok_or("cfg carries no \"mem\"")?)?,
        secure: secure_from_json(v.get("secure").ok_or("cfg carries no \"secure\"")?)?,
        max_insts: u64_field(v, "max_insts")?,
        max_cycles: u64_field(v, "max_cycles")?,
    })
}

fn cpu_to_json(c: &CpuConfig) -> Json {
    Json::obj(vec![
        ("fetch_width", Json::UInt(c.fetch_width.into())),
        ("decode_width", Json::UInt(c.decode_width.into())),
        ("issue_width", Json::UInt(c.issue_width.into())),
        ("commit_width", Json::UInt(c.commit_width.into())),
        ("ruu_size", Json::UInt(c.ruu_size.into())),
        ("lsq_size", Json::UInt(c.lsq_size.into())),
        ("store_buffer", Json::UInt(c.store_buffer.into())),
        ("frontend_depth", Json::UInt(c.frontend_depth)),
        ("mispredict_redirect", Json::UInt(c.mispredict_redirect)),
        ("int_alu", Json::UInt(c.int_alu.into())),
        ("int_mul", Json::UInt(c.int_mul.into())),
        ("fp_alu", Json::UInt(c.fp_alu.into())),
        ("fp_mul", Json::UInt(c.fp_mul.into())),
        ("mem_ports", Json::UInt(c.mem_ports.into())),
        (
            "bpred",
            Json::obj(vec![
                ("bimodal_entries", Json::UInt(c.bpred.bimodal_entries.into())),
                ("btb_entries", Json::UInt(c.bpred.btb_entries.into())),
                ("ras_depth", Json::UInt(c.bpred.ras_depth.into())),
            ]),
        ),
    ])
}

fn cpu_from_json(v: &Json) -> Result<CpuConfig, String> {
    let b = v.get("bpred").ok_or("cpu carries no \"bpred\"")?;
    Ok(CpuConfig {
        fetch_width: u32_field(v, "fetch_width")?,
        decode_width: u32_field(v, "decode_width")?,
        issue_width: u32_field(v, "issue_width")?,
        commit_width: u32_field(v, "commit_width")?,
        ruu_size: u32_field(v, "ruu_size")?,
        lsq_size: u32_field(v, "lsq_size")?,
        store_buffer: u32_field(v, "store_buffer")?,
        frontend_depth: u64_field(v, "frontend_depth")?,
        mispredict_redirect: u64_field(v, "mispredict_redirect")?,
        int_alu: u32_field(v, "int_alu")?,
        int_mul: u32_field(v, "int_mul")?,
        fp_alu: u32_field(v, "fp_alu")?,
        fp_mul: u32_field(v, "fp_mul")?,
        mem_ports: u32_field(v, "mem_ports")?,
        bpred: BPredConfig {
            bimodal_entries: u32_field(b, "bimodal_entries")?,
            btb_entries: u32_field(b, "btb_entries")?,
            ras_depth: u32_field(b, "ras_depth")?,
        },
    })
}

fn mem_to_json(m: &MemSystemConfig) -> Json {
    Json::obj(vec![
        ("l1i", cache_to_json(&m.l1i)),
        ("l1d", cache_to_json(&m.l1d)),
        ("l2", cache_to_json(&m.l2)),
        (
            "dram",
            Json::obj(vec![
                ("banks", Json::UInt(m.dram.banks.into())),
                ("row_bytes", Json::UInt(m.dram.row_bytes.into())),
                ("cas", Json::UInt(m.dram.cas)),
                ("rcd", Json::UInt(m.dram.rcd)),
                ("rp", Json::UInt(m.dram.rp)),
                ("core_per_bus", Json::UInt(m.dram.core_per_bus)),
                ("bus_bytes", Json::UInt(m.dram.bus_bytes.into())),
            ]),
        ),
        ("itlb", tlb_to_json(&m.itlb)),
        ("dtlb", tlb_to_json(&m.dtlb)),
        ("prefetch_next_line", Json::Bool(m.prefetch_next_line)),
    ])
}

fn mem_from_json(v: &Json) -> Result<MemSystemConfig, String> {
    let d = v.get("dram").ok_or("mem carries no \"dram\"")?;
    Ok(MemSystemConfig {
        l1i: cache_from_json(v.get("l1i").ok_or("mem carries no \"l1i\"")?)?,
        l1d: cache_from_json(v.get("l1d").ok_or("mem carries no \"l1d\"")?)?,
        l2: cache_from_json(v.get("l2").ok_or("mem carries no \"l2\"")?)?,
        dram: DramConfig {
            banks: u32_field(d, "banks")?,
            row_bytes: u32_field(d, "row_bytes")?,
            cas: u64_field(d, "cas")?,
            rcd: u64_field(d, "rcd")?,
            rp: u64_field(d, "rp")?,
            core_per_bus: u64_field(d, "core_per_bus")?,
            bus_bytes: u32_field(d, "bus_bytes")?,
        },
        itlb: tlb_from_json(v.get("itlb").ok_or("mem carries no \"itlb\"")?)?,
        dtlb: tlb_from_json(v.get("dtlb").ok_or("mem carries no \"dtlb\"")?)?,
        prefetch_next_line: bool_field(v, "prefetch_next_line")?,
    })
}

fn cache_to_json(c: &CacheConfig) -> Json {
    Json::obj(vec![
        ("size_bytes", Json::UInt(c.size_bytes.into())),
        ("line_bytes", Json::UInt(c.line_bytes.into())),
        ("assoc", Json::UInt(c.assoc.into())),
        ("latency", Json::UInt(c.latency)),
    ])
}

fn cache_from_json(v: &Json) -> Result<CacheConfig, String> {
    Ok(CacheConfig {
        size_bytes: u32_field(v, "size_bytes")?,
        line_bytes: u32_field(v, "line_bytes")?,
        assoc: u32_field(v, "assoc")?,
        latency: u64_field(v, "latency")?,
    })
}

fn tlb_to_json(t: &TlbConfig) -> Json {
    Json::obj(vec![
        ("entries", Json::UInt(t.entries.into())),
        ("assoc", Json::UInt(t.assoc.into())),
        ("page_bytes", Json::UInt(t.page_bytes.into())),
        ("miss_penalty", Json::UInt(t.miss_penalty)),
    ])
}

fn tlb_from_json(v: &Json) -> Result<TlbConfig, String> {
    Ok(TlbConfig {
        entries: u32_field(v, "entries")?,
        assoc: u32_field(v, "assoc")?,
        page_bytes: u32_field(v, "page_bytes")?,
        miss_penalty: u64_field(v, "miss_penalty")?,
    })
}

fn secure_to_json(s: &SecureConfig) -> Json {
    let c = &s.ctrl;
    Json::obj(vec![
        ("policy", policy_to_json(&s.policy)),
        (
            "ctrl",
            Json::obj(vec![
                (
                    "crypto",
                    Json::obj(vec![
                        ("aes_cycles", Json::UInt(c.crypto.aes_cycles)),
                        ("sha_block_cycles", Json::UInt(c.crypto.sha_block_cycles)),
                        ("gmac_cycles", Json::UInt(c.crypto.gmac_cycles)),
                    ]),
                ),
                (
                    "enc_mode",
                    Json::Str(
                        match c.enc_mode {
                            EncryptionMode::CounterMode => "counter",
                            EncryptionMode::Cbc => "cbc",
                        }
                        .into(),
                    ),
                ),
                (
                    "mac_scheme",
                    Json::Str(
                        match c.mac_scheme {
                            MacScheme::HmacSha256 => "hmac-sha256",
                            MacScheme::CbcMacAes => "cbc-mac-aes",
                            MacScheme::GmacAes => "gmac-aes",
                        }
                        .into(),
                    ),
                ),
                ("authenticate", Json::Bool(c.authenticate)),
                (
                    "queue",
                    Json::obj(vec![
                        ("capacity", Json::UInt(c.queue.capacity as u64)),
                        ("mac_latency", Json::UInt(c.queue.mac_latency)),
                        ("initiation_interval", Json::UInt(c.queue.initiation_interval)),
                    ]),
                ),
                ("counter_cache", cache_to_json(&c.counter_cache)),
                ("mac_bytes", Json::UInt(c.mac_bytes.into())),
                ("ctr_predict", Json::Bool(c.ctr_predict)),
                ("lazy_delay", Json::UInt(c.lazy_delay)),
                (
                    "tree",
                    match &c.tree {
                        None => Json::Null,
                        Some(t) => Json::obj(vec![
                            ("arity", Json::UInt(t.arity)),
                            ("region_base", Json::UInt(t.region_base.into())),
                            ("covered_lines", Json::UInt(t.covered_lines)),
                            ("line_bytes", Json::UInt(t.line_bytes.into())),
                            ("node_cache", cache_to_json(&t.node_cache)),
                            ("hash_latency", Json::UInt(t.hash_latency)),
                            ("concurrent", Json::Bool(t.concurrent)),
                            ("counter_tree", Json::Bool(t.counter_tree)),
                        ]),
                    },
                ),
                (
                    "obf",
                    match &c.obf {
                        None => Json::Null,
                        Some(o) => Json::obj(vec![
                            ("region_base", Json::UInt(o.region_base.into())),
                            ("region_lines", Json::UInt(o.region_lines.into())),
                            ("line_bytes", Json::UInt(o.line_bytes.into())),
                            ("remap_cache", cache_to_json(&o.remap_cache)),
                            ("seed", Json::UInt(o.seed)),
                            ("swap_writes", Json::Bool(o.swap_writes)),
                            ("chunk_lines", Json::UInt(o.chunk_lines.into())),
                        ]),
                    },
                ),
            ]),
        ),
    ])
}

fn secure_from_json(v: &Json) -> Result<SecureConfig, String> {
    use secsim_core::{AuthQueueConfig, CtrlConfig, ObfConfig, TreeConfig};
    let c = v.get("ctrl").ok_or("secure carries no \"ctrl\"")?;
    let crypto = c.get("crypto").ok_or("ctrl carries no \"crypto\"")?;
    let q = c.get("queue").ok_or("ctrl carries no \"queue\"")?;
    let tree = match c.get("tree") {
        None | Some(Json::Null) => None,
        Some(t) => Some(TreeConfig {
            arity: u64_field(t, "arity")?,
            region_base: u32_field(t, "region_base")?,
            covered_lines: u64_field(t, "covered_lines")?,
            line_bytes: u32_field(t, "line_bytes")?,
            node_cache: cache_from_json(t.get("node_cache").ok_or("tree carries no cache")?)?,
            hash_latency: u64_field(t, "hash_latency")?,
            concurrent: bool_field(t, "concurrent")?,
            counter_tree: bool_field(t, "counter_tree")?,
        }),
    };
    let obf = match c.get("obf") {
        None | Some(Json::Null) => None,
        Some(o) => Some(ObfConfig {
            region_base: u32_field(o, "region_base")?,
            region_lines: u32_field(o, "region_lines")?,
            line_bytes: u32_field(o, "line_bytes")?,
            remap_cache: cache_from_json(o.get("remap_cache").ok_or("obf carries no cache")?)?,
            seed: u64_field(o, "seed")?,
            swap_writes: bool_field(o, "swap_writes")?,
            chunk_lines: u32_field(o, "chunk_lines")?,
        }),
    };
    Ok(SecureConfig {
        policy: policy_from_json(v.get("policy").ok_or("secure carries no \"policy\"")?)?,
        ctrl: CtrlConfig {
            crypto: CryptoLatency {
                aes_cycles: u64_field(crypto, "aes_cycles")?,
                sha_block_cycles: u64_field(crypto, "sha_block_cycles")?,
                gmac_cycles: u64_field(crypto, "gmac_cycles")?,
            },
            enc_mode: match str_field(c, "enc_mode")? {
                "counter" => EncryptionMode::CounterMode,
                "cbc" => EncryptionMode::Cbc,
                other => return Err(format!("unknown enc_mode {other:?}")),
            },
            mac_scheme: match str_field(c, "mac_scheme")? {
                "hmac-sha256" => MacScheme::HmacSha256,
                "cbc-mac-aes" => MacScheme::CbcMacAes,
                "gmac-aes" => MacScheme::GmacAes,
                other => return Err(format!("unknown mac_scheme {other:?}")),
            },
            authenticate: bool_field(c, "authenticate")?,
            queue: AuthQueueConfig {
                capacity: u64_field(q, "capacity")? as usize,
                mac_latency: u64_field(q, "mac_latency")?,
                initiation_interval: u64_field(q, "initiation_interval")?,
            },
            counter_cache: cache_from_json(
                c.get("counter_cache").ok_or("ctrl carries no \"counter_cache\"")?,
            )?,
            mac_bytes: u32_field(c, "mac_bytes")?,
            ctr_predict: bool_field(c, "ctr_predict")?,
            lazy_delay: u64_field(c, "lazy_delay")?,
            tree,
            obf,
        },
    })
}

/// A `Policy` as JSON (used by sweep configs and fault requests).
pub fn policy_to_json(p: &Policy) -> Json {
    Json::obj(vec![
        ("authenticate", Json::Bool(p.authenticate)),
        ("gate_issue", Json::Bool(p.gate_issue)),
        ("gate_commit", Json::Bool(p.gate_commit)),
        ("gate_write", Json::Bool(p.gate_write)),
        ("gate_fetch", Json::Bool(p.gate_fetch)),
        (
            "fetch_variant",
            Json::Str(
                match p.fetch_variant {
                    FetchGateVariant::LastRequestTag => "last-request-tag",
                    FetchGateVariant::Drain => "drain",
                }
                .into(),
            ),
        ),
        ("obfuscate", Json::Bool(p.obfuscate)),
    ])
}

/// Parses what [`policy_to_json`] rendered.
pub fn policy_from_json(v: &Json) -> Result<Policy, String> {
    Ok(Policy {
        authenticate: bool_field(v, "authenticate")?,
        gate_issue: bool_field(v, "gate_issue")?,
        gate_commit: bool_field(v, "gate_commit")?,
        gate_write: bool_field(v, "gate_write")?,
        gate_fetch: bool_field(v, "gate_fetch")?,
        fetch_variant: match str_field(v, "fetch_variant")? {
            "last-request-tag" => FetchGateVariant::LastRequestTag,
            "drain" => FetchGateVariant::Drain,
            other => return Err(format!("unknown fetch_variant {other:?}")),
        },
        obfuscate: bool_field(v, "obfuscate")?,
    })
}

/// A `FaultKind` as JSON.
pub fn fault_kind_to_json(k: &FaultKind) -> Json {
    let mut pairs = vec![("kind", Json::Str(k.name().into()))];
    match k {
        FaultKind::CiphertextFlip { mask } => pairs.push(("mask", Json::UInt((*mask).into()))),
        FaultKind::TagCorrupt { mask } => pairs.push(("mask", Json::UInt(*mask))),
        FaultKind::BusCorrupt { mask } => pairs.push(("mask", Json::UInt((*mask).into()))),
        FaultKind::DramFlip { bit } => pairs.push(("bit", Json::UInt((*bit).into()))),
        FaultKind::MacDelay { extra } => pairs.push(("extra", Json::UInt(*extra))),
        FaultKind::CounterReplay | FaultKind::MacDrop => {}
    }
    Json::obj(pairs)
}

/// Parses what [`fault_kind_to_json`] rendered.
pub fn fault_kind_from_json(v: &Json) -> Result<FaultKind, String> {
    let u8f = |k: &str| -> Result<u8, String> {
        u64_field(v, k)?.try_into().map_err(|_| format!("field {k:?} exceeds u8"))
    };
    match str_field(v, "kind")? {
        "ct-flip" => Ok(FaultKind::CiphertextFlip { mask: u8f("mask")? }),
        "tag-corrupt" => Ok(FaultKind::TagCorrupt { mask: u64_field(v, "mask")? }),
        "counter-replay" => Ok(FaultKind::CounterReplay),
        "dram-flip" => Ok(FaultKind::DramFlip { bit: u8f("bit")? }),
        "bus-corrupt" => Ok(FaultKind::BusCorrupt { mask: u8f("mask")? }),
        "mac-delay" => Ok(FaultKind::MacDelay { extra: u64_field(v, "extra")? }),
        "mac-drop" => Ok(FaultKind::MacDrop),
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Field and hex helpers
// ---------------------------------------------------------------------

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field {key:?}"))
}

fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    u64_field(v, key)?.try_into().map_err(|_| format!("field {key:?} exceeds u32"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key).and_then(Json::as_bool).ok_or_else(|| format!("missing boolean field {key:?}"))
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
    use crate::{sim_config_id, RunOpts};

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
    fn fault_kind_round_trips() {
        for k in [
            FaultKind::CiphertextFlip { mask: 0x40 },
            FaultKind::TagCorrupt { mask: 0xDEAD },
            FaultKind::CounterReplay,
            FaultKind::DramFlip { bit: 3 },
            FaultKind::BusCorrupt { mask: 0x08 },
            FaultKind::MacDelay { extra: 5_000 },
            FaultKind::MacDrop,
        ] {
            let wire = fault_kind_to_json(&k).render();
            let back = fault_kind_from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, k);
        }
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
            ("{\"v\":2,\"kind\":\"faults\"}", codes::BAD_REQUEST),
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
        assert!(matches!(
            parse_request(&faults_request_v2(2_500, 60)).unwrap(),
            Request::Faults { inject: 2_500, timeout_secs: 60 }
        ));
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
        assert_eq!(faults_job_hash(2_500, 60), faults_job_hash(2_500, 60));
        assert_ne!(faults_job_hash(2_500, 60), faults_job_hash(2_501, 60));
        assert_ne!(faults_job_hash(2_500, 60), sweep_job_hash(&grid1));
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
