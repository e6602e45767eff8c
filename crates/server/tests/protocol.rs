//! Wire-protocol coverage against a live `secsim-serve` instance:
//! every malformed input answers a typed error without killing the
//! server (or even the connection), and a well-formed grid returns
//! reports byte-identical to an in-process [`Sweep`].

use secsim_bench::protocol::{self, codes, MAX_REQUEST_BYTES};
use secsim_bench::store::Claim;
use secsim_bench::{client, faultpoint, ResultStore, RunOpts, Sweep, SweepPoint};
use secsim_core::Policy;
use secsim_cpu::{AuthException, IoEvent, SimReport, StallBreakdown, StallCause};
use secsim_server::{JobServer, ServerConfig};
use secsim_stats::{CounterSet, Json, StableHasher};
use secsim_workloads::BenchId;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("secsim-serve-proto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn spawn_server(
    dir: &std::path::Path,
) -> (String, std::thread::JoinHandle<std::io::Result<Json>>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: 2,
        queue_cap: 8,
        job_timeout: Duration::from_secs(120),
        store_dir: dir.join("store"),
        store_bytes: None,
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.serve()))
}

fn stop(addr: &str, handle: std::thread::JoinHandle<std::io::Result<Json>>, dir: &PathBuf) {
    client::shutdown(addr).expect("shutdown request");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(dir);
}

/// Every failure class gets its typed code, all on ONE connection —
/// proving a bad request poisons neither the server nor the session.
#[test]
fn malformed_requests_answer_typed_errors_and_the_session_survives() {
    let dir = temp_dir("failures");
    let (addr, handle) = spawn_server(&dir);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> Json {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Json::parse(reply.trim()).expect("reply parses")
    };

    for (line, want) in [
        ("this is not json", codes::MALFORMED_JSON),
        ("{\"kind\":\"status\"}", codes::UNSUPPORTED_VERSION),
        ("{\"v\":99,\"kind\":\"status\"}", codes::UNSUPPORTED_VERSION),
        ("{\"v\":1,\"kind\":\"status\"}", codes::UNSUPPORTED_VERSION),
        ("{\"v\":2,\"kind\":\"reticulate\"}", codes::UNKNOWN_KIND),
        ("{\"v\":2,\"kind\":\"sweep\"}", codes::BAD_REQUEST),
        ("{\"v\":2,\"kind\":\"sweep\",\"points\":[]}", codes::BAD_REQUEST),
        ("{\"v\":2,\"kind\":\"sweep\",\"points\":[{\"bench\":\"nope\"}]}", codes::BAD_REQUEST),
        // The fault campaign is the `faults` binary's alone.
        ("{\"v\":2,\"kind\":\"faults\",\"inject\":1}", codes::UNKNOWN_KIND),
    ] {
        let ev = ask(line);
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("error"), "for {line}");
        assert_eq!(ev.get("code").and_then(Json::as_str), Some(want), "for {line}");
    }
    // The same battered connection still serves a real request.
    let ev = ask("{\"v\":2,\"kind\":\"status\"}");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("status"));
    drop(reader);
    stop(&addr, handle, &dir);
}

/// A request bigger than the wire cap is refused with
/// `oversized-request` before any of it is interpreted.
#[test]
fn oversized_request_is_refused_with_a_typed_error() {
    let dir = temp_dir("oversized");
    let (addr, handle) = spawn_server(&dir);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let huge = vec![b'a'; MAX_REQUEST_BYTES + 2];
    writer.write_all(&huge).expect("send oversized");
    writer.write_all(b"\n").expect("terminate");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    let ev = Json::parse(reply.trim()).expect("reply parses");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(ev.get("code").and_then(Json::as_str), Some(codes::OVERSIZED_REQUEST));

    // The server itself is fine: a fresh connection works.
    client::status(&addr).expect("status after oversized request");
    stop(&addr, handle, &dir);
}

/// A line of 10 000 `[` nests far deeper than `Json::MAX_DEPTH`: it is
/// `malformed-json`, and the connection thread (on a default 2 MiB
/// stack) survives to answer `status` on the same connection.
#[test]
fn deeply_nested_line_is_malformed_and_the_session_survives() {
    let dir = temp_dir("nested");
    let (addr, handle) = spawn_server(&dir);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut ask = |line: &str| -> Json {
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Json::parse(reply.trim()).expect("reply parses")
    };
    let ev = ask(&"[".repeat(10_000));
    assert_eq!(ev.get("code").and_then(Json::as_str), Some(codes::MALFORMED_JSON));
    let ev = ask("{\"v\":2,\"kind\":\"status\"}");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("status"));
    stop(&addr, handle, &dir);
}

/// A stream that ends mid-request gets a best-effort `truncated` error.
#[test]
fn truncated_stream_is_answered_with_a_typed_error() {
    let dir = temp_dir("truncated");
    let (addr, handle) = spawn_server(&dir);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"{\"v\":2,\"kind\":").expect("send partial");
    writer.flush().expect("flush");
    writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    let ev = Json::parse(reply.trim()).expect("reply parses");
    assert_eq!(ev.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(ev.get("code").and_then(Json::as_str), Some(codes::TRUNCATED));

    client::status(&addr).expect("status after truncated stream");
    stop(&addr, handle, &dir);
}

/// The acceptance bar for transparency: one grid over all 8 paper
/// policies, served remotely, must render byte-identical to the same
/// grid run through an in-process `Sweep`.
#[test]
fn server_reports_are_byte_identical_to_in_process_sweep_across_policies() {
    let dir = temp_dir("round-trip");
    let (addr, handle) = spawn_server(&dir);

    let points: Vec<SweepPoint> = faultpoint::schemes()
        .into_iter()
        .map(|(_, policy)| {
            let opts =
                RunOpts { max_insts: 8_000, tree: policy.authenticate, ..RunOpts::default() };
            SweepPoint::of(BenchId::Gzip, policy, &opts)
        })
        .collect();

    let remote = client::run_sweep(&addr, &points).expect("remote sweep");
    let local_store = temp_dir("round-trip-local");
    let local = Sweep::new().with_store(ResultStore::new(local_store.clone())).run(&points);

    assert_eq!(remote.len(), local.len());
    for (i, (r, l)) in remote.iter().zip(local.iter()).enumerate() {
        let r = r.as_ref().expect("remote point reports").to_json().expect("untraced").render();
        let l = l.as_ref().expect("local point reports").to_json().expect("untraced").render();
        assert_eq!(r, l, "policy #{i}: remote and local reports must be byte-identical");
    }
    let _ = std::fs::remove_dir_all(&local_store);
    stop(&addr, handle, &dir);
}

/// Sends one request line on a fresh connection and reads event lines
/// until `complete` or an `error`, returning them as sent (without the
/// newline). The read timeout turns a server that falls silent into a
/// test failure instead of a hung suite.
fn exchange_lines(addr: &str, request: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{request}").expect("send");
    let mut lines = vec![];
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .unwrap_or_else(|e| panic!("no event after {} for {request}: {e}", lines.len()));
        assert!(n > 0, "connection closed after {} events for {request}", lines.len());
        assert_eq!(line.pop(), Some('\n'), "every event is one whole line");
        let ev = Json::parse(&line).expect("event parses");
        let last = matches!(ev.get("event").and_then(Json::as_str), Some("complete" | "error"));
        lines.push(line);
        if last {
            return lines;
        }
    }
}

/// [`exchange_lines`], parsed.
fn exchange(addr: &str, request: &str) -> Vec<Json> {
    exchange_lines(addr, request).iter().map(|l| Json::parse(l).expect("event parses")).collect()
}

/// A one-point sweep job run to completion over the raw protocol:
/// returns the request line, the job id and the job's last `seq`.
fn one_point_job(addr: &str) -> (String, u64, u64) {
    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    let request =
        protocol::sweep_request_v2(&[SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts)]);
    let events = exchange(addr, &request);
    let job = events[0].get("job").and_then(Json::as_u64).expect("queued carries the job id");
    let last = events.last().and_then(|e| e.get("seq")).and_then(Json::as_u64).expect("seq");
    assert_eq!(last, 3, "running, point-done, complete");
    (request, job, last)
}

fn assert_past_end(events: &[Json], since: u64) {
    let last = events.last().expect("an answer");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("error"), "cursor {since}");
    assert_eq!(
        last.get("code").and_then(Json::as_str),
        Some(codes::RESUME_PAST_END),
        "cursor {since}"
    );
}

/// A cursor past the job's last event (a restarted server reusing job
/// ids hands a client exactly this) answers `resume-past-end` at once
/// instead of `resumed` and then silence until the client's read
/// timeout; the job itself stays resumable.
#[test]
fn resume_cursor_past_the_last_event_answers_a_typed_error() {
    let dir = temp_dir("past-end");
    let (addr, handle) = spawn_server(&dir);
    let (_, job, last) = one_point_job(&addr);

    for since in [last + 1, 1000] {
        assert_past_end(&exchange(&addr, &protocol::resume_request(job, since)), since);
    }
    // A cursor inside the job still replays: only `complete` is left.
    let tail = exchange(&addr, &protocol::resume_request(job, last - 1));
    assert_eq!(tail.len(), 2, "resumed + complete");
    assert_eq!(tail[1].get("seq").and_then(Json::as_u64), Some(last));
    stop(&addr, handle, &dir);
}

/// `since_seq = u64::MAX` once overflowed `since + 1` while holding the
/// job's event-buffer lock, poisoning it for every later follower and
/// identical resubmission. It must answer the typed error and leave the
/// job replayable and dedup-able.
#[test]
fn resume_cursor_at_u64_max_is_refused_without_poisoning_the_job() {
    let dir = temp_dir("u64-max");
    let (addr, handle) = spawn_server(&dir);
    let (request, job, last) = one_point_job(&addr);

    assert_past_end(&exchange(&addr, &protocol::resume_request(job, u64::MAX)), u64::MAX);

    let replay = exchange(&addr, &protocol::resume_request(job, 0));
    assert_eq!(replay.len(), 1 + last as usize, "resumed + every event of the job");
    assert_eq!(replay.last().and_then(|e| e.get("event")).and_then(Json::as_str), Some("complete"));
    let again = exchange(&addr, &request);
    assert_eq!(again[0].get("attached").and_then(Json::as_bool), Some(true));
    assert_eq!(again[0].get("job").and_then(Json::as_u64), Some(job));
    assert_eq!(again.last().and_then(|e| e.get("event")).and_then(Json::as_str), Some("complete"));
    stop(&addr, handle, &dir);
}

/// Length and `StableHasher` digest of a wire line.
fn line_pin(line: &str) -> (usize, u64) {
    let mut h = StableHasher::new();
    h.write(line.as_bytes());
    (line.len(), h.finish())
}

/// A report no simulation produced, with every field populated, so the
/// pinned bytes depend only on the wire encoding.
fn seeded_report() -> SimReport {
    let mut counters = CounterSet::new();
    counters.add("l2.miss", 7);
    counters.add("pipe.commit", 1_007);
    let mut stall = StallBreakdown::new();
    stall.add(StallCause::DcacheMiss, 4_321);
    SimReport {
        insts: 20_000,
        cycles: 31_337,
        halted: true,
        exception: Some(AuthException { cycle: 30_000, line_addr: 0x4_0040, precise: true }),
        io_events: vec![IoEvent { port: 9, value: 0xdead_beef, cycle: 31_000 }],
        counters,
        stall,
        ..SimReport::default()
    }
}

/// The `point-done` line's bytes, pinned by length and digest for a
/// report the server loads from its store and for a typed hole (a
/// point held back by another store user's claim past a 1 s job
/// deadline). The report is published under the first point's key
/// before the server starts, so the line does not depend on the model.
#[test]
fn point_done_lines_are_pinned() {
    let dir = temp_dir("pins");
    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    let stored = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts);
    let late = SweepPoint::of(BenchId::Mcf, Policy::authen_then_issue(), &opts);
    let store = ResultStore::new(dir.join("store"));
    assert!(store.put(stored.bench.name(), stored.key(), &seeded_report()), "entry published");
    let Claim::Won(Some(ticket)) = store.claim(late.key()) else {
        panic!("the test claims the late point first");
    };
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        job_timeout: Duration::from_secs(1),
        store_dir: dir.join("store"),
        ..ServerConfig::default()
    };
    let server = JobServer::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve());

    let lines = exchange_lines(&addr, &protocol::sweep_request_v2(&[stored, late]));
    assert_eq!(lines.len(), 5, "queued, running, two point-done, complete: {lines:?}");
    assert!(lines[2].starts_with(r#"{"event":"point-done","job":0,"index":0,"report":{"#));
    assert_eq!(
        line_pin(&lines[2]),
        (527, 0x6226_f614_486d_e80b),
        "report line changed: {}",
        lines[2]
    );
    assert_eq!(
        line_pin(&lines[3]),
        (141, 0xd6b0_2093_a414_7aa4),
        "hole line changed: {}",
        lines[3]
    );
    drop(ticket);
    stop(&addr, handle, &dir);
}

/// The `report` object of a `point-done` line, as sent.
fn report_payload(line: &str) -> &str {
    let start = line.find(r#","report":"#).expect("a report") + r#","report":"#.len();
    let end = line.rfind(r#","seq":"#).expect("a seq");
    &line[start..end]
}

/// Checks one job's stream: `seq` rises by exactly one from 1, and each
/// grid index gets exactly one `point-done`. Returns each index's line.
fn point_done_by_index(lines: &[String], points: usize) -> Vec<String> {
    let events: Vec<Json> = lines.iter().map(|l| Json::parse(l).expect("event parses")).collect();
    let seqs: Vec<u64> =
        events.iter().filter_map(|e| e.get("seq").and_then(Json::as_u64)).collect();
    assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>(), "seq must rise without a gap");
    let mut by_index = vec![None; points];
    for (line, ev) in lines.iter().zip(&events) {
        if ev.get("event").and_then(Json::as_str) == Some("point-done") {
            let i = ev.get("index").and_then(Json::as_u64).expect("an index") as usize;
            assert!(by_index[i].replace(line.clone()).is_none(), "index {i} arrived twice");
        }
    }
    by_index.into_iter().map(|l| l.expect("every index arrives")).collect()
}

/// A second job over the same two points plus a new one, in another
/// order, is served from the memo: its memo-hit `report` payloads are
/// byte-identical to the first job's, nothing is simulated twice, and
/// both streams are whole.
#[test]
fn memo_hits_resend_the_first_jobs_report_bytes() {
    let dir = temp_dir("memo");
    let (addr, handle) = spawn_server(&dir);
    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    let a = SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts);
    let b = SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &opts);
    let c = SweepPoint::of(BenchId::Gzip, Policy::authen_then_issue(), &opts);

    let first = point_done_by_index(
        &exchange_lines(&addr, &protocol::sweep_request_v2(&[a.clone(), b.clone()])),
        2,
    );
    let second =
        point_done_by_index(&exchange_lines(&addr, &protocol::sweep_request_v2(&[c, b, a])), 3);
    assert_eq!(report_payload(&second[2]), report_payload(&first[0]), "point a");
    assert_eq!(report_payload(&second[1]), report_payload(&first[1]), "point b");

    let status = client::status(&addr).expect("status");
    let sweep = |k: &str| status.get("sweep").and_then(|s| s.get(k)).and_then(Json::as_u64);
    assert_eq!((sweep("simulated"), sweep("memo_hits")), (Some(3), Some(2)));
    stop(&addr, handle, &dir);
}
