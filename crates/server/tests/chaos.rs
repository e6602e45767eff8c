//! Chaos-hardening acceptance: the service layer under seeded,
//! replayable transport faults.
//!
//! The invariant mirrors the paper's tamper-detection discipline one
//! layer up: under arbitrary connection faults (disconnects, garbage,
//! black holes), reconnecting clients must terminate with results
//! byte-identical to a fault-free run and `simulated == unique points`
//! — every fault is *contained* (retried, resumed, or typed), never
//! silently corrupting a result.

use secsim_bench::chaos::{ChaosPlan, ChaosProxy};
use secsim_bench::client::{self, ClientError, ClientStats, RetryPolicy};
use secsim_bench::protocol::{self, codes};
use secsim_bench::store::Claim;
use secsim_bench::{ResultStore, RunOpts, Sweep, SweepError, SweepPoint};
use secsim_core::Policy;
use secsim_server::{JobServer, ServerConfig};
use secsim_stats::Json;
use secsim_workloads::BenchId;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("secsim-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn spawn_server(cfg: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<Json>>) {
    let server = JobServer::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.serve()))
}

fn server_cfg(store_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        threads: 2,
        queue_cap: 8,
        job_timeout: Duration::from_secs(120),
        store_dir,
        ..ServerConfig::default()
    }
}

fn grid() -> Vec<SweepPoint> {
    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    vec![
        SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts),
        SweepPoint::of(BenchId::Gzip, Policy::authen_then_commit(), &opts),
        SweepPoint::of(BenchId::Mcf, Policy::baseline(), &opts),
        SweepPoint::of(BenchId::Mcf, Policy::authen_then_commit(), &opts),
    ]
}

fn renders(results: &[Result<secsim_cpu::SimReport, SweepError>]) -> Vec<String> {
    results
        .iter()
        .map(|r| r.as_ref().expect("point reports").to_json().expect("untraced").render())
        .collect()
}

/// The ISSUE acceptance test: two clients hammer the server through a
/// seeded fault proxy at an aggressive fault rate. Both must terminate
/// with results byte-identical to a fault-free in-process run, the
/// server must have simulated each unique point exactly once, and the
/// fault schedule must have actually forced reconnections.
#[test]
fn chaotic_network_cannot_corrupt_or_duplicate_results() {
    const SEED: u64 = 0xC0FFEE;
    const RATE: u8 = 90;

    // Determinism of the schedule itself (the "replays exactly" half of
    // the acceptance criterion).
    let plan = ChaosPlan::new(SEED, RATE);
    let schedule: Vec<_> = (0..32).map(|c| plan.fault_for(c)).collect();
    let replay: Vec<_> = (0..32).map(|c| ChaosPlan::new(SEED, RATE).fault_for(c)).collect();
    assert_eq!(schedule, replay, "same seed must replay the same fault schedule");

    let dir = temp_dir("e2e");
    let (addr, handle) = spawn_server(server_cfg(dir.join("store")));
    let upstream = addr.parse().expect("server addr parses");
    let mut proxy = ChaosProxy::spawn(plan, upstream).expect("proxy spawns");
    let proxy_addr = proxy.addr().to_string();

    let points = grid();
    let clients: Vec<_> = (0..2u64)
        .map(|i| {
            let proxy_addr = proxy_addr.clone();
            let points = points.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    attempts: 40,
                    base_ms: 10,
                    cap_ms: 200,
                    read_timeout: Duration::from_secs(2),
                    seed: SEED ^ i,
                };
                client::run_sweep_with(&proxy_addr, &points, policy)
            })
        })
        .collect();
    let mut outs = Vec::new();
    let mut reconnects = 0;
    for c in clients {
        let (results, stats) = c
            .join()
            .expect("client thread")
            .expect("sweep must survive the chaos");
        reconnects += stats.reconnects;
        outs.push(renders(&results));
    }
    assert_eq!(outs[0], outs[1], "both chaos clients must see byte-identical reports");

    // Byte-identical to a fault-free, in-process run of the same grid.
    let local_store = temp_dir("e2e-local");
    let local = Sweep::new().with_store(ResultStore::new(local_store.clone())).run(&points);
    assert_eq!(outs[0], renders(&local), "chaos results must match the fault-free run");
    let _ = std::fs::remove_dir_all(&local_store);

    // The fault rate must have actually exercised the recovery path.
    assert!(
        reconnects >= 1,
        "fault rate {RATE}% at seed {SEED:#x} must force at least one reconnect \
         (got {reconnects}; accepted {} proxied connections)",
        proxy.accepted()
    );

    // Exactly-once: disconnect/resume/resubmit storms must not lose or
    // duplicate simulation work. Status goes directly to the server —
    // the proxy played its part.
    let status = client::status(&addr).expect("status");
    let simulated = status
        .get("sweep")
        .and_then(|s| s.get("simulated"))
        .and_then(Json::as_u64)
        .expect("status carries sweep.simulated");
    assert_eq!(
        simulated,
        points.len() as u64,
        "chaos must not change how many unique points are simulated"
    );

    proxy.stop();
    client::shutdown(&addr).expect("shutdown");
    let final_status = handle.join().expect("server thread").expect("serve returns");
    assert_eq!(
        final_status.get("queue_depth").and_then(Json::as_u64),
        Some(0),
        "the queue must drain before exit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point that misses the job deadline degrades to a typed hole at its
/// grid index: the `point-done` event carries the error, its siblings
/// complete, and the next job runs normally. The point is held back by
/// a store claim another store user keeps, so it waits rather than
/// burns a core.
#[test]
fn late_point_degrades_to_a_typed_hole_and_the_worker_survives() {
    let dir = temp_dir("late");
    let cfg = ServerConfig { job_timeout: Duration::from_secs(2), ..server_cfg(dir.join("store")) };
    let (addr, handle) = spawn_server(cfg);

    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    let late = SweepPoint::of(BenchId::Gzip, Policy::authen_then_issue(), &opts);
    let Claim::Won(Some(ticket)) = ResultStore::new(dir.join("store")).claim(late.key()) else {
        panic!("the test claims the late point first");
    };
    let points = vec![
        SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts),
        late,
        SweepPoint::of(BenchId::Mcf, Policy::baseline(), &opts),
    ];

    let results = client::run_sweep(&addr, &points).expect("job completes despite the hole");
    assert!(results[0].is_ok(), "healthy point before the hole completes");
    match &results[1] {
        Err(SweepError::Failed { bench, detail }) => {
            assert_eq!(bench, "gzip");
            assert!(detail.starts_with("job watchdog"), "the hole must say why, got: {detail}");
        }
        other => panic!("the late point must be a typed hole, got {other:?}"),
    }
    assert!(results[2].is_ok(), "healthy point after the hole completes");

    drop(ticket);
    let after = client::run_sweep(&addr, &grid()).expect("next job runs after the hole");
    assert!(after.iter().all(Result::is_ok), "the follow-up job is unaffected");

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A point the model cannot simulate never reaches a worker: a zero
/// commit width is refused at submission with a typed `bad-request`
/// naming the point and field, the server stays up, and the next job
/// runs normally.
#[test]
fn invalid_point_is_refused_by_name_and_the_server_survives() {
    let dir = temp_dir("invalid");
    let (addr, handle) = spawn_server(server_cfg(dir.join("store")));

    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    let mut invalid = SweepPoint::of(BenchId::Gzip, Policy::authen_then_issue(), &opts);
    invalid.cfg.cpu.commit_width = 0;
    let points = vec![
        SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts),
        invalid,
        SweepPoint::of(BenchId::Mcf, Policy::baseline(), &opts),
    ];

    match client::run_sweep(&addr, &points) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, codes::BAD_REQUEST);
            assert!(
                detail.starts_with("point 1: cpu.commit_width "),
                "the refusal must name the point and the field, got: {detail}"
            );
        }
        other => panic!("an invalid grid must be refused, got {other:?}"),
    }

    let after = client::run_sweep(&addr, &grid()).expect("next job runs after the refusal");
    assert!(after.iter().all(Result::is_ok), "the follow-up job is unaffected");

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The silent-wedge fix: a server that accepts and then never answers
/// must surface a typed timeout, not block forever.
#[test]
fn wedged_server_surfaces_a_typed_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Accept and hold connections open without ever writing a byte.
    let wedge = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((sock, _)) = listener.accept() {
            held.push(sock);
            if held.len() >= 2 {
                break;
            }
        }
        std::thread::sleep(Duration::from_secs(2));
        drop(held);
    });

    let policy = RetryPolicy {
        attempts: 1,
        base_ms: 1,
        cap_ms: 10,
        read_timeout: Duration::from_millis(300),
        seed: 7,
    };
    let opts = RunOpts { max_insts: 8_000, ..RunOpts::default() };
    let points = vec![SweepPoint::of(BenchId::Gzip, Policy::baseline(), &opts)];
    let started = std::time::Instant::now();
    let err = client::run_sweep_with(&addr, &points, policy)
        .expect_err("a silent server must not look like success");
    assert_eq!(err, ClientError::Timeout { ms: 300 }, "the wedge must be typed as a timeout");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the client must give up promptly, not hang"
    );
    // A second connection unblocks the wedge thread's accept loop.
    let _ = TcpStream::connect(&addr);
    wedge.join().expect("wedge thread");
}

/// The client's stale-cursor fallback, against a scripted server. The
/// first connection streams one point and closes; the `resume` is
/// answered with a stale-cursor code; the client must drop its cursor
/// and resubmit, and the third connection streams the whole job. The
/// first connection's report is deliberately different from the final
/// one, so keeping any partial state would show in the results.
#[test]
fn stale_resume_cursor_falls_back_to_a_clean_resubmission() {
    let points = grid();
    let report = |insts: u64| secsim_cpu::SimReport {
        insts,
        cycles: 2 * insts,
        halted: true,
        ..Default::default()
    };
    let reports: Vec<_> = (0..points.len() as u64).map(|i| report(1_000 + i)).collect();
    // Event lines as the server renders them, all for job 5.
    let event = |kind: &str, fields: Vec<(&'static str, Json)>| {
        let mut pairs = vec![("event", Json::Str(kind.into())), ("job", Json::UInt(5))];
        pairs.extend(fields);
        Json::obj(pairs).render()
    };
    let point_done = |index: usize, r: &secsim_cpu::SimReport, seq: u64| {
        let (key, payload) = protocol::result_to_json(&Ok(r.clone()));
        event(
            "point-done",
            vec![("index", Json::UInt(index as u64)), (key, payload), ("seq", Json::UInt(seq))],
        )
    };
    let queued = event("queued", vec![("points", Json::UInt(points.len() as u64))]);
    let running = event("running", vec![("seq", Json::UInt(1))]);
    let first = [queued.clone(), running.clone(), point_done(0, &report(9_999), 2)];
    let mut whole = vec![queued, running];
    whole.extend(reports.iter().enumerate().map(|(i, r)| point_done(i, r, i as u64 + 2)));
    whole.push(event(
        "complete",
        vec![
            ("ok", Json::UInt(points.len() as u64)),
            ("failed", Json::UInt(0)),
            ("seq", Json::UInt(points.len() as u64 + 2)),
        ],
    ));
    let submit = protocol::sweep_request_v2(&points);

    for code in [codes::RESUME_TOO_OLD, codes::RESUME_PAST_END, codes::UNKNOWN_JOB] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (first, whole, submit) = (first.clone(), whole.clone(), submit.clone());
        let script = std::thread::spawn(move || {
            // One request per connection; answer it with `lines`, close.
            let serve = |lines: &[String]| -> String {
                let (mut sock, _) = listener.accept().expect("accept");
                let mut request = String::new();
                BufReader::new(&sock).read_line(&mut request).expect("request line");
                for line in lines {
                    writeln!(sock, "{line}").expect("send event");
                }
                request.trim_end().to_string()
            };
            assert_eq!(serve(&first), submit, "connection 1 submits the grid");
            let refusal = [protocol::error_line(code, "stale cursor")];
            assert_eq!(serve(&refusal), protocol::resume_request(5, 2), "connection 2 resumes");
            assert_eq!(serve(&whole), submit, "connection 3 resubmits the same grid");
        });
        let policy = RetryPolicy {
            base_ms: 1,
            cap_ms: 10,
            read_timeout: Duration::from_secs(10),
            ..RetryPolicy::default()
        };
        // A client that gives up leaves the script blocked in `accept`:
        // fail before joining it.
        let (results, stats) = client::run_sweep_with(&addr, &points, policy)
            .unwrap_or_else(|e| panic!("{code}: {e}"));
        script.join().expect("scripted server");
        let want: Vec<_> =
            reports.iter().map(|r| r.to_json().expect("untraced").render()).collect();
        assert_eq!(renders(&results), want, "{code}: results in grid order, partial state dropped");
        assert_eq!(
            stats,
            ClientStats {
                connects: 3,
                reconnects: 2,
                resumes: 1,
                resubmits: 1,
                ..ClientStats::default()
            },
            "{code}"
        );
    }
}

/// Raw-protocol resume: drop the connection mid-stream, reconnect with
/// `resume {job, since_seq}`, and receive exactly the missed events —
/// every point reported once across both connections.
#[test]
fn resume_replays_exactly_the_missed_events() {
    let dir = temp_dir("resume");
    let (addr, handle) = spawn_server(server_cfg(dir.join("store")));
    let points = grid();

    // Connection 1: submit, then vanish after the first point-done.
    let sock = TcpStream::connect(&addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut writer = sock;
    writeln!(writer, "{}", protocol::sweep_request_v2(&points)).expect("submit");
    writer.flush().expect("flush");

    let read_event = |reader: &mut BufReader<TcpStream>| -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).expect("event line");
        assert!(line.ends_with('\n'), "server must never send partial lines");
        Json::parse(line.trim()).expect("event parses")
    };

    let queued = read_event(&mut reader);
    assert_eq!(queued.get("event").and_then(Json::as_str), Some("queued"));
    let job = queued.get("job").and_then(Json::as_u64).expect("server assigns a job id");

    let mut last_seq = 0u64;
    let mut indices_seen: Vec<u64> = Vec::new();
    loop {
        let ev = read_event(&mut reader);
        let seq = ev.get("seq").and_then(Json::as_u64).expect("job events carry seq");
        assert!(seq > last_seq, "live events must carry monotone sequence numbers");
        last_seq = seq;
        if ev.get("event").and_then(Json::as_str) == Some("point-done") {
            indices_seen.push(ev.get("index").and_then(Json::as_u64).expect("index"));
            break; // vanish mid-stream
        }
    }
    drop(reader);
    drop(writer);

    // Connection 2: resume from the cursor; the replay must cover the
    // remaining points exactly, each event strictly newer than the
    // cursor.
    let sock = TcpStream::connect(&addr).expect("reconnect");
    sock.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut writer = sock;
    writeln!(writer, "{}", protocol::resume_request(job, last_seq)).expect("resume");
    writer.flush().expect("flush");

    let ack = read_event(&mut reader);
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("resumed"));
    loop {
        let ev = read_event(&mut reader);
        let seq = ev.get("seq").and_then(Json::as_u64).expect("job events carry seq");
        assert!(seq > last_seq, "replayed events must be strictly newer than the cursor");
        last_seq = seq;
        match ev.get("event").and_then(Json::as_str) {
            Some("point-done") => {
                indices_seen.push(ev.get("index").and_then(Json::as_u64).expect("index"))
            }
            Some("complete") => break,
            _ => {}
        }
    }
    indices_seen.sort_unstable();
    assert_eq!(
        indices_seen,
        (0..points.len() as u64).collect::<Vec<_>>(),
        "across both connections every point must be reported exactly once"
    );

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Typed resume failures: a cursor older than the retention window
/// answers `resume-too-old`; a forgotten job id answers `unknown-job` —
/// and neither kills the connection.
#[test]
fn stale_or_unknown_resume_cursors_answer_typed_errors() {
    let dir = temp_dir("too-old");
    let mut cfg = server_cfg(dir.join("store"));
    cfg.retain_events = 2; // tiny window: any full job overflows it
    let (addr, handle) = spawn_server(cfg);
    let points = grid();

    // Run one job to completion (6 events: running + 4 point-done +
    // complete — far past a 2-event window).
    let results = client::run_sweep(&addr, &points).expect("sweep completes");
    assert!(results.iter().all(Result::is_ok));
    // The completed job got id 0 (first job of this server).
    let job = 0u64;

    let sock = TcpStream::connect(&addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut writer = sock;
    let ask = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| -> Json {
        writeln!(writer, "{line}").expect("send");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Json::parse(reply.trim()).expect("reply parses")
    };

    // Resuming from the beginning is impossible now: typed answer.
    let ack = ask(&mut writer, &mut reader, &protocol::resume_request(job, 0));
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("resumed"));
    let err = {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("error line");
        Json::parse(reply.trim()).expect("error parses")
    };
    assert_eq!(err.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(err.get("code").and_then(Json::as_str), Some("resume-too-old"));

    // A job id the server never saw (or already forgot): typed answer,
    // same connection keeps working.
    let err = ask(&mut writer, &mut reader, &protocol::resume_request(9_999, 0));
    assert_eq!(err.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(err.get("code").and_then(Json::as_str), Some("unknown-job"));
    let status = ask(&mut writer, &mut reader, &protocol::status_request());
    assert_eq!(
        status.get("event").and_then(Json::as_str),
        Some("status"),
        "typed resume errors must not poison the connection"
    );

    client::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown race: a wire shutdown while a job is mid-stream must still
/// deliver the job's `complete` to the connected client — never a bare
/// EOF.
#[test]
fn shutdown_mid_stream_still_delivers_complete_never_bare_eof() {
    let dir = temp_dir("shutdown-race");
    let (addr, handle) = spawn_server(server_cfg(dir.join("store")));
    let points = grid();

    let sock = TcpStream::connect(&addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut reader = BufReader::new(sock.try_clone().expect("clone"));
    let mut writer = sock;
    writeln!(writer, "{}", protocol::sweep_request_v2(&points)).expect("submit");
    writer.flush().expect("flush");

    // Wait for the job to be admitted, then yank the rug: shutdown via
    // a second connection while the stream is live.
    let mut line = String::new();
    reader.read_line(&mut line).expect("queued line");
    assert!(Json::parse(line.trim()).expect("queued parses").get("job").is_some());
    client::shutdown(&addr).expect("wire shutdown mid-stream");

    // Keep reading: the stream must terminate with a `complete` (the
    // queued job drains) or a typed error — never a bare EOF.
    let mut saw_terminal = false;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("stream read");
        if n == 0 {
            break; // EOF — only legal after a terminal event
        }
        assert!(line.ends_with('\n'), "no partial lines");
        let ev = Json::parse(line.trim()).expect("event parses");
        match ev.get("event").and_then(Json::as_str) {
            Some("complete") | Some("error") => {
                saw_terminal = true;
                break;
            }
            _ => {}
        }
    }
    assert!(
        saw_terminal,
        "a mid-stream shutdown must deliver `complete` or a typed error, not a bare EOF"
    );

    handle.join().expect("server thread").expect("serve returns");
    let _ = std::fs::remove_dir_all(&dir);
}
