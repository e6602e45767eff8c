//! `serve-open`: an in-process `JobServer` (one worker, one point
//! thread, fresh store) fed by an open loop of seeded arrivals over at
//! most two client connections; each job is the grid `fig9 --server`
//! submits plus one point the server has never seen.

use crate::sim::control_points;
use crate::util::{self, ms, Outcome, Pins, CLIENT_COUNTS, IMAGE_SEED, SERVER_COUNTS, SETUP_REPS};
use crate::Args;
use secsim_bench::client::{self, ClientStats, RetryPolicy};
use secsim_bench::{build_workload, protocol, ResultStore, RunOpts, SweepPoint};
use secsim_core::Policy;
use secsim_cpu::SimReport;
use secsim_server::{JobServer, ServerConfig};
use secsim_stats::Json;
use secsim_workloads::{BenchId, SplitMix64};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load, jobs per second: about 12 % of the 66 jobs/s measured
/// when both connections submit back to back, so a job seldom waits for
/// a free connection and latency measures the server (README.md).
const RATE: u64 = 8;
/// Client connections in flight at most.
const CONNECTIONS: usize = 2;
/// Instruction budget of the figure grid's points. A served report has
/// the same shape at any budget, so a small one keeps set-up cheap.
const WARM_INSTS: u64 = 20_000;
const NEW_INSTS: u64 = 20_000;
/// Traced runs time protocol encode/decode on this many jobs' results.
const CODEC_JOBS: usize = 64;
/// Tail percentile: a run holds RATE × seconds jobs (176 at 22 s), so p90
/// keeps at least 10 samples beyond it.
const SERVE_TAIL_PCT: f64 = 90.0;

/// A point with its pin label.
#[derive(Clone)]
pub struct Labeled {
    pub label: String,
    pub point: SweepPoint,
}

/// The grid `fig9` submits as one job (`--server`): per benchmark of
/// `BenchId::ALL`, the baseline plus commit + obfuscation at three
/// remap-cache sizes, 72 points in fig9's order. Set-up stores it on the
/// server, so every job's copy is served from the memo.
pub fn figure_grid() -> Vec<Labeled> {
    let opts = RunOpts { max_insts: WARM_INSTS, seed: IMAGE_SEED, ..RunOpts::default() };
    let mut v = vec![];
    for bench in BenchId::ALL {
        let mut add = |policy: Policy, opts: RunOpts| {
            let remap = opts.remap_cache_bytes.unwrap_or(0);
            v.push(Labeled {
                label: format!("serve/fig9/{bench}/{policy}/remap={remap}/insts={WARM_INSTS}"),
                point: SweepPoint::of(bench, policy, &opts),
            });
        };
        add(Policy::baseline(), opts);
        for bytes in [64 * 1024, 256 * 1024, 1024 * 1024] {
            add(
                Policy::commit_plus_obfuscation(),
                RunOpts { remap_cache_bytes: Some(bytes), ..opts },
            );
        }
    }
    v
}

/// Ablation-style points on gzip (MAC latency × authentication-queue
/// capacity × control point), one per job and never repeated in a run.
pub fn new_pool() -> Vec<Labeled> {
    let mut v = vec![];
    for policy in control_points() {
        for mac in (0..24).map(|i| 20 + 12 * i) {
            for cap in [2usize, 4, 8, 16, 32, 64] {
                let opts = RunOpts { max_insts: NEW_INSTS, seed: IMAGE_SEED, ..RunOpts::default() };
                let mut cfg = secsim_bench::sim_config_id(BenchId::Gzip, policy, &opts);
                cfg.secure.ctrl.queue.mac_latency = mac;
                cfg.secure.ctrl.queue.capacity = cap;
                v.push(Labeled {
                    label: format!("serve/gzip/{policy}/mac={mac}/cap={cap}/insts={NEW_INSTS}"),
                    point: SweepPoint::from_config(BenchId::Gzip, IMAGE_SEED, cfg),
                });
            }
        }
    }
    v
}

/// Pin lines for every point a serve-open job can hold, computed
/// locally (so a served report that matches is remote ≡ local).
pub fn pin_lines() -> Vec<String> {
    let sweep = secsim_bench::Sweep::new().without_cache().with_jobs(1);
    figure_grid()
        .into_iter()
        .chain(new_pool())
        .map(|l| {
            let r = sweep.run_point(&l.point).expect("pinned point simulates");
            format!("{}\t{}", l.label, util::report_digest(&r))
        })
        .collect()
}

/// What `client::run_sweep_with` returns for one job.
type JobResult =
    Result<(Vec<Result<SimReport, secsim_bench::SweepError>>, ClientStats), client::ClientError>;

/// Checks one job's results against the pins of `labels` and its client
/// stats for retries; `Err` says what was wrong.
fn check_job(pins: &Pins, labels: &[&str], res: &JobResult) -> Result<(), String> {
    let (results, stats) = res.as_ref().map_err(|e| format!("job failed: {e}"))?;
    if stats.reconnects + stats.resubmits + stats.queue_full + stats.timeouts > 0 {
        return Err(format!("job retried: {stats:?}"));
    }
    let ok = results.len() == labels.len()
        && results.iter().zip(labels).all(|(r, label)| {
            r.as_ref().is_ok_and(|r| pins.matches(label, &util::report_digest(r)))
        });
    if ok {
        Ok(())
    } else {
        Err("served reports differ from their pins".to_string())
    }
}

fn status_counts(addr: &str) -> Result<Vec<u64>, String> {
    let s = client::status(addr).map_err(|e| format!("status: {e}"))?;
    Ok(SERVER_COUNTS
        .iter()
        .map(|name| {
            let mut v = &s;
            for key in name.trim_start_matches("server.").split('.') {
                v = v.get(key).unwrap_or(&Json::Null);
            }
            v.as_u64().unwrap_or(0)
        })
        .collect())
}

/// A running server and the thread serving it.
struct Server {
    addr: String,
    handle: JoinHandle<std::io::Result<Json>>,
}

impl Server {
    fn start(args: &Args, rep: usize) -> Result<Server, String> {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            threads: 1,
            store_dir: args.work_dir.join(format!("serve-{rep}")).join("cache"),
            ..ServerConfig::default()
        };
        let srv = JobServer::bind(&cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = srv.local_addr().map_err(|e| format!("local_addr: {e}"))?.to_string();
        Ok(Server { addr, handle: std::thread::spawn(move || srv.serve()) })
    }

    fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"))?;
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Timestamps one relayed connection saw.
struct ConnTimes {
    accepted: Instant,
    first_event: Option<Instant>,
    complete: Option<Instant>,
}

/// A pass-through TCP relay in front of the server that timestamps, per
/// connection, the accept, the first job event after `queued`, and the
/// `complete` event. It is the traced run's view of the server.
struct Relay {
    addr: String,
    stop: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<ConnTimes>>>,
    accept: JoinHandle<()>,
}

impl Relay {
    fn start(upstream: &str) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let (stop2, log2, upstream) = (Arc::clone(&stop), Arc::clone(&log), upstream.to_string());
        let accept = std::thread::spawn(move || {
            let mut conns = vec![];
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let accepted = Instant::now();
                let (log, upstream) = (Arc::clone(&log2), upstream.clone());
                conns.push(std::thread::spawn(move || {
                    if let Ok(t) = relay(stream, &upstream, accepted) {
                        log.lock().expect("relay log poisoned").push(t);
                    }
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Relay { addr, stop, log, accept })
    }

    fn finish(self) -> Vec<ConnTimes> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr); // wakes the accept loop
        let _ = self.accept.join();
        std::mem::take(&mut *self.log.lock().expect("relay log poisoned"))
    }
}

fn relay(client: TcpStream, upstream: &str, accepted: Instant) -> std::io::Result<ConnTimes> {
    client.set_nodelay(true)?;
    let server = TcpStream::connect(upstream)?;
    server.set_nodelay(true)?;
    let (mut from_client, mut to_server) = (client.try_clone()?, server.try_clone()?);
    let up = std::thread::spawn(move || {
        let _ = std::io::copy(&mut from_client, &mut to_server);
        let _ = to_server.shutdown(Shutdown::Write);
    });
    let mut times = ConnTimes { accepted, first_event: None, complete: None };
    let (mut reader, mut to_client) = (BufReader::new(server), client);
    let (mut line, mut lines) = (Vec::new(), 0);
    let streamed = loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break Ok(()),
            Ok(_) => {}
            Err(e) => break Err(e),
        }
        let now = Instant::now();
        lines += 1;
        if lines == 2 {
            times.first_event = Some(now);
        }
        if line.starts_with(b"{\"event\":\"complete\"") {
            times.complete = Some(now);
        }
        if let Err(e) = to_client.write_all(&line) {
            break Err(e);
        }
    };
    let _ = to_client.shutdown(Shutdown::Both);
    let _ = up.join();
    streamed.map(|()| times)
}

/// One scheduled job: the figure grid plus one never-seen point.
struct Job {
    new: usize,
    due: Duration,
    relayed: bool,
}

/// What the generator recorded for one job.
struct Sent {
    job: usize,
    lag: Duration,
    latency: Duration,
    checked: Result<(), String>,
    stats: Option<ClientStats>,
    /// The job's reports, kept for the traced codec and store timings
    /// (first `CODEC_JOBS` jobs of a traced run only).
    kept: Option<Vec<Result<SimReport, secsim_bench::SweepError>>>,
}

/// One set-up repetition: bind a server on a fresh store and submit the
/// figure grid once, which fills the store and the server's memo.
/// Returns the server, the job's check and the time taken.
fn set_up(
    args: &Args,
    rep: usize,
    pins: &Pins,
    grid: &[Labeled],
) -> Result<(Server, Result<(), String>, f64), String> {
    let points: Vec<SweepPoint> = grid.iter().map(|l| l.point.clone()).collect();
    let labels: Vec<&str> = grid.iter().map(|l| l.label.as_str()).collect();
    let t = Instant::now();
    let srv = Server::start(args, rep)?;
    let res = client::run_sweep_with(&srv.addr, &points, RetryPolicy::default());
    let secs = t.elapsed().as_secs_f64();
    Ok((srv, check_job(pins, &labels, &res), secs))
}

pub fn run(args: &Args, pins: &Pins) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let grid = figure_grid();
    let fresh = new_pool();
    let n = (RATE * args.seconds) as usize;
    if n > fresh.len() {
        return Err(format!("{n} jobs need more than the {} new points", fresh.len()));
    }
    // Pristine images live in a process-wide memo; build them once before
    // the set-up repetitions so each repetition does the same work.
    for b in BenchId::ALL {
        build_workload(b, IMAGE_SEED);
    }

    // The first set-up repetition binds the server the jobs go to; the
    // others run between segments of the measured phase on servers of
    // their own, which shut down again.
    let (server, checked, secs) = set_up(args, 0, pins, &grid)?;
    out.check(checked.is_ok(), || format!("set-up: {}", checked.clone().unwrap_err()));
    let mut setup = vec![secs];

    // The schedule: a fixed number of jobs with arrival times drawn
    // uniformly over the window (a Poisson process conditioned on its
    // count), each with one unused new point.
    let mut rng = SplitMix64::new(args.seed);
    let window = Duration::from_secs(args.seconds);
    let mut dues: Vec<f64> = (0..n).map(|_| util::unit(&mut rng) * window.as_secs_f64()).collect();
    dues.sort_by(f64::total_cmp);
    let mut fresh_order: Vec<usize> = (0..fresh.len()).collect();
    util::shuffle(&mut fresh_order, &mut rng);
    let jobs: Vec<Job> = dues
        .iter()
        .enumerate()
        .map(|(i, &due)| Job {
            new: fresh_order[i],
            due: Duration::from_secs_f64(due),
            relayed: args.trace && i % 2 == 1,
        })
        .collect();

    let before = status_counts(&server.addr)?;
    let relay = if args.trace {
        Some(Relay::start(&server.addr).map_err(|e| format!("relay: {e}"))?)
    } else {
        None
    };
    let relay_addr = relay.as_ref().map(|r| r.addr.clone());
    let grid_points: Vec<SweepPoint> = grid.iter().map(|l| l.point.clone()).collect();
    let grid_labels: Vec<&str> = grid.iter().map(|l| l.label.as_str()).collect();
    let sent: Mutex<Vec<Sent>> = Mutex::new(Vec::with_capacity(n));

    // The window runs in SETUP_REPS segments with a set-up repetition
    // between consecutive ones; each segment is held open to its
    // scheduled end, so the offered rate stays RATE.
    let mut measured = Duration::ZERO;
    let mut first = 0;
    for seg in 0..SETUP_REPS {
        let lo = window.mul_f64(seg as f64 / SETUP_REPS as f64);
        let hi = window.mul_f64((seg + 1) as f64 / SETUP_REPS as f64);
        let end = if seg + 1 == SETUP_REPS {
            n
        } else {
            first + jobs[first..].iter().take_while(|j| j.due < hi).count()
        };
        let next = AtomicUsize::new(first);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= end {
                        break;
                    }
                    let job = &jobs[i];
                    let mut points = grid_points.clone();
                    points.push(fresh[job.new].point.clone());
                    let due = t0 + (job.due - lo);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let start = Instant::now();
                    let addr = if job.relayed { relay_addr.as_deref() } else { None };
                    let result = client::run_sweep_with(
                        addr.unwrap_or(&server.addr),
                        &points,
                        RetryPolicy::default(),
                    );
                    let done = Instant::now();
                    let mut labels = grid_labels.clone();
                    labels.push(&fresh[job.new].label);
                    let checked = check_job(pins, &labels, &result);
                    let stats = result.as_ref().ok().map(|(_, st)| *st);
                    let kept = (args.trace && i < CODEC_JOBS)
                        .then(|| result.ok().map(|(r, _)| r))
                        .flatten();
                    sent.lock().expect("results poisoned").push(Sent {
                        job: i,
                        lag: start - due,
                        latency: done - due,
                        checked,
                        stats,
                        kept,
                    });
                });
            }
        });
        if let Some(rest) = (t0 + (hi - lo)).checked_duration_since(Instant::now()) {
            std::thread::sleep(rest);
        }
        measured += t0.elapsed();
        first = end;
        if seg + 1 < SETUP_REPS {
            let (srv, checked, secs) = set_up(args, seg + 1, pins, &grid)?;
            srv.stop()?;
            out.check(checked.is_ok(), || format!("set-up: {}", checked.clone().unwrap_err()));
            setup.push(secs);
        }
    }
    out.set("setup_s", util::median(&setup));
    let conns = relay.map(Relay::finish).unwrap_or_default();
    let after = status_counts(&server.addr)?;

    let mut sent = sent.into_inner().expect("results poisoned");
    sent.sort_by_key(|s| s.job);
    let mut totals = [0u64; 4];
    let (mut op_ms, mut lag_ms) = (vec![], vec![]);
    for s in &sent {
        out.check(s.checked.is_ok(), || {
            format!("job {}: {}", s.job, s.checked.clone().unwrap_err())
        });
        if let Some(st) = s.stats {
            for (t, v) in
                totals.iter_mut().zip([st.reconnects, st.resubmits, st.queue_full, st.timeouts])
            {
                *t += v;
            }
        }
        lag_ms.push(ms(s.lag));
        op_ms.push((ms(s.latency), jobs[s.job].relayed));
    }
    let all_ms: Vec<f64> = op_ms.iter().map(|&(t, _)| t).collect();
    out.set_op_metrics(&all_ms, 1, measured, SERVE_TAIL_PCT);
    out.notes.push(format!(
        "{n} jobs at {RATE}/s offered, {} points each (fig9's grid + 1 new), over at most \
         {CONNECTIONS} connections",
        grid.len() + 1
    ));
    for (name, (a, b)) in SERVER_COUNTS.iter().zip(after.iter().zip(&before)) {
        out.set(name, a.saturating_sub(*b) as f64);
    }
    for (name, v) in CLIENT_COUNTS.iter().zip(totals) {
        out.set(name, v as f64);
    }
    lag_ms.sort_by(f64::total_cmp);
    out.set("gen.lag_ms_p99", util::percentile(&lag_ms, 99.0));

    if args.trace {
        let first: Vec<f64> =
            conns.iter().filter_map(|c| Some(ms(c.first_event? - c.accepted))).collect();
        let stream: Vec<f64> =
            conns.iter().filter_map(|c| Some(ms(c.complete? - c.first_event?))).collect();
        out.set("serve.first_event_ms_p50", util::median(&first));
        out.set("serve.stream_ms_p50", util::median(&stream));
        out.set("trace.overhead_pct", util::overhead_pct(&op_ms));
        codec_and_store(&mut out, args, &grid_points, &fresh, &jobs, &sent);
    }
    server.stop()?;
    Ok(out)
}

/// Times the client's protocol encode/decode and the store's put/load
/// on the reports the measured phase kept, after it ended.
fn codec_and_store(
    out: &mut Outcome,
    args: &Args,
    grid: &[SweepPoint],
    fresh: &[Labeled],
    jobs: &[Job],
    sent: &[Sent],
) {
    let (mut enc_us, mut dec_us, mut npoints) = (0.0, 0.0, 0usize);
    let store = ResultStore::new(args.work_dir.join("store-probe"));
    let (mut put_ms, mut load_ms) = (vec![], vec![]);
    for s in sent {
        let Some(results) = &s.kept else {
            continue;
        };
        let new = &fresh[jobs[s.job].new].point;
        let mut points = grid.to_vec();
        points.push(new.clone());
        let t = Instant::now();
        std::hint::black_box(protocol::sweep_request_v2(&points));
        enc_us += t.elapsed().as_secs_f64() * 1e6;
        for (i, r) in results.iter().enumerate() {
            let (key, payload) = protocol::result_to_json(r);
            let line = Json::obj(vec![
                ("event", Json::Str("point-done".into())),
                ("job", Json::UInt(1)),
                ("index", Json::UInt(i as u64)),
                (key, payload),
                ("seq", Json::UInt(i as u64 + 2)),
            ])
            .render();
            let t = Instant::now();
            let ev = Json::parse(&line).expect("rendered event parses");
            std::hint::black_box(protocol::result_from_json(&ev).ok());
            dec_us += t.elapsed().as_secs_f64() * 1e6;
        }
        npoints += points.len();
        // The job's never-seen point is its last; store it once more.
        let Some(Ok(r)) = results.last() else {
            continue;
        };
        let (bench, key) = (new.bench.name(), new.key());
        let t = Instant::now();
        store.put(bench, key, r);
        put_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(store.load(bench, key));
        load_ms.push(ms(t.elapsed()));
    }
    out.set("protocol.encode_us_per_point", enc_us / npoints.max(1) as f64);
    out.set("protocol.decode_us_per_point", dec_us / npoints.max(1) as f64);
    out.set("store.put_ms_p50", util::median(&put_ms));
    out.set("store.load_ms_p50", util::median(&load_ms));
}
