//! Deterministic network-fault injection for the service layer.
//!
//! The repo's core methodology — seeded, replayable fault injection
//! with a checkable invariant — applied one layer up: instead of
//! flipping bits in a simulated pipeline ([`crate::faultpoint`]), the
//! [`ChaosProxy`] sits between a `secsim-serve` client and server and
//! corrupts the *transport*. Every fault is drawn from a [`ChaosPlan`]
//! seeded by SplitMix64, so a failing run replays exactly: the fault
//! hitting connection `n` is a pure function of `(seed, n)`.
//!
//! The invariant under test is the service-layer analogue of "zero
//! undetected tampering": under arbitrary connection faults,
//! reconnecting clients must still terminate with results
//! byte-identical to a fault-free run and `simulated == unique points`
//! (exactly-once execution — nothing lost, nothing duplicated).
//!
//! # Fault kinds
//!
//! Per accepted connection the plan rolls one [`ConnFault`]:
//!
//! * `None` — transparent relay.
//! * `Delay` — stall the server→client stream once for a bounded time.
//! * `Truncate` — forward a byte prefix (typically ending mid-line),
//!   then sever both directions.
//! * `Garbage` — splice a junk burst (control chars, never parseable
//!   as an event) into the server→client stream, then keep relaying.
//! * `Drop` — sever both directions after a byte prefix of the
//!   *client→server* stream (the submission itself may be lost).
//! * `Blackhole` — forward a prefix, then silently discard all further
//!   server→client bytes while keeping the socket open; only a client
//!   read timeout gets out of this one.
//!
//! Faults fire at most once per connection; a reconnecting client gets
//! a fresh roll. With a nonzero fault rate a multi-point job stream is
//! overwhelmingly likely to be interrupted at least once, which is what
//! exercises the protocol's resume path.

use secsim_workloads::SplitMix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The seeded fault schedule. Copyable config: the proxy derives each
/// connection's fault on the fly, so a plan is just `(seed, rate)`.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed for the per-connection fault rolls.
    pub seed: u64,
    /// Percentage of connections that receive a fault (0–100).
    pub fault_rate_pct: u8,
}

impl ChaosPlan {
    /// A plan injecting faults on `fault_rate_pct`% of connections.
    pub fn new(seed: u64, fault_rate_pct: u8) -> Self {
        Self { seed, fault_rate_pct: fault_rate_pct.min(100) }
    }

    /// The fault for the `conn`-th accepted connection — a pure
    /// function of `(seed, conn)`, so schedules replay exactly.
    pub fn fault_for(&self, conn: u64) -> ConnFault {
        let mut rng = SplitMix64::new(
            self.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        );
        if rng.next_u64() % 100 >= u64::from(self.fault_rate_pct) {
            return ConnFault::None;
        }
        let roll = rng.next_u64();
        match roll % 5 {
            0 => ConnFault::Delay { ms: 10 + roll % 150 },
            1 => ConnFault::Truncate { after: 64 + rng.next_u64() % 1536 },
            2 => ConnFault::Garbage { after: 64 + rng.next_u64() % 1024 },
            3 => ConnFault::Drop { after: rng.next_u64() % 2048 },
            _ => ConnFault::Blackhole { after: rng.next_u64() % 1024 },
        }
    }
}

/// What happens to one proxied connection. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Transparent relay.
    None,
    /// Server→client stream stalls once for `ms` milliseconds.
    Delay {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Server→client stream is cut after `after` bytes (mid-line for
    /// any realistic event stream), then both directions sever.
    Truncate {
        /// Bytes forwarded before the cut.
        after: u64,
    },
    /// A junk burst is spliced into the server→client stream after
    /// `after` bytes, corrupting the event line it lands in.
    Garbage {
        /// Bytes forwarded before the junk burst.
        after: u64,
    },
    /// Client→server stream severs after `after` bytes — possibly
    /// before the submission finishes.
    Drop {
        /// Client bytes forwarded before the cut.
        after: u64,
    },
    /// Server→client bytes are silently discarded after `after` bytes;
    /// the socket stays open. Forces the client read timeout.
    Blackhole {
        /// Bytes forwarded before the black hole opens.
        after: u64,
    },
}

/// A fault-injecting TCP relay in front of one upstream address.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts relaying every accepted
    /// connection to `upstream` under `plan`'s fault schedule.
    pub fn spawn(plan: ChaosPlan, upstream: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let conn = accepted.fetch_add(1, Ordering::Relaxed);
                            let fault = plan.fault_for(conn);
                            thread::spawn(move || relay(client, upstream, fault));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(Self { addr, stop, accepted, accept_thread: Some(accept_thread) })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Stops accepting new connections. In-flight relays run to their
    /// natural end (EOF or fault).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Severs both directions of both sockets. Errors are already-dead
/// sockets and ignorable.
fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(std::net::Shutdown::Both);
    let _ = b.shutdown(std::net::Shutdown::Both);
}

/// Runs one proxied connection to completion.
fn relay(client: TcpStream, upstream: SocketAddr, fault: ConnFault) {
    let Ok(server) = TcpStream::connect(upstream) else {
        // Upstream gone: drop the client, which sees a connect-reset —
        // exactly the failure its backoff loop is built for.
        let _ = client.shutdown(std::net::Shutdown::Both);
        return;
    };
    let (Ok(c2s_r), Ok(c2s_w)) = (client.try_clone(), server.try_clone()) else {
        sever(&client, &server);
        return;
    };
    // Client→server pump: plain relay except for `Drop`, which cuts the
    // submission short.
    let c2s = thread::spawn(move || match fault {
        ConnFault::Drop { after } => pump_cut(c2s_r, c2s_w, after),
        _ => pump_plain(c2s_r, c2s_w),
    });
    // Server→client pump (this thread) carries every other fault.
    match fault {
        ConnFault::None | ConnFault::Drop { .. } => pump_plain(server, client),
        ConnFault::Delay { ms } => {
            thread::sleep(Duration::from_millis(ms));
            pump_plain(server, client);
        }
        ConnFault::Truncate { after } => pump_cut(server, client, after),
        ConnFault::Garbage { after } => pump_garbage(server, client, after),
        ConnFault::Blackhole { after } => pump_blackhole(server, client, after),
    }
    let _ = c2s.join();
}

/// Transparent byte pump. EOF half-closes the write side (so the
/// protocol's truncation detection still sees orderly shutdown); errors
/// sever both.
fn pump_plain(mut from: TcpStream, to: TcpStream) {
    let mut to_w = &to;
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(std::net::Shutdown::Write);
                return;
            }
            Ok(n) => {
                if to_w.write_all(&buf[..n]).is_err() {
                    sever(&from, &to);
                    return;
                }
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        }
    }
}

/// Forwards `after` bytes, then severs both directions — a mid-stream
/// (usually mid-line) disconnect.
fn pump_cut(mut from: TcpStream, to: TcpStream, after: u64) {
    let mut to_w = &to;
    let mut left = after;
    let mut buf = [0u8; 4096];
    loop {
        let want = (buf.len() as u64).min(left.max(1)) as usize;
        if left == 0 {
            sever(&from, &to);
            return;
        }
        match from.read(&mut buf[..want]) {
            Ok(0) => {
                let _ = to.shutdown(std::net::Shutdown::Write);
                return;
            }
            Ok(n) => {
                left -= n as u64;
                if to_w.write_all(&buf[..n]).is_err() {
                    sever(&from, &to);
                    return;
                }
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        }
    }
}

/// Forwards `after` bytes, injects a newline-terminated junk burst,
/// then keeps relaying. The burst contains no `"` or `}`, so splicing
/// it into the middle of a JSON event line always leaves unclosed
/// structure: neither the spliced line nor the orphaned tail of the
/// real line can ever parse as a valid event.
fn pump_garbage(mut from: TcpStream, to: TcpStream, after: u64) {
    let mut to_w = &to;
    let mut left = after;
    let mut injected = false;
    let mut buf = [0u8; 4096];
    loop {
        if left == 0 && !injected {
            injected = true;
            if to_w.write_all(b"\x01\x02garbage\x7f\x1b[31mnoise\n").is_err() {
                sever(&from, &to);
                return;
            }
        }
        let want = if injected { buf.len() } else { (buf.len() as u64).min(left) as usize };
        match from.read(&mut buf[..want.max(1)]) {
            Ok(0) => {
                let _ = to.shutdown(std::net::Shutdown::Write);
                return;
            }
            Ok(n) => {
                left = left.saturating_sub(n as u64);
                if to_w.write_all(&buf[..n]).is_err() {
                    sever(&from, &to);
                    return;
                }
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        }
    }
}

/// Forwards `after` bytes, then silently discards the rest while
/// keeping the client socket open — the wedge that only a client read
/// timeout escapes.
fn pump_blackhole(mut from: TcpStream, to: TcpStream, after: u64) {
    let mut to_w = &to;
    let mut left = after;
    let mut buf = [0u8; 4096];
    loop {
        let want = if left == 0 { buf.len() } else { (buf.len() as u64).min(left) as usize };
        match from.read(&mut buf[..want.max(1)]) {
            Ok(0) => {
                // Server finished; keep the client hanging regardless.
                let _ = to.shutdown(std::net::Shutdown::Write);
                return;
            }
            Ok(n) => {
                if left > 0 {
                    left -= n as u64;
                    if to_w.write_all(&buf[..n]).is_err() {
                        sever(&from, &to);
                        return;
                    }
                }
                // left == 0: swallow the bytes, say nothing.
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn fault_schedule_is_a_pure_function_of_seed_and_connection() {
        let plan = ChaosPlan::new(0xC0FFEE, 80);
        let again = ChaosPlan::new(0xC0FFEE, 80);
        let schedule: Vec<ConnFault> = (0..64).map(|c| plan.fault_for(c)).collect();
        let replay: Vec<ConnFault> = (0..64).map(|c| again.fault_for(c)).collect();
        assert_eq!(schedule, replay, "same seed must replay the same schedule");
        let other: Vec<ConnFault> = (0..64).map(|c| ChaosPlan::new(0xBEEF, 80).fault_for(c)).collect();
        assert_ne!(schedule, other, "a different seed must differ somewhere");
        // At 80% the schedule must actually contain faults — and more
        // than one kind of them.
        let faulted = schedule.iter().filter(|f| **f != ConnFault::None).count();
        assert!(faulted > 32, "80% rate produced only {faulted}/64 faults");
        let kinds: std::collections::HashSet<_> =
            schedule.iter().map(std::mem::discriminant).collect();
        assert!(kinds.len() >= 4, "expected fault-kind diversity, got {kinds:?}");
    }

    #[test]
    fn rate_zero_is_fully_transparent() {
        let plan = ChaosPlan::new(7, 0);
        assert!((0..256).all(|c| plan.fault_for(c) == ConnFault::None));
    }

    #[test]
    fn proxy_relays_bytes_both_ways_at_rate_zero() {
        // Line-echo upstream: reads lines, echoes them back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (sock, _) = upstream.accept().unwrap();
            let mut reader = BufReader::new(sock.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                (&sock).write_all(line.as_bytes()).unwrap();
                line.clear();
            }
        });
        let mut proxy = ChaosProxy::spawn(ChaosPlan::new(1, 0), up_addr).unwrap();
        let sock = TcpStream::connect(proxy.addr()).unwrap();
        (&sock).write_all(b"hello through the proxy\n").unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "hello through the proxy\n");
        sock.shutdown(std::net::Shutdown::Both).unwrap();
        echo.join().unwrap();
        assert_eq!(proxy.accepted(), 1);
        proxy.stop();
    }
}
