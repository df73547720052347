//! Set-up and the closed-loop load: [`CLIENTS`] blocking clients, each on
//! its own keep-alive connection, each sending its next call only when
//! the previous one has been decoded.

use crate::alloc;
use crate::procfs::{self, HostSample, ProcSample};
use crate::report::quantile;
use crate::spans;
use crate::workload::{Inputs, CLIENTS};
use soap_binq::{SoapClient, SoapServer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A bound server with its connected, warmed-up clients.
pub struct Session {
    /// The SOAP-binQ server.
    pub server: SoapServer,
    /// One client per load thread.
    pub clients: Vec<SoapClient>,
    /// Next request index of each client.
    next: Vec<usize>,
}

impl Session {
    /// Stops the server and drops the clients.
    pub fn shut_down(mut self) {
        self.clients.clear();
        self.server.shutdown();
    }
}

/// Binds the server and connects every client through its first call.
/// Returns the session and the time from the start of the bind until
/// every client has finished its first call (connect and PBIO format
/// handshake included).
pub fn set_up(inputs: &Inputs) -> Result<(Session, Duration), String> {
    let t0 = Instant::now();
    let server = inputs.bind().map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut next = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut client = inputs
            .connect(server.addr())
            .map_err(|e| format!("connect: {e}"))?;
        let i = inputs.first_request(c);
        let request = inputs.prepare(&mut client, i);
        let reply = inputs
            .call(&mut client, request)
            .map_err(|e| format!("first call: {e}"))?;
        if !inputs.check(i, &reply) {
            return Err(format!("first call of client {c} returned a wrong result"));
        }
        clients.push(client);
        next.push(i + 1);
    }
    let elapsed = t0.elapsed();
    Ok((
        Session {
            server,
            clients,
            next,
        },
        elapsed,
    ))
}

/// Length of the slices a window is cut into; each end-to-end metric is
/// taken over the typical slices (a median, or a sum over the middle
/// half), so a short burst of interference from outside the process moves
/// a few slices, not the result.
pub const SLICE_SECONDS: f64 = 0.5;

/// Upper bound on one client's call rate, for sizing its call record.
const MAX_CALLS_PER_S: f64 = 20_000.0;

/// What one slice of a window measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Wall time of the slice.
    pub wall: Duration,
    /// Correct calls that completed inside the slice.
    pub calls: u64,
    /// Their median latency, nanoseconds.
    pub p50_ns: f64,
    /// Their 90th-percentile latency, nanoseconds.
    pub p90_ns: f64,
    /// Their application payload bytes.
    pub payload_bytes: u64,
    /// Process CPU time spent in the slice.
    pub cpu: Duration,
    /// Share of the machine's CPU time the hypervisor stole in the slice.
    pub steal: f64,
}

/// What a closed-loop window measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Latency of every completed, correct call, in nanoseconds, sorted.
    pub latencies_ns: Vec<u64>,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that failed or returned a wrong result.
    pub failed: u64,
    /// First failure, for the error report.
    pub first_error: Option<String>,
    /// Request body bytes on the wire.
    pub wire_sent: u64,
    /// Response body bytes on the wire.
    pub wire_received: u64,
    /// Wall time of the window.
    pub wall: Duration,
    /// Process CPU and fault counters over the window.
    pub proc: ProcSample,
    /// Allocations on every thread over the window (0 unless counting).
    pub allocs: u64,
    /// Spans recorded per client thread (traced windows only).
    pub spans: Vec<Vec<spans::Span>>,
    /// The window cut into slices of about [`SLICE_SECONDS`].
    pub slices: Vec<Slice>,
    /// Peak resident set size of the process when the window closed, MiB.
    pub peak_rss_mb: f64,
}

impl LoopResult {
    /// Completed, correct calls.
    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }
}

/// A slice boundary: when, with the process's and the machine's counters.
fn mark(at: Instant) -> (Instant, ProcSample, HostSample) {
    (
        at,
        ProcSample::now().unwrap_or_default(),
        HostSample::now().unwrap_or_default(),
    )
}

/// One client's record of its completed, correct calls.
struct Record {
    /// Latency of each call, nanoseconds (saturating).
    latency_ns: Vec<u32>,
    /// Slice each call completed in.
    slice: Vec<u8>,
    /// Payload bytes per slice; the last entry collects calls that
    /// completed after the window closed.
    payload: Vec<u64>,
}

impl Record {
    /// A record with room for `calls` calls, its pages touched now so that
    /// recording adds a constant to the peak RSS, whatever the call rate.
    fn new(calls: usize, slices: usize) -> Record {
        let mut latency_ns = vec![u32::MAX; calls];
        let mut slice = vec![u8::MAX; calls];
        std::hint::black_box((&mut latency_ns, &mut slice));
        latency_ns.clear();
        slice.clear();
        Record {
            latency_ns,
            slice,
            payload: vec![0; slices + 1],
        }
    }
}

#[derive(Default)]
struct ClientTally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    wire_sent: u64,
    wire_received: u64,
    spans: Vec<spans::Span>,
}

/// Runs the closed loop for `seconds` (after `warmup` seconds whose calls
/// are not counted). With `traced`, every call is recorded as a `call`
/// span (warm-up calls are not). Each response is checked after its
/// latency has been taken.
pub fn closed_loop(
    inputs: &Inputs,
    session: &mut Session,
    warmup: f64,
    seconds: f64,
    traced: bool,
) -> LoopResult {
    let slices = (seconds / SLICE_SECONDS).round().clamp(1.0, 250.0) as usize;
    let capacity = (seconds * MAX_CALLS_PER_S) as usize;
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    // The slice calls complete in; the main thread advances it.
    let current = AtomicUsize::new(0);
    let start = Barrier::new(CLIENTS + 1);
    let end = Barrier::new(CLIENTS + 1);
    let mut out = LoopResult::default();
    let mut marks = Vec::with_capacity(slices + 1);
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = session
            .clients
            .iter_mut()
            .zip(session.next.iter_mut())
            .enumerate()
            .map(|(c, (client, next))| {
                let (measuring, stop, current) = (&measuring, &stop, &current);
                let (start, end) = (&start, &end);
                s.spawn(move || {
                    let mut t = ClientTally::default();
                    let mut rec = Record::new(capacity, slices);
                    if traced {
                        spans::reserve(1 << 16);
                    }
                    start.wait();
                    let mut counted = false;
                    let (mut sent0, mut recv0) = (0, 0);
                    while !stop.load(Ordering::Relaxed) {
                        if !counted && measuring.load(Ordering::Relaxed) {
                            counted = true;
                            sent0 = client.stats().bytes_sent;
                            recv0 = client.stats().bytes_received;
                        }
                        let i = *next;
                        *next += 1;
                        let request = inputs.prepare(client, i);
                        let payload_in = request.native_size() as u64;
                        spans::set_call(((c as u64) << 40) | i as u64);
                        let t0 = Instant::now();
                        let result = if traced && counted {
                            spans::timed("call", || inputs.call(client, request))
                        } else {
                            inputs.call(client, request)
                        };
                        let dt = t0.elapsed();
                        if !counted {
                            continue;
                        }
                        t.attempted += 1;
                        match result {
                            Ok(reply) if inputs.check(i, &reply) => {
                                let k = current.load(Ordering::Relaxed).min(slices);
                                rec.latency_ns
                                    .push(u32::try_from(dt.as_nanos()).unwrap_or(u32::MAX));
                                rec.slice.push(k as u8);
                                rec.payload[k] += payload_in + reply.value.native_size() as u64;
                            }
                            Ok(_) => {
                                t.failed += 1;
                                t.first_error
                                    .get_or_insert_with(|| format!("call {i}: wrong result"));
                            }
                            Err(e) => {
                                t.failed += 1;
                                t.first_error
                                    .get_or_insert_with(|| format!("call {i}: {e}"));
                            }
                        }
                    }
                    t.wire_sent = client.stats().bytes_sent - sent0;
                    t.wire_received = client.stats().bytes_received - recv0;
                    if traced {
                        t.spans = spans::take();
                    }
                    end.wait();
                    (t, rec)
                })
            })
            .collect();
        start.wait();
        std::thread::sleep(Duration::from_secs_f64(warmup));
        let slice = Duration::from_secs_f64(seconds / slices as f64);
        let allocs0 = alloc::process_allocs();
        let t0 = Instant::now();
        marks.push(mark(t0));
        measuring.store(true, Ordering::Relaxed);
        for k in 1..=slices {
            std::thread::sleep((t0 + slice * k as u32).saturating_duration_since(Instant::now()));
            marks.push(mark(Instant::now()));
            current.store(k, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Relaxed);
        // Every client finishes its call in flight before the window closes.
        end.wait();
        out.wall = t0.elapsed();
        out.allocs = alloc::process_allocs() - allocs0;
        out.proc = ProcSample::now().unwrap_or_default().since(&marks[0].1);
        out.peak_rss_mb = procfs::peak_rss_mb().unwrap_or(0.0);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    out.slices = marks
        .windows(2)
        .map(|w| Slice {
            wall: w[1].0 - w[0].0,
            cpu: w[1].1.since(&w[0].1).cpu,
            steal: w[1].2.steal_since(&w[0].2),
            ..Slice::default()
        })
        .collect();
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices + 1];
    for (t, rec) in tallies {
        for (&lat, &k) in rec.latency_ns.iter().zip(&rec.slice) {
            per_slice[usize::from(k)].push(u64::from(lat));
        }
        for (sl, bytes) in out.slices.iter_mut().zip(&rec.payload) {
            sl.payload_bytes += bytes;
        }
        out.attempted += t.attempted;
        out.failed += t.failed;
        if out.first_error.is_none() {
            out.first_error = t.first_error;
        }
        out.wire_sent += t.wire_sent;
        out.wire_received += t.wire_received;
        out.spans.push(t.spans);
    }
    for (sl, lat) in out.slices.iter_mut().zip(per_slice.iter_mut()) {
        lat.sort_unstable();
        sl.calls = lat.len() as u64;
        sl.p50_ns = quantile(lat, 0.5);
        sl.p90_ns = quantile(lat, 0.9);
    }
    out.latencies_ns = per_slice.concat();
    out.latencies_ns.sort_unstable();
    out
}
