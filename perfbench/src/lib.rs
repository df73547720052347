//! End-to-end benchmark of SOAP-binQ calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ois_pbio|array_pbio|array_xml|image_binq> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Server and clients run in one process over loopback, each in its
//! default configuration; the binary first pins the process to one CPU
//! ([`procfs::pin_to_one_cpu`]). The load is a closed loop of
//! [`workload::CLIENTS`] blocking clients, each on its own keep-alive
//! connection; a call is timed from its send to its decoded result, and
//! every response is checked.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]). `--trace 1`
//! runs the same workload and seed and splits the time in thirds: an
//! untraced window, a window with every call recorded as a span and
//! allocation counting on, and the per-layer phase ([`layers`]); it reports
//! the per-layer metrics ([`PER_LAYER`]), prints the layer table with its
//! `unattributed` row, and writes every span as JSON lines.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the process exits non-zero when any
//! response was wrong.

pub mod alloc;
pub mod driver;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

use driver::{closed_loop, set_up, LoopResult, Session};
use report::{median, median_f64, quantile, ratio, Metric};
use sbq_telemetry::Registry;
use spans::Span;
use std::collections::BTreeMap;
use std::path::PathBuf;
use workload::{Inputs, Kind, CLIENTS};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("calls_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("cpu_us_per_call", "us"),
    ("payload_mb_s", "MB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("call.p50_us", "us"),
    ("call.p99_us", "us"),
    ("http.roundtrip_us.p50", "us"),
    ("http.queue_wait_us.mean", "us"),
    ("http.read_us.mean", "us"),
    ("http.write_us.mean", "us"),
    ("pbio.encode_us.p50", "us"),
    ("pbio.decode_us.p50", "us"),
    ("pbio.encode_allocs", "count"),
    ("pbio.decode_allocs", "count"),
    ("pbio.handshake_us", "us"),
    ("xml.encode_us.p50", "us"),
    ("xml.decode_us.p50", "us"),
    ("xml.decode_allocs", "count"),
    ("qos.prepare_us.p50", "us"),
    ("qos.handler_us.p50", "us"),
    ("qos.reduced_frac", "ratio"),
    ("qos.responses", "count"),
    ("qos.band_switches", "count"),
    ("app.handler_us.p50", "us"),
    ("runtime.pool_hit_ratio", "ratio"),
    ("proc.minflt_per_call", "count"),
    ("proc.allocs_per_call", "count"),
    ("unattributed_us.p50", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Slices in which the hypervisor stole more than this share of the
/// machine's CPU time measure the host rather than the program, and are
/// left out of the end-to-end metrics.
const MAX_STEAL: f64 = 0.02;

/// The slices the end-to-end metrics use: those without steal above
/// [`MAX_STEAL`], or every slice when fewer than a quarter qualify.
fn usable_slices(slices: &[driver::Slice]) -> Vec<&driver::Slice> {
    let clean: Vec<&driver::Slice> = slices.iter().filter(|s| s.steal <= MAX_STEAL).collect();
    if !clean.is_empty() && clean.len() * 4 >= slices.len() {
        clean
    } else {
        slices.iter().collect()
    }
}

/// Calls per second of a slice.
fn call_rate(s: &driver::Slice) -> f64 {
    ratio(s.calls as f64, s.wall.as_secs_f64())
}

/// The middle half of `used`, ranked by call rate. The rate metrics sum
/// over these slices: the slices a burst of interference slowed (or a
/// lull sped up) fall at the ends, and the sums, unlike a median of
/// per-slice rates, are not whole numbers of calls per slice.
fn middle_half<'a>(used: &[&'a driver::Slice]) -> Vec<&'a driver::Slice> {
    let mut ranked = used.to_vec();
    ranked.sort_by(|a, b| call_rate(a).total_cmp(&call_rate(b)));
    let n = ranked.len();
    ranked[n / 4..n - n / 4].to_vec()
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window (split in thirds in a traced run).
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// No call failed and every response was right.
    pub correct: bool,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that failed or returned a wrong result.
    pub failed: u64,
    /// Every metric of the run's kind, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// The JSON result line.
    pub fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Builds metrics in catalogue order from `values`.
fn catalogue(names: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed")),
            unit,
        })
        .collect()
}

/// Runs one workload as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let inputs = Inputs::generate(opts.kind, opts.seed);
    alloc::set_counting(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(s) = session.take() {
            Session::shut_down(s);
        }
        let (s, took) = set_up(&inputs)?;
        setups.push(took.as_nanos() as u64);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let warmup = (opts.seconds * 0.1).min(0.5);
    let mut report = vec![
        format!(
            "perfbench workload={} seed={} clients={CLIENTS} seconds={} trace={}",
            opts.kind.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        format!("why: {}", opts.kind.why()),
    ];
    if !opts.trace {
        let r = closed_loop(&inputs, &mut session, warmup, opts.seconds, false);
        session.shut_down();
        describe_window(&mut report, "measured", &inputs, &r);
        // Over the window's slices (`driver::SLICE_SECONDS`): latencies are
        // medians of the per-slice quantiles, rates are sums over the
        // middle half.
        let used = usable_slices(&r.slices);
        report.push(format!(
            "slices used: {} of {} (hypervisor steal at most {MAX_STEAL} of the machine's CPU time)",
            used.len(),
            r.slices.len()
        ));
        let per_slice = |f: &dyn Fn(&driver::Slice) -> f64| median_f64(used.iter().copied().map(f));
        let middle = middle_half(&used);
        let sum = |f: &dyn Fn(&driver::Slice) -> f64| middle.iter().copied().map(f).sum::<f64>();
        let (calls, wall) = (sum(&|s| s.calls as f64), sum(&|s| s.wall.as_secs_f64()));
        let values = BTreeMap::from([
            ("calls_per_s", ratio(calls, wall)),
            ("p50_us", per_slice(&|s| s.p50_ns / 1e3)),
            ("p90_us", per_slice(&|s| s.p90_ns / 1e3)),
            (
                "cpu_us_per_call",
                ratio(sum(&|s| s.cpu.as_secs_f64()) * 1e6, calls),
            ),
            (
                "payload_mb_s",
                ratio(sum(&|s| s.payload_bytes as f64), wall) / 1e6,
            ),
            ("setup_s", median(setups) / 1e9),
            ("peak_rss_mb", r.peak_rss_mb),
        ]);
        let metrics = catalogue(END_TO_END, &values);
        return Ok(finish(
            report,
            r.attempted,
            r.failed,
            r.first_error,
            metrics,
        ));
    }
    traced_run(opts, &inputs, session, warmup, report)
}

fn finish(
    mut report: Vec<String>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    metrics: Vec<Metric>,
) -> Outcome {
    if let Some(e) = first_error {
        report.push(format!("first failure: {e}"));
    }
    for m in &metrics {
        report.push(format!("{:<26} {:>16.3} {}", m.name, m.value, m.unit));
    }
    Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        report,
    }
}

fn describe_window(report: &mut Vec<String>, what: &str, inputs: &Inputs, r: &LoopResult) {
    let calls = r.attempted.max(1) as f64;
    report.push(format!(
        "{what} window: {:.3} s, attempted={} completed={} failed={} failed_frac={} latency samples={}",
        r.wall.as_secs_f64(),
        r.attempted,
        r.completed(),
        r.failed,
        ratio(r.failed as f64, r.attempted as f64),
        r.latencies_ns.len()
    ));
    let (sent, received) = (r.wire_sent as f64 / calls, r.wire_received as f64 / calls);
    let mut line = format!("wire body bytes per call: request={sent:.0} response={received:.0}");
    if let Some(sbq_model::Value::FloatArray(a)) = inputs.requests.first() {
        line.push_str(&format!(
            " ({:.2} B per f64 element)",
            sent / a.len() as f64
        ));
    }
    report.push(line);
    let rates: Vec<String> = r
        .slices
        .iter()
        .map(|s| format!("{:.0}", call_rate(s)))
        .collect();
    report.push(format!("calls/s per slice: {}", rates.join(" ")));
    report.push(format!(
        "process CPU {:.3} s, {:.2} minor faults per call",
        r.proc.cpu.as_secs_f64(),
        ratio(r.proc.minflt as f64, r.completed() as f64)
    ));
}

/// Global counters read before and after the traced window.
struct Counters {
    pool_hit: u64,
    pool_miss: u64,
    band_switches: u64,
    reduced: u64,
}

impl Counters {
    fn read(session: &Session) -> Counters {
        let reg = Registry::global();
        Counters {
            pool_hit: reg.counter("pool.buffers.hit").get(),
            pool_miss: reg.counter("pool.buffers.miss").get(),
            band_switches: reg.counter("qos.band_switch.degrade").get()
                + reg.counter("qos.band_switch.upgrade").get(),
            reduced: session.server.reduced_responses(),
        }
    }
}

/// Mean of one of the transport's `/metrics` histograms, in microseconds.
fn http_mean_us(name: &str) -> f64 {
    Registry::global().histogram(name).snapshot().mean() / 1e3
}

/// Per-call self time and allocations of each layer, by root kind.
pub struct LayerStats {
    /// Synthetic calls along the workload's path.
    pub on_path: BTreeMap<&'static str, Vec<(u64, u64)>>,
    /// Off-path reference timings.
    pub reference: BTreeMap<&'static str, Vec<(u64, u64)>>,
    /// Fresh-endpoint exchanges.
    pub handshake: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl LayerStats {
    /// Groups layer-phase spans by root.
    pub fn new(threads: &[Vec<Span>]) -> LayerStats {
        LayerStats {
            on_path: spans::per_call(threads, "call"),
            reference: spans::per_call(threads, "ref"),
            handshake: spans::per_call(threads, "handshake"),
        }
    }

    /// Per-call self-time p50 (µs) and allocation p50 of `name`, from the
    /// on-path calls when the layer is on the workload's path, else from
    /// the reference timings.
    pub fn layer(&self, kind: Kind, name: &str) -> (f64, f64) {
        let source = if on_path(kind).contains(&name) {
            &self.on_path
        } else {
            &self.reference
        };
        match source.get(name) {
            Some(v) => (
                median(v.iter().map(|x| x.0)) / 1e3,
                median(v.iter().map(|x| x.1)),
            ),
            None => (0.0, 0.0),
        }
    }

    /// Median wall time of a first exchange on fresh endpoints, µs.
    pub fn handshake_us(&self) -> f64 {
        let calls = self.handshake.values().map(Vec::len).max().unwrap_or(0);
        median((0..calls).map(|i| self.handshake.values().map(|v| v[i].0).sum::<u64>())) / 1e3
    }
}

/// Layers on the blocking path of a workload's call, in call order.
pub fn on_path(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::OisPbio | Kind::ArrayPbio => &[
            "pbio.encode",
            "pbio.decode",
            "app.handler",
            "http.roundtrip",
        ],
        Kind::ArrayXml => &["xml.encode", "xml.decode", "app.handler", "http.roundtrip"],
        Kind::ImageBinq => &[
            "pbio.encode",
            "pbio.decode",
            "app.handler",
            "qos.prepare",
            "qos.handler",
            "http.roundtrip",
        ],
    }
}

/// The traced call p50 minus the sum of the on-path layers' per-call
/// self-time p50s (all in µs).
pub fn unattributed_us(call_p50_us: f64, stats: &LayerStats, kind: Kind) -> f64 {
    call_p50_us
        - on_path(kind)
            .iter()
            .map(|n| stats.layer(kind, n).0)
            .sum::<f64>()
}

fn traced_run(
    opts: &Options,
    inputs: &Inputs,
    mut session: Session,
    warmup: f64,
    mut report: Vec<String>,
) -> Result<Outcome, String> {
    let third = opts.seconds / 3.0;
    let base = closed_loop(inputs, &mut session, warmup, third, false);
    describe_window(&mut report, "untraced", inputs, &base);
    let before = Counters::read(&session);
    alloc::set_counting(true);
    let traced = closed_loop(inputs, &mut session, 0.0, third, true);
    let after = Counters::read(&session);
    let http_means = [
        (
            "http.queue_wait_us.mean",
            http_mean_us("http.queue_wait_ns"),
        ),
        ("http.read_us.mean", http_mean_us("http.read_ns")),
        ("http.write_us.mean", http_mean_us("http.write_ns")),
    ];
    session.shut_down();
    describe_window(&mut report, "traced", inputs, &traced);
    let layer_run = layers::run(inputs, third)?;
    alloc::set_counting(false);

    let kind = opts.kind;
    let stats = LayerStats::new(&layer_run.spans);
    let completed = traced.completed() as f64;
    let call_p50 = quantile(&traced.latencies_ns, 0.5) / 1e3;
    let base_p50 = quantile(&base.latencies_ns, 0.5) / 1e3;
    let quality = inputs.schedule.is_some();
    let handler_runs: Vec<u64> = layer_run
        .spans
        .iter()
        .flatten()
        .filter(|s| s.name == "qos.handler")
        .map(Span::duration_ns)
        .collect();
    let responses = if quality { traced.attempted } else { 0 };
    let pool = (
        (after.pool_hit - before.pool_hit) as f64,
        (after.pool_miss - before.pool_miss) as f64,
    );
    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("call.p50_us", call_p50),
        ("call.p99_us", quantile(&traced.latencies_ns, 0.99) / 1e3),
        ("pbio.handshake_us", stats.handshake_us()),
        ("qos.handler_us.p50", median(handler_runs) / 1e3),
        (
            "qos.reduced_frac",
            ratio((after.reduced - before.reduced) as f64, responses as f64),
        ),
        ("qos.responses", responses as f64),
        (
            "qos.band_switches",
            (after.band_switches - before.band_switches) as f64,
        ),
        ("runtime.pool_hit_ratio", ratio(pool.0, pool.0 + pool.1)),
        (
            "proc.minflt_per_call",
            ratio(traced.proc.minflt as f64, completed),
        ),
        (
            "proc.allocs_per_call",
            ratio(traced.allocs as f64, completed),
        ),
        (
            "unattributed_us.p50",
            unattributed_us(call_p50, &stats, kind),
        ),
        ("trace.overhead_frac", ratio(call_p50 - base_p50, base_p50)),
    ]);
    values.extend(http_means);
    for (metric, layer) in [
        ("http.roundtrip_us.p50", "http.roundtrip"),
        ("pbio.encode_us.p50", "pbio.encode"),
        ("pbio.decode_us.p50", "pbio.decode"),
        ("xml.encode_us.p50", "xml.encode"),
        ("xml.decode_us.p50", "xml.decode"),
        ("qos.prepare_us.p50", "qos.prepare"),
        ("app.handler_us.p50", "app.handler"),
    ] {
        values.insert(metric, stats.layer(kind, layer).0);
    }
    for (metric, layer) in [
        ("pbio.encode_allocs", "pbio.encode"),
        ("pbio.decode_allocs", "pbio.decode"),
        ("xml.decode_allocs", "xml.decode"),
    ] {
        values.insert(metric, stats.layer(kind, layer).1);
    }

    layer_table(&mut report, kind, &stats, call_p50, &values);
    report.push(format!(
        "qos.reduced_frac base: {responses} responses; runtime.pool_hit_ratio base: {} pool gets",
        pool.0 + pool.1
    ));
    let all_spans: Vec<Vec<Span>> = traced
        .spans
        .iter()
        .chain(layer_run.spans.iter())
        .cloned()
        .collect();
    let file = opts
        .spans_dir
        .join(format!("{}-seed{}.spans.jsonl", kind.name(), opts.seed));
    std::fs::create_dir_all(&opts.spans_dir)
        .and_then(|()| std::fs::write(&file, spans::to_jsonl(&all_spans)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    report.push(format!(
        "{} spans written to {}",
        all_spans.iter().map(Vec::len).sum::<usize>(),
        file.display()
    ));

    let attempted = base.attempted + traced.attempted + layer_run.attempted;
    let failed = base.failed + traced.failed + layer_run.failed;
    let first_error = base
        .first_error
        .or(traced.first_error)
        .or(layer_run.first_error);
    let metrics = catalogue(PER_LAYER, &values);
    Ok(finish(report, attempted, failed, first_error, metrics))
}

fn layer_table(
    report: &mut Vec<String>,
    kind: Kind,
    stats: &LayerStats,
    call_p50: f64,
    values: &BTreeMap<&str, f64>,
) {
    report.push(format!(
        "{:<16} {:<9} {:>14} {:>14} {:>8} {:>12}",
        "layer", "path", "self p50 us", "self mean us", "calls", "allocs p50"
    ));
    let row = |report: &mut Vec<String>, name: &str, path: &str, v: &Vec<(u64, u64)>| {
        let ran = v.iter().filter(|x| x.0 > 0).count();
        let mean = v.iter().map(|x| x.0 as f64).sum::<f64>() / v.len().max(1) as f64 / 1e3;
        report.push(format!(
            "{name:<16} {path:<9} {:>14.3} {mean:>14.3} {ran:>8} {:>12}",
            median(v.iter().map(|x| x.0)) / 1e3,
            median(v.iter().map(|x| x.1)),
        ));
    };
    for &name in on_path(kind) {
        if let Some(v) = stats.on_path.get(name) {
            row(report, name, "blocking", v);
        }
    }
    report.push(format!(
        "{:<16} {:<9} {:>14.3}   (traced call p50 {call_p50:.3} us minus the rows above)",
        "unattributed", "blocking", values["unattributed_us.p50"]
    ));
    if let Some(v) = stats.on_path.get("call") {
        row(report, "(harness)", "glue", v);
    }
    for (name, v) in &stats.reference {
        let root = ["call", "ref", "handshake"].contains(name);
        if !root && !on_path(kind).contains(name) {
            row(report, name, "off-path", v);
        }
    }
    report.push(format!(
        "trace.overhead_frac {:.4} (traced against untraced call p50)",
        values["trace.overhead_frac"]
    ));
}

/// Directory a traced run writes spans to when none is given: under the
/// Cargo target directory.
pub fn default_spans_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("perfbench-spans")
}

/// Parses `--workload`, `--seed`, `--seconds`, `--trace` and the optional
/// `--spans-dir`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_dir: spans_dir.unwrap_or_else(default_spans_dir),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_with_steal_are_dropped_unless_too_few_remain() {
        let slice = |steal| driver::Slice {
            steal,
            ..driver::Slice::default()
        };
        let mixed = [slice(0.0), slice(0.5), slice(0.01), slice(0.03)];
        let used: Vec<f64> = usable_slices(&mixed).iter().map(|s| s.steal).collect();
        assert_eq!(used, vec![0.0, 0.01]);
        let stolen = [slice(0.0), slice(0.5), slice(0.5), slice(0.5), slice(0.5)];
        assert_eq!(usable_slices(&stolen).len(), 5);
    }

    #[test]
    fn rates_use_the_middle_half_of_slices_by_call_rate() {
        let slice = |calls| driver::Slice {
            calls,
            wall: std::time::Duration::from_millis(500),
            ..driver::Slice::default()
        };
        let slices = [
            slice(40),
            slice(10),
            slice(30),
            slice(90),
            slice(20),
            slice(35),
        ];
        let used: Vec<&driver::Slice> = slices.iter().collect();
        let calls: Vec<u64> = middle_half(&used).iter().map(|s| s.calls).collect();
        assert_eq!(calls, vec![20, 30, 35, 40]);
        assert_eq!(middle_half(&used[..1]).len(), 1);
        assert_eq!(middle_half(&used[..3]).len(), 3);
    }
}
