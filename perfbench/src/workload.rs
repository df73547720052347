//! The four workloads: their inputs, generated from the seed before any
//! clock starts; the server and clients each one runs in the program's
//! default configuration; and the check every response must pass.

use sbq_airline::{airline_service, CateringEvent, Dataset};
use sbq_imaging::service::{image_to_value, value_to_image};
use sbq_imaging::{
    image_quality_file, image_service, install_resize_handlers, starfield, transform,
};
use sbq_model::Value;
use sbq_pbio::format::FormatOptions;
use sbq_pbio::ByteOrder;
use sbq_qos::QualityManager;
use sbq_runtime::SmallRng;
use sbq_wsdl::{compile, CompiledService, ServiceDef};
use soap_binq::{ClientConfig, SoapClient, SoapError, SoapServer, SoapServerBuilder, WireEncoding};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client threads, each with its own keep-alive connection. One: the
/// process runs on one CPU ([`crate::procfs::pin_to_one_cpu`]), where a
/// second client would only queue behind the first, so one client times
/// the call's own path.
pub const CLIENTS: usize = 1;

/// Elements of the `array_pbio` echo: 1 MiB of f64, the paper's "1 MB".
const PBIO_ARRAY_LEN: usize = 131_072;
/// Elements of the `array_xml` echo (~490 KB of XML each way).
const XML_ARRAY_LEN: usize = 16_384;
/// Flights in the seeded OIS dataset.
const OIS_FLIGHTS: usize = 64;
/// Distinct arrays or images a workload cycles through.
const DISTINCT_VALUES: usize = 4;
/// Length of the request sequence the clients walk.
const REQUEST_SEQUENCE: usize = 1024;
/// Fig. 8 quality-file threshold: full resolution below, half above.
pub(crate) const IMAGE_THRESHOLD_MS: f64 = 200.0;
/// Length of the image workload's RTT schedule (wraps around).
const SCHEDULE_LEN: usize = 8192;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table I airline OIS over PBIO.
    OisPbio,
    /// 1 MiB f64 echo over PBIO from a big-endian client.
    ArrayPbio,
    /// `f64[16384]` echo over plain XML SOAP.
    ArrayXml,
    /// Fig. 8 imaging with quality management over PBIO.
    ImageBinq,
}

impl Kind {
    /// Every workload the binary runs, all listed in `BENCHMARK.json`.
    pub const ALL: [Kind; 4] = [
        Kind::OisPbio,
        Kind::ArrayPbio,
        Kind::ArrayXml,
        Kind::ImageBinq,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OisPbio => "ois_pbio",
            Kind::ArrayPbio => "array_pbio",
            Kind::ArrayXml => "array_xml",
            Kind::ImageBinq => "image_binq",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Kind::OisPbio => "Table I OIS, ~1.2 KB PBIO catering events: per-call fixed cost (HTTP framing, reactor, CPU-pool handoff, SOAP layer) dominates; marshal work is small",
            Kind::ArrayPbio => "1 MiB f64 echo from a big-endian client: marshal kernels, body copies, buffer pool and large allocations dominate",
            Kind::ArrayXml => "plain-SOAP f64[16384] echo: the XML encode/decode layer does almost all the work; PBIO is bypassed",
            Kind::ImageBinq => "Fig. 8 images under a seeded RTT schedule: QoS estimator, band select and resize handler on an asymmetric call",
        }
    }

    /// The wire encoding both ends speak.
    pub fn encoding(self) -> WireEncoding {
        match self {
            Kind::ArrayXml => WireEncoding::Xml,
            _ => WireEncoding::Pbio,
        }
    }
}

/// The application's handler, as registered on the server.
pub type AppHandler = Arc<dyn Fn(Value) -> Value + Send + Sync>;

/// The image workload's seeded RTT schedule. Every call takes the next
/// entry (one cursor shared by all clients, so they stay in phase) and
/// feeds it to its client's quality manager, which reports its estimate to
/// the server in the QoS header.
pub struct Schedule {
    rtt_ms: Vec<f64>,
    cursor: AtomicUsize,
}

impl Schedule {
    /// Uncongested stretches of 48 calls at 5–40 ms alternate with
    /// congested stretches of 13 calls at 600–1000 ms, starting at a seeded
    /// offset: both sides clear the 200 ms threshold by a wide margin, and
    /// the unequal duty cycle keeps the median call in the full-resolution
    /// band. The duty cycle is the same for every seed, so the share of
    /// reduced responses does not depend on it.
    fn generate(rng: &mut SmallRng) -> Schedule {
        let mut rtt_ms = Vec::with_capacity(SCHEDULE_LEN);
        let mut congested = false;
        let mut first = rng.gen_below(48) as usize + 1;
        while rtt_ms.len() < SCHEDULE_LEN {
            let (len, lo, hi) = if congested {
                (13, 600.0, 1000.0)
            } else {
                (std::mem::replace(&mut first, 48), 5.0, 40.0)
            };
            for _ in 0..len {
                rtt_ms.push(lo + (hi - lo) * rng.gen_f64());
            }
            congested = !congested;
        }
        rtt_ms.truncate(SCHEDULE_LEN);
        Schedule {
            rtt_ms,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The next scheduled RTT.
    pub fn next(&self) -> Duration {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.rtt_ms.len();
        Duration::from_secs_f64(self.rtt_ms[i] / 1e3)
    }

    /// The next scheduled RTT in milliseconds (what a client reports).
    pub fn next_ms(&self) -> f64 {
        self.next().as_secs_f64() * 1e3
    }
}

/// Everything one run needs, generated before any clock starts.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The service both ends compile.
    pub svc: ServiceDef,
    /// The operation every call invokes.
    pub op: &'static str,
    /// Request values, walked in order by every client.
    pub requests: Vec<Value>,
    /// Distinct full responses.
    pub responses: Vec<Value>,
    /// Index into `responses` of each request's expected response.
    pub response_of: Vec<usize>,
    /// Half-resolution variant of each response (image workload only).
    pub reduced: Vec<Value>,
    /// The application handler the server runs.
    pub handler: AppHandler,
    /// RTT schedule (image workload only).
    pub schedule: Option<Schedule>,
}

/// A response as the client saw it.
pub struct Reply {
    /// The decoded result.
    pub value: Value,
    /// The QoS message type the server reported, if any.
    pub message_type: Option<String>,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0fb1_4ca1_1000);
        match kind {
            Kind::OisPbio => ois(seed, &mut rng),
            Kind::ArrayPbio => arrays(kind, PBIO_ARRAY_LEN, &mut rng),
            Kind::ArrayXml => arrays(kind, XML_ARRAY_LEN, &mut rng),
            Kind::ImageBinq => images(seed, &mut rng),
        }
    }

    /// Binds the workload's server on loopback: `ServerConfig::default()`,
    /// default telemetry, plus the Fig. 8 quality manager for images.
    pub fn bind(&self) -> Result<SoapServer, SoapError> {
        let mut builder = SoapServerBuilder::new(&self.svc, self.kind.encoding())?;
        if self.kind == Kind::ImageBinq {
            let qm = QualityManager::new(image_quality_file(IMAGE_THRESHOLD_MS));
            install_resize_handlers(qm.handlers());
            builder = builder.with_quality(qm);
        }
        let handler = Arc::clone(&self.handler);
        builder
            .handle(self.op, move |v| handler(v))
            .bind(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// The service as the client compiles it: big-endian formats for
    /// `array_pbio` (the paper's SPARC sender), host formats otherwise.
    pub fn client_service(&self) -> Result<CompiledService, SoapError> {
        let opts = match self.kind {
            Kind::ArrayPbio => FormatOptions {
                byte_order: ByteOrder::Big,
                ..FormatOptions::default()
            },
            _ => FormatOptions::default(),
        };
        Ok(compile(&self.svc, opts)?)
    }

    /// Connects one client with `ClientConfig::default()`.
    pub fn connect(&self, addr: SocketAddr) -> Result<SoapClient, SoapError> {
        let client = SoapClient::connect_compiled(
            addr,
            self.client_service()?,
            self.kind.encoding(),
            ClientConfig::default(),
        )?;
        Ok(match self.kind {
            Kind::ImageBinq => {
                client.with_quality(QualityManager::new(image_quality_file(IMAGE_THRESHOLD_MS)))
            }
            _ => client,
        })
    }

    /// Index of the first request client `c` sends; clients start at
    /// evenly spaced points of the sequence.
    pub fn first_request(&self, c: usize) -> usize {
        c * self.requests.len() / CLIENTS
    }

    /// Untimed work before call `i`: feeds the next scheduled RTT to the
    /// client's quality manager (image workload) and clones the request.
    pub fn prepare(&self, client: &mut SoapClient, i: usize) -> Value {
        if let (Some(s), Some(q)) = (&self.schedule, client.quality_mut()) {
            q.observe_rtt(s.next(), Duration::ZERO);
        }
        self.requests[i % self.requests.len()].clone()
    }

    /// The timed part of a call: send and decode.
    pub fn call(&self, client: &mut SoapClient, request: Value) -> Result<Reply, SoapError> {
        let value = client.call(self.op, request)?;
        Ok(Reply {
            value,
            message_type: client.stats().last_message_type.clone(),
        })
    }

    /// Whether `reply` is the right answer to request `i`.
    pub fn check(&self, i: usize, reply: &Reply) -> bool {
        let i = i % self.requests.len();
        let want = self.response_of[i];
        match self.kind {
            Kind::OisPbio => {
                let flight = self.requests[i]
                    .as_struct()
                    .ok()
                    .and_then(|s| s.field("flight"))
                    .and_then(|f| f.as_str().ok());
                reply.value == self.responses[want]
                    && CateringEvent::from_value(&reply.value)
                        .is_some_and(|e| Some(e.flight.as_str()) == flight && !e.meals.is_empty())
            }
            Kind::ArrayPbio | Kind::ArrayXml => reply.value == self.responses[want],
            Kind::ImageBinq => {
                let (expected, dims) = match reply.message_type.as_deref() {
                    Some("image_full") => (&self.responses[want], (640, 480)),
                    Some("image_half") => (&self.reduced[want], (320, 240)),
                    _ => return false,
                };
                value_to_image(&reply.value).is_some_and(|img| (img.width, img.height) == dims)
                    && reply.value == *expected
            }
        }
    }
}

fn ois(seed: u64, rng: &mut SmallRng) -> Inputs {
    let ds = Dataset::generate(OIS_FLIGHTS, seed);
    let responses: Vec<Value> = (0..ds.flights.len())
        .map(|f| CateringEvent::build(&ds, f, 0).to_value())
        .collect();
    let index: HashMap<String, usize> = ds
        .flights
        .iter()
        .enumerate()
        .map(|(i, f)| (f.number.clone(), i))
        .collect();
    let mut requests = Vec::with_capacity(REQUEST_SEQUENCE);
    let mut response_of = Vec::with_capacity(REQUEST_SEQUENCE);
    for _ in 0..REQUEST_SEQUENCE {
        let f = rng.gen_below(ds.flights.len() as u64) as usize;
        requests.push(Value::struct_of(
            "catering_request",
            vec![("flight", Value::Str(ds.flights[f].number.clone()))],
        ));
        response_of.push(f);
    }
    let table = Arc::new(responses.clone());
    // The application's share: a lookup and a clone of a pre-built event.
    let handler: AppHandler = Arc::new(move |req: Value| {
        let flight = req
            .as_struct()
            .ok()
            .and_then(|s| s.field("flight"))
            .and_then(|f| f.as_str().ok())
            .and_then(|n| index.get(n));
        match flight {
            Some(&i) => table[i].clone(),
            None => Value::zero_of(&sbq_airline::catering_event_type()),
        }
    });
    Inputs {
        kind: Kind::OisPbio,
        svc: airline_service("http://127.0.0.1/airline"),
        op: "get_catering",
        requests,
        responses,
        response_of,
        reduced: Vec::new(),
        handler,
        schedule: None,
    }
}

fn arrays(kind: Kind, len: usize, rng: &mut SmallRng) -> Inputs {
    let ty = sbq_model::TypeDesc::list_of(sbq_model::TypeDesc::Float);
    let svc = ServiceDef::new("ArrayEcho", "urn:sbq:perfbench", "http://127.0.0.1/echo")
        .with_operation("echo", ty.clone(), ty);
    let responses: Vec<Value> = (0..DISTINCT_VALUES)
        .map(|_| Value::FloatArray((0..len).map(|_| (rng.gen_f64() - 0.5) * 2e6).collect()))
        .collect();
    let response_of: Vec<usize> = (0..DISTINCT_VALUES).collect();
    Inputs {
        kind,
        svc,
        op: "echo",
        requests: responses.clone(),
        responses,
        response_of,
        reduced: Vec::new(),
        handler: Arc::new(|v| v),
        schedule: None,
    }
}

fn images(seed: u64, rng: &mut SmallRng) -> Inputs {
    let full: Vec<_> = (0..DISTINCT_VALUES)
        .map(|i| starfield::generate(640, 480, 120, seed.wrapping_add(i as u64)))
        .collect();
    let responses: Vec<Value> = full.iter().map(image_to_value).collect();
    let reduced: Vec<Value> = full
        .iter()
        .map(|img| image_to_value(&transform::half(img)))
        .collect();
    let mut requests = Vec::with_capacity(REQUEST_SEQUENCE);
    let mut response_of = Vec::with_capacity(REQUEST_SEQUENCE);
    for _ in 0..REQUEST_SEQUENCE {
        let i = rng.gen_below(DISTINCT_VALUES as u64) as usize;
        requests.push(Value::struct_of(
            "image_request",
            vec![
                ("name", Value::Str(format!("sky-{i}"))),
                ("operation", Value::Str("identity".into())),
            ],
        ));
        response_of.push(i);
    }
    let table = Arc::new(responses.clone());
    // The application's share: a lookup and a clone of a stored image.
    let handler: AppHandler = Arc::new(move |req: Value| {
        let i = req
            .as_struct()
            .ok()
            .and_then(|s| s.field("name"))
            .and_then(|n| n.as_str().ok())
            .and_then(|n| n.strip_prefix("sky-"))
            .and_then(|n| n.parse::<usize>().ok());
        match i.and_then(|i| table.get(i)) {
            Some(v) => v.clone(),
            None => image_to_value(&sbq_imaging::PpmImage::new(1, 1)),
        }
    });
    let schedule = Schedule::generate(rng);
    Inputs {
        kind: Kind::ImageBinq,
        svc: image_service("http://127.0.0.1/imaging"),
        op: "get_image",
        requests,
        responses,
        response_of,
        reduced,
        handler,
        schedule: Some(schedule),
    }
}
