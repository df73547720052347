//! The per-layer phase of a traced run.
//!
//! One thread replays the workload's requests as synthetic calls built
//! from each layer's public functions, each wrapped in a span under a
//! `call` root. With one thread, each layer's time is its own cost on an
//! otherwise idle host; what the closed loop's threads lose to sharing the
//! cores stays in the `unattributed` row. The layers:
//!
//! * the wire codec of the workload's encoding (`PbioEndpoint::send_into`,
//!   `WireFrame::parse` + `receive_frame` on warm sessions; or
//!   `envelope::build_request`/`build_response` and `parse_envelope`), once
//!   for the request and once for the response;
//! * the application's handler closure;
//! * `QualityManager::prepare`, with the resize handler as a child span
//!   (image workload);
//! * `HttpClient::send` of the real request bytes to a bare
//!   `sbq_http::HttpServer` that answers with the real response bytes.
//!
//! Layers that are not on the workload's path (the other encoding's codec,
//! and quality management outside the image workload) are timed on the
//! same values under `ref` roots, so every layer has a figure on every
//! workload. The first exchange on fresh PBIO endpoints is timed under
//! `handshake` roots.

use crate::spans::{self, Span};
use crate::workload::{Inputs, Kind, IMAGE_THRESHOLD_MS};
use sbq_http::{HttpClient, HttpServer, Request, Response};
use sbq_imaging::{image_quality_file, install_resize_handlers};
use sbq_model::Value;
use sbq_pbio::{FormatDesc, FormatServer, PbioEndpoint, WireFrame};
use sbq_qos::{QualityAttributes, QualityManager};
use sbq_runtime::BufferPool;
use sbq_wsdl::CompiledService;
use soap_binq::envelope::{self, QosHeader};
use soap_binq::WireEncoding;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh-endpoint exchanges timed for `pbio.handshake_us`.
const HANDSHAKES: usize = 16;
/// Share of the phase spent on off-path reference timings.
const REF_SHARE: f64 = 0.3;
/// Minimum reference iterations, however short the phase.
const MIN_REFS: usize = 3;
/// Caps on synthetic calls and reference iterations, which keep the span
/// log (held in memory, then written out) to a few megabytes.
const MAX_CALLS: usize = 5_000;
const MAX_REFS: usize = 500;

/// Everything the per-layer phase recorded.
#[derive(Debug, Default)]
pub struct LayerRun {
    /// Spans of each thread: `call`, `ref` and `handshake` roots.
    pub spans: Vec<Vec<Span>>,
    /// Synthetic calls made.
    pub attempted: u64,
    /// Synthetic calls whose decoded response was wrong or failed.
    pub failed: u64,
    /// First failure, for the error report.
    pub first_error: Option<String>,
}

/// A client endpoint and a server endpoint, each with its own format
/// server like the two processes of a real exchange.
struct PbioPair {
    client: PbioEndpoint,
    server: PbioEndpoint,
    client_in: FormatDesc,
    client_out: FormatDesc,
    server_in: FormatDesc,
    server_out: FormatDesc,
}

impl PbioPair {
    fn new(client_svc: &CompiledService, server_svc: &CompiledService, op: &str) -> PbioPair {
        let c = client_svc.stub(op).expect("operation compiled");
        let s = server_svc.stub(op).expect("operation compiled");
        PbioPair {
            client: PbioEndpoint::new(Arc::new(FormatServer::new())),
            server: PbioEndpoint::new(Arc::new(FormatServer::new())),
            client_in: c.input_format.clone(),
            client_out: c.output_format.clone(),
            server_in: s.input_format.clone(),
            server_out: s.output_format.clone(),
        }
    }

    fn encode_request(&mut self, v: &Value) -> Result<Vec<u8>, String> {
        let mut body = BufferPool::global().get(v.native_size() + 64);
        self.client
            .send_into(v, &self.client_in, &mut body)
            .map_err(|e| e.to_string())?;
        Ok(body)
    }

    fn decode_request(&mut self, body: &[u8]) -> Result<Value, String> {
        decode_frames(&mut self.server, body, &self.server_in)
    }

    fn encode_response(&mut self, v: &Value) -> Result<Vec<u8>, String> {
        let mut body = BufferPool::global().get(v.native_size() + 64);
        self.server
            .send_into(v, &self.server_out, &mut body)
            .map_err(|e| e.to_string())?;
        Ok(body)
    }

    fn decode_response(&mut self, body: &[u8]) -> Result<Value, String> {
        decode_frames(&mut self.client, body, &self.client_out)
    }
}

fn decode_frames(ep: &mut PbioEndpoint, body: &[u8], native: &FormatDesc) -> Result<Value, String> {
    let mut value = None;
    let mut buf = body;
    while !buf.is_empty() {
        let (frame, used) = WireFrame::parse(buf).map_err(|e| e.to_string())?;
        buf = &buf[used..];
        if let Some(v) = ep
            .receive_frame(&frame, Some(native))
            .map_err(|e| e.to_string())?
        {
            value = Some(v);
        }
    }
    value.ok_or_else(|| "no data frame".to_string())
}

/// The XML codec exactly as the client and server drive it.
struct XmlCodec {
    op: String,
    input: sbq_model::TypeDesc,
    output: sbq_model::TypeDesc,
}

impl XmlCodec {
    fn new(svc: &CompiledService, op: &str) -> XmlCodec {
        let s = svc.stub(op).expect("operation compiled");
        XmlCodec {
            op: op.to_string(),
            input: s.input.clone(),
            output: s.output.clone(),
        }
    }

    fn encode_request(&self, v: &Value) -> Vec<u8> {
        envelope::build_request(&self.op, v, &QosHeader::default()).into_bytes()
    }

    fn decode_request(&self, body: &[u8]) -> Result<Value, String> {
        let xml = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        envelope::parse_envelope(xml, |o| (o == self.op).then(|| self.input.clone()))
            .map(|p| p.value)
            .map_err(|e| e.to_string())
    }

    fn encode_response(&self, v: &Value) -> Vec<u8> {
        envelope::build_response(&self.op, v, &QosHeader::default()).into_bytes()
    }

    fn decode_response(&self, body: &[u8]) -> Result<Value, String> {
        let xml = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        envelope::parse_envelope(xml, |_| Some(self.output.clone()))
            .map(|p| p.value)
            .map_err(|e| e.to_string())
    }
}

/// A quality manager over the Fig. 8 file whose resize handlers record a
/// `qos.handler` span around the real handler.
fn traced_quality_manager() -> QualityManager {
    let qm = QualityManager::new(image_quality_file(IMAGE_THRESHOLD_MS));
    install_resize_handlers(qm.handlers());
    for name in qm.handlers().names() {
        let inner = qm.handlers().get(&name).expect("handler just listed");
        qm.handlers()
            .install(&name, move |v: &Value, a: &QualityAttributes| {
                spans::timed("qos.handler", || inner.apply(v, a))
            });
    }
    qm
}

/// Index of the canned response the bare server answers with.
fn canned_index(response: usize, half: bool) -> usize {
    2 * response + usize::from(half)
}

/// Runs the per-layer phase for `seconds`.
pub fn run(inputs: &Inputs, seconds: f64) -> Result<LayerRun, String> {
    let server_svc =
        sbq_wsdl::compile(&inputs.svc, Default::default()).map_err(|e| e.to_string())?;
    let client_svc = inputs.client_service().map_err(|e| e.to_string())?;
    let encoding = inputs.kind.encoding();
    let op = inputs.op;

    // Real response bytes for the bare server, data frames only (the
    // clients learn the format from `registration` during warm-up).
    let mut canned_ep = PbioEndpoint::new(Arc::new(FormatServer::new()));
    let server_out = server_svc
        .stub(op)
        .expect("operation compiled")
        .output_format
        .clone();
    let mut registration = Vec::new();
    let xml = XmlCodec::new(&server_svc, op);
    let mut canned = Vec::new();
    for r in 0..inputs.responses.len() {
        for half in [false, true] {
            let v = match (half, inputs.reduced.get(r)) {
                (false, _) => &inputs.responses[r],
                (true, Some(v)) => v,
                (true, None) => &inputs.responses[r],
            };
            canned.push(match encoding {
                WireEncoding::Pbio => {
                    let mut out = Vec::new();
                    canned_ep
                        .send_into(v, &server_out, &mut out)
                        .map_err(|e| e.to_string())?;
                    if registration.is_empty() {
                        registration = out;
                        out = Vec::new();
                        canned_ep
                            .send_into(v, &server_out, &mut out)
                            .map_err(|e| e.to_string())?;
                    }
                    out
                }
                _ => xml.encode_response(v),
            });
        }
    }
    let canned = Arc::new(canned);
    let content_type = encoding.content_type();
    let served = Arc::clone(&canned);
    let mut bare = HttpServer::bind(
        SocketAddr::from(([127, 0, 0, 1], 0)),
        move |req: &Request| {
            let i = req
                .header("x-bench-resp")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            // A pooled body, like the SOAP server's: the transport recycles
            // it once the response is on the wire.
            let canned = served.get(i).map_or(&[][..], Vec::as_slice);
            let mut body = BufferPool::global().get(canned.len());
            body.extend_from_slice(canned);
            Response::ok(content_type, body)
        },
    )
    .map_err(|e| format!("bare server: {e}"))?;
    let addr = bare.addr();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let ref_from = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - REF_SHARE));
    let ctx = Ctx {
        inputs,
        client_svc: &client_svc,
        server_svc: &server_svc,
        registration: &registration,
        path: format!("/{}", inputs.svc.name),
        content_type,
        addr,
    };
    let out = ctx.replay(ref_from, deadline);
    bare.shutdown();
    out
}

struct Ctx<'a> {
    inputs: &'a Inputs,
    client_svc: &'a CompiledService,
    server_svc: &'a CompiledService,
    registration: &'a [u8],
    path: String,
    content_type: &'static str,
    addr: SocketAddr,
}

impl Ctx<'_> {
    fn replay(&self, ref_from: Instant, deadline: Instant) -> Result<LayerRun, String> {
        let inputs = self.inputs;
        let op = inputs.op;
        let mut out = LayerRun::default();
        spans::reserve(1 << 18);
        let mut call_id = 0;
        let mut next_id = || {
            call_id += 1;
            call_id
        };

        // First exchange on fresh endpoints.
        let handshake_req = &inputs.requests[0];
        let handshake_resp = &inputs.responses[inputs.response_of[0]];
        for _ in 0..HANDSHAKES {
            let mut pair = PbioPair::new(self.client_svc, self.server_svc, op);
            spans::set_call(next_id());
            let _root = spans::enter("handshake");
            let body = spans::timed("pbio.encode", || pair.encode_request(handshake_req))?;
            spans::timed("pbio.decode", || pair.decode_request(&body))?;
            let resp = spans::timed("pbio.encode", || pair.encode_response(handshake_resp))?;
            spans::timed("pbio.decode", || pair.decode_response(&resp))?;
        }

        // Warm sessions: the client endpoint learns the canned responses'
        // format, and each pair completes its format handshake.
        let mut pair = PbioPair::new(self.client_svc, self.server_svc, op);
        if !self.registration.is_empty() {
            decode_frames(&mut pair.client, self.registration, &pair.client_out)?;
        }
        let warm_req = pair.encode_request(handshake_req)?;
        pair.decode_request(&warm_req)?;
        let warm_resp = pair.encode_response(handshake_resp)?;
        let mut ref_pair = PbioPair::new(self.client_svc, self.server_svc, op);
        let warm = ref_pair.encode_request(handshake_req)?;
        ref_pair.decode_request(&warm)?;
        let warm = ref_pair.encode_response(handshake_resp)?;
        ref_pair.decode_response(&warm)?;
        pair.decode_response(&warm_resp)?;
        let xml = XmlCodec::new(self.server_svc, op);
        let mut qm = traced_quality_manager();
        let mut http = HttpClient::connect(self.addr).map_err(|e| e.to_string())?;

        let mut i = 0;
        while out.attempted < MAX_CALLS as u64 && Instant::now() < ref_from {
            let id = next_id();
            out.attempted += 1;
            match self.call(id, i, &mut pair, &xml, &mut qm, &mut http) {
                Ok(true) => {}
                Ok(false) => {
                    out.failed += 1;
                    out.first_error
                        .get_or_insert_with(|| format!("layer call {i}: wrong result"));
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error
                        .get_or_insert_with(|| format!("layer call {i}: {e}"));
                }
            }
            i += 1;
        }
        let mut refs = 0;
        while refs < MIN_REFS || (refs < MAX_REFS && Instant::now() < deadline) {
            let id = next_id();
            self.reference(id, i, &mut ref_pair, &xml, &mut qm, refs)?;
            refs += 1;
            i += 1;
        }
        out.spans.push(spans::take());
        Ok(out)
    }

    /// One synthetic call along the workload's path; `Ok(false)` when the
    /// decoded response is wrong.
    fn call(
        &self,
        id: u64,
        i: usize,
        pair: &mut PbioPair,
        xml: &XmlCodec,
        qm: &mut QualityManager,
        http: &mut HttpClient,
    ) -> Result<bool, String> {
        let inputs = self.inputs;
        let n = i % inputs.requests.len();
        let request = &inputs.requests[n];
        let want = inputs.response_of[n];
        spans::set_call(id);
        let _root = spans::enter("call");
        let pbio = inputs.kind.encoding() == WireEncoding::Pbio;
        let body = if pbio {
            spans::timed("pbio.encode", || pair.encode_request(request))?
        } else {
            spans::timed("xml.encode", || xml.encode_request(request))
        };
        let params = if pbio {
            spans::timed("pbio.decode", || pair.decode_request(&body))?
        } else {
            spans::timed("xml.decode", || xml.decode_request(&body))?
        };
        let original = spans::timed("app.handler", || (inputs.handler)(params));
        let (result, half) = match &inputs.schedule {
            Some(schedule) => {
                qm.observe_reported(schedule.next_ms());
                let p = spans::timed("qos.prepare", || qm.prepare(&original));
                (p.value, p.message_type == "image_half")
            }
            None => (original, false),
        };
        let encoded = if pbio {
            spans::timed("pbio.encode", || pair.encode_response(&result))?
        } else {
            spans::timed("xml.encode", || xml.encode_response(&result))
        };
        BufferPool::global().put(encoded);
        let mut req = Request::post(&self.path, self.content_type, body);
        req.headers.push((
            "X-Bench-Resp".to_string(),
            canned_index(want, half).to_string(),
        ));
        let resp = spans::timed("http.roundtrip", || http.send(req)).map_err(|e| e.to_string())?;
        let got = if pbio {
            spans::timed("pbio.decode", || pair.decode_response(&resp.body))?
        } else {
            spans::timed("xml.decode", || xml.decode_response(&resp.body))?
        };
        BufferPool::global().put(resp.body);
        let expected = if half {
            &inputs.reduced[want]
        } else {
            &inputs.responses[want]
        };
        Ok(got == *expected && result == *expected)
    }

    /// Off-path layers timed on the same values: the other encoding's
    /// codec, and quality management where the workload has none.
    fn reference(
        &self,
        id: u64,
        i: usize,
        pair: &mut PbioPair,
        xml: &XmlCodec,
        qm: &mut QualityManager,
        k: usize,
    ) -> Result<(), String> {
        let inputs = self.inputs;
        let n = i % inputs.requests.len();
        let request = &inputs.requests[n];
        let response = &inputs.responses[inputs.response_of[n]];
        spans::set_call(id);
        let _root = spans::enter("ref");
        if inputs.kind.encoding() == WireEncoding::Pbio {
            let body = spans::timed("xml.encode", || xml.encode_request(request));
            spans::timed("xml.decode", || xml.decode_request(&body))?;
            let body = spans::timed("xml.encode", || xml.encode_response(response));
            spans::timed("xml.decode", || xml.decode_response(&body))?;
        } else {
            let body = spans::timed("pbio.encode", || pair.encode_request(request))?;
            spans::timed("pbio.decode", || pair.decode_request(&body))?;
            BufferPool::global().put(body);
            let body = spans::timed("pbio.encode", || pair.encode_response(response))?;
            spans::timed("pbio.decode", || pair.decode_response(&body))?;
            BufferPool::global().put(body);
        }
        if inputs.kind != Kind::ImageBinq {
            // Alternate congested and quiet reports so both bands run.
            qm.observe_reported(if k.is_multiple_of(2) { 20.0 } else { 800.0 });
            std::hint::black_box(spans::timed("qos.prepare", || qm.prepare(response)));
        }
        Ok(())
    }
}
