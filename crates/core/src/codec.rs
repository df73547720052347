//! The wire codec: the one place that knows where each [`WireEncoding`]
//! puts a message's operation, its [`QosHeader`] and its body.
//!
//! | encoding | operation | QoS header | body | fault |
//! |---|---|---|---|---|
//! | PBIO | `X-Soap-Op` | `X-Qos-*` headers | PBIO frames | empty body + `X-Soap-Error` |
//! | XML | body element | `<soap:Header>` | SOAP envelope | fault envelope |
//! | LZ-XML | body element | `<soap:Header>` | LZ(envelope) | LZ(fault envelope) + `X-Soap-Error` |
//!
//! A PBIO request also names its session (`X-Pbio-Session`): format
//! registrations are announced once per peer. The client writes requests
//! and reads responses here, the server reads requests and writes
//! responses and faults here; neither matches on the encoding itself.

use crate::envelope::{self, ParsedEnvelope, QosHeader};
use crate::modes::WireEncoding;
use crate::SoapError;
use sbq_http::{Limits, Request, Response};
use sbq_model::{pad_to, TypeDesc, Value};
use sbq_pbio::{FormatDesc, PbioEndpoint, WireFrame};
use sbq_runtime::BufferPool;
use sbq_telemetry::{Histogram, Phase, Registry, TraceContext, Tracer};
use std::time::Duration;

/// Where one side of a connection keeps its PBIO endpoints: the client
/// holds one per connection, the server one per client session.
pub(crate) trait PbioSessions {
    /// Runs `f` on the endpoint of `session`.
    fn with<R>(self, session: u64, f: impl FnOnce(&mut PbioEndpoint) -> R) -> R;
}

/// What one side knows about a message body: the type it works in, that
/// type's PBIO format, and the quality-reduced type the body was written
/// in, when the QoS header names one this side knows.
pub(crate) struct Schema<'t> {
    pub ty: &'t TypeDesc,
    pub format: &'t FormatDesc,
    pub reduced: Option<&'t TypeDesc>,
}

impl<'t> Schema<'t> {
    pub(crate) fn full(ty: &'t TypeDesc, format: &'t FormatDesc) -> Schema<'t> {
        Schema {
            ty,
            format,
            reduced: None,
        }
    }
}

/// Which way a message travels: a request names its PBIO session, and an
/// XML response wraps its value in `<opResponse>`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Leg {
    Request,
    Response,
}

/// A message laid out for the wire: its content type, its body, and the
/// headers it adds to the ones HTTP framing sets. The HTTP message is
/// built from it only once the body is known, because that sets its
/// `Content-Length`.
pub(crate) struct Encoded {
    content_type: &'static str,
    body: Vec<u8>,
    headers: Vec<(String, String)>,
}

impl Encoded {
    pub(crate) fn into_request(self, path: &str) -> Request {
        let mut req = Request::post(path, self.content_type, self.body);
        req.headers.extend(self.headers);
        req
    }

    pub(crate) fn into_response(self) -> Response {
        let mut resp = Response::ok(self.content_type, self.body);
        resp.headers.extend(self.headers);
        resp
    }
}

/// Writes and reads messages in one [`WireEncoding`] and times that work
/// as the `marshal.<enc>.{encode,decode}` phases. Decompressed LZ-XML is
/// bounded by the endpoint's own `max_body_bytes`. PBIO bodies are encoded
/// into pooled buffers, and read response bodies go back to the pool.
pub(crate) struct Codec {
    encoding: WireEncoding,
    max_body: usize,
    pool: BufferPool,
    tracer: Tracer,
    encode_ns: Histogram,
    decode_ns: Histogram,
}

impl Codec {
    pub(crate) fn new(
        encoding: WireEncoding,
        limits: &Limits,
        pool: BufferPool,
        registry: &Registry,
    ) -> Codec {
        Codec {
            encoding,
            max_body: limits.max_body_bytes,
            pool,
            tracer: registry.tracer(),
            encode_ns: registry.histogram(encoding.encode_phase()),
            decode_ns: registry.histogram(encoding.decode_phase()),
        }
    }

    /// Times one marshal encode, as a span under `parent` if traced.
    pub(crate) fn encode_phase(&self, parent: Option<&TraceContext>) -> Phase {
        let name = self.encoding.encode_phase();
        self.tracer.phase(&self.encode_ns, name, parent, None)
    }

    /// Times one marshal decode, as a span under `parent` if traced.
    pub(crate) fn decode_phase(&self, parent: Option<&TraceContext>) -> Phase {
        let name = self.encoding.decode_phase();
        self.tracer.phase(&self.decode_ns, name, parent, None)
    }

    /// Lays out `operation`'s `value` and its QoS `header`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn encode(
        &self,
        leg: Leg,
        operation: &str,
        value: &Value,
        schema: Schema<'_>,
        header: &QosHeader,
        session: u64,
        sessions: impl PbioSessions,
    ) -> Result<Encoded, SoapError> {
        let mut headers = Vec::new();
        let body = if self.encoding == WireEncoding::Pbio {
            // A quality-reduced result no longer matches the declared
            // format: derive the actual format from the value so the
            // registration/conversion machinery stays truthful.
            let derived;
            let format = if leg == Leg::Response && !value.conforms_to(schema.ty) {
                derived = FormatDesc::from_type(&value.type_of(), Default::default())?;
                &derived
            } else {
                schema.format
            };
            let mut body = self.pool.get(value.native_size() + 64);
            sessions.with(session, |ep| ep.send_into(value, format, &mut body))?;
            headers.push(("X-Soap-Op".to_string(), operation.to_string()));
            if leg == Leg::Request {
                headers.push(("X-Pbio-Session".to_string(), session.to_string()));
            }
            headers.extend(header.to_http_headers());
            body
        } else {
            self.xml_body(match leg {
                Leg::Request => envelope::build_request(operation, value, header),
                Leg::Response => envelope::build_response(operation, value, header),
            })
        };
        let content_type = self.encoding.content_type();
        Ok(Encoded {
            content_type,
            body,
            headers,
        })
    }

    /// The `500` response reporting `err` as a `soap:Server` fault.
    pub(crate) fn write_fault(&self, err: &SoapError) -> Response {
        let message = err.to_string();
        let body = match self.encoding {
            WireEncoding::Pbio => Vec::new(),
            _ => self.xml_body(envelope::build_fault("soap:Server", &message)),
        };
        let content_type = self.encoding.content_type();
        let mut resp = Response::with_status(500, "Internal Server Error", content_type, body);
        // Only plain XML is readable as it stands; the binary encodings
        // repeat the fault string as a header.
        if self.encoding != WireEncoding::Xml {
            resp.headers.push(("X-Soap-Error".to_string(), message));
        }
        resp
    }

    /// Reads a request and the PBIO session it names (0 for XML); `resolve`
    /// maps its operation to the input schema.
    pub(crate) fn read_request<'t>(
        &self,
        req: &Request,
        sessions: impl PbioSessions,
        resolve: impl FnOnce(&str, &QosHeader) -> Option<Schema<'t>>,
    ) -> Result<(ParsedEnvelope, u64), SoapError> {
        // Content-type negotiation: a client speaking a different wire
        // encoding gets a clear fault instead of a confusing parse error.
        let expect = media_type(self.encoding.content_type());
        if let Some(got) = req.header("content-type").map(media_type) {
            if !got.eq_ignore_ascii_case(expect) {
                return Err(SoapError::protocol(format!(
                    "unsupported content type {got:?}: this endpoint speaks {expect:?}"
                )));
            }
        }
        let header = |n: &str| req.header(n);
        self.decode(Leg::Request, header, &req.body, sessions, resolve)
    }

    /// Reads a response, or the shed or fault it carries instead.
    pub(crate) fn read_response<'t>(
        &self,
        resp: &mut Response,
        sessions: impl PbioSessions,
        resolve: impl FnOnce(&str, &QosHeader) -> Option<Schema<'t>>,
    ) -> Result<ParsedEnvelope, SoapError> {
        // An admission-control shed (503 + Retry-After) is encoding-
        // independent: the call never reached a handler.
        if resp.status == 503 {
            let retry_after = resp
                .header("retry-after")
                .and_then(|v| v.trim().parse().ok());
            let retry_after = Duration::from_secs(retry_after.unwrap_or(1));
            return Err(SoapError::Overloaded { retry_after });
        }
        // An XML fault is an envelope `decode` recognizes; a PBIO fault
        // has no body at all.
        if self.encoding == WireEncoding::Pbio && resp.status != 200 {
            let message = resp.header("x-soap-error").unwrap_or("server error");
            return Err(SoapError::Fault {
                code: "soap:Server".into(),
                message: message.to_string(),
            });
        }
        let body = std::mem::take(&mut resp.body);
        let msg = self.decode(Leg::Response, |n| resp.header(n), &body, sessions, resolve);
        self.pool.put(body);
        Ok(msg?.0)
    }

    fn decode<'a, 't>(
        &self,
        leg: Leg,
        header: impl Fn(&str) -> Option<&'a str>,
        body: &[u8],
        sessions: impl PbioSessions,
        resolve: impl FnOnce(&str, &QosHeader) -> Option<Schema<'t>>,
    ) -> Result<(ParsedEnvelope, u64), SoapError> {
        let noun = match leg {
            Leg::Request => "request",
            Leg::Response => "response",
        };
        if self.encoding == WireEncoding::Pbio {
            let operation = match header("x-soap-op") {
                Some(op) => op,
                None if leg == Leg::Request => {
                    return Err(SoapError::protocol("missing X-Soap-Op"))
                }
                None => "",
            };
            let session = header("x-pbio-session")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let qos = QosHeader::from_http_headers(&header);
            let schema = resolve(operation, &qos)
                .ok_or_else(|| SoapError::protocol(format!("unknown operation {operation}")))?;
            let value = sessions.with(session, |ep| {
                let (mut value, mut buf) = (None, body);
                while !buf.is_empty() {
                    // Borrowed frames: payloads decode in place out of the
                    // (pooled) body; only the value owns memory. The
                    // conversion plan pads reduced wire formats back to
                    // the full native layout by construction.
                    let (frame, used) = WireFrame::parse(buf)?;
                    buf = &buf[used..];
                    if let Some(v) = ep.receive_frame(&frame, Some(schema.format))? {
                        value = Some(v);
                    }
                }
                value.ok_or_else(|| SoapError::protocol(format!("{noun} had no data message")))
            })?;
            let message = ParsedEnvelope {
                operation: operation.to_string(),
                header: qos,
                value,
            };
            return Ok((message, session));
        }
        // Parse straight out of the body (or the decompression output) —
        // no defensive clone.
        let inflated;
        let xml = match self.encoding {
            WireEncoding::CompressedXml => {
                inflated = sbq_lz::decompress(body, self.max_body)?;
                &inflated[..]
            }
            _ => body,
        };
        let xml =
            std::str::from_utf8(xml).map_err(|_| SoapError::xml(format!("{noun} is not utf-8")))?;
        let mut pad_back = None;
        let mut parsed = envelope::parse_envelope_with(xml, |op, qos| {
            let schema = resolve(op, qos)?;
            pad_back = schema.reduced.map(|_| schema.ty);
            Some(schema.reduced.unwrap_or(schema.ty))
        })?;
        // "The remaining entries are padded with zeroes" (§III-B.b).
        if let Some(full) = pad_back {
            parsed.value = pad_to(&parsed.value, full)?;
        }
        Ok((parsed, 0))
    }

    /// An XML document as this encoding's body bytes.
    fn xml_body(&self, xml: String) -> Vec<u8> {
        match self.encoding {
            WireEncoding::CompressedXml => sbq_lz::compress(xml.as_bytes()),
            _ => xml.into_bytes(),
        }
    }
}

/// A content type without its parameters (`text/xml; charset=utf-8` →
/// `text/xml`).
fn media_type(ct: &str) -> &str {
    ct.split(';').next().unwrap_or(ct).trim()
}
