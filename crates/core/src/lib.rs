//! # SOAP-binQ
//!
//! A reproduction of *"SOAP-binQ: High-Performance SOAP with Continuous
//! Quality Management"* (Seshasayee, Schwan, Widener — ICDCS 2004): a SOAP
//! stack in which invocation parameters are *described* in XML/WSDL but
//! *transported* as structured binary data (PBIO), with an optional
//! quality-management layer that adapts message content to measured
//! network conditions.
//!
//! ## Layers
//!
//! * [`marshal`] — parameter ⇄ XML text conversion (the cost center plain
//!   SOAP pays on every message).
//! * [`envelope`] — SOAP 1.1 envelopes, faults, and the QoS header that
//!   carries the paper's timestamp/RTT/server-time fields.
//! * [`modes`] — the three SOAP-bin operating modes (§I) and the two
//!   baselines (plain XML SOAP, compressed-XML SOAP), as composable
//!   encoding pipelines with measured costs.
//! * [`client`] / [`server`] — a blocking SOAP client and a worker-pool
//!   SOAP server over HTTP, generic over the wire encoding, with per-call
//!   continuous quality management. Both ends are configured through
//!   [`ClientConfig`] and [`ServerConfig`]; transient transport failures
//!   are retried under a [`RetryPolicy`] with exponential backoff.
//!
//! ## Quick start
//!
//! ```
//! use sbq_model::{TypeDesc, Value};
//! use sbq_wsdl::ServiceDef;
//! use soap_binq::{client::SoapClient, server::SoapServerBuilder, WireEncoding};
//!
//! // Describe the service (normally parsed from a WSDL file).
//! let svc = ServiceDef::new("Echo", "urn:echo", "http://127.0.0.1:0/echo")
//!     .with_operation("double", TypeDesc::Int, TypeDesc::Int);
//!
//! // Server.
//! let server = SoapServerBuilder::new(&svc, WireEncoding::Pbio)
//!     .unwrap()
//!     .handle("double", |v| Value::Int(v.as_int().unwrap() * 2))
//!     .bind("127.0.0.1:0".parse().unwrap())
//!     .unwrap();
//!
//! // Client.
//! let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
//! assert_eq!(client.call("double", Value::Int(21)).unwrap(), Value::Int(42));
//! ```

pub mod client;
mod codec;
pub mod envelope;
pub mod marshal;
pub mod modes;
pub mod server;
pub mod xml_handler;

pub use client::{CallStats, ClientConfig, RetryPolicy, SoapClient};
pub use envelope::QosHeader;
pub use modes::{Mode, WireEncoding};
pub use server::{AdmissionPolicy, SoapServer, SoapServerBuilder};
pub use xml_handler::XmlHandler;

// The full transport configuration and error surface, so downstream
// binaries import everything from one crate.
pub use sbq_http::{FaultAction, FaultSchedule, HttpError, Limits, ServerConfig, TimeoutKind};
pub use sbq_telemetry::{HealthConfig, HealthMonitor, Registry, TraceConfig, TraceContext};

/// Errors surfaced by SOAP-binQ calls, split by layer: transport problems
/// and timeouts (usually retryable — see [`SoapError::is_retryable`]),
/// protocol problems (a malformed message at some encoding layer),
/// quality-management problems, and SOAP faults returned by the server.
#[derive(Debug)]
pub enum SoapError {
    /// The HTTP/socket layer failed (includes the peer closing or
    /// garbling a response mid-flight).
    Transport(sbq_http::HttpError),
    /// A configured transport deadline elapsed.
    Timeout(sbq_http::TimeoutKind),
    /// A well-transported message violated some protocol layer.
    Protocol(ProtocolError),
    /// The quality-management layer failed (bad quality file, unknown
    /// message type, …).
    Quality(String),
    /// The server returned a SOAP fault.
    Fault {
        /// Fault code (e.g. `soap:Client`, `soap:Server`).
        code: String,
        /// Human-readable fault string.
        message: String,
    },
    /// Admission control shed this call under overload (HTTP 503). The
    /// call never executed, so replaying it is always safe — but the
    /// server explicitly asked for less load, so the standard retry loop
    /// does *not* replay it; honor `retry_after` instead.
    Overloaded {
        /// The server's advertised `Retry-After` horizon.
        retry_after: std::time::Duration,
    },
}

/// Which protocol layer rejected a message.
#[derive(Debug)]
pub enum ProtocolError {
    /// XML envelope/body problem.
    Xml(String),
    /// Binary payload problem.
    Pbio(sbq_pbio::PbioError),
    /// Compressed payload problem.
    Lz(sbq_lz::LzError),
    /// Value/schema mismatch.
    Model(sbq_model::ModelError),
    /// Anything else (unknown operation, bad headers, …).
    Other(String),
}

/// The compiled stub of `operation`.
fn stub<'a>(
    compiled: &'a sbq_wsdl::CompiledService,
    operation: &str,
) -> Result<&'a sbq_wsdl::StubSpec, SoapError> {
    let stub = compiled.stub(operation);
    stub.ok_or_else(|| SoapError::protocol(format!("unknown operation {operation}")))
}

impl SoapError {
    /// A generic protocol error.
    pub fn protocol(msg: impl Into<String>) -> SoapError {
        SoapError::Protocol(ProtocolError::Other(msg.into()))
    }

    /// An XML-layer protocol error.
    pub fn xml(msg: impl Into<String>) -> SoapError {
        SoapError::Protocol(ProtocolError::Xml(msg.into()))
    }

    /// Whether retrying the call on a fresh connection is safe regardless
    /// of the operation's semantics: timeouts and connection-establishment
    /// failures qualify — the request provably never completed. A garbled
    /// or truncated response does *not* qualify: the server may already
    /// have executed the call, so replaying it blindly risks double
    /// execution (see [`SoapError::is_retryable_when_idempotent`]).
    pub fn is_retryable(&self) -> bool {
        match self {
            SoapError::Timeout(_) => true,
            SoapError::Transport(e) => e.is_retryable(),
            _ => false,
        }
    }

    /// Whether retrying could plausibly succeed *if* the operation is
    /// idempotent: everything [`SoapError::is_retryable`] accepts, plus
    /// wire-protocol failures where the request may have executed but the
    /// response never arrived intact (peer closed or garbled the reply
    /// mid-flight). Callers opt in via `ClientConfig::idempotent` or
    /// [`crate::client::SoapClient::call_with_retry_idempotent`].
    pub fn is_retryable_when_idempotent(&self) -> bool {
        match self {
            SoapError::Timeout(_) => true,
            SoapError::Transport(e) => e.is_retryable_when_idempotent(),
            _ => false,
        }
    }
}

impl std::fmt::Display for SoapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoapError::Transport(e) => write!(f, "soap transport error: {e}"),
            SoapError::Timeout(k) => write!(f, "soap {k} timeout"),
            SoapError::Protocol(e) => e.fmt(f),
            SoapError::Quality(m) => write!(f, "soap quality error: {m}"),
            SoapError::Fault { code, message } => write!(f, "soap fault {code}: {message}"),
            SoapError::Overloaded { retry_after } => {
                write!(
                    f,
                    "soap call shed by admission control: retry after {retry_after:?}"
                )
            }
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Xml(m) => write!(f, "soap xml error: {m}"),
            ProtocolError::Pbio(e) => write!(f, "soap binary error: {e}"),
            ProtocolError::Lz(e) => write!(f, "soap compression error: {e}"),
            ProtocolError::Model(e) => write!(f, "soap value error: {e}"),
            ProtocolError::Other(m) => write!(f, "soap protocol error: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Pbio(e) => Some(e),
            ProtocolError::Lz(e) => Some(e),
            ProtocolError::Model(e) => Some(e),
            ProtocolError::Xml(_) | ProtocolError::Other(_) => None,
        }
    }
}

impl std::error::Error for SoapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoapError::Transport(e) => Some(e),
            SoapError::Protocol(e) => e.source(),
            _ => None,
        }
    }
}

impl From<sbq_http::HttpError> for SoapError {
    fn from(e: sbq_http::HttpError) -> Self {
        match e {
            sbq_http::HttpError::Timeout(k) => SoapError::Timeout(k),
            other => SoapError::Transport(other),
        }
    }
}

impl From<sbq_pbio::PbioError> for SoapError {
    fn from(e: sbq_pbio::PbioError) -> Self {
        SoapError::Protocol(ProtocolError::Pbio(e))
    }
}

impl From<sbq_lz::LzError> for SoapError {
    fn from(e: sbq_lz::LzError) -> Self {
        SoapError::Protocol(ProtocolError::Lz(e))
    }
}

impl From<sbq_model::ModelError> for SoapError {
    fn from(e: sbq_model::ModelError) -> Self {
        SoapError::Protocol(ProtocolError::Model(e))
    }
}

impl From<sbq_xml::XmlError> for SoapError {
    fn from(e: sbq_xml::XmlError) -> Self {
        SoapError::xml(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeouts_and_transport_errors_are_retryable() {
        assert!(SoapError::Timeout(TimeoutKind::Read).is_retryable());
        let closed = SoapError::from(sbq_http::HttpError::Protocol(
            "connection closed before response".into(),
        ));
        assert!(
            !closed.is_retryable(),
            "a garbled response is ambiguous: the call may have executed"
        );
        assert!(
            closed.is_retryable_when_idempotent(),
            "idempotent calls may replay through a garbled response"
        );
        assert!(!SoapError::protocol("unknown operation").is_retryable());
        assert!(
            !SoapError::protocol("unknown operation").is_retryable_when_idempotent(),
            "the same malformed request would fail again even if idempotent"
        );
        assert!(!SoapError::Fault {
            code: "soap:Server".into(),
            message: "x".into()
        }
        .is_retryable());
        let too_large = SoapError::from(sbq_http::HttpError::TooLarge {
            what: "body",
            limit: 1,
        });
        assert!(
            !too_large.is_retryable(),
            "the same oversized body would fail again"
        );
    }

    #[test]
    fn http_timeouts_surface_as_soap_timeouts() {
        let e = SoapError::from(sbq_http::HttpError::Timeout(TimeoutKind::Read));
        assert!(matches!(e, SoapError::Timeout(TimeoutKind::Read)));
    }

    #[test]
    fn sources_chain_to_the_causing_layer() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        let e = SoapError::from(sbq_http::HttpError::Transport(io));
        let http = std::error::Error::source(&e).expect("transport chains to HttpError");
        assert!(http.to_string().contains("pipe"));
        let io = std::error::Error::source(http).expect("HttpError chains to io::Error");
        assert_eq!(io.to_string(), "pipe");
    }
}
