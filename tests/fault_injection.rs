//! Fault injection: malformed requests, corrupt payloads, and protocol
//! abuse must produce faults — never panics, hangs, or wrong answers.

use sbq_http::{HttpClient, Request};
use sbq_model::{TypeDesc, Value};
use sbq_wsdl::ServiceDef;
use soap_binq::{SoapClient, SoapServerBuilder, WireEncoding};

fn echo_server(enc: WireEncoding) -> (soap_binq::SoapServer, ServiceDef) {
    let svc = ServiceDef::new("Echo", "urn:fi:echo", "x").with_operation(
        "echo",
        TypeDesc::list_of(TypeDesc::Int),
        TypeDesc::list_of(TypeDesc::Int),
    );
    let server = SoapServerBuilder::new(&svc, enc)
        .unwrap()
        .handle("echo", |v| v)
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    (server, svc)
}

#[test]
fn garbage_xml_body_gets_fault_response() {
    let (server, _svc) = echo_server(WireEncoding::Xml);
    let mut raw = HttpClient::connect(server.addr()).unwrap();
    for body in [
        &b"this is not xml"[..],
        b"<soap:Envelope>",
        b"<a><b></a></b>",
        b"",
        b"<soap:Envelope xmlns:soap=\"x\"><soap:Body></soap:Body></soap:Envelope>",
    ] {
        let resp = raw.post("/Echo", "text/xml", body.to_vec()).unwrap();
        assert_eq!(resp.status, 500, "body {body:?}");
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("Fault"), "no fault envelope for {body:?}");
    }
    assert!(server.faults() >= 5);
}

#[test]
fn corrupt_pbio_body_gets_fault_response() {
    let (server, svc) = echo_server(WireEncoding::Pbio);

    // First, a healthy call to prove the server still works afterwards.
    let mut good = SoapClient::connect(server.addr(), &svc, WireEncoding::Pbio).unwrap();
    let v = Value::IntArray(vec![1, 2, 3]);
    assert_eq!(good.call("echo", v.clone()).unwrap(), v);

    let mut raw = HttpClient::connect(server.addr()).unwrap();
    for body in [
        &[0xffu8, 0, 0, 0, 0][..],             // bad message kind
        &[2u8, 1, 0, 0, 0, 99, 0, 0, 0][..],   // data message, absurd length
        &[][..],                               // empty
        &[2u8, 0x7f, 0, 0, 0, 0, 0, 0, 0][..], // unknown format id
    ] {
        let mut req = Request::post("/Echo", sbq_http::PBIO_CONTENT_TYPE, body.to_vec());
        req.headers
            .push(("X-Soap-Op".to_string(), "echo".to_string()));
        req.headers
            .push(("X-Pbio-Session".to_string(), "42".to_string()));
        let resp = raw.send(req).unwrap();
        assert_eq!(resp.status, 500, "body {body:?}");
        assert!(resp.header("x-soap-error").is_some());
    }

    // And the healthy client still works.
    assert_eq!(good.call("echo", v.clone()).unwrap(), v);
}

#[test]
fn truncated_compressed_body_gets_fault() {
    let (server, svc) = echo_server(WireEncoding::CompressedXml);
    let mut raw = HttpClient::connect(server.addr()).unwrap();
    let resp = raw
        .post("/Echo", "application/x-soap-lz", vec![9, 9, 9])
        .unwrap();
    assert_eq!(resp.status, 500);

    // Stack still healthy.
    let mut good = SoapClient::connect(server.addr(), &svc, WireEncoding::CompressedXml).unwrap();
    let v = Value::IntArray(vec![7]);
    assert_eq!(good.call("echo", v.clone()).unwrap(), v);
}

#[test]
fn missing_pbio_headers_rejected_cleanly() {
    let (server, _svc) = echo_server(WireEncoding::Pbio);
    let mut raw = HttpClient::connect(server.addr()).unwrap();
    // No X-Soap-Op header at all.
    let resp = raw
        .post("/Echo", sbq_http::PBIO_CONTENT_TYPE, vec![])
        .unwrap();
    assert_eq!(resp.status, 500);
    assert!(resp.header("x-soap-error").unwrap().contains("X-Soap-Op"));
}

#[test]
fn wrong_typed_arguments_fault_not_crash() {
    // Client encodes a string where the server expects an int array — the
    // server-side decode must reject it.
    let svc_lying = ServiceDef::new("Echo", "urn:fi:echo", "x").with_operation(
        "echo",
        TypeDesc::Str,
        TypeDesc::Str,
    );
    let (server, _svc) = echo_server(WireEncoding::Pbio);
    let mut liar = SoapClient::connect(server.addr(), &svc_lying, WireEncoding::Pbio).unwrap();
    let err = liar
        .call("echo", Value::Str("not an array".into()))
        .unwrap_err();
    assert!(matches!(err, soap_binq::SoapError::Fault { .. }), "{err}");
}

#[test]
fn xml_bomb_sized_inputs_bounded() {
    // A deeply nested hand-built XML document: parsing must terminate
    // with an error (unknown fields / depth mismatch), not recurse into
    // oblivion.
    let (server, _svc) = echo_server(WireEncoding::Xml);
    let mut raw = HttpClient::connect(server.addr()).unwrap();
    let mut body = String::from(
        "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\"><soap:Body><echo>",
    );
    for _ in 0..5000 {
        body.push_str("<item>");
    }
    for _ in 0..5000 {
        body.push_str("</item>");
    }
    body.push_str("</echo></soap:Body></soap:Envelope>");
    let resp = raw.post("/Echo", "text/xml", body.into_bytes()).unwrap();
    assert_eq!(resp.status, 500);
}

#[test]
fn mismatched_content_type_rejected_clearly() {
    // An XML SOAP client hitting a PBIO endpoint (or vice versa) gets a
    // content-type fault, not a parse-garbage error.
    let (pbio_server, _) = echo_server(WireEncoding::Pbio);
    let mut raw = HttpClient::connect(pbio_server.addr()).unwrap();
    let resp = raw
        .post("/Echo", "text/xml; charset=utf-8", b"<x/>".to_vec())
        .unwrap();
    assert_eq!(resp.status, 500);
    assert!(
        resp.header("x-soap-error")
            .unwrap()
            .contains("content type"),
        "{:?}",
        resp.header("x-soap-error")
    );

    let (xml_server, _) = echo_server(WireEncoding::Xml);
    let mut raw = HttpClient::connect(xml_server.addr()).unwrap();
    let resp = raw
        .post(
            "/Echo",
            sbq_http::PBIO_CONTENT_TYPE,
            vec![2, 1, 0, 0, 0, 0, 0, 0, 0],
        )
        .unwrap();
    assert_eq!(resp.status, 500);
    assert!(String::from_utf8_lossy(&resp.body).contains("content type"));
}

#[test]
fn slow_loris_header_limit_enforced() {
    // A request whose header section exceeds the parser limit is cut off.
    let (server, _svc) = echo_server(WireEncoding::Xml);
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    write!(stream, "POST / HTTP/1.1\r\n").unwrap();
    let huge = format!("X-Pad: {}\r\n", "a".repeat(64 * 1024));
    // The server will stop reading once the limit trips; the write side
    // may or may not error depending on timing — both are fine, the
    // assertion is that the server never hangs or crashes.
    let _ = stream.write_all(huge.as_bytes());
    let _ = stream.write_all(b"\r\n");
    drop(stream);
    // Server still alive?
    let mut good = HttpClient::connect(server.addr()).unwrap();
    let resp = good.post("/x", "text/xml", b"<bad/>".to_vec()).unwrap();
    assert_eq!(resp.status, 500); // fault (bad envelope), but served
}

#[test]
fn lz_body_expanding_past_body_limit_gets_fault() {
    // The body limit bounds what a compressed body expands to, not just
    // the bytes on the wire.
    let limit = 64 * 1024;
    let svc = ServiceDef::new("Echo", "urn:fi:echo", "x").with_operation(
        "echo",
        TypeDesc::list_of(TypeDesc::Int),
        TypeDesc::list_of(TypeDesc::Int),
    );
    let server = SoapServerBuilder::new(&svc, WireEncoding::CompressedXml)
        .unwrap()
        .handle("echo", |v| v)
        .transport(soap_binq::ServerConfig::default().max_body_bytes(limit))
        .bind("127.0.0.1:0".parse().unwrap())
        .unwrap();
    let mut client = SoapClient::connect(server.addr(), &svc, WireEncoding::CompressedXml).unwrap();

    // About 1.4 MB of envelope that compresses far below the limit.
    let big = Value::IntArray(vec![7; 100_000]);
    let envelope = soap_binq::envelope::build_request("echo", &big, &Default::default());
    assert!(envelope.len() > 16 * limit);
    assert!(sbq_lz::compress(envelope.as_bytes()).len() < limit / 2);
    let err = client.call("echo", big).unwrap_err();
    assert!(
        matches!(&err, soap_binq::SoapError::Fault { message, .. } if message.contains("limit")),
        "{err}"
    );
    assert_eq!(server.faults(), 1);

    // The connection and the server both serve the next call.
    let small = Value::IntArray(vec![1, 2, 3]);
    assert_eq!(client.call("echo", small.clone()).unwrap(), small);
}
