//! Figure 4: Sun RPC vs SOAP-bin — overall (marshal + transmit +
//! unmarshal) times for (a) integer arrays and (b) nested structs over a
//! 100 Mbps link.
//!
//! Modeling notes (see DESIGN.md): CPU costs are measured; transmission
//! is the netsim 100 Mbps model. Sun RPC rides a persistent record-marked
//! TCP connection; SOAP-bin pays HTTP framing plus a connection-setup
//! charge per call (the 2001-era Soup transport opened a connection per
//! request), which is exactly the "delay … mainly due to SOAP-bin's use
//! of HTTP" the paper reports for small nested structs.
//!
//! Section (c) measures the same protagonists end to end instead of
//! modeling them: real loopback calls through the full stack, one per
//! SOAP wire encoding plus Sun RPC, minimum over a fixed run count.

use sbq_bench::*;
use sbq_model::{workload, TypeDesc, Value};
use sbq_netsim::LinkSpec;
use sbq_pbio::{plan, FormatDesc};
use sbq_wsdl::ServiceDef;
use sbq_xdr::{rpc, RpcClient, RpcServer};
use soap_binq::{SoapClient, SoapServerBuilder, WireEncoding};
use std::time::Duration;

/// TCP connect handshake charged to each non-persistent HTTP call.
fn http_setup(link: &LinkSpec) -> Duration {
    3 * link.latency
}

fn run_case(name: &str, value: &Value, ty: &TypeDesc, link: &LinkSpec, iters: usize) {
    let format = FormatDesc::from_type(ty, paper_format_options()).unwrap();

    // Sun RPC: XDR encode + record transfer + decode.
    let xdr_enc = time_min(iters, || sbq_xdr::encode(value, ty).unwrap());
    let xdr_bytes = sbq_xdr::encode(value, ty).unwrap();
    let xdr_dec = time_min(iters, || sbq_xdr::decode(&xdr_bytes, ty).unwrap());
    let rpc_wire = rpc::CALL_OVERHEAD + xdr_bytes.len();
    let rpc_total = xdr_enc + transfer(link, rpc_wire) + xdr_dec;

    // SOAP-bin: PBIO encode + HTTP(setup + framed transfer) + decode.
    let pb_enc = time_min(iters, || plan::encode(value, &format).unwrap());
    let pb_bytes = plan::encode(value, &format).unwrap();
    let pb_dec = time_min(iters, || plan::decode(&pb_bytes, &format).unwrap());
    let http_wire = http_request_overhead(pb_bytes.len()) + 9 + pb_bytes.len();
    let sb_total = pb_enc + http_setup(link) + transfer(link, http_wire) + pb_dec;

    let ratio = sb_total.as_secs_f64() / rpc_total.as_secs_f64();
    println!(
        "{name:>14} | {} | {} | {} | {} | {ratio:5.2}x",
        fmt_bytes(pb_bytes.len()),
        fmt_dur(xdr_enc + xdr_dec),
        fmt_dur(rpc_total),
        fmt_dur(sb_total),
    );
}

/// Minimum loopback call time for an int[1024] echo over each SOAP wire
/// encoding and over Sun RPC.
fn loopback_calls(iters: usize) {
    header(
        "(c) measured loopback calls, int[1024] echo",
        &["stack", "min call"],
    );
    let arr = TypeDesc::list_of(TypeDesc::Int);
    let v = workload::int_array(1024, 1);
    let svc = ServiceDef::new("Echo", "urn:bench:echo", "x").with_operation(
        "echo",
        arr.clone(),
        arr.clone(),
    );
    for enc in [
        WireEncoding::Pbio,
        WireEncoding::Xml,
        WireEncoding::CompressedXml,
    ] {
        let server = SoapServerBuilder::new(&svc, enc)
            .unwrap()
            .handle("echo", |v| v)
            .bind("127.0.0.1:0".parse().unwrap())
            .unwrap();
        let mut client = SoapClient::connect(server.addr(), &svc, enc).unwrap();
        // Warm up: format registration and caches.
        client.call("echo", v.clone()).unwrap();
        let d = time_min(iters, || client.call("echo", v.clone()).unwrap());
        println!("{:>18} | {}", format!("soap {enc:?}"), fmt_dur(d));
    }
    let mut srv = RpcServer::new(0x2100_0001, 1);
    srv.register(1, arr.clone(), arr.clone(), |v: Value| v);
    let (addr, _handle) = srv.serve("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut client = RpcClient::connect(addr, 0x2100_0001, 1).unwrap();
    let d = time_min(iters, || client.call(1, &v, &arr, &arr).unwrap());
    println!("{:>18} | {}", "sun rpc", fmt_dur(d));
}

fn main() {
    let link = LinkSpec::lan_100mbps();
    println!("Figure 4 — Sun RPC vs SOAP-bin over {}", link.name);

    header(
        "(a) integer arrays",
        &[
            "workload",
            "pbio bytes",
            "xdr enc+dec",
            "sun rpc",
            "soap-bin",
            "soapbin/rpc",
        ],
    );
    for &n in &[32usize, 256, 2048, 16_384, 131_072] {
        let v = workload::int_array(n, 1);
        run_case(
            &format!("int[{n}]"),
            &v,
            &TypeDesc::list_of(TypeDesc::Int),
            &link,
            12,
        );
    }

    header(
        "(b) nested structs",
        &[
            "workload",
            "pbio bytes",
            "xdr enc+dec",
            "sun rpc",
            "soap-bin",
            "soapbin/rpc",
        ],
    );
    for depth in 1..=8 {
        let v = workload::nested_struct(depth, 2);
        run_case(
            &format!("struct d={depth}"),
            &v,
            &workload::nested_struct_type(depth),
            &link,
            50,
        );
    }

    loopback_calls(50);

    println!(
        "\npaper shape: arrays ~comparable; Sun RPC wins on nested structs\n\
         (paper: up to ~5.4x) because HTTP setup+framing dominates small messages."
    );
}
