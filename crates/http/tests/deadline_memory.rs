//! Every keep-alive request sets read, write and idle deadlines on the
//! server's timer wheel. Those must not pile up: the server's live heap
//! stays flat however many requests one connection carries.
//!
//! A counting global allocator measures live bytes, so this file holds
//! one test and nothing else allocates while it measures.

use sbq_http::{HttpClient, HttpServer, Request, Response, ServerConfig};
use sbq_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn keep_alive_requests_do_not_grow_the_server_heap() {
    let config = ServerConfig::default().telemetry(Registry::disabled());
    let server = HttpServer::bind_with("127.0.0.1:0".parse().unwrap(), config, |req| {
        Response::ok("application/octet-stream", req.body.clone())
    })
    .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut serve = |n: usize| {
        for _ in 0..n {
            let req = Request::post("/echo", "application/octet-stream", vec![7; 256]);
            assert_eq!(client.send(req).unwrap().status, 200);
        }
    };
    // Warm up buffer pools and caches, then measure.
    serve(2_000);
    let before = LIVE.load(Ordering::Relaxed);
    serve(10_000);
    let grown = LIVE.load(Ordering::Relaxed) - before;
    // One lazily cancelled wheel entry per deadline set kept ~100 bytes
    // per request alive until its 30 s timeout: about 1 MB here.
    assert!(grown < 128 * 1024, "live heap grew {grown} bytes");
}
