//! In-memory spans recorded from the benchmark's own code, and the
//! self-time arithmetic over them.
//!
//! Each thread records into its own buffer (no locks on the hot path);
//! [`take`] hands the buffer over when the thread is done. A span carries
//! its name, start and end (nanoseconds since the process-wide epoch), the
//! span that caused it, and the call it belongs to. A span's self time is
//! its duration minus the part of its interval that its children cover.

use crate::alloc;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Call this span belongs to (shared by every span of one call).
    pub call: u64,
    /// Id, unique within the recording thread's buffer (starts at 1).
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Start, nanoseconds since [`epoch`].
    pub start_ns: u64,
    /// End, nanoseconds since [`epoch`].
    pub end_ns: u64,
    /// Allocations made on the recording thread inside the span
    /// (children included); 0 unless allocation counting is on.
    pub allocs: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The process-wide time origin of every span.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Open spans: index into `spans`.
    open: Vec<usize>,
    call: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Reserves room for `n` spans on this thread, so recording does not
/// reallocate while layers are being timed.
pub fn reserve(n: usize) {
    RECORDER.with(|r| r.borrow_mut().spans.reserve(n));
}

/// Sets the call id stamped on spans this thread opens from now on.
pub fn set_call(call: u64) {
    RECORDER.with(|r| r.borrow_mut().call = call);
}

/// An open span; it closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard(());

/// Opens a span named `name` under this thread's innermost open span.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().map(|&i| r.spans[i].id).unwrap_or(0);
        let id = r.spans.len() as u32 + 1;
        let call = r.call;
        // Push first, then read the clocks: any growth of the buffer is
        // charged to the parent, never to the span being opened.
        r.spans.push(Span {
            name,
            call,
            id,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        r.spans[idx].allocs = alloc::thread_allocs();
        r.spans[idx].start_ns = now_ns();
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        let allocs = alloc::thread_allocs();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            if let Some(idx) = r.open.pop() {
                let s = &mut r.spans[idx];
                s.end_ns = end;
                s.allocs = allocs.saturating_sub(s.allocs);
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Takes every closed span this thread recorded, leaving the buffer empty
/// (ids restart at 1).
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Self time and self allocations of each span of one thread's buffer,
/// in buffer order: the span's own cost with its children's removed.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let by_id: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = by_id.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
            child_allocs[p] += s.allocs;
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .zip(child_allocs)
        .map(|((s, kids), kid_allocs)| {
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            (
                s.duration_ns().saturating_sub(covered),
                s.allocs.saturating_sub(kid_allocs),
            )
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Per-call sums of self time and self allocations, keyed by span name,
/// for every call whose root span is named `root`. Each call contributes
/// one entry per name seen anywhere in the buffers, 0 where that layer did
/// not run in the call.
pub fn per_call(threads: &[Vec<Span>], root: &str) -> BTreeMap<&'static str, Vec<(u64, u64)>> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut calls: Vec<BTreeMap<&'static str, (u64, u64)>> = Vec::new();
    for spans in threads {
        let costs = self_costs(spans);
        let mut current: BTreeMap<u64, usize> = BTreeMap::new();
        for s in spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
            if s.parent == 0 && s.name == root {
                current.insert(s.call, calls.len());
                calls.push(BTreeMap::new());
            }
        }
        // Second pass: spans whose call has a root of the wanted name.
        for (s, &(t, a)) in spans.iter().zip(&costs) {
            if let Some(&c) = current.get(&s.call) {
                let e = calls[c].entry(s.name).or_insert((0, 0));
                e.0 += t;
                e.1 += a;
            }
        }
    }
    names
        .into_iter()
        .map(|n| {
            let v = calls
                .iter()
                .map(|c| c.get(n).copied().unwrap_or((0, 0)))
                .collect();
            (n, v)
        })
        .collect()
}

/// Renders every span as one JSON object per line.
pub fn to_jsonl(threads: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (t, spans) in threads.iter().enumerate() {
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"thread\":{t},\"call\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.call, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
    }
    out
}
