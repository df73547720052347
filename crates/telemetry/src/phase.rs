//! Phase timing: one clock pair feeds both a histogram and a trace span.
//!
//! A [`Phase`] times one step of a call — a server read, a queue wait, a
//! marshal encode. It reads the clock once at its start (not at all when
//! handed an earlier start, such as a request's first byte) and once when
//! dropped. That one duration always goes into the phase's histogram and,
//! when the trace is sampled or the phase errored, into the flight
//! recorder as a span with the same start and duration. Without a parent
//! context a phase records its histogram only; from a disabled registry
//! it records nothing and never reads the clock.
//!
//! ```
//! use sbq_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let hist = reg.histogram("marshal.pbio.encode");
//! let tracer = reg.tracer();
//! let call = tracer.root_span("client.call");
//! {
//!     let _phase = tracer.phase(&hist, "marshal.pbio.encode", Some(&call.context()), None);
//!     // ... stage work ...
//! } // one duration: into the histogram and, sampled, into the ring
//! assert_eq!(hist.snapshot().count, 1);
//! assert_eq!(tracer.snapshot()[0].name, "marshal.pbio.encode");
//! ```

use crate::histogram::Histogram;
use crate::trace::{TraceContext, TraceSpan, Tracer};
use std::time::Instant;

/// An RAII phase timer, started by [`Tracer::phase`]; see the module docs.
#[must_use = "a phase records when dropped; binding it to _ drops immediately"]
pub struct Phase {
    hist: Histogram,
    span: TraceSpan,
    start: Option<Instant>,
}

impl Tracer {
    /// Starts a [`Phase`] recording into `hist` and, under `parent`, into
    /// a `name` span. `start` backdates a phase that began before the
    /// guard could be built (a read at its first byte, a queue wait at
    /// dispatch); `None` starts it now.
    pub fn phase(
        &self,
        hist: &Histogram,
        name: &str,
        parent: Option<&TraceContext>,
        start: Option<Instant>,
    ) -> Phase {
        let parent = parent.filter(|_| self.is_enabled());
        let start =
            (hist.is_enabled() || parent.is_some()).then(|| start.unwrap_or_else(Instant::now));
        let span = match (parent, start) {
            (Some(p), Some(t)) => self.child_span_at(name, p, t),
            _ => TraceSpan::disabled(),
        };
        Phase {
            hist: hist.clone(),
            span,
            start,
        }
    }
}

/// A phase is its span plus the histogram: tags and `set_error` act on
/// the span, `context()` reads it (no-ops and all-zero when untraced).
impl std::ops::Deref for Phase {
    type Target = TraceSpan;
    fn deref(&self) -> &TraceSpan {
        &self.span
    }
}

impl std::ops::DerefMut for Phase {
    fn deref_mut(&mut self) -> &mut TraceSpan {
        &mut self.span
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        self.hist
            .record_duration(end.saturating_duration_since(start));
        self.span.end_at(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, TraceConfig};
    use std::time::Duration;

    fn registry(sample_one_in: u64) -> Registry {
        let reg = Registry::new();
        reg.set_trace_config(TraceConfig::new().sample_one_in(sample_one_in));
        reg
    }

    fn spans_named(tracer: &Tracer, name: &str) -> Vec<crate::SpanEvent> {
        tracer
            .snapshot()
            .into_iter()
            .filter(|e| e.name == name)
            .collect()
    }

    #[test]
    fn unsampled_phase_records_the_histogram_only() {
        let reg = registry(1000);
        let tracer = reg.tracer();
        let hist = reg.histogram("phase.unsampled");
        drop(tracer.root_span("burn")); // ticket 0 is always sampled
        let root = tracer.root_span("root.unsampled");
        drop(tracer.phase(&hist, "phase.unsampled", Some(&root.context()), None));
        // No parent at all: histogram only, too.
        drop(tracer.phase(&hist, "phase.unsampled", None, None));
        assert_eq!(hist.snapshot().count, 2);
        assert!(spans_named(&tracer, "phase.unsampled").is_empty());
    }

    #[test]
    fn errored_phase_reaches_the_ring_with_the_histogram_duration() {
        let reg = registry(1000);
        let tracer = reg.tracer();
        let hist = reg.histogram("phase.err");
        drop(tracer.root_span("burn"));
        let root = tracer.root_span("root.unsampled");
        {
            let mut phase = tracer.phase(&hist, "phase.err", Some(&root.context()), None);
            assert!(phase.is_enabled());
            phase.set_error();
            std::thread::sleep(Duration::from_millis(2));
        }
        let spans = spans_named(&tracer, "phase.err");
        assert_eq!(spans.len(), 1);
        assert!(spans[0].error);
        assert_eq!(spans[0].parent_id, root.context().span_id);
        assert_eq!(
            spans[0].dur_us,
            hist.snapshot().sum / 1000,
            "one clock pair"
        );
    }

    #[test]
    fn disabled_registry_never_reads_the_clock() {
        let off = Registry::disabled();
        let parent = registry(1).tracer().root_span("elsewhere").context();
        let phase = off.tracer().phase(
            &off.histogram("phase.off"),
            "phase.off",
            Some(&parent),
            None,
        );
        assert!(phase.start.is_none());
        assert!(!phase.is_enabled());
        assert_eq!(phase.context().trace_id, 0);
        drop(phase);
        assert!(off.tracer().snapshot().is_empty());
    }

    #[test]
    fn backdated_start_is_honoured() {
        let reg = registry(1);
        let tracer = reg.tracer();
        let hist = reg.histogram("phase.backdated");
        let root = tracer.root_span("root");
        let began = Instant::now() - Duration::from_millis(20);
        drop(tracer.phase(&hist, "phase.backdated", Some(&root.context()), Some(began)));
        let snap = hist.snapshot();
        assert!(snap.sum >= 20_000_000, "recorded {} ns", snap.sum);
        let span = &spans_named(&tracer, "phase.backdated")[0];
        assert_eq!(span.dur_us, snap.sum / 1000);
        assert!(span.dur_us >= 20_000);
    }
}
