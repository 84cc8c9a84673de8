//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! Nothing here reaches into the program: a span brackets one call the
//! benchmark makes. Spans of one op share its op id; a span's parent is
//! the span whose closure made the call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dri_telemetry::TraceEvent;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within the run; never 0.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `serve.push_batch`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in finishing order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .expect("span buffer lock")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Writes every span as one `dri-telemetry` trace line (kind
    /// `bench`), so the repository's `trace-check` can validate the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.lock().expect("span buffer lock").iter() {
            let mut event = TraceEvent::new("bench", span.name)
                .label("id", &span.id.to_string())
                .label("op", &span.op.to_string())
                .label(
                    "parent",
                    &span.parent.map_or_else(String::new, |p| p.to_string()),
                );
            event.ts_us = span.start_ns / 1000;
            event.dur_us = Some(span.duration_ns() / 1000);
            writeln!(out, "{}", event.to_json())?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` when `tracer` is set; `f` gets
/// the new span's id (0 when untraced) to parent its own calls.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    let Some(tracer) = tracer else {
        return f(None);
    };
    let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = tracer.now_ns();
    let out = f(Some(id));
    let end_ns = tracer.now_ns();
    tracer
        .spans
        .lock()
        .expect("span buffer lock")
        .push(SpanRecord {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Reports how much slower traced ops ran than the untraced ops
/// interleaved with them: the ratio of their medians, minus one.
pub fn trace_overhead(outcome: &mut crate::Outcome, traced_ms: &[f64], untraced_ms: &[f64]) {
    let frac = crate::stats::median(traced_ms)
        .zip(crate::stats::median(untraced_ms))
        .map(|(traced, untraced)| traced / untraced - 1.0);
    outcome.metric(
        "telemetry.bench_trace_overhead_frac",
        frac,
        traced_ms.len() + untraced_ms.len(),
    );
}

/// Writes the run's spans under [`crate::STATE_DIR`]; a failure to
/// write costs the file, not the run.
pub fn write_spans(args: &crate::Args, tracer: &Tracer) {
    let path = Path::new(crate::STATE_DIR)
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (points
/// simulated on parallel threads); the union is subtracted once.
pub fn self_time_ns(parent: &SpanRecord, spans: &[SpanRecord]) -> u64 {
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut reach = parent.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            union += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = rec(1, None, 0, 100);
        let spans = vec![
            root.clone(),
            rec(2, Some(1), 10, 30),
            rec(3, Some(1), 50, 60),
        ];
        assert_eq!(self_time_ns(&root, &spans), 70);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let root = rec(1, None, 100, 200);
        let spans = vec![
            // Two parallel children overlapping on [130, 150).
            rec(2, Some(1), 110, 150),
            rec(3, Some(1), 130, 170),
            // Reaches outside the parent: only [190, 200) counts.
            rec(4, Some(1), 190, 260),
            // A grandchild is already inside its own parent.
            rec(5, Some(2), 115, 120),
            // Another root's child is not ours.
            rec(6, Some(9), 100, 200),
        ];
        assert_eq!(self_time_ns(&root, &spans), 100 - 60 - 10);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let tracer = Tracer::default();
        let inner_parent = span(Some(&tracer), "outer", 7, None, |id| {
            span(Some(&tracer), "inner", 7, id, |_| ());
            id
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, inner_parent);
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(
            self_time_ns(outer, &spans),
            outer.duration_ns() - inner.duration_ns()
        );
        // Untraced calls record nothing and see no id.
        assert_eq!(span(None, "x", 0, None, |id| id), None);
    }
}
