//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the traced run only), written out as Chrome-trace JSON — the
//! format of `pulsar_runtime::trace` — when the run ends.

use pulsar_runtime::Trace;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (rep, job, op) share this id.
    pub request: u64,
    /// Display lane: the thread or connection the interval ran on.
    pub lane: usize,
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a measurement thread panicked holding the span list")
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Where `at`, an instant after the tracer was created, falls on its clock.
    pub fn us_since_start(&self, at: Instant) -> f64 {
        at.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a finished interval; returns its index for use as a parent.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.spans();
        spans.push(span);
        spans.len() - 1
    }

    /// Time `f` as a span and return its result with the span's index.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<usize>,
        request: u64,
        lane: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start_us = self.now_us();
        let out = f();
        let id = self.record(Span {
            layer,
            name: name.to_string(),
            start_us,
            end_us: self.now_us(),
            parent,
            request,
            lane,
        });
        (out, id)
    }

    /// Import a runtime or service trace under `parent`: one `runtime`
    /// worker span per thread covering `[start_us, end_us]`, and each task
    /// (a VDP firing, labelled by its kernel) as a `linalg` child of its
    /// worker — so the runtime's self time is, per worker, everything that
    /// is not kernel time. `offset_us` places the trace's clock on ours.
    pub fn adopt(
        &self,
        trace: &Trace,
        parent: Option<usize>,
        request: u64,
        offset_us: f64,
        (start_us, end_us): (f64, f64),
    ) {
        let mut workers: BTreeMap<usize, usize> = BTreeMap::new();
        for task in &trace.spans {
            let lane = 100 + task.node * 16 + task.thread;
            let worker = *workers.entry(lane).or_insert_with(|| {
                self.record(Span {
                    layer: "runtime",
                    name: format!("worker n{}t{}", task.node, task.thread),
                    start_us,
                    end_us,
                    parent,
                    request,
                    lane,
                })
            });
            self.record(Span {
                layer: "linalg",
                name: task.label.clone(),
                start_us: task.start_us + offset_us,
                end_us: task.end_us + offset_us,
                parent: Some(worker),
                request,
                lane,
            });
        }
    }

    /// Self time per layer in microseconds: each span's duration minus the
    /// part of that interval its child spans cover.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, kids) in spans.iter().zip(&mut children) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut edge = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(edge), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            *by_layer.entry(s.layer).or_insert(0.0) += (s.end_us - s.start_us) - covered;
        }
        by_layer
    }

    /// Chrome trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>):
    /// complete (`"ph":"X"`) events, one tid per lane, microsecond times;
    /// `args` carries the layer, the parent span's index and the request id.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let spans = self.spans();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = pulsar_tuner::json::Json::Str(s.name.clone()).write();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"name\":{name},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"request\":{}}}}}",
                s.layer,
                s.lane,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.request,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer.to_string(),
            start_us: a,
            end_us: b,
            parent,
            request: 7,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::default();
        let root = t.record(span("wire", 0.0, 100.0, None));
        // Two overlapping children cover [10, 60]; one pokes past the parent.
        t.record(span("service", 10.0, 50.0, Some(root)));
        t.record(span("service", 40.0, 60.0, Some(root)));
        t.record(span("service", 90.0, 120.0, Some(root)));
        let st = t.self_time_us();
        assert_eq!(st["wire"], 100.0 - 50.0 - 10.0);
        assert_eq!(st["service"], 40.0 + 20.0 + 30.0);
    }

    #[test]
    fn chrome_json_parses_and_keeps_parent_and_request() {
        let t = Tracer::default();
        let ((), root) = t.span("core", "rep \"0\"", None, 3, 1, || ());
        t.span("linalg", "geqrt", Some(root), 3, 1, || ());
        let parsed = pulsar_tuner::json::Json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = parsed.as_arr().expect("array of events");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_usize()), Some(0));
        assert_eq!(args.get("request").and_then(|p| p.as_usize()), Some(3));
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("rep \"0\"")
        );
    }
}
