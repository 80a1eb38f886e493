//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry points; nothing inside the program is instrumented. They
//! stay in memory and are written once, when the run ends.

use lowdeg_conformance::json::Json;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `reduction.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, `None` for a request root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans; the innermost open span is the parent of the
/// next one begun.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: the next root span gets a fresh id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost-first");
        self.spans[idx].end = self.now();
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.begin(name);
        let out = f(self);
        self.end(idx);
        out
    }

    /// Record a child of `parent` from a duration the layer measured
    /// itself (e.g. a [`lowdeg_core::BuildProfile`] stage), laid out after
    /// the previous child and clipped to the parent's interval; returns
    /// its index.
    pub fn measured_child(&mut self, parent: usize, name: &'static str, nanos: u64) -> usize {
        let p = &self.spans[parent];
        // children are recorded after their parent
        let after = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end)
            .max()
            .unwrap_or(p.start);
        let start = after.min(p.end);
        let span = Span {
            name,
            start,
            end: (start + nanos).min(p.end),
            parent: Some(parent),
            request: p.request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach).max(s.start), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.nanos() - covered.min(s.nanos())
        })
        .collect()
}

/// Check that every child lies inside its parent and that the children of
/// each span sum to no more than the span itself.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut child_sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {i} `{}` lies outside its parent `{}`",
                    s.name, parent.name
                ));
            }
            child_sum[p] += s.nanos();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_sum[i] > s.nanos() {
            return Err(format!(
                "children of span {i} `{}` sum to {} ns, more than its {} ns",
                s.name,
                child_sum[i],
                s.nanos()
            ));
        }
    }
    Ok(())
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
        let line = Json::obj([
            ("id", Json::Num(i as f64)),
            ("name", Json::Str(s.name.into())),
            ("start_ns", Json::Num(s.start as f64)),
            ("end_ns", Json::Num(s.end as f64)),
            ("self_ns", Json::Num(own as f64)),
            ("parent", parent),
            ("request", Json::Num(s.request as f64)),
        ]);
        out.push_str(&crate::record::compact(&line));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 60, Some(0)),
            span("b.inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        assert!(check_nesting(&spans).is_ok());
    }

    #[test]
    fn nesting_rejects_overlong_children() {
        let outside = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert!(check_nesting(&outside).is_err());
        // overlapping children inside the parent can still sum past it
        let overlap = vec![
            span("p", 0, 10, None),
            span("c1", 0, 8, Some(0)),
            span("c2", 2, 10, Some(0)),
        ];
        assert!(check_nesting(&overlap).is_err());
        // self time never goes negative, even then
        assert_eq!(self_times(&overlap)[0], 0);
    }

    #[test]
    fn tracer_nests_and_clips_measured_children() {
        let mut t = Tracer::default();
        t.next_request();
        let root = t.begin("request");
        t.span("load", |_| std::hint::black_box(1 + 1));
        let build = t.begin("reduction.build");
        t.end(build);
        let extract = t.measured_child(build, "reduction.extract", u64::MAX / 4);
        let inner = t.measured_child(extract, "inner", 0);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[extract].parent, Some(build));
        assert_eq!(
            spans[extract].end, spans[build].end,
            "clipped to the parent"
        );
        assert_eq!(spans[inner].parent, Some(extract));
        assert_eq!(spans[inner].start, spans[extract].start);
        assert!(check_nesting(spans).is_ok());
        assert_eq!(to_jsonl(spans).lines().count(), 5);
    }
}
