//! In-memory spans recorded by the benchmark around its calls into the
//! simulator, written out as one JSON file when a traced run ends.
//!
//! A span is `{id, parent, name, start_ns, end_ns, counts}`. Spans nest:
//! the one opened last is the parent of the next. A span's self time is
//! its duration minus the part its children cover.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into the recording, in open order.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The layer boundary this span sits at.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Work counted at this boundary (events, cells, windows, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span recorder of one process.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recording whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, counts: Vec<(&'static str, u64)>) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    /// Record `f` as one span and return its result.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id, Vec::new());
        r
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`.
    pub fn secs_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Median seconds of the spans called `name` (0 when there is none).
    pub fn median_secs(&self, name: &str) -> f64 {
        let secs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect();
        if secs.is_empty() {
            0.0
        } else {
            crate::stats::median(&secs)
        }
    }

    /// Seconds covered by the direct children of span `id`.
    pub fn children_secs(&self, id: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// The recording as a JSON document: the spans plus, per span, the
    /// self time (duration minus direct children).
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut counts = Json::obj();
                for (k, v) in &s.counts {
                    counts.set(k, *v);
                }
                let self_ns = (s.end_ns - s.start_ns) as f64 - self.children_secs(s.id) * 1e9;
                Json::obj()
                    .with("id", u64::from(s.id))
                    .with("parent", s.parent.map(f64::from))
                    .with("name", s.name.as_str())
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", self_ns.max(0.0).round())
                    .with("counts", counts)
            })
            .collect::<Vec<_>>();
        Json::obj().with("workload", workload).with("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root");
        let a = t.open("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a, vec![("events", 3)]);
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root, Vec::new());

        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(s[1].counts, vec![("events", 3)]);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let covered = t.children_secs(root);
        assert!(covered > 0.0 && covered <= s[0].secs());
        assert_eq!(t.secs_of("a"), s[1].secs());

        let j = t.to_json("w");
        assert_eq!(j.get("spans").map(|s| s.items().len()), Some(3));
        let first = &j.get("spans").unwrap().items()[0];
        assert!(first.num("self_ns").unwrap() <= (s[0].end_ns - s[0].start_ns) as f64);
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a, Vec::new());
    }
}
