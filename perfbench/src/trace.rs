//! In-memory spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans are written out once, when a run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based, in opening order).
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// The id of this span's root: every span of one setup or one solve
    /// shares it.
    pub trace: u32,
    /// Layer-qualified name, e.g. `minipy.parser`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder with a stack of open spans (children close before their
/// parent).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Span>,
    next: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next: 1,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.next;
        self.next += 1;
        let parent = self.open.last().map(|s| s.id);
        let trace = self.open.first().map_or(id, |s| s.id);
        let start_ns = self.now_ns();
        self.open.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span and return its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the benchmark).
    pub fn end(&mut self) -> f64 {
        let mut span = self.open.pop().expect("end() without an open span");
        span.end_ns = self.now_ns();
        let secs = span.dur_ns() as f64 * 1e-9;
        self.spans.push(span);
        secs
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until `depth` remain (after a panic unwound past
    /// their `end`).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The sum of the durations of `id`'s direct children, ns.
    pub fn children_ns(&self, id: u32) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time of a span: its duration minus the part its children cover
    /// (children of one span run one after another, so they never overlap).
    pub fn self_ns(&self, span: &Span) -> u64 {
        span.dur_ns().saturating_sub(self.children_ns(span.id))
    }

    /// The spans as a JSON array, sorted by id, with self times.
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| s.id);
        let mut out = String::from("[");
        for (i, s) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                s.id,
                parent,
                s.trace,
                s.name,
                s.start_ns,
                s.dur_ns(),
                self.self_ns(s)
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin("root");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let root = t.spans().iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.parent, None);
        assert!(t.children_ns(root.id) >= 4_000_000);
        assert_eq!(
            t.self_ns(root),
            root.dur_ns() - t.children_ns(root.id),
            "self = span - children"
        );
        let a = t.spans().iter().find(|s| s.name == "a").unwrap();
        assert_eq!((a.parent, a.trace), (Some(root.id), root.id));
    }
}
