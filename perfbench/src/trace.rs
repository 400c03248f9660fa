//! In-memory spans for the traced run. The benchmark records a span
//! around each call it makes into a layer's public API: name, start,
//! end, parent span and the id of the request or exploration it
//! belongs to. Spans are written out once, when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id (1-based).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `protocol.parse`.
    pub name: String,
    /// Request or exploration id shared by the spans of one operation.
    pub op: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    op: u64,
    start: u64,
}

/// The span store. Shareable across threads: exploration confirmations
/// run on the executor's workers.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span.
    pub fn open(&self, name: impl Into<String>, op: u64, parent: Option<u64>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            op,
            start: self.now(),
        }
    }

    /// End a span and keep it.
    pub fn close(&self, open: Open) {
        let end = self.now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            start: open.start,
            end,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Run `f` inside a span; `f` receives the span id for children.
    pub fn time<T>(
        &self,
        name: impl Into<String>,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.open(name, op, parent);
        let out = f(open.id);
        self.close(open);
        out
    }

    /// Every finished span, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","op":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.name, s.op, s.start, s.end
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Self time of each span (ns): its duration minus the part of its
/// interval that its children cover. Overlapping children (spans from
/// parallel workers) are merged before they are subtracted.
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for c in spans {
        if let Some(parent) = c.parent {
            children.entry(parent).or_default().push((c.start, c.end));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&span.id)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|&(s, e)| (s.max(span.start), e.min(span.end)))
                .filter(|(s, e)| s < e)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.name.clone(), span.ns() - covered as f64)
        })
        .collect()
}

/// Per span name, in first-seen order: span count, median duration
/// and median self time, in microseconds, as an aligned text table.
pub fn summary(spans: &[Span]) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut by_name: HashMap<&str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for (span, (_, own)) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(&span.name).or_insert_with(|| {
            names.push(&span.name);
            Default::default()
        });
        entry.0.push(span.ns());
        entry.1.push(own);
    }
    let mut out = format!(
        "{:<34} {:>7} {:>12} {:>12}\n",
        "span", "count", "p50 us", "self p50 us"
    );
    for name in names {
        let (total, own) = &by_name[name];
        writeln!(
            out,
            "{name:<34} {:>7} {:>12.3} {:>12.3}",
            total.len(),
            crate::stats::median(total) / 1e3,
            crate::stats::median(own) / 1e3
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),  // overlaps span 2
            span(4, Some(1), 90, 120), // runs past its parent
            span(5, Some(2), 15, 20),  // grandchild: not span 1's child
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], ("s1".to_owned(), 100.0 - 40.0 - 10.0));
        assert_eq!(selfs[1], ("s2".to_owned(), 25.0));
        assert_eq!(selfs[4], ("s5".to_owned(), 5.0));
        let table = summary(&spans[..2]);
        assert!(table.lines().nth(1).unwrap().starts_with("s1 "), "{table}");
        assert!(table.contains("0.100        0.070"), "{table}");
    }

    #[test]
    fn spans_nest_and_serialize() {
        let tracer = Tracer::default();
        let inner = tracer.time("outer", 7, None, |id| {
            tracer.time("inner", 7, Some(id), |inner| inner)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].id, inner);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
        assert_eq!(tracer.durations("outer").len(), 1);
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains(r#""name":"outer","op":7"#), "{jsonl}");
    }
}
