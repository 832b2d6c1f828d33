//! In-memory span recorder for the traced run. Spans are opened and
//! closed by the benchmark around its own calls into each layer; nothing
//! inside the program is instrumented. Spans are written out once, when
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`core.anneal`, `sim`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Slot the span belongs to, shared by every span of one slot.
    pub slot: Option<u64>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A cloneable handle on one run's spans.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }
}

impl Tracer {
    fn now_ns(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&self, name: &'static str, slot: Option<u64>) -> usize {
        let mut inner = self.0.borrow_mut();
        let start_ns = Self::now_ns(&inner);
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            slot,
        });
        let id = inner.spans.len() - 1;
        inner.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns its
    /// duration in nanoseconds.
    pub fn close(&self, id: usize) -> u64 {
        let mut inner = self.0.borrow_mut();
        let end_ns = Self::now_ns(&inner);
        while let Some(top) = inner.open.pop() {
            inner.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        end_ns - inner.spans[id].start_ns
    }

    /// Runs `f` inside a span; returns its result and the span duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        slot: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, slot);
        let out = f();
        (out, self.close(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }
}

/// Runs `f` inside a span when a tracer is attached, else just runs it.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    slot: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, slot, f).0,
        None => f(),
    }
}

/// Total and self time per layer name: self time is a span's duration
/// minus the part its direct children cover. Sorted by self time,
/// largest first.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.0 += total;
        e.1 += total.saturating_sub(child_ns[i]);
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, s))| (n, t, s)).collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    rows
}

/// The spans as JSON Lines: `{"id","name","start_ns","end_ns","parent","slot"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"slot\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.slot)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            slot: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("sim", 0, 100, None),
            span("core.engine", 10, 70, Some(0)),
            span("core.anneal", 20, 60, Some(1)),
            span("core.engine", 80, 90, Some(0)),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows[0], ("core.anneal", 40, 40));
        // Ties in self time rank by name.
        assert_eq!(rows[1], ("core.engine", 70, 30));
        assert_eq!(rows[2], ("sim", 100, 30));
    }

    #[test]
    fn tracer_nests_and_closes_inner_spans() {
        let t = Tracer::default();
        let outer = t.open("sim", Some(3));
        let inner = t.open("core.engine", Some(3));
        let _ = inner;
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let ((), _) = t.span("solver", None, || ());
        assert_eq!(t.spans()[2].parent, None);
        let lines = to_jsonl(&t.spans());
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.starts_with("{\"id\":0,\"name\":\"sim\""));
    }
}
