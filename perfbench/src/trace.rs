//! In-memory spans recorded around calls into the program's public
//! functions. Nothing inside the program is instrumented: every span
//! starts and ends in this benchmark's own code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: its name, interval, causing span and campaign.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub campaign: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Spans nest through an explicit
/// stack; each thread that records keeps its own tracer, and the
/// tracers are merged when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    campaign: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            campaign: 0,
        }
    }

    /// Tags every span opened from now on with `campaign`.
    pub fn set_campaign(&mut self, campaign: u64) {
        self.campaign = campaign;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            campaign: self.campaign,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration in ns of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of each span: its duration minus the part of its
    /// interval covered by its children (children of one span never
    /// overlap, because each tracer is single-threaded).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: (count, total ns, self ns), sorted by name.
    pub fn summary(&self) -> BTreeMap<String, (usize, u64, u64)> {
        let mut out: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += self_ns;
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"campaign\": {}}}",
                s.name, s.start_ns, s.end_ns, s.campaign
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Opens the root span of campaign `key` when a tracer is present.
pub fn campaign_span(tr: &mut Option<Tracer>, key: usize) -> Option<usize> {
    tr.as_mut().map(|t| {
        t.set_campaign(key as u64 + 1);
        t.enter("campaign")
    })
}

/// Closes a span opened by [`campaign_span`].
pub fn close_span(tr: &mut Option<Tracer>, id: usize) {
    if let Some(t) = tr.as_mut() {
        t.exit(id);
        t.set_campaign(0);
    }
}

/// Runs `f` inside a span when a tracer is present.
pub fn in_span<R>(tr: &mut Option<Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tr.as_mut() {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let selfs = t.self_times_ns();
        assert_eq!(
            selfs[0] + t.spans()[1].duration_ns(),
            t.spans()[0].duration_ns()
        );
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
