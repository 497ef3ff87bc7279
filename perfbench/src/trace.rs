//! Spans recorded by the benchmark around its own calls into each layer,
//! kept in memory and summarised when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: layer name, start and end (µs since the tracer's
/// origin), the enclosing span, and the item or request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub item: u64,
}

/// An in-memory span recorder, used only by traced runs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` for `item`; spans opened inside
    /// `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            item,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Records an already-measured interval (e.g. one observed by another
    /// thread) as a root span.
    pub fn record(&mut self, name: &'static str, item: u64, start: Instant, end: Instant) {
        let s = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let e = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: s,
            end_us: e,
            parent: None,
            item,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, for `--spans <file>`.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"item\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}\n",
                s.name, s.item, s.start_us, s.end_us
            ));
        }
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap: calls are sequential).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_times_us();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// The layer-accounting check: for every root span, the self times of
    /// all spans in its tree sum to the root's duration. Returns the worst
    /// absolute mismatch in µs.
    pub fn accounting_error_us(&self) -> f64 {
        let own = self.self_times_us();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
            *sums.entry(root_of[i]).or_insert(0.0) += own[i];
        }
        sums.iter()
            .map(|(&root, &sum)| {
                let s = &self.spans[root];
                (sum - (s.end_us - s.start_us)).abs()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_account_for_roots() {
        let mut t = Tracer::new();
        t.span("item", 0, |t| {
            t.span("a", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", 0, |t| {
                t.span("c", 0, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                })
            });
        });
        let own = t.self_times_us();
        assert_eq!(t.spans().len(), 4);
        assert!(own[1] >= 2000.0);
        assert!(own[2] < 500.0, "b's time is mostly its child c");
        assert!(t.accounting_error_us() < 1e-6);
        let by = t.self_times_by_name();
        assert_eq!(by["c"].len(), 1);
        assert_eq!(t.json_lines().lines().count(), 4);
        assert!(t.json_lines().contains("\"name\":\"c\",\"item\":0,"));
    }
}
