//! Bench-side spans around the calls into each layer. Kept in memory and
//! written out once at the end of a traced run; spans inside the program
//! are a later change (ROADMAP item 4).

use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share its position in the op list.
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Records a span measured elsewhere (the server's reported time) as
    /// a child of the innermost open span, ending when that span would.
    pub fn reported(&mut self, name: &'static str, request: u64, duration_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its child spans cover, in
    /// nanoseconds, for every span named `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request", Value::Num(s.request as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Value::obj([("spans", Value::Arr(spans))]).pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("op", 7, |t| {
            t.span("stage", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let op = t.durations_ns("op")[0];
        let stage = t.durations_ns("stage")[0];
        let own = t.self_times_ns("op")[0];
        assert!(stage >= 2e6 && op >= stage);
        assert!((own - (op - stage)).abs() < 1.0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
    }
}
