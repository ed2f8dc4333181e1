//! Benchmark-side spans: each call into a layer is timed from outside the
//! program and recorded with its parent, kept in memory, and written out
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `artifact.load`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans nest in call order.
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Self::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (the innermost open one) and returns its duration
    /// in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `i`: its duration minus the part its children
    /// cover. Children of one span run one after another, never
    /// overlapping, so their durations add up.
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(SpanRec::dur_ns)
            .sum();
        self.spans[i].dur_ns().saturating_sub(children)
    }

    /// Every span as one JSON object per line, with its self time, then
    /// one line per span name with the total self time spent in it.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"type":"span","id":{i},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            );
        }
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let (count, self_total) = self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .fold((0u64, 0u64), |(c, t), (i, _)| (c + 1, t + self.self_ns(i)));
            let _ = writeln!(
                out,
                r#"{{"type":"self_time","name":"{name}","spans":{count},"self_ns":{self_total}}}"#
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::default();
        let outer = r.open("outer");
        let (_, _) = r.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, _) = r.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(outer);
        let children: u64 = r.spans[1..].iter().map(SpanRec::dur_ns).sum();
        assert_eq!(r.spans[1].parent, Some(outer));
        assert_eq!(r.self_ns(outer), r.spans[outer].dur_ns() - children);
        assert_eq!(r.durations_ms("inner").len(), 2);
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3 + 2);
        assert!(jsonl.contains(r#""name":"inner","spans":2"#));
    }
}
