//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (never inside the program), kept in memory and written out when the
//! pass ends. A span's self time is its duration minus the part of it its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which run or request of the pass the span belongs to.
    pub run: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span; spans `f` opens on the recorder nest under
    /// it.
    pub fn span<T>(&mut self, name: &'static str, run: usize, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, run: usize, f: impl FnOnce() -> T) -> T {
        self.span(name, run, |_| f())
    }

    /// A span between two instants the caller took, nested under the
    /// currently open span.
    pub fn record(&mut self, name: &'static str, run: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            run,
        });
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<f64>() / 1e6
    }

    /// Total duration of the top-level spans, in nanoseconds: the part of
    /// the pass some span covers.
    pub fn covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as JSON: `[{"name","start_us","end_us","parent","run"}]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"run\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.run
            );
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per span name, sorted by name: (name, count, total self time in ms).
pub fn self_ms(spans: &[Span]) -> Vec<(String, u64, f64)> {
    let mut out: Vec<(String, u64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let ms = own as f64 / 1e6;
        match out.iter_mut().find(|(n, _, _)| n == s.name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += ms;
            }
            None => out.push((s.name.to_string(), 1, ms)),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Nanoseconds one empty span costs the recorder, measured here.
pub fn cost_per_span_ns() -> f64 {
    const N: usize = 100_000;
    let mut rec = Recorder::new();
    rec.spans.reserve(N);
    let t0 = Instant::now();
    for i in 0..N {
        rec.leaf("probe", i, || ());
    }
    t0.elapsed().as_nanos() as f64 / N as f64
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
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100] > construct [10,30], simulate [30,90] > window [40,80]
        let spans = [
            span("run", 0, 100, None),
            span("construct", 10, 30, Some(0)),
            span("simulate", 30, 90, Some(0)),
            span("window", 40, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), [20, 20, 20, 40]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_name = self_ms(&spans);
        assert_eq!(by_name[0], ("construct".to_string(), 1, 20.0 / 1e6));
        assert_eq!(by_name.len(), 4);
    }

    #[test]
    fn self_time_aggregates_repeated_names() {
        let spans = [
            span("get", 0, 5, None),
            span("get", 5, 12, None),
            span("put", 12, 20, None),
        ];
        let names: Vec<(String, u64)> = self_ms(&spans)
            .into_iter()
            .map(|(n, c, _)| (n, c))
            .collect();
        assert_eq!(names, [("get".to_string(), 2), ("put".to_string(), 1)]);
        let ms: Vec<f64> = self_ms(&spans)
            .into_iter()
            .map(|(_, _, ms)| ms * 1e6)
            .collect();
        assert!(
            (ms[0] - 12.0).abs() < 1e-9 && (ms[1] - 8.0).abs() < 1e-9,
            "{ms:?}"
        );
    }

    #[test]
    fn recorder_nests_and_covers() {
        let mut rec = Recorder::new();
        let v = rec.span("outer", 3, |rec| {
            rec.leaf("inner", 3, || 1 + 1) + rec.leaf("inner", 3, || 40)
        });
        assert_eq!(v, 42);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.run == 3));
        assert_eq!(rec.covered_ns(), rec.spans[0].duration_ns());
        let own = self_times(&rec.spans);
        assert_eq!(own.iter().sum::<u64>(), rec.spans[0].duration_ns());
        assert!(rec.to_json().starts_with("[{\"name\":\"outer\""));
    }
}
