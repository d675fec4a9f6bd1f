//! Spans recorded around the benchmark's calls into each crate.
//!
//! A span has a name, a label (the figure, request class or cell it
//! belongs to), start and end times, the span that caused it and the
//! operation it serves. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A disabled tracer only
//! calls through, so the untraced run pays one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the next operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_labelled(name, String::new(), f)
    }

    /// Runs `f` inside a span named `name` with a label.
    pub fn span_labelled<R>(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            label: label.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every closed span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(SpanRec::secs).collect()
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(SpanRec::secs).sum()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        // A span's self time is its duration minus its direct children's.
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"op\":{},\"self_ns\":{}}}",
                s.name,
                serde::to_string(&serde::Value::Str(s.label.clone())),
                s.start_ns,
                s.end_ns,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.op,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
            )?;
        }
        out.flush()
    }
}
