//! In-memory spans, recorded from the benchmark's side of each layer
//! boundary and written out when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one batch share this id.
    pub batch: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        batch: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("no recorder thread panics");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            batch,
        });
        spans.len() - 1
    }

    /// Run `f` under a child span of `parent`.
    pub fn child<T>(
        &self,
        name: &'static str,
        parent: usize,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), Some(parent), batch);
        out
    }

    /// Open a root span now and close it with [`Self::close`], so children
    /// can name it as parent while it runs.
    pub fn open(&self, name: &'static str, batch: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, None, batch)
    }

    pub fn close(&self, span: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("no recorder thread panics")[span].end_ns = end;
    }

    /// Seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("no recorder thread panics");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Seconds of every span called `name` not covered by its children.
    pub fn self_time(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("no recorder thread panics");
        let mut covered = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.secs() - c)
            .sum()
    }

    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("no recorder thread panics");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"batch\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.batch
            )
            .expect("write to a String");
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
