//! In-memory spans recorded around calls into the program's public
//! functions, and the per-layer self-time table derived from them.
//!
//! The program itself carries no tracing: every span here is opened and
//! closed by the benchmark. A span's *self time* is its duration minus
//! its children's durations. Spans of one request share its id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `codec.entropy` or `net.write_frame`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// The request (index in the shared order) the span belongs to.
    pub request: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span store. Span ids are indices into it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; span times are measured from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished interval; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now());
        out
    }

    /// Copies span `root` and its subtree (recorded after it, as every
    /// subtree here is) under `parent`, for `request`. A request that
    /// waited on work done once for several requests gets its own copy
    /// of that work's spans.
    pub fn copy_subtree(&mut self, root: usize, parent: usize, request: u64) {
        let end = self.spans[root + 1..]
            .iter()
            .position(|s| !self.descends_from(s, root))
            .map_or(self.spans.len(), |p| root + 1 + p);
        let base = self.spans.len();
        for i in root..end {
            let mut span = self.spans[i].clone();
            span.parent = if i == root {
                Some(parent)
            } else {
                span.parent.map(|p| p - root + base)
            };
            span.request = request;
            self.spans.push(span);
        }
    }

    fn descends_from(&self, span: &Span, root: usize) -> bool {
        let mut p = span.parent;
        while let Some(i) = p {
            if i == root {
                return true;
            }
            p = self.spans[i].parent;
        }
        false
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in, re-basing their ids. Both tracers must
    /// share one epoch.
    pub fn absorb(&mut self, other: Tracer) {
        assert_eq!(self.epoch, other.epoch, "absorbed tracer has another epoch");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Sum of self time per span name over spans whose request passes
    /// `keep`. Roots (spans without a parent) are the timed calls
    /// themselves, not a layer, and are left out.
    pub fn self_times(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() || !keep(s.request) {
                continue;
            }
            // Saturate: a parent re-timed separately from its children
            // can read a few ns shorter than they do.
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                s.duration().saturating_sub(child_time[i]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {id}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_children_and_skips_roots() {
        let e = Instant::now();
        let mut t = Tracer::new(e);
        let root = t.record("request", 0, None, at(e, 0), at(e, 100));
        let frame = t.record("net.write_frame", 0, Some(root), at(e, 0), at(e, 30));
        t.record("checksum.crc32", 0, Some(frame), at(e, 30), at(e, 50));
        t.record("net.encode_ok", 0, Some(root), at(e, 50), at(e, 60));
        let other = t.record("request", 1, None, at(e, 0), at(e, 10));
        t.record("net.encode_ok", 1, Some(other), at(e, 0), at(e, 5));
        let all = t.self_times(|_| true);
        assert_eq!(all.get("request"), None);
        assert_eq!(all["net.write_frame"], Duration::from_micros(10));
        assert_eq!(all["checksum.crc32"], Duration::from_micros(20));
        assert_eq!(all["net.encode_ok"], Duration::from_micros(15));
        let only0 = t.self_times(|r| r == 0);
        assert_eq!(only0["net.encode_ok"], Duration::from_micros(10));
    }

    #[test]
    fn copied_subtrees_keep_their_shape() {
        let e = Instant::now();
        let mut t = Tracer::new(e);
        let a = t.record("request", 0, None, at(e, 0), at(e, 100));
        let b = t.record("request", 1, None, at(e, 0), at(e, 100));
        let dec = t.record("codec.decode", 0, Some(a), at(e, 0), at(e, 40));
        t.record("codec.entropy", 0, Some(dec), at(e, 0), at(e, 30));
        t.copy_subtree(dec, b, 1);
        assert_eq!(t.spans().len(), 6);
        assert_eq!(t.spans()[4].parent, Some(b));
        assert_eq!(t.spans()[5].parent, Some(4));
        assert_eq!(t.spans()[5].request, 1);
        let only1 = t.self_times(|r| r == 1);
        assert_eq!(only1["codec.decode"], Duration::from_micros(10));
        assert_eq!(only1["codec.entropy"], Duration::from_micros(30));
    }

    #[test]
    fn absorbed_spans_are_rebased() {
        let e = Instant::now();
        let mut a = Tracer::new(e);
        a.record("request", 0, None, at(e, 0), at(e, 10));
        let mut b = Tracer::new(e);
        let r = b.record("request", 1, None, at(e, 0), at(e, 10));
        b.record("net.encode_ok", 1, Some(r), at(e, 1), at(e, 2));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(
            a.self_times(|_| true)["net.encode_ok"],
            Duration::from_micros(1)
        );
    }
}
