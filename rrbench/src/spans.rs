//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the recorder was
//! created), the span that was open when it started, and the id of the job
//! it belongs to. Spans stay in memory while the run measures and are
//! written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Something that can time a call as a named span. The untraced run uses
/// [`NoSpans`], which compiles to the bare call.
pub trait Tracer {
    /// Runs `f` inside a span called `name`; `f` gets the tracer back so
    /// it can open child spans.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// The untraced tracer: records nothing.
pub struct NoSpans;

impl Tracer for NoSpans {
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into memory.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new job: every span until the next call carries its id.
    /// Returns the index of the first span the job will record.
    pub fn begin_job(&mut self, job: u32) -> usize {
        assert!(self.open.is_empty(), "a job starts with no span open");
        self.job = job;
        self.spans.len()
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"job\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Tracer for Spans {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }
}

/// Self time per span name over `spans`: each span's duration minus the
/// part of it that its direct children cover. Children never overlap one
/// another here (one thread records them in sequence), so "covered" is the
/// sum of their durations.
pub fn self_time_ns(spans: &[Span], offset: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = p.checked_sub(offset).and_then(|i| child_ns.get_mut(i)) {
                *slot += s.duration_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Number of spans named `name` in `spans`.
#[cfg(test)]
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_ms(ms: u64) {
        let started = Instant::now();
        while started.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_parents_job_ids_and_self_time() {
        let mut spans = Spans::new();
        spans.begin_job(1);
        spans.span("job", |t| {
            t.span("leaf", |_| spin_ms(3));
            t.span("leaf", |_| spin_ms(2));
            spin_ms(1);
        });
        let second = spans.begin_job(2);
        spans.span("job", |t| t.span("leaf", |_| ()));
        let all = spans.all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].parent, None);
        assert_eq!((all[1].parent, all[2].parent), (Some(0), Some(0)));
        assert_eq!(all[4].parent, Some(3));
        assert_eq!(
            all.iter().map(|s| s.job).collect::<Vec<_>>(),
            [1, 1, 1, 2, 2]
        );
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));

        let first = self_time_ns(&all[..second], 0);
        assert!(first["leaf"] >= 5_000_000);
        assert!(first["job"] >= 1_000_000 && first["job"] < all[0].duration_ns());
        assert_eq!(first["job"] + first["leaf"], all[0].duration_ns());
        let later = self_time_ns(&all[second..], second);
        assert_eq!(later["job"] + later["leaf"], all[3].duration_ns());
        assert_eq!(count(all, "leaf"), 3);
    }

    #[test]
    fn untraced_tracer_just_calls() {
        assert_eq!(NoSpans.span("x", |t| t.span("y", |_| 4)), 4);
    }
}
