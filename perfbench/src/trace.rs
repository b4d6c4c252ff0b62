//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and job id. Spans are kept in memory
//! and written out as NDJSON when the run ends. A span's self time is
//! its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The job the span belongs to.
    pub job: u64,
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// A span recorder. Each thread owns one; [`Tracer::merge`] joins them.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    id_base: u64,
    next: u64,
    job: Vec<Span>,
    kept: Vec<Span>,
    keep_limit: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A tracer whose span ids start at `lane << 40` (one lane per
    /// thread keeps ids unique) and which keeps at most `keep_limit`
    /// spans for the output file; totals always cover every span.
    pub fn new(origin: Instant, lane: u64, keep_limit: usize) -> Tracer {
        Tracer {
            origin,
            id_base: lane << 40,
            next: 0,
            job: Vec::new(),
            kept: Vec::new(),
            keep_limit,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// A tracer for another thread: same origin, id lane `lane`, and a
    /// `1 / share` part of this tracer's span limit.
    pub fn lane(&self, lane: u64, share: usize) -> Tracer {
        Tracer::new(self.origin, lane, self.keep_limit / share.max(1))
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span of the current job and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id_base | self.next;
        self.next += 1;
        let span = Span {
            id,
            parent,
            job,
            name,
            start: self.ns(start),
            end: self.ns(end).max(self.ns(start)),
        };
        self.job.push(span);
        id
    }

    /// Closes the current job: folds its spans into the totals and
    /// keeps them for the output file while there is room.
    pub fn finish_job(&mut self) {
        let spans = std::mem::take(&mut self.job);
        for (name, totals) in self_times(&spans) {
            let entry = self.totals.entry(name).or_default();
            entry.count += totals.count;
            entry.total_ns += totals.total_ns;
            entry.self_ns += totals.self_ns;
        }
        let room = self.keep_limit.saturating_sub(self.kept.len());
        self.dropped += spans.len().saturating_sub(room) as u64;
        self.kept.extend(spans.into_iter().take(room));
    }

    /// Per-name totals over every finished job.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Joins another thread's tracer into this one.
    pub fn merge(&mut self, mut other: Tracer) {
        other.finish_job();
        for (name, totals) in other.totals {
            let entry = self.totals.entry(name).or_default();
            entry.count += totals.count;
            entry.total_ns += totals.total_ns;
            entry.self_ns += totals.self_ns;
        }
        let room = self.keep_limit.saturating_sub(self.kept.len());
        self.dropped += other.dropped + other.kept.len().saturating_sub(room) as u64;
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// Writes the kept spans as NDJSON, one object per line, after a
    /// header line with the totals and the number of spans not kept.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"type\":\"totals\",\"dropped_spans\":{}",
            self.dropped
        )?;
        for (name, t) in &self.totals {
            write!(
                out,
                ",\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "}}")?;
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.job, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Per-name totals of a set of spans, with each span's self time taken
/// as its duration minus the union of its children's intervals (clipped
/// to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let duration = s.end - s.start;
        let entry = totals.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered.min(duration);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(1, None, "job", 0, 100),
            span(2, Some(1), "solve", 10, 40),
            span(3, Some(1), "solve", 30, 50),
            span(4, Some(1), "solve", 90, 120),
        ];
        let totals = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 of 100 ns.
        assert_eq!(totals["job"].self_ns, 50);
        assert_eq!(totals["solve"].count, 3);
        assert_eq!(totals["solve"].total_ns, 80);
    }
}
