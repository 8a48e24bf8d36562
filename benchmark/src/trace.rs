//! The span store of traced runs.
//!
//! A span is one timed interval at a layer boundary: a name, a start and
//! an end (nanoseconds since the store's origin), the span that caused
//! it, and the request or job id every span of one request shares.
//! Spans are kept in memory while the run executes and written out once,
//! when the run finishes ([`SpanStore::finish`]), so tracing adds no I/O
//! to the measured work.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover. Children may overlap — the two worker
//! threads of a sweep run stages side by side under one parent — so the
//! covered part is the length of the *union* of the child intervals,
//! counted once.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a span inside its store.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `slicer.diagnose`.
    pub name: &'static str,
    /// Request or job id, shared by every span of one request.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the store's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the store's origin (equal to the start
    /// while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every traced thread.
pub struct SpanStore {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore::new()
    }
}

impl SpanStore {
    /// An empty store whose clock starts now.
    pub fn new() -> SpanStore {
        SpanStore {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The store's clock: nanoseconds since its origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `instant` on the store's clock.
    pub fn ns_at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update below leaves the vector valid, so a guard poisoned
        // by a panicking traced thread is still safe to use.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span starting now; close it with [`SpanStore::close`].
    pub fn open(&self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        spans.len() - 1
    }

    /// Closes an open span at the current time and returns its
    /// `(start, end)`.
    pub fn close(&self, span: SpanId) -> (u64, u64) {
        let now = self.now_ns();
        match self.lock().get_mut(span) {
            Some(s) => {
                s.end_ns = now;
                (s.start_ns, now)
            }
            None => (now, now),
        }
    }

    /// Records an interval timed elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can open
    /// children.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f(span);
        self.close(span);
        out
    }

    /// Ends the trace: writes every span exactly once to `path` (one JSON
    /// object per line) and returns them. Consuming the store makes a
    /// second write impossible.
    ///
    /// # Errors
    ///
    /// Directory creation or write failures.
    pub fn finish(self, path: &Path) -> io::Result<Vec<Span>> {
        let spans = self
            .spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans)
    }
}

#[cfg(test)]
impl SpanStore {
    /// The recorded spans, without writing them anywhere.
    pub fn finish_in_memory(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Total length of the union of `intervals` (each `(start, end)`),
/// counting overlapping stretches once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span, in the store's order: its duration minus the
/// union of its children's intervals (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = spans.get(p) {
                let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns().saturating_sub(union_len(kids)))
        .collect()
}

/// Per-name aggregates over one finished trace.
pub struct TraceSummary {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl TraceSummary {
    /// Computes self times for `spans`.
    pub fn new(spans: Vec<Span>) -> TraceSummary {
        let self_ns = self_times(&spans);
        TraceSummary { spans, self_ns }
    }

    /// The spans this summary covers.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms_where(|s| s.name == name)
    }

    /// Summed self time of every span whose name passes `keep`, in
    /// milliseconds.
    pub fn self_ms_where(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| keep(s))
            .map(|(_, &ns)| ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Durations (ms) of every span named `name`, in store order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        // A parent [0, 100] with two overlapping children from two worker
        // threads, [10, 50] and [30, 70], and a disjoint one [80, 90]:
        // covered = [10, 70] ∪ [80, 90] = 70, so self = 30. Summing the
        // children naively would give 90 and a self time of 10.
        let spans = vec![
            span("core.batch", 7, None, 0, 100),
            span("slicer.diagnose", 7, Some(0), 10, 50),
            span("slicer.diagnose", 7, Some(0), 30, 70),
            span("printer.deposit", 7, Some(0), 80, 90),
            // A grandchild only reduces its own parent's self time.
            span("fea.solve", 7, Some(3), 82, 88),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 40, 40, 4, 6]);
        let summary = TraceSummary::new(spans);
        assert!((summary.self_ms("slicer.diagnose") - 80e-6).abs() < 1e-12);
        assert!((summary.self_ms("core.batch") - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("server.exec", 1, None, 100, 200),
            span("x", 1, Some(0), 50, 150),
        ];
        assert_eq!(self_times(&spans), vec![50, 100]);
    }

    #[test]
    fn union_counts_shared_stretches_once() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25), (24, 30)]), 25);
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(3, 3)]), 0);
    }

    #[test]
    fn spans_share_request_ids_and_are_written_once_at_exit() {
        let dir =
            std::env::temp_dir().join(format!("obfuscade-bench-trace-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        let _ = fs::remove_dir_all(&dir);
        let store = SpanStore::new();
        for request in [11u64, 12] {
            store.in_span("server.exec", request, None, |exec| {
                store.in_span("protocol.render", request, Some(exec), |_| ());
            });
        }
        // Nothing reaches the file system while the run executes.
        assert!(!path.exists());
        let spans = store.finish(&path).expect("write trace");
        let text = fs::read_to_string(&path).expect("read trace");
        assert_eq!(text.lines().count(), spans.len());
        assert_eq!(spans.len(), 4);
        for s in &spans {
            if let Some(p) = s.parent {
                assert_eq!(spans[p].id, s.id, "a child carries its request's id");
            }
            let line = format!("\"name\":\"{}\",\"id\":{}", s.name, s.id);
            assert_eq!(text.matches(&line).count(), 1, "{line} written once");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
