//! The benchmark's span recorder: spans are recorded around the calls
//! the benchmark itself makes into each layer, kept in memory, and
//! written out as JSON lines when the run ends. Self time — a span's
//! duration minus the part of it its children cover — is computed here
//! too, so per-layer figures come from the same spans the file holds.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero id.
    pub id: u64,
    /// The id of the span that caused this one; `0` for a root.
    pub parent: u64,
    /// Shared by every span of one transaction (its transaction id).
    pub trace: u64,
    /// The layer call, as `<module>.<call>`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (≥ start).
    pub end: u64,
}

impl Span {
    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span sink shared by every thread of a run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn finish(&self, id: u64, name: &'static str, trace: u64, parent: u64, start: u64) {
        let end = self.now();
        self.push(Span {
            id,
            parent,
            trace,
            name,
            start,
            end,
        });
    }

    /// Records a finished leaf span and returns its id.
    pub fn leaf(&self, name: &'static str, trace: u64, parent: u64, start: u64) -> u64 {
        let id = self.reserve();
        self.finish(id, name, trace, parent, start);
        id
    }

    /// Records a span with explicit times (e.g. an end observed by a
    /// completion callback).
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Times a call as a span of `name` when a recorder is present; a plain
/// call otherwise (the untraced path pays one branch).
pub fn timed<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    trace: u64,
    parent: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        None => f(),
        Some(r) => {
            let start = r.now();
            let out = f();
            r.leaf(name, trace, parent, start);
            out
        }
    }
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|iv| covered(iv, s.start, s.end))
                .unwrap_or(0);
            (s.id, s.len().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals: span count, mean duration and mean self time (µs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Mean self time, µs.
    pub self_mean_us: f64,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut sums: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.len();
        e.2 += selfs[&s.id];
    }
    sums.into_iter()
        .map(|(name, (n, total, own))| {
            (
                name,
                LayerTime {
                    count: n,
                    mean_us: total as f64 / n as f64 / 1e3,
                    self_mean_us: own as f64 / n as f64 / 1e3,
                },
            )
        })
        .collect()
}

/// Durations (µs) of every span named `name`, unsorted.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.len() as f64 / 1e3)
        .collect()
}

/// Writes spans as JSON lines, one object per span.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 7,
            name,
            start,
            end,
        }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// ack      [0,100)
    ///   submit [0,10)
    ///   guard  [20,50)
    ///     eval [25,35)
    ///   run    [40,60)       overlaps guard by 10
    ///   late   [90,130)      runs past its parent by 30
    /// ```
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "ack", 0, 100),
            span(2, 1, "submit", 0, 10),
            span(3, 1, "guard", 20, 50),
            span(4, 3, "eval", 25, 35),
            span(5, 1, "run", 40, 60),
            span(6, 1, "late", 90, 130),
        ];
        let own = self_times(&spans);
        // children cover [0,10) ∪ [20,60) ∪ [90,100) = 60 of ack's 100
        assert_eq!(own[&1], 40);
        assert_eq!(own[&2], 10);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 10);
        assert_eq!(own[&5], 20);
        assert_eq!(own[&6], 40);

        let layers = by_name(&spans);
        assert_eq!(layers["ack"].count, 1);
        assert_eq!(layers["ack"].self_mean_us, 0.04);
        assert_eq!(layers["ack"].mean_us, 0.1);
        assert_eq!(durations_us(&spans, "guard"), vec![0.03]);
    }

    #[test]
    fn recorder_keeps_parent_links_and_writes_jsonl() {
        let rec = Recorder::new();
        let root = rec.reserve();
        let start = rec.now();
        let out = timed(Some(&rec), "child", 3, root, || 42);
        assert_eq!(out, 42);
        rec.finish(root, "root", 3, 0, start);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"root\""));
    }
}
