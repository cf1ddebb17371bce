//! In-memory span recording around calls into the simulator's layers.
//!
//! A span is one timed call: its name (the layer call it wraps), start and
//! end on the recorder's clock, the span that caused it, and the id of the
//! benchmark operation it belongs to (0 for set-up). Spans stay in memory
//! until the run ends and are then written out as JSON lines. A layer's
//! *self time* is a span's duration minus the part of that interval its
//! child spans cover; children may overlap (sweep points on parallel
//! workers), so the covered part is the union of their intervals.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Benchmark operation id (0 = set-up).
    pub op: u64,
    /// The wrapped call, e.g. `session.restore`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as span `name` of operation `op` under `parent`; `f`
    /// receives the new span's id so it can parent nested spans.
    pub fn span<T>(
        &self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Ids only need to be unique; no other data is published through
        // the counter.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span in `spans`, in the same order: its duration
/// minus the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
}

impl NameTotals {
    /// Mean self time per call in µs (0 when the call never happened).
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Aggregates `spans` by name.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        t.total_ns += s.duration_ns();
    }
    out
}

/// Writes `spans` as JSON lines (with their self time) to `path`,
/// creating the parent directory.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // op [0,100) with restore [10,20), run [20,80) and report [85,95);
        // run has a nested child [30,40).
        let tree = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "session.restore", 10, 20),
            span(3, Some(1), "cpu.run", 20, 80),
            span(4, Some(3), "inner", 30, 40),
            span(5, Some(1), "session.report", 85, 95),
        ];
        assert_eq!(self_times(&tree), vec![20, 10, 50, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // A sweep on two workers: points [0,60) and [10,50) then [60,90),
        // all inside a wall span [0,100) that also has a point leaking past
        // its end, which is clipped.
        let tree = vec![
            span(1, None, "sweep.run", 0, 100),
            span(2, Some(1), "sweep.point", 0, 60),
            span(3, Some(1), "sweep.point", 10, 50),
            span(4, Some(1), "sweep.point", 60, 90),
            span(5, Some(1), "sweep.point", 95, 120),
        ];
        let selfs = self_times(&tree);
        assert_eq!(selfs[0], 100 - 90 - 5);
        assert_eq!(&selfs[1..], &[60, 40, 30, 25]);
    }

    #[test]
    fn totals_group_by_name_and_recorder_nests() {
        let rec = Recorder::new();
        rec.span(7, None, "op", |id| {
            rec.span(7, Some(id), "leaf", |_| ());
            rec.span(7, Some(id), "leaf", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let t = totals(&spans);
        assert_eq!(t["leaf"].calls, 2);
        assert_eq!(t["op"].calls, 1);
        assert!(t["op"].total_ns >= t["leaf"].total_ns);
        assert_eq!(
            t["op"].self_ns,
            t["op"].total_ns - t["leaf"].total_ns,
            "disjoint children are subtracted exactly"
        );
        assert_eq!(NameTotals::default().mean_self_us(), 0.0);
    }
}
