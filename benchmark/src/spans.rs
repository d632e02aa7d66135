//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of every call into a
//! layer — the program itself is not instrumented — kept in memory, and
//! written out when the run ends. A span's *self time* is its duration
//! minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `runtime.submit`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (a request, a pass, the set-up) share this.
    pub op: u64,
    /// Microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Microseconds since the recorder's epoch.
    pub end_us: f64,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Accumulates spans; a disabled recorder drops them, so the untraced
/// run pays one branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    next_op: u64,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { epoch: Instant::now(), enabled, spans: Vec::new(), next_op: 0 }
    }

    /// A fresh operation id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records `start..end` and returns the span's index (0 when
    /// disabled).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span { name, parent, op, start_us: us(start), end_us: us(end) });
        self.spans.len() - 1
    }

    /// Opens a span that starts now; [`close`](Recorder::close) ends it.
    /// Lets a parent be recorded before the children that name it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.add(name, parent, op, now, now)
    }

    /// Ends the span `open` returned, now.
    pub fn close(&mut self, span: usize) {
        if self.enabled {
            self.spans[span].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Times `f` as a span and passes its result through.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, parent, op, start, Instant::now());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_us).collect()
    }

    /// Total self time per span name, in microseconds.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (name, self_us) in self.spans.iter().map(|s| s.name).zip(self_times_us(&self.spans)) {
            *totals.entry(name).or_insert(0.0) += self_us;
        }
        totals
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.op, s.name, s.start_us, s.end_us
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that the union of its direct children covers.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { name, parent, op: 1, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", None, 0.0, 100.0),
            span("decode", Some(0), 10.0, 30.0),
            // Overlaps `decode`: the shared 20..30 is covered once.
            span("submit", Some(0), 20.0, 50.0),
            span("wait", Some(0), 60.0, 90.0),
            // A grandchild takes nothing from the root.
            span("queue", Some(3), 60.0, 70.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 40.0 - 30.0);
        assert_eq!(selfs[1], 20.0);
        assert_eq!(selfs[3], 20.0);
        assert_eq!(selfs[4], 10.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("pass", None, 10.0, 20.0), span("late", Some(0), 15.0, 40.0)];
        assert_eq!(self_times_us(&spans)[0], 5.0);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut off = Recorder::new(false);
        assert_eq!(off.time("nn.train", None, 1, || 7), 7);
        assert!(off.spans().is_empty());
        let mut on = Recorder::new(true);
        let op = on.new_op();
        let root = on.open("setup", None, op);
        on.time("nn.train", Some(root), op, || ());
        on.close(root);
        assert!(on.spans()[0].end_us >= on.spans()[1].end_us);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.durations_us("nn.train").len(), 1);
        assert!(on.to_json("w", 3).contains("\"name\":\"nn.train\""));
    }
}
