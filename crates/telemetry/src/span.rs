//! Sampled request-lifecycle spans in a bounded ring.
//!
//! A [`SpanRecord`] pins the seven lifecycle edges of one served
//! request — admitted → batch-formed → planned → executed → drained →
//! replied — as microsecond offsets from the telemetry epoch, plus the
//! engine phase profile of the pass that carried it when the batch was
//! profiled. Records land in a [`SpanRing`]: a mutex'd bounded deque
//! (one short lock per *sampled* request only; unsampled requests never
//! touch it) that drops the oldest record on overflow and counts the
//! drops.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::profile::PassProfile;

/// The recorded lifecycle of one sampled request.
///
/// Timestamps are microseconds since the owning
/// [`Telemetry`](crate::Telemetry) epoch and are monotone in lifecycle
/// order: `admitted_us <= formed_us <= planned_us <= executed_us <=
/// drained_us <= replied_us`.
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanRecord {
    /// Request sequence number (unique per runtime).
    pub id: u64,
    /// Model the request targeted.
    pub model: String,
    /// Worker shard that served it.
    pub worker: u64,
    /// Frames in the batch it rode in.
    pub batch_size: u64,
    /// Admission: the request entered the queue.
    pub admitted_us: f64,
    /// Batch formation: a worker dequeued it into a batch.
    pub formed_us: f64,
    /// The engine finished planning the batch.
    pub planned_us: f64,
    /// The engine finished executing the batch.
    pub executed_us: f64,
    /// The engine drained (lanes released / deliveries committed).
    pub drained_us: f64,
    /// The reply was handed back to the caller.
    pub replied_us: f64,
    /// Phase profile of the carrying pass, when the batch was profiled.
    pub phases: Option<PassProfile>,
}

impl SpanRecord {
    /// The lifecycle edges in order, as `(name, end_us)` pairs starting
    /// from `admitted_us`: each segment spans the previous edge to
    /// `end_us`.
    pub fn segments(&self) -> [(&'static str, f64); 5] {
        [
            ("queued", self.formed_us),
            ("plan", self.planned_us),
            ("execute", self.executed_us),
            ("drain", self.drained_us),
            ("reply", self.replied_us),
        ]
    }

    /// Whether the six timestamps are monotone in lifecycle order.
    pub fn is_monotone(&self) -> bool {
        let ts = [
            self.admitted_us,
            self.formed_us,
            self.planned_us,
            self.executed_us,
            self.drained_us,
            self.replied_us,
        ];
        ts.windows(2).all(|w| w[0] <= w[1])
    }
}

/// A bounded ring of sampled spans: oldest-out on overflow, with a
/// dropped-record counter so exporters can report truncation.
#[derive(Debug)]
pub struct SpanRing {
    inner: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl SpanRing {
    /// A ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, span: SpanRecord) {
        let mut ring = self.inner.lock().expect("span ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// A snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("span ring poisoned").iter().cloned().collect()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span ring poisoned").len()
    }

    /// Whether no record has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            model: "m".into(),
            admitted_us: 1.0,
            formed_us: 2.0,
            planned_us: 3.0,
            executed_us: 4.0,
            drained_us: 5.0,
            replied_us: 6.0,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = SpanRing::new(2);
        assert!(ring.is_empty());
        for id in 0..5 {
            ring.push(span(id));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn monotone_checks_lifecycle_order() {
        let mut s = span(0);
        assert!(s.is_monotone());
        assert_eq!(s.segments()[0], ("queued", 2.0));
        s.planned_us = 10.0;
        assert!(!s.is_monotone());
    }
}
