//! The serving tier's one policy decision — which requests ride the next
//! pass — as a pure state machine.
//!
//! [`Scheduler`] owns the request queue and nothing else: no lock, no
//! thread, no channel send and no clock read. Its caller passes the
//! instant in and acts on the verdict (waits, executes, answers), so the
//! policy is a function of the queue and one instant, checked as one by
//! the property test below:
//!
//! - expired requests are swept before any pick;
//! - the batch head is the most urgent request (priority, then
//!   deadline, then FIFO);
//! - batches are single-model and hold at most `max_batch` requests;
//! - dispatch is work-conserving: while any request is queued, the
//!   verdict is a batch of the head model's requests, however few.
//!   Batches fill under load because requests gather while the previous
//!   pass runs, not because a queued request is held back.
//!
//! A request leaves the queue once, expired or dispatched: the runtime
//! never puts one back.

use std::cmp::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use shenjing_core::{RejectReason, Result};
use shenjing_nn::Tensor;
use shenjing_telemetry::Gauge;

use crate::server::InferenceReply;

/// One queued request.
pub(crate) struct Request {
    pub(crate) model: usize,
    pub(crate) input: Tensor,
    pub(crate) rider: Rider,
}

/// The part of a queued request that outlives its execution: identity,
/// scheduling facts, and the reply channel. The input tensor is moved
/// out for execution, so a batch runs without cloning frames.
pub(crate) struct Rider {
    pub(crate) enqueued: Instant,
    /// Absolute expiry, resolved at admission from the request's budget
    /// (or the model's default SLO).
    pub(crate) deadline: Option<Instant>,
    pub(crate) priority: u8,
    /// Admission order, the FIFO tie-breaker (stamped by
    /// [`Scheduler::admit`]).
    pub(crate) seq: u64,
    /// Whether this request won the telemetry sampling decision at
    /// admission: its lifecycle becomes a span, and the batch carrying
    /// it is phase-profiled.
    pub(crate) sampled: bool,
    pub(crate) reply: mpsc::Sender<Result<InferenceReply>>,
}

impl Request {
    /// Splits the request into the frame to execute and the rider that
    /// outlives the execution.
    pub(crate) fn split(self) -> (Tensor, Rider) {
        (self.input, self.rider)
    }
}

/// The dequeue order: priority (higher first), then deadline (earlier
/// first, deadline-less last), then admission order.
pub(crate) fn schedule_order(a: &Request, b: &Request) -> Ordering {
    b.rider
        .priority
        .cmp(&a.rider.priority)
        .then_with(|| match (a.rider.deadline, b.rider.deadline) {
            (Some(x), Some(y)) => x.cmp(&y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        })
        .then_with(|| a.rider.seq.cmp(&b.rider.seq))
}

/// What a worker does next.
pub(crate) enum Next {
    /// Execute `batch` — one model's requests, most urgent first — as
    /// one pass.
    Dispatch { model: usize, batch: Vec<Request> },
    /// The queue is empty: sleep until the next admission (or close).
    Wait,
    /// Closed and drained: the worker is done.
    Exit,
}

/// The request queue and its dispatch policy (see the [module
/// docs](self)).
pub(crate) struct Scheduler {
    pending: Vec<Request>,
    next_seq: u64,
    closed: bool,
    max_batch: usize,
    /// Admission bound on `pending`.
    capacity: usize,
    /// `shenjing_queue_depth{model=}`, indexed by model: how many of
    /// `pending` are that model's.
    depth: Vec<Arc<Gauge>>,
}

impl Scheduler {
    pub(crate) fn new(max_batch: usize, capacity: usize, depth: Vec<Arc<Gauge>>) -> Scheduler {
        Scheduler { pending: Vec::new(), next_seq: 0, closed: false, max_batch, capacity, depth }
    }

    /// Queues `request` next in admission order (stamping its `seq`), or
    /// refuses it: closed, or `capacity` requests already pending.
    pub(crate) fn admit(&mut self, mut request: Request) -> std::result::Result<(), RejectReason> {
        if self.closed {
            return Err(RejectReason::ShuttingDown);
        }
        if self.pending.len() >= self.capacity {
            return Err(RejectReason::QueueFull { limit: self.capacity });
        }
        request.rider.seq = self.next_seq;
        self.next_seq += 1;
        self.depth[request.model].add(1);
        self.pending.push(request);
        Ok(())
    }

    /// The verdict at `now`. Requests whose deadline has passed leave
    /// first, into `expired`, for the caller to answer.
    pub(crate) fn next(&mut self, now: Instant, expired: &mut Vec<Request>) -> Next {
        for request in self.pending.extract_if(.., |r| r.rider.deadline.is_some_and(|d| d <= now)) {
            self.depth[request.model].sub(1);
            expired.push(request);
        }
        let Some(head) = self.pending.iter().min_by(|a, b| schedule_order(a, b)) else {
            return if self.closed { Next::Exit } else { Next::Wait };
        };
        // Only the head's model's requests may ride along.
        let model = head.model;
        let mut batch: Vec<Request> = self.pending.extract_if(.., |r| r.model == model).collect();
        batch.sort_by(schedule_order);
        let overflow = batch.split_off(batch.len().min(self.max_batch));
        self.pending.extend(overflow);
        self.depth[model].sub(batch.len() as i64);
        Next::Dispatch { model, batch }
    }

    /// Closes admission: [`next`](Scheduler::next) says [`Next::Exit`]
    /// once the queue is empty.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Closes admission and hands back everything queued — no worker is
    /// left to serve it.
    pub(crate) fn abandon(&mut self) -> Vec<Request> {
        self.close();
        for request in &self.pending {
            self.depth[request.model].sub(1);
        }
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::time::Duration;

    fn rider(priority: u8, deadline: Option<Instant>, enqueued: Instant) -> Rider {
        Rider { enqueued, deadline, priority, seq: 0, sampled: false, reply: mpsc::channel().0 }
    }

    fn request(
        model: usize,
        priority: u8,
        deadline: Option<Instant>,
        enqueued: Instant,
    ) -> Request {
        Request { model, input: Tensor::zeros(vec![1]), rider: rider(priority, deadline, enqueued) }
    }

    fn scheduler(models: usize, max_batch: usize, capacity: usize) -> Scheduler {
        Scheduler::new(max_batch, capacity, (0..models).map(|_| Arc::default()).collect())
    }

    fn seqs(requests: &[Request]) -> Vec<u64> {
        requests.iter().map(|r| r.rider.seq).collect()
    }

    #[test]
    fn schedule_order_ranks_priority_then_deadline_then_fifo() {
        let now = Instant::now();
        let req = |priority: u8, deadline: Option<Duration>, seq: u64| {
            let mut r = request(0, priority, deadline.map(|d| now + d), now);
            r.rider.seq = seq;
            r
        };
        let urgent = req(5, Some(Duration::from_millis(1)), 10);
        let urgent_later = req(5, Some(Duration::from_millis(9)), 2);
        let urgent_open = req(5, None, 0);
        let background = req(0, Some(Duration::from_micros(1)), 1);
        assert_eq!(schedule_order(&urgent, &background), Ordering::Less, "priority first");
        assert_eq!(
            schedule_order(&urgent, &urgent_later),
            Ordering::Less,
            "earlier deadline breaks priority ties"
        );
        assert_eq!(
            schedule_order(&urgent_later, &urgent_open),
            Ordering::Less,
            "any deadline outranks none"
        );
        assert_eq!(
            schedule_order(&req(1, None, 3), &req(1, None, 7)),
            Ordering::Less,
            "FIFO among equals"
        );

        // A dispatch honors the order and leaves other models queued.
        let mut sched = scheduler(2, 2, 8);
        let deadline = Some(now + Duration::from_millis(5));
        for (model, priority, deadline) in
            [(0, 0, None), (0, 3, None), (1, 2, None), (0, 3, deadline)]
        {
            sched.admit(request(model, priority, deadline, now)).unwrap();
        }
        let Next::Dispatch { model, batch } = sched.next(now, &mut Vec::new()) else {
            panic!("a full batch dispatches at once");
        };
        assert_eq!(
            (model, seqs(&batch)),
            (0, vec![3, 1]),
            "deadline-bearing priority-3 first, then FIFO priority-3"
        );
        let mut left: Vec<(usize, u64)> =
            sched.pending.iter().map(|r| (r.model, r.rider.seq)).collect();
        left.sort_unstable();
        assert_eq!(
            left,
            vec![(0, 0), (1, 2)],
            "the other model's request and the overflow stay queued"
        );
    }

    #[test]
    fn a_lone_request_dispatches_at_its_admission_instant() {
        // A 16-lane scheduler never holds one request back for company:
        // alone, or beside another model's queue, it leaves at the
        // instant it was admitted.
        let now = Instant::now();
        let mut sched = scheduler(2, 16, 8);
        let dispatch = |sched: &mut Scheduler| match sched.next(now, &mut Vec::new()) {
            Next::Dispatch { model, batch } => (model, seqs(&batch)),
            _ => panic!("a queued request waited"),
        };
        sched.admit(request(0, 0, None, now)).unwrap();
        assert_eq!(dispatch(&mut sched), (0, vec![0]), "alone");

        sched.admit(request(1, 0, None, now)).unwrap();
        sched.admit(request(1, 0, None, now)).unwrap();
        sched.admit(request(0, 5, None, now)).unwrap();
        assert_eq!(dispatch(&mut sched), (0, vec![3]), "beside another model's queue");
        assert_eq!(dispatch(&mut sched), (1, vec![1, 2]), "and that queue right after");
        assert!(matches!(sched.next(now, &mut Vec::new()), Next::Wait), "and then nothing");
    }

    #[test]
    fn abandoning_hands_back_the_queue_and_zeroes_its_gauges() {
        let now = Instant::now();
        let mut sched = scheduler(2, 4, 2);
        sched.admit(request(0, 0, None, now)).unwrap();
        sched.admit(request(1, 0, None, now)).unwrap();
        let full = sched.admit(request(1, 0, None, now)).unwrap_err();
        assert_eq!(full, RejectReason::QueueFull { limit: 2 });
        assert_eq!(sched.abandon().len(), 2);
        assert!(sched.depth.iter().all(|g| g.get() == 0));
        assert_eq!(sched.admit(request(0, 0, None, now)).unwrap_err(), RejectReason::ShuttingDown);
        assert!(matches!(sched.next(now, &mut Vec::new()), Next::Exit));
    }

    /// Where an admitted request is in its life.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        Queued,
        InFlight,
        Done,
    }

    /// A random history run against one scheduler on a fake clock (a base
    /// instant plus µs offsets), every invariant checked after every step.
    struct History {
        sched: Scheduler,
        base: Instant,
        clock_us: u64,
        fates: HashMap<u64, Fate>,
        /// Dispatched batches the "worker" has not finished yet.
        in_flight: Vec<Vec<Request>>,
        /// The last verdict was `Wait`, and nothing was admitted or
        /// closed since.
        idle: bool,
    }

    impl History {
        fn now(&self) -> Instant {
            self.base + Duration::from_micros(self.clock_us)
        }

        fn end(&mut self, seq: u64, from: Fate, to: Fate) {
            assert_eq!(self.fates.insert(seq, to), Some(from), "request {seq}: {from:?} → {to:?}");
        }

        fn gauges_match(&self) {
            let gauges: i64 = self.sched.depth.iter().map(|g| g.get()).sum();
            assert_eq!(gauges, self.sched.pending.len() as i64, "gauges track the queue");
        }

        /// `arg` picks the model, priority and deadline.
        fn admit(&mut self, models: usize, arg: u64) {
            let now = self.now();
            let deadline = (!(arg >> 8).is_multiple_of(4))
                .then(|| now + Duration::from_micros((arg >> 12) % 3_000));
            let mut r =
                request((arg % models as u64) as usize, ((arg >> 4) % 3) as u8, deadline, now);
            r.rider.seq = u64::MAX;
            let (closed, full) =
                (self.sched.closed, self.sched.pending.len() >= self.sched.capacity);
            match self.sched.admit(r) {
                Ok(()) => {
                    let seq = self.sched.next_seq - 1;
                    assert!(self.fates.insert(seq, Fate::Queued).is_none(), "seq {seq} reused");
                    self.idle = false;
                }
                Err(RejectReason::ShuttingDown) => assert!(closed),
                Err(RejectReason::QueueFull { .. }) => assert!(full && !closed),
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
            self.gauges_match();
        }

        /// Finishes the oldest batch in flight: every rider is answered
        /// once, and none returns to the queue.
        fn finish(&mut self) {
            if self.in_flight.is_empty() {
                return;
            }
            for r in self.in_flight.remove(0) {
                self.end(r.rider.seq, Fate::InFlight, Fate::Done);
            }
            self.gauges_match();
        }

        /// One `next` at the current instant; `true` on `Exit`.
        fn step(&mut self) -> bool {
            let now = self.now();
            let max_batch = self.sched.max_batch;
            let before: Vec<&Request> = self.sched.pending.iter().collect();
            let mut want_expired: Vec<u64> = before
                .iter()
                .filter(|r| r.rider.deadline.is_some_and(|d| d <= now))
                .map(|r| r.rider.seq)
                .collect();
            // The most urgent live request, and each model's live ones.
            let live = |r: &&&Request| r.rider.deadline.is_none_or(|d| d > now);
            let head = before.iter().filter(live).min_by(|a, b| schedule_order(a, b));
            let head_seq = head.map(|r| r.rider.seq);
            let live_by_model: Vec<(usize, u64)> =
                before.iter().filter(live).map(|r| (r.model, r.rider.seq)).collect();

            let mut expired = Vec::new();
            let verdict = self.sched.next(now, &mut expired);
            let mut got_expired = seqs(&expired);
            want_expired.sort_unstable();
            got_expired.sort_unstable();
            assert_eq!(got_expired, want_expired, "exactly the requests at their deadline expire");
            for seq in got_expired {
                self.end(seq, Fate::Queued, Fate::Done);
            }
            if self.idle {
                // Only an admission or a close ends a wait.
                assert!(matches!(verdict, Next::Wait), "the clock alone ended a wait");
            }
            self.gauges_match();
            match verdict {
                Next::Dispatch { model, batch } => {
                    assert!((1..=max_batch).contains(&batch.len()), "batch of {}", batch.len());
                    assert_eq!(Some(batch[0].rider.seq), head_seq, "the head is the most urgent");
                    for r in &batch {
                        assert_eq!(r.model, model, "single-model batch");
                        assert!(r.rider.deadline.is_none_or(|d| d > now), "dispatched at deadline");
                    }
                    for pair in batch.windows(2) {
                        assert_eq!(schedule_order(&pair[0], &pair[1]), Ordering::Less, "order");
                    }
                    // The batch is the top of its model's live requests:
                    // what stays behind ranks after its last rider.
                    let last = &batch[batch.len() - 1];
                    for r in &self.sched.pending {
                        if live_by_model.contains(&(model, r.rider.seq)) {
                            assert_eq!(
                                batch.len(),
                                max_batch,
                                "an under-full batch left one behind"
                            );
                            assert_eq!(
                                schedule_order(last, r),
                                Ordering::Less,
                                "urgent left behind"
                            );
                        }
                    }
                    for r in &batch {
                        self.end(r.rider.seq, Fate::Queued, Fate::InFlight);
                    }
                    self.in_flight.push(batch);
                    false
                }
                Next::Wait => {
                    // Work conservation: a wait means the queue is empty.
                    assert_eq!(head_seq, None, "waited while a request was queued");
                    assert!(self.sched.pending.is_empty(), "waited on a non-empty queue");
                    assert!(!self.sched.closed, "a closed, empty queue exits");
                    self.idle = true;
                    false
                }
                Next::Exit => {
                    assert!(self.sched.closed && self.sched.pending.is_empty(), "early exit");
                    true
                }
            }
        }
    }

    /// Each op word picks an operation (its low byte) and its operands.
    fn check_history(models: usize, max_batch: usize, ops: &[u64]) {
        let mut h = History {
            sched: scheduler(models, max_batch, 24),
            base: Instant::now(),
            clock_us: 0,
            fates: HashMap::new(),
            in_flight: Vec::new(),
            idle: false,
        };
        let mut exited = false;
        for &word in ops {
            let arg = word >> 8;
            match word % 8 {
                0..=2 => h.admit(models, arg),
                3 | 4 => h.clock_us += arg % 1_500,
                5 => h.clock_us += arg % 20,
                6 => h.finish(),
                _ if arg % 16 == 0 => {
                    h.sched.close();
                    h.idle = false;
                }
                _ => {}
            }
            if !exited {
                exited = h.step();
            }
        }
        // Close, then step until the queue drains — every step before the
        // exit dispatches at least one request — and finish every batch.
        h.sched.close();
        h.idle = false;
        for _ in 0..=h.sched.pending.len() {
            if h.step() {
                break;
            }
        }
        assert!(h.sched.pending.is_empty(), "the closed queue never drained");
        while !h.in_flight.is_empty() {
            h.finish();
        }
        assert!(h.fates.values().all(|&f| f == Fate::Done), "every admitted request ended once");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn scheduler_invariants_hold_over_random_histories(
            models in 2usize..4,
            max_batch in 1usize..6,
            ops in proptest::collection::vec(any::<u64>(), 1..160),
        ) {
            check_history(models, max_batch, &ops);
        }
    }
}
