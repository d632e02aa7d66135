//! Properties of [`TimeHistogram`], the one place the serving tier's
//! latency percentiles come from: for any sample of durations,
//! `quantile(q)` is monotone in `q`, never above the observed max, and
//! within the documented bucket width (12.5 %, or 1 ns at zero) above
//! the exact nearest-rank value — and concurrent recording loses nothing.

use std::sync::Barrier;
use std::time::Duration;

use proptest::prelude::*;
use shenjing_telemetry::TimeHistogram;

/// The exact nearest-rank `q`-quantile of an ascending sample.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn quantiles_are_monotone_bounded_and_within_a_bucket(
        // Nanoseconds to ≈ 18 minutes, shifted right by the value's own
        // low bits so every octave is exercised, not only the top ones.
        raw in proptest::collection::vec(0u64..(1u64 << 46), 1..200),
    ) {
        let mut sample: Vec<u64> = raw.iter().map(|&r| (r >> 6) >> (r % 40)).collect();
        let hist = TimeHistogram::default();
        for &ns in &sample {
            hist.record(Duration::from_nanos(ns));
        }
        sample.sort_unstable();
        prop_assert_eq!(hist.count(), sample.len() as u64);
        prop_assert_eq!(hist.sum_ns(), sample.iter().sum::<u64>());
        prop_assert_eq!(hist.max_ns(), *sample.last().unwrap());
        let mut previous = 0;
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let got = hist.quantile(q).as_nanos() as u64;
            let exact = nearest_rank(&sample, q);
            prop_assert!(got >= previous, "quantile({}) = {} below a lower quantile {}", q, got, previous);
            prop_assert!(got <= hist.max_ns(), "quantile({}) = {} above the max", q, got);
            prop_assert!(
                // 0 ns shares the 1 ns bucket: the one absolute exception.
                got >= exact && got - exact <= exact / 8 + u64::from(exact == 0),
                "quantile({}) = {} vs exact {}", q, got, exact
            );
            previous = got;
        }
    }
}

#[test]
fn eight_thread_hammer_keeps_count_and_sum_exact() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let hist = TimeHistogram::default();
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (hist, start) = (&hist, &start);
            scope.spawn(move || {
                start.wait();
                for k in 0..PER_THREAD {
                    hist.record(Duration::from_nanos(t * PER_THREAD + k));
                }
            });
        }
    });
    let n = THREADS * PER_THREAD;
    assert_eq!(hist.count(), n);
    assert_eq!(hist.sum_ns(), n * (n - 1) / 2, "every value 0..n recorded once");
    assert_eq!(hist.max_ns(), n - 1);
}
