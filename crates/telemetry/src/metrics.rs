//! Cheap always-on metric primitives behind a named registry.
//!
//! Three instrument kinds, all updatable from any thread without taking
//! the registry lock on the hot path (callers resolve an
//! [`Arc`]-handle once and then pay only atomic operations per event):
//!
//! * [`Counter`] — a monotonically increasing `u64`;
//! * [`Gauge`] — a signed instantaneous value (queue depth, lanes held);
//! * [`TimeHistogram`] — log-linear-bucketed durations with count, sum
//!   and observed max, from which [`TimeHistogram::quantile`] reads
//!   percentiles to within one bucket (≤ 12.5 %).
//!
//! [`Registry::render`] snapshots everything into the Prometheus text
//! exposition format. Any instrument's name may carry a
//! `{label="value"}` suffix — build it with [`series`], which escapes
//! the values; entries sort by family, so one `# TYPE` header covers
//! each.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sub-buckets per octave of a [`TimeHistogram`]: a bucket is at most
/// `1 / SUB_BUCKETS` = 12.5 % wider than its lower bound.
const SUB_BUCKETS: u64 = 8;

/// Number of buckets a [`TimeHistogram`] keeps — eight per octave, the
/// last one's upper bound 2^47 ns ≈ 39 hours, far beyond any serving
/// latency.
pub const HISTOGRAM_BUCKETS: usize = 360;

/// The series name `family{k1="v1",k2="v2"}` with every label value
/// escaped per the Prometheus text format (`\` → `\\`, `"` → `\"`, line
/// feed → `\n`), so a hostile value cannot break the exposition apart.
/// An empty label list yields the bare family.
pub fn series(family: &str, labels: &[(&str, &str)]) -> String {
    let mut out = family.to_string();
    for (i, (key, value)) in labels.iter().enumerate() {
        out.push_str(if i == 0 { "{" } else { "," });
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if !labels.is_empty() {
        out.push('}');
    }
    out
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A bounded-footprint duration histogram: a sample of `ns` nanoseconds
/// lands in the bucket holding `ns − 1`, where values below 16 have a
/// bucket each and every octave above is cut into eight equal
/// parts — so a bucket `(lo, hi]` is never more than 12.5 % wide and
/// recording is three relaxed atomic operations whatever the range.
#[derive(Debug)]
pub struct TimeHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for TimeHistogram {
    fn default() -> TimeHistogram {
        TimeHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket a duration of `ns` lands in (the last one past 2^47 ns).
fn bucket_of(ns: u64) -> usize {
    let u = ns.saturating_sub(1);
    if u < SUB_BUCKETS {
        return u as usize;
    }
    let exp = u64::from(63 - u.leading_zeros());
    let idx = (exp - 2) * SUB_BUCKETS + ((u >> (exp - 3)) & (SUB_BUCKETS - 1));
    (idx as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `idx`, in nanoseconds.
fn upper_ns(idx: usize) -> u64 {
    let (octave, sub) = (idx as u64 / SUB_BUCKETS, idx as u64 % SUB_BUCKETS);
    if octave == 0 {
        sub + 1
    } else {
        (SUB_BUCKETS + sub + 1) << (octave - 1)
    }
}

impl TimeHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // The max first, so a reader that sees the sample in its bucket
        // clamps quantiles to a max that already covers it.
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds every sample of `other` to this histogram.
    pub fn merge_from(&self, other: &TimeHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(other.sum_ns(), Ordering::Relaxed);
        self.max_ns.fetch_max(other.max_ns(), Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// The longest recorded duration, in nanoseconds (zero when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0..=1) by the nearest-rank method, read off the
    /// buckets: the upper bound of the bucket holding the rank-th
    /// smallest sample, clamped to the observed max. So the answer is
    /// never below the exact sample, at most 12.5 % above it (0 ns shares
    /// the 1 ns bucket), monotone in `q` and at most
    /// [`max_ns`](TimeHistogram::max_ns). Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_nanos(upper_ns(idx).min(self.max_ns()));
            }
        }
        Duration::ZERO
    }

    /// The `_bucket` / `_sum` / `_count` lines of one series; `labels`
    /// is empty or a whole `{…}` suffix, which `le` joins.
    fn render_into(&self, family: &str, labels: &str, out: &mut String) {
        let inner = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
        let sep = if inner.is_some() { "," } else { "" };
        let inner = inner.unwrap_or("");
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            cumulative += n;
            let le = upper_ns(idx) as f64 / 1e9;
            let _ = writeln!(out, "{family}_bucket{{{inner}{sep}le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{family}_bucket{{{inner}{sep}le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{family}_sum{labels} {}", self.sum_ns() as f64 / 1e9);
        let _ = writeln!(out, "{family}_count{labels} {cumulative}");
    }
}

/// Instruments of one kind, keyed by `(family, {labels})` so a family's
/// series sort together whatever other family names share its prefix.
type Instruments<T> = Mutex<BTreeMap<(String, String), Arc<T>>>;

/// Named instruments, rendered together as one Prometheus snapshot.
///
/// Lookup is get-or-create and returns an [`Arc`] handle; hot paths
/// resolve their handles once at startup and never touch the registry
/// lock again.
///
/// ```
/// use shenjing_telemetry::{series, Registry};
///
/// let registry = Registry::new();
/// let served = registry.counter(&series("served_total", &[("model", "digits")]));
/// served.add(3);
/// assert!(registry.render().contains("served_total{model=\"digits\"} 3"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    counters: Instruments<Counter>,
    gauges: Instruments<Gauge>,
    histograms: Instruments<TimeHistogram>,
}

/// The instrument registered under `name` (`family` or
/// `family{labels}`), created on first use.
fn instrument<T: Default>(map: &Instruments<T>, name: &str) -> Arc<T> {
    let (family, labels) = name.split_at(name.find('{').unwrap_or(name.len()));
    let mut map = map.lock().expect("telemetry registry poisoned");
    Arc::clone(map.entry((family.to_string(), labels.to_string())).or_default())
}

/// Renders one kind's instruments, a `# TYPE` header before each family.
fn render_kind<T>(
    map: &Instruments<T>,
    kind: &str,
    out: &mut String,
    line: impl Fn(&T, &str, &str, &mut String),
) {
    let mut current = None;
    for ((family, labels), instrument) in map.lock().expect("telemetry registry poisoned").iter() {
        if current != Some(family) {
            current = Some(family);
            let _ = writeln!(out, "# TYPE {family} {kind}");
        }
        line(instrument, family, labels, out);
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use. The
    /// name may carry a `{label="value"}` suffix (see [`series`]); the
    /// part before `{` is the metric family.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name)
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name)
    }

    /// The histogram registered under `name`, created on first use; the
    /// `le` bucket label joins the name's own labels at render time.
    pub fn histogram(&self, name: &str) -> Arc<TimeHistogram> {
        instrument(&self.histograms, name)
    }

    /// Renders every instrument in the Prometheus text exposition
    /// format, families sorted, one `# TYPE` header per family.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_kind(&self.counters, "counter", &mut out, |c, family, labels, out| {
            let _ = writeln!(out, "{family}{labels} {}", c.get());
        });
        render_kind(&self.gauges, "gauge", &mut out, |g, family, labels, out| {
            let _ = writeln!(out, "{family}{labels} {}", g.get());
        });
        render_kind(&self.histograms, "histogram", &mut out, TimeHistogram::render_into);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_by_family() {
        let registry = Registry::new();
        registry.counter("requests_total{model=\"a\"}").inc();
        registry.counter("requests_total{model=\"b\"}").add(2);
        // A family whose name extends another's must not split it.
        registry.counter("requests_total_seen").inc();
        registry.gauge("queue_depth").set(5);
        registry.gauge("queue_depth").sub(2);
        let text = registry.render();
        assert_eq!(text.matches("# TYPE requests_total counter").count(), 1);
        assert!(text.contains("requests_total{model=\"a\"} 1\nrequests_total{model=\"b\"} 2\n"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 3"));
    }

    #[test]
    fn series_escapes_label_values() {
        assert_eq!(series("up", &[]), "up");
        assert_eq!(series("x", &[("a", "1"), ("b", "2")]), "x{a=\"1\",b=\"2\"}");
        assert_eq!(series("x", &[("model", "a\"b\\c\nd")]), "x{model=\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn buckets_tile_the_range_and_stay_within_an_eighth() {
        let mut previous = 0;
        for idx in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = (previous, upper_ns(idx));
            assert!(hi > lo, "bucket {idx} is empty");
            assert_eq!(bucket_of(lo + 1), idx, "lowest member of bucket {idx}");
            assert_eq!(bucket_of(hi), idx, "highest member of bucket {idx}");
            assert!((hi - lo - 1) * SUB_BUCKETS <= lo.max(1), "bucket {idx} wider than 12.5%");
            previous = hi;
        }
        assert_eq!(previous, 1 << 47);
        assert_eq!((bucket_of(0), bucket_of(u64::MAX)), (0, HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn quantiles_are_nearest_rank_to_the_bucket() {
        let hist = TimeHistogram::default();
        assert_eq!(hist.quantile(0.5), Duration::ZERO);
        // 1..=100 µs: the exact nearest-rank p50 / p95 / p99 are 50, 95
        // and 99 µs; each reads back as its bucket's upper bound.
        for us in 1..=100 {
            hist.record(Duration::from_micros(us));
        }
        for (q, exact_us) in [(0.5, 50u64), (0.95, 95), (0.99, 99)] {
            let (got, exact) = (hist.quantile(q).as_nanos() as u64, exact_us * 1000);
            assert!(got >= exact && got - exact <= exact / 8, "q {q}: {got} vs {exact}");
        }
        assert_eq!(hist.quantile(1.0), Duration::from_micros(100), "clamped to the max");
        assert_eq!(hist.max_ns(), 100_000);
        let one = TimeHistogram::default();
        one.record(Duration::from_nanos(7));
        assert_eq!(one.quantile(0.99), Duration::from_nanos(7));
    }

    #[test]
    fn labelled_histograms_render_once_per_family_and_merge() {
        let registry = Registry::new();
        let a = registry.histogram("pass_seconds{model=\"a\"}");
        let b = registry.histogram("pass_seconds{model=\"b\"}");
        a.record(Duration::from_nanos(1)); // bucket le=1ns
        a.record(Duration::from_nanos(3)); // bucket le=3ns
        b.record(Duration::from_micros(10));
        assert_eq!((a.count(), a.sum_ns()), (2, 4));
        let text = registry.render();
        assert_eq!(text.matches("# TYPE pass_seconds histogram").count(), 1);
        assert!(text.contains("pass_seconds_bucket{model=\"a\",le=\"0.000000001\"} 1"));
        assert!(text.contains("pass_seconds_bucket{model=\"a\",le=\"+Inf\"} 2"));
        assert!(text.contains("pass_seconds_count{model=\"b\"} 1"));
        registry.histogram("plain_seconds").record(Duration::from_nanos(2));
        assert!(registry.render().contains("plain_seconds_bucket{le=\"0.000000002\"} 1"));

        let both = TimeHistogram::default();
        both.merge_from(&a);
        both.merge_from(&b);
        assert_eq!((both.count(), both.sum_ns(), both.max_ns()), (3, 10_004, 10_000));
        assert_eq!(both.quantile(0.5), Duration::from_nanos(3));
    }

    #[test]
    fn registry_handles_are_shared() {
        let registry = Registry::new();
        let a = registry.counter("x_total");
        let b = registry.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }
}
