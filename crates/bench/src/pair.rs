//! Paired parent/change runs of the repository benchmark
//! (`bench_gate pair`).
//!
//! This host's speed drifts 10–30% for minutes at a time, so two builds
//! can only be compared by *interleaving* them: per workload the parent
//! and the change binary run back to back on the same seed, the order
//! flipped every pair, and a metric is judged on the medians of the two
//! sides plus the number of pairs the change won — the rule of
//! `choosing-metrics` §8. Names, directions and bounds come from
//! `BENCHMARK.json`, so the gate cannot disagree with the benchmark.

use std::path::Path;
use std::process::Command;

use serde::Deserialize;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Metric {
    /// Key in a run's result line.
    pub name: String,
    /// Unit, for the table.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the change's may be worse.
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

/// The part of `BENCHMARK.json` the gate reads.
#[derive(Debug, Deserialize)]
struct RawManifest {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
}

/// Workload names and end-to-end metrics of a `BENCHMARK.json` text.
///
/// # Errors
///
/// Returns the parser's message when `text` is not the manifest.
pub fn parse_manifest(text: &str) -> Result<(Vec<String>, Vec<Metric>), String> {
    let raw: RawManifest = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for metric in &raw.end_to_end {
        if metric.better != "lower" && metric.better != "higher" {
            return Err(format!("metric {}: better = {:?}", metric.name, metric.better));
        }
    }
    Ok((raw.workloads.into_iter().map(|w| w.name).collect(), raw.end_to_end))
}

/// Reads `"key": {"value": <number>` (or `"key": <number>`) out of a
/// result line the benchmark printed.
pub fn extract_number(line: &str, key: &str) -> Option<f64> {
    let after = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let after = after.strip_prefix("{\"value\": ").unwrap_or(after);
    let end = after.find([',', '}']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// `(q1, median, q3)` by the exclusive method (Python's
/// `statistics.quantiles(n=4)`, the benchmark's own rule); a single
/// value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One metric's paired comparison on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The metric.
    pub metric: Metric,
    /// `(q1, median, q3)` of the parent's runs.
    pub parent: (f64, f64, f64),
    /// `(q1, median, q3)` of the change's runs.
    pub change: (f64, f64, f64),
    /// Pairs in which the change read better; ties count for neither.
    pub wins: usize,
    /// Pairs in which the parent read better.
    pub losses: usize,
    /// How much worse the change's median is than the parent's, as a
    /// share of the parent's (negative = better).
    pub worse_by: f64,
}

impl Verdict {
    /// Whether the change's median is worse than the parent's by more
    /// than the metric's bound.
    pub fn regressed(&self) -> bool {
        self.worse_by > self.metric.bound
    }
}

/// Judges one metric from its paired readings (`parent[i]` and
/// `change[i]` ran back to back).
pub fn judge(metric: &Metric, parent: &[f64], change: &[f64]) -> Verdict {
    let higher = metric.better == "higher";
    let better = |c: f64, p: f64| if higher { c > p } else { c < p };
    let pairs = || parent.iter().zip(change);
    let (p, c) = (quartiles(parent), quartiles(change));
    let gap = if higher { p.1 - c.1 } else { c.1 - p.1 };
    Verdict {
        metric: metric.clone(),
        parent: p,
        change: c,
        wins: pairs().filter(|(&p, &c)| better(c, p)).count(),
        losses: pairs().filter(|(&p, &c)| better(p, c)).count(),
        worse_by: if gap == 0.0 { 0.0 } else { gap / p.1.abs() },
    }
}

/// One run's result line: `binary --workload … --seed … --seconds …
/// --trace 0`, the last line of its standard output.
///
/// # Errors
///
/// Returns a message when the binary cannot be started, exits non-zero
/// or prints nothing.
pub fn run_once(binary: &Path, workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let output = Command::new(binary)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!("{} {workload} seed {seed}: {}", binary.display(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed no result line")?;
    Ok(line.to_string())
}

/// The paired table of one workload, for people.
pub fn table(workload: &str, pairs: usize, verdicts: &[Verdict]) -> String {
    let mut out = format!(
        "pair {workload}: {pairs} pairs, parent -> change (q1 median q3)\n{:<28}{:>38}{:>38}{:>7}{:>9}  verdict\n",
        "metric", "parent", "change", "wins", "worse"
    );
    for v in verdicts {
        let side = |(q1, q2, q3): (f64, f64, f64)| format!("{q1:.4} {q2:.4} {q3:.4}");
        out.push_str(&format!(
            "{:<28}{:>38}{:>38}{:>4}/{:<2}{:>8.1}%  {}\n",
            v.metric.name,
            side(v.parent),
            side(v.change),
            v.wins,
            v.wins + v.losses,
            v.worse_by * 100.0,
            if v.regressed() { "WORSE THAN BOUND" } else { "ok" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> Metric {
        Metric { name: "m".into(), unit: "u".into(), better: better.into(), bound }
    }

    #[test]
    fn the_committed_manifest_parses() {
        let text = include_str!("../../../BENCHMARK.json");
        let (workloads, metrics) = parse_manifest(text).unwrap();
        assert_eq!(workloads, ["mlp-engine", "cnn-engine", "serve-closed", "serve-open"]);
        assert_eq!(metrics.len(), 10);
        let rss = metrics.iter().find(|m| m.name == "peak_rss_mb").unwrap();
        assert_eq!((rss.better.as_str(), rss.bound), ("lower", 0.05));
        assert!(parse_manifest("{}").is_err());
    }

    #[test]
    fn result_lines_give_up_their_numbers() {
        let line = r#"{"correct": true, "attempted": 56, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}, "accuracy": {"value": 1, "unit": "share"}}}"#;
        assert_eq!(extract_number(line, "setup_s"), Some(1.25));
        assert_eq!(extract_number(line, "accuracy"), Some(1.0));
        assert_eq!(extract_number(line, "attempted"), Some(56.0));
        assert_eq!(extract_number(line, "throughput_fps"), None);
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn verdicts_count_wins_and_apply_the_bound_in_the_metrics_direction() {
        let parent = [100.0, 110.0, 90.0, 100.0];
        let faster = judge(&metric("higher", 0.25), &parent, &[200.0, 220.0, 180.0, 100.0]);
        assert_eq!((faster.wins, faster.losses), (3, 0), "a tie counts for neither");
        assert!((faster.worse_by + 0.9).abs() < 1e-12 && !faster.regressed());

        let slower = judge(&metric("higher", 0.25), &parent, &[70.0, 70.0, 70.0, 70.0]);
        assert_eq!((slower.wins, slower.losses), (0, 4));
        assert!((slower.worse_by - 0.3).abs() < 1e-12 && slower.regressed());

        let latency = judge(&metric("lower", 0.05), &parent, &[104.0, 104.0, 104.0, 104.0]);
        assert!((latency.worse_by - 0.04).abs() < 1e-12 && !latency.regressed());
        let latency = judge(&metric("lower", 0.05), &parent, &[106.0, 106.0, 106.0, 106.0]);
        assert!(latency.regressed());

        let exact = judge(&metric("lower", 0.001), &[1.5, 1.5], &[1.5, 1.5]);
        assert_eq!((exact.wins, exact.losses, exact.worse_by), (0, 0, 0.0));
        assert!(table("w", 2, &[exact, latency]).contains("WORSE THAN BOUND"));
    }
}
