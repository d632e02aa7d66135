//! What leaves the process: the result line, `BENCHMARK.json` as the
//! metric tables define it, and the A/A table of `--repeat`.

use crate::fixture::{Drive, Workload, WORKLOADS};
use crate::metrics::{Metrics, Tally, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, quartiles, sorted};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    )
}

/// Reads `"key": <number>` or `"name": {"value": <number>` back out of
/// a result line this program printed.
pub fn extract_number(line: &str, key: &str) -> Option<f64> {
    let after = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let after = after.strip_prefix("{\"value\": ").unwrap_or(after);
    let end = after.find([',', '}']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// A workload's `why`: its reason, then its loop kind, client count or
/// rate, latency limit and timesteps (one line, ≤ 200 characters).
fn why(workload: &Workload) -> String {
    let load = match workload.drive {
        Drive::Engine => "closed, 1 client".to_string(),
        Drive::Closed { clients } => format!("closed, {clients} clients"),
        Drive::Open { rps, heavy_rps, heavy_timesteps } => {
            format!("open, {rps}+{heavy_rps} rps, CNN T={heavy_timesteps}")
        }
    };
    format!("{}. {load}; limit {} ms; T={}", workload.why, workload.slo_ms, workload.timesteps)
}

/// `BENCHMARK.json`, generated from the tables in `metrics.rs` and
/// `fixture.rs` so the file and the program cannot disagree (a test
/// compares them).
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, why(w)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// One row of the A/A table.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    pub name: &'static str,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(q3 − q1) / median`: what the driver compares with the bound.
    pub iqr_share: f64,
    /// `(max − min) / median`.
    pub range_share: f64,
    pub bound: f64,
    /// Whether the spread is within the bound.
    pub pass: bool,
}

/// Per end-to-end metric: median, quartiles and spread of `runs` (one
/// value per run, in table order), against the metric's bound.
pub fn spreads(runs: &[Vec<f64>]) -> Vec<Spread> {
    END_TO_END
        .iter()
        .enumerate()
        .map(|(k, &(name, _, _, bound))| {
            let values: Vec<f64> = runs.iter().map(|r| r[k]).collect();
            let (q1, median, q3) = quartiles(&values);
            let v = sorted(&values);
            let iqr_share = iqr_share(&values);
            let range = v[v.len() - 1] - v[0];
            Spread {
                name,
                median,
                q1,
                q3,
                iqr_share,
                range_share: if range == 0.0 { 0.0 } else { range / median.abs() },
                bound,
                pass: iqr_share <= bound,
            }
        })
        .collect()
}

/// The A/A table, for people.
pub fn spread_table(workload: &str, runs: usize, rows: &[Spread]) -> String {
    let mut out = format!(
        "A/A {workload}: {runs} runs\n{:<28}{:>14}{:>14}{:>14}{:>9}{:>9}{:>8}  verdict\n",
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28}{:>14.5}{:>14.5}{:>14.5}{:>9.4}{:>9.4}{:>8.3}  {}\n",
            r.name,
            r.median,
            r.q1,
            r.q3,
            r.iqr_share,
            r.range_share,
            r.bound,
            if r.pass { "PASS" } else { "FAIL" }
        ));
    }
    out
}

/// The A/A summary as one JSON line. The benchmark measures; it never
/// claims a gain.
pub fn spread_json(workload: &str, runs: usize, correct: bool, rows: &[Spread]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_share\": {}, \"range_share\": {}, \"bound\": {}, \"pass\": {}}}",
                r.name, r.median, r.q1, r.q3, r.iqr_share, r.range_share, r.bound, r.pass
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"runs\": {runs}, \"correct\": {correct}, \"metrics\": {{{}}}, \"claim\": null}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_extract() {
        let mut metrics = Metrics::end_to_end();
        metrics.put("setup_s", 1.625);
        metrics.put("throughput_fps", 431.0078125);
        let tally = Tally { attempted: 420, failed: 0 };
        let line = result_line(&tally, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 420, \"failed\": 0, \"metrics\": {"));
        assert_eq!(extract_number(&line, "setup_s"), Some(1.625));
        assert_eq!(extract_number(&line, "throughput_fps"), Some(431.0078125));
        assert_eq!(extract_number(&line, "attempted"), Some(420.0));
        assert_eq!(extract_number(&line, "model_cycles_per_timestep"), Some(0.0));
        assert_eq!(extract_number(&line, "no_such_metric"), None);
        assert!(result_line(&Tally { attempted: 3, failed: 1 }, &metrics)
            .contains("\"correct\": false"));
    }

    #[test]
    fn spreads_gate_on_the_interquartile_share() {
        let steady: Vec<Vec<f64>> =
            (0..10).map(|k| vec![1.0 + f64::from(k) * 0.0001; END_TO_END.len()]).collect();
        assert!(spreads(&steady).iter().all(|s| s.pass));
        let noisy: Vec<Vec<f64>> =
            (0..10).map(|k| vec![1.0 + f64::from(k) * 0.1; END_TO_END.len()]).collect();
        let rows = spreads(&noisy);
        assert!(rows.iter().all(|s| !s.pass), "every metric is gated, setup_s too");
        assert!(spread_json("w", 10, true, &rows).ends_with("\"claim\": null}"));
        assert!(spread_table("w", 10, &rows).contains("FAIL"));
    }

    #[test]
    fn manifest_stays_within_the_contract() {
        let manifest = manifest_json();
        assert!(manifest.len() < 64 * 1024);
        for w in &WORKLOADS {
            let why = why(w);
            assert!(why.len() <= 200, "{}: {} chars", w.name, why.len());
            assert!(!why.contains('\n') && !why.contains('"'));
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Not `assert_eq!`: a mismatch would print both 10 KB documents.
        assert!(on_disk == manifest_json(), "stale: regenerate it with `--print-manifest`");
    }
}
