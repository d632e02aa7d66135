//! The performance and observability gates CI runs.
//!
//! ```text
//! bench_gate trace-check <trace.json>                    # validate a telemetry trace
//! bench_gate pair <parent-binary> <change-binary> [--pairs N] [--seconds S]
//!                 [--seed K] [--workload NAME] [--manifest BENCHMARK.json]
//! ```
//!
//! `trace-check` parses a Chrome-trace JSON file exported by the
//! runtime's telemetry layer (`Runtime::trace_json`, or the serving
//! example's `SHENJING_TRACE_OUT` dump), runs the structural validator
//! (monotone non-overlapping lifecycle slices, phase slices confined to
//! their execute window), and fails if the trace is malformed or
//! records no requests — CI's proof that the observability path stays
//! Perfetto-loadable.
//!
//! `pair` compares two builds of the repository benchmark
//! (`benchmark/target/release/shenjing-benchmark` of a parent checkout
//! and of the change) the only way this host allows: per workload of
//! `BENCHMARK.json` it alternates the two binaries on the same seed, the
//! order flipped every pair and the seed advanced, then prints both
//! sides' medians and quartiles and the change's win count for every
//! end-to-end metric, and exits non-zero when a run answered wrongly or
//! the change's median is worse than the parent's by more than the
//! metric's bound. CI runs it A-vs-A (`--pairs 1 --seconds 2`) to prove
//! it runs; a perf PR runs it with the defaults (10 pairs, the
//! manifest's run length) and commits the table.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use shenjing::telemetry::{validate, ChromeTrace};
use shenjing_bench::pair;

fn trace_check(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let trace: ChromeTrace = match serde_json::from_str(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("bench_gate: {} is not Chrome-trace JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match validate(&trace) {
        Ok(summary) if summary.requests > 0 => {
            println!(
                "bench_gate: trace OK — {} events, {} request spans, {} phase slices",
                summary.events, summary.requests, summary.phase_slices,
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "bench_gate: FAIL {} validates but records no request spans — \
                 was the workload traced with sampling enabled?",
                path.display()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_gate: FAIL {} is structurally invalid: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// `bench_gate pair`: see the module docs.
fn pair_gate(args: &[String]) -> Result<bool, String> {
    let [parent, change, options @ ..] = args else {
        return Err("pair needs <parent-binary> <change-binary>".into());
    };
    let (mut pairs, mut seconds, mut seed, mut only) = (10usize, 15.0f64, 1000u64, None);
    let mut manifest = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
    let mut options = options.iter();
    while let Some(flag) = options.next() {
        let value = options.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--pairs" => pairs = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--workload" => only = Some(value.clone()),
            "--manifest" => manifest = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if pairs == 0 {
        return Err("--pairs must be positive".into());
    }
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let (workloads, metrics) = pair::parse_manifest(&text)?;
    let workloads: Vec<&String> =
        workloads.iter().filter(|w| only.as_ref().is_none_or(|o| o == *w)).collect();
    if workloads.is_empty() {
        return Err(format!("no workload named {only:?} in {}", manifest.display()));
    }

    let binaries = [Path::new(parent), Path::new(change)];
    let mut ok = true;
    for (k, workload) in workloads.into_iter().enumerate() {
        // readings[side][metric][pair]
        let mut readings = [vec![Vec::new(); metrics.len()], vec![Vec::new(); metrics.len()]];
        for pair in 0..pairs {
            let seed = seed + 1000 * k as u64 + pair as u64;
            // Flip the order every pair, so neither side always runs on
            // the warmer (or the drifting) half.
            for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
                let line = pair::run_once(binaries[side], workload, seed, seconds)?;
                println!("{} {workload} seed {seed}: {line}", ["parent", "change"][side]);
                if !line.contains("\"correct\": true") {
                    eprintln!("bench_gate: FAIL a {workload} run answered wrongly");
                    ok = false;
                }
                for (metric, values) in metrics.iter().zip(&mut readings[side]) {
                    let value = pair::extract_number(&line, &metric.name);
                    values.push(value.ok_or(format!("no {} in the result line", metric.name))?);
                }
            }
        }
        let verdicts: Vec<pair::Verdict> = metrics
            .iter()
            .zip(readings[0].iter().zip(&readings[1]))
            .map(|(metric, (parent, change))| pair::judge(metric, parent, change))
            .collect();
        print!("{}", pair::table(workload, pairs, &verdicts));
        ok &= !verdicts.iter().any(pair::Verdict::regressed);
    }
    Ok(ok)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate trace-check <trace.json>\n       \
         bench_gate pair <parent-binary> <change-binary> [--pairs N] [--seconds S] \
         [--seed K] [--workload NAME] [--manifest BENCHMARK.json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace-check") => match (args.get(1), args.len()) {
            (Some(path), 2) => trace_check(&PathBuf::from(path)),
            _ => usage(),
        },
        Some("pair") => match pair_gate(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("bench_gate: FAIL a metric is worse than its bound (or a run was wrong)");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                usage()
            }
        },
        _ => usage(),
    }
}
