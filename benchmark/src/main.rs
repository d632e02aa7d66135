//! The repository benchmark (see `/BENCHMARK.json` and `README.md`).
//!
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>` runs one
//! workload once, in this process, and prints the result as the last
//! line of standard output. `--repeat <n>` runs it `n` times, each in
//! its own process with its own seed, and prints the A/A table against
//! the bounds; `--smoke` runs every workload for two seconds.

mod fixture;
mod load;
mod metrics;
mod probes;
mod report;
mod run;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use fixture::{Workload, WORKLOADS};
use metrics::END_TO_END;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `benchmark/out/`, created on first use: traces and `results.jsonl`.
pub fn out_dir() -> BenchResult<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    print_manifest: bool,
}

const USAGE: &str = "usage: --workload <mlp-engine|cnn-engine|serve-closed|serve-open> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--repeat <n>] | --smoke | --print-manifest";

fn parse_args() -> BenchResult<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        repeat: 0,
        smoke: false,
        print_manifest: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let found = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(*found.ok_or(format!("unknown workload `{name}`\n{USAGE}"))?);
            }
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => {
                args.seconds = value()?.parse()?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]\n{USAGE}").into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
                }
            }
            "--repeat" => args.repeat = value()?.parse()?,
            "--smoke" => args.smoke = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}").into()),
        }
    }
    Ok(args)
}

/// Runs one workload in a child process and returns its result line.
/// The child is waited for, so nothing outlives this process.
fn child_run(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> BenchResult<String> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("{} (seed {seed}) exited with {}", workload.name, output.status).into());
    }
    let stdout = String::from_utf8(output.stdout)?;
    Ok(stdout.lines().last().ok_or("the run printed no result")?.to_string())
}

/// A/A: `repeat` runs of the same code on seeds `seed, seed + 1, …`, then
/// every end-to-end metric's spread against its bound.
fn repeat(workload: &Workload, args: &Args) -> BenchResult<bool> {
    if args.repeat < 2 {
        return Err("--repeat needs at least 2 runs".into());
    }
    let mut runs = Vec::new();
    let mut correct = true;
    for k in 0..args.repeat as u64 {
        let line = child_run(workload, args.seed + k, args.seconds, false)?;
        println!("{line}");
        correct &= line.contains("\"correct\": true");
        let values: Option<Vec<f64>> =
            END_TO_END.iter().map(|m| report::extract_number(&line, m.0)).collect();
        runs.push(values.ok_or("a run's result line lacks a metric")?);
    }
    let rows = report::spreads(&runs);
    print!("{}", report::spread_table(workload.name, runs.len(), &rows));
    println!("{}", report::spread_json(workload.name, runs.len(), correct, &rows));
    Ok(correct && rows.iter().all(|r| r.pass))
}

fn real_main() -> BenchResult<bool> {
    let args = parse_args()?;
    if args.print_manifest {
        print!("{}", report::manifest_json());
        return Ok(true);
    }
    if args.smoke {
        // Two seconds per workload, no bounds: does everything still run
        // and answer correctly?
        let mut correct = true;
        for workload in WORKLOADS.iter().filter(|w| args.workload.is_none_or(|only| only == **w)) {
            let line = child_run(workload, args.seed, 2.0, args.trace)?;
            println!("{}: {line}", workload.name);
            correct &= line.contains("\"correct\": true");
        }
        return Ok(correct);
    }
    let workload = args.workload.ok_or(USAGE)?;
    if args.repeat > 0 {
        return repeat(&workload, &args);
    }

    let outcome = run::run(workload, args.seed, args.seconds, args.trace)?;
    let line = report::result_line(&outcome.tally, &outcome.metrics);
    // One JSON line per run, kept next to the traces.
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {line}, \"claim\": null}}\n",
        workload.name, args.seed, args.seconds, args.trace
    );
    let mut results = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir()?.join("results.jsonl"))?;
    std::io::Write::write_all(&mut results, record.as_bytes())?;
    if args.trace {
        eprintln!("per-layer metrics ({}):", workload.name);
        for (name, unit, value) in outcome.metrics.rows() {
            match value {
                Some(value) => eprintln!("  {name:<36} {value:>16.6} {unit}"),
                None => eprintln!("  {name:<36} {:>16} (not on this workload's path)", "n/a"),
            }
        }
    }
    println!("{line}");
    // A wrong answer is reported in the line, not by the exit code: the
    // run itself worked.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
