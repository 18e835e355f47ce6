//! Bytes-to-verdict benchmark for the CLAP reproduction.
//!
//! One command trains a `ClapConfig::ci()` model, generates every workload
//! from the seed, drives the engine from raw frame bytes to `ClosedFlow`
//! verdicts through the public API, checks the outputs and prints every
//! metric by name with its unit. See `benchmark/README.md`.

mod alloc;
mod compare;
mod drive;
mod measure;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use measure::{Budget, RunResult, Session};
use report::Record;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 22;
const DEFAULT_SEED: u64 = 0xc1a9;
/// Set-ups per end-to-end run, so `setup_s` is a median.
const SETUPS: usize = 3;
/// `--smoke` divides every workload size by this.
const SMOKE_SHRINK: usize = 20;

/// Variables that would silently change which engine is measured.
const FORBIDDEN_ENV: [&str; 4] = [
    "NEURAL_QUANT",
    "NEURAL_KERNELS",
    "NEURAL_FORCE_SCALAR",
    "CLAP_MICROBATCH",
];

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--smoke]
              [--out FILE] [--trace-out FILE]
       run.sh --workload NAME --trace 0|1 [--seed N] [--seconds N]
       run.sh compare A.jsonl B.jsonl

Without --trace: every workload (or the one named), end to end and per layer,
all checks on. The records are appended, one line per workload, to --out
(run.sh defaults it to benchmark/history.jsonl); runs that append to the same
file form a set, and `compare` judges one set against another. --smoke runs
1/20-size workloads with 1+2+1 passes and records nothing.
With --trace: one workload, one kind of run (0 = end to end, 1 = per layer),
result as one JSON line — the form the benchmark driver calls.";

struct Args {
    workload: Option<&'static workloads::Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: None,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workloads::spec(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload `{value}` (have: {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => args.out = Some(value.clone()),
            "--trace-out" => args.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.trace.is_some() && (args.workload.is_none() || args.smoke) {
        return Err("--trace takes --workload and excludes --smoke".to_string());
    }
    Ok(args)
}

/// `git rev-parse` of the working directory, `+dirty` when the tree has
/// uncommitted changes, `unknown` outside a repository.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(head) if !head.is_empty() => match git(&["status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}+dirty"),
        },
        _ => "unknown".to_string(),
    }
}

fn record(session: &Session, workload: &str, commit: &str, comparable: bool) -> Record {
    Record {
        commit: commit.to_string(),
        kernels: neural::KernelSet::active().name.to_string(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: session.seed,
        comparable,
        workload: workload.to_string(),
        frames_per_pass: 0,
        throughput_passes: 0,
        latency_passes: 0,
        digest: String::new(),
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    }
}

/// Folds one run into the workload's record; returns whether it was correct.
fn absorb(rec: &mut Record, run: RunResult, per_layer: bool) -> bool {
    let mut errors = run.errors;
    if !rec.digest.is_empty() && rec.digest != run.digest {
        errors.push(format!(
            "traced run's verdict digest {} differs from the untraced run's {}",
            run.digest, rec.digest
        ));
    }
    for e in &errors {
        eprintln!("CHECK FAILED [{}]: {e}", rec.workload);
    }
    rec.digest = run.digest;
    rec.frames_per_pass = run.frames_per_pass;
    rec.attempted += run.attempted;
    rec.failed += run.failed;
    if per_layer {
        rec.per_layer = run.metrics;
    } else {
        rec.throughput_passes = run.throughput_passes;
        rec.latency_passes = run.latency_passes;
        rec.end_to_end = run.metrics;
    }
    errors.is_empty()
}

fn run(args: &Args) -> ExitCode {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("refusing to run with {var} set: the benchmark pins precision, kernels and batching itself");
        return ExitCode::from(2);
    }
    let commit = git_commit();

    // The driver's form: one workload, one kind of run, one JSON line.
    if let Some(traced) = args.trace {
        let spec = args.workload.expect("checked by parse_args");
        let session = Session::new(args.seed, 1, if traced { 1 } else { SETUPS });
        let budget = Budget::Seconds(args.seconds);
        let mut rec = record(&session, spec.name, &commit, true);
        let result = if traced {
            measure::per_layer(&session, spec, budget, args.trace_out.as_deref())
        } else {
            measure::end_to_end(&session, spec, budget)
        };
        let correct = absorb(&mut rec, result, traced);
        report::print_record(&rec, spec.why);
        let metrics: Vec<_> = if traced {
            rec.per_layer.clone()
        } else {
            let in_contract = |name: &str| {
                report::END_TO_END
                    .iter()
                    .any(|d| d.name == name && d.in_driver_contract)
            };
            rec.end_to_end
                .iter()
                .filter(|m| in_contract(&m.name))
                .cloned()
                .collect()
        };
        println!(
            "{}",
            report::driver_line(correct, rec.attempted, rec.failed, &metrics)
        );
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // The one command: every workload, both kinds of run, all checks.
    let (shrink, setups, budget) = if args.smoke {
        (SMOKE_SHRINK, 1, Budget::Smoke)
    } else {
        (1, SETUPS, Budget::Seconds(args.seconds))
    };
    let session = Session::new(args.seed, shrink, setups);
    let mut records = Vec::new();
    let mut correct = true;
    for spec in &workloads::SPECS {
        if args.workload.is_some_and(|w| w.name != spec.name) {
            continue;
        }
        let mut rec = record(&session, spec.name, &commit, !args.smoke);
        correct &= absorb(&mut rec, measure::end_to_end(&session, spec, budget), false);
        let traced = measure::per_layer(&session, spec, budget, args.trace_out.as_deref());
        correct &= absorb(&mut rec, traced, true);
        report::print_record(&rec, spec.why);
        records.push(rec);
    }

    if !correct {
        eprintln!("FAILED: at least one output check did not hold (see above); nothing recorded");
        return ExitCode::FAILURE;
    }
    println!("all output checks passed");
    match &args.out {
        Some(path) if !args.smoke => {
            if let Err(e) = report::append_records(path, &records) {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
            println!("appended {} record(s) to {path}", records.len());
        }
        _ => {}
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(n) => {
                    eprintln!("{n} row(s) regressed");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
