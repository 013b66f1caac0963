//! provbench — the repository's end-to-end benchmark.
//!
//! ```text
//! provbench --workload <ingest|lookup|paper-replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of whole rounds, checks every
//! output against oracles computed from the generated inputs, writes a
//! `BENCH_*.json` record under `.bench_results/`, prints a readable
//! table on standard error and, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced). See
//! `README.md` beside this package for the workloads and metrics.

mod corpus;
mod ingest;
mod layers;
mod lookup;
mod net;
mod oracle;
mod replay;
mod report;
mod stats;

use std::process::ExitCode;

/// The command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of whole rounds to measure.
    pub seconds: u64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Rounds every run makes at the least, whatever `--seconds`: the
/// warm-up round 0, one measured round and, traced, one traced round
/// (the even rounds after 0 carry the tracing legs, the odd ones stay
/// plain so tracing's overhead can be measured).
pub fn min_rounds(args: &Args) -> usize {
    if args.trace {
        3
    } else {
        2
    }
}

/// Whether `round` carries the tracing legs.
pub fn traced_round(args: &Args, round: usize) -> bool {
    args.trace && round > 0 && round.is_multiple_of(2)
}

const USAGE: &str =
    "usage: provbench --workload <ingest|lookup|paper-replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 || args.seconds > 120 {
        return Err("--seconds must be 1 to 120".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("provbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args) -> report::Outcome = match args.workload.as_str() {
        "ingest" => ingest::run,
        "lookup" => lookup::run,
        "paper-replay" => replay::run,
        other => {
            eprintln!("provbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(net::OUT_DIR) {
        eprintln!("provbench: cannot create {}: {e}", net::OUT_DIR);
        return ExitCode::FAILURE;
    }
    if let Err(e) = oracle::self_test() {
        eprintln!("provbench: oracle {e}");
        return ExitCode::FAILURE;
    }
    net::quiet_known_panic();

    let mut outcome = run(&args);
    outcome.set("peak_rss_mib", report::peak_rss_mib());
    let record = report::record_json(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &outcome,
    );
    let trace = u8::from(args.trace);
    let path = std::path::Path::new(net::OUT_DIR).join(format!(
        "BENCH_{}_seed{}_trace{trace}.json",
        args.workload, args.seed
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("provbench: cannot write {}: {e}", path.display());
    }
    eprint!("{}", report::render(&args.workload, &outcome, args.trace));
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("provbench: {} mismatches", outcome.mismatches.len());
        ExitCode::FAILURE
    }
}
