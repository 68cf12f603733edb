//! `sibench` — the repo's end-to-end benchmark.
//!
//! ```text
//! sibench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result as the last line
//! sibench [--seed <n>] [--seconds <s>]                               every workload, every metric
//! sibench --aa [--seed <n>] [--seconds <s>]                          the suite twice, compared with the bounds
//! sibench --smoke                                                    every metric and check on ~10 ops
//! ```

mod gen;
mod machine;
mod metrics;
mod run;
mod sentinel;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::Kind;

const USAGE: &str =
    "usage: sibench [--workload <train_base|train_smart|sim_scale|lab_cycle> --trace <0|1>] \
                     [--seed <n>] [--seconds <s>] [--aa] [--smoke]";

/// Seed and run length of a suite run when none is given; the run length is
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SEED: u64 = 20240302;
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("sibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.workload {
        Some(kind) => {
            let args = run::RunArgs {
                kind,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                smoke: cli.smoke,
            };
            run::run(&args).map(|output| {
                print!("{}", output.text);
                println!("{}", output.json());
                true
            })
        }
        None if cli.aa => suite::aa(cli.seed, cli.seconds),
        None => suite::all(cli.seed, cli.seconds, cli.smoke),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sibench: {e}");
            ExitCode::from(1)
        }
    }
}
