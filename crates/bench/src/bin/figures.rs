//! Regenerates the tables and figures of the Smart-Infinity evaluation that
//! are not sweeps, and runs spec-driven campaigns. The sweep figures (3a,
//! 3b, 9, 10, 11, 12, 13, 16, 17) are `lab` experiments instead: `lab run
//! --experiment specs/experiments/fig9 --out DIR`.
//!
//! ```text
//! cargo run -p bench --release --bin figures -- all
//! cargo run -p bench --release --bin figures -- tab1 fig14 tab4
//! cargo run -p bench --release --bin figures -- --json results/ all
//! cargo run -p bench --release --bin figures -- campaign specs/ladder.json
//! cargo run -p bench --release --bin figures -- --check campaign specs/*.json
//! cargo run -p bench --release --bin figures -- sched specs/ladder.json
//! cargo run -p bench --release --bin figures -- serve specs/serve.json --clients 3
//! cargo run -p bench --release --bin figures -- --clients 2 --passes 2 --expect-dedup serve specs/ladder.json
//! cargo run -p bench --release --bin figures -- perf --check BENCH_2.json --tolerance 0.15
//! cargo run -p bench --release --bin figures -- perf --bless --check BENCH_2.json
//! ```
//!
//! Each experiment prints a text table; with `--json DIR` the raw data is also
//! written as one JSON file per experiment (used to fill in EXPERIMENTS.md).
//! `campaign` loads each given `*.json` spec file, runs every spec in it
//! concurrently on `parcore` workers and prints the per-spec breakdown;
//! `--check` only parses and validates the files. A campaign runs in one
//! go; to kill and resume a sweep, run it as a `lab` experiment of
//! campaign-ref tasks (`lab run --experiment specs/experiments/faults --out
//! DIR --halt-after 2`, then the same command without `--halt-after`), whose
//! journal keeps every finished trial.
//!
//! `sched` loads the same spec files and runs every spec's model / machine /
//! workload under *each* of the four method schedulers (`host-update`,
//! `serial-naive`, `serial-overlap`, `pipelined`), printing the per-phase
//! breakdown and the speedup over the host-update baseline — the ladder as a
//! scheduler comparison rather than a method sweep.
//!
//! `serve` drives the same spec files through the `campaignd` service
//! instead: `--clients N` simulated clients each submit the full list
//! `--passes P` times against one `CampaignService`, and the report shows
//! per-pass cache-hit rates, the executions-vs-unique-specs dedup proof,
//! per-client fairness and queue-wait/run-time latency distributions.
//! `--expect-dedup` turns the run into a gate (the CI smoke): exactly one
//! execution per unique spec, 100% cache hits on every pass after the first,
//! and no starved client.
//!
//! For the `perf` experiment, `--check <baseline.json>` (the argument must end
//! in `.json`) turns the run into a regression gate: the fresh snapshot is
//! compared against the checked-in baseline and the process exits non-zero if
//! any tracked throughput regressed beyond `--tolerance` (default ±15%).
//! `--bless` instead overwrites the baseline file with the fresh snapshot —
//! the re-blessing path after an intentional perf change.

use bench::harness;
use serde::Serialize;
use smart_infinity::Campaign;
use std::path::{Path, PathBuf};

const ALL: &[&str] = &["tab1", "tab3", "fig14", "fig15", "tab4", "pipeline", "perf"];

/// The one authoritative usage table: every subcommand, every experiment id,
/// every flag. Printed to stdout on `--help` and to stderr (before a non-zero
/// exit) on any argument error.
fn usage() -> String {
    format!(
        "usage: figures [--json DIR] [--quick] <all | experiment id ...>\n\
         \x20      figures [--json DIR] [--check] campaign <spec.json> [spec.json ...]\n\
         \x20      figures [--json DIR] sched <spec.json> [spec.json ...]\n\
         \x20      figures [--json DIR] [--clients N] [--passes N] [--queue-depth N] \
         [--admission-batch N] [--expect-dedup] serve <spec.json> [spec.json ...]\n\
         \x20      figures [--quick] perf [--check <baseline.json>] [--tolerance 0.15] [--bless]\n\
         \n\
         subcommands:\n\
         \x20 campaign    run every spec of each campaign file concurrently\n\
         \x20             (--check validates only)\n\
         \x20 sched       run each spec under all four method schedulers and compare\n\
         \x20 serve       drive spec files through the campaignd service and report\n\
         \x20             dedup, cache-hit rate, queue depth and latency distributions\n\
         \x20 perf        microbenchmark snapshot; with --check it is a regression gate\n\
         \x20 all         every experiment id below\n\
         \n\
         experiment ids:\n\
         \x20 {}\n\
         \n\
         flags:\n\
         \x20 --json DIR            also write each experiment's raw data as JSON\n\
         \x20 --quick               smaller sweeps for smoke runs\n\
         \x20 --check               campaign: parse + validate spec files only\n\
         \x20 --check FILE.json     perf: compare against the checked-in baseline\n\
         \x20 --tolerance F         perf gate tolerance (default 0.15)\n\
         \x20 --bless               perf: overwrite the baseline with a fresh snapshot\n\
         \x20 --clients N           serve: number of simulated clients\n\
         \x20 --passes N            serve: submissions of the full spec list per client\n\
         \x20 --queue-depth N       serve: service queue depth\n\
         \x20 --admission-batch N   serve: admissions per drain step\n\
         \x20 --expect-dedup        serve: turn the run into a dedup/cache gate\n\
         \x20 --help, -h            print this table",
        ALL.join(" ")
    )
}

/// Prints `message` and the usage table to stderr, then exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("figures: {message}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut campaign_paths: Vec<String> = Vec::new();
    let mut campaign_mode = false;
    let mut serve_paths: Vec<String> = Vec::new();
    let mut serve_mode = false;
    let mut sched_paths: Vec<String> = Vec::new();
    let mut sched_mode = false;
    let mut serve = harness::ServeOpts::default();
    let mut expect_dedup = false;
    let mut quick = false;
    let mut check = false;
    let mut gate = PerfGateOpts::default();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--json" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--json requires a directory argument"));
                json_dir = Some(PathBuf::from(dir));
            }
            "--quick" => quick = true,
            // `--check <baseline.json>` is the perf regression gate;
            // a bare `--check` (next token is `campaign` or an experiment id)
            // keeps its validate-only meaning for campaign spec files.
            "--check" => match iter.peek() {
                Some(next) if next.ends_with(".json") && !campaign_mode => {
                    gate.baseline = Some(PathBuf::from(iter.next().expect("peeked")));
                }
                _ => check = true,
            },
            "--tolerance" => {
                let value = iter.next().and_then(|t| t.parse::<f64>().ok()).unwrap_or_else(|| {
                    usage_error("--tolerance requires a fractional argument, e.g. 0.15")
                });
                gate.tolerance = value;
            }
            "--bless" => gate.bless = true,
            "campaign" => {
                campaign_mode = true;
                serve_mode = false;
                sched_mode = false;
            }
            "serve" => {
                serve_mode = true;
                campaign_mode = false;
                sched_mode = false;
            }
            "sched" => {
                sched_mode = true;
                campaign_mode = false;
                serve_mode = false;
            }
            "--clients" => serve.clients = required_usize(&mut iter, "--clients"),
            "--passes" => serve.passes = required_usize(&mut iter, "--passes"),
            "--queue-depth" => serve.queue_depth = required_usize(&mut iter, "--queue-depth"),
            "--admission-batch" => {
                serve.admission_batch = required_usize(&mut iter, "--admission-batch");
            }
            "--expect-dedup" => expect_dedup = true,
            "all" => selected.extend(ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                usage_error(&format!("unknown option `{other}`"));
            }
            other if campaign_mode => campaign_paths.push(other.to_string()),
            other if serve_mode => serve_paths.push(other.to_string()),
            other if sched_mode => sched_paths.push(other.to_string()),
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty()
        && campaign_paths.is_empty()
        && serve_paths.is_empty()
        && sched_paths.is_empty()
    {
        usage_error("no experiment, campaign, sched or serve argument given");
    }
    // Reject unknown experiment ids up front, before any experiment runs:
    // a typo in the middle of `figures fig14 fg15 tab4` must not burn time on
    // fig14 first and then die halfway through.
    if let Some(bad) = selected.iter().find(|id| !ALL.contains(&id.as_str())) {
        usage_error(&format!("unknown experiment id `{bad}`"));
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json output directory");
    }
    for id in selected {
        run_one(&id, quick, json_dir.as_deref(), &gate);
    }
    for path in campaign_paths {
        run_campaign(Path::new(&path), check, json_dir.as_deref());
    }
    for path in serve_paths {
        run_serve(Path::new(&path), &serve, expect_dedup, json_dir.as_deref());
    }
    for path in sched_paths {
        run_sched(Path::new(&path), json_dir.as_deref());
    }
}

/// One spec's scheduler comparison, as written by `--json`.
#[derive(Serialize)]
struct SchedOutput {
    /// The spec's display label.
    spec: String,
    /// One row per method scheduler.
    rows: Vec<smart_infinity::sched::SchedulerRun>,
}

/// Runs every spec of the given file (a campaign file or a single run spec)
/// under each of the four method schedulers and prints the per-phase
/// comparison with speedups over the `host-update` baseline.
fn run_sched(path: &Path, json: Option<&Path>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    // Accept both a campaign file and a bare run spec.
    let specs = match Campaign::from_json(&text) {
        Ok(campaign) => campaign.specs,
        Err(_) => vec![smart_infinity::RunSpec::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        })],
    };
    let mut outputs = Vec::with_capacity(specs.len());
    for spec in &specs {
        let rows = smart_infinity::sched::compare_schedulers(spec).unwrap_or_else(|e| {
            eprintln!("{} [{}]: {e}", path.display(), spec.label());
            std::process::exit(1);
        });
        let baseline_total = rows
            .iter()
            .find(|r| r.scheduler == "host-update")
            .map(|r| r.report.total_s())
            .unwrap_or(f64::NAN);
        println!("{} — scheduler comparison", spec.label());
        println!(
            "{:<16} {:<13} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "scheduler", "method", "fw (s)", "bw (s)", "up (s)", "total", "speedup"
        );
        for row in &rows {
            println!(
                "{:<16} {:<13} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8.2}x",
                row.scheduler,
                row.method,
                row.report.forward_s,
                row.report.backward_s,
                row.report.update_s,
                row.report.total_s(),
                baseline_total / row.report.total_s()
            );
        }
        println!();
        outputs.push(SchedOutput { spec: spec.label(), rows });
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("sched");
    write_json(json, &format!("sched_{stem}"), &outputs);
}

/// Consumes the next token as a positive integer or exits with usage help.
fn required_usize(iter: &mut std::iter::Peekable<std::vec::IntoIter<String>>, flag: &str) -> usize {
    iter.next()
        .and_then(|t| t.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| usage_error(&format!("{flag} requires a positive integer argument")))
}

/// Drives one spec file through the `campaignd` service with N simulated
/// clients ([`harness::serve_campaign`]) and renders hit rates, fairness and
/// latency. With `--expect-dedup` the run becomes a gate: exactly one
/// execution per unique spec, 100% cache hits on every pass after the first,
/// and no starved client — or the process exits non-zero.
fn run_serve(path: &Path, opts: &harness::ServeOpts, expect_dedup: bool, json: Option<&Path>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let campaign = Campaign::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    });
    let outcome = harness::serve_campaign(&campaign, opts, &parcore::ParExecutor::current())
        .unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        });
    println!("{}", harness::render_serve(&outcome));
    if expect_dedup {
        let mut failures: Vec<String> = Vec::new();
        if outcome.executions != outcome.unique_specs as u64 {
            failures.push(format!(
                "{} execution(s) for {} unique spec(s): dedup did not hold",
                outcome.executions, outcome.unique_specs
            ));
        }
        for pass in outcome.passes.iter().skip(1) {
            if pass.cache_hits != pass.submitted {
                failures.push(format!(
                    "pass {}: only {} of {} submissions were cache hits",
                    pass.pass, pass.cache_hits, pass.submitted
                ));
            }
        }
        let per_client = (outcome.specs_per_pass * outcome.passes.len()) as u64;
        for (client, stats) in outcome.report.clients.iter().enumerate() {
            if stats.completed != per_client {
                failures.push(format!(
                    "client {client} completed {} of {per_client} job(s): starved",
                    stats.completed
                ));
            }
        }
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("serve gate: {failure}");
            }
            std::process::exit(1);
        }
        println!(
            "serve gate OK: {} unique spec(s) executed once each, every later pass 100% \
             cached, all {} client(s) completed {per_client} job(s)",
            outcome.unique_specs, outcome.clients
        );
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("serve");
    write_json(json, &format!("serve_{stem}"), &outcome);
}

/// Options for the `perf` regression gate (`--check/--tolerance/--bless`).
struct PerfGateOpts {
    /// Baseline snapshot to gate against (`--check <baseline.json>`).
    baseline: Option<PathBuf>,
    /// Allowed fractional regression before the gate fails (`--tolerance`).
    tolerance: f64,
    /// Overwrite the baseline with the fresh snapshot instead of gating.
    bless: bool,
}

impl Default for PerfGateOpts {
    fn default() -> Self {
        Self { baseline: None, tolerance: 0.15, bless: false }
    }
}

fn run_campaign(path: &Path, check: bool, json: Option<&Path>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    let campaign = Campaign::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    });
    if check {
        if let Err(e) = campaign.validate() {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        }
        println!("OK {} ({} specs)", path.display(), campaign.specs.len());
        return;
    }
    let report = campaign.run().unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    });
    println!("{}", harness::render_campaign(&report));
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("campaign");
    write_json(json, &format!("campaign_{stem}"), &report);
}

fn write_json<T: Serialize>(dir: Option<&std::path::Path>, id: &str, value: &T) {
    if let Some(dir) = dir {
        let path = dir.join(format!("{id}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialise result");
        std::fs::write(&path, json).expect("write json result");
    }
}

fn run_one(id: &str, quick: bool, json: Option<&std::path::Path>, gate: &PerfGateOpts) {
    match id {
        "tab1" => {
            let rows = harness::tab1();
            println!("Table I: system-interconnect traffic per iteration (in M units)");
            println!(
                "{:<16} {:>9} {:>9} {:>10} {:>10} {:>9}",
                "method", "opt read", "opt write", "grad read", "grad write", "param up"
            );
            for r in &rows {
                println!(
                    "{:<16} {:>8.2}M {:>8.2}M {:>9.2}M {:>9.2}M {:>8.2}M",
                    r.method,
                    r.opt_read_m,
                    r.opt_write_m,
                    r.grad_read_m,
                    r.grad_write_m,
                    r.param_up_m
                );
            }
            println!();
            write_json(json, id, &rows);
        }
        "tab3" => {
            let rows = harness::tab3();
            println!("Table III: FPGA resource utilisation (KU15P)");
            println!("{:<16} {:>8} {:>8} {:>8} {:>8}", "module", "LUT%", "BRAM%", "URAM%", "DSP%");
            for r in &rows {
                println!(
                    "{:<16} {:>7.2} {:>8.2} {:>8.2} {:>8.2}",
                    r.module, r.lut_pct, r.bram_pct, r.uram_pct, r.dsp_pct
                );
            }
            println!();
            write_json(json, id, &rows);
        }
        "fig14" => {
            let rows = harness::fig14();
            println!("Figure 14: kernel throughput vs SSD bandwidth (GB/s)");
            println!(
                "{:<12} {:>9} {:>14} {:>9} {:>9}",
                "model", "updater", "decomp+update", "SSD read", "SSD write"
            );
            for r in &rows {
                println!(
                    "{:<12} {:>9.2} {:>14.2} {:>9.2} {:>9.2}",
                    r.model,
                    r.updater_gbps,
                    r.decompress_update_gbps,
                    r.ssd_read_gbps,
                    r.ssd_write_gbps
                );
            }
            println!();
            write_json(json, id, &rows);
        }
        "fig15" => {
            let points = harness::fig15();
            println!("Figure 15: cost efficiency (GFLOPS/$), GPT-2 4.0B");
            println!("{:<8} {:<10} {:>6} {:>12}", "GPU", "method", "#SSDs", "GFLOPS/$");
            for p in &points {
                println!(
                    "{:<8} {:<10} {:>6} {:>12.4}",
                    p.gpu, p.method, p.num_devices, p.gflops_per_dollar
                );
            }
            println!();
            write_json(json, id, &points);
        }
        "tab4" => {
            let epochs = if quick { 1 } else { 3 };
            let rows = harness::tab4(epochs);
            println!("Table IV: fine-tuning accuracy (GLUE-like suite) and speedup (#SSDs=6)");
            println!(
                "{:<12} {:<16} {:>8} {:>10} {:>9} {:>10} {:>10}",
                "model", "method", "speedup", "MNLI-like", "QQP-like", "SST2-like", "QNLI-like"
            );
            for r in &rows {
                println!(
                    "{:<12} {:<16} {:>7.2}x {:>9.2} {:>9.2} {:>10.2} {:>10.2}",
                    r.model,
                    r.method,
                    r.speedup,
                    r.accuracies_pct[0],
                    r.accuracies_pct[1],
                    r.accuracies_pct[2],
                    r.accuracies_pct[3]
                );
            }
            println!();
            write_json(json, id, &rows);
        }
        "pipeline" => {
            let rows = harness::pipeline_overlap();
            println!("{}", harness::render_pipeline(&rows));
            write_json(json, id, &rows);
        }
        "perf" => {
            let mut snap = harness::perf_snapshot(quick);
            println!("{}", harness::render_perf(&snap));
            if gate.bless {
                // The baseline should record the machine's capability, not
                // whichever scheduler window one run happened to land in, so
                // blessing takes the best-rate envelope over three runs —
                // the same estimator the gate's noise-retry uses.
                for _ in 0..2 {
                    snap = harness::merge_best(&snap, &harness::perf_snapshot(quick));
                }
                let target = gate.baseline.clone().unwrap_or_else(|| PathBuf::from("BENCH_2.json"));
                let pretty = serde_json::to_string_pretty(&snap).expect("serialise snapshot");
                std::fs::write(&target, pretty).unwrap_or_else(|e| {
                    eprintln!("cannot write {}: {e}", target.display());
                    std::process::exit(2);
                });
                println!("blessed {} with the best-of-3 snapshot envelope", target.display());
            } else if let Some(baseline_path) = &gate.baseline {
                let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
                    eprintln!("cannot read {}: {e}", baseline_path.display());
                    std::process::exit(2);
                });
                let baseline = harness::PerfSnapshot::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("{}: {e}", baseline_path.display());
                    std::process::exit(2);
                });
                let mut cmp = harness::compare_perf(&baseline, &snap, gate.tolerance);
                // A real regression fails every attempt; a noisy co-tenant
                // window only subtracts throughput from one. Re-measure and
                // fold into the envelope before declaring failure.
                for attempt in 2..=3 {
                    if cmp.passed() {
                        break;
                    }
                    println!(
                        "gate failed; re-measuring to rule out scheduler noise \
                         (attempt {attempt}/3)"
                    );
                    snap = harness::merge_best(&snap, &harness::perf_snapshot(quick));
                    cmp = harness::compare_perf(&baseline, &snap, gate.tolerance);
                }
                print!("{}", harness::render_comparison(&cmp, gate.tolerance));
                if !cmp.passed() {
                    std::process::exit(1);
                }
            }
            // The perf snapshot (post-merge envelope, when gating or
            // blessing) is the tracked baseline trajectory: BENCH_2.json.
            write_json(json, "BENCH_2", &snap);
        }
        other => {
            eprintln!("unknown experiment id: {other}");
            std::process::exit(2);
        }
    }
}
