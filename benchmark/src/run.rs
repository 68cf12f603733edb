//! One run of one workload: the closed loop, the noise sentinel, the
//! end-to-end metrics and — in the traced run — the layer ledger.
//!
//! A run is one process and one caller. It measures [`ROUNDS`] rounds. A
//! round is a fresh set-up (seeded inputs, new objects, the fixed warm-up)
//! followed by a fixed number of back-to-back ops, with a reading of the
//! sentinel before the first op and after every op. Every end-to-end metric
//! is computed per round, from the times as measured of the ops the sentinel
//! found quiet, and the median over the rounds is reported.

use crate::machine;
use crate::metrics::{Ledger, MetricDef, END_TO_END, PER_LAYER};
use crate::sentinel;
use crate::stats::{mean, median, percentile, quartile_spread, sorted};
use crate::trace::Tracer;
use crate::workloads::{self, Env, Kind, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Measured rounds of an untraced run.
pub const ROUNDS: usize = 5;
/// Rounds of the traced run; every second op of them is traced.
const TRACED_ROUNDS: usize = 2;
/// The run's quiet level is this quantile of all its sentinel readings: the
/// lowest readings but for the luckiest few.
const QUIET_LEVEL_QUANTILE: f64 = 0.10;
/// An op is disturbed when a reading next to it exceeds the quiet level by
/// more than 15 %.
const DISTURBED: f64 = 1.15;
/// A round with a smaller share of quiet ops than this is discarded.
const MIN_QUIET_SHARE: f64 = 0.15;
/// What a set-up takes on the reference machine, in seconds, for the limit below.
const NOMINAL_SETUP_S: f64 = 1.3;
/// The `k`-th round is cut short when the run has taken this many times what
/// `k` rounds take on the reference machine. The op counts are sized for a
/// middling hour there, so no round is cut unless the run as a whole is a
/// quarter slower, and the op counts repeat exactly; on a slower machine the
/// run still ends in time for the contract's cap on all runs together.
const TIME_ALLOWANCE: f64 = 1.25;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One round of ten ops after a warm-up of two: checks everything,
    /// measures nothing.
    pub smoke: bool,
}

#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// The human-readable account of the run.
    pub text: String,
}

impl RunOutput {
    /// The result line of the benchmark contract.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    ms: f64,
    traced: bool,
}

#[derive(Debug)]
struct Round {
    setup_s: f64,
    ops: Vec<Op>,
    /// The sentinel's readings in seconds, one more than ops: op `i` ran
    /// between reading `i` and reading `i + 1`.
    readings: Vec<f64>,
    failed: u64,
    first_error: Option<String>,
    /// What the workload's state hashed to after the last op, if it keeps
    /// state and the round was not cut.
    fingerprint: Option<u64>,
}

/// The latencies a round's metrics are computed from.
struct Latencies(Vec<f64>);

impl Latencies {
    fn p50(&self) -> f64 {
        percentile(&sorted(&self.0), 0.5)
    }

    fn p90(&self) -> f64 {
        percentile(&sorted(&self.0), 0.9)
    }

    fn work_per_s(&self, units: f64) -> f64 {
        units / (mean(&self.0) / 1e3)
    }
}

/// The quiet ops of each round, `None` for a round that has too few and is
/// discarded. Reads the sentinel's readings and nothing else: op `i` of round
/// `r` ran between `readings[r][i]` and `readings[r][i + 1]`.
///
/// A disturbance on the shared host lasts from a fraction of a second to a few
/// seconds, so a round of four seconds is rarely quiet or disturbed as a
/// whole: the rule is applied op by op, and a round goes only when hardly any
/// of its ops were quiet.
fn quiet_ops(readings: &[Vec<f64>]) -> Vec<Option<Vec<usize>>> {
    // A run has a round, and a round a reading before its first op.
    let all: Vec<f64> = readings.iter().flatten().copied().collect();
    let limit = DISTURBED * percentile(&sorted(&all), QUIET_LEVEL_QUANTILE);
    readings
        .iter()
        .map(|round| {
            let ops = round.len().saturating_sub(1);
            let quiet: Vec<usize> =
                (0..ops).filter(|&i| round[i].max(round[i + 1]) <= limit).collect();
            (!quiet.is_empty() && quiet.len() as f64 >= MIN_QUIET_SHARE * ops as f64)
                .then_some(quiet)
        })
        .collect()
}

/// `ops` ops back to back, fewer if they take longer than `limit`, with a
/// reading of the sentinel before the first and after each. In the traced run
/// every second op is traced, so that drift of the machine hits traced and
/// untraced ops alike.
fn measure_ops(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    ops: usize,
    limit: Duration,
    alternate_tracing: bool,
) -> (Vec<Op>, Vec<f64>, u64, Option<String>) {
    let (mut done, mut failed, mut first_error) = (Vec::with_capacity(ops), 0, None);
    let start = Instant::now();
    let mut readings = vec![sentinel::read()];
    for i in 0..ops {
        // A round measures at least one op, however late its set-up ended.
        if i > 0 && start.elapsed() > limit {
            break;
        }
        let traced = alternate_tracing && i % 2 == 1;
        tracer.set_on(traced);
        if traced {
            tracer.next_op();
        }
        let op_start = Instant::now();
        let result = workload.op(tracer);
        let ms = op_start.elapsed().as_secs_f64() * 1e3;
        readings.push(sentinel::read());
        done.push(Op { ms, traced });
        if let Err(e) = result {
            failed += 1;
            first_error.get_or_insert(e);
        }
    }
    (done, readings, failed, first_error)
}

/// The directory below `<target>/sibench/work` that the run in process `pid`
/// keeps its files in and removes before it ends.
pub fn work_dir_name(kind: Kind, pid: u32) -> String {
    format!("{}-{pid}", kind.name())
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let kind = args.kind;
    let out_dir = machine::output_dir()?;
    let work_dir = out_dir.join("work").join(work_dir_name(kind, std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let result = run_in(args, &work_dir, &out_dir);
    let removed =
        std::fs::remove_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()));
    result.and_then(|output| removed.map(|()| output))
}

fn run_in(
    args: &RunArgs,
    work_dir: &std::path::Path,
    out_dir: &std::path::Path,
) -> Result<RunOutput, String> {
    let kind = args.kind;
    let (rounds, warmup_ops, ops_per_round) = match (args.smoke, args.trace) {
        (true, _) => (1, 2, 10),
        (false, true) => (TRACED_ROUNDS, kind.warmup_ops(), kind.ops_per_round(args.seconds)),
        (false, false) => (ROUNDS, kind.warmup_ops(), kind.ops_per_round(args.seconds)),
    };
    let env = Env {
        warmup_ops,
        ops_per_round,
        // The slow reference follows the measured steps where time allows.
        reference_follows_round: args.smoke || args.trace,
        work_dir: work_dir.to_path_buf(),
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "sibench {} seed={} seconds={} trace={} rounds={rounds} ops_per_round={ops_per_round} \
         warmup_ops={warmup_ops} ({}; one op = one {})",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine::run_line(),
        match kind {
            Kind::TrainBase | Kind::TrainSmart => "Trainer::step over 4 Mi parameters",
            Kind::SimScale => "pass over six large timed configurations",
            Kind::LabCycle => "lab experiment of 204 trials, its resume and its tables",
        }
    );

    let round_allowance =
        Duration::from_secs_f64(TIME_ALLOWANCE * (NOMINAL_SETUP_S + args.seconds / ROUNDS as f64));
    let oracle = workloads::oracle(kind, args.seed, &env)?;
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(args.trace);
    let mut all: Vec<Round> = Vec::with_capacity(rounds);
    let mut workload: Option<Box<dyn Workload>> = None;
    let run_start = Instant::now();
    for round in 1..=rounds {
        // The last round's objects go before the next round's are built, so
        // that the peak of memory is one set-up's.
        drop(workload.take());
        let start = Instant::now();
        let fresh = workload.insert(workloads::setup(kind, args.seed, &env, &oracle, &mut ledger)?);
        let setup_s = start.elapsed().as_secs_f64();
        let (ops, readings, mut failed, mut first_error) = measure_ops(
            fresh.as_mut(),
            &mut tracer,
            ops_per_round,
            (round_allowance * round as u32).saturating_sub(run_start.elapsed()),
            args.trace,
        );
        let fingerprint = match fresh.end_of_round() {
            Ok(fingerprint) => fingerprint,
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(e);
                None
            }
        };
        all.push(Round { setup_s, ops, readings, failed, first_error, fingerprint });
    }
    let mut workload = workload.expect("a run has at least one round");
    let units = workload.work_units();

    let attempted: u64 = all.iter().map(|r| r.ops.len() as u64).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();
    // Every round starts from the same state and does the same ops, so every
    // round that was not cut must end in the same state.
    let mut fingerprints = all.iter().filter_map(|r| r.fingerprint);
    let first = fingerprints.next();
    if fingerprints.any(|f| Some(f) != first) {
        failed += 1;
        let _ = writeln!(
            text,
            "  the rounds ended in different states: {:x?}",
            all.iter().map(|r| r.fingerprint).collect::<Vec<_>>()
        );
    }

    // Per round, the latencies of the untraced ops the sentinel found quiet.
    // A run without a round of quiet ops was disturbed throughout, and every
    // op of every round counts.
    let readings: Vec<Vec<f64>> = all.iter().map(|r| r.readings.clone()).collect();
    let mut quiet = quiet_ops(&readings);
    if quiet.iter().all(Option::is_none) {
        let _ = writeln!(text, "  no round had quiet ops: disturbed throughout, every op counts");
        quiet = all.iter().map(|r| Some((0..r.ops.len()).collect())).collect();
    }
    let kept: Vec<Option<Latencies>> = quiet
        .into_iter()
        .zip(&all)
        .map(|(quiet, round)| {
            let untraced = quiet?.into_iter().map(|i| round.ops[i]).filter(|op| !op.traced);
            let ms: Vec<f64> = untraced.map(|op| op.ms).collect();
            (!ms.is_empty()).then_some(Latencies(ms))
        })
        .collect();
    let (mut ops_disturbed, mut rounds_discarded) = (0, 0);
    for (i, (round, kept)) in all.iter().zip(&kept).enumerate() {
        let untraced = round.ops.iter().filter(|op| !op.traced).count();
        let cut = if round.ops.len() < ops_per_round { "  cut short" } else { "" };
        let _ = write!(text, "  round {i}: set-up {:.3} s  {untraced:4} ops", round.setup_s);
        let _ = match kept {
            Some(quiet) => {
                ops_disturbed += untraced - quiet.0.len();
                writeln!(
                    text,
                    "  {:4} quiet  p50 {:8.3} ms  p90 {:8.3} ms  {:12.1} {}/s{cut}",
                    quiet.0.len(),
                    quiet.p50(),
                    quiet.p90(),
                    quiet.work_per_s(units),
                    kind.work_unit().split(' ').next().unwrap_or("units"),
                )
            }
            None => {
                ops_disturbed += untraced;
                rounds_discarded += 1;
                writeln!(text, "  too few quiet, discarded{cut}")
            }
        };
    }
    if let Some(error) = all.iter().find_map(|r| r.first_error.as_ref()) {
        let _ = writeln!(text, "  first failed op: {error}");
    }
    let _ = writeln!(
        text,
        "  attempted {attempted} failed {failed}   bench.ops_disturbed {ops_disturbed}   \
         bench.rounds_discarded {rounds_discarded} of {}   load_average [{}]",
        all.len(),
        machine::loadavg()
    );

    let mut correct = failed == 0;
    let metrics: Vec<(MetricDef, f64)> = if args.trace {
        let ms = |traced: bool| -> Vec<f64> {
            all.iter()
                .flat_map(|r| &r.ops)
                .filter(|op| op.traced == traced)
                .map(|op| op.ms)
                .collect()
        };
        tracer.set_on(true);
        if let Err(e) = workload.ledger(&mut tracer, &mut ledger) {
            let _ = writeln!(text, "  ledger check failed: {e}");
            correct = false;
        }
        let (traced_p50, untraced_p50) = (median(&ms(true)), median(&ms(false)));
        ledger.set("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50);
        ledger.set("trace.spans", tracer.spans().len() as f64);
        ledger.set("parallel.cpus", machine::cpus() as f64);
        ledger.set("parallel.valid", f64::from(u8::from(machine::cpus() >= 2)));
        let path = out_dir.join(format!("trace-{}.json", kind.name()));
        tracer.write_json(&path, kind.name()).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(text, "  {} spans written to {}", tracer.spans().len(), path.display());
        PER_LAYER.iter().map(|m| (*m, ledger.get(m.name))).collect()
    } else {
        let per_round = |f: &dyn Fn(&Latencies) -> f64| kept.iter().flatten().map(f).collect();
        let peak_rss_mb = machine::peak_rss_mb().ok_or("cannot read VmHWM")?;
        END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = match m.name {
                    "work_per_s" => per_round(&|l| l.work_per_s(units)),
                    "op_ms_p50" => per_round(&Latencies::p50),
                    "op_ms_p90" => per_round(&Latencies::p90),
                    "peak_rss_mb" => vec![peak_rss_mb],
                    "setup_s" => all.iter().map(|r| r.setup_s).collect(),
                    other => unreachable!("no rule for end-to-end metric {other}"),
                };
                let _ = writeln!(
                    text,
                    "  {:<12} {:>16.4} {:<4} (quartile spread {:.1} % over {} rounds)",
                    m.name,
                    median(&values),
                    m.unit,
                    100.0 * quartile_spread(&values),
                    values.len()
                );
                (*m, median(&values))
            })
            .collect()
    };
    drop(workload);
    if args.trace {
        for (m, v) in &metrics {
            let _ = writeln!(
                text,
                "  {:<44} {v:>18.4} {}{}",
                m.name,
                m.unit,
                if m.exact { " =" } else { "" }
            );
        }
    }
    Ok(RunOutput { correct, attempted, failed, metrics, text })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readings of a round of `ops` ops: `quiet` everywhere but `loud` after
    /// each op listed in `disturbed`.
    fn round(ops: usize, disturbed: &[usize]) -> Vec<f64> {
        let (quiet, loud) = (0.400e-3, 0.600e-3);
        (0..=ops)
            .map(|i| if i > 0 && disturbed.contains(&(i - 1)) { loud } else { quiet })
            .collect()
    }

    #[test]
    fn the_sentinel_drops_disturbed_ops_and_rounds_that_are_hardly_ever_quiet() {
        let all_ten: Vec<usize> = (0..10).collect();
        // Nothing disturbed: every op counts.
        let kept = quiet_ops(&[round(10, &[]), round(10, &[])]);
        assert!(kept.iter().all(|k| k.as_ref() == Some(&all_ten)));

        // A loud reading after op 3 disturbs op 3 and op 4, which it precedes.
        let kept = quiet_ops(&[round(10, &[3]), round(10, &[])]);
        assert_eq!(kept[0].as_deref(), Some(&[0, 1, 2, 5, 6, 7, 8, 9][..]));
        assert_eq!(kept[1].as_ref(), Some(&all_ten));

        // A round with one quiet op in ten goes; one quiet round is enough
        // to say what quiet is.
        let loud: Vec<usize> = (1..10).collect();
        let kept = quiet_ops(&[round(10, &loud), round(10, &loud), round(10, &[])]);
        assert_eq!(kept, vec![None, None, Some(all_ten)]);

        // A reading 15 % above the quiet level is still quiet, one above is not.
        let mut readings = round(10, &[]);
        readings[5] = 0.400e-3 * 1.149;
        assert_eq!(quiet_ops(&[readings.clone()])[0].as_ref().map(Vec::len), Some(10));
        readings[5] = 0.400e-3 * 1.151;
        assert_eq!(quiet_ops(&[readings])[0].as_ref().map(Vec::len), Some(8));
    }
}
