//! The four workloads behind one interface.
//!
//! Each workload drives the repo only through public functions, checks every
//! op's output, and — in the traced run — attributes its op time to layers
//! from outside, with spans around its own calls.

pub mod lab_cycle;
pub mod sim_scale;
pub mod train;

use crate::metrics::Ledger;
use crate::trace::Tracer;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainBase,
    TrainSmart,
    SimScale,
    LabCycle,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::TrainBase, Kind::TrainSmart, Kind::SimScale, Kind::LabCycle];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TrainBase => "train_base",
            Kind::TrainSmart => "train_smart",
            Kind::SimScale => "sim_scale",
            Kind::LabCycle => "lab_cycle",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one unit of `work_per_s` is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::TrainBase | Kind::TrainSmart => "params updated",
            Kind::SimScale => "iterations simulated",
            Kind::LabCycle => "trials completed",
        }
    }

    /// The fixed number of warm-up ops of one set-up, chosen so that set-up
    /// takes at least a second on the reference machine.
    pub fn warmup_ops(self) -> usize {
        match self {
            Kind::TrainBase => 19,
            Kind::TrainSmart => 15,
            Kind::SimScale => 20,
            Kind::LabCycle => 28,
        }
    }

    /// The fixed number of measured ops of one round: what the reference
    /// machine does in a fifth of `seconds` in a middling hour. It depends on
    /// `seconds` and nothing else, so the op counts of a run repeat exactly.
    pub fn ops_per_round(self, seconds: f64) -> usize {
        // Ops per second there: 1000 over the op's latency in ms.
        let ops_per_s = match self {
            Kind::TrainBase => 16.5,
            Kind::TrainSmart => 13.5,
            Kind::SimScale => 14.5,
            Kind::LabCycle => 20.0,
        };
        ((seconds * ops_per_s / crate::run::ROUNDS as f64).round() as usize).max(1)
    }
}

/// What a set-up needs besides the seed.
#[derive(Debug, Clone)]
pub struct Env {
    /// Warm-up ops of one set-up.
    pub warmup_ops: usize,
    /// Measured ops of one round, which follow the warm-up.
    pub ops_per_round: usize,
    /// Whether a reference that is slower than the measured ops follows them
    /// to the end of a round, or stops after the warm-up.
    pub reference_follows_round: bool,
    /// A directory of this run's own for files the program writes.
    pub work_dir: PathBuf,
}

/// One workload after set-up, ready for measured ops.
pub trait Workload {
    /// Work units one op completes.
    fn work_units(&self) -> f64;

    /// Runs one op and checks its output. `Err` means the call failed or the
    /// check missed; either way the op counts as failed. With the tracer on,
    /// the op records its spans under the tracer's current op id.
    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String>;

    /// After a round's last op: checks the state the ops left behind and
    /// returns its fingerprint, if the workload keeps state between ops and
    /// has done all of the round's ops. Rounds do the same ops from the same
    /// start, so the run requires the same fingerprint of every round.
    fn end_of_round(&self) -> Result<Option<u64>, String> {
        Ok(None)
    }

    /// After the traced ops: replays what an op cannot show from outside and
    /// fills the per-layer ledger from the recorded spans.
    fn ledger(&mut self, tracer: &mut Tracer, ledger: &mut Ledger) -> Result<(), String>;
}

/// The expected outputs of a workload for one seed, computed once per run by
/// a route independent of the measured one.
pub enum Oracle {
    Train(train::TrainOracle),
    Sim(sim_scale::SimOracle),
    Lab(lab_cycle::LabOracle),
}

pub fn oracle(kind: Kind, seed: u64, env: &Env) -> Result<Oracle, String> {
    Ok(match kind {
        Kind::TrainBase | Kind::TrainSmart => Oracle::Train(train::oracle(kind, seed, env)?),
        Kind::SimScale => Oracle::Sim(sim_scale::oracle(seed)?),
        Kind::LabCycle => Oracle::Lab(lab_cycle::oracle(seed, env)?),
    })
}

/// Generates the inputs from `seed`, builds the program's objects and runs
/// the warm-up ops. The time this takes is `setup_s`.
pub fn setup(
    kind: Kind,
    seed: u64,
    env: &Env,
    oracle: &Oracle,
    ledger: &mut Ledger,
) -> Result<Box<dyn Workload>, String> {
    match (kind, oracle) {
        (Kind::TrainBase | Kind::TrainSmart, Oracle::Train(o)) => {
            Ok(Box::new(train::Train::setup(kind, seed, env, o, ledger)?))
        }
        (Kind::SimScale, Oracle::Sim(o)) => Ok(Box::new(sim_scale::SimScale::setup(seed, env, o)?)),
        (Kind::LabCycle, Oracle::Lab(o)) => Ok(Box::new(lab_cycle::LabCycle::setup(seed, env, o)?)),
        _ => unreachable!("oracle() returns the variant of its kind"),
    }
}

/// Word-wise FNV-1a over the bit patterns of `values`: the fingerprint the
/// functional workloads compare.
pub fn fnv_f32(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        hash ^= u64::from(v.to_bits());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
