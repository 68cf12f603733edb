//! Scheduler-equivalence suite: pins every timed schedule bit-identical to
//! the checked-in golden timings captured from the hand-built schedule
//! builders before they were replaced by `Scheduler` implementations.
//!
//! The golden file (`tests/golden/timed_goldens.txt`) stores every `f64` of
//! every `IterationReport`/`PipelineTiming` as its exact IEEE-754 bit
//! pattern, so the comparison is bit-for-bit, not approximate. The grid
//! spans machine shapes (device counts, congested multi-GPU), models,
//! method axes (handler × compression × pipelining), optimizers, subgroup
//! capacities and fault effects — every knob that reaches the timed path.
//! Every row runs on the one engine: host-update rows as
//! `MethodSpec::baseline()`, in-storage rows as a method plus the handler
//! override.
//!
//! To re-bless after an *intentional* timing-model change:
//!
//! ```text
//! cargo test -p smart_infinity --test integration_sched -- --ignored bless
//! ```

use faultkit::TimedFaultEffects;
use llm::{ModelConfig, Workload};
use optim::OptimizerKind;
use smart_infinity::{HandlerMode, MethodSpec, SmartInfinityEngine};
use std::path::PathBuf;
use ztrain::MachineConfig;

/// One grid point: a label plus the named timing fields it produced.
type GoldenCase = (String, Vec<(&'static str, f64)>);

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/timed_goldens.txt")
}

fn optimizer_name(opt: OptimizerKind) -> &'static str {
    match opt {
        OptimizerKind::Adam => "adam",
        OptimizerKind::AdamW => "adamw",
        OptimizerKind::SgdMomentum => "sgd",
        OptimizerKind::AdaGrad => "adagrad",
    }
}

/// The smart-engine knobs of one grid point.
#[derive(Clone)]
struct SmartKnobs {
    handler: HandlerMode,
    keep: Option<f64>,
    pipelined: bool,
    subgroup: Option<usize>,
    optimizer: OptimizerKind,
    faults: Option<TimedFaultEffects>,
}

impl SmartKnobs {
    fn plain(handler: HandlerMode, keep: Option<f64>, pipelined: bool) -> Self {
        Self {
            handler,
            keep,
            pipelined,
            subgroup: None,
            optimizer: OptimizerKind::Adam,
            faults: None,
        }
    }

    fn label(&self) -> String {
        let handler = match self.handler {
            HandlerMode::Naive => "naive",
            HandlerMode::Optimized => "opt",
        };
        let keep = self.keep.map_or("dense".to_string(), |k| format!("keep{k}"));
        let sched = if self.pipelined { "pipe" } else { "serial" };
        let mut label = format!("{handler}-{keep}-{sched}-{}", optimizer_name(self.optimizer));
        if let Some(sub) = self.subgroup {
            label.push_str(&format!("-sub{sub}"));
        }
        if let Some(f) = &self.faults {
            if let Some((dev, factor)) = f.straggler {
                label.push_str(&format!("-strag{dev}x{factor}"));
            }
            if let Some(factor) = f.uplink_bandwidth_factor {
                label.push_str(&format!("-uplink{factor}"));
            }
        }
        label
    }

    /// The in-storage method with this grid point's compression and
    /// pipelining axes; the handler is applied as an override, so the grid
    /// also reaches the off-ladder pairs (naive + pipelined).
    fn method(&self) -> MethodSpec {
        match (self.pipelined, self.keep) {
            (true, keep) => MethodSpec::pipelined(keep),
            (false, Some(keep)) => MethodSpec::smart_comp(keep),
            (false, None) => MethodSpec::smart_update_optimized(),
        }
    }

    fn run(&self, machine: &MachineConfig, workload: &Workload) -> Vec<(&'static str, f64)> {
        let method = self.method();
        let mut engine =
            SmartInfinityEngine::new(machine.clone(), workload.clone(), self.optimizer, &method)
                .with_handler(self.handler);
        if let Some(sub) = self.subgroup {
            engine = engine.with_subgroup_elems(sub);
        }
        if let Some(faults) = &self.faults {
            engine = engine.with_fault_effects(*faults);
        }
        let timing = engine.simulate_iteration_stages().expect("grid case must simulate");
        vec![
            ("forward", timing.report.forward_s),
            ("backward", timing.report.backward_s),
            ("update", timing.report.update_s),
            ("uplink_write", timing.uplink_write_busy_s),
            ("uplink_readback", timing.uplink_readback_busy_s),
            ("overlap", timing.update_overlap_s),
        ]
    }
}

/// One host-update (`MethodSpec::baseline()`) grid point on the same engine.
fn run_baseline(
    machine: &MachineConfig,
    workload: &Workload,
    optimizer: OptimizerKind,
    faults: TimedFaultEffects,
) -> Vec<(&'static str, f64)> {
    let engine = SmartInfinityEngine::new(
        machine.clone(),
        workload.clone(),
        optimizer,
        &MethodSpec::baseline(),
    );
    let report = engine
        .with_fault_effects(faults)
        .simulate_iteration()
        .expect("baseline grid case must simulate");
    vec![
        ("forward", report.forward_s),
        ("backward", report.backward_s),
        ("update", report.update_s),
    ]
}

/// Runs the whole grid against the *current* engine. Every grid point is a
/// configuration the session front door can reach.
fn run_grid() -> Vec<GoldenCase> {
    let mut cases: Vec<GoldenCase> = Vec::new();
    let models = [("gpt2_0.34b", ModelConfig::gpt2_0_34b()), ("gpt2_4b", ModelConfig::gpt2_4b())];

    // --- Smart-Infinity engines: machines x models x method axes ----------
    let machines: [(&str, MachineConfig); 5] = [
        ("smart2", MachineConfig::smart_infinity(2)),
        ("smart3", MachineConfig::smart_infinity(3)),
        ("smart6", MachineConfig::smart_infinity(6)),
        ("smart10", MachineConfig::smart_infinity(10)),
        ("cong4x2", MachineConfig::congested_multi_gpu(4, 2)),
    ];
    let axes = [
        SmartKnobs::plain(HandlerMode::Optimized, None, false),
        SmartKnobs::plain(HandlerMode::Naive, None, false),
        SmartKnobs::plain(HandlerMode::Optimized, Some(0.02), false),
        SmartKnobs::plain(HandlerMode::Optimized, None, true),
        SmartKnobs::plain(HandlerMode::Optimized, Some(0.02), true),
        SmartKnobs::plain(HandlerMode::Naive, Some(0.05), true),
    ];
    for (mname, machine) in &machines {
        for (wname, model) in &models {
            let workload = Workload::paper_default(model.clone());
            for knobs in &axes {
                let label = format!("smart|{mname}|{wname}|{}", knobs.label());
                cases.push((label, knobs.run(machine, &workload)));
            }
        }
    }

    // Optimizer, subgroup-capacity and single-device extremes.
    let smart6 = MachineConfig::smart_infinity(6);
    let gpt2_4b = Workload::paper_default(ModelConfig::gpt2_4b());
    for opt in [OptimizerKind::SgdMomentum, OptimizerKind::AdaGrad] {
        let knobs =
            SmartKnobs { optimizer: opt, ..SmartKnobs::plain(HandlerMode::Optimized, None, false) };
        cases.push((
            format!("smart|smart6|gpt2_4b|{}", knobs.label()),
            knobs.run(&smart6, &gpt2_4b),
        ));
    }
    for (handler, keep, pipelined) in
        [(HandlerMode::Optimized, None, false), (HandlerMode::Optimized, Some(0.02), true)]
    {
        let knobs = SmartKnobs {
            subgroup: Some(25_000_000),
            ..SmartKnobs::plain(handler, keep, pipelined)
        };
        cases.push((
            format!("smart|smart6|gpt2_4b|{}", knobs.label()),
            knobs.run(&smart6, &gpt2_4b),
        ));
    }
    let smart1 = MachineConfig::smart_infinity(1);
    let small = Workload::paper_default(ModelConfig::gpt2_0_34b());
    for knobs in [
        SmartKnobs::plain(HandlerMode::Optimized, None, false),
        SmartKnobs::plain(HandlerMode::Optimized, None, true),
    ] {
        cases.push((
            format!("smart|smart1|gpt2_0.34b|{}", knobs.label()),
            knobs.run(&smart1, &small),
        ));
    }
    let bert = Workload::paper_default(ModelConfig::bert_0_34b());
    let knobs = SmartKnobs::plain(HandlerMode::Optimized, None, true);
    cases.push((format!("smart|smart6|bert_0.34b|{}", knobs.label()), knobs.run(&smart6, &bert)));

    // Fault effects reach the timed path through the same engines.
    let straggler = TimedFaultEffects { straggler: Some((0, 2.0)), ..TimedFaultEffects::default() };
    let derated =
        TimedFaultEffects { uplink_bandwidth_factor: Some(0.5), ..TimedFaultEffects::default() };
    for (faults, base) in [
        (straggler, SmartKnobs::plain(HandlerMode::Optimized, None, true)),
        (derated, SmartKnobs::plain(HandlerMode::Optimized, None, false)),
    ] {
        let knobs = SmartKnobs { faults: Some(faults), ..base };
        cases.push((
            format!("smart|smart6|gpt2_4b|{}", knobs.label()),
            knobs.run(&smart6, &gpt2_4b),
        ));
    }

    // --- Host-update method: RAID0 machines x models x optimizers ---------
    // Storage follows the method, so the congested preset (CSDs by default)
    // serves as the plain-SSD machine of the `cong4x2-plain` rows.
    let base_machines: [(&str, MachineConfig); 5] = [
        ("raid1", MachineConfig::baseline_raid0(1)),
        ("raid2", MachineConfig::baseline_raid0(2)),
        ("raid4", MachineConfig::baseline_raid0(4)),
        ("raid8", MachineConfig::baseline_raid0(8)),
        ("cong4x2-plain", MachineConfig::congested_multi_gpu(4, 2)),
    ];
    let no_faults = TimedFaultEffects::default();
    for (mname, machine) in &base_machines {
        for (wname, model) in &models {
            let workload = Workload::paper_default(model.clone());
            cases.push((
                format!("base|{mname}|{wname}|adam"),
                run_baseline(machine, &workload, OptimizerKind::Adam, no_faults),
            ));
        }
    }
    let raid4 = MachineConfig::baseline_raid0(4);
    for opt in [OptimizerKind::SgdMomentum, OptimizerKind::AdaGrad] {
        cases.push((
            format!("base|raid4|gpt2_4b|{}", optimizer_name(opt)),
            run_baseline(&raid4, &gpt2_4b, opt, no_faults),
        ));
    }
    cases.push((
        "base|raid4|gpt2_4b|adam-uplink0.5".to_string(),
        run_baseline(&raid4, &gpt2_4b, OptimizerKind::Adam, derated),
    ));
    cases
}

/// Renders the grid in the golden file's line format: one case per line,
/// every value as its exact 64-bit IEEE-754 pattern (plus the decimal value
/// as a human-readable comment field).
fn render_grid(cases: &[GoldenCase]) -> String {
    let mut out = String::new();
    out.push_str(
        "# Bit-exact timed-schedule goldens. One case per line:\n\
         #   label|field=<f64 bit pattern as hex>[,...]\n\
         # Captured from the hand-built schedule builders; the Scheduler\n\
         # implementations must reproduce every value bit-for-bit.\n",
    );
    for (label, fields) in cases {
        out.push_str(label);
        for (name, value) in fields {
            out.push_str(&format!("|{name}={:016x}", value.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// Re-captures the golden file from the current engines. Run explicitly
/// (`-- --ignored bless`) only after an intentional timing-model change.
#[test]
#[ignore = "re-blesses the golden file; run only after an intentional timing change"]
fn bless_timed_goldens() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(&path, render_grid(&run_grid())).expect("write golden file");
}

/// Every timed report across the whole grid is bit-identical to the golden
/// values captured from the legacy hand-built schedules.
#[test]
fn timed_reports_are_bit_identical_to_checked_in_goldens() {
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file missing; run the bless test to create it");
    let fresh = render_grid(&run_grid());
    if golden == fresh {
        return;
    }
    let golden_lines: Vec<&str> = golden.lines().collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    for (i, fresh_line) in fresh_lines.iter().enumerate() {
        let golden_line = golden_lines.get(i).copied().unwrap_or("<missing>");
        assert_eq!(
            golden_line,
            *fresh_line,
            "timed schedule diverged from the golden capture at line {}",
            i + 1
        );
    }
    panic!(
        "golden file has {} lines but the grid produced {}",
        golden_lines.len(),
        fresh_lines.len()
    );
}
