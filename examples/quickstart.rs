//! Quickstart: every training configuration is data — a `RunSpec` — and one
//! spec drives both the timed view (how long does an iteration take?) and
//! the functional view (really move the bytes, really update the
//! parameters). A list of specs is a plain loop over `RunSpec::session()`.
//!
//! ```text
//! cargo run --release -p smart_infinity --example quickstart
//! ```

use smart_infinity::{
    Campaign, CompressionSpec, FlatTensor, MachineSpec, MethodSpec, ModelConfig, ModelSpec,
    RunSpec, StepReport, TrainError, Trainer, Workload,
};

fn main() -> Result<(), TrainError> {
    // ------------------------------------------------------------------
    // 1. Timed view: the checked-in ladder — six method specs on
    //    6 SmartSSDs — one timed iteration each.
    // ------------------------------------------------------------------
    let ladder_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ladder.json");
    let text = std::fs::read_to_string(ladder_path)
        .map_err(|e| TrainError::config(format!("cannot read {ladder_path}: {e}")))?;
    let campaign = Campaign::from_json(&text)?;
    let model = campaign.specs[0].model.resolve()?;
    let workload = Workload::paper_default(model);
    println!(
        "Model: {} ({:.1}B parameters), batch {} x seq {}",
        workload.model().name(),
        workload.model().num_params() as f64 / 1e9,
        workload.batch_size(),
        workload.seq_len()
    );

    println!(
        "\nLadder `{}`: {} specs",
        campaign.name.as_deref().unwrap_or("-"),
        campaign.specs.len()
    );
    println!(
        "{:<12} {:>8} {:>12} {:>10} {:>10} {:>9}",
        "method", "FW (s)", "BW+Grad (s)", "Update (s)", "Total (s)", "speedup"
    );
    let mut first = None;
    for spec in &campaign.specs {
        let report = spec.session()?.simulate_iteration()?;
        let base = *first.get_or_insert(report);
        // The label as a string, so the column width applies to it.
        let method = spec.method.to_string();
        println!(
            "{:<12} {:>8.2} {:>12.2} {:>10.2} {:>10.2} {:>8.2}x",
            method,
            report.forward_s,
            report.backward_s,
            report.update_s,
            report.total_s(),
            report.speedup_over(&base)
        );
    }

    // The capability axes compose beyond the paper's ladder: the same
    // machine with the handler optimization turned *off* but compression
    // kept on.
    let su_c = RunSpec::new(
        campaign.specs[0].model.clone(),
        campaign.specs[0].machine.clone(),
        MethodSpec::smart_update().with_compression(CompressionSpec::top_k(0.01)),
    );
    let su_c_report = su_c.session()?.simulate_iteration()?;
    let su_c_label = su_c.method.to_string();
    println!(
        "{:<12} {:>8.2} {:>12.2} {:>10.2} {:>10.2}   (off-ladder)",
        su_c_label,
        su_c_report.forward_s,
        su_c_report.backward_s,
        su_c_report.update_s,
        su_c_report.total_s(),
    );

    // ------------------------------------------------------------------
    // 2. Functional view: the *same* capability axes now select a real
    //    trainer. One loop drives every substrate through `dyn Trainer`.
    // ------------------------------------------------------------------
    let n = 100_000;
    let steps = 3u64;
    let keep_ratio = 0.01;
    let initial = FlatTensor::randn(n, 0.02, 7);
    let small = ModelConfig::gpt2_0_34b();

    let methods = [
        MethodSpec::baseline(),
        MethodSpec::smart_update(),
        MethodSpec::smart_comp(keep_ratio),
        MethodSpec::pipelined(None),
    ];
    let mut trainers: Vec<Box<dyn Trainer>> = Vec::new();
    for method in methods {
        let spec = RunSpec::new(ModelSpec::preset(small.name()), MachineSpec::devices(4), method)
            .with_threads(4);
        trainers.push(spec.session()?.trainer(&initial)?);
    }

    let mut last_reports: Vec<StepReport> = vec![StepReport::default(); trainers.len()];
    for step in 0..steps {
        let grads = FlatTensor::randn(n, 0.01, 1000 + step);
        for (trainer, last) in trainers.iter_mut().zip(last_reports.iter_mut()) {
            *last = trainer.step(&grads)?;
        }
    }

    println!("\nFunctional check over {n} parameters and {steps} steps (4 devices):");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>10}",
        "method", "grad B/step", "storage rd B", "storage wr B", "kept"
    );
    for (method, report) in methods.iter().zip(&last_reports) {
        println!(
            "{:<12} {:>12} {:>14} {:>14} {:>10}",
            method.to_string(),
            report.gradient_bytes,
            report.storage_bytes_read,
            report.storage_bytes_written,
            report.compression_kept.map_or("dense".to_string(), |k| k.to_string()),
        );
    }

    // SmartUpdate is bit-identical to the baseline — checked through the
    // trait objects alone.
    let identical = trainers[1].params_fp16().as_slice() == trainers[0].params_fp16().as_slice();
    println!("  SmartUpdate parameters identical to baseline: {identical}");
    assert!(identical, "SmartUpdate must be bit-identical to the baseline");

    // With four workers the near-storage trainer overlaps write → update →
    // read-back across the CSDs — for every in-storage method, pipelined or
    // not — and is still bit-identical to the baseline; its StepReport
    // breaks the bytes down per stage.
    let pipelined_identical =
        trainers[3].params_fp16().as_slice() == trainers[0].params_fp16().as_slice();
    assert!(pipelined_identical, "overlapped lanes must be bit-identical too");
    let stages = last_reports[3].stages.expect("near-storage steps report stage telemetry");
    println!(
        "  SU+O+P identical to baseline: {pipelined_identical} \
         (lanes: {}, write/update/read-back: {}/{}/{} B)",
        stages.lanes, stages.write_bytes, stages.update_bytes, stages.read_back_bytes
    );

    // The per-step telemetry carries exactly what the per-engine accessors
    // used to report. Baseline (Adam): 16n bytes read and written per step on
    // the RAID0 array (`storage_bytes_read`/`storage_bytes_written`);
    // SmartUpdate: 16n read / 12n written of CSD-internal P2P traffic
    // (`aggregate_stats`), with the dense 4n gradient crossing the host link.
    let n64 = n as u64;
    assert_eq!(last_reports[0].storage_bytes_read, 16 * n64);
    assert_eq!(last_reports[0].storage_bytes_written, 16 * n64);
    assert_eq!(last_reports[1].storage_bytes_read, 16 * n64);
    assert_eq!(last_reports[1].storage_bytes_written, 12 * n64);
    assert_eq!(last_reports[1].gradient_bytes, 4 * n64);
    // SmartComp: the index+value stream replaces the dense gradient — the
    // value `last_step_gradient_bytes` used to estimate, now measured.
    assert_eq!(last_reports[2].gradient_bytes, (2.0 * keep_ratio * 4.0 * n as f64) as u64);
    println!(
        "  SmartComp interconnect gradient traffic: {} B/step vs {} B dense ({:.0}x less)",
        last_reports[2].gradient_bytes,
        last_reports[1].gradient_bytes,
        last_reports[1].gradient_bytes as f64 / last_reports[2].gradient_bytes as f64
    );

    println!(
        "\nDone. Try `cargo run -p lab --release --bin lab -- run --experiment \
         specs/experiments/scaling --out out/scaling`\n\
         or `cargo run -p bench --release --bin figures -- all` for the figures that are code."
    );
    Ok(())
}
