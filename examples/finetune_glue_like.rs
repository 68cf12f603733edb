//! Fine-tuning case study (paper Section VII-J / Table IV): train real
//! classifiers on the GLUE-like synthetic suite with and without SmartComp's
//! Top-K gradient compression, and report accuracy next to the iteration-time
//! speedup of the corresponding fine-tuned LLM. The speedup side is a
//! (model x method) grid of `RunSpec`s, each simulated once.
//!
//! ```text
//! cargo run --release -p smart_infinity --example finetune_glue_like
//! ```

use smart_infinity::{MachineSpec, MethodSpec, ModelSpec, RunSpec, TrainError};
use ztrain::realtrain::{train_classifier, Dataset, MlpModel, TrainConfig};

fn main() -> Result<(), TrainError> {
    let suite = Dataset::glue_like_suite(2024);
    let transfer_ratios = [0.10f64, 0.05, 0.02, 0.01];

    // Accuracy side: real optimisation runs with the SmartComp dataflow
    // (error feedback + Top-K + decompression before the update).
    println!("Fine-tuning accuracy on the GLUE-like suite (3 epochs, batch 4, Adam):");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "setting", suite[0].name, suite[1].name, suite[2].name, suite[3].name
    );
    let run_suite = |keep_ratio: Option<f64>| -> Vec<f64> {
        suite
            .iter()
            .map(|ds| {
                let model = MlpModel::new(ds.input_dim, 48, ds.num_classes);
                let config = TrainConfig { epochs: 3, keep_ratio, ..TrainConfig::default() };
                train_classifier(&model, ds, &config).test_accuracy * 100.0
            })
            .collect()
    };
    let print_row = |label: &str, accs: &[f64]| {
        println!(
            "{:<18} {:>9.2}% {:>9.2}% {:>9.2}% {:>9.2}%",
            label, accs[0], accs[1], accs[2], accs[3]
        );
    };
    let baseline_acc = run_suite(None);
    print_row("Baseline / SU+O", &baseline_acc);
    for transfer in transfer_ratios {
        let accs = run_suite(Some(transfer / 2.0));
        print_row(&format!("SU+O+C ({:.0}%)", transfer * 100.0), &accs);
        let max_drop = baseline_acc.iter().zip(&accs).map(|(b, a)| b - a).fold(f64::MIN, f64::max);
        assert!(
            max_drop < 5.0,
            "compression at {transfer} should not cost more than a few accuracy points"
        );
    }

    // Speedup side: the timed model for the three fine-tuned LLMs of
    // Table IV, as one (model x method) grid.
    let models = ["BERT-0.34B", "GPT2-0.77B", "GPT2-1.6B"];
    let methods = [
        MethodSpec::baseline(),
        MethodSpec::smart_update_optimized(),
        MethodSpec::smart_comp(0.01),
    ];
    let specs: Vec<RunSpec> = models
        .iter()
        .flat_map(|&model| {
            methods.iter().map(move |&method| {
                RunSpec::new(ModelSpec::preset(model), MachineSpec::devices(6), method)
            })
        })
        .collect();
    let mut reports = Vec::with_capacity(specs.len());
    for spec in &specs {
        reports.push(spec.session()?.simulate_iteration()?);
    }

    println!("\nIteration-time speedup while fine-tuning (6 storage devices):");
    println!("{:<12} {:>10} {:>12}", "model", "SU+O", "SU+O+C(2%)");
    for (i, model) in models.iter().enumerate() {
        let rows = &reports[3 * i..3 * i + 3];
        println!(
            "{:<12} {:>9.2}x {:>11.2}x",
            model,
            rows[1].speedup_over(&rows[0]),
            rows[2].speedup_over(&rows[0])
        );
    }
    println!("\nSmartUpdate itself is lossless (bit-identical update); only SmartComp trades");
    println!("a little gradient fidelity for less interconnect traffic — and the accuracy");
    println!("table above shows that trade is essentially free, as in the paper.");
    Ok(())
}
