//! Table IV, fine-tuning accuracy and speedup (paper Section VII-J): train
//! real classifiers on the GLUE-like synthetic suite through the in-storage
//! trainer, exact (Baseline and SU+O, which update bit-identically) and with
//! SmartComp's per-CSD Top-K at 10 / 5 / 2 / 1 % transfer, and report each
//! method's accuracy and measured transfer ratio next to the iteration-time
//! speedup of the fine-tuned LLMs on six storage devices. The speedup side
//! is a (model x method) grid of `RunSpec`s, each simulated once.
//!
//! ```text
//! cargo run --release -p smart_infinity --example finetune_glue_like
//! ```

use smart_infinity::{MachineSpec, MethodSpec, ModelSpec, RunSpec, TrainError};
use ztrain::realtrain::{train_classifier, Dataset, MlpModel, TrainConfig, TABLE_IV_DEVICES};

fn main() -> Result<(), TrainError> {
    let suite = Dataset::glue_like_suite(2024);

    // Accuracy side: one run of the suite per distinct update. Each task's
    // accuracy in percent, and the transfer ratio averaged over the tasks.
    let run_suite = |keep_ratio: Option<f64>| -> Result<(Vec<f64>, f64), TrainError> {
        let mut accuracies = Vec::with_capacity(suite.len());
        let mut transfer = 0.0;
        for ds in &suite {
            let model = MlpModel::new(ds.input_dim, 48, ds.num_classes);
            let config = TrainConfig { epochs: 3, keep_ratio, ..TrainConfig::default() };
            let result = train_classifier(&model, ds, &config)?;
            accuracies.push(result.test_accuracy * 100.0);
            transfer += result.transfer_ratio / suite.len() as f64;
        }
        Ok((accuracies, transfer))
    };
    let exact = run_suite(None)?;
    let mut methods = vec![
        ("Baseline".to_string(), MethodSpec::baseline(), exact.clone()),
        ("SU+O".to_string(), MethodSpec::smart_update_optimized(), exact.clone()),
    ];
    for transfer in [0.10f64, 0.05, 0.02, 0.01] {
        let keep = transfer / 2.0;
        let compressed = run_suite(Some(keep))?;
        let max_drop =
            exact.0.iter().zip(&compressed.0).map(|(b, a)| b - a).fold(f64::MIN, f64::max);
        assert!(
            max_drop < 5.0,
            "compression at {transfer} should not cost more than a few accuracy points"
        );
        let label = format!("SU+O+C ({:.0}%)", transfer * 100.0);
        methods.push((label, MethodSpec::smart_comp(keep), compressed));
    }

    // Speedup side: the timed model for the three fine-tuned LLMs of
    // Table IV, as one (model x method) grid on the accuracy runs' devices.
    let models = ["BERT-0.34B", "GPT2-0.77B", "GPT2-1.6B"];
    let specs: Vec<RunSpec> = models
        .iter()
        .flat_map(|&model| {
            methods.iter().map(move |(_, method, _)| {
                let machine = MachineSpec::devices(TABLE_IV_DEVICES);
                RunSpec::new(ModelSpec::preset(model), machine, *method)
            })
        })
        .collect();
    let mut reports = Vec::with_capacity(specs.len());
    for spec in &specs {
        reports.push(spec.session()?.simulate_iteration()?);
    }

    println!(
        "Table IV: fine-tuning accuracy (GLUE-like suite, 3 epochs, batch 4, Adam) and \
         speedup (#SSDs={TABLE_IV_DEVICES})"
    );
    let tasks: String = suite.iter().map(|ds| format!(" {:>10}", ds.name)).collect();
    println!("{:<12} {:<16} {:>8}{tasks} {:>9}", "model", "method", "speedup", "transfer");
    for (i, model) in models.iter().enumerate() {
        let rows = &reports[i * methods.len()..(i + 1) * methods.len()];
        for ((label, _, (accs, transfer)), report) in methods.iter().zip(rows) {
            let speedup = report.speedup_over(&rows[0]);
            let accs: String = accs.iter().map(|a| format!(" {a:>10.2}")).collect();
            println!("{model:<12} {label:<16} {speedup:>7.2}x{accs} {:>8.2}%", transfer * 100.0);
        }
    }
    println!("\nSmartUpdate itself is lossless (bit-identical update); only SmartComp trades");
    println!("a little gradient fidelity for less interconnect traffic — and the accuracy");
    println!("columns above show that trade is essentially free, as in the paper.");
    Ok(())
}
