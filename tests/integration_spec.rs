//! Integration suite for the spec-driven front door: `RunSpec` JSON round
//! trips, builder-vs-JSON bit-equivalence across both stacks, centralized
//! `TrainError::Config` validation from the builder *and* the JSON path, and
//! the checked-in spec files, run directly and as `lab` experiments.

use proptest::prelude::*;
use smart_infinity::{
    Campaign, CompressionSpec, FlatTensor, HandlerMode, MachineSpec, MethodSpec, ModelSpec,
    RunSpec, SelectionMethod, TrainError, WorkloadSpec,
};
use ztrain::SyntheticGradients;

const SPECS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");

/// Builds a `MethodSpec` from sampled axes, constrained to coherent
/// combinations (incoherent ones are covered by the error tests).
fn method_from(axes: u8, keep_ratio: f64, selector: u8, seed: u64) -> MethodSpec {
    let mut method = match axes % 4 {
        0 => MethodSpec::baseline(),
        1 => MethodSpec::smart_update(),
        2 => MethodSpec::smart_update_optimized(),
        _ => MethodSpec::pipelined(None),
    };
    if method.in_storage_update && axes & 0x10 != 0 {
        let selection = match selector % 3 {
            0 => None,
            1 => Some(SelectionMethod::TopK), // the default, spelled out
            _ => Some(SelectionMethod::RandomK { seed }),
        };
        let mut compression = CompressionSpec::top_k(keep_ratio);
        if let Some(selection) = selection {
            compression = compression.with_selection(selection);
        }
        method = method.with_compression(compression);
    }
    method
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `RunSpec` -> JSON -> `RunSpec` is the identity, for arbitrary knob
    /// combinations — including u64 selector seeds outside the exact-f64
    /// range, which the shim's lexical numbers preserve.
    #[test]
    fn run_spec_json_round_trip_is_identity(
        axes in 0u8..32,
        keep_ratio in 0.001f64..1.0,
        selector in 0u8..3,
        seed in proptest::arbitrary::any::<u64>(),
        preset in 0usize..20,
        devices in 1usize..12,
        gpu in 0u8..4,
        threads in 0usize..8,
        handler in 0u8..3,
        subgroup in 0usize..3,
        batch in 0usize..5,
    ) {
        let method = method_from(axes, keep_ratio, selector, seed);
        let model = if preset % 5 == 0 {
            ModelSpec::ScaledGpt2 { billions: 0.5 + preset as f64 }
        } else {
            ModelSpec::preset(ModelSpec::preset_names()[preset])
        };
        let mut machine = MachineSpec::devices(devices);
        match gpu {
            0 => machine = machine.with_gpu("A100"),
            1 => machine = machine.with_num_gpus(2).congested(),
            _ => {}
        }
        let mut spec = RunSpec::new(model, machine, method);
        if threads > 0 {
            spec = spec.with_threads(threads);
        }
        match handler {
            0 => spec = spec.with_handler(HandlerMode::Naive),
            1 => spec = spec.with_handler(HandlerMode::Optimized),
            _ => {}
        }
        if subgroup > 0 {
            spec = spec.with_subgroup_elems(subgroup << 12);
        }
        if batch > 0 {
            spec = spec.with_workload(WorkloadSpec { batch_size: Some(batch * 4), seq_len: None });
        }
        let compact = RunSpec::from_json(&spec.to_json()).expect("compact round trip");
        prop_assert_eq!(&compact, &spec);
        let pretty = RunSpec::from_json(&spec.to_json_pretty()).expect("pretty round trip");
        prop_assert_eq!(&pretty, &spec);
    }

    /// Every named ablation point, built directly and routed through a
    /// `RunSpec` *and through JSON*, produces a bit-identical trainer and an
    /// identical timed iteration report.
    #[test]
    fn builder_and_json_built_sessions_are_bit_identical(
        variant in 0usize..6,
        devices in 1usize..6,
        threads in 1usize..4,
    ) {
        let method = [
            MethodSpec::baseline(),
            MethodSpec::smart_update(),
            MethodSpec::smart_update_optimized(),
            MethodSpec::smart_comp(0.02),
            MethodSpec::pipelined(None),
            MethodSpec::pipelined(Some(0.02)),
        ][variant];
        let model = smart_infinity::ModelConfig::gpt2_0_34b();
        let machine = smart_infinity::MachineConfig::smart_infinity(devices);

        // Builder-built: straight through Session::builder.
        let built_session = smart_infinity::Session::builder(model, machine, method)
            .with_threads(threads)
            .build();
        // Spec-built: the data path, round-tripped through JSON text.
        let spec = RunSpec::new(
            ModelSpec::preset("GPT2-0.34B"),
            MachineSpec::devices(devices),
            method,
        )
        .with_threads(threads);
        let spec_session = RunSpec::from_json(&spec.to_json()).expect("round trip")
            .session().expect("valid spec");

        // Functional view: bit-identical parameters after 3 steps.
        let initial = FlatTensor::randn(1_200, 0.05, 11);
        let mut from_builder = built_session.trainer(&initial).expect("builder trainer");
        let mut from_spec = spec_session.trainer(&initial).expect("spec trainer");
        let mut src_a = SyntheticGradients::new(1_200, 0.01, 23);
        let mut src_b = SyntheticGradients::new(1_200, 0.01, 23);
        for _ in 0..3 {
            let a = from_builder.step_from(&mut src_a).expect("step");
            let b = from_spec.step_from(&mut src_b).expect("step");
            prop_assert_eq!(a.gradient_bytes, b.gradient_bytes);
            prop_assert_eq!(a.compression_kept, b.compression_kept);
        }
        prop_assert_eq!(from_builder.params_fp16().as_slice(), from_spec.params_fp16().as_slice());
        let builder_master = from_builder.master_params().expect("params");
        let spec_master = from_spec.master_params().expect("params");
        prop_assert_eq!(builder_master.as_slice(), spec_master.as_slice());

        // Timed view: identical phase breakdowns.
        prop_assert_eq!(
            built_session.simulate_iteration().expect("timed"),
            spec_session.simulate_iteration().expect("timed")
        );
    }
}

#[test]
fn invalid_specs_are_config_errors_from_both_builder_and_json_paths() {
    let base = RunSpec::new(
        ModelSpec::preset("GPT2-0.34B"),
        MachineSpec::devices(3),
        MethodSpec::smart_comp(0.01),
    );

    // Builder path: bad keep ratios.
    for bad in [0.0, -1.0, 1.0001, f64::INFINITY] {
        let spec = RunSpec { method: MethodSpec::smart_comp(bad), ..base.clone() };
        let err = spec.session().expect_err("bad keep ratio");
        assert!(matches!(err, TrainError::Config { .. }), "{bad}: {err}");
        assert!(err.to_string().contains("keep ratio"), "{err}");
    }
    // Builder path: zero subgroup.
    let err = base.clone().with_subgroup_elems(0).session().expect_err("zero subgroup");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    assert!(err.to_string().contains("subgroup"), "{err}");
    // Builder path: params < devices comes from the session's trainer call.
    let session = base.clone().session().expect("valid");
    let err = session.trainer(&FlatTensor::zeros(2)).expect_err("2 params on 3 devices");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    // Builder path: incoherent axes.
    let err = RunSpec {
        method: MethodSpec { overlap: false, ..MethodSpec::pipelined(None) },
        ..base.clone()
    }
    .session()
    .expect_err("pipelined without overlap");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");

    // JSON path: the same knobs through text — errors, not panics.
    let json_cases = [
        // keep_ratio out of range
        r#"{"model":"GPT2-0.34B","machine":{"devices":3},
            "method":{"offload":true,"in_storage_update":true,"overlap":true,
                      "pipelined":false,"compression":{"keep_ratio":0.0}}}"#,
        // zero subgroup
        r#"{"model":"GPT2-0.34B","machine":{"devices":3},"subgroup_elems":0,
            "method":{"offload":true,"in_storage_update":true,"overlap":true,
                      "pipelined":false}}"#,
        // zero devices
        r#"{"model":"GPT2-0.34B","machine":{"devices":0},
            "method":{"offload":true,"in_storage_update":false,"overlap":false,
                      "pipelined":false}}"#,
        // unknown model preset
        r#"{"model":"GPT9-999B","machine":{"devices":3},
            "method":{"offload":true,"in_storage_update":false,"overlap":false,
                      "pipelined":false}}"#,
        // a scaled model past the upper bound (its shape arithmetic overflows)
        r#"{"model":{"scaled_gpt2_billions":1e300},"machine":{"devices":3},
            "method":{"offload":true,"in_storage_update":false,"overlap":false,
                      "pipelined":false}}"#,
    ];
    for json in json_cases {
        let spec = RunSpec::from_json(json).expect("parses fine; fails validation");
        let err = spec.session().expect_err("invalid spec");
        assert!(matches!(err, TrainError::Config { .. }), "{json}: {err}");
    }
    // The smallest scaled model the field documents resolves.
    let smallest = r#"{"model":{"scaled_gpt2_billions":0.001},"machine":{"devices":3},
        "method":{"offload":true,"in_storage_update":false,"overlap":false,"pipelined":false}}"#;
    RunSpec::from_json(smallest).expect("parses").session().expect("0.001 B resolves");

    // JSON path: malformed documents and typos are Config errors too.
    let err = RunSpec::from_json("{not json").expect_err("parse error");
    assert!(matches!(err, TrainError::Config { .. }), "{err}");
    let err = RunSpec::from_json(r#"{"model":"GPT2-0.34B","machine":{"devices":3},"methodd":{}}"#)
        .expect_err("typo'd field");
    assert!(err.to_string().contains("methodd"), "{err}");
}

#[test]
fn checked_in_ladder_campaign_runs_concurrently_on_parcore() {
    // `specs/ladder.json` as the `ladder` experiment, on four workers.
    let out = std::env::temp_dir().join(format!("spec-ladder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let experiment = std::path::Path::new(SPECS).join("experiments/ladder");
    let summary = lab::run_experiment(
        &experiment,
        &out,
        &lab::RunOptions::default(),
        &mut lab::ServiceExecutor::new(4),
    )
    .expect("ladder experiment runs");
    assert!(summary.planned >= 4, "the acceptance bar: a sweep of >= 4 specs");
    assert_eq!(summary.errors, 0);
    let (records, _) = lab::read_journal(&out.join(lab::runner::JOURNAL_FILE)).expect("journal");
    let _ = std::fs::remove_dir_all(&out);
    let total = |record: &lab::TrialRecord| record.objective.as_ref().expect("objective").value;
    let method = |record: &lab::TrialRecord| match record.metrics.get("method") {
        Some(serde::Value::String(label)) => label.clone(),
        other => panic!("{}: method is {other:?}", record.task_id),
    };
    // The ladder's physics still hold when driven from JSON: every
    // Smart-Infinity point beats BASE, compression beats its dense sibling.
    assert_eq!(method(&records[0]), "BASE");
    for record in &records[1..] {
        assert!(total(record) < total(&records[0]), "{}: {}", record.task_id, total(record));
    }
    let by_method = |label: &str| {
        total(
            records
                .iter()
                .find(|r| method(r) == label)
                .unwrap_or_else(|| panic!("{label} in ladder")),
        )
    };
    assert!(by_method("SU+O+C(2%)") < by_method("SU+O"));
    assert!(by_method("SU+O+P+C(2%)") < by_method("SU+O+P"));
}

#[test]
fn every_checked_in_spec_file_parses_validates_and_runs() {
    let mut files: Vec<_> = std::fs::read_dir(SPECS)
        .expect("specs/ is listable")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "{files:?}");
    for file in &files {
        let name = file.display();
        let text = std::fs::read_to_string(file).expect("spec file reads");
        let campaign = Campaign::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!campaign.specs.is_empty(), "{name}");
        for spec in &campaign.specs {
            let report = spec.session().and_then(|s| s.simulate_iteration());
            let report = report.unwrap_or_else(|e| panic!("{name} `{}`: {e}", spec.label()));
            assert!(report.total_s() > 0.0, "{name}: {}", spec.label());
        }
    }
    // compression.json exercises the off-ladder SU+C point: the same 1 %
    // Top-K under the optimized handler must beat it under the naive one.
    let text = std::fs::read_to_string(format!("{SPECS}/compression.json")).expect("reads");
    let campaign = Campaign::from_json(&text).expect("parses");
    let by_name = |needle: &str| {
        let spec = campaign
            .specs
            .iter()
            .find(|s| s.label().contains(needle))
            .unwrap_or_else(|| panic!("{needle} in compression.json"));
        spec.session().and_then(|s| s.simulate_iteration()).expect("runs").total_s()
    };
    assert!(by_name("off-ladder") > by_name("SU+O+C 2% transfer"));
    assert_eq!(
        campaign.specs.iter().filter(|s| s.method.to_string() == "SU+C(2%)").count(),
        1,
        "the off-ladder label renders"
    );
}
