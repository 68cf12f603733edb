//! Property-based integration tests across crate boundaries: invariants of
//! the full compression → decompression → update pipeline, the partitioning
//! machinery, and the discrete-event timing model, for randomly generated
//! configurations.

use gradcomp::Compressor;
use optim::{HyperParams, Optimizer, OptimizerKind};
use proptest::prelude::*;
use smart_infinity::{MachineConfig, MethodSpec, ModelConfig, Session, Workload};
use tensorlib::FlatTensor;

fn arb_optimizer() -> impl Strategy<Value = OptimizerKind> {
    prop_oneof![
        Just(OptimizerKind::Adam),
        Just(OptimizerKind::AdamW),
        Just(OptimizerKind::SgdMomentum),
        Just(OptimizerKind::AdaGrad),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// SmartUpdate equals the baseline for any size, shard count, subgroup
    /// size and optimizer — the bit-equivalence claim as a property.
    #[test]
    fn smartupdate_matches_baseline_for_any_configuration(
        n in 64usize..3000,
        csds in 1usize..8,
        subgroup in 16usize..800,
        block in 16usize..800,
        kind in arb_optimizer(),
        seed in 0u64..1000,
    ) {
        let optimizer = Optimizer::new(kind, HyperParams::default());
        let initial = FlatTensor::randn(n, 0.05, seed);
        let grads = FlatTensor::randn(n, 0.01, seed + 1);

        // Both substrates behind the same Session front door / Trainer seam.
        let session = |method, devices, subgroup| {
            Session::builder(
                ModelConfig::gpt2_0_34b(),
                MachineConfig::smart_infinity(devices),
                method,
            )
            .with_optimizer(optimizer)
            .with_subgroup_elems(subgroup)
            .build()
        };
        let mut baseline = session(MethodSpec::baseline(), 2, block).trainer(&initial).unwrap();
        let mut smart = session(MethodSpec::smart_update(), csds, subgroup).trainer(&initial).unwrap();
        let base_report = baseline.step(&grads).unwrap();
        let smart_report = smart.step(&grads).unwrap();
        let baseline_params = baseline.master_params().unwrap();
        let smart_params = smart.master_params().unwrap();
        prop_assert_eq!(baseline_params.as_slice(), smart_params.as_slice());
        // Dense gradients: the near-storage path crosses the host link once.
        prop_assert_eq!(smart_report.gradient_bytes, 4 * n as u64);
        prop_assert_eq!(base_report.gradient_bytes, 8 * n as u64);
    }

    /// The compression pipeline conserves "mass": transmitted + residual
    /// always reconstructs the corrected gradient, for any keep ratio.
    #[test]
    fn compression_pipeline_conserves_gradient_mass(
        n in 1usize..2000,
        keep in 0.001f64..1.0,
        seed in 0u64..1000,
    ) {
        let grads = FlatTensor::randn(n, 1.0, seed);
        let compressor = Compressor::top_k(keep);
        let mut feedback = gradcomp::ErrorFeedback::new(n);
        let corrected = feedback.apply(&grads);
        let compressed = compressor.compress(&corrected);
        feedback.update(&corrected, &compressed);
        let mut reconstructed = compressed.decompress();
        reconstructed.axpby(1.0, 1.0, feedback.residual());
        for (a, b) in reconstructed.as_slice().iter().zip(corrected.as_slice()) {
            prop_assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()));
        }
        // The transferred volume never exceeds the dense gradient.
        prop_assert!(compressed.compressed_bytes() <= 2 * compressed.dense_bytes());
    }

    /// The CSD decompressor agrees with the reference scatter on any subgroup
    /// tiling of any compressed gradient.
    #[test]
    fn decompressor_subgroup_tiling_is_exact(
        n in 1usize..3000,
        keep in 0.01f64..0.5,
        subgroup in 1usize..512,
        seed in 0u64..1000,
    ) {
        let grads = FlatTensor::randn(n, 1.0, seed);
        let compressed = Compressor::top_k(keep).compress(&grads);
        let reference = compressed.decompress();
        let decompressor = csd::Decompressor::default();
        let mut stitched = vec![0.0f32; n];
        let mut offset = 0;
        while offset < n {
            let len = subgroup.min(n - offset);
            let mut buf = vec![0.0f32; len];
            decompressor.decompress_subgroup(&compressed, offset, &mut buf);
            stitched[offset..offset + len].copy_from_slice(&buf);
            offset += len;
        }
        prop_assert_eq!(stitched.as_slice(), reference.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Timed-model sanity for arbitrary model sizes and device counts:
    /// phases are positive, more CSDs never slow Smart-Infinity down, and the
    /// speedup over the baseline stays within a physically plausible band.
    #[test]
    fn timed_model_is_well_behaved(
        billions in 1.0f64..20.0,
        devices in 2usize..10,
    ) {
        let model = ModelConfig::gpt2_scaled(billions * 1e9);
        let session = |method, devices: usize| {
            Session::builder(model.clone(), MachineConfig::smart_infinity(devices), method).build()
        };
        let base = session(MethodSpec::baseline(), devices).simulate_iteration().unwrap();
        let smart =
            session(MethodSpec::smart_comp(0.01), devices).simulate_iteration().unwrap();
        prop_assert!(base.forward_s > 0.0 && base.backward_s > 0.0 && base.update_s > 0.0);
        prop_assert!(smart.forward_s > 0.0 && smart.backward_s > 0.0 && smart.update_s > 0.0);
        let speedup = smart.speedup_over(&base);
        prop_assert!(speedup > 0.8 && speedup < 4.0, "speedup {speedup:.2}");

        let more = session(MethodSpec::smart_comp(0.01), devices + 1)
            .simulate_iteration()
            .unwrap();
        prop_assert!(more.total_s() <= smart.total_s() * 1.02, "adding a CSD must not hurt");
    }

    /// Interconnect-traffic accounting is internally consistent for any
    /// optimizer and compression ratio.
    #[test]
    fn traffic_model_is_consistent(
        keep in 0.001f64..0.5,
        kind in arb_optimizer(),
    ) {
        use smart_infinity::{TrafficMethod, TrafficModel};
        let workload = Workload::paper_default(ModelConfig::gpt2_4b());
        let model = TrafficModel::new(workload, kind);
        let base = model.per_iteration(TrafficMethod::ZeroInfinity).total();
        let su = model.per_iteration(TrafficMethod::SmartUpdate).total();
        let comp = model.per_iteration(TrafficMethod::SmartComp { keep_ratio: keep }).total();
        prop_assert!(su < base);
        prop_assert!(comp <= su + 1e-6);
        prop_assert!(model.reduction_over_baseline(TrafficMethod::SmartUpdate) > 1.0);
    }
}

/// Bytes that steer a JSON parser: structure, literals, numbers, escapes,
/// whitespace, a two-byte UTF-8 letter and a byte that is never UTF-8.
const JSON_BYTES: &[u8] = b"{}[]\",:.-+0123456789eEtrufalsn\\/ \t\nu\xc3\xa9\xff";

/// Texts the mutations start from: two run specs, a journal of two
/// records, and JSON with escapes, exponents and nesting.
const SEEDS: [&str; 4] = [
    r#"{"model": "GPT2-33.0B", "machine": {"devices": 10, "num_gpus": 2, "congested": true},
        "method": {"offload": true, "in_storage_update": true, "overlap": true,
        "pipelined": true, "compression": {"keep_ratio": 0.01}}}"#,
    r#"{"name": "c", "model": "GPT2-16.6B", "machine": {"devices": 10, "cluster": {"hosts": 8}},
        "method": {"offload": true, "in_storage_update": true, "overlap": true,
        "pipelined": false}, "subgroup_elems": 4096}"#,
    "{\"metrics\":{\"method\":\"SU+O\"},\"objective\":{\"name\":\"iteration_s\",\"value\":1.5},\
     \"outcome\":\"success\",\"repeat\":0,\"task_id\":\"t1\",\"trial_id\":\"a1\",\"variant\":\"v\"}\n\
     {\"error\":\"boom\",\"metrics\":{},\"outcome\":\"error\",\"repeat\":1,\"task_id\":\"t1\",\
     \"trial_id\":\"a2\",\"variant\":\"v\"}\n",
    r#"[{"a": "é\n\"", "b": [-0.0, 1e-7, 2E+21, null, true, false]}, {}, [[[]]]]"#,
];

/// `seed` with each `(kind, (at, byte))` edit applied in turn at byte `at`
/// (modulo the length): replace the byte there, insert one, delete it, cut
/// the text there, or repeat its tail (up to 4 KiB). The result is read as
/// UTF-8, a broken sequence becoming U+FFFD.
fn mutate(seed: &str, edits: &[(usize, (usize, usize))]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, (at, byte)) in edits {
        let at = at % (bytes.len() + 1);
        let byte = JSON_BYTES[byte % JSON_BYTES.len()];
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => drop(bytes.remove(at)),
            3 => bytes.truncate(at),
            4 if bytes.len() < 4096 => bytes.extend_from_within(at..),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Random text and mutations of well-formed specs, journals and JSON
    /// never panic a parser: `serde_json::from_str`, `RunSpec::from_json`
    /// and `lab::read_journal` each answer with a value or a typed error.
    #[test]
    fn parsers_answer_any_text_with_a_value_or_a_typed_error(
        seed in 0usize..SEEDS.len(),
        edits in proptest::collection::vec((0usize..5, (0usize..4096, 0usize..64)), 0..12),
        noise in proptest::collection::vec(0usize..64, 0..48),
    ) {
        let noise: Vec<u8> = noise.iter().map(|&b| JSON_BYTES[b % JSON_BYTES.len()]).collect();
        let noise = String::from_utf8_lossy(&noise).into_owned();
        let text = mutate(SEEDS[seed], &edits);
        for text in [&noise, &text] {
            if let Err(e) = serde_json::from_str::<serde_json::Value>(text) {
                prop_assert!(!e.to_string().is_empty());
            }
            if let Err(e) = smart_infinity::RunSpec::from_json(text) {
                prop_assert!(e.to_string().contains("invalid run spec"), "{e}");
            }
        }
        let journal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutated.jsonl");
        std::fs::write(&journal, &text).expect("the target's scratch directory is writable");
        if let Err(e) = lab::read_journal(&journal) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

/// The seeds the mutations start from are well formed: the specs parse,
/// the journal reads back both its records, and the JSON parses.
#[test]
fn the_parser_seeds_are_well_formed() {
    for spec in &SEEDS[..2] {
        smart_infinity::RunSpec::from_json(spec).expect("a valid spec");
    }
    let journal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("seed.jsonl");
    std::fs::write(&journal, SEEDS[2]).expect("the target's scratch directory is writable");
    let (records, torn) = lab::read_journal(&journal).expect("a valid journal");
    assert_eq!((records.len(), torn), (2, None));
    serde_json::from_str::<serde_json::Value>(SEEDS[3]).expect("valid JSON");
}
