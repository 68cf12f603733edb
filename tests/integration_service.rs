//! Integration suite for `campaignd` ([`smart_infinity::CampaignService`]):
//! canonicalization hardening (two JSON encodings of the same spec hash to
//! one cache key; any semantic knob change moves it), cache-hit reports
//! bit-identical to fresh runs — including under a `faults` axis and across
//! both `parcore` execution modes — and the queue semantics (in-flight
//! coalescing, the bounded FIFO queue, delivery that forgets the job) under
//! real concurrent clients and random sequences of calls.

use parcore::{ExecMode, ParExecutor};
use proptest::prelude::*;
use serde::Value;
use smart_infinity::{
    fnv1a, Campaign, CampaignService, CompressionSpec, FaultSpec, IterationReport, JobId,
    JobStatus, MachineSpec, MethodSpec, ModelSpec, RunSpec, SelectionMethod, ServiceConfig,
    ServiceError, WorkloadSpec,
};
use std::collections::HashSet;
use std::sync::OnceLock;

/// Builds a coherent `MethodSpec` from sampled axes (the invalid
/// combinations are covered by the submit-rejection tests).
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

/// Recursively mangles a parsed JSON document without changing its meaning:
/// reverses the key order of every object and (optionally) drops explicit
/// `null` entries — exactly the degrees of freedom different encoders take.
fn mangle(value: &Value, drop_nulls: bool) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(|v| mangle(v, drop_nulls)).collect()),
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .rev()
                .filter(|(_, v)| !(drop_nulls && matches!(v, Value::Null)))
                .map(|(k, v)| (k.clone(), mangle(v, drop_nulls)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Canonicalization hardening: reordered keys, dropped explicit-null
    /// optionals and pretty-printed whitespace all canonicalize to the same
    /// text and FNV-1a cache key — while renaming only the label never moves
    /// the key, and flipping any semantic knob always does.
    #[test]
    fn json_encoding_freedom_never_moves_the_cache_key(
        axes in 0u8..32,
        keep_ratio in 0.001f64..1.0,
        selector in 0u8..3,
        seed in proptest::arbitrary::any::<u64>(),
        preset in 0usize..20,
        devices in 1usize..12,
        threads in 0usize..8,
        batch in 0usize..5,
        fault_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let method = method_from(axes, keep_ratio, selector, seed);
        let mut spec = RunSpec::new(
            ModelSpec::preset(ModelSpec::preset_names()[preset]),
            MachineSpec::devices(devices),
            method,
        );
        if threads > 0 {
            spec = spec.with_threads(threads);
        }
        if batch > 0 {
            spec = spec.with_workload(WorkloadSpec { batch_size: Some(batch * 4), seq_len: None });
        }
        if axes & 0x8 != 0 {
            spec = spec.with_faults(FaultSpec::empty(fault_seed));
        }
        let canonical = spec.canonical_json();
        let key = spec.cache_key();
        prop_assert_eq!(fnv1a(canonical.as_bytes()), key);

        // Re-encode the same document every way an encoder legitimately may.
        let parsed = serde_json::parse(&spec.to_json()).expect("spec JSON parses");
        for drop_nulls in [false, true] {
            let mangled = mangle(&parsed, drop_nulls);
            for text in [
                serde_json::to_string(&mangled).expect("mangled serializes"),
                serde_json::to_string_pretty(&mangled).expect("mangled serializes"),
            ] {
                let reparsed = serde_json::parse(&text).expect("mangled JSON parses");
                prop_assert_eq!(
                    smart_infinity::canonical_json(&reparsed),
                    canonical.clone(),
                    "drop_nulls={} text={}", drop_nulls, text
                );
                // ... and the typed path agrees with the textual one.
                let respec = RunSpec::from_json(&text).expect("mangled spec loads");
                prop_assert_eq!(respec.cache_key(), key);
            }
        }

        // Presentation never participates in the key.
        prop_assert_eq!(spec.clone().with_name("renamed").cache_key(), key);

        // Every semantic knob does.
        let mut devices_changed = spec.clone();
        devices_changed.machine.devices = devices + 1;
        prop_assert!(devices_changed.cache_key() != key, "device count must move the key");
        let threads_changed = spec.clone().with_threads(threads + 9);
        prop_assert!(threads_changed.cache_key() != key, "thread count must move the key");
        let faults_changed = spec.clone().with_faults(FaultSpec {
            straggler_factor: Some(2.5),
            ..FaultSpec::empty(fault_seed)
        });
        prop_assert!(faults_changed.cache_key() != key, "fault axis must move the key");
        if let Some(compression) = spec.method.compression {
            let mut ratio_changed = spec.clone();
            ratio_changed.method.compression =
                Some(CompressionSpec { keep_ratio: compression.keep_ratio / 2.0, ..compression });
            prop_assert!(ratio_changed.cache_key() != key, "keep ratio must move the key");
        }
    }
}

/// A cache-hit `RunReport` is bit-identical to a fresh, service-free run of
/// the same spec — including under an active `faults` axis — whichever
/// execution mode and worker count dispatched the original run.
#[test]
fn cache_hits_are_bit_identical_to_fresh_runs_across_modes_and_faults() {
    let plain = RunSpec::new(
        ModelSpec::preset("GPT2-0.34B"),
        MachineSpec::devices(4),
        MethodSpec::smart_update_optimized(),
    );
    let faulty = plain.clone().with_faults(FaultSpec {
        transient_per_mille: Some(150),
        straggler_factor: Some(1.5),
        ..FaultSpec::empty(2024)
    });
    for spec in [plain, faulty] {
        let fresh = spec.session().expect("valid spec").simulate_iteration().expect("fresh run");
        for mode in [ExecMode::WorkStealing, ExecMode::Deterministic] {
            for workers in [1usize, 3] {
                let pool = ParExecutor::new(workers).with_mode(mode);
                let service = CampaignService::default();
                let id = service.submit(0, &spec).expect("submit");
                let first = service.await_result(id, &pool).expect("first run");
                assert_eq!(service.report().cache_hits, 0);
                let hit_id = service.submit(1, &spec).expect("resubmit");
                let hit = service.await_result(hit_id, &pool).expect("cache hit");
                let report = service.report();
                assert_eq!(report.cache_hits, 1, "mode={mode:?} workers={workers}");
                assert_eq!(report.executed, 1);
                for report in [&first.report.report, &hit.report.report] {
                    // Bit-identical, not approximately equal.
                    assert_eq!(report.forward_s.to_bits(), fresh.forward_s.to_bits());
                    assert_eq!(report.backward_s.to_bits(), fresh.backward_s.to_bits());
                    assert_eq!(report.update_s.to_bits(), fresh.update_s.to_bits());
                }
                assert_eq!(first.report, hit.report, "the whole RunReport is shared");
            }
        }
    }
}

/// Many concurrent clients hammering one overlapping spec list: each unique
/// spec executes exactly once, a second pass is answered entirely from
/// cache, and every job is delivered (each client awaits all of its own). The lists are hand-built ladder points and `specs/serve.json`,
/// whose eight specs are six unique ones spelled with deliberate duplicate
/// encodings (explicit nulls, relabelled repeats).
#[test]
fn concurrent_clients_get_exactly_one_execution_per_unique_spec() {
    let ladder: Vec<RunSpec> = [
        MethodSpec::baseline(),
        MethodSpec::smart_update(),
        MethodSpec::smart_update_optimized(),
        MethodSpec::smart_comp(0.01),
    ]
    .into_iter()
    .map(|m| RunSpec::new(ModelSpec::preset("GPT2-0.34B"), MachineSpec::devices(3), m))
    .collect();
    let serve = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/serve.json");
    let serve = std::fs::read_to_string(serve).expect("specs/serve.json is checked in");
    let serve = Campaign::from_json(&serve).expect("serve.json parses").specs;
    assert_eq!(serve.len(), 8);
    for (specs, unique) in [(ladder, 4), (serve, 6)] {
        let mut canon: Vec<String> = specs.iter().map(RunSpec::canonical_json).collect();
        canon.sort();
        canon.dedup();
        assert_eq!(canon.len() as u64, unique, "distinct canonical specs");
        let service = CampaignService::new(ServiceConfig::new(64));
        let pool = ParExecutor::new(2);
        let clients = 6;
        // Each pass is a barrier: every client's jobs finish before the next
        // pass starts, so the second pass can only be cache hits.
        for pass in 0..2 {
            let before = service.report();
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let (service, specs, pool) = (&service, &specs, &pool);
                    scope.spawn(move || {
                        // Rotated start offsets make the overlap in-flight,
                        // not only cached.
                        let ids: Vec<JobId> = (0..specs.len())
                            .map(|k| {
                                let spec = &specs[(client + k + pass) % specs.len()];
                                service.submit(client, spec).expect("submit")
                            })
                            .collect();
                        for id in ids {
                            service.await_result(id, pool).expect("await");
                        }
                    });
                }
            });
            let after = service.report();
            let submitted = after.submitted - before.submitted;
            assert_eq!(submitted, (clients * specs.len()) as u64);
            if pass == 1 {
                assert_eq!(after.cache_hits - before.cache_hits, submitted, "pass 2 is all cache");
            }
        }
        let report = service.report();
        assert_eq!(report.executed, unique, "one execution per unique spec, ever");
        assert_eq!(report.submitted, (clients * specs.len() * 2) as u64);
        assert_eq!(report.cache_hits + report.coalesced + unique, report.submitted);
        assert_eq!(report.failed, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.in_flight, 0);
    }
}

/// The bounded queue rejects explicitly (never blocks, never drops
/// silently) whoever floods it, and one drain runs the whole queue, after
/// which there is room again.
#[test]
fn bounded_queue_and_fairness_under_flood() {
    let service = CampaignService::new(ServiceConfig::new(3));
    let pool = ParExecutor::serial();
    let spec = |devices| {
        RunSpec::new(
            ModelSpec::preset("GPT2-0.34B"),
            MachineSpec::devices(devices),
            MethodSpec::baseline(),
        )
    };
    // Client 0 floods until the queue bound trips.
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for devices in 1..=6 {
        match service.submit(0, &spec(devices)) {
            Ok(id) => accepted.push(id),
            Err(ServiceError::QueueFull { queued, depth }) => {
                assert_eq!((queued, depth), (3, 3));
                rejected += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!((accepted.len(), rejected), (3, 3));
    // The bound applies to every client's *new* unique work...
    let err = service.submit(1, &spec(7)).expect_err("queue still full");
    assert!(matches!(err, ServiceError::QueueFull { .. }), "{err}");
    // ... but one drain runs everything queued, and makes room for all three
    // rejected specs at once.
    assert_eq!(service.drain(&pool), 3);
    for &id in &accepted {
        assert!(matches!(service.poll(id).expect("poll"), JobStatus::Done(_)));
    }
    let late: Vec<JobId> =
        (4..=6).map(|devices| service.submit(1, &spec(devices)).expect("room")).collect();
    assert!(service.submit(1, &spec(7)).is_err(), "three queued again");
    assert_eq!(service.drain(&pool), 3);
    for id in accepted.into_iter().chain(late) {
        let job = service.await_result(id, &pool).expect("done");
        assert_eq!(job.id, id);
    }
    let report = service.report();
    assert_eq!(report.rejected, 5);
    assert_eq!(report.executed, 6, "the first three floods, then the three rejected ones");
    assert_eq!(report.queue_wait.count, 6);
}

/// Submitting an invalid spec fails fast with `ServiceError::Invalid` and
/// never occupies the queue; awaiting a foreign handle is `UnknownJob`.
#[test]
fn service_errors_are_typed_and_queue_neutral() {
    let service = CampaignService::default();
    let pool = ParExecutor::serial();
    let invalid = RunSpec::new(
        ModelSpec::preset("GPT2-0.34B"),
        MachineSpec::devices(2),
        MethodSpec { overlap: true, ..MethodSpec::baseline() },
    );
    let err = service.submit(0, &invalid).expect_err("incoherent axes");
    assert!(matches!(err, ServiceError::Invalid(_)), "{err}");
    assert!(std::error::Error::source(&err).is_some(), "Invalid keeps its source chain");
    assert_eq!(service.report().submitted, 0);
    assert_eq!(service.report().in_flight, 0);
    // A handle issued by a *different* service is foreign here.
    let other = CampaignService::default();
    let valid = RunSpec::new(
        ModelSpec::preset("GPT2-0.34B"),
        MachineSpec::devices(2),
        MethodSpec::baseline(),
    );
    let foreign = other.submit(0, &valid).expect("valid elsewhere");
    let err = service.await_result(foreign, &pool).expect_err("no jobs exist here");
    assert!(matches!(err, ServiceError::UnknownJob(_)), "{err}");
    assert!(err.to_string().contains("job-"), "{err}");
    let _ = other.drain(&pool);
}

/// The specs the call-sequence property draws from: four small valid specs,
/// a re-spelled duplicate of the first (reversed keys, explicit nulls
/// dropped, another label) and one invalid spec.
fn sequence_specs() -> &'static [(RunSpec, Option<IterationReport>)] {
    static SPECS: OnceLock<Vec<(RunSpec, Option<IterationReport>)>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let at = |devices, method| {
            RunSpec::new(ModelSpec::preset("GPT2-0.34B"), MachineSpec::devices(devices), method)
        };
        let mut specs = vec![
            at(2, MethodSpec::baseline()),
            at(2, MethodSpec::smart_update()),
            at(3, MethodSpec::smart_update_optimized()),
            at(4, MethodSpec::smart_comp(0.01)),
        ];
        let parsed = serde_json::parse(&specs[0].clone().with_name("again").to_json())
            .expect("spec JSON parses");
        let respelled = serde_json::to_string(&mangle(&parsed, true)).expect("serializes");
        specs.push(RunSpec::from_json(&respelled).expect("the re-spelled spec loads"));
        specs.push(at(2, MethodSpec { overlap: true, ..MethodSpec::baseline() }));
        specs
            .into_iter()
            .map(|spec| {
                let direct = spec.session().and_then(|s| s.simulate_iteration()).ok();
                (spec, direct)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random sequences of submit, poll, drain and await against one service
    /// of queue depth 3, checked against a model of its queue and cache:
    /// each unique valid spec executes at most once, every awaited report is
    /// bit-identical to a direct `simulate_iteration`, a delivered id is
    /// `UnknownJob`, and `QueueFull` happens exactly when three unique specs
    /// are queued and a fourth would join them.
    #[test]
    fn random_call_sequences_keep_the_memo_contract(
        ops in proptest::collection::vec((0u8..7, 0usize..64), 1..40),
    ) {
        let specs = sequence_specs();
        assert_eq!(specs[4].0.canonical_json(), specs[0].0.canonical_json());
        let service = CampaignService::new(ServiceConfig::new(3));
        let pool = ParExecutor::serial();
        // Model: issued jobs (spec index, delivered?), queued canonical specs
        // and cached ones.
        let mut issued: Vec<(JobId, usize, bool)> = Vec::new();
        let mut queued: HashSet<String> = HashSet::new();
        let mut cached: HashSet<String> = HashSet::new();
        for (op, pick) in ops {
            // Four in seven calls are submissions, so the queue fills.
            match op {
                0..=3 => {
                    let index = pick % specs.len();
                    let (spec, direct) = &specs[index];
                    let canon = spec.canonical_json();
                    let result = service.submit(pick % 2, spec);
                    if direct.is_none() {
                        prop_assert!(matches!(result, Err(ServiceError::Invalid(_))));
                        continue;
                    }
                    let new_work = !cached.contains(&canon) && !queued.contains(&canon);
                    match result {
                        Err(ServiceError::QueueFull { queued: 3, depth: 3 }) => {
                            prop_assert!(new_work && queued.len() == 3, "a spurious QueueFull");
                        }
                        Ok(id) => {
                            prop_assert!(!new_work || queued.len() < 3, "past the bound");
                            if new_work {
                                queued.insert(canon);
                            }
                            issued.push((id, index, false));
                        }
                        Err(other) => prop_assert!(false, "unexpected {}", other),
                    }
                }
                4 | 5 if !issued.is_empty() => {
                    let slot = pick % issued.len();
                    let (id, index, delivered) = issued[slot];
                    let canon = specs[index].0.canonical_json();
                    if op == 4 {
                        match service.poll(id) {
                            Err(ServiceError::UnknownJob(_)) => prop_assert!(delivered),
                            Ok(JobStatus::Queued) => {
                                prop_assert!(!delivered && queued.contains(&canon))
                            }
                            Ok(JobStatus::Done(job)) => {
                                prop_assert!(!delivered && cached.contains(&canon));
                                prop_assert_eq!(job.id, id);
                            }
                            other => prop_assert!(false, "poll of {} gave {:?}", id, other),
                        }
                        continue;
                    }
                    match service.await_result(id, &pool) {
                        Err(ServiceError::UnknownJob(_)) => prop_assert!(delivered),
                        Ok(job) => {
                            prop_assert!(!delivered, "{} was delivered twice", id);
                            let direct = specs[index].1.expect("a valid spec");
                            let got = job.report.report;
                            prop_assert_eq!(got.forward_s.to_bits(), direct.forward_s.to_bits());
                            prop_assert_eq!(got.backward_s.to_bits(), direct.backward_s.to_bits());
                            prop_assert_eq!(got.update_s.to_bits(), direct.update_s.to_bits());
                            prop_assert_eq!(job.report.label, specs[index].0.label());
                            issued[slot].2 = true;
                            // An await that finds its job queued runs the
                            // whole queue; one that finds it done runs none.
                            if queued.contains(&canon) {
                                cached.extend(queued.drain());
                            }
                        }
                        Err(other) => prop_assert!(false, "await of {} gave {}", id, other),
                    }
                }
                _ => {
                    prop_assert_eq!(service.drain(&pool), queued.len());
                    cached.extend(queued.drain());
                }
            }
            let report = service.report();
            prop_assert_eq!(report.executed, cached.len() as u64, "one execution per spec");
            prop_assert_eq!(report.cached_specs, cached.len());
            prop_assert_eq!(report.in_flight, queued.len());
        }
    }
}
