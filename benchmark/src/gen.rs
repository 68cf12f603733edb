//! The seeded input generator.
//!
//! Everything the program under test receives comes from here, as plain
//! tensors and JSON text. The seed fixes gradient values, the order of specs
//! and tasks, and how each JSON document is spelled (key order, whitespace,
//! which task is re-encoded as a duplicate). It never changes a size: every
//! seed gives the same parameter count, the same six simulated machines and
//! the same trial matrix, so two seeds do the same amount of work.
//!
//! The generator has its own random numbers and its own JSON writer, so a
//! change to the program's `rand` or `serde_json` stand-ins cannot change the
//! inputs.

use tensorlib::FlatTensor;

/// Parameters trained by `train_base` and `train_smart`.
pub const TRAIN_PARAMS: usize = 4 << 20;
/// Storage devices (RAID0 members, or CSDs) of the functional workloads.
pub const TRAIN_DEVICES: usize = 4;
/// Distinct gradient tensors the steps cycle through.
pub const GRAD_SETS: usize = 4;
/// Top-K keep ratio of `train_smart`: 1 % of elements, 2 % of the bytes.
pub const KEEP_RATIO: f64 = 0.01;

/// Shape of the `lab_cycle` experiment.
pub const LAB_DISTINCT_TASKS: usize = 16;
pub const LAB_VARIANTS: usize = 4;
pub const LAB_REPEATS: usize = 3;
/// Task lines: the distinct tasks plus one re-encoded duplicate.
pub const LAB_TASK_LINES: usize = LAB_DISTINCT_TASKS + 1;
pub const LAB_TRIALS: usize = LAB_TASK_LINES * LAB_VARIANTS * LAB_REPEATS;
/// Specs the service must execute: repeats and the duplicate are never run.
pub const LAB_UNIQUE_SPECS: usize = LAB_DISTINCT_TASKS * LAB_VARIANTS;

/// SplitMix64: small, seedable, and good enough to shuffle and to fill
/// gradient tensors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Roughly normal values with the given standard deviation: the sum of
    /// four 16-bit uniforms per value (Irwin–Hall), which is cheap enough to
    /// fill 20 Mi values in set-up and bell-shaped enough for Top-K.
    fn normal_tensor(&mut self, len: usize, std: f32) -> FlatTensor {
        // Four uniforms on [0, 65535] sum to mean 131070, variance 4 * (65536^2 - 1) / 12.
        let scale = std / 37_837.0;
        FlatTensor::from_fn(len, |_| {
            let r = self.next_u64();
            let sum = (r & 0xFFFF) + ((r >> 16) & 0xFFFF) + ((r >> 32) & 0xFFFF) + (r >> 48);
            (sum as f32 - 131_070.0) * scale
        })
    }
}

/// Inputs of the functional workloads.
#[derive(Debug)]
pub struct TrainInputs {
    pub initial: FlatTensor,
    pub grads: Vec<FlatTensor>,
}

pub fn train_inputs(seed: u64) -> TrainInputs {
    let mut rng = Rng::new(seed ^ 0x7472_6169_6E00);
    let initial = rng.normal_tensor(TRAIN_PARAMS, 0.02);
    let grads = (0..GRAD_SETS).map(|_| rng.normal_tensor(TRAIN_PARAMS, 0.01)).collect();
    TrainInputs { initial, grads }
}

// ---------------------------------------------------------------------------
// JSON documents
// ---------------------------------------------------------------------------

/// A JSON value the generator writes. Object keys keep their given order
/// unless a [`Style`] shuffles them.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// How a document is spelled. The plain style is what the checked-in
/// `specs/sim_scale.json` uses; the seeded style permutes keys and spacing.
struct Style<'a> {
    rng: Option<&'a mut Rng>,
}

impl Style<'_> {
    fn write(&mut self, value: &Json, out: &mut String) {
        let spaced = self.rng.as_mut().is_some_and(|r| r.coin());
        match value {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => {
                // Generated strings are preset names and ids: no escapes needed.
                assert!(!s.contains(['"', '\\']) && !s.chars().any(char::is_control));
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if spaced { ", " } else { "," });
                    }
                    self.write(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                if let Some(rng) = self.rng.as_mut() {
                    rng.shuffle(&mut order);
                }
                out.push('{');
                for (i, &k) in order.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if spaced { ", " } else { "," });
                    }
                    out.push('"');
                    out.push_str(pairs[k].0);
                    out.push_str(if spaced { "\": " } else { "\":" });
                    self.write(&pairs[k].1, out);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Compact text with keys in their given order.
    pub fn plain(&self) -> String {
        let mut out = String::new();
        Style { rng: None }.write(self, &mut out);
        out
    }

    /// One line of text, keys and spacing permuted by `rng`.
    pub fn seeded(&self, rng: &mut Rng) -> String {
        let mut out = String::new();
        Style { rng: Some(rng) }.write(self, &mut out);
        out
    }
}

fn obj(pairs: Vec<(&'static str, Json)>) -> Json {
    Json::Obj(pairs)
}

fn method(in_storage: bool, overlap: bool, pipelined: bool, compressed: bool) -> Json {
    let mut pairs = vec![
        ("offload", Json::Bool(true)),
        ("in_storage_update", Json::Bool(in_storage)),
        ("overlap", Json::Bool(overlap)),
        ("pipelined", Json::Bool(pipelined)),
    ];
    if compressed {
        pairs.push(("compression", obj(vec![("keep_ratio", Json::Num(KEEP_RATIO))])));
    }
    obj(pairs)
}

fn run_spec(model: &str, machine: Json, method: Json) -> Json {
    obj(vec![("model", Json::Str(model.to_string())), ("machine", machine), ("method", method)])
}

fn cluster(devices: u64, hosts: u64) -> Json {
    obj(vec![("devices", Json::Int(devices)), ("cluster", obj(vec![("hosts", Json::Int(hosts))]))])
}

/// The six large timed configurations of `sim_scale`, in canonical order.
pub fn sim_scale_specs() -> Vec<Json> {
    let ten = || obj(vec![("devices", Json::Int(10))]);
    let congested = obj(vec![
        ("devices", Json::Int(10)),
        ("num_gpus", Json::Int(2)),
        ("congested", Json::Bool(true)),
    ]);
    vec![
        run_spec("GPT2-33.0B", ten(), method(false, false, false, false)),
        run_spec("GPT2-33.0B", ten(), method(true, true, false, true)),
        run_spec("GPT2-33.0B", congested, method(true, true, true, true)),
        run_spec("GPT2-16.6B", cluster(10, 8), method(true, true, false, false)),
        run_spec("GPT2-16.6B", cluster(10, 8), method(true, true, true, false)),
        run_spec("GPT2-8.3B", cluster(6, 16), method(true, true, true, true)),
    ]
}

/// The checked-in rendering of [`sim_scale_specs`]: one spec per line.
#[cfg(test)]
fn sim_scale_document() -> String {
    let lines: Vec<String> = sim_scale_specs().iter().map(Json::plain).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// One `sim_scale` input: the spec's position in the canonical list and the
/// JSON text the program parses.
#[derive(Debug, Clone)]
pub struct SimInput {
    pub index: usize,
    pub json: String,
}

/// The six specs in a seeded order, each in a seeded spelling.
pub fn sim_inputs(seed: u64) -> Vec<SimInput> {
    let mut rng = Rng::new(seed ^ 0x7369_6D00);
    let specs = sim_scale_specs();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    rng.shuffle(&mut order);
    order.into_iter().map(|index| SimInput { index, json: specs[index].seeded(&mut rng) }).collect()
}

/// The files of the `lab_cycle` experiment, to be written into one directory.
#[derive(Debug, Clone)]
pub struct LabFiles {
    pub experiment_json: String,
    pub tasks_jsonl: String,
    /// The campaign document one task refers to by index.
    pub campaign_json: String,
}

pub const LAB_CAMPAIGN_FILE: &str = "ladder.json";

/// Sixteen small configurations: three models on 2–4 devices, then the first
/// seven again at batch size 8.
fn lab_task_specs() -> Vec<Json> {
    let mut specs = Vec::with_capacity(LAB_DISTINCT_TASKS);
    for model in ["GPT2-0.34B", "GPT2-0.77B", "GPT2-1.16B"] {
        for devices in 2..=4u64 {
            specs.push(vec![
                ("model", Json::Str(model.to_string())),
                ("machine", obj(vec![("devices", Json::Int(devices))])),
                ("method", method(false, false, false, false)),
            ]);
        }
    }
    let batched: Vec<_> = specs[..LAB_DISTINCT_TASKS - specs.len()]
        .iter()
        .map(|pairs| {
            let mut pairs = pairs.clone();
            pairs.push(("workload", obj(vec![("batch_size", Json::Int(8))])));
            pairs
        })
        .collect();
    specs.extend(batched);
    specs.into_iter().map(Json::Obj).collect()
}

fn with_task_id(id: String, payload: &Json) -> Json {
    let Json::Obj(pairs) = payload else { unreachable!("task payloads are objects") };
    let mut line = vec![("task_id", Json::Str(id))];
    line.extend(pairs.iter().cloned());
    Json::Obj(line)
}

/// The experiment: 17 task lines × 4 variants × 3 repeats. One seeded task
/// is moved into the campaign document and referred to by index, and one
/// seeded task appears twice under different ids and spellings.
pub fn lab_files(seed: u64) -> LabFiles {
    let mut rng = Rng::new(seed ^ 0x6C61_6200);
    let mut specs = lab_task_specs();
    rng.shuffle(&mut specs);

    // The last spec after the shuffle lives in the campaign file, between
    // two decoys, so the reference has to select it.
    let by_ref = specs.pop().expect("sixteen specs");
    let decoy = |model: &str| {
        run_spec(model, obj(vec![("devices", Json::Int(5))]), method(true, true, false, false))
    };
    let campaign = obj(vec![
        ("name", Json::Str("ladder".to_string())),
        ("specs", Json::Arr(vec![decoy("GPT2-1.6B"), by_ref, decoy("GPT2-1.7B")])),
    ]);

    let mut lines: Vec<Json> =
        specs.iter().enumerate().map(|(i, s)| with_task_id(format!("t{i:02}"), s)).collect();
    lines.push(obj(vec![
        ("task_id", Json::Str("ref".to_string())),
        ("campaign", Json::Str(LAB_CAMPAIGN_FILE.to_string())),
        ("index", Json::Int(1)),
    ]));
    let twin = rng.below(specs.len());
    lines.push(with_task_id("dup".to_string(), &specs[twin]));
    rng.shuffle(&mut lines);
    assert_eq!(lines.len(), LAB_TASK_LINES);

    let variant = |name: &str, method_delta: Vec<(&'static str, Json)>| {
        obj(vec![
            ("name", Json::Str(name.to_string())),
            ("delta", obj(vec![("method", obj(method_delta))])),
        ])
    };
    let on = || Json::Bool(true);
    let mut variants = vec![
        variant("su", vec![("in_storage_update", on())]),
        variant("su_o", vec![("in_storage_update", on()), ("overlap", on())]),
        variant(
            "su_o_c",
            vec![
                ("in_storage_update", on()),
                ("overlap", on()),
                ("compression", obj(vec![("keep_ratio", Json::Num(KEEP_RATIO))])),
            ],
        ),
        variant(
            "su_o_p",
            vec![("in_storage_update", on()), ("overlap", on()), ("pipelined", on())],
        ),
    ];
    rng.shuffle(&mut variants);
    assert_eq!(variants.len(), LAB_VARIANTS);
    let experiment = obj(vec![
        ("name", Json::Str("lab_cycle".to_string())),
        ("dataset", Json::Str("tasks.jsonl".to_string())),
        ("repeats", Json::Int(LAB_REPEATS as u64)),
        ("seed", Json::Int(seed)),
        ("variants", Json::Arr(variants)),
    ]);

    let mut tasks_jsonl = String::new();
    for line in &lines {
        tasks_jsonl.push_str(&line.seeded(&mut rng));
        tasks_jsonl.push('\n');
    }
    LabFiles {
        experiment_json: experiment.seeded(&mut rng),
        tasks_jsonl,
        campaign_json: campaign.seeded(&mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lens(files: &LabFiles) -> (usize, usize) {
        (files.tasks_jsonl.lines().count(), files.experiment_json.matches("\"name\"").count())
    }

    #[test]
    fn the_checked_in_spec_list_is_the_generators() {
        assert_eq!(include_str!("../specs/sim_scale.json"), sim_scale_document());
    }

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (train_inputs(7), train_inputs(7));
        assert_eq!(a.initial.as_slice(), b.initial.as_slice());
        assert_eq!(a.grads[3].as_slice(), b.grads[3].as_slice());
        let (a, b) = (sim_inputs(7), sim_inputs(7));
        assert!(a.iter().zip(&b).all(|(x, y)| x.index == y.index && x.json == y.json));
        let (a, b) = (lab_files(7), lab_files(7));
        assert_eq!(a.tasks_jsonl, b.tasks_jsonl);
        assert_eq!(a.experiment_json, b.experiment_json);
        assert_eq!(a.campaign_json, b.campaign_json);
    }

    #[test]
    fn another_seed_changes_values_and_order_but_no_size() {
        let (a, b) = (train_inputs(1), train_inputs(2));
        assert_eq!(a.initial.len(), TRAIN_PARAMS);
        assert_eq!(b.initial.len(), TRAIN_PARAMS);
        assert_eq!((a.grads.len(), b.grads.len()), (GRAD_SETS, GRAD_SETS));
        assert_ne!(a.grads[0].as_slice()[..64], b.grads[0].as_slice()[..64]);

        let (a, b) = (sim_inputs(1), sim_inputs(2));
        assert_ne!(
            a.iter().map(|s| s.json.as_str()).collect::<Vec<_>>(),
            b.iter().map(|s| s.json.as_str()).collect::<Vec<_>>()
        );
        for inputs in [&a, &b] {
            let mut indices: Vec<usize> = inputs.iter().map(|s| s.index).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..6).collect::<Vec<_>>());
        }

        let (a, b) = (lab_files(1), lab_files(2));
        assert_ne!(a.tasks_jsonl, b.tasks_jsonl);
        assert_eq!(lens(&a), (LAB_TASK_LINES, LAB_VARIANTS + 1));
        assert_eq!(lens(&a), lens(&b));
    }

    #[test]
    fn gradient_values_are_centred_with_the_asked_spread() {
        let t = Rng::new(3).normal_tensor(1 << 16, 0.01);
        let mean = t.as_slice().iter().map(|&x| f64::from(x)).sum::<f64>() / t.len() as f64;
        let var = t.as_slice().iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / t.len() as f64;
        assert!(mean.abs() < 2e-4, "mean {mean}");
        assert!((var.sqrt() - 0.01).abs() < 5e-4, "std {}", var.sqrt());
    }
}
