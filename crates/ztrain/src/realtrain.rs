//! A small, genuinely trained classifier used for the accuracy studies.
//!
//! The paper's fine-tuning experiments (Table IV, Fig. 16) demonstrate two
//! claims: SmartUpdate is accuracy-neutral (it is bit-identical to the
//! baseline) and SmartComp's lossy Top-K gradient compression barely moves
//! the fine-tuning accuracy across compression ratios from 10% down to 1%.
//! The first claim is established by the equivalence tests; this module
//! reproduces the second on real optimisation runs: a two-layer MLP
//! classifier trained on synthetic Gaussian-mixture "GLUE-like" tasks by
//! [`train_classifier`], which steps the in-storage [`PipelinedTrainer`]
//! itself. Gradients are taken at its FP16 working copy and, with a keep
//! ratio, each CSD lane Top-K compresses its own shard's gradients with its
//! own error feedback, and the CSD decompresses them into its update:
//! SmartComp's dataflow, not a model of it.

use optim::{HyperParams, Optimizer, OptimizerKind};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use tensorlib::FlatTensor;

use crate::functional::GradientSource;
use crate::{PipelinedTrainer, StepPlan, TrainError, Trainer};

/// A two-layer MLP classifier over flat parameters.
///
/// Parameter layout (flattened, in order): `W1 [input×hidden]`, `b1 [hidden]`,
/// `W2 [hidden×classes]`, `b2 [classes]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpModel {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl MlpModel {
    /// Creates a model description.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(input_dim: usize, hidden_dim: usize, num_classes: usize) -> Self {
        assert!(input_dim > 0 && hidden_dim > 0 && num_classes > 0, "dimensions must be positive");
        Self { input_dim, hidden_dim, num_classes }
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.input_dim * self.hidden_dim
            + self.hidden_dim
            + self.hidden_dim * self.num_classes
            + self.num_classes
    }

    /// Xavier-style random initialisation.
    pub fn init_params(&self, seed: u64) -> FlatTensor {
        let w1_scale = (2.0 / (self.input_dim + self.hidden_dim) as f32).sqrt();
        let w2_scale = (2.0 / (self.hidden_dim + self.num_classes) as f32).sqrt();
        let mut params = FlatTensor::zeros(self.num_params());
        let w1 = FlatTensor::randn(self.input_dim * self.hidden_dim, w1_scale, seed);
        let w2 =
            FlatTensor::randn(self.hidden_dim * self.num_classes, w2_scale, seed.wrapping_add(1));
        params.write_slice(0, w1.as_slice());
        params.write_slice(self.w2_offset(), w2.as_slice());
        params
    }

    fn b1_offset(&self) -> usize {
        self.input_dim * self.hidden_dim
    }

    fn w2_offset(&self) -> usize {
        self.b1_offset() + self.hidden_dim
    }

    fn b2_offset(&self) -> usize {
        self.w2_offset() + self.hidden_dim * self.num_classes
    }

    /// The forward pass of one sample `xi`: the ReLU activations into
    /// `hidden` and the class logits into `logits`.
    fn forward(&self, p: &[f32], xi: &[f32], hidden: &mut [f32], logits: &mut [f32]) {
        let (h, c) = (self.hidden_dim, self.num_classes);
        for (j, hj) in hidden.iter_mut().enumerate() {
            let mut acc = p[self.b1_offset() + j];
            for (k, &xk) in xi.iter().enumerate() {
                acc += xk * p[k * h + j];
            }
            *hj = acc.max(0.0); // ReLU
        }
        for (cls, logit) in logits.iter_mut().enumerate() {
            let mut acc = p[self.b2_offset() + cls];
            for (j, &hj) in hidden.iter().enumerate() {
                acc += hj * p[self.w2_offset() + j * c + cls];
            }
            *logit = acc;
        }
    }

    /// Mean cross-entropy loss and its gradient with respect to the flat
    /// parameters, for a batch `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes are inconsistent.
    pub(crate) fn loss_and_grad(
        &self,
        params: &FlatTensor,
        x: &[f32],
        y: &[usize],
    ) -> (f32, FlatTensor) {
        let n = y.len();
        assert!(n > 0, "batch must be non-empty");
        assert_eq!(x.len(), n * self.input_dim, "feature shape mismatch");
        let p = params.as_slice();
        let (h, c) = (self.hidden_dim, self.num_classes);
        let mut grad = FlatTensor::zeros(self.num_params());
        let g = grad.as_mut_slice();
        let mut total_loss = 0.0f64;
        let mut hidden = vec![0.0f32; h];
        let mut probs = vec![0.0f32; c];
        for i in 0..n {
            let xi = &x[i * self.input_dim..(i + 1) * self.input_dim];
            self.forward(p, xi, &mut hidden, &mut probs);
            let max_logit = probs.iter().fold(f32::NEG_INFINITY, |max, &l| max.max(l));
            let mut denom = 0.0f32;
            for prob in probs.iter_mut() {
                *prob = (*prob - max_logit).exp();
                denom += *prob;
            }
            for prob in probs.iter_mut() {
                *prob /= denom;
            }
            total_loss += -(probs[y[i]].max(1e-12).ln()) as f64;
            // Backward: dL/dlogit = prob - onehot.
            for cls in 0..c {
                let dlogit = (probs[cls] - if cls == y[i] { 1.0 } else { 0.0 }) / n as f32;
                g[self.b2_offset() + cls] += dlogit;
                for (j, &hj) in hidden.iter().enumerate() {
                    g[self.w2_offset() + j * c + cls] += dlogit * hj;
                }
            }
            // Backprop into the hidden layer.
            for (j, &hj) in hidden.iter().enumerate() {
                if hj <= 0.0 {
                    continue; // ReLU gate
                }
                let mut dh = 0.0f32;
                for cls in 0..c {
                    let dlogit = (probs[cls] - if cls == y[i] { 1.0 } else { 0.0 }) / n as f32;
                    dh += dlogit * p[self.w2_offset() + j * c + cls];
                }
                g[self.b1_offset() + j] += dh;
                for (k, &xk) in xi.iter().enumerate() {
                    g[k * h + j] += dh * xk;
                }
            }
        }
        ((total_loss / n as f64) as f32, grad)
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, params: &FlatTensor, x: &[f32], y: &[usize]) -> f64 {
        if y.is_empty() {
            return 0.0;
        }
        let (mut hidden, mut logits) = (vec![0.0; self.hidden_dim], vec![0.0; self.num_classes]);
        let correct = (y.iter().enumerate())
            .filter(|&(i, &label)| {
                let xi = &x[i * self.input_dim..(i + 1) * self.input_dim];
                self.forward(params.as_slice(), xi, &mut hidden, &mut logits);
                let pred = (logits.iter().enumerate())
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or(0, |(idx, _)| idx);
                pred == label
            })
            .count();
        correct as f64 / y.len() as f64
    }
}

/// A synthetic classification dataset (train + test split).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Task name (for reporting).
    pub name: String,
    /// Feature dimension.
    pub input_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Training features, row-major `n × input_dim`.
    pub train_x: Vec<f32>,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Held-out features.
    pub test_x: Vec<f32>,
    /// Held-out labels.
    pub test_y: Vec<usize>,
}

impl Dataset {
    /// Generates a Gaussian-mixture classification task: `num_classes`
    /// cluster centres in `input_dim` dimensions, samples perturbed with
    /// isotropic noise. Higher `noise` makes the task harder (lower
    /// achievable accuracy), which is how the different GLUE-like tasks are
    /// distinguished.
    pub fn gaussian_blobs(
        name: &str,
        samples_per_class: usize,
        input_dim: usize,
        num_classes: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let centres: Vec<f32> =
            (0..num_classes * input_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut samples: Vec<(Vec<f32>, usize)> = Vec::new();
        for class in 0..num_classes {
            for _ in 0..samples_per_class {
                let x: Vec<f32> = (0..input_dim)
                    .map(|d| {
                        centres[class * input_dim + d]
                            + noise * (rng.gen_range(-1.0f32..1.0) + rng.gen_range(-1.0f32..1.0))
                    })
                    .collect();
                samples.push((x, class));
            }
        }
        samples.shuffle(&mut rng);
        let split = samples.len() * 4 / 5;
        let (train, test) = samples.split_at(split);
        let flatten = |rows: &[(Vec<f32>, usize)]| {
            let mut x = Vec::with_capacity(rows.len() * input_dim);
            let mut y = Vec::with_capacity(rows.len());
            for (features, label) in rows {
                x.extend_from_slice(features);
                y.push(*label);
            }
            (x, y)
        };
        let (train_x, train_y) = flatten(train);
        let (test_x, test_y) = flatten(test);
        Self { name: name.to_string(), input_dim, num_classes, train_x, train_y, test_x, test_y }
    }

    /// The four GLUE-like tasks used by the Table IV reproduction, with
    /// difficulties chosen to span the same accuracy range as the paper's
    /// MNLI / QQP / SST-2 / QNLI results.
    pub fn glue_like_suite(seed: u64) -> Vec<Dataset> {
        vec![
            Dataset::gaussian_blobs("MNLI-like", 300, 24, 3, 1.35, seed),
            Dataset::gaussian_blobs("QQP-like", 400, 16, 2, 1.05, seed + 1),
            Dataset::gaussian_blobs("SST2-like", 400, 12, 2, 0.85, seed + 2),
            Dataset::gaussian_blobs("QNLI-like", 300, 16, 2, 0.95, seed + 3),
        ]
    }

    /// Number of training samples.
    pub(crate) fn train_len(&self) -> usize {
        self.train_y.len()
    }
}

/// Configuration of one fine-tuning run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper fixes 4).
    pub batch_size: usize,
    /// Optimizer algorithm.
    pub optimizer: OptimizerKind,
    /// Learning rate.
    pub lr: f32,
    /// If set, each CSD Top-K compresses its shard's gradients (with its
    /// error feedback) to this keep ratio before the update — SmartComp.
    /// `None` trains with exact gradients (baseline / SmartUpdate).
    pub keep_ratio: Option<f64>,
    /// RNG seed for initialisation and mini-batch sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 4,
            optimizer: OptimizerKind::Adam,
            lr: 5e-3,
            keep_ratio: None,
            seed: 0,
        }
    }
}

/// Result of one fine-tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainResult {
    /// Final accuracy on the held-out split.
    pub test_accuracy: f64,
    /// Final accuracy on the training split.
    pub train_accuracy: f64,
    /// Gradient bytes that crossed the host interconnect over the dense
    /// FP32 volume, `Σ StepReport::gradient_bytes / (steps · 4 · params)`
    /// (1.0 without compression).
    pub transfer_ratio: f64,
}

/// The storage devices of every Table IV run: the table's speedup machine
/// has six, so six CSDs each compress and update their own shard.
pub const TABLE_IV_DEVICES: usize = 6;

/// Fine-tunes `model` on `dataset` and reports the held-out accuracy.
///
/// It builds the trainer `smart_infinity::Session::trainer` builds for
/// SU+O+C (SU+O without a keep ratio): [`PipelinedTrainer::new`] over
/// [`TABLE_IV_DEVICES`] CSDs with the [`StepPlan`] default unit, each lane
/// Top-K compressing its shard when `config.keep_ratio` is set. It does not
/// go through `Session`, because `ztrain` sits below it and a `RunSpec`
/// carries no learning rate for the fine-tune. The trainer takes `epochs ×
/// ⌈train_len / batch_size⌉` steps from an [`MlpGradientSource`], whose
/// gradients are taken at the FP16 working copy, and the accuracies are
/// read from the FP32 master copy.
///
/// # Errors
///
/// Returns [`TrainError::Config`] if the model's input dimension or class
/// count differs from the dataset's, the batch is empty or the keep ratio is
/// not in `(0, 1]`, and the trainer's error if a step fails.
pub fn train_classifier(
    model: &MlpModel,
    dataset: &Dataset,
    config: &TrainConfig,
) -> Result<TrainResult, TrainError> {
    if (model.input_dim, model.num_classes) != (dataset.input_dim, dataset.num_classes) {
        return Err(TrainError::config(format!(
            "a model of {} inputs and {} classes does not fit `{}`, of {} and {}",
            model.input_dim,
            model.num_classes,
            dataset.name,
            dataset.input_dim,
            dataset.num_classes
        )));
    }
    if config.batch_size == 0 {
        return Err(TrainError::config("the batch size must be positive"));
    }
    let n = model.num_params();
    let optimizer =
        Optimizer::new(config.optimizer, HyperParams { lr: config.lr, ..Default::default() });
    let unit = StepPlan::cut_into(n, TABLE_IV_DEVICES, None)?.unit_elems();
    let initial = model.init_params(config.seed);
    let mut trainer = PipelinedTrainer::new(&initial, optimizer, TABLE_IV_DEVICES, unit)?;
    if let Some(keep) = config.keep_ratio {
        trainer = trainer.with_compression(keep)?;
    }
    let seed = config.seed.wrapping_add(17);
    let mut source = MlpGradientSource::new(*model, dataset.clone(), config.batch_size, seed);
    let steps = config.epochs * dataset.train_len().div_ceil(config.batch_size);
    let mut gradient_bytes = 0;
    for _ in 0..steps {
        gradient_bytes += trainer.step_from(&mut source)?.gradient_bytes;
    }
    let master = trainer.master_params()?;
    Ok(TrainResult {
        test_accuracy: model.accuracy(&master, &dataset.test_x, &dataset.test_y),
        train_accuracy: model.accuracy(&master, &dataset.train_x, &dataset.train_y),
        transfer_ratio: gradient_bytes as f64 / (4 * steps * n).max(1) as f64,
    })
}

/// A [`GradientSource`] backed by a real MLP on a real dataset, so the
/// functional offload engines can be driven by genuine gradients.
#[derive(Debug, Clone)]
pub struct MlpGradientSource {
    model: MlpModel,
    dataset: Dataset,
    batch_size: usize,
    rng: ChaCha8Rng,
}

impl MlpGradientSource {
    /// Creates a gradient source drawing random mini-batches from `dataset`.
    pub fn new(model: MlpModel, dataset: Dataset, batch_size: usize, seed: u64) -> Self {
        Self { model, dataset, batch_size, rng: ChaCha8Rng::seed_from_u64(seed) }
    }
}

impl GradientSource for MlpGradientSource {
    fn num_params(&self) -> usize {
        self.model.num_params()
    }

    fn gradients(&mut self, _step: u64, params_fp16: &FlatTensor) -> FlatTensor {
        let n = self.dataset.train_len();
        let mut x = Vec::with_capacity(self.batch_size * self.dataset.input_dim);
        let mut y = Vec::with_capacity(self.batch_size);
        for _ in 0..self.batch_size {
            let i = self.rng.gen_range(0..n);
            x.extend_from_slice(
                &self.dataset.train_x[i * self.dataset.input_dim..(i + 1) * self.dataset.input_dim],
            );
            y.push(self.dataset.train_y[i]);
        }
        let (_, grads) = self.model.loss_and_grad(params_fp16, &x, &y);
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_matches_finite_differences() {
        let model = MlpModel::new(4, 6, 3);
        let params = model.init_params(1);
        let x: Vec<f32> = (0..8).map(|i| (i as f32) / 8.0 - 0.5).collect();
        let y = vec![0usize, 2];
        let (_, grad) = model.loss_and_grad(&params, &x, &y);
        let eps = 1e-3f32;
        for &idx in &[0usize, 5, model.num_params() - 1, model.num_params() / 2] {
            let mut plus = params.clone();
            plus.as_mut_slice()[idx] += eps;
            let (lp, _) = model.loss_and_grad(&plus, &x, &y);
            let mut minus = params.clone();
            minus.as_mut_slice()[idx] -= eps;
            let (lm, _) = model.loss_and_grad(&minus, &x, &y);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_reaches_high_accuracy_on_an_easy_task() {
        let dataset = Dataset::gaussian_blobs("easy", 150, 8, 3, 0.15, 42);
        let model = MlpModel::new(8, 16, 3);
        let result = train_classifier(&model, &dataset, &TrainConfig::default()).unwrap();
        assert!(result.test_accuracy > 0.9, "accuracy {:.3}", result.test_accuracy);
        assert!(result.train_accuracy >= result.test_accuracy - 0.1);
        assert_eq!(result.transfer_ratio, 1.0);
    }

    #[test]
    fn compressed_training_stays_close_to_exact_training() {
        let dataset = Dataset::gaussian_blobs("medium", 200, 16, 2, 0.4, 7);
        let model = MlpModel::new(16, 24, 2);
        let exact = train_classifier(&model, &dataset, &TrainConfig::default()).unwrap();
        let compressed = train_classifier(
            &model,
            &dataset,
            &TrainConfig { keep_ratio: Some(0.05), epochs: 4, ..TrainConfig::default() },
        )
        .unwrap();
        assert!(compressed.transfer_ratio < 0.11);
        assert!(
            compressed.test_accuracy > exact.test_accuracy - 0.06,
            "exact {:.3} vs compressed {:.3}",
            exact.test_accuracy,
            compressed.test_accuracy
        );
    }

    /// Each CSD keeps the Top-K of its own shard (5 % rounded, at least one)
    /// and sends 8 bytes per kept element, so the measured ratio is the sum
    /// over shards, not 2 × the keep ratio (0.1): 458 parameters on six CSDs
    /// are shards of 77, 77, 76, 76, 76 and 76, which keep 4 each, so 24 · 8 B
    /// of 4 · 458 B a step.
    #[test]
    fn the_transfer_ratio_is_measured_per_shard() {
        let dataset = Dataset::gaussian_blobs("medium", 200, 16, 2, 0.4, 7);
        let model = MlpModel::new(16, 24, 2);
        assert_eq!(model.num_params(), 458);
        let config = TrainConfig { keep_ratio: Some(0.05), epochs: 1, ..TrainConfig::default() };
        let result = train_classifier(&model, &dataset, &config).unwrap();
        let plan = StepPlan::cut_into(458, TABLE_IV_DEVICES, None).unwrap();
        let shards: Vec<usize> = (0..TABLE_IV_DEVICES).map(|lane| plan.lane(lane).len()).collect();
        assert_eq!(shards, [77, 77, 76, 76, 76, 76]);
        assert_eq!(result.transfer_ratio, (8 * 24) as f64 / (4 * 458) as f64);
        assert!((result.transfer_ratio - 0.1048).abs() < 1e-4, "{}", result.transfer_ratio);
    }

    #[test]
    fn a_model_that_does_not_fit_the_dataset_is_a_config_error() {
        let dataset = Dataset::gaussian_blobs("t", 20, 8, 2, 0.3, 9);
        for model in [MlpModel::new(7, 4, 2), MlpModel::new(8, 4, 3)] {
            let err = train_classifier(&model, &dataset, &TrainConfig::default()).unwrap_err();
            assert!(matches!(err, TrainError::Config { .. }), "{err}");
            assert!(err.to_string().contains("does not fit `t`"), "{err}");
        }
        let empty_batch = TrainConfig { batch_size: 0, ..TrainConfig::default() };
        let err = train_classifier(&MlpModel::new(8, 4, 2), &dataset, &empty_batch).unwrap_err();
        assert!(matches!(err, TrainError::Config { .. }), "{err}");
    }

    #[test]
    fn dataset_generation_is_deterministic_and_split() {
        let a = Dataset::gaussian_blobs("t", 100, 8, 2, 0.3, 9);
        let b = Dataset::gaussian_blobs("t", 100, 8, 2, 0.3, 9);
        assert_eq!(a, b);
        assert_eq!(a.train_len() + a.test_y.len(), 200);
        assert!(a.train_len() > a.test_y.len());
        assert_eq!(a.train_x.len(), a.train_len() * 8);
        let suite = Dataset::glue_like_suite(1);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[0].name, "MNLI-like");
    }

    #[test]
    fn mlp_gradient_source_produces_finite_gradients() {
        let dataset = Dataset::gaussian_blobs("t", 50, 8, 2, 0.3, 3);
        let model = MlpModel::new(8, 8, 2);
        let mut source = MlpGradientSource::new(model, dataset, 4, 5);
        let params = model.init_params(0);
        let g = source.gradients(1, &params);
        assert_eq!(g.len(), model.num_params());
        assert!(!g.has_nan_or_inf());
        assert!(g.l2_norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        MlpModel::new(0, 4, 2);
    }
}
