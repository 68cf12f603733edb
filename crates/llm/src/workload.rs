//! Per-iteration byte and FLOP accounting for one training workload.

use crate::model::ModelConfig;
use optim::OptimizerKind;
use serde::{Deserialize, Serialize};

/// A training workload: a model plus the batch shape.
///
/// This is the object from which every traffic number in the paper's Table I
/// is derived. All byte quantities use the paper's convention: `M` denotes
/// the FP16 model size (2 bytes per parameter), gradients travel in FP32
/// (`2M`) and Adam's optimizer states occupy `6M` (FP32 master copy,
/// momentum and variance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    model: ModelConfig,
    batch_size: usize,
    seq_len: usize,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if the batch size or sequence length is zero, or if the
    /// sequence length exceeds the model's maximum.
    pub fn new(model: ModelConfig, batch_size: usize, seq_len: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(seq_len > 0, "sequence length must be positive");
        assert!(
            seq_len <= model.max_seq_len(),
            "sequence length {seq_len} exceeds the model maximum {}",
            model.max_seq_len()
        );
        Self { model, batch_size, seq_len }
    }

    /// The paper's default batch shape (batch size 4, full context).
    pub fn paper_default(model: ModelConfig) -> Self {
        let seq = model.max_seq_len();
        Self::new(model, 4, seq)
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Tokens processed per iteration.
    pub(crate) fn tokens_per_iteration(&self) -> usize {
        self.batch_size * self.seq_len
    }

    /// FP16 model size in bytes (the paper's `M`).
    pub fn model_bytes_fp16(&self) -> u64 {
        2 * self.model.num_params()
    }

    /// FP32 gradient size in bytes (`2M`): ZeRO-Infinity's offload engine
    /// handles gradients in 32 bits.
    pub fn gradient_bytes(&self) -> u64 {
        4 * self.model.num_params()
    }

    /// Optimizer state bytes (`6M` for Adam, `4M` for SGD/AdaGrad).
    pub fn optimizer_state_bytes(&self, kind: OptimizerKind) -> u64 {
        kind.state_bytes_per_param() as u64 * self.model.num_params()
    }

    /// Forward-pass FLOPs for one iteration.
    pub fn forward_flops(&self) -> f64 {
        self.model.flops_per_token_forward(self.seq_len) * self.tokens_per_iteration() as f64
    }

    /// Backward-pass FLOPs for one iteration (≈ 2× forward).
    pub(crate) fn backward_flops(&self) -> f64 {
        2.0 * self.forward_flops()
    }

    /// Total training FLOPs for one iteration.
    pub fn training_flops(&self) -> f64 {
        self.forward_flops() + self.backward_flops()
    }

    /// Per-block FP16 parameter bytes, in the block order used by the offload
    /// engines (layer-wise, embeddings folded into the first block).
    pub fn block_bytes_fp16(&self) -> Vec<u64> {
        self.model.block_param_counts().iter().map(|p| 2 * p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    #[test]
    fn byte_accounting_uses_the_papers_m_units() {
        let w = Workload::new(ModelConfig::gpt2_0_34b(), 4, 1024);
        let p = w.model().num_params();
        assert_eq!(w.model_bytes_fp16(), 2 * p);
        assert_eq!(w.gradient_bytes(), 4 * p);
        assert_eq!(w.optimizer_state_bytes(OptimizerKind::Adam), 12 * p);
        assert_eq!(w.optimizer_state_bytes(OptimizerKind::SgdMomentum), 8 * p);
        assert_eq!(w.optimizer_state_bytes(OptimizerKind::AdaGrad), 8 * p);
    }

    #[test]
    fn flops_split_one_third_forward_two_thirds_backward() {
        let w = Workload::paper_default(ModelConfig::gpt2_4b());
        assert_eq!(w.batch_size(), 4);
        assert_eq!(w.seq_len(), 1024);
        assert_eq!(w.tokens_per_iteration(), 4096);
        assert!((w.backward_flops() / w.forward_flops() - 2.0).abs() < 1e-12);
        assert!((w.training_flops() / w.forward_flops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn block_bytes_sum_to_model_bytes() {
        let w = Workload::paper_default(ModelConfig::bert_4b());
        let blocks = w.block_bytes_fp16();
        assert_eq!(blocks.iter().sum::<u64>(), w.model_bytes_fp16());
        assert_eq!(blocks.len(), 50, "one block per BERT-4.0B layer");
    }

    #[test]
    #[should_panic(expected = "exceeds the model maximum")]
    fn too_long_sequence_panics() {
        Workload::new(ModelConfig::bert_0_34b(), 4, 4096);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        Workload::new(ModelConfig::gpt2_0_34b(), 0, 128);
    }
}
