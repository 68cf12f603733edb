//! Transformer model configurations and parameter/FLOP accounting.

use serde::{Deserialize, Serialize};

/// The model family (they only differ in vocabulary/sequence defaults and in
/// how the paper labels them; the parameter-count formula is shared because
/// "modern LLM models are all based on Transformers and only differ in some
/// model design parameters", paper Section VII-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// Decoder-only language model (GPT-2 family).
    Gpt2,
    /// Encoder-only language model (BERT family).
    Bert,
    /// Decoder-only multilingual model with a large vocabulary (BLOOM family).
    Bloom,
    /// Vision transformer (ViT family); negligible vocabulary, patch embedding instead.
    Vit,
}

/// A transformer configuration: enough structure to compute parameter counts,
/// per-token FLOPs and layer-wise blocks, which is all the offloading engines
/// need (they never materialise the multi-billion-parameter weights).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    name: String,
    family: ModelFamily,
    num_layers: usize,
    hidden_size: usize,
    num_heads: usize,
    vocab_size: usize,
    max_seq_len: usize,
}

impl ModelConfig {
    /// Creates a configuration from explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the hidden size is not divisible by
    /// the number of heads.
    pub fn new(
        name: impl Into<String>,
        family: ModelFamily,
        num_layers: usize,
        hidden_size: usize,
        num_heads: usize,
        vocab_size: usize,
        max_seq_len: usize,
    ) -> Self {
        assert!(num_layers > 0 && hidden_size > 0 && num_heads > 0, "dimensions must be positive");
        assert!(
            hidden_size % num_heads == 0,
            "hidden size {hidden_size} must be divisible by {num_heads} heads"
        );
        Self {
            name: name.into(),
            family,
            num_layers,
            hidden_size,
            num_heads,
            vocab_size,
            max_seq_len,
        }
    }

    // ----- GPT-2 family (decoder-only, GPT-2 vocabulary) ------------------

    fn gpt2(name: &str, layers: usize, hidden: usize) -> Self {
        Self::new(name, ModelFamily::Gpt2, layers, hidden, hidden / 64, 50_257, 1024)
    }

    /// GPT-2 0.34B (GPT-2 medium, used in the fine-tuning study).
    pub fn gpt2_0_34b() -> Self {
        Self::gpt2("GPT2-0.34B", 24, 1024)
    }
    /// GPT-2 0.77B (GPT-2 large, fine-tuning study).
    pub fn gpt2_0_77b() -> Self {
        Self::gpt2("GPT2-0.77B", 36, 1280)
    }
    /// GPT-2 1.16B (congested-topology study, Fig. 17).
    pub fn gpt2_1_16b() -> Self {
        Self::gpt2("GPT2-1.16B", 24, 1920)
    }
    /// GPT-2 1.6B (GPT-2 XL, fine-tuning study).
    pub fn gpt2_1_6b() -> Self {
        Self::gpt2("GPT2-1.6B", 48, 1600)
    }
    /// GPT-2 1.7B (accelerator-throughput study, Fig. 14).
    pub fn gpt2_1_7b() -> Self {
        Self::gpt2("GPT2-1.7B", 24, 2368)
    }
    /// GPT-2 2.5B (motivation study, Fig. 3a).
    pub fn gpt2_2_5b() -> Self {
        Self::gpt2("GPT2-2.5B", 54, 1920)
    }
    /// GPT-2 4.0B (default speedup experiments, Fig. 9/11).
    pub fn gpt2_4b() -> Self {
        Self::gpt2("GPT2-4.0B", 50, 2560)
    }
    /// GPT-2 8.3B (motivation study, Fig. 3a).
    pub fn gpt2_8_3b() -> Self {
        Self::gpt2("GPT2-8.3B", 72, 3072)
    }
    /// GPT-2 8.4B (speedup experiments, Fig. 9).
    pub fn gpt2_8_4b() -> Self {
        Self::gpt2("GPT2-8.4B", 73, 3072)
    }
    /// GPT-2 16.6B (larger-model scalability, Fig. 10).
    pub fn gpt2_16_6b() -> Self {
        Self::gpt2("GPT2-16.6B", 93, 3840)
    }
    /// GPT-2 20.5B (motivation study, Fig. 3a).
    pub fn gpt2_20_5b() -> Self {
        Self::gpt2("GPT2-20.5B", 100, 4096)
    }
    /// GPT-2 24.8B (larger-model scalability, Fig. 10).
    pub fn gpt2_24_8b() -> Self {
        Self::gpt2("GPT2-24.8B", 122, 4096)
    }
    /// GPT-2 33.0B (larger-model scalability, Fig. 10).
    pub fn gpt2_33b() -> Self {
        Self::gpt2("GPT2-33.0B", 118, 4800)
    }

    // ----- BERT family (encoder-only, WordPiece vocabulary) ---------------

    fn bert(name: &str, layers: usize, hidden: usize) -> Self {
        Self::new(name, ModelFamily::Bert, layers, hidden, hidden / 64, 30_522, 512)
    }

    /// BERT 0.34B (BERT-large / Megatron BERT-345M, fine-tuning study).
    pub fn bert_0_34b() -> Self {
        Self::bert("BERT-0.34B", 24, 1024)
    }
    /// BERT 4.0B (speedup experiments, Fig. 9).
    pub fn bert_4b() -> Self {
        Self::bert("BERT-4.0B", 50, 2560)
    }
    /// BERT 8.3B (speedup experiments, Fig. 9).
    pub fn bert_8_3b() -> Self {
        Self::bert("BERT-8.3B", 72, 3072)
    }

    // ----- BLOOM family (decoder-only, 250k multilingual vocabulary) ------

    fn bloom(name: &str, layers: usize, hidden: usize) -> Self {
        Self::new(name, ModelFamily::Bloom, layers, hidden, hidden / 128, 250_880, 2048)
    }

    /// BLOOM 3B (other-model study, Fig. 13).
    pub fn bloom_3b() -> Self {
        Self::bloom("BLOOM-3B", 30, 2560)
    }
    /// BLOOM 7.1B (other-model study, Fig. 13).
    pub fn bloom_7_1b() -> Self {
        Self::bloom("BLOOM-7.1B", 30, 4096)
    }

    // ----- ViT family (vision transformer, patch embedding) ---------------

    fn vit(name: &str, layers: usize, hidden: usize) -> Self {
        // "Vocabulary" models the patch-embedding projection (3*16*16 = 768 inputs).
        Self::new(name, ModelFamily::Vit, layers, hidden, hidden / 64, 768, 257)
    }

    /// ViT 0.30B (ViT-Large scale, Fig. 13).
    pub fn vit_0_30b() -> Self {
        Self::vit("ViT-0.30B", 24, 1024)
    }
    /// ViT 0.63B (ViT-Huge scale, Fig. 13).
    pub fn vit_0_63b() -> Self {
        Self::vit("ViT-0.63B", 32, 1280)
    }

    /// The parameter counts [`ModelConfig::gpt2_scaled`] accepts: one
    /// million to one trillion. The shape arithmetic overflows far above
    /// the top; the largest preset is 33 B.
    pub const SCALED_PARAMS: std::ops::RangeInclusive<f64> = 1e6..=1e12;

    /// A GPT-2-family configuration scaled to approximately `target_params`
    /// parameters (used for sweeps over arbitrary sizes).
    ///
    /// # Panics
    ///
    /// Panics if `target_params` is outside [`ModelConfig::SCALED_PARAMS`].
    pub fn gpt2_scaled(target_params: f64) -> Self {
        assert!(
            Self::SCALED_PARAMS.contains(&target_params),
            "target must be one million to one trillion parameters, got {target_params}"
        );
        // Fix the aspect ratio layers = hidden / 32 (Megatron-style) and solve
        // 12 * L * H^2 ~= target  =>  H = (target * 32 / 12)^(1/3).
        let hidden_f = (target_params * 32.0 / 12.0).powf(1.0 / 3.0);
        let hidden = ((hidden_f / 64.0).round() as usize).max(2) * 64;
        let layers = ((target_params - 50_257.0 * hidden as f64)
            / (12.0 * (hidden * hidden) as f64 + 13.0 * hidden as f64))
            .round()
            .max(1.0) as usize;
        let billions = target_params / 1e9;
        Self::gpt2(&format!("GPT2-{billions:.1}B"), layers, hidden)
    }

    /// Human-readable configuration name (e.g. `"GPT2-4.0B"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hidden (embedding) dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Maximum sequence length the model is configured for.
    pub(crate) fn max_seq_len(&self) -> usize {
        self.max_seq_len
    }

    /// Parameters in one transformer layer: 12·H² weights (QKV + output
    /// projection + two 4H MLP matrices) plus 13·H biases and layer norms.
    pub(crate) fn params_per_layer(&self) -> u64 {
        let h = self.hidden_size as u64;
        12 * h * h + 13 * h
    }

    /// Parameters in the embedding (token + position) and final layer norm.
    pub(crate) fn embedding_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        (self.vocab_size as u64) * h + (self.max_seq_len as u64) * h + 2 * h
    }

    /// Total parameter count.
    pub fn num_params(&self) -> u64 {
        self.params_per_layer() * self.num_layers as u64 + self.embedding_params()
    }

    /// Forward FLOPs for one token: ~2 FLOPs per parameter in the dense
    /// layers plus the attention score/context computation.
    pub(crate) fn flops_per_token_forward(&self, seq_len: usize) -> f64 {
        let dense = 2.0 * (self.params_per_layer() * self.num_layers as u64) as f64;
        let attention = 4.0 * self.num_layers as f64 * seq_len as f64 * self.hidden_size as f64;
        let embedding = 2.0 * self.hidden_size as f64 * self.vocab_size as f64;
        dense + attention + embedding
    }

    /// Splits the model into per-layer blocks (the unit the offload engines
    /// move between GPU, host memory and storage). The embedding parameters
    /// are folded into the first block.
    pub(crate) fn block_param_counts(&self) -> Vec<u64> {
        let mut blocks = vec![self.params_per_layer(); self.num_layers];
        blocks[0] += self.embedding_params();
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configs_match_their_nominal_sizes() {
        let cases: Vec<(ModelConfig, f64)> = vec![
            (ModelConfig::gpt2_0_34b(), 0.355),
            (ModelConfig::gpt2_0_77b(), 0.77),
            (ModelConfig::gpt2_1_16b(), 1.16),
            (ModelConfig::gpt2_1_6b(), 1.6),
            (ModelConfig::gpt2_1_7b(), 1.7),
            (ModelConfig::gpt2_2_5b(), 2.5),
            (ModelConfig::gpt2_4b(), 4.0),
            (ModelConfig::gpt2_8_3b(), 8.3),
            (ModelConfig::gpt2_8_4b(), 8.4),
            (ModelConfig::gpt2_16_6b(), 16.6),
            (ModelConfig::gpt2_20_5b(), 20.5),
            (ModelConfig::gpt2_24_8b(), 24.8),
            (ModelConfig::gpt2_33b(), 33.0),
            (ModelConfig::bert_0_34b(), 0.34),
            (ModelConfig::bert_4b(), 4.0),
            (ModelConfig::bert_8_3b(), 8.3),
            (ModelConfig::bloom_3b(), 3.0),
            (ModelConfig::bloom_7_1b(), 7.1),
            (ModelConfig::vit_0_30b(), 0.30),
            (ModelConfig::vit_0_63b(), 0.63),
        ];
        for (cfg, nominal) in cases {
            let billions = cfg.num_params() as f64 / 1e9;
            let rel = (billions - nominal).abs() / nominal;
            assert!(
                rel < 0.06,
                "{}: {billions:.3}B vs {nominal}B ({:.1}%)",
                cfg.name(),
                rel * 100.0
            );
        }
    }

    #[test]
    fn scaled_constructor_hits_arbitrary_targets() {
        for target in [0.5e9, 2.0e9, 6.0e9, 12.0e9, 40.0e9] {
            let cfg = ModelConfig::gpt2_scaled(target);
            let rel = (cfg.num_params() as f64 - target).abs() / target;
            assert!(rel < 0.10, "target {target}: got {} ({:.1}%)", cfg.num_params(), rel * 100.0);
        }
    }

    #[test]
    fn blocks_sum_to_total_params() {
        let cfg = ModelConfig::gpt2_4b();
        let blocks = cfg.block_param_counts();
        assert_eq!(blocks.len(), cfg.num_layers);
        assert_eq!(blocks.iter().sum::<u64>(), cfg.num_params());
        assert!(blocks[0] > blocks[1]); // embedding folded into the first block
    }

    #[test]
    fn flops_scale_with_model_and_sequence() {
        let small = ModelConfig::gpt2_0_34b();
        let large = ModelConfig::gpt2_4b();
        assert!(large.flops_per_token_forward(1024) > 5.0 * small.flops_per_token_forward(1024));
        assert!(small.flops_per_token_forward(2048) > small.flops_per_token_forward(512));
    }

    #[test]
    fn accessors_expose_configuration() {
        let cfg = ModelConfig::bloom_3b();
        assert_eq!(cfg.family, ModelFamily::Bloom);
        assert_eq!(cfg.num_layers, 30);
        assert_eq!(cfg.hidden_size(), 2560);
        assert_eq!(cfg.num_heads, 20);
        assert_eq!(cfg.vocab_size, 250_880);
        assert_eq!(cfg.max_seq_len(), 2048);
        assert_eq!(cfg.name(), "BLOOM-3B");
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn hidden_not_divisible_by_heads_panics() {
        ModelConfig::new("bad", ModelFamily::Gpt2, 2, 100, 3, 1000, 128);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_layers_panics() {
        ModelConfig::new("bad", ModelFamily::Gpt2, 0, 64, 1, 1000, 128);
    }
}
