//! # llm — transformer model zoo, machine specs and workload accounting
//!
//! The performance of storage-offloaded training is almost entirely
//! determined by a handful of scalar quantities: how many parameters the
//! model has (traffic ∝ #params), how many FLOPs one iteration costs (GPU
//! time), and the speeds and prices of the devices involved. This crate
//! provides those numbers for the models and machines the paper evaluates:
//!
//! * [`ModelConfig`] — GPT-2, BERT, BLOOM and ViT configurations with exact
//!   parameter-count and FLOP formulas, including constructors that hit the
//!   paper's headline sizes (4.0B, 8.4B, …, 33.0B).
//! * [`GpuSpec`] / [`CpuSpec`] — the A5000 / A100 / A4000 GPUs and the host
//!   CPU (AVX-optimised DeepSpeed update kernel) used in the evaluation.
//! * [`Workload`] — per-iteration byte and FLOP accounting in the paper's
//!   "M" units (M = FP16 model bytes), reproducing Table I.
//! * [`CostModel`] — the component price list behind the GFLOPS/$ study
//!   (Fig. 15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod machine;
mod model;
mod workload;

pub use cost::CostModel;
pub use machine::{CpuSpec, GpuSpec};
pub use model::{ModelConfig, ModelFamily};
pub use workload::Workload;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_models_have_expected_sizes() {
        // The named constructors must land within 5% of their nominal size.
        for (model, nominal_b) in [
            (ModelConfig::gpt2_4b(), 4.0),
            (ModelConfig::gpt2_8_4b(), 8.4),
            (ModelConfig::gpt2_33b(), 33.0),
            (ModelConfig::bert_4b(), 4.0),
            (ModelConfig::bert_8_3b(), 8.3),
            (ModelConfig::bloom_7_1b(), 7.1),
        ] {
            let billions = model.num_params() as f64 / 1e9;
            let rel = (billions - nominal_b).abs() / nominal_b;
            assert!(rel < 0.05, "{}: {billions:.2}B vs nominal {nominal_b}B", model.name());
        }
    }

    #[test]
    fn workload_traffic_matches_table_one() {
        let model = ModelConfig::gpt2_4b();
        let w = Workload::new(model, 4, 1024);
        // Optimizer states (Adam): 6M; gradients: 2M, in units of M = 2 bytes/param.
        let m = w.model_bytes_fp16() as f64;
        assert!(
            (w.optimizer_state_bytes(optim::OptimizerKind::Adam) as f64 / m - 6.0).abs() < 1e-9
        );
        assert!((w.gradient_bytes() as f64 / m - 2.0).abs() < 1e-9);
    }
}
