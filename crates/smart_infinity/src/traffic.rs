//! Analytic per-iteration system-interconnect traffic accounting (paper Table I).

use crate::spec::MethodSpec;
use llm::Workload;
use optim::OptimizerKind;
use serde::{Deserialize, Serialize};

/// Which update scheme the traffic is accounted for.
///
/// Only three schemes are distinguishable on the interconnect — where the
/// update runs and whether the gradient stream is compressed; the handler
/// and pipelining axes move the *same* bytes at different times. Derive it
/// from a method via `TrafficMethod::from(&spec)` instead of re-mapping
/// methods by hand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficMethod {
    /// ZeRO-Infinity baseline: CPU update, optimizer states round-trip the
    /// shared interconnect every iteration.
    ZeroInfinity,
    /// SmartUpdate: the update runs in the CSDs; only gradients (down) and
    /// updated parameters (up) cross the shared interconnect.
    SmartUpdate,
    /// SmartUpdate + SmartComp with the given keep ratio (fraction of
    /// gradient elements transmitted; the transferred volume is twice that
    /// because every element carries an index and a value).
    SmartComp {
        /// Fraction of gradient elements kept by Top-K.
        keep_ratio: f64,
    },
}

/// The single source of the method → traffic-row mapping (paper Table I):
/// no in-storage update means the full ZeRO-Infinity state round trip,
/// compression scales the gradient stream, everything else is SmartUpdate.
impl From<&MethodSpec> for TrafficMethod {
    fn from(spec: &MethodSpec) -> Self {
        if !spec.uses_csds() {
            TrafficMethod::ZeroInfinity
        } else if let Some(keep_ratio) = spec.keep_ratio() {
            TrafficMethod::SmartComp { keep_ratio }
        } else {
            TrafficMethod::SmartUpdate
        }
    }
}

/// Bytes crossing the shared system interconnect in one iteration, split by
/// direction and content (the rows of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct InterconnectTraffic {
    /// Optimizer states read from storage into host memory.
    pub optimizer_read: f64,
    /// Optimizer states written from host memory to storage.
    pub optimizer_write: f64,
    /// Gradient bytes read from storage (baseline update) .
    pub gradient_read: f64,
    /// Gradient bytes written to storage (backward-pass offload).
    pub gradient_write: f64,
    /// Updated parameters transferred upstream to host memory (SmartUpdate only).
    pub parameter_upstream: f64,
}

impl InterconnectTraffic {
    /// Total bytes crossing the interconnect.
    pub fn total(&self) -> f64 {
        self.optimizer_read
            + self.optimizer_write
            + self.gradient_read
            + self.gradient_write
            + self.parameter_upstream
    }

    /// Expresses the traffic in the paper's `M` units, where `M` is the FP16
    /// model size in bytes.
    pub fn in_m_units(&self, model_bytes_fp16: f64) -> InterconnectTraffic {
        let scale = 1.0 / model_bytes_fp16;
        InterconnectTraffic {
            optimizer_read: self.optimizer_read * scale,
            optimizer_write: self.optimizer_write * scale,
            gradient_read: self.gradient_read * scale,
            gradient_write: self.gradient_write * scale,
            parameter_upstream: self.parameter_upstream * scale,
        }
    }
}

/// Computes the interconnect traffic of Table I for a workload and optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficModel {
    workload: Workload,
    optimizer: OptimizerKind,
}

impl TrafficModel {
    /// Creates a traffic model for a workload and optimizer.
    pub fn new(workload: Workload, optimizer: OptimizerKind) -> Self {
        Self { workload, optimizer }
    }

    /// The per-iteration interconnect traffic for one method.
    pub fn per_iteration(&self, method: TrafficMethod) -> InterconnectTraffic {
        let opt = self.workload.optimizer_state_bytes(self.optimizer) as f64;
        let grad = self.workload.gradient_bytes() as f64;
        let params_fp16 = self.workload.model_bytes_fp16() as f64;
        match method {
            TrafficMethod::ZeroInfinity => InterconnectTraffic {
                optimizer_read: opt,
                optimizer_write: opt,
                gradient_read: grad,
                gradient_write: grad,
                parameter_upstream: 0.0,
            },
            TrafficMethod::SmartUpdate => InterconnectTraffic {
                optimizer_read: 0.0,
                optimizer_write: 0.0,
                gradient_read: 0.0,
                gradient_write: grad,
                parameter_upstream: params_fp16,
            },
            TrafficMethod::SmartComp { keep_ratio } => {
                assert!(
                    keep_ratio > 0.0 && keep_ratio <= 1.0,
                    "keep ratio must be in (0, 1], got {keep_ratio}"
                );
                InterconnectTraffic {
                    optimizer_read: 0.0,
                    optimizer_write: 0.0,
                    gradient_read: 0.0,
                    gradient_write: grad * (2.0 * keep_ratio).min(1.0),
                    parameter_upstream: params_fp16,
                }
            }
        }
    }

    /// Reduction factor of total interconnect traffic relative to the baseline.
    pub fn reduction_over_baseline(&self, method: TrafficMethod) -> f64 {
        self.per_iteration(TrafficMethod::ZeroInfinity).total() / self.per_iteration(method).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::ModelConfig;

    fn model() -> TrafficModel {
        TrafficModel::new(Workload::paper_default(ModelConfig::gpt2_4b()), OptimizerKind::Adam)
    }

    #[test]
    fn baseline_row_matches_table_one() {
        let m = model();
        let fp16 = m.workload.model_bytes_fp16() as f64;
        let t = m.per_iteration(TrafficMethod::ZeroInfinity).in_m_units(fp16);
        assert!((t.optimizer_read - 6.0).abs() < 1e-9);
        assert!((t.optimizer_write - 6.0).abs() < 1e-9);
        assert!((t.gradient_read - 2.0).abs() < 1e-9);
        assert!((t.gradient_write - 2.0).abs() < 1e-9);
        assert_eq!(t.parameter_upstream, 0.0);
        assert!((t.total() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn smartupdate_row_matches_table_one() {
        let m = model();
        let fp16 = m.workload.model_bytes_fp16() as f64;
        let t = m.per_iteration(TrafficMethod::SmartUpdate).in_m_units(fp16);
        assert_eq!(t.optimizer_read, 0.0);
        assert_eq!(t.optimizer_write, 0.0);
        assert_eq!(t.gradient_read, 0.0);
        assert!((t.gradient_write - 2.0).abs() < 1e-9);
        assert!((t.parameter_upstream - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smartcomp_scales_the_gradient_write_by_the_transfer_ratio() {
        let m = model();
        let fp16 = m.workload.model_bytes_fp16() as f64;
        let t = m.per_iteration(TrafficMethod::SmartComp { keep_ratio: 0.01 }).in_m_units(fp16);
        assert!((t.gradient_write - 0.02 * 2.0).abs() < 1e-9);
        // keep everything -> identical to SmartUpdate.
        let full = m.per_iteration(TrafficMethod::SmartComp { keep_ratio: 0.5 });
        let su = m.per_iteration(TrafficMethod::SmartUpdate);
        assert!((full.gradient_write - su.gradient_write).abs() < 1e-3);
    }

    #[test]
    fn traffic_reduction_is_large() {
        let m = model();
        // Baseline moves 16M; SmartUpdate moves 3M (2M grads + 1M params up).
        let r = m.reduction_over_baseline(TrafficMethod::SmartUpdate);
        assert!((r - 16.0 / 3.0).abs() < 0.01, "reduction {r:.2}");
        let rc = m.reduction_over_baseline(TrafficMethod::SmartComp { keep_ratio: 0.01 });
        assert!(rc > 10.0, "compressed reduction {rc:.2}");
    }

    #[test]
    fn sgd_has_smaller_state_traffic_than_adam() {
        let w = Workload::paper_default(ModelConfig::gpt2_4b());
        let adam = TrafficModel::new(w.clone(), OptimizerKind::Adam)
            .per_iteration(TrafficMethod::ZeroInfinity)
            .total();
        let sgd = TrafficModel::new(w, OptimizerKind::SgdMomentum)
            .per_iteration(TrafficMethod::ZeroInfinity)
            .total();
        assert!(sgd < adam);
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn invalid_keep_ratio_panics() {
        model().per_iteration(TrafficMethod::SmartComp { keep_ratio: 0.0 });
    }

    #[test]
    fn traffic_rows_derive_from_the_capability_axes() {
        assert_eq!(TrafficMethod::from(&MethodSpec::baseline()), TrafficMethod::ZeroInfinity);
        // The handler and pipelining axes do not change what crosses the wire.
        assert_eq!(TrafficMethod::from(&MethodSpec::smart_update()), TrafficMethod::SmartUpdate);
        assert_eq!(
            TrafficMethod::from(&MethodSpec::smart_update_optimized()),
            TrafficMethod::SmartUpdate
        );
        assert_eq!(TrafficMethod::from(&MethodSpec::pipelined(None)), TrafficMethod::SmartUpdate);
        assert_eq!(
            TrafficMethod::from(&MethodSpec::smart_comp(0.01)),
            TrafficMethod::SmartComp { keep_ratio: 0.01 }
        );
        assert_eq!(
            TrafficMethod::from(&MethodSpec::pipelined(Some(0.05))),
            TrafficMethod::SmartComp { keep_ratio: 0.05 }
        );
    }
}
