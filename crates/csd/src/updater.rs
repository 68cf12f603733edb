//! The general updater kernel (paper Section V-A).
//!
//! The FPGA updater is an array of processing elements, each containing SIMD
//! AXPBY units that evaluate the moving-average recurrences of the optimizer
//! and a final element-wise parameter update. Functionally it computes
//! exactly the same arithmetic as the host optimizer kernels in [`optim`]
//! (which is why SmartUpdate is accuracy-neutral); this module adds the
//! throughput and configuration model used by the timed engines and by the
//! Fig. 14 reproduction.

use optim::{Optimizer, OptimizerKind};
use parcore::ParExecutor;
use serde::{Deserialize, Serialize};
use tensorlib::FlatTensor;

/// Configuration and functional implementation of the updater kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Updater {
    /// Number of updater processing elements.
    pub num_pes: usize,
    /// SIMD AXPBY units per PE (the paper's PE has 16).
    pub axpby_per_pe: usize,
    /// Kernel clock in Hz.
    pub clock_hz: f64,
    /// Effective FPGA DRAM bandwidth available to the kernel, bytes/second.
    /// This — not the arithmetic — is what bounds the ≈7 GB/s of Fig. 14.
    pub dram_bytes_per_sec: f64,
}

impl Default for Updater {
    fn default() -> Self {
        Self { num_pes: 4, axpby_per_pe: 16, clock_hz: 250.0e6, dram_bytes_per_sec: 7.3e9 }
    }
}

impl Updater {
    /// Arithmetic operations the kernel spends per element for a given
    /// optimizer (AXPBY evaluations plus the final update, from Fig. 7).
    fn ops_per_element(kind: OptimizerKind) -> f64 {
        match kind {
            OptimizerKind::Adam => 8.0,
            OptimizerKind::AdamW => 9.0,
            OptimizerKind::SgdMomentum => 3.0,
            OptimizerKind::AdaGrad => 4.0,
        }
    }

    /// Bytes streamed through device memory per element: the gradient plus
    /// every FP32 optimizer-state word, read and written once.
    fn bytes_per_element(kind: OptimizerKind) -> f64 {
        // grad read (4) + state read + state write.
        4.0 + 2.0 * kind.state_bytes_per_param() as f64
    }

    /// Peak arithmetic rate of the PE array in elements per second.
    pub(crate) fn compute_elements_per_sec(&self, kind: OptimizerKind) -> f64 {
        (self.num_pes * self.axpby_per_pe) as f64 * self.clock_hz / Self::ops_per_element(kind)
    }

    /// Sustained kernel throughput in bytes of state+gradient streamed per
    /// second (the quantity plotted in Fig. 14), i.e. the minimum of the
    /// arithmetic rate and the device-DRAM bandwidth.
    pub fn throughput_bytes_per_sec(&self, kind: OptimizerKind) -> f64 {
        let compute = self.compute_elements_per_sec(kind) * Self::bytes_per_element(kind);
        compute.min(self.dram_bytes_per_sec)
    }

    /// Functionally applies one optimizer step to a subgroup held in device
    /// memory. This is the reference the equivalence tests compare against
    /// the host path — it *is* the host path, by construction.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Optimizer::step`].
    pub fn run(
        &self,
        optimizer: &Optimizer,
        params: &mut [f32],
        grads: &FlatTensor,
        aux: &mut [FlatTensor],
        step: u64,
    ) {
        optimizer.step(params, grads, aux, step);
    }

    /// Like [`Updater::run`], but fans the subgroup out across `pool` the way
    /// the PE array processes SIMD lanes in parallel. Bit-identical to the
    /// serial run for every executor (the kernels are element-wise), so
    /// SmartUpdate stays accuracy-neutral regardless of the host thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Optimizer::step`].
    pub fn run_with(
        &self,
        pool: &ParExecutor,
        optimizer: &Optimizer,
        params: &mut [f32],
        grads: &FlatTensor,
        aux: &mut [FlatTensor],
        step: u64,
    ) {
        optimizer.par_step(pool, params, grads, aux, step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optim::HyperParams;

    #[test]
    fn default_throughput_reproduces_figure_14_updater_bar() {
        let updater = Updater::default();
        let gbps = updater.throughput_bytes_per_sec(OptimizerKind::Adam) / 1e9;
        // Fig. 14: the updater sustains a bit above 7 GB/s, comfortably above
        // the SSD read (~3.3 GB/s) and write (~2.6 GB/s) bandwidths.
        assert!(gbps > 7.0, "updater throughput {gbps:.2} GB/s");
        assert!(gbps > 3.3 * 2.0);
    }

    #[test]
    fn arithmetic_is_not_the_bottleneck_for_the_default_config() {
        let updater = Updater::default();
        for kind in [
            OptimizerKind::Adam,
            OptimizerKind::AdamW,
            OptimizerKind::SgdMomentum,
            OptimizerKind::AdaGrad,
        ] {
            let compute = updater.compute_elements_per_sec(kind) * Updater::bytes_per_element(kind);
            assert!(
                compute >= updater.dram_bytes_per_sec,
                "{kind:?}: compute-bound at {compute:.2e} B/s"
            );
            assert_eq!(updater.throughput_bytes_per_sec(kind), updater.dram_bytes_per_sec);
        }
    }

    #[test]
    fn a_tiny_pe_array_becomes_compute_bound() {
        let updater = Updater { num_pes: 1, axpby_per_pe: 1, ..Updater::default() };
        assert!(updater.throughput_bytes_per_sec(OptimizerKind::Adam) < updater.dram_bytes_per_sec);
    }

    #[test]
    fn functional_run_delegates_to_the_optimizer() {
        let updater = Updater::default();
        let optimizer = Optimizer::new(
            OptimizerKind::SgdMomentum,
            HyperParams { lr: 0.5, momentum: 0.0, ..HyperParams::default() },
        );
        let mut params = vec![1.0f32, 2.0];
        let mut aux = optimizer.init_aux(2);
        let grads = FlatTensor::from_vec(vec![1.0, -1.0]);
        updater.run(&optimizer, &mut params, &grads, &mut aux, 1);
        assert_eq!(params, vec![0.5, 2.5]);
    }
}
