//! # optim — optimizer kernels
//!
//! Storage-offloaded training spends most of its time moving *optimizer
//! state*: with Adam, every parameter drags along an FP32 master copy, a
//! momentum and a variance (6M bytes for an M-byte FP16 model, paper
//! Section II-A). This crate implements the optimizers the paper evaluates —
//! Adam (default), AdamW, SGD with momentum and AdaGrad (Section VII-F) — as
//! element-wise kernels over flat slices.
//!
//! The same kernels are executed by the host CPU baseline (`ztrain`) and by
//! the CSD FPGA updater model (`csd`), which is exactly the paper's
//! equivalence argument: *"SmartUpdate is algorithmically identical to the
//! baseline training, so the accuracy is exactly the same"* (Section VII-J).
//!
//! # Example
//!
//! ```
//! use optim::{Optimizer, OptimizerKind, HyperParams};
//! use tensorlib::FlatTensor;
//!
//! let opt = Optimizer::new(OptimizerKind::Adam, HyperParams::default());
//! let mut params = FlatTensor::from_vec(vec![1.0, -2.0, 3.0]);
//! let mut aux = opt.init_aux(params.len());
//! let grads = FlatTensor::from_vec(vec![0.1, -0.1, 0.2]);
//! opt.step(params.as_mut_slice(), &grads, &mut aux, 1);
//! assert!(params.as_slice()[0] < 1.0); // moved against the gradient
//! ```

// `unsafe` is denied crate-wide; only the four AVX2 calls in `kernels`
// override it with a scoped allow (`forbid` would not permit that).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
mod optimizer;

pub use optimizer::{HyperParams, Optimizer, OptimizerKind};

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib::FlatTensor;

    /// All optimizers decrease a simple quadratic objective f(x) = ||x||^2 / 2.
    #[test]
    fn every_optimizer_descends_a_quadratic() {
        for kind in [
            OptimizerKind::Adam,
            OptimizerKind::AdamW,
            OptimizerKind::SgdMomentum,
            OptimizerKind::AdaGrad,
        ] {
            let opt = Optimizer::new(kind, HyperParams { lr: 0.05, ..HyperParams::default() });
            let mut params = FlatTensor::from_vec(vec![1.0, -2.0, 0.5, 4.0]);
            let mut aux = opt.init_aux(params.len());
            let initial = params.l2_norm();
            for t in 1..=200 {
                let grads = params.clone(); // grad of ||x||^2/2 is x
                opt.step(params.as_mut_slice(), &grads, &mut aux, t);
            }
            assert!(
                params.l2_norm() < initial * 0.75,
                "{kind:?} failed to descend: {} -> {}",
                initial,
                params.l2_norm()
            );
        }
    }
}
