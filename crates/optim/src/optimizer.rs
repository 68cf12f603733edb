//! The [`Optimizer`] front-end: hyper-parameters, auxiliary-state layout and
//! per-parameter byte accounting used by the traffic model.

use crate::kernels;
use parcore::ParExecutor;
use serde::{Deserialize, Serialize};
use tensorlib::{le_bytes, FlatTensor};

/// Which optimizer algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam (the paper's default).
    Adam,
    /// AdamW (decoupled weight decay).
    AdamW,
    /// SGD with momentum.
    SgdMomentum,
    /// AdaGrad.
    AdaGrad,
}

impl OptimizerKind {
    /// Number of auxiliary FP32 state tensors (excluding the FP32 master copy
    /// of the parameters): 2 for Adam/AdamW (momentum + variance), 1 for SGD
    /// momentum and AdaGrad.
    pub fn num_aux(self) -> usize {
        match self {
            OptimizerKind::Adam | OptimizerKind::AdamW => 2,
            OptimizerKind::SgdMomentum | OptimizerKind::AdaGrad => 1,
        }
    }

    /// Bytes of optimizer state stored per parameter: FP32 master copy plus
    /// every auxiliary FP32 tensor. Adam: 12 B = "6M" in the paper's unit
    /// where M is the FP16 parameter size (2 B per parameter).
    pub fn state_bytes_per_param(self) -> usize {
        4 * (1 + self.num_aux())
    }

    /// The paper's "xM" traffic coefficient for the optimizer states (the
    /// FP16 parameter size being 1M = 2 bytes/param). Adam: 6, SGD/AdaGrad: 4.
    pub fn state_size_in_m(self) -> f64 {
        self.state_bytes_per_param() as f64 / 2.0
    }
}

/// Hyper-parameters shared by every optimizer (unused fields are ignored by
/// optimizers that do not need them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// Learning rate.
    pub lr: f32,
    /// Adam/AdamW beta1.
    pub beta1: f32,
    /// Adam/AdamW beta2.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// SGD momentum coefficient.
    pub momentum: f32,
}

impl Default for HyperParams {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.01, momentum: 0.9 }
    }
}

/// An optimizer: an algorithm choice plus its hyper-parameters.
///
/// The optimizer itself is stateless; auxiliary state lives in tensors owned
/// by the caller (`init_aux`), because in storage-offloaded training that
/// state physically lives on the SSD / CSD, not with the optimizer object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    kind: OptimizerKind,
    hp: HyperParams,
}

impl Optimizer {
    /// Creates an optimizer of the given kind with the given hyper-parameters.
    pub fn new(kind: OptimizerKind, hp: HyperParams) -> Self {
        Self { kind, hp }
    }

    /// Adam with default hyper-parameters (the paper's default configuration).
    pub fn adam_default() -> Self {
        Self::new(OptimizerKind::Adam, HyperParams::default())
    }

    /// The algorithm this optimizer runs.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Allocates zero-initialised auxiliary state for `num_params` parameters.
    pub fn init_aux(&self, num_params: usize) -> Vec<FlatTensor> {
        (0..self.kind.num_aux()).map(|_| FlatTensor::zeros(num_params)).collect()
    }

    /// Applies one update step in place.
    ///
    /// `t` is the 1-based global step count (used by Adam bias correction).
    ///
    /// # Panics
    ///
    /// Panics if `aux` does not contain exactly [`OptimizerKind::num_aux`]
    /// tensors of the same length as `params`, or if `grads` has a different
    /// length, or if `t == 0` for Adam-family optimizers.
    pub fn step(&self, params: &mut [f32], grads: &FlatTensor, aux: &mut [FlatTensor], t: u64) {
        self.par_step_chunked(&ParExecutor::serial(), 1, params, grads.as_slice(), aux, t);
    }

    /// Elements per tile of an in-place update: both updaters step one tile
    /// of every state window with [`Optimizer::step_le_windows`] while the
    /// tile, and the gradient tile beside it (32 KiB), is still in cache.
    /// Not a knob: a `train_smart` step read the same within noise from 2 Ki
    /// to 128 Ki elements (three 8 s `sibench` runs each, 2-vCPU x86-64
    /// guest).
    pub const TILE_ELEMS: usize = 8 * 1024;

    /// [`Optimizer::step`] on state held as little-endian FP32 bytes,
    /// where it lies: `states` is the master window, then one window per
    /// auxiliary tensor, each `grads.len()` floats long. The windows are
    /// viewed as floats in place (`le_bytes::with_floats_mut`), and staged
    /// through `staging` only when they cannot be (a big-endian target or a
    /// misaligned window). The one tile body of both in-place updaters: the
    /// CSD's over its SSD's windows and the host baseline's over the RAID
    /// members'. Bit-identical to [`Optimizer::step`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Optimizer::step`], or if
    /// `states` is empty or a window is not whole floats.
    pub fn step_le_windows(
        &self,
        states: &mut [&mut [u8]],
        grads: &[f32],
        staging: &mut Vec<f32>,
        t: u64,
    ) {
        le_bytes::with_floats_mut(states, staging, |views| {
            let (params, aux) = views.split_first_mut().expect("the master window leads");
            self.par_step_chunked(&ParExecutor::serial(), 1, params, grads, aux, t);
        });
    }

    /// Applies one update step in place, fanning contiguous chunks of the
    /// parameter range out across `pool` (one chunk per worker). Updates too
    /// small to amortise the thread spawns run inline automatically
    /// ([`ParExecutor::workers_for`]). Bit-identical to [`Optimizer::step`]
    /// for every executor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Optimizer::step`].
    pub fn par_step(
        &self,
        pool: &ParExecutor,
        params: &mut [f32],
        grads: &FlatTensor,
        aux: &mut [FlatTensor],
        t: u64,
    ) {
        let num_chunks = pool.workers_for(params.len());
        self.par_step_chunked(pool, num_chunks, params, grads.as_slice(), aux, t);
    }

    /// Applies one update step in place with an explicit chunk count
    /// (independent of the executor's worker count). Bit-identical to
    /// [`Optimizer::step`] for every `(pool, num_chunks)` combination.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Optimizer::step`], or if
    /// `num_chunks` is zero.
    pub(crate) fn par_step_chunked(
        &self,
        pool: &ParExecutor,
        num_chunks: usize,
        params: &mut [f32],
        grads: &[f32],
        aux: &mut [impl AsMut<[f32]>],
        t: u64,
    ) {
        assert_eq!(
            aux.len(),
            self.kind.num_aux(),
            "expected {} auxiliary tensors for {:?}",
            self.kind.num_aux(),
            self.kind
        );
        let hp = &self.hp;
        match self.kind {
            OptimizerKind::Adam => {
                let (m, v) = aux.split_at_mut(1);
                kernels::par_adam_step(
                    pool,
                    num_chunks,
                    params,
                    m[0].as_mut(),
                    v[0].as_mut(),
                    grads,
                    hp.lr,
                    hp.beta1,
                    hp.beta2,
                    hp.eps,
                    t,
                );
            }
            OptimizerKind::AdamW => {
                let (m, v) = aux.split_at_mut(1);
                kernels::par_adamw_step(
                    pool,
                    num_chunks,
                    params,
                    m[0].as_mut(),
                    v[0].as_mut(),
                    grads,
                    hp.lr,
                    hp.beta1,
                    hp.beta2,
                    hp.eps,
                    hp.weight_decay,
                    t,
                );
            }
            OptimizerKind::SgdMomentum => {
                kernels::par_sgd_momentum_step(
                    pool,
                    num_chunks,
                    params,
                    aux[0].as_mut(),
                    grads,
                    hp.lr,
                    hp.momentum,
                );
            }
            OptimizerKind::AdaGrad => {
                kernels::par_adagrad_step(
                    pool,
                    num_chunks,
                    params,
                    aux[0].as_mut(),
                    grads,
                    hp.lr,
                    hp.eps,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib::Dtype;

    #[test]
    fn aux_layout_matches_algorithm() {
        assert_eq!(OptimizerKind::Adam.num_aux(), 2);
        assert_eq!(OptimizerKind::AdamW.num_aux(), 2);
        assert_eq!(OptimizerKind::SgdMomentum.num_aux(), 1);
        assert_eq!(OptimizerKind::AdaGrad.num_aux(), 1);
    }

    #[test]
    fn state_bytes_match_the_papers_6m_accounting() {
        // Adam: FP32 master + momentum + variance = 12 B/param = 6M where M = 2 B/param.
        assert_eq!(OptimizerKind::Adam.state_bytes_per_param(), 12);
        assert_eq!(OptimizerKind::Adam.state_size_in_m(), 6.0);
        // SGD / AdaGrad: 3/4 of Adam's state (paper Section VII-F).
        assert_eq!(OptimizerKind::SgdMomentum.state_size_in_m(), 4.0);
        assert_eq!(OptimizerKind::AdaGrad.state_size_in_m(), 4.0);
    }

    #[test]
    fn optimizer_step_dispatch_matches_kernels() {
        let hp = HyperParams { lr: 0.1, ..HyperParams::default() };
        let opt = Optimizer::new(OptimizerKind::Adam, hp);
        assert_eq!(opt.kind(), OptimizerKind::Adam);
        let mut params = FlatTensor::from_vec(vec![0.0, 0.0]);
        let mut aux = opt.init_aux(2);
        assert_eq!(aux.len(), 2);
        let grads = FlatTensor::from_vec(vec![1.0, -1.0]);
        opt.step(params.as_mut_slice(), &grads, &mut aux, 1);

        let mut expect = vec![0.0f32, 0.0];
        let mut m = vec![0.0f32; 2];
        let mut v = vec![0.0f32; 2];
        crate::kernels::adam_step(
            &mut expect,
            &mut m,
            &mut v,
            &[1.0, -1.0],
            0.1,
            hp.beta1,
            hp.beta2,
            hp.eps,
            1,
        );
        assert_eq!(params.as_slice(), expect.as_slice());
    }

    #[test]
    #[should_panic(expected = "expected 2 auxiliary tensors")]
    fn wrong_aux_count_panics() {
        let opt = Optimizer::adam_default();
        let mut params = FlatTensor::zeros(2);
        let grads = FlatTensor::zeros(2);
        let mut aux = vec![FlatTensor::zeros(2)];
        opt.step(params.as_mut_slice(), &grads, &mut aux, 1);
    }

    #[test]
    fn default_constructor_is_adam() {
        assert_eq!(Optimizer::adam_default().kind(), OptimizerKind::Adam);
    }

    #[test]
    fn par_step_is_bit_identical_to_step_for_every_optimizer() {
        let n = 2053;
        let grads = FlatTensor::from_fn(n, |i| ((i as f32) * 0.13).sin() * 0.1);
        let cpus = ParExecutor::current().num_threads();
        for kind in [
            OptimizerKind::Adam,
            OptimizerKind::AdamW,
            OptimizerKind::SgdMomentum,
            OptimizerKind::AdaGrad,
        ] {
            let opt = Optimizer::new(kind, HyperParams::default());
            let mut serial = FlatTensor::from_fn(n, |i| (i as f32) * 1e-3);
            let mut serial_aux = opt.init_aux(n);
            for t in 1..=2 {
                opt.step(serial.as_mut_slice(), &grads, &mut serial_aux, t);
            }
            for chunks in [1usize, 2, 7, cpus.max(2)] {
                let pool = ParExecutor::new(4);
                let mut par = FlatTensor::from_fn(n, |i| (i as f32) * 1e-3);
                let mut par_aux = opt.init_aux(n);
                for t in 1..=2 {
                    opt.par_step_chunked(
                        &pool,
                        chunks,
                        par.as_mut_slice(),
                        grads.as_slice(),
                        &mut par_aux,
                        t,
                    );
                }
                assert_eq!(par.as_slice(), serial.as_slice(), "{kind:?} chunks={chunks}");
                for (a, b) in par_aux.iter().zip(&serial_aux) {
                    assert_eq!(a.as_slice(), b.as_slice(), "{kind:?} aux chunks={chunks}");
                }
            }
            // par_step (chunks = worker count) is the same dispatch.
            let pool = ParExecutor::new(2);
            let mut par = FlatTensor::from_fn(n, |i| (i as f32) * 1e-3);
            let mut par_aux = opt.init_aux(n);
            for t in 1..=2 {
                opt.par_step(&pool, par.as_mut_slice(), &grads, &mut par_aux, t);
            }
            assert_eq!(par.as_slice(), serial.as_slice(), "{kind:?} par_step");
            // step_le_windows (state in someone else's memory as little-endian
            // bytes, stepped where it lies a tile at a time) is the same
            // kernel, also when a window one byte off alignment is staged.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let expected: Vec<&FlatTensor> = std::iter::once(&serial).chain(&serial_aux).collect();
            for skew in [0usize, 1] {
                let mut windows: Vec<Vec<u8>> =
                    std::iter::once(FlatTensor::from_fn(n, |i| (i as f32) * 1e-3))
                        .chain(opt.init_aux(n))
                        .map(|state| [vec![0u8; skew], state.to_bytes(Dtype::F32)].concat())
                        .collect();
                let mut staging = Vec::new();
                for t in 1..=2 {
                    for first in (0..n).step_by(500) {
                        let bytes = skew + 4 * first..skew + 4 * (first + 500).min(n);
                        let mut tile: Vec<&mut [u8]> =
                            windows.iter_mut().map(|w| &mut w[bytes.clone()]).collect();
                        let grad = &grads.as_slice()[first..(first + 500).min(n)];
                        opt.step_le_windows(&mut tile, grad, &mut staging, t);
                    }
                }
                for (window, state) in windows.iter().zip(&expected) {
                    let stepped = FlatTensor::from_bytes(&window[skew..], Dtype::F32);
                    assert_eq!(
                        bits(stepped.as_slice()),
                        bits(state.as_slice()),
                        "{kind:?} skew {skew}"
                    );
                }
            }
        }
    }
}
