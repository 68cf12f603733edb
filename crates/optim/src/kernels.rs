//! Element-wise optimizer update kernels.
//!
//! Each kernel operates on flat slices and is written as a composition of
//! "moving average" (AXPBY-style) operations, mirroring the structure of the
//! FPGA updater PE (paper Section V-A, Fig. 7): the accelerator is a bank of
//! SIMD AXPBY units plus a final element-wise update, and every supported
//! optimizer is expressed through them.
//!
//! Every kernel has a chunked parallel variant (`par_*`) that splits the
//! parameter range into contiguous chunks and fans them out across a
//! [`parcore::ParExecutor`], the way the paper fans subgroup updates across
//! CSDs. The updates are element-wise, so the parallel variants are
//! **bit-identical** to the serial ones for every chunk count — a property
//! the tests assert explicitly.
//!
//! Each kernel has one body, its scalar loop, and the compiler is the lane
//! abstraction. [`KernelPath::Scalar`] runs the body as compiled for the
//! build target (4 lanes of SSE2 on x86-64); [`KernelPath::Avx2`] runs it
//! through a `#[target_feature(enable = "avx2")]` wrapper, which compiles the
//! same loop 8 lanes wide. Every operation in the loop is IEEE-754 correctly
//! rounded and nothing is contracted into a fused multiply-add, so the two
//! instantiations are bit-identical for every input. The tier is picked at
//! runtime via [`KernelPath::active`]; the `*_step_with` variants let callers
//! and tests pin an explicit path. Another vector width is one more wrapper
//! around the same body.

use parcore::ParExecutor;
use tensorlib::KernelPath;

/// One Adam step (Kingma & Ba, 2015) with bias correction.
///
/// `t` is the 1-based step count used for bias correction.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths or `t == 0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn adam_step(
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
) {
    adam_step_with(
        KernelPath::active(),
        params,
        momentum,
        variance,
        grads,
        lr,
        beta1,
        beta2,
        eps,
        t,
    );
}

/// [`adam_step`] on an explicit [`KernelPath`]. Bit-identical across paths.
///
/// # Panics
///
/// Panics under the same conditions as [`adam_step`], or if `path` is not
/// available on this CPU.
#[allow(clippy::too_many_arguments)]
pub(crate) fn adam_step_with(
    path: KernelPath,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
) {
    assert!(path.is_available(), "kernel path {path} is not available on this CPU");
    assert!(t > 0, "Adam step count is 1-based");
    let n = params.len();
    assert_eq!(n, momentum.len(), "momentum length mismatch");
    assert_eq!(n, variance.len(), "variance length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    let bias1 = 1.0 - beta1.powi(t as i32);
    let bias2 = 1.0 - beta2.powi(t as i32);
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // SAFETY: `path.is_available()` is asserted above, so the CPU has AVX2.
        #[allow(unsafe_code)]
        return unsafe {
            adam_avx2(params, momentum, variance, grads, lr, beta1, beta2, eps, bias1, bias2)
        };
    }
    adam_scalar(params, momentum, variance, grads, lr, beta1, beta2, eps, bias1, bias2);
}

/// The Adam body with precomputed bias factors, compiled once per tier.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adam_scalar(
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    for i in 0..params.len() {
        let g = grads[i];
        // AXPBY: m = beta1 * m + (1 - beta1) * g
        momentum[i] = beta1 * momentum[i] + (1.0 - beta1) * g;
        // AXPBY: v = beta2 * v + (1 - beta2) * g^2
        variance[i] = beta2 * variance[i] + (1.0 - beta2) * g * g;
        let m_hat = momentum[i] / bias1;
        let v_hat = variance[i] / bias2;
        params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// [`adam_scalar`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn adam_avx2(
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
) {
    adam_scalar(params, momentum, variance, grads, lr, beta1, beta2, eps, bias1, bias2);
}

/// One AdamW step (Loshchilov & Hutter, 2019): Adam with decoupled weight decay.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths or `t == 0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn adamw_step(
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
) {
    adamw_step_with(
        KernelPath::active(),
        params,
        momentum,
        variance,
        grads,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
        t,
    );
}

/// [`adamw_step`] on an explicit [`KernelPath`]. Bit-identical across paths.
///
/// # Panics
///
/// Panics under the same conditions as [`adamw_step`], or if `path` is not
/// available on this CPU.
#[allow(clippy::too_many_arguments)]
pub(crate) fn adamw_step_with(
    path: KernelPath,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
) {
    assert!(path.is_available(), "kernel path {path} is not available on this CPU");
    assert!(t > 0, "AdamW step count is 1-based");
    let n = params.len();
    assert_eq!(n, momentum.len(), "momentum length mismatch");
    assert_eq!(n, variance.len(), "variance length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    let bias1 = 1.0 - beta1.powi(t as i32);
    let bias2 = 1.0 - beta2.powi(t as i32);
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // SAFETY: `path.is_available()` is asserted above, so the CPU has AVX2.
        #[allow(unsafe_code)]
        return unsafe {
            adamw_avx2(
                params,
                momentum,
                variance,
                grads,
                lr,
                beta1,
                beta2,
                eps,
                weight_decay,
                bias1,
                bias2,
            )
        };
    }
    adamw_scalar(
        params,
        momentum,
        variance,
        grads,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
        bias1,
        bias2,
    );
}

/// The AdamW body with precomputed bias factors, compiled once per tier.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adamw_scalar(
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bias1: f32,
    bias2: f32,
) {
    for i in 0..params.len() {
        let g = grads[i];
        momentum[i] = beta1 * momentum[i] + (1.0 - beta1) * g;
        variance[i] = beta2 * variance[i] + (1.0 - beta2) * g * g;
        let m_hat = momentum[i] / bias1;
        let v_hat = variance[i] / bias2;
        // Decoupled weight decay applied directly to the parameter.
        params[i] -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * params[i]);
    }
}

/// [`adamw_scalar`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn adamw_avx2(
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bias1: f32,
    bias2: f32,
) {
    adamw_scalar(
        params,
        momentum,
        variance,
        grads,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
        bias1,
        bias2,
    );
}

/// One SGD-with-momentum step.
///
/// # Panics
///
/// Panics if the slices have mismatched lengths.
pub(crate) fn sgd_momentum_step(
    params: &mut [f32],
    momentum_buf: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
) {
    sgd_momentum_step_with(KernelPath::active(), params, momentum_buf, grads, lr, momentum);
}

/// [`sgd_momentum_step`] on an explicit [`KernelPath`]. Bit-identical across
/// paths.
///
/// # Panics
///
/// Panics under the same conditions as [`sgd_momentum_step`], or if `path` is
/// not available on this CPU.
pub(crate) fn sgd_momentum_step_with(
    path: KernelPath,
    params: &mut [f32],
    momentum_buf: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
) {
    assert!(path.is_available(), "kernel path {path} is not available on this CPU");
    let n = params.len();
    assert_eq!(n, momentum_buf.len(), "momentum length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // SAFETY: `path.is_available()` is asserted above, so the CPU has AVX2.
        #[allow(unsafe_code)]
        return unsafe { sgd_momentum_avx2(params, momentum_buf, grads, lr, momentum) };
    }
    sgd_momentum_scalar(params, momentum_buf, grads, lr, momentum);
}

/// The SGD-with-momentum body, compiled once per tier.
#[inline(always)]
fn sgd_momentum_scalar(
    params: &mut [f32],
    momentum_buf: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
) {
    for i in 0..params.len() {
        // AXPBY: buf = momentum * buf + g
        momentum_buf[i] = momentum * momentum_buf[i] + grads[i];
        params[i] -= lr * momentum_buf[i];
    }
}

/// [`sgd_momentum_scalar`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sgd_momentum_avx2(
    params: &mut [f32],
    momentum_buf: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
) {
    sgd_momentum_scalar(params, momentum_buf, grads, lr, momentum);
}

/// One AdaGrad step (Duchi et al., 2011).
///
/// # Panics
///
/// Panics if the slices have mismatched lengths.
pub(crate) fn adagrad_step(
    params: &mut [f32],
    accumulator: &mut [f32],
    grads: &[f32],
    lr: f32,
    eps: f32,
) {
    adagrad_step_with(KernelPath::active(), params, accumulator, grads, lr, eps);
}

/// [`adagrad_step`] on an explicit [`KernelPath`]. Bit-identical across paths.
///
/// # Panics
///
/// Panics under the same conditions as [`adagrad_step`], or if `path` is not
/// available on this CPU.
pub(crate) fn adagrad_step_with(
    path: KernelPath,
    params: &mut [f32],
    accumulator: &mut [f32],
    grads: &[f32],
    lr: f32,
    eps: f32,
) {
    assert!(path.is_available(), "kernel path {path} is not available on this CPU");
    let n = params.len();
    assert_eq!(n, accumulator.len(), "accumulator length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    #[cfg(target_arch = "x86_64")]
    if path == KernelPath::Avx2 {
        // SAFETY: `path.is_available()` is asserted above, so the CPU has AVX2.
        #[allow(unsafe_code)]
        return unsafe { adagrad_avx2(params, accumulator, grads, lr, eps) };
    }
    adagrad_scalar(params, accumulator, grads, lr, eps);
}

/// The AdaGrad body, compiled once per tier.
#[inline(always)]
fn adagrad_scalar(params: &mut [f32], accumulator: &mut [f32], grads: &[f32], lr: f32, eps: f32) {
    for i in 0..params.len() {
        let g = grads[i];
        accumulator[i] += g * g;
        params[i] -= lr * g / (accumulator[i].sqrt() + eps);
    }
}

/// [`adagrad_scalar`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn adagrad_avx2(params: &mut [f32], accumulator: &mut [f32], grads: &[f32], lr: f32, eps: f32) {
    adagrad_scalar(params, accumulator, grads, lr, eps);
}

/// One chunk of an Adam-family update: three mutable state views plus the
/// shared gradient view, all covering the same index range.
type StateChunk4<'a> = (&'a mut [f32], &'a mut [f32], &'a mut [f32], &'a [f32]);

/// Splits four parallel buffers (three mutable, one shared) into aligned
/// contiguous chunks for shard-parallel dispatch.
fn zip4_chunks<'a>(
    params: &'a mut [f32],
    a: &'a mut [f32],
    b: &'a mut [f32],
    grads: &'a [f32],
    num_chunks: usize,
) -> Vec<StateChunk4<'a>> {
    let p = parcore::split_mut(params, num_chunks);
    let a = parcore::split_mut(a, num_chunks);
    let b = parcore::split_mut(b, num_chunks);
    let g = parcore::split_ref(grads, num_chunks);
    p.into_iter().zip(a).zip(b).zip(g).map(|(((p, a), b), g)| (p, a, b, g)).collect()
}

/// Splits three parallel buffers (two mutable, one shared) into aligned
/// contiguous chunks.
fn zip3_chunks<'a>(
    params: &'a mut [f32],
    a: &'a mut [f32],
    grads: &'a [f32],
    num_chunks: usize,
) -> Vec<(&'a mut [f32], &'a mut [f32], &'a [f32])> {
    let p = parcore::split_mut(params, num_chunks);
    let a = parcore::split_mut(a, num_chunks);
    let g = parcore::split_ref(grads, num_chunks);
    p.into_iter().zip(a).zip(g).map(|((p, a), g)| (p, a, g)).collect()
}

/// Chunked parallel [`adam_step`]: splits the buffers into `num_chunks`
/// contiguous pieces and updates them concurrently on `pool`. Bit-identical
/// to the serial kernel for every chunk count.
///
/// # Panics
///
/// Panics under the same conditions as [`adam_step`], or if `num_chunks` is 0.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_adam_step(
    pool: &ParExecutor,
    num_chunks: usize,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
) {
    assert!(num_chunks > 0, "chunk count must be positive");
    if num_chunks == 1 {
        // Serial fast path: no chunking plumbing, no allocations.
        return adam_step(params, momentum, variance, grads, lr, beta1, beta2, eps, t);
    }
    assert!(t > 0, "Adam step count is 1-based");
    let n = params.len();
    assert_eq!(n, momentum.len(), "momentum length mismatch");
    assert_eq!(n, variance.len(), "variance length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    pool.for_each(zip4_chunks(params, momentum, variance, grads, num_chunks), |_, (p, m, v, g)| {
        adam_step(p, m, v, g, lr, beta1, beta2, eps, t);
    });
}

/// Chunked parallel [`adamw_step`]. Bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`adamw_step`], or if `num_chunks` is 0.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_adamw_step(
    pool: &ParExecutor,
    num_chunks: usize,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
) {
    assert!(num_chunks > 0, "chunk count must be positive");
    if num_chunks == 1 {
        return adamw_step(
            params,
            momentum,
            variance,
            grads,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t,
        );
    }
    assert!(t > 0, "AdamW step count is 1-based");
    let n = params.len();
    assert_eq!(n, momentum.len(), "momentum length mismatch");
    assert_eq!(n, variance.len(), "variance length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    pool.for_each(zip4_chunks(params, momentum, variance, grads, num_chunks), |_, (p, m, v, g)| {
        adamw_step(p, m, v, g, lr, beta1, beta2, eps, weight_decay, t);
    });
}

/// Chunked parallel [`sgd_momentum_step`]. Bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`sgd_momentum_step`], or if
/// `num_chunks` is 0.
pub(crate) fn par_sgd_momentum_step(
    pool: &ParExecutor,
    num_chunks: usize,
    params: &mut [f32],
    momentum_buf: &mut [f32],
    grads: &[f32],
    lr: f32,
    momentum: f32,
) {
    assert!(num_chunks > 0, "chunk count must be positive");
    if num_chunks == 1 {
        return sgd_momentum_step(params, momentum_buf, grads, lr, momentum);
    }
    let n = params.len();
    assert_eq!(n, momentum_buf.len(), "momentum length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    pool.for_each(zip3_chunks(params, momentum_buf, grads, num_chunks), |_, (p, buf, g)| {
        sgd_momentum_step(p, buf, g, lr, momentum);
    });
}

/// Chunked parallel [`adagrad_step`]. Bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`adagrad_step`], or if `num_chunks`
/// is 0.
pub(crate) fn par_adagrad_step(
    pool: &ParExecutor,
    num_chunks: usize,
    params: &mut [f32],
    accumulator: &mut [f32],
    grads: &[f32],
    lr: f32,
    eps: f32,
) {
    assert!(num_chunks > 0, "chunk count must be positive");
    if num_chunks == 1 {
        return adagrad_step(params, accumulator, grads, lr, eps);
    }
    let n = params.len();
    assert_eq!(n, accumulator.len(), "accumulator length mismatch");
    assert_eq!(n, grads.len(), "gradient length mismatch");
    pool.for_each(zip3_chunks(params, accumulator, grads, num_chunks), |_, (p, acc, g)| {
        adagrad_step(p, acc, g, lr, eps);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn adam_first_step_matches_closed_form() {
        // With zero-initialized states, after one step m_hat = g and
        // v_hat = g^2, so the update is lr * g / (|g| + eps) ~= lr * sign(g).
        let mut p = vec![0.0f32; 3];
        let mut m = vec![0.0f32; 3];
        let mut v = vec![0.0f32; 3];
        let g = vec![0.5f32, -2.0, 0.0];
        adam_step(&mut p, &mut m, &mut v, &g, 0.1, 0.9, 0.999, 1e-8, 1);
        assert!((p[0] + 0.1).abs() < 1e-4);
        assert!((p[1] - 0.1).abs() < 1e-4);
        assert_eq!(p[2], 0.0);
        assert!((m[0] - 0.05).abs() < 1e-7);
        assert!((v[1] - 0.004).abs() < 1e-6);
    }

    #[test]
    fn adamw_decays_weights_even_with_zero_gradient() {
        let mut p = vec![1.0f32];
        let mut m = vec![0.0f32];
        let mut v = vec![0.0f32];
        adamw_step(&mut p, &mut m, &mut v, &[0.0], 0.1, 0.9, 0.999, 1e-8, 0.1, 1);
        assert!((p[0] - (1.0 - 0.1 * 0.1)).abs() < 1e-6);
        // Plain Adam leaves the parameter untouched under a zero gradient.
        let mut p2 = vec![1.0f32];
        adam_step(&mut p2, &mut [0.0], &mut [0.0], &[0.0], 0.1, 0.9, 0.999, 1e-8, 1);
        assert_eq!(p2[0], 1.0);
    }

    #[test]
    fn sgd_without_momentum_is_plain_gradient_descent() {
        let mut p = vec![1.0f32, 2.0];
        let mut buf = vec![0.0f32; 2];
        sgd_momentum_step(&mut p, &mut buf, &[0.5, -0.5], 0.1, 0.0);
        assert_eq!(p, vec![0.95, 2.05]);
    }

    #[test]
    fn sgd_momentum_accumulates_velocity() {
        let mut p = vec![0.0f32];
        let mut buf = vec![0.0f32];
        sgd_momentum_step(&mut p, &mut buf, &[1.0], 1.0, 0.9);
        sgd_momentum_step(&mut p, &mut buf, &[1.0], 1.0, 0.9);
        // buf after two steps: 1, then 1.9 -> total displacement 2.9.
        assert!((p[0] + 2.9).abs() < 1e-6);
        assert!((buf[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn adagrad_learning_rate_shrinks_with_accumulated_gradient() {
        let mut p = vec![0.0f32];
        let mut acc = vec![0.0f32];
        adagrad_step(&mut p, &mut acc, &[1.0], 0.1, 0.0);
        let first = -p[0];
        adagrad_step(&mut p, &mut acc, &[1.0], 0.1, 0.0);
        let second = -p[0] - first;
        assert!(second < first, "later steps must be smaller: {first} vs {second}");
        assert!((acc[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        adam_step(&mut [0.0; 2], &mut [0.0; 2], &mut [0.0; 2], &[0.0; 3], 0.1, 0.9, 0.999, 1e-8, 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn adam_step_zero_panics() {
        adam_step(&mut [0.0], &mut [0.0], &mut [0.0], &[0.0], 0.1, 0.9, 0.999, 1e-8, 0);
    }

    /// Chunk counts exercised by every parallel-equivalence test: the serial
    /// case, small counts that leave ragged tails, a prime, and the machine's
    /// actual parallelism.
    fn chunk_counts() -> Vec<usize> {
        let cpus = ParExecutor::current().num_threads();
        vec![1, 2, 7, cpus.max(2)]
    }

    #[test]
    fn par_adam_is_bit_identical_across_chunk_counts() {
        let n = 10_007; // prime → every chunk count leaves a ragged tail
        let grads: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin()).collect();
        let mut p_ref: Vec<f32> = (0..n).map(|i| (i as f32) * 1e-4).collect();
        let mut m_ref = vec![0.0f32; n];
        let mut v_ref = vec![0.0f32; n];
        for t in 1..=3 {
            adam_step(&mut p_ref, &mut m_ref, &mut v_ref, &grads, 0.01, 0.9, 0.999, 1e-8, t);
        }
        for chunks in chunk_counts() {
            let pool = ParExecutor::new(4);
            let mut p: Vec<f32> = (0..n).map(|i| (i as f32) * 1e-4).collect();
            let mut m = vec![0.0f32; n];
            let mut v = vec![0.0f32; n];
            for t in 1..=3 {
                par_adam_step(
                    &pool, chunks, &mut p, &mut m, &mut v, &grads, 0.01, 0.9, 0.999, 1e-8, t,
                );
            }
            assert_eq!(p, p_ref, "params diverged at chunks={chunks}");
            assert_eq!(m, m_ref, "momentum diverged at chunks={chunks}");
            assert_eq!(v, v_ref, "variance diverged at chunks={chunks}");
        }
    }

    #[test]
    fn par_kernels_match_serial_for_all_optimizers() {
        let n = 4099;
        let grads: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.11).cos() * 0.1).collect();
        let init: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.05).sin()).collect();
        for chunks in chunk_counts() {
            let pool = ParExecutor::new(3);
            // AdamW.
            let (mut p1, mut m1, mut v1) = (init.clone(), vec![0.0; n], vec![0.0; n]);
            let (mut p2, mut m2, mut v2) = (init.clone(), vec![0.0; n], vec![0.0; n]);
            adamw_step(&mut p1, &mut m1, &mut v1, &grads, 0.01, 0.9, 0.999, 1e-8, 0.1, 1);
            par_adamw_step(
                &pool, chunks, &mut p2, &mut m2, &mut v2, &grads, 0.01, 0.9, 0.999, 1e-8, 0.1, 1,
            );
            assert_eq!(p1, p2, "AdamW chunks={chunks}");
            assert_eq!(v1, v2, "AdamW variance chunks={chunks}");
            // SGD momentum.
            let (mut p1, mut b1) = (init.clone(), vec![0.0; n]);
            let (mut p2, mut b2) = (init.clone(), vec![0.0; n]);
            sgd_momentum_step(&mut p1, &mut b1, &grads, 0.1, 0.9);
            par_sgd_momentum_step(&pool, chunks, &mut p2, &mut b2, &grads, 0.1, 0.9);
            assert_eq!(p1, p2, "SGD chunks={chunks}");
            assert_eq!(b1, b2, "SGD momentum chunks={chunks}");
            // AdaGrad.
            let (mut p1, mut a1) = (init.clone(), vec![0.0; n]);
            let (mut p2, mut a2) = (init.clone(), vec![0.0; n]);
            adagrad_step(&mut p1, &mut a1, &grads, 0.1, 1e-10);
            par_adagrad_step(&pool, chunks, &mut p2, &mut a2, &grads, 0.1, 1e-10);
            assert_eq!(p1, p2, "AdaGrad chunks={chunks}");
            assert_eq!(a1, a2, "AdaGrad accumulator chunks={chunks}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn par_adam_mismatched_lengths_panic() {
        par_adam_step(
            &ParExecutor::serial(),
            2,
            &mut [0.0; 2],
            &mut [0.0; 2],
            &mut [0.0; 2],
            &[0.0; 3],
            0.1,
            0.9,
            0.999,
            1e-8,
            1,
        );
    }

    /// Bitwise slice equality: NaNs compare by representation, not by IEEE
    /// semantics, so a payload divergence between paths is caught.
    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i}: {x:?} vs {y:?}");
        }
    }

    /// A gradient/state vector covering every IEEE class: normals of all
    /// scales, subnormals, zeros, infinities and NaNs, at a prime length so
    /// every vector width leaves a ragged tail.
    fn adversarial_values(seed: u32) -> Vec<f32> {
        let mut out = Vec::new();
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,           // smallest normal
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ];
        out.extend_from_slice(&specials);
        // Deterministic pseudo-random normals across the exponent range.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        while out.len() < 131 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let exp = 64 + (state >> 24) % 128; // exponents 64..192
            let mant = state & 0x007F_FFFF;
            let sign = state & 0x8000_0000;
            out.push(f32::from_bits(sign | (exp << 23) | mant));
        }
        out
    }

    #[test]
    fn vector_paths_match_scalar_on_adversarial_inputs() {
        let grads = adversarial_values(7);
        let init_p = adversarial_values(11);
        let n = grads.len();
        for t in [1u64, 3, 1000] {
            // Scalar reference.
            let (mut p0, mut m0, mut v0) = (init_p.clone(), vec![0.1f32; n], vec![0.2f32; n]);
            adam_step_with(
                KernelPath::Scalar,
                &mut p0,
                &mut m0,
                &mut v0,
                &grads,
                0.01,
                0.9,
                0.999,
                1e-8,
                t,
            );
            let (mut pw0, mut mw0, mut vw0) = (init_p.clone(), vec![0.1f32; n], vec![0.2f32; n]);
            adamw_step_with(
                KernelPath::Scalar,
                &mut pw0,
                &mut mw0,
                &mut vw0,
                &grads,
                0.01,
                0.9,
                0.999,
                1e-8,
                0.1,
                t,
            );
            let (mut ps0, mut bs0) = (init_p.clone(), vec![0.3f32; n]);
            sgd_momentum_step_with(KernelPath::Scalar, &mut ps0, &mut bs0, &grads, 0.1, 0.9);
            let (mut pa0, mut aa0) = (init_p.clone(), vec![0.4f32; n]);
            adagrad_step_with(KernelPath::Scalar, &mut pa0, &mut aa0, &grads, 0.1, 1e-10);

            for path in KernelPath::available() {
                let (mut p, mut m, mut v) = (init_p.clone(), vec![0.1f32; n], vec![0.2f32; n]);
                adam_step_with(path, &mut p, &mut m, &mut v, &grads, 0.01, 0.9, 0.999, 1e-8, t);
                assert_bits_eq(&p, &p0, &format!("adam params {path} t={t}"));
                assert_bits_eq(&m, &m0, &format!("adam momentum {path} t={t}"));
                assert_bits_eq(&v, &v0, &format!("adam variance {path} t={t}"));

                let (mut p, mut m, mut v) = (init_p.clone(), vec![0.1f32; n], vec![0.2f32; n]);
                adamw_step_with(
                    path, &mut p, &mut m, &mut v, &grads, 0.01, 0.9, 0.999, 1e-8, 0.1, t,
                );
                assert_bits_eq(&p, &pw0, &format!("adamw params {path} t={t}"));
                assert_bits_eq(&v, &vw0, &format!("adamw variance {path} t={t}"));

                let (mut p, mut b) = (init_p.clone(), vec![0.3f32; n]);
                sgd_momentum_step_with(path, &mut p, &mut b, &grads, 0.1, 0.9);
                assert_bits_eq(&p, &ps0, &format!("sgd params {path}"));
                assert_bits_eq(&b, &bs0, &format!("sgd buf {path}"));

                let (mut p, mut a) = (init_p.clone(), vec![0.4f32; n]);
                adagrad_step_with(path, &mut p, &mut a, &grads, 0.1, 1e-10);
                assert_bits_eq(&p, &pa0, &format!("adagrad params {path}"));
                assert_bits_eq(&a, &aa0, &format!("adagrad acc {path}"));
            }
        }
    }

    #[test]
    fn vector_paths_handle_every_length_tail() {
        // The compiler picks each tier's main loop (width times unroll) and
        // remainder; lengths 0..=70 cover empty, sub-width, exact-width and
        // ragged cases up to 8 lanes unrolled four times, for every kernel.
        for n in 0..=70usize {
            let grads: Vec<f32> = (0..n).map(|i| ((i as f32) - 7.5) * 0.3).collect();
            let init: Vec<f32> = (0..n).map(|i| (i as f32) * 0.1).collect();
            let run = |path: KernelPath| {
                let (mut p, mut m, mut v) = (init.clone(), vec![0.0f32; n], vec![0.0f32; n]);
                adam_step_with(path, &mut p, &mut m, &mut v, &grads, 0.01, 0.9, 0.999, 1e-8, 1);
                let (mut pw, mut mw, mut vw) = (init.clone(), vec![0.1f32; n], vec![0.2f32; n]);
                adamw_step_with(
                    path, &mut pw, &mut mw, &mut vw, &grads, 0.01, 0.9, 0.999, 1e-8, 0.1, 2,
                );
                let (mut ps, mut bs) = (init.clone(), vec![0.3f32; n]);
                sgd_momentum_step_with(path, &mut ps, &mut bs, &grads, 0.1, 0.9);
                let (mut pa, mut aa) = (init.clone(), vec![0.4f32; n]);
                adagrad_step_with(path, &mut pa, &mut aa, &grads, 0.1, 1e-10);
                [p, m, v, pw, mw, vw, ps, bs, pa, aa]
            };
            let names = [
                "adam p",
                "adam m",
                "adam v",
                "adamw p",
                "adamw m",
                "adamw v",
                "sgd p",
                "sgd buf",
                "adagrad p",
                "adagrad acc",
            ];
            let reference = run(KernelPath::Scalar);
            for path in KernelPath::available() {
                for ((got, want), what) in run(path).iter().zip(&reference).zip(names) {
                    assert_bits_eq(got, want, &format!("{what} n={n} {path}"));
                }
            }
        }
    }

    proptest! {
        /// Vector Adam/AdamW are bit-identical to scalar for arbitrary f32
        /// bit patterns — including NaNs, infinities and subnormals — across
        /// every available kernel path.
        #[test]
        fn simd_adam_matches_scalar_for_arbitrary_bits(
            grad_bits in proptest::collection::vec(any::<u32>(), 1..200),
            param_bits in proptest::collection::vec(any::<u32>(), 1..200),
        ) {
            let n = grad_bits.len().min(param_bits.len());
            let grads: Vec<f32> = grad_bits[..n].iter().map(|&b| f32::from_bits(b)).collect();
            let init: Vec<f32> = param_bits[..n].iter().map(|&b| f32::from_bits(b)).collect();
            let (mut p0, mut m0, mut v0) = (init.clone(), vec![0.1f32; n], vec![0.2f32; n]);
            adam_step_with(KernelPath::Scalar, &mut p0, &mut m0, &mut v0, &grads, 0.01, 0.9, 0.999, 1e-8, 2);
            let (mut pw0, mut mw0, mut vw0) = (init.clone(), vec![0.1f32; n], vec![0.2f32; n]);
            adamw_step_with(KernelPath::Scalar, &mut pw0, &mut mw0, &mut vw0, &grads, 0.01, 0.9, 0.999, 1e-8, 0.1, 2);
            for path in KernelPath::available() {
                let (mut p, mut m, mut v) = (init.clone(), vec![0.1f32; n], vec![0.2f32; n]);
                adam_step_with(path, &mut p, &mut m, &mut v, &grads, 0.01, 0.9, 0.999, 1e-8, 2);
                for i in 0..n {
                    prop_assert_eq!(p[i].to_bits(), p0[i].to_bits(), "adam p[{}] {}", i, path);
                    prop_assert_eq!(m[i].to_bits(), m0[i].to_bits(), "adam m[{}] {}", i, path);
                    prop_assert_eq!(v[i].to_bits(), v0[i].to_bits(), "adam v[{}] {}", i, path);
                }
                let (mut p, mut m, mut v) = (init.clone(), vec![0.1f32; n], vec![0.2f32; n]);
                adamw_step_with(path, &mut p, &mut m, &mut v, &grads, 0.01, 0.9, 0.999, 1e-8, 0.1, 2);
                for i in 0..n {
                    prop_assert_eq!(p[i].to_bits(), pw0[i].to_bits(), "adamw p[{}] {}", i, path);
                }
                let _ = (&mw0, &vw0);
            }
        }

        /// Parallel Adam is bit-identical to serial Adam for random shapes,
        /// hyper-parameters, chunk counts and thread counts.
        #[test]
        fn par_adam_matches_serial_for_random_inputs(
            values in proptest::collection::vec(-10.0f32..10.0, 1..400),
            chunks in 1usize..12,
            threads in 1usize..6,
            lr in 0.0001f32..0.1,
        ) {
            let n = values.len();
            let mut p1: Vec<f32> = values.iter().map(|v| v * 0.5).collect();
            let mut m1 = vec![0.1f32; n];
            let mut v1 = vec![0.2f32; n];
            let (mut p2, mut m2, mut v2) = (p1.clone(), m1.clone(), v1.clone());
            adam_step(&mut p1, &mut m1, &mut v1, &values, lr, 0.9, 0.999, 1e-8, 2);
            let pool = ParExecutor::new(threads);
            par_adam_step(&pool, chunks, &mut p2, &mut m2, &mut v2, &values, lr, 0.9, 0.999, 1e-8, 2);
            prop_assert_eq!(p1, p2);
            prop_assert_eq!(m1, m2);
            prop_assert_eq!(v1, v2);
        }

        /// Adam updates are bounded by roughly lr per step regardless of gradient scale
        /// (the trust-ratio property that makes it robust to loss-scale choices).
        #[test]
        fn adam_step_size_is_bounded(g in -1000.0f32..1000.0, lr in 0.001f32..0.5) {
            let mut p = vec![0.0f32];
            let mut m = vec![0.0f32];
            let mut v = vec![0.0f32];
            adam_step(&mut p, &mut m, &mut v, &[g], lr, 0.9, 0.999, 1e-8, 1);
            prop_assert!(p[0].abs() <= lr * 1.01 + 1e-6);
        }

        /// SGD with momentum=0 moves exactly by -lr * g.
        #[test]
        fn sgd_is_exact_without_momentum(g in -100.0f32..100.0, lr in 0.0f32..1.0) {
            let mut p = vec![1.0f32];
            let mut buf = vec![0.0f32];
            sgd_momentum_step(&mut p, &mut buf, &[g], lr, 0.0);
            prop_assert!((p[0] - (1.0 - lr * g)).abs() < 1e-4);
        }

        /// AdaGrad never increases the accumulator by less than g^2 and never decreases it.
        #[test]
        fn adagrad_accumulator_is_monotone(grads in proptest::collection::vec(-10.0f32..10.0, 1..20)) {
            let mut p = vec![0.0f32];
            let mut acc = vec![0.0f32];
            let mut prev = 0.0f32;
            for g in grads {
                adagrad_step(&mut p, &mut acc, &[g], 0.01, 1e-10);
                prop_assert!(acc[0] >= prev);
                prev = acc[0];
            }
        }
    }
}
