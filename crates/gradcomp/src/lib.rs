//! # gradcomp — gradient compression for SmartComp
//!
//! SmartComp (paper Section IV-C) compresses gradients on the GPU with a
//! magnitude-based (Top-K) scheme and decompresses them on the CSD FPGA
//! before the update. The compressed representation is a pair of lists —
//! indices and values — so a "Top k%" selection transfers `2·k%` of the
//! original volume (the paper's default of 1% selection is reported as a
//! "2% compression ratio").
//!
//! This crate implements:
//!
//! * [`CompressedGradient`] — the index/value container with byte accounting
//!   and fallible construction ([`CompressError`]) for untrusted sizes.
//! * [`Compressor`] — exact Top-K (a sampled cut prunes the candidates, the
//!   exact selection runs over what is left; the result never depends on the
//!   sample) and Random-K selection, with `try_*` variants that error instead
//!   of aborting on shards longer than the u32 index space and a
//!   [`CompressLane`] that makes a per-step caller allocation-free.
//! * [`ErrorFeedback`] — the residual accumulator used by sparsified training
//!   so that dropped gradient mass is re-injected at the next step;
//!   [`ErrorFeedback::compress_into`] is the whole compress stage in place.
//!
//! # Example
//!
//! ```
//! use gradcomp::{Compressor, ErrorFeedback};
//! use tensorlib::FlatTensor;
//!
//! let grads = FlatTensor::from_vec(vec![0.1, -5.0, 0.2, 3.0, -0.05]);
//! let compressor = Compressor::top_k(0.4); // keep the top 40% by magnitude
//! let compressed = compressor.compress(&grads);
//! assert_eq!(compressed.num_selected(), 2);
//! let restored = compressed.decompress();
//! assert_eq!(restored.as_slice()[1], -5.0);
//! assert_eq!(restored.as_slice()[0], 0.0); // dropped entries become zero
//! ```

// `unsafe` is denied crate-wide; only the `simd` module overrides it with a
// scoped allow for `std::arch` intrinsics (`forbid` would not permit that).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod compressor;
mod feedback;
mod simd;

pub use compressed::{CompressError, CompressedGradient};
pub use compressor::{valid_keep_ratio, CompressLane, Compressor, SelectionMethod};
pub use feedback::ErrorFeedback;

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib::FlatTensor;

    /// Compress-decompress preserves exactly the selected coordinates and
    /// zeroes the rest; with error feedback, everything is eventually sent.
    #[test]
    fn error_feedback_recovers_dropped_mass_over_steps() {
        let n = 64;
        // Uniform gradients: without error feedback the same 16 coordinates
        // would win the Top-K selection forever; with feedback the skipped
        // coordinates accumulate residual and take their turn.
        let grads = FlatTensor::full(n, 1.0);
        let compressor = Compressor::top_k(0.25);
        let mut feedback = ErrorFeedback::new(n);
        let mut accumulated = FlatTensor::zeros(n);
        for _ in 0..8 {
            let corrected = feedback.apply(&grads);
            let compressed = compressor.compress(&corrected);
            feedback.update(&corrected, &compressed);
            let mut dec = compressed.decompress();
            dec.axpby(1.0, 1.0, &accumulated);
            accumulated = dec;
        }
        // Every coordinate has been transmitted at least once, and the total
        // transmitted mass equals the total generated mass minus the residual.
        assert!(accumulated.as_slice().iter().all(|&v| v > 0.0));
        let total_sent: f32 = accumulated.as_slice().iter().sum();
        let residual_mass: f32 = feedback.residual().as_slice().iter().sum();
        assert!((total_sent + residual_mass - 8.0 * n as f32).abs() < 1e-3);
    }
}
