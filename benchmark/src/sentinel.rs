//! The noise sentinel: fixed arithmetic that reads nothing of the program
//! under test, timed before and after every op.
//!
//! The reference machine is a guest on a shared host, and what disturbs it
//! most is a neighbour on the other hardware thread of its core: integer
//! chains keep their speed, floating-point and vector code — the optimizer
//! kernels, the simulator's rate arithmetic — slows by up to a half, for
//! seconds at a time. The reading is therefore floating-point work that keeps
//! the core's arithmetic units full, short enough to follow every op.
//!
//! The readings only mark ops as disturbed (see `run::quiet_ops`); no timing
//! of the program is ever divided by them or compared with them.

use std::hint::black_box;
use std::time::Instant;

/// Multiply-add steps of one reading: about 0.4 ms on the reference machine.
const STEPS: usize = 20_000;
/// Independent four-lane chains: enough to hide the latency of a multiply-add.
const CHAINS: usize = 12;

#[inline(never)]
fn multiply_adds(steps: usize) -> f32 {
    let mut chains = [[1.0f32; 4]; CHAINS];
    for (k, chain) in chains.iter_mut().enumerate() {
        chain[0] += k as f32;
    }
    for _ in 0..steps {
        for chain in &mut chains {
            for lane in chain {
                *lane = *lane * 0.999_999 + 0.5;
            }
        }
    }
    chains.iter().flatten().sum()
}

/// Seconds one reading took on the calling thread.
pub fn read() -> f64 {
    let start = Instant::now();
    black_box(multiply_adds(black_box(STEPS)));
    start.elapsed().as_secs_f64()
}
