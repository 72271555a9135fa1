//! The kernel-path counters name the loop nest that ran, under the arch it
//! ran on: one GEMM bumps exactly one `{arch}/{packed|skinny|swapped}`
//! counter and nothing else.
//!
//! A binary of its own: the counters and the arch override are
//! process-global, so exact before/after deltas only hold with no other
//! test issuing kernels concurrently.

use opt_tensor::{available_arches, kernel_path_counts, set_kernel_arch, Matrix};

/// Runs `f` and returns the per-pair counter deltas it caused, nonzero
/// ones only.
fn deltas(f: impl FnOnce()) -> Vec<(&'static str, &'static str, u64)> {
    let before = kernel_path_counts();
    f();
    kernel_path_counts()
        .iter()
        .zip(before.iter())
        .filter(|(after, before)| after.2 != before.2)
        .map(|(after, before)| (after.0, after.1, after.2 - before.2))
        .collect()
}

#[test]
fn each_gemm_counts_the_loop_nest_that_ran() {
    let sq16 = Matrix::full(16, 16, 0.5);
    let sq64 = Matrix::full(64, 64, 0.5);
    // Stored k x m with m >= 4n and n <= 16: the tall-skinny swap.
    let tall = Matrix::full(64, 96, 0.5);
    let thin = Matrix::full(64, 3, 0.5);
    // Every arch the host can run, the detected one included: 16x16 is
    // GPT-tiny's per-micro projection, the shape that once ran a libm
    // loop nest while the counters reported the SIMD arch.
    for arch in available_arches() {
        set_kernel_arch(arch);
        let name = arch.name();
        assert_eq!(
            deltas(|| drop(sq16.matmul(&sq16))),
            [(name, "skinny", 1)],
            "16x16 * 16x16 on {name}"
        );
        assert_eq!(
            deltas(|| drop(sq64.matmul(&sq64))),
            [(name, "packed", 1)],
            "64x64 * 64x64 on {name}"
        );
        assert_eq!(
            deltas(|| drop(tall.t_matmul(&thin))),
            [(name, "swapped", 1)],
            "(64x96)^T * 64x3 on {name}"
        );
    }
}
