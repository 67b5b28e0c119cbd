//! Property-based tests on algebraic laws of the tensor primitives.

use proptest::prelude::*;
use specsync_tensor::{log_sum_exp, softmax_in_place};

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, n..=n)
}

proptest! {
    /// Softmax output is a probability distribution.
    #[test]
    fn softmax_is_distribution(mut xs in finite_vec(8)) {
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    /// log_sum_exp is invariant to shifting by a constant (up to the shift).
    #[test]
    fn lse_shift_invariance(xs in finite_vec(8), c in -50.0f32..50.0) {
        let base = log_sum_exp(&xs);
        let shifted: Vec<f32> = xs.iter().map(|&x| x + c).collect();
        prop_assert!((log_sum_exp(&shifted) - (base + c)).abs() < 1e-3);
    }
}
