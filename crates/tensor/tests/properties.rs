//! Property-based tests on algebraic laws of the tensor primitives.

use proptest::prelude::*;
use specsync_tensor::{dot, log_sum_exp, softmax_in_place, Vector};

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, n..=n)
}

proptest! {
    /// Dot product is commutative.
    #[test]
    fn dot_commutes(n in 1usize..32) {
        let strategy = (finite_vec(n), finite_vec(n));
        proptest!(|((a, b) in strategy)| {
            let d1 = dot(&a, &b);
            let d2 = dot(&b, &a);
            prop_assert!((d1 - d2).abs() <= 1e-3 * (1.0 + d1.abs()));
        });
    }

    /// axpy with alpha=0 is the identity; alpha=1 adds.
    #[test]
    fn axpy_identities(a in finite_vec(16), b in finite_vec(16)) {
        let mut y = Vector::from(a.clone());
        y.axpy(0.0, &Vector::from(b.clone()));
        prop_assert_eq!(y.as_slice(), &a[..]);

        let mut y = Vector::from(a.clone());
        y.axpy(1.0, &Vector::from(b.clone()));
        for i in 0..16 {
            prop_assert!((y.as_slice()[i] - (a[i] + b[i])).abs() < 1e-4);
        }
    }

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

    /// Norms satisfy the triangle inequality.
    #[test]
    fn triangle_inequality(a in finite_vec(16), b in finite_vec(16)) {
        let va = Vector::from(a);
        let vb = Vector::from(b);
        let mut sum = va.clone();
        sum.axpy(1.0, &vb);
        prop_assert!(sum.norm2() <= va.norm2() + vb.norm2() + 1e-3);
    }
}
