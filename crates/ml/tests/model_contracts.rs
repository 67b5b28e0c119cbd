//! Property-based tests of the `Model` contract for every implementation:
//! analytic gradients must match finite differences, parameters must round
//! trip, and losses must be deterministic in (params, indices).

use std::sync::Arc;

use proptest::prelude::*;
use specsync_ml::{check_gradient, DenseDataset, MatrixFactorization, Mlp, Model, RatingsDataset};

fn models() -> Vec<(&'static str, Box<dyn Model>)> {
    let ratings = Arc::new(RatingsDataset::generate(25, 20, 400, 4, 0.1, 5));
    let dense = Arc::new(DenseDataset::generate(300, 10, 4, 3.0, 0.02, 6));
    vec![
        (
            "mf",
            Box::new(MatrixFactorization::new(ratings, 4, 0.01)) as Box<dyn Model>,
        ),
        ("mlp", Box::new(Mlp::new(dense, 8)) as Box<dyn Model>),
    ]
}

/// Deterministic pseudo-random parameter vector.
fn params_for(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            (h % 1000) as f32 / 5000.0 - 0.1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Gradients match finite differences at random parameter points for
    /// every model.
    #[test]
    fn gradients_match_finite_differences(salt in any::<u64>(), batch in 4usize..24) {
        for (name, mut model) in models() {
            let p = params_for(model.num_params(), salt);
            model.set_params(&p);
            let indices: Vec<usize> = (0..batch).collect();
            // check_gradient panics on mismatch; a panic fails the property.
            check_gradient(model.as_mut(), &indices, 8e-2);
            let _ = name;
        }
    }

    /// Loss is a pure function of (params, indices).
    #[test]
    fn loss_is_deterministic(salt in any::<u64>()) {
        for (name, mut model) in models() {
            let p = params_for(model.num_params(), salt);
            model.set_params(&p);
            let idx: Vec<usize> = (0..16).collect();
            let a = model.loss(&idx);
            let b = model.loss(&idx);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} loss not deterministic", name);
        }
    }

    /// set_params/params round trips exactly.
    #[test]
    fn params_round_trip(salt in any::<u64>()) {
        for (name, mut model) in models() {
            let p = params_for(model.num_params(), salt);
            model.set_params(&p);
            prop_assert_eq!(model.params(), &p[..], "{} params did not round trip", name);
        }
    }

    /// Gradient of a singleton batch equals the per-sample contribution of
    /// that sample (mean over one element).
    #[test]
    fn singleton_batch_consistency(sample in 0usize..100) {
        for (name, mut model) in models() {
            let p = params_for(model.num_params(), 3);
            model.set_params(&p);
            let s = sample % model.num_samples();
            let mut g1 = vec![0.0; model.num_params()];
            model.gradient(&[s], &mut g1);
            // A batch repeating the same sample twice must give the same
            // mean gradient.
            let mut g2 = vec![0.0; model.num_params()];
            model.gradient(&[s, s], &mut g2);
            for (a, b) in g1.iter().zip(&g2) {
                prop_assert!((a - b).abs() < 1e-5, "{}: {a} vs {b}", name);
            }
        }
    }
}

#[test]
fn losses_are_positive_at_init() {
    for (name, model) in models() {
        let idx: Vec<usize> = (0..32).collect();
        let loss = model.loss(&idx);
        assert!(loss > 0.0 && loss.is_finite(), "{name}: init loss {loss}");
    }
}
