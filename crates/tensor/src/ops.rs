//! Numerically careful primitives used by the loss functions.

/// Log-sum-exp of a slice, computed stably by factoring out the maximum.
///
/// Returns `-inf` for an empty slice.
///
/// # Examples
///
/// ```
/// use specsync_tensor::log_sum_exp;
///
/// let lse = log_sum_exp(&[1000.0, 1000.0]);
/// assert!((lse - (1000.0 + 2f32.ln())).abs() < 1e-3);
/// ```
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    // f32 sum: short (class count), stabilized by the max shift.
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f32>().ln()
}

/// In-place softmax, numerically stable.
///
/// An empty slice is left unchanged.
pub fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Index of the largest element (first occurrence on ties).
///
/// Returns `None` for an empty slice.
pub fn argmax(xs: &[f32]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f32)>, (i, &x)| match best {
            Some((_, bx)) if bx >= x => best,
            _ => Some((i, x)),
        })
        .map(|(i, _)| i)
}

/// Rectified linear unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU (0 at the kink, matching common ML practice).
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let lse = log_sum_exp(&[1e4, 1e4]);
        assert!(lse.is_finite());
        assert!((lse - (1e4 + 2f32.ln())).abs() < 1e-2);
    }

    #[test]
    fn log_sum_exp_of_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let mut xs = vec![1.0, 3.0, 2.0];
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[1] > xs[2] && xs[2] > xs[0]);
    }

    #[test]
    fn softmax_handles_extreme_values() {
        let mut xs = vec![-1e6, 0.0, 1e6];
        softmax_in_place(&mut xs);
        assert!((xs[2] - 1.0).abs() < 1e-6);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn argmax_finds_first_max() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), Some(1));
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_grad(-2.0), 0.0);
        assert_eq!(relu_grad(3.0), 1.0);
        assert_eq!(relu_grad(0.0), 0.0);
    }
}
