//! Learning-rate schedules.
//!
//! The paper's CIFAR-10 workload "lets the learning rate decrease from an
//! initial value 0.05 at epochs 200 and 250" (§VI-A) — that is
//! [`LrSchedule::StepDecay`].

use serde::{Deserialize, Serialize};

/// A learning-rate schedule evaluated per epoch.
///
/// # Examples
///
/// ```
/// use specsync_ml::LrSchedule;
///
/// let s = LrSchedule::StepDecay { initial: 0.05, factor: 0.1, at_epochs: vec![200, 250] };
/// assert_eq!(s.lr_at(0), 0.05);
/// assert!((s.lr_at(220) - 0.005).abs() < 1e-9);
/// assert!((s.lr_at(260) - 0.0005).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// A constant learning rate.
    Constant {
        /// The rate.
        lr: f64,
    },
    /// Multiply the rate by `factor` at each epoch in `at_epochs`.
    StepDecay {
        /// Rate before the first decay point.
        initial: f64,
        /// Multiplicative decay applied at each listed epoch.
        factor: f64,
        /// Epochs at which decay happens (ascending).
        at_epochs: Vec<u64>,
    },
}

impl LrSchedule {
    /// The learning rate in force during `epoch`.
    pub fn lr_at(&self, epoch: u64) -> f64 {
        match self {
            LrSchedule::Constant { lr } => *lr,
            LrSchedule::StepDecay {
                initial,
                factor,
                at_epochs,
            } => {
                let decays = at_epochs.iter().filter(|&&e| epoch >= e).count() as i32;
                initial * factor.powi(decays)
            }
        }
    }

    /// The schedule as the owned `epochs → rate` function a shard host
    /// installs, narrowed to the store's `f32`.
    pub fn into_rate_fn(self) -> impl Fn(u64) -> f32 + Send + 'static {
        move |epoch| self.lr_at(epoch) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant { lr: 0.3 };
        assert_eq!(s.lr_at(0), 0.3);
        assert_eq!(s.lr_at(1000), 0.3);
    }

    #[test]
    fn step_decay_applies_at_boundaries() {
        let s = LrSchedule::StepDecay {
            initial: 1.0,
            factor: 0.5,
            at_epochs: vec![10, 20],
        };
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(19), 0.5);
        assert_eq!(s.lr_at(20), 0.25);
    }

    #[test]
    fn empty_decay_list_is_constant() {
        let s = LrSchedule::StepDecay {
            initial: 0.1,
            factor: 0.1,
            at_epochs: vec![],
        };
        assert_eq!(s.lr_at(500), 0.1);
    }
}
