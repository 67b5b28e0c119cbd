//! Node identities.

use serde::{Deserialize, Serialize};

/// Identifies one worker node in the simulated cluster.
///
/// # Examples
///
/// ```
/// use specsync_simnet::WorkerId;
///
/// let w = WorkerId::new(3);
/// assert_eq!(w.index(), 3);
/// assert_eq!(w.to_string(), "worker-3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkerId(usize);

impl WorkerId {
    /// Creates the id of the `index`-th worker.
    pub const fn new(index: usize) -> Self {
        WorkerId(index)
    }

    /// The worker's index in `[0, m)`.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Iterator over the ids of an `m`-worker cluster.
    pub fn all(m: usize) -> impl Iterator<Item = WorkerId> {
        (0..m).map(WorkerId)
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<usize> = WorkerId::all(3).map(|w| w.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "checks that ids hash; nothing iterates the set"
    )]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(WorkerId::new(1) < WorkerId::new(2));
        let set: HashSet<WorkerId> = WorkerId::all(4).collect();
        assert_eq!(set.len(), 4);
    }
}
