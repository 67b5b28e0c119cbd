//! The scheduler's push/pull history — the "list of timestamps of all
//! pushes" of Algorithm 2, extended with pull records, which the Eq. (5)
//! gain estimator needs ("the number of updates the worker would have
//! uncovered if it had deferred its last iteration by Δ").
//!
//! # Streaming data plane
//!
//! The history is a retention-bounded, time-ordered ring buffer
//! ([`VecDeque`]) indexed by absolute push sequence numbers, plus
//! per-worker *lanes* (bounded per-worker time indexes and running
//! aggregates). Every live query is a binary-search range count or a
//! maintained aggregate:
//!
//! - [`pushes_by_others_in`](PushHistory::pushes_by_others_in) — global
//!   range count minus the worker's own lane count, `O(log n)`;
//! - [`last_pull_of`](PushHistory::last_pull_of) — binary search on the
//!   worker's pull lane, `O(log n)`;
//! - [`iteration_span_of`](PushHistory::iteration_span_of) — `O(1)` from
//!   epoch-stamped lane aggregates, allocation-free;
//! - [`recent_epoch_seq_range`](PushHistory::recent_epoch_seq_range) /
//!   [`push_at`](PushHistory::push_at) — `O(1)` indexed access for the
//!   tuner's subsampled candidate enumeration.
//!
//! With [`set_retention`](PushHistory::set_retention), records older than
//! the last `r` closed epochs are evicted at every
//! [`mark_epoch`](PushHistory::mark_epoch), bounding memory by the
//! retention horizon. Within that horizon every query answers exactly as
//! the unbounded history would (whole-history lane aggregates are never
//! evicted, so the [`iteration_span_of`](PushHistory::iteration_span_of)
//! fallback stays exact forever). The default is unbounded — identical,
//! byte-for-byte, to the seed `Vec` implementation.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use specsync_simnet::{SimDuration, VirtualTime, WorkerId};

/// One recorded push.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushRecord {
    /// When the push's notify reached the scheduler.
    pub time: VirtualTime,
    /// Which worker pushed.
    pub worker: WorkerId,
}

/// One recorded pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PullRecord {
    /// When the pull was issued.
    pub time: VirtualTime,
    /// Which worker pulled.
    pub worker: WorkerId,
}

/// Per-worker streaming index: bounded time lanes plus running aggregates.
///
/// The lanes mirror the worker's slice of the global ring (evicted under
/// the same horizon); the aggregates summarize the worker's *entire*
/// history and are never evicted, keeping whole-history fallbacks exact
/// beyond the retention horizon.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct WorkerLane {
    /// Retained push times of this worker, chronological.
    push_times: VecDeque<VirtualTime>,
    /// Retained pull times of this worker, chronological.
    pull_times: VecDeque<VirtualTime>,
    /// Latest pull time evicted from this lane. All evicted pulls precede
    /// the retention horizon, so for any in-horizon cutoff this is the
    /// exact answer whenever no retained pull qualifies.
    evicted_last_pull: Option<VirtualTime>,
    /// Total pushes ever recorded for this worker (never evicted).
    total_pushes: u64,
    /// Time of the worker's first push ever.
    first_push: Option<VirtualTime>,
    /// Time of the worker's last push so far.
    last_push: Option<VirtualTime>,
    /// Closed-epoch count these epoch aggregates describe (the epoch
    /// fields are valid only when this equals the history's
    /// [`closed_epochs`](PushHistory::closed_epochs)).
    epoch_stamp: u64,
    /// Pushes by this worker in the last closed epoch.
    epoch_pushes: u64,
    /// First push time of this worker in the last closed epoch.
    epoch_first: Option<VirtualTime>,
    /// Last push time of this worker in the last closed epoch.
    epoch_last: Option<VirtualTime>,
}

/// Summary of one closed epoch (replaces the seed's raw `epoch_marks`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct EpochMeta {
    /// Absolute push sequence number at which the epoch closed.
    end_seq: u64,
}

/// Records evicted by one [`PushHistory::mark_epoch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictionCounts {
    /// Push records dropped from the global ring.
    pub pushes: u64,
    /// Pull records dropped from the global ring.
    pub pulls: u64,
}

impl EvictionCounts {
    /// Total records evicted.
    pub fn total(&self) -> u64 {
        self.pushes + self.pulls
    }

    /// Whether anything was evicted.
    pub fn is_zero(&self) -> bool {
        self.pushes == 0 && self.pulls == 0
    }
}

/// Chronological push/pull history with epoch segmentation.
///
/// # Examples
///
/// ```
/// use specsync_core::PushHistory;
/// use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
///
/// let mut h = PushHistory::new();
/// h.record_push(VirtualTime::from_secs(1), WorkerId::new(0));
/// h.record_push(VirtualTime::from_secs(2), WorkerId::new(1));
/// let n = h.pushes_by_others_in(
///     WorkerId::new(0),
///     VirtualTime::from_secs(0),
///     SimDuration::from_secs(5),
/// );
/// assert_eq!(n, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PushHistory {
    /// Retained pushes, chronological. `pushes[i]` has absolute sequence
    /// number `push_base + i`.
    pushes: VecDeque<PushRecord>,
    /// Retained pulls, chronological.
    pulls: VecDeque<PullRecord>,
    /// Absolute sequence number of `pushes.front()`; equals the number of
    /// pushes evicted so far.
    push_base: u64,
    /// Number of pulls evicted so far.
    pull_base: u64,
    /// Per-worker lanes, grown on demand.
    lanes: Vec<WorkerLane>,
    /// Closed-epoch summaries still inside the retention horizon.
    epoch_metas: VecDeque<EpochMeta>,
    /// Closed epochs trimmed off the front of `epoch_metas`.
    epoch_base: u64,
    /// Keep the pushes/pulls of at most this many closed epochs (plus the
    /// open epoch). `None` = unbounded — the seed behavior.
    retain_epochs: Option<usize>,
    /// Earliest time from which queries are exact; `None` until the first
    /// eviction. Monotone: each eviction can only move it forward.
    horizon: Option<VirtualTime>,
}

impl PushHistory {
    /// An empty, unbounded history (the seed behavior).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history retaining the last `epochs` closed epochs.
    pub fn with_retention(epochs: usize) -> Self {
        let mut h = Self::new();
        h.set_retention(Some(epochs));
        h
    }

    /// Bounds (or, with `None`, unbounds) retention: records older than the
    /// last `epochs` closed epochs are evicted at each
    /// [`mark_epoch`](Self::mark_epoch). A bound of zero is clamped to one
    /// closed epoch. Within the retained horizon every query answers
    /// exactly as the unbounded history.
    pub fn set_retention(&mut self, epochs: Option<usize>) {
        self.retain_epochs = epochs.map(|e| e.max(1));
    }

    /// The current retention bound in closed epochs (`None` = unbounded).
    pub fn retention(&self) -> Option<usize> {
        self.retain_epochs
    }

    /// The earliest time at which queries are exact: `None` while nothing
    /// has been evicted (queries are exact everywhere), otherwise the
    /// eviction high-water mark — the time of the oldest retained push, or
    /// of the newest evicted one when an eviction emptied the ring.
    pub fn retention_horizon(&self) -> Option<VirtualTime> {
        self.horizon
    }

    /// Pushes evicted so far under the retention bound.
    pub fn evicted_pushes(&self) -> u64 {
        self.push_base
    }

    /// Pulls evicted so far under the retention bound.
    pub fn evicted_pulls(&self) -> u64 {
        self.pull_base
    }

    fn lane_mut(&mut self, worker: WorkerId) -> &mut WorkerLane {
        let i = worker.index();
        if self.lanes.len() <= i {
            self.lanes.resize_with(i + 1, WorkerLane::default);
        }
        &mut self.lanes[i]
    }

    fn lane(&self, worker: WorkerId) -> Option<&WorkerLane> {
        self.lanes.get(worker.index())
    }

    /// Appends a push record. Amortized `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` precedes the last recorded push
    /// (history must be chronological).
    pub fn record_push(&mut self, time: VirtualTime, worker: WorkerId) {
        debug_assert!(
            self.pushes.back().is_none_or(|last| last.time <= time),
            "push history must be chronological"
        );
        self.pushes.push_back(PushRecord { time, worker });
        let lane = self.lane_mut(worker);
        lane.push_times.push_back(time);
        lane.total_pushes += 1;
        if lane.first_push.is_none() {
            lane.first_push = Some(time);
        }
        lane.last_push = Some(time);
    }

    /// Appends a pull record. Amortized `O(1)`.
    pub fn record_pull(&mut self, time: VirtualTime, worker: WorkerId) {
        debug_assert!(
            self.pulls.back().is_none_or(|last| last.time <= time),
            "pull history must be chronological"
        );
        self.pulls.push_back(PullRecord { time, worker });
        self.lane_mut(worker).pull_times.push_back(time);
    }

    /// Number of closed epochs so far.
    pub fn closed_epochs(&self) -> u64 {
        self.epoch_base + self.epoch_metas.len() as u64
    }

    /// Absolute sequence number the next push will get (= total pushes ever
    /// recorded).
    fn next_seq(&self) -> u64 {
        self.push_base + self.pushes.len() as u64
    }

    /// Marks an epoch boundary: pushes recorded before this call belong to
    /// the closed epoch. Updates the per-worker epoch aggregates (amortized
    /// `O(1)` per push) and, under a retention bound, evicts records older
    /// than the horizon. Returns what was evicted so the host can account
    /// for it.
    pub fn mark_epoch(&mut self) -> EvictionCounts {
        let end_seq = self.next_seq();
        let start_seq = self
            .epoch_metas
            .back()
            .map_or(self.push_base, |m| m.end_seq);
        // Stamp per-worker aggregates for the epoch being closed. Scans
        // only the closing epoch's pushes: amortized O(1) per event.
        let stamp = self.closed_epochs() + 1;
        let lo = (start_seq - self.push_base) as usize;
        let hi = (end_seq - self.push_base) as usize;
        for i in lo..hi {
            let rec = self.pushes[i];
            let lane = self.lane_mut(rec.worker);
            if lane.epoch_stamp != stamp {
                lane.epoch_stamp = stamp;
                lane.epoch_pushes = 0;
                lane.epoch_first = Some(rec.time);
            }
            lane.epoch_pushes += 1;
            lane.epoch_last = Some(rec.time);
        }
        self.epoch_metas.push_back(EpochMeta { end_seq });
        self.evict()
    }

    /// Applies the retention bound after an epoch close.
    fn evict(&mut self) -> EvictionCounts {
        let Some(retain) = self.retain_epochs else {
            return EvictionCounts::default();
        };
        let closed = self.closed_epochs();
        if closed <= retain as u64 {
            return EvictionCounts::default();
        }
        // The oldest retained epoch starts where epoch `closed - retain - 1`
        // ended; everything before that sequence number leaves the ring.
        let boundary = closed - retain as u64 - 1;
        let cutoff_seq = match boundary.checked_sub(self.epoch_base) {
            Some(i) => match self.epoch_metas.get(i as usize) {
                Some(meta) => meta.end_seq,
                None => return EvictionCounts::default(),
            },
            // Already evicted past this boundary on a previous call.
            None => self.push_base,
        };
        let drop_pushes = cutoff_seq.saturating_sub(self.push_base) as usize;
        if drop_pushes == 0 && self.epoch_metas.len() <= retain {
            return EvictionCounts::default();
        }
        // Times strictly before the first retained push leave the pull ring
        // and the lanes; the first retained push time is the horizon. When
        // the eviction empties the ring (the retained epochs hold no
        // pushes), the newest evicted push time serves instead — queries
        // are half-open in `start`, so a window starting there is still
        // exact.
        let cutoff_time = match self.pushes.get(drop_pushes) {
            Some(p) => Some(p.time),
            None => self.pushes.back().map(|p| p.time),
        };
        self.pushes.drain(..drop_pushes);
        self.push_base += drop_pushes as u64;
        let mut dropped_pulls = 0u64;
        if let Some(cut) = cutoff_time {
            while self.pulls.front().is_some_and(|p| p.time < cut) {
                self.pulls.pop_front();
                dropped_pulls += 1;
            }
            for lane in &mut self.lanes {
                while lane.push_times.front().is_some_and(|&t| t < cut) {
                    lane.push_times.pop_front();
                }
                while lane.pull_times.front().is_some_and(|&t| t < cut) {
                    lane.evicted_last_pull = lane.pull_times.pop_front();
                }
            }
        }
        self.pull_base += dropped_pulls;
        // Any record leaving under `cutoff_time` moves the exactness
        // boundary there — a pull-only eviction advances it too.
        if drop_pushes > 0 || dropped_pulls > 0 {
            self.horizon = self.horizon.max(cutoff_time);
        }
        while self.epoch_metas.len() > retain {
            self.epoch_metas.pop_front();
            self.epoch_base += 1;
        }
        EvictionCounts {
            pushes: drop_pushes as u64,
            pulls: dropped_pulls,
        }
    }

    /// The retained pushes, chronological (the whole history when
    /// unbounded).
    pub fn pushes(&self) -> impl ExactSizeIterator<Item = PushRecord> + DoubleEndedIterator + '_ {
        self.pushes.iter().copied()
    }

    /// The retained pulls, chronological (the whole history when
    /// unbounded).
    pub fn pulls(&self) -> impl ExactSizeIterator<Item = PullRecord> + DoubleEndedIterator + '_ {
        self.pulls.iter().copied()
    }

    /// Retained pulls with `start <= time <= end`, located by binary search.
    pub fn pulls_in_range(
        &self,
        start: VirtualTime,
        end: VirtualTime,
    ) -> impl ExactSizeIterator<Item = PullRecord> + DoubleEndedIterator + '_ {
        let lo = self.pulls.partition_point(|p| p.time < start);
        let hi = self.pulls.partition_point(|p| p.time <= end);
        self.pulls.range(lo.min(hi)..hi).copied()
    }

    /// The push with absolute sequence number `seq`, if still retained.
    /// `O(1)`.
    pub fn push_at(&self, seq: u64) -> Option<PushRecord> {
        let i = seq.checked_sub(self.push_base)?;
        self.pushes.get(usize::try_from(i).ok()?).copied()
    }

    /// The absolute sequence range `[start, end)` spanned by the last
    /// `epochs` closed epochs (fewer if not that many have been marked, or
    /// if older records were already evicted). `None` if no epoch has been
    /// closed.
    pub fn recent_epoch_seq_range(&self, epochs: usize) -> Option<(u64, u64)> {
        let end = self.epoch_metas.back()?.end_seq;
        let closed = self.closed_epochs();
        let start = if closed > epochs as u64 {
            let boundary = closed - 1 - epochs as u64;
            match boundary.checked_sub(self.epoch_base) {
                Some(i) => self
                    .epoch_metas
                    .get(i as usize)
                    .map_or(self.push_base, |m| m.end_seq),
                None => self.push_base,
            }
        } else {
            0
        };
        Some((start.max(self.push_base), end))
    }

    /// The time span covered by the last `epochs` closed epochs, or `None`
    /// if no closed epoch contains a push.
    pub fn recent_epoch_range(&self, epochs: usize) -> Option<(VirtualTime, VirtualTime)> {
        let (start_seq, end_seq) = self.recent_epoch_seq_range(epochs)?;
        if start_seq == end_seq {
            return None;
        }
        let first = self.push_at(start_seq)?;
        let last = self.push_at(end_seq - 1)?;
        Some((first.time, last.time))
    }

    /// Number of pushes by workers other than `worker` in the half-open
    /// window `(start, start + window]`.
    ///
    /// `O(log n)`: a binary-searched count on the global ring minus the
    /// worker's own lane count over the same window — this is on the
    /// scheduler's notify/check hot path.
    pub fn pushes_by_others_in(
        &self,
        worker: WorkerId,
        start: VirtualTime,
        window: SimDuration,
    ) -> u64 {
        let end = start + window;
        let lo = self.pushes.partition_point(|p| p.time <= start);
        let hi = self.pushes.partition_point(|p| p.time <= end);
        let total = (hi - lo) as u64;
        let own = self.lane(worker).map_or(0, |lane| {
            let lo = lane.push_times.partition_point(|&t| t <= start);
            let hi = lane.push_times.partition_point(|&t| t <= end);
            (hi - lo) as u64
        });
        // Lane eviction cuts on time, the global ring on sequence; for
        // windows straddling the horizon the lane may retain a push the
        // ring already dropped. Saturate rather than underflow — such
        // windows are outside the exactness guarantee anyway.
        total.saturating_sub(own)
    }

    /// The most recent pull by `worker` at or before `cutoff`, if any.
    /// `O(log n)` on the worker's pull lane.
    pub fn last_pull_of(&self, worker: WorkerId, cutoff: VirtualTime) -> Option<VirtualTime> {
        let lane = self.lane(worker)?;
        let i = lane.pull_times.partition_point(|&t| t <= cutoff);
        match i.checked_sub(1).and_then(|i| lane.pull_times.get(i)) {
            Some(&t) => Some(t),
            // No retained pull qualifies: the worker's latest evicted pull
            // (which precedes every retained one) is the exact answer for
            // any cutoff at or past the retention horizon.
            None => lane.evicted_last_pull.filter(|&t| t <= cutoff),
        }
    }

    /// Mean push-to-push interval of `worker` over its pushes in the last
    /// closed epoch — the iteration-span estimate `T_i` of Eq. (6). Falls
    /// back to the worker's whole history, then to `None` if the worker has
    /// fewer than two pushes.
    ///
    /// `O(1)` and allocation-free: both the epoch figure and the fallback
    /// come from maintained lane aggregates, and the whole-history
    /// aggregates survive eviction, so the fallback stays exact beyond the
    /// retention horizon.
    pub fn iteration_span_of(&self, worker: WorkerId) -> Option<SimDuration> {
        let lane = self.lane(worker)?;
        if self.closed_epochs() > 0
            && lane.epoch_stamp == self.closed_epochs()
            && lane.epoch_pushes >= 2
        {
            if let (Some(first), Some(last)) = (lane.epoch_first, lane.epoch_last) {
                return Some(last.since(first) / (lane.epoch_pushes - 1));
            }
        }
        if lane.total_pushes >= 2 {
            if let (Some(first), Some(last)) = (lane.first_push, lane.last_push) {
                return Some(last.since(first) / (lane.total_pushes - 1));
            }
        }
        None
    }

    /// Total number of pushes ever recorded (evicted records included).
    pub fn len(&self) -> usize {
        self.push_base as usize + self.pushes.len()
    }

    /// Whether no pushes were ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pushes currently retained in the ring.
    pub fn retained_pushes(&self) -> usize {
        self.pushes.len()
    }

    /// Approximate resident size of the history's buffers in bytes (ring
    /// capacities plus lane capacities) — the "peak history bytes" figure
    /// the scalability sweep reports.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.pushes.capacity() * size_of::<PushRecord>()
            + self.pulls.capacity() * size_of::<PullRecord>()
            + self.epoch_metas.capacity() * size_of::<EpochMeta>()
            + self.lanes.capacity() * size_of::<WorkerLane>();
        for lane in &self.lanes {
            total += (lane.push_times.capacity() + lane.pull_times.capacity())
                * size_of::<VirtualTime>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> VirtualTime {
        VirtualTime::from_secs_f64(secs)
    }

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    #[test]
    fn window_counting_excludes_self_and_respects_bounds() {
        let mut h = PushHistory::new();
        h.record_push(t(1.0), w(0));
        h.record_push(t(2.0), w(1));
        h.record_push(t(3.0), w(2));
        h.record_push(t(4.0), w(1));
        // Window (1.0, 3.0]: pushes at 2.0 (w1) and 3.0 (w2); excludes own.
        assert_eq!(
            h.pushes_by_others_in(w(0), t(1.0), SimDuration::from_secs(2)),
            2
        );
        assert_eq!(
            h.pushes_by_others_in(w(1), t(1.0), SimDuration::from_secs(2)),
            1
        );
        // Left boundary excluded: the push at exactly `start` doesn't count.
        assert_eq!(
            h.pushes_by_others_in(w(5), t(2.0), SimDuration::from_secs(1)),
            1
        );
    }

    #[test]
    fn epoch_segmentation_returns_last_closed_epoch() {
        let mut h = PushHistory::new();
        assert!(h.recent_epoch_seq_range(1).is_none());
        h.record_push(t(1.0), w(0));
        h.mark_epoch();
        h.record_push(t(2.0), w(0));
        h.record_push(t(3.0), w(1));
        h.mark_epoch();
        h.record_push(t(4.0), w(1));
        assert_eq!(h.recent_epoch_seq_range(1), Some((1, 3)));
        assert_eq!(h.push_at(1).unwrap().time, t(2.0));
        assert_eq!(h.recent_epoch_range(1), Some((t(2.0), t(3.0))));
    }

    #[test]
    fn last_pull_respects_cutoff() {
        let mut h = PushHistory::new();
        h.record_pull(t(1.0), w(0));
        h.record_pull(t(3.0), w(1));
        h.record_pull(t(5.0), w(0));
        assert_eq!(h.last_pull_of(w(0), t(4.0)), Some(t(1.0)));
        assert_eq!(h.last_pull_of(w(0), t(10.0)), Some(t(5.0)));
        assert_eq!(h.last_pull_of(w(2), t(10.0)), None);
    }

    #[test]
    fn iteration_span_is_mean_push_gap() {
        let mut h = PushHistory::new();
        h.record_push(t(0.0), w(0));
        h.record_push(t(3.0), w(0));
        h.record_push(t(9.0), w(0));
        h.mark_epoch();
        // (9 - 0) / 2 = 4.5 s
        assert_eq!(
            h.iteration_span_of(w(0)),
            Some(SimDuration::from_secs_f64(4.5))
        );
        assert_eq!(h.iteration_span_of(w(1)), None);
    }

    #[test]
    fn iteration_span_falls_back_to_full_history() {
        let mut h = PushHistory::new();
        h.record_push(t(0.0), w(0));
        h.record_push(t(2.0), w(0));
        // No epoch marked: falls back to whole history.
        assert_eq!(h.iteration_span_of(w(0)), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn iteration_span_skips_stale_epoch_aggregates() {
        let mut h = PushHistory::new();
        h.record_push(t(0.0), w(0));
        h.record_push(t(4.0), w(0));
        h.mark_epoch();
        // w0 is silent in the next epoch: its epoch aggregates go stale and
        // the span must fall back to the whole history.
        h.record_push(t(5.0), w(1));
        h.record_push(t(6.0), w(1));
        h.mark_epoch();
        assert_eq!(h.iteration_span_of(w(0)), Some(SimDuration::from_secs(4)));
        assert_eq!(h.iteration_span_of(w(1)), Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn retention_evicts_old_epochs_but_preserves_in_horizon_queries() {
        let mut bounded = PushHistory::with_retention(2);
        let mut unbounded = PushHistory::new();
        for e in 0..6u64 {
            for i in 0..3usize {
                let at = t(e as f64 * 3.0 + i as f64);
                bounded.record_push(at, w(i));
                unbounded.record_push(at, w(i));
                bounded.record_pull(at, w((i + 1) % 3));
                unbounded.record_pull(at, w((i + 1) % 3));
            }
            bounded.mark_epoch();
            unbounded.mark_epoch();
        }
        assert!(bounded.evicted_pushes() > 0);
        assert!(bounded.retained_pushes() <= 9); // 2 closed epochs + open
        assert_eq!(bounded.len(), unbounded.len());
        assert_eq!(bounded.closed_epochs(), unbounded.closed_epochs());
        let horizon = bounded.retention_horizon().unwrap();
        // Every query whose window starts at or after the horizon matches.
        for probe in 0..18u64 {
            let start = t(probe as f64);
            if start < horizon {
                continue;
            }
            for i in 0..3usize {
                assert_eq!(
                    bounded.pushes_by_others_in(w(i), start, SimDuration::from_secs(2)),
                    unbounded.pushes_by_others_in(w(i), start, SimDuration::from_secs(2)),
                    "probe {probe} worker {i}"
                );
                assert_eq!(
                    bounded.last_pull_of(w(i), start),
                    unbounded.last_pull_of(w(i), start)
                );
                assert_eq!(
                    bounded.iteration_span_of(w(i)),
                    unbounded.iteration_span_of(w(i))
                );
            }
        }
        assert_eq!(
            bounded.recent_epoch_range(1),
            unbounded.recent_epoch_range(1)
        );
        assert_eq!(
            bounded.recent_epoch_range(2),
            unbounded.recent_epoch_range(2)
        );
    }

    #[test]
    fn eviction_counts_are_reported_once() {
        let mut h = PushHistory::with_retention(1);
        for e in 0..3u64 {
            h.record_push(t(e as f64), w(0));
            h.record_pull(t(e as f64), w(1));
            let counts = h.mark_epoch();
            if e < 1 {
                assert!(counts.is_zero());
            } else {
                assert_eq!(counts.pushes, 1, "epoch {e}");
            }
        }
        assert_eq!(h.evicted_pushes(), 2);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn push_at_addresses_by_absolute_sequence() {
        let mut h = PushHistory::with_retention(1);
        for e in 0..4u64 {
            h.record_push(t(e as f64), w(0));
            h.mark_epoch();
        }
        // Seqs 0..2 evicted; 3 retained.
        assert!(h.push_at(0).is_none());
        assert_eq!(h.push_at(3).map(|p| p.time), Some(t(3.0)));
        assert!(h.push_at(4).is_none());
        let (start, end) = h.recent_epoch_seq_range(1).unwrap();
        assert_eq!((start, end), (3, 4));
    }

    #[test]
    fn bounded_memory_stays_flat() {
        let mut h = PushHistory::with_retention(2);
        let mut peak_after_warmup = 0;
        for e in 0..200u64 {
            for i in 0..8usize {
                let at = VirtualTime::from_micros(e * 1000 + i as u64);
                h.record_push(at, w(i));
                h.record_pull(at, w(i));
            }
            h.mark_epoch();
            if e == 20 {
                peak_after_warmup = h.approx_bytes();
            }
        }
        // VecDeque growth is geometric; once retention kicks in the
        // footprint must stop growing (allow 2x for capacity slop).
        assert!(peak_after_warmup > 0);
        assert!(
            h.approx_bytes() <= peak_after_warmup * 2,
            "bytes grew: {} -> {}",
            peak_after_warmup,
            h.approx_bytes()
        );
    }
}
