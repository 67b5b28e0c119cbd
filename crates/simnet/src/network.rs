//! Network model: message delivery delays and transfer accounting.
//!
//! Delivery delay for a message of `n` bytes is `latency + n / bandwidth`.
//! Every delivered message is also recorded in a [`TransferLedger`] keyed by
//! [`MessageClass`], which is the substrate behind the paper's Fig. 12
//! (accumulated transfer over time) and Fig. 13 (transfer breakdown).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::rng::DurationSampler;
use crate::time::{SimDuration, VirtualTime};

/// The kind of traffic a message belongs to, for accounting purposes.
///
/// `PullParams` and `PushGrad` carry model-sized payloads; the three control
/// classes carry tiny fixed-size messages — exactly the breakdown the paper
/// reports in Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MessageClass {
    /// A worker pulling the full parameter snapshot from servers.
    PullParams,
    /// A worker pushing a gradient to servers.
    PushGrad,
    /// A worker's `notify` message to the SpecSync scheduler.
    Notify,
    /// The scheduler's `re-sync` instruction to a worker.
    Resync,
    /// Other control traffic (barrier releases, epoch kicks, ...).
    Control,
}

impl MessageClass {
    /// All classes in a stable order (useful for report tables).
    pub const ALL: [MessageClass; 5] = [
        MessageClass::PullParams,
        MessageClass::PushGrad,
        MessageClass::Notify,
        MessageClass::Resync,
        MessageClass::Control,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::PullParams => "pull",
            MessageClass::PushGrad => "push",
            MessageClass::Notify => "notify",
            MessageClass::Resync => "re-sync",
            MessageClass::Control => "control",
        }
    }

    /// Inverse of [`MessageClass::label`]; `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<Self> {
        MessageClass::ALL.into_iter().find(|c| c.label() == label)
    }
}

impl std::fmt::Display for MessageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameters of the simulated interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Per-message propagation latency.
    pub latency: DurationSampler,
    /// Link bandwidth in bytes per second (per flow).
    pub bandwidth_bytes_per_sec: f64,
}

impl NetworkModel {
    /// A model resembling intra-AZ EC2 networking: ~0.5 ms latency,
    /// ~1 Gbit/s per-flow bandwidth (m4.xlarge class).
    pub fn ec2_like() -> Self {
        NetworkModel {
            latency: DurationSampler::LogNormal {
                mean: 0.0005,
                cv: 0.3,
            },
            bandwidth_bytes_per_sec: 125_000_000.0,
        }
    }

    /// An idealized zero-latency, infinite-bandwidth network (for unit tests
    /// that want pure algorithm behaviour).
    pub fn instant() -> Self {
        NetworkModel {
            latency: DurationSampler::Constant { secs: 0.0 },
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Samples the delivery delay for a message of `bytes` bytes:
    /// `latency + bytes / bandwidth`. Congestion spikes are a link fault
    /// (`LinkFaultProfile::spike_prob`), not part of the base model.
    pub fn delay<R: Rng>(&self, bytes: u64, rng: &mut R) -> SimDuration {
        let transmit_secs = if self.bandwidth_bytes_per_sec.is_finite() {
            bytes as f64 / self.bandwidth_bytes_per_sec
        } else {
            0.0
        };
        self.latency.sample(rng) + SimDuration::from_secs_f64(transmit_secs)
    }
}

/// One accounting entry: a message of some class delivered at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// When the message finished delivery.
    pub time: VirtualTime,
    /// Traffic class.
    pub class: MessageClass,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Accumulates per-class byte counts and a time series of cumulative
/// transfer, the raw material for the paper's Fig. 12/13.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferLedger {
    records: Vec<TransferRecord>,
    totals: std::collections::BTreeMap<MessageClass, u64>,
}

impl TransferLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivered message.
    pub fn record(&mut self, time: VirtualTime, class: MessageClass, bytes: u64) {
        self.records.push(TransferRecord { time, class, bytes });
        *self.totals.entry(class).or_insert(0) += bytes;
    }

    /// Total bytes transferred across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.totals.values().sum()
    }

    /// Total bytes for one class.
    pub fn bytes_for(&self, class: MessageClass) -> u64 {
        self.totals.get(&class).copied().unwrap_or(0)
    }

    /// All raw records in delivery order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Cumulative transfer sampled at `points` evenly spaced instants in
    /// `[0, horizon]` — the series plotted in Fig. 12.
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`.
    pub fn cumulative_series(
        &self,
        horizon: VirtualTime,
        points: usize,
    ) -> Vec<(VirtualTime, u64)> {
        assert!(points > 0, "need at least one sample point");
        let mut sorted: Vec<&TransferRecord> = self.records.iter().collect();
        sorted.sort_by_key(|r| r.time);
        let mut out = Vec::with_capacity(points);
        let mut acc: u64 = 0;
        let mut idx = 0;
        for p in 1..=points {
            let t = VirtualTime::from_micros(horizon.as_micros() * p as u64 / points as u64);
            while idx < sorted.len() && sorted[idx].time <= t {
                acc += sorted[idx].bytes;
                idx += 1;
            }
            out.push((t, acc));
        }
        out
    }

    /// Per-class byte totals in a stable order.
    pub fn breakdown(&self) -> Vec<(MessageClass, u64)> {
        MessageClass::ALL
            .iter()
            .map(|&c| (c, self.bytes_for(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn instant_network_has_zero_delay() {
        let net = NetworkModel::instant();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.delay(1_000_000, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn delay_includes_transmission_time() {
        let net = NetworkModel {
            latency: DurationSampler::Constant { secs: 0.001 },
            bandwidth_bytes_per_sec: 1_000_000.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        // 500 KB over 1 MB/s = 0.5 s, plus 1 ms latency.
        let d = net.delay(500_000, &mut rng);
        assert_eq!(d, SimDuration::from_secs_f64(0.501));
    }

    #[test]
    fn class_labels_round_trip() {
        for class in MessageClass::ALL {
            assert_eq!(MessageClass::from_label(class.label()), Some(class));
        }
        assert_eq!(MessageClass::from_label("bogus"), None);
    }

    #[test]
    fn ledger_accumulates_by_class() {
        let mut ledger = TransferLedger::new();
        ledger.record(VirtualTime::from_secs_f64(1.0), MessageClass::PushGrad, 100);
        ledger.record(VirtualTime::from_secs_f64(2.0), MessageClass::PushGrad, 50);
        ledger.record(VirtualTime::from_secs_f64(3.0), MessageClass::Notify, 8);
        assert_eq!(ledger.bytes_for(MessageClass::PushGrad), 150);
        assert_eq!(ledger.bytes_for(MessageClass::Notify), 8);
        assert_eq!(ledger.bytes_for(MessageClass::Resync), 0);
        assert_eq!(ledger.total_bytes(), 158);
    }

    #[test]
    fn cumulative_series_is_monotone_and_complete() {
        let mut ledger = TransferLedger::new();
        for i in 1..=10u64 {
            ledger.record(VirtualTime::from_secs(i), MessageClass::PullParams, 10);
        }
        let series = ledger.cumulative_series(VirtualTime::from_secs(10), 5);
        assert_eq!(series.len(), 5);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1, "series must be non-decreasing");
        }
        assert_eq!(series.last().unwrap().1, 100);
    }

    #[test]
    fn breakdown_lists_all_classes() {
        let ledger = TransferLedger::new();
        let breakdown = ledger.breakdown();
        assert_eq!(breakdown.len(), MessageClass::ALL.len());
        assert!(breakdown.iter().all(|&(_, b)| b == 0));
    }
}
