//! The [`EventSink`] trait and its trivial implementations.

use std::fmt;

use parking_lot::Mutex;

use crate::event::{Event, Timestamp};

/// Where protocol events go.
///
/// `record` takes `&self`: the simulator emits from one thread, but the
/// threaded runtime emits from the server, scheduler and every worker
/// thread concurrently, all sharing one sink behind an `Arc`. Stateful
/// sinks handle their own interior mutability.
///
/// Implementations must be cheap when disabled — [`NullSink`] is the
/// default everywhere and must cost no more than a virtual call.
pub trait EventSink<T: Timestamp>: Send + Sync + fmt::Debug {
    /// Records one event stamped `at`.
    fn record(&self, at: T, event: &Event);

    /// Flushes any buffered output. The default is a no-op.
    fn flush(&self) {}
}

/// The zero-cost default sink: drops every event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl<T: Timestamp> EventSink<T> for NullSink {
    #[inline]
    fn record(&self, _at: T, _event: &Event) {}
}

/// Buffers every event in memory, in arrival order.
///
/// # Examples
///
/// ```
/// use specsync_simnet::{VirtualTime, WorkerId};
/// use specsync_telemetry::{Event, EventSink, InMemorySink};
///
/// let sink = InMemorySink::new();
/// sink.record(VirtualTime::from_secs(3), &Event::Notify { worker: WorkerId::new(1) });
/// let events = sink.take();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].0, VirtualTime::from_secs(3));
/// ```
#[derive(Debug, Default)]
pub struct InMemorySink<T> {
    events: Mutex<Vec<(T, Event)>>,
}

impl<T: Timestamp> InMemorySink<T> {
    /// An empty sink.
    pub fn new() -> Self {
        InMemorySink {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// A copy of the buffered events.
    pub fn events(&self) -> Vec<(T, Event)> {
        self.events.lock().clone()
    }

    /// Drains and returns the buffered events.
    pub fn take(&self) -> Vec<(T, Event)> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl<T: Timestamp> EventSink<T> for InMemorySink<T> {
    fn record(&self, at: T, event: &Event) {
        self.events.lock().push((at, event.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_simnet::{VirtualTime, WorkerId};

    #[test]
    fn null_sink_drops_everything() {
        let sink = NullSink;
        EventSink::record(
            &sink,
            VirtualTime::ZERO,
            &Event::Notify {
                worker: WorkerId::new(0),
            },
        );
        // Nothing observable: NullSink has no state by construction.
    }

    #[test]
    fn in_memory_sink_preserves_order() {
        let sink = InMemorySink::new();
        for i in 0..5u64 {
            sink.record(
                VirtualTime::from_secs(i),
                &Event::Push {
                    worker: WorkerId::new(0),
                    iteration: i + 1,
                },
            );
        }
        let events = sink.take();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(sink.is_empty());
    }
}
