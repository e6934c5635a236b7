//! Per-packet event tracing (optional; for debugging, fine assertions,
//! and machine-readable export via `mmt-telemetry`).

use crate::time::Time;
use std::collections::VecDeque;

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Accepted into a link's output queue.
    Enqueue,
    /// Dropped by the output queue.
    QueueDrop,
    /// Dropped for exceeding the link MTU.
    MtuDrop,
    /// Lost to corruption in flight.
    CorruptionLoss,
    /// Lost to a link outage (fault injection).
    FlapDrop,
    /// Control-plane packet dropped by selective control loss (fault
    /// injection).
    ControlDrop,
    /// A fault-injected duplicate copy was scheduled for delivery.
    DupInject,
    /// Arrived at a node.
    Arrive,
    /// Handed to a node's local application.
    LocalDeliver,
    /// A node crashed (scheduled fault): queued/arriving traffic is dropped
    /// and the node's soft state is lost until restart.
    NodeCrash,
    /// A crashed node came back up with empty state.
    NodeRestart,
    /// The control plane changed a flow's transport mode (the `config`
    /// field carries the new feature bitmap).
    ModeChange,
}

impl TraceKind {
    /// Stable snake_case name used by every exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::QueueDrop => "queue_drop",
            TraceKind::MtuDrop => "mtu_drop",
            TraceKind::CorruptionLoss => "corruption_loss",
            TraceKind::FlapDrop => "flap_drop",
            TraceKind::ControlDrop => "control_drop",
            TraceKind::DupInject => "dup_inject",
            TraceKind::Arrive => "arrive",
            TraceKind::LocalDeliver => "local_deliver",
            TraceKind::NodeCrash => "node_crash",
            TraceKind::NodeRestart => "node_restart",
            TraceKind::ModeChange => "mode_change",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: Time,
    /// What happened.
    pub kind: TraceKind,
    /// Node involved (if any).
    pub node: Option<usize>,
    /// Link involved (if any).
    pub link: Option<usize>,
    /// The packet's simulator id.
    pub packet_id: u64,
    /// The packet's wire length.
    pub len: usize,
    /// The packet's flow label (from [`crate::PacketMeta`]).
    pub flow: u64,
    /// MMT sequence number, when an instrumented element stamped one.
    pub seq: Option<u64>,
    /// MMT config (mode) id, when known.
    pub config: Option<u64>,
}

/// A packet-event recorder.
///
/// Three capacity modes:
/// * [`Trace::disabled`] — discards everything (zero cost).
/// * [`Trace::enabled`] — keeps every event (unbounded memory).
/// * [`Trace::with_capacity`] — bounded ring buffer: once full, each new
///   event evicts the **oldest** one (keep-last semantics, so the tail of
///   the run — usually where the interesting failure is — survives), and
///   [`Trace::dropped`] counts the evictions.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    capacity: Option<usize>,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// A recorder that discards everything (zero cost).
    pub fn disabled() -> Trace {
        Trace {
            enabled: false,
            capacity: None,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A recorder that keeps every event.
    pub fn enabled() -> Trace {
        Trace {
            enabled: true,
            capacity: None,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A recorder that keeps the most recent `capacity` events; older
    /// events are evicted FIFO and counted in [`Trace::dropped`].
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Trace {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            enabled: true,
            capacity: Some(capacity),
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Whether events are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// All retained events, in order (oldest first).
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// How many events the ring buffer evicted (0 in unbounded mode).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count events of a given kind.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, packet_id: u64) -> TraceEvent {
        TraceEvent {
            time: Time::ZERO,
            kind,
            node: None,
            link: None,
            packet_id,
            len: 0,
            flow: 0,
            seq: None,
            config: None,
        }
    }

    #[test]
    fn disabled_discards() {
        let mut t = Trace::disabled();
        t.record(ev(TraceKind::Arrive, 1));
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_records_and_filters() {
        let mut t = Trace::enabled();
        t.record(ev(TraceKind::Enqueue, 1));
        t.record(ev(TraceKind::Arrive, 1));
        t.record(ev(TraceKind::Arrive, 2));
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.count(TraceKind::Arrive), 2);
        assert_eq!(t.count(TraceKind::QueueDrop), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_buffer_keeps_last_n() {
        let mut t = Trace::with_capacity(3);
        for id in 1..=5 {
            t.record(ev(TraceKind::Arrive, id));
        }
        let ids: Vec<u64> = t.events().iter().map(|e| e.packet_id).collect();
        assert_eq!(ids, vec![3, 4, 5], "oldest events evicted first");
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        Trace::with_capacity(0);
    }
}
