//! Timed fault events delivered to the engine: server crashes, repairs
//! and persistent fail-slow degradation.
//!
//! The *mechanism* lives here (event types, the sorted timeline the
//! engine consumes, and the engine-side counters in
//! [`crate::metrics::FaultStats`]); the *models* that generate schedules
//! — Poisson per-server crashes, correlated rack blackouts, fail-slow
//! onset — live in the `dollymp-faults` crate, keeping stochastic policy
//! out of the simulation substrate.
//!
//! Semantics (see DESIGN.md "Failure model"):
//!
//! * **Crash** takes a server offline: every copy running there is
//!   *evicted*. A task with another live copy elsewhere survives — the
//!   paper's cloning semantics extended to failures — while a task whose
//!   last copy was lost returns to `Ready` and is re-executed from
//!   scratch (map-style tasks are idempotent; there is no checkpoint).
//! * **Restore** brings the server back empty; its capacity becomes
//!   schedulable again at the same slot.
//! * **Degrade** is a persistent fail-slow onset: the server's effective
//!   speed is multiplied by the factor, stretching both the remaining
//!   work of in-flight copies and every future placement. Fail-slow
//!   servers keep accepting work — that is precisely what makes them
//!   dangerous (§2's stragglers, made permanent).
//!
//! Crash/Restore pairs may overlap (an individual crash inside a rack
//! blackout window): the engine keeps a per-server down-*count* and a
//! server is up only when its count is zero.

use crate::spec::ServerId;
use dollymp_core::time::Time;
use serde::{Deserialize, Serialize};

/// One fault-injection action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Server goes offline; running copies there are evicted.
    Crash(ServerId),
    /// Server comes back online, empty.
    Restore(ServerId),
    /// Persistent fail-slow onset: effective speed is multiplied by the
    /// factor (`0 < factor ≤ 1`).
    Degrade(ServerId, f64),
}

impl FaultEvent {
    /// The server this event targets.
    pub fn server(&self) -> ServerId {
        match *self {
            FaultEvent::Crash(s) | FaultEvent::Restore(s) | FaultEvent::Degrade(s, _) => s,
        }
    }
}

/// A fault event pinned to a slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedFault {
    /// Slot at which the event fires (before arrivals and scheduling of
    /// that slot, after completions of that slot are retired).
    pub at: Time,
    /// What happens.
    pub event: FaultEvent,
}

/// A deterministic, time-sorted fault schedule for one simulation run.
///
/// An empty timeline is what [`crate::engine::simulate`] runs under.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultTimeline {
    events: Vec<TimedFault>,
}

impl FaultTimeline {
    /// No faults at all.
    pub fn empty() -> Self {
        FaultTimeline::default()
    }

    /// Build a timeline, sorting events by slot (stable: events sharing a
    /// slot keep their given order, so generators control tie-breaks
    /// deterministically).
    pub fn new(mut events: Vec<TimedFault>) -> Self {
        events.sort_by_key(|e| e.at);
        for e in &events {
            if let FaultEvent::Degrade(_, f) = e.event {
                assert!(
                    f.is_finite() && f > 0.0 && f <= 1.0,
                    "degrade factor {f} must be in (0, 1]"
                );
            }
        }
        FaultTimeline { events }
    }

    /// The events, ascending in time.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of crash events (for quick sanity checks in experiments).
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, FaultEvent::Crash(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_sorts_and_counts() {
        let t = FaultTimeline::new(vec![
            TimedFault {
                at: 9,
                event: FaultEvent::Restore(ServerId(0)),
            },
            TimedFault {
                at: 3,
                event: FaultEvent::Crash(ServerId(0)),
            },
            TimedFault {
                at: 5,
                event: FaultEvent::Degrade(ServerId(1), 0.5),
            },
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.crash_count(), 1);
        assert_eq!(t.events()[0].at, 3);
        assert_eq!(t.events()[2].at, 9);
        assert!(!t.is_empty());
        assert!(FaultTimeline::empty().is_empty());
    }

    #[test]
    fn stable_order_within_a_slot() {
        // Crash and Restore of different servers at the same slot keep
        // their construction order.
        let t = FaultTimeline::new(vec![
            TimedFault {
                at: 4,
                event: FaultEvent::Crash(ServerId(1)),
            },
            TimedFault {
                at: 4,
                event: FaultEvent::Restore(ServerId(0)),
            },
        ]);
        assert_eq!(t.events()[0].event, FaultEvent::Crash(ServerId(1)));
        assert_eq!(t.events()[1].event, FaultEvent::Restore(ServerId(0)));
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn bad_degrade_factor_rejected() {
        let _ = FaultTimeline::new(vec![TimedFault {
            at: 0,
            event: FaultEvent::Degrade(ServerId(0), 0.0),
        }]);
    }

    #[test]
    fn serde_round_trip() {
        let t = FaultTimeline::new(vec![TimedFault {
            at: 7,
            event: FaultEvent::Degrade(ServerId(2), 0.25),
        }]);
        let json = serde_json::to_string(&t).unwrap();
        let back: FaultTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
