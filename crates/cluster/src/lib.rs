//! # dollymp-cluster
//!
//! A time-slotted simulator of heterogeneous computing clusters with
//! stochastic stragglers and first-class task **clones** — the substrate
//! on which the DollyMP paper's experiments run (the 30-node YARN testbed
//! of §6.1–6.2 and the 30 000-server trace-driven simulator of §6.3 are
//! both instances of this engine; see DESIGN.md for the substitution
//! rationale).
//!
//! * [`spec`] — static cluster shapes (including the paper's 30-node
//!   cluster and Google-like fleets);
//! * [`execution`] — straggler models and *paired* duration sampling
//!   (identical task durations across schedulers for fair comparisons);
//! * [`capacity`] — the hierarchical free-capacity index (segment tree
//!   over per-server free resources) the engine maintains incrementally
//!   and every scheduler queries in O(log n);
//! * [`state`] — runtime job/phase/task/copy state;
//! * [`view`] — the read-only snapshot schedulers decide on;
//! * [`scheduler`] — the [`scheduler::Scheduler`] trait every policy
//!   implements, plus a FIFO/first-fit reference policy;
//! * [`engine`] — the simulation loop: the engine
//!   [`engine::try_simulate_with_faults_recorded`] (fault timeline,
//!   recorder, typed errors), its unrecorded
//!   [`engine::try_simulate_with_faults`], and the panicking fault-free
//!   convenience [`engine::simulate`];
//! * [`error`] — the typed admission/abort taxonomy
//!   ([`error::RejectReason`], [`error::SimError`]);
//! * [`guard`] — the [`guard::GuardedScheduler`] containment wrapper
//!   (validation, watchdog, panic isolation, safe fallback, overload
//!   backpressure);
//! * [`fault`] — timed fault events (crash / restore / fail-slow) and
//!   the sorted timeline the engine consumes;
//! * [`trace`] — the flight-recorder event schema ([`trace::Event`]) and
//!   the [`trace::Recorder`] sink trait the engine emits through, plus
//!   [`trace::Series`], which folds the stream into the copy timeline
//!   and the utilization series; the other consumers (journal, metrics
//!   registry, replay verifier) live in the `dollymp-obs` crate;
//! * [`metrics`] — per-job metrics, reports, CDF helpers.
//!
//! ## Quick start
//!
//! ```
//! use dollymp_cluster::prelude::*;
//! use dollymp_core::prelude::*;
//!
//! let cluster = ClusterSpec::homogeneous(4, 8.0, 16.0);
//! let jobs = vec![JobSpec::single_phase(JobId(0), 8, Resources::new(1.0, 2.0), 10.0, 3.0)];
//! let sampler = DurationSampler::new(42, StragglerModel::ParetoFit);
//! let mut policy = FifoFirstFit;
//! let report = simulate(&cluster, jobs, &sampler, &mut policy, &EngineConfig::default());
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].flowtime > 0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Containment discipline: non-test library code must not take shortcut
// aborts — every deliberate fail-loud site carries a local `#[allow]`
// with a justification comment.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod capacity;
pub mod engine;
pub mod error;
pub mod execution;
pub mod fault;
pub mod guard;
pub mod metrics;
pub mod scheduler;
pub mod spec;
pub mod state;
pub mod trace;
pub mod view;

/// Commonly used simulator types.
pub mod prelude {
    pub use crate::capacity::{CapacityIndex, CapacityOverlay};
    pub use crate::engine::{
        simulate, try_simulate_with_faults, try_simulate_with_faults_recorded, EngineConfig,
    };
    pub use crate::error::{AdmissionError, ProgressSnapshot, RejectReason, SimError};
    pub use crate::execution::{DurationSampler, StragglerModel};
    pub use crate::fault::{FaultEvent, FaultTimeline, TimedFault};
    pub use crate::guard::{CloneThrottle, GuardConfig, GuardedScheduler};
    pub use crate::metrics::{
        cdf, cdf_at, jain_index, quantile, FaultStats, GuardStats, JobMetrics, SchedOverhead,
        SimReport,
    };
    pub use crate::scheduler::{clone_allowed, Assignment, FifoFirstFit, Scheduler};
    pub use crate::spec::{ClusterSpec, ServerId, ServerSpec};
    pub use crate::state::{CopyKind, CopyState, JobState, PhaseState, TaskState, TaskStatus};
    pub use crate::trace::{Event as TraceEvent, NullRecorder, PassSpan, Recorder, Series};
    pub use crate::view::ClusterView;
}
