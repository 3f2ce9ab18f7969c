//! Instruments that measure the simulator's layers from outside, through
//! its public traits: a timing [`Scheduler`] that delegates to the real
//! policy, and a counting [`Recorder`].

use crate::alloc;
use dollymp_cluster::metrics::{CopyOutcome, GuardStats};
use dollymp_cluster::scheduler::{Assignment, Scheduler};
use dollymp_cluster::spec::ServerId;
use dollymp_cluster::state::{CopyKind, JobState};
use dollymp_cluster::trace::{Event, PassSpan, Recorder};
use dollymp_cluster::view::ClusterView;
use dollymp_core::job::{JobId, TaskRef};
use std::time::Instant;

/// Work one group of scheduler callbacks did during a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Calls made.
    pub calls: u64,
    /// Host time inside the calls, in nanoseconds.
    pub busy_ns: u64,
    /// Bytes allocated inside the calls.
    pub alloc_bytes: u64,
}

/// What the timing wrapper saw, totalled over the runs it watched.
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// When each `schedule()` call of the current run returned; these
    /// instants bound its decision points.
    pub schedule_returns: Vec<Instant>,
    /// Entry into the first callback of the current run (traced runs
    /// only).
    pub first_call: Option<Instant>,
    /// `on_job_arrival` (traced runs only).
    pub arrival: Layer,
    /// `schedule`, the placement pass (traced runs only).
    pub pass: Layer,
    /// Host time of each `schedule()` call, in nanoseconds (traced runs
    /// only).
    pub pass_ns: Vec<u64>,
    /// Assignments returned by `schedule()` (traced runs only).
    pub assignments: u64,
    /// Clone assignments among them (traced runs only).
    pub clone_assignments: u64,
    /// `on_server_down`, `on_server_up` and `on_task_lost` (traced runs
    /// only).
    pub fault_hooks: Layer,
    /// `on_job_finish` (traced runs only).
    pub finish_hooks: Layer,
}

impl ProbeStats {
    /// Host time inside every scheduler callback, in nanoseconds.
    pub fn callback_ns(&self) -> u64 {
        self.arrival.busy_ns
            + self.pass.busy_ns
            + self.fault_hooks.busy_ns
            + self.finish_hooks.busy_ns
    }

    /// Bytes allocated inside every scheduler callback.
    pub fn callback_alloc_bytes(&self) -> u64 {
        self.arrival.alloc_bytes
            + self.pass.alloc_bytes
            + self.fault_hooks.alloc_bytes
            + self.finish_hooks.alloc_bytes
    }

    /// Empty stats whose timestamp buffers hold `decision_capacity`
    /// entries without growing.
    pub fn with_capacity(decision_capacity: usize) -> Self {
        ProbeStats {
            schedule_returns: Vec::with_capacity(decision_capacity),
            pass_ns: Vec::with_capacity(decision_capacity),
            ..ProbeStats::default()
        }
    }
}

/// A [`Scheduler`] that delegates every call to `inner` and adds what it
/// measures to `stats`, so one [`ProbeStats`] can total several runs.
///
/// Untraced, it only timestamps `schedule()` returns. Traced, it also
/// times every callback and counts the bytes it allocates.
pub struct Probe<'a, S> {
    inner: S,
    traced: bool,
    stats: &'a mut ProbeStats,
}

impl<'a, S: Scheduler> Probe<'a, S> {
    /// Wrap `inner`.
    pub fn new(inner: S, traced: bool, stats: &'a mut ProbeStats) -> Self {
        Probe {
            inner,
            traced,
            stats,
        }
    }
}

/// Run `f` as one call of `layer`, timing it and counting its allocations
/// when `traced`.
fn timed<R>(
    traced: bool,
    first: &mut Option<Instant>,
    layer: &mut Layer,
    f: impl FnOnce() -> R,
) -> R {
    if !traced {
        return f();
    }
    let a0 = alloc::allocated();
    let t0 = Instant::now();
    first.get_or_insert(t0);
    let r = f();
    layer.busy_ns += t0.elapsed().as_nanos() as u64;
    layer.alloc_bytes += alloc::allocated() - a0;
    layer.calls += 1;
    r
}

impl<S: Scheduler> Scheduler for Probe<'_, S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        let st = &mut *self.stats;
        timed(self.traced, &mut st.first_call, &mut st.arrival, || {
            self.inner.on_job_arrival(view, job)
        })
    }

    fn on_job_finish(&mut self, job: &JobState) {
        let st = &mut *self.stats;
        timed(
            self.traced,
            &mut st.first_call,
            &mut st.finish_hooks,
            || self.inner.on_job_finish(job),
        )
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        let st = &mut *self.stats;
        timed(self.traced, &mut st.first_call, &mut st.fault_hooks, || {
            self.inner.on_server_down(view, server)
        })
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        let st = &mut *self.stats;
        timed(self.traced, &mut st.first_call, &mut st.fault_hooks, || {
            self.inner.on_server_up(view, server)
        })
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        let st = &mut *self.stats;
        timed(self.traced, &mut st.first_call, &mut st.fault_hooks, || {
            self.inner.on_task_lost(view, task)
        })
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let st = &mut *self.stats;
        let busy0 = st.pass.busy_ns;
        let batch = timed(self.traced, &mut st.first_call, &mut st.pass, || {
            self.inner.schedule(view)
        });
        st.schedule_returns.push(Instant::now());
        if self.traced {
            st.pass_ns.push(st.pass.busy_ns - busy0);
            st.assignments += batch.len() as u64;
            st.clone_assignments +=
                batch.iter().filter(|a| a.kind == CopyKind::Clone).count() as u64;
        }
        batch
    }

    fn guard_stats(&self) -> Option<GuardStats> {
        self.inner.guard_stats()
    }

    fn pass_span(&self) -> Option<PassSpan> {
        self.inner.pass_span()
    }
}

/// A [`Recorder`] that tallies the engine's events by kind and outcome
/// and keeps none of them, so it allocates nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Events of every kind.
    pub events: u64,
    /// `SchedSpan` events: one per decision point.
    pub sched_spans: u64,
    /// Prepare-stage nanoseconds summed over `SchedSpan` details.
    pub prepare_ns: u64,
    /// Placement-stage nanoseconds summed over `SchedSpan` details.
    pub placement_ns: u64,
    /// `CopyLaunch` events.
    pub copies_launched: u64,
    /// `CopyLaunch` events of clone copies.
    pub clones_launched: u64,
    /// Clone copies retired as the winner of their task.
    pub clones_won: u64,
    /// Copies retired because a sibling copy finished first.
    pub copies_killed: u64,
    /// `CopyEvict` events.
    pub copies_evicted: u64,
    /// `TaskSaved` events.
    pub tasks_saved: u64,
    /// `TaskLost` events.
    pub tasks_lost: u64,
}

impl Recorder for Tally {
    fn record(&mut self, ev: Event) {
        self.events += 1;
        match ev {
            Event::SchedSpan { detail, .. } => {
                self.sched_spans += 1;
                if let Some(d) = detail {
                    self.prepare_ns += d.prepare_ns;
                    self.placement_ns += d.placement_ns;
                }
            }
            Event::CopyLaunch { kind, .. } => {
                self.copies_launched += 1;
                if kind == CopyKind::Clone {
                    self.clones_launched += 1;
                }
            }
            Event::CopyRetire { kind, outcome, .. } => match outcome {
                CopyOutcome::Won if kind == CopyKind::Clone => self.clones_won += 1,
                CopyOutcome::Killed => self.copies_killed += 1,
                _ => {}
            },
            Event::CopyEvict { .. } => self.copies_evicted += 1,
            Event::TaskSaved { .. } => self.tasks_saved += 1,
            Event::TaskLost { .. } => self.tasks_lost += 1,
            _ => {}
        }
    }
}
