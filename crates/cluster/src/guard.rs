//! Containment layer between the engine and untrusted scheduling
//! policies.
//!
//! The engine's validation is deliberately strict — a bad assignment
//! aborts the run (the engine's internal `check_assignment`). That
//! is the right contract for *our* policies under test, but a production
//! control plane must keep serving when a third-party policy misbehaves
//! (ROADMAP north-star; the paper's §6.3.3 <20 ms/pass overhead budget is
//! likewise a contract, not an observation). [`GuardedScheduler`] wraps
//! any [`Scheduler`] and turns fatal misbehaviour into graceful
//! degradation:
//!
//! * **Admission validation** — every batch is checked against a
//!   batch-local replica of the engine's own rules before the engine
//!   sees it; invalid assignments are dropped and counted by
//!   [`RejectReason`] instead of aborting the run.
//! * **Watchdog** — each decision point is timed against a wall-clock
//!   budget (default: the paper's 20 ms contract): the inner policy's
//!   `on_job_arrival` calls of the slot plus its `schedule` pass, the
//!   same span as one [`crate::metrics::SchedOverhead`] sample.
//!   Overruns count as strikes.
//! * **Panic isolation** — a panicking policy is caught via
//!   `catch_unwind`; its internal state is then considered poisoned and
//!   it is quarantined immediately.
//! * **Quarantine + safe fallback** — a repeat offender (configurable
//!   strike count) is permanently replaced by a deterministic greedy
//!   first-fit, no-clone fallback ([`FifoFirstFit`]) so the simulation
//!   still completes.
//! * **Overload backpressure** — an optional per-pass batch cap with a
//!   bounded deferral queue, and a clone throttle that disables cloning
//!   while cluster utilization sits above a saturation threshold
//!   (re-enabling below a lower hysteresis threshold; clones only ever
//!   come from leftover capacity per Algorithm 2, so under saturation
//!   they are pure overhead).
//!
//! Everything the guard did is recorded in [`GuardStats`] and lands on
//! [`crate::metrics::SimReport::guard`]. With the default config and a
//! well-behaved policy the guard never intervenes and the report is
//! byte-identical to an unguarded run.

use crate::error::RejectReason;
use crate::metrics::GuardStats;
use crate::scheduler::{Assignment, FifoFirstFit, Scheduler};
use crate::spec::ServerId;
use crate::state::{CopyKind, TaskStatus};
use crate::view::ClusterView;
use dollymp_core::job::{JobId, TaskRef};
use dollymp_core::resources::Resources;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Clone-throttle hysteresis thresholds on cluster utilization (the max
/// of the CPU and memory used fractions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneThrottle {
    /// Throttling engages when utilization reaches this fraction.
    pub high: f64,
    /// Throttling releases when utilization falls back below this
    /// fraction (must be ≤ `high`; the gap is the hysteresis band that
    /// prevents oscillation at the boundary).
    pub low: f64,
}

impl Default for CloneThrottle {
    fn default() -> Self {
        CloneThrottle {
            high: 0.95,
            low: 0.80,
        }
    }
}

/// Tunables for [`GuardedScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Wall-clock budget for one decision point — the slot's arrival
    /// hooks plus the scheduling pass (watchdog). Defaults to the
    /// paper's §6.3.3 scheduling-overhead contract of 20 ms.
    pub budget: Duration,
    /// Offending passes (any rejection, a budget overrun, or a rescued
    /// stall) tolerated before the policy is quarantined and replaced by
    /// the safe fallback. A caught panic quarantines immediately
    /// regardless — the policy's state is poisoned.
    pub max_strikes: u32,
    /// Per-task live-copy cap used for validation. Must match
    /// [`crate::engine::EngineConfig::max_copies_per_task`] (both default
    /// to 8), otherwise the guard admits batches the engine rejects or
    /// vice versa.
    pub max_copies_per_task: u32,
    /// Overload backpressure: cap on assignments admitted per pass.
    /// Excess assignments are deferred to a bounded pending queue and
    /// replayed (re-validated) on later passes. `None` (the default)
    /// disables the cap.
    pub max_batch: Option<usize>,
    /// Capacity of the deferral queue; overflow is dropped (and
    /// counted). Only meaningful with `max_batch`.
    pub pending_cap: usize,
    /// Clone throttling under saturation. `None` (the default) disables
    /// it.
    pub clone_throttle: Option<CloneThrottle>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            budget: Duration::from_millis(20),
            max_strikes: 3,
            max_copies_per_task: 8,
            max_batch: None,
            pending_cap: 4096,
            clone_throttle: None,
        }
    }
}

impl GuardConfig {
    /// Preset for overload experiments: defaults plus the clone throttle
    /// engaged (see `bench_guard`).
    pub fn overload() -> Self {
        GuardConfig {
            clone_throttle: Some(CloneThrottle::default()),
            ..GuardConfig::default()
        }
    }
}

/// A [`Scheduler`] wrapper that contains misbehaving policies instead of
/// letting them abort the run. See the module docs for the mechanism.
///
/// `name()` delegates to the inner policy so guarded and unguarded
/// reports compare directly; [`Scheduler::guard_stats`] returns the
/// containment counters, which the engine stores on the report.
pub struct GuardedScheduler<S> {
    inner: S,
    cfg: GuardConfig,
    fallback: FifoFirstFit,
    stats: GuardStats,
    strikes: u32,
    quarantined: bool,
    /// Servers currently down, tracked from the engine's fault hooks
    /// (the view alone cannot distinguish a crashed server from a full
    /// one).
    down: BTreeSet<usize>,
    /// Clone-throttle hysteresis state.
    throttling: bool,
    /// Deferred assignments awaiting replay (bounded by
    /// `cfg.pending_cap`).
    pending: VecDeque<Assignment>,
    /// Time the inner policy spent in this slot's `on_job_arrival`
    /// calls, charged to the watchdog at the next pass.
    arrival_time: Duration,
}

impl<S: Scheduler> GuardedScheduler<S> {
    /// Wrap `inner` with the default guard configuration.
    pub fn new(inner: S) -> Self {
        Self::with_config(inner, GuardConfig::default())
    }

    /// Wrap `inner` with an explicit configuration.
    pub fn with_config(inner: S, cfg: GuardConfig) -> Self {
        GuardedScheduler {
            inner,
            cfg,
            fallback: FifoFirstFit,
            stats: GuardStats::default(),
            strikes: 0,
            quarantined: false,
            down: BTreeSet::new(),
            throttling: false,
            pending: VecDeque::new(),
            arrival_time: Duration::ZERO,
        }
    }

    /// Containment counters so far.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// True once the inner policy has been replaced by the fallback.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The wrapped policy (e.g. to inspect its state after a run).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn quarantine(&mut self, now: dollymp_core::time::Time) {
        if !self.quarantined {
            self.quarantined = true;
            self.stats.quarantined_at = Some(now);
        }
    }

    fn strike(&mut self, now: dollymp_core::time::Time) {
        self.strikes += 1;
        if self.strikes >= self.cfg.max_strikes {
            self.quarantine(now);
        }
    }

    /// Run one inner-policy callback with panic isolation. A panic
    /// poisons the policy: it is quarantined on the spot.
    fn contained<R: Default>(
        &mut self,
        now: dollymp_core::time::Time,
        f: impl FnOnce(&mut S) -> R,
    ) -> R {
        if self.quarantined {
            return R::default();
        }
        // The inner policy's state may be torn mid-panic; we never call
        // it again afterwards, which is what makes the unwind-safety
        // assertion sound.
        match catch_unwind(AssertUnwindSafe(|| f(&mut self.inner))) {
            Ok(r) => r,
            Err(_) => {
                self.stats.policy_panics += 1;
                self.quarantine(now);
                R::default()
            }
        }
    }

    /// Update the clone-throttle hysteresis from the current view and
    /// return whether clones are currently suppressed.
    fn update_throttle(&mut self, view: &ClusterView<'_>) -> bool {
        let Some(th) = self.cfg.clone_throttle else {
            return false;
        };
        let (cpu, mem) = crate::metrics::utilization(view.totals(), view.total_free());
        let util = cpu.max(mem);
        if self.throttling {
            if util < th.low {
                self.throttling = false;
            }
        } else if util >= th.high {
            self.throttling = true;
        }
        self.throttling
    }

    /// Validate `batch` against a batch-local replica of the engine's
    /// admission rules, admitting entries in order and tracking their
    /// effects (so e.g. a clone right after its primary in the same
    /// batch is legal, exactly as in the engine). Rejections are
    /// recorded in the stats only for entries at index ≥ `count_from` —
    /// replayed deferrals (the prefix) going stale is expected, not an
    /// offence, and the fallback's own batches pass `usize::MAX`.
    ///
    /// Returns `(admitted, any_counted_rejection)`.
    fn validate(
        &mut self,
        view: &ClusterView<'_>,
        batch: Vec<Assignment>,
        count_from: usize,
    ) -> (Vec<Assignment>, bool) {
        // Batch-local capacity accounting on an overlay: O(1) to start,
        // no per-batch clone of the per-server free vector.
        let free = view.capacity().begin_batch();
        // Effective (status, live copies) per task touched this batch.
        let mut effect: BTreeMap<TaskRef, (TaskStatus, u32)> = BTreeMap::new();
        let mut admitted = Vec::with_capacity(batch.len());
        let mut rejected_any = false;
        for (i, a) in batch.into_iter().enumerate() {
            match self.admit_one(view, &free, &effect, &a) {
                Ok(demand) => {
                    // `admit_one` checked the fit.
                    free.commit(a.server, demand);
                    let e = effect.entry(a.task).or_insert_with(|| {
                        // `admit_one` verified the lookups.
                        let t = view
                            .job(a.task.job)
                            .map(|j| j.task(a.task.phase, a.task.task));
                        t.map(|t| (t.status, t.live_copies()))
                            .unwrap_or((TaskStatus::Ready, 0))
                    });
                    e.0 = TaskStatus::Running;
                    e.1 += 1;
                    admitted.push(a);
                }
                Err(reason) => {
                    if i >= count_from {
                        rejected_any = true;
                        self.stats.record_rejection(reason);
                    }
                }
            }
        }
        (admitted, rejected_any)
    }

    /// Check one assignment against the batch-local state; `Ok` carries
    /// the phase demand so the caller can charge it.
    fn admit_one(
        &self,
        view: &ClusterView<'_>,
        free: &crate::capacity::CapacityOverlay<'_>,
        effect: &BTreeMap<TaskRef, (TaskStatus, u32)>,
        a: &Assignment,
    ) -> Result<Resources, RejectReason> {
        let Some(job) = view.job(a.task.job) else {
            return Err(RejectReason::UnknownJob);
        };
        let pi = a.task.phase.0 as usize;
        let ti = a.task.task.0 as usize;
        if pi >= job.spec().num_phases() || ti >= job.spec().phase(a.task.phase).ntasks as usize {
            return Err(RejectReason::UnknownJob);
        }
        if !job.phase_state(a.task.phase).runnable {
            return Err(RejectReason::UnknownJob);
        }
        let (status, live) = effect.get(&a.task).copied().unwrap_or_else(|| {
            let t = job.task(a.task.phase, a.task.task);
            (t.status, t.live_copies())
        });
        match a.kind {
            CopyKind::Primary => {
                if status != TaskStatus::Ready || live > 0 {
                    return Err(RejectReason::DuplicateCopy);
                }
            }
            CopyKind::Clone => {
                if status != TaskStatus::Running {
                    return Err(RejectReason::DuplicateCopy);
                }
                if live >= self.cfg.max_copies_per_task {
                    return Err(RejectReason::DuplicateCopy);
                }
            }
        }
        let sid = a.server.0 as usize;
        if sid >= view.cluster().len() || self.down.contains(&sid) {
            return Err(RejectReason::ServerDown);
        }
        let demand = job.spec().phase(a.task.phase).demand;
        if !demand.fits_in(free.free(a.server)) {
            return Err(RejectReason::OverCommit);
        }
        Ok(demand)
    }

    /// One safe-fallback pass: deterministic greedy first-fit, no
    /// clones, validated like everything else (silently — the fallback
    /// is ours).
    fn fallback_pass(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.stats.fallback_passes += 1;
        let batch = self.fallback.schedule(view);
        self.validate(view, batch, usize::MAX).0
    }
}

impl<S: Scheduler> Scheduler for GuardedScheduler<S> {
    /// Delegates to the inner policy: a guarded report names the policy
    /// it guards, keeping guarded/unguarded comparisons apples-to-
    /// apples. (After quarantine the report still carries the inner
    /// name; `GuardStats::quarantined_at` records the substitution.)
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        let t0 = Instant::now();
        self.contained(view.now, |s| s.on_job_arrival(view, job));
        self.arrival_time += t0.elapsed();
    }

    fn on_job_finish(&mut self, job: &crate::state::JobState) {
        let at = job.finish_time().unwrap_or(0);
        self.contained(at, |s| s.on_job_finish(job));
    }

    fn on_server_down(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.down.insert(server.0 as usize);
        self.contained(view.now, |s| s.on_server_down(view, server));
    }

    fn on_server_up(&mut self, view: &ClusterView<'_>, server: ServerId) {
        self.down.remove(&(server.0 as usize));
        self.contained(view.now, |s| s.on_server_up(view, server));
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, task: TaskRef) {
        self.contained(view.now, |s| s.on_task_lost(view, task));
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let now = view.now;
        let throttle = self.update_throttle(view);
        let arrival_time = std::mem::take(&mut self.arrival_time);

        // Raw batch: fallback if quarantined, otherwise the inner policy
        // under panic isolation and the watchdog clock, which also counts
        // the slot's arrival hooks.
        let mut offended = false;
        let mut raw = if self.quarantined {
            self.stats.fallback_passes += 1;
            self.fallback.schedule(view)
        } else {
            let t0 = Instant::now();
            let batch = self.contained(now, |s| s.schedule(view));
            if arrival_time + t0.elapsed() > self.cfg.budget {
                self.stats.budget_overruns += 1;
                offended = true;
            }
            if self.quarantined {
                // The policy panicked mid-pass; serve the slot with the
                // fallback so the run keeps moving.
                self.stats.fallback_passes += 1;
                self.fallback.schedule(view)
            } else {
                batch
            }
        };

        // Saturation backpressure: under sustained overload clones are
        // pure overhead (Algorithm 2 only grants them leftovers), so
        // drop them before validation charges capacity for them.
        if throttle {
            let before = raw.len();
            raw.retain(|a| a.kind == CopyKind::Primary);
            self.stats.clones_throttled += (before - raw.len()) as u64;
        }

        // Replayed deferrals go first (they have been waiting), then the
        // fresh batch; one sequential validation pass over both, with
        // only the fresh tail eligible to count as offences.
        let mut combined: Vec<Assignment> = Vec::with_capacity(self.pending.len() + raw.len());
        let n_replayed = self.pending.len();
        combined.extend(self.pending.drain(..));
        combined.extend(raw);
        let (mut admitted, rejected_any) = self.validate(view, combined, n_replayed);
        if rejected_any {
            offended = true;
        }

        // Bounded per-pass cap: defer the excess, drop on queue
        // overflow.
        if let Some(cap) = self.cfg.max_batch {
            if admitted.len() > cap {
                let excess = admitted.split_off(cap);
                for a in excess {
                    if self.pending.len() < self.cfg.pending_cap {
                        self.pending.push_back(a);
                        self.stats.deferred += 1;
                    } else {
                        self.stats.deferrals_dropped += 1;
                    }
                }
            }
        }

        // Stall rescue: nothing admitted, nothing running anywhere, and
        // ready work exists — without intervention the engine would
        // abort the run as stalled. Only a *productive* rescue is an
        // offence (an all-down cluster legitimately idles).
        if admitted.is_empty()
            && !self.quarantined
            && view.jobs().any(|j| j.iter_ready().next().is_some())
            && view.jobs().all(|j| j.iter_running().next().is_none())
        {
            let rescue = self.fallback_pass(view);
            if !rescue.is_empty() {
                self.stats.stall_rescues += 1;
                offended = true;
                admitted = rescue;
            } else {
                self.stats.fallback_passes -= 1; // unproductive probe
            }
        }

        if offended && !self.quarantined {
            self.strike(now);
        }
        admitted
    }

    fn guard_stats(&self) -> Option<GuardStats> {
        Some(self.stats)
    }

    fn pass_span(&self) -> Option<crate::trace::PassSpan> {
        self.inner.pass_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, try_simulate_with_faults, EngineConfig};
    use crate::execution::{DurationSampler, StragglerModel};
    use crate::fault::FaultTimeline;
    use crate::spec::ClusterSpec;
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(4, 8.0, 16.0)
    }

    fn jobs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec::single_phase(JobId(i), 6, Resources::new(2.0, 4.0), 12.0, 4.0))
            .collect()
    }

    fn sampler() -> DurationSampler {
        DurationSampler::new(11, StragglerModel::ParetoFit)
    }

    /// A policy that panics on its `k`-th scheduling pass.
    struct PanicAt {
        k: u32,
        calls: u32,
    }

    impl Scheduler for PanicAt {
        fn name(&self) -> String {
            "panic-at".into()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            self.calls += 1;
            assert!(self.calls < self.k, "deliberate test panic");
            FifoFirstFit.schedule(view)
        }
    }

    /// A policy that always over-commits server 0.
    struct OverCommitter;

    impl Scheduler for OverCommitter {
        fn name(&self) -> String {
            "overcommitter".into()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            // Legal batch, then repeat it verbatim: every repeat is a
            // duplicate primary and/or over-commitment.
            let mut b = FifoFirstFit.schedule(view);
            let extra: Vec<Assignment> = b.clone();
            b.extend(extra);
            b
        }
    }

    #[test]
    fn clean_policy_is_byte_identical_and_clean() {
        let c = cluster();
        let s = sampler();
        let cfg = EngineConfig::default();
        let unguarded = simulate(&c, jobs(4), &s, &mut FifoFirstFit, &cfg);
        let mut guard = GuardedScheduler::new(FifoFirstFit);
        let guarded = simulate(&c, jobs(4), &s, &mut guard, &cfg);
        assert!(guarded.guard.is_clean());
        assert_eq!(guard.stats().total_rejections(), 0);
        // Wall-clock fields differ run to run; everything else must not.
        assert_eq!(unguarded.without_wall_clock(), guarded.without_wall_clock());
    }

    #[test]
    fn panic_is_contained_and_quarantines() {
        let c = cluster();
        let s = sampler();
        let cfg = EngineConfig::default();
        let mut guard = GuardedScheduler::new(PanicAt { k: 2, calls: 0 });
        let report =
            try_simulate_with_faults(&c, jobs(4), &s, &mut guard, &cfg, &FaultTimeline::empty())
                .expect("contained");
        assert_eq!(report.jobs.len(), 4, "every job completes");
        assert_eq!(report.guard.policy_panics, 1);
        assert!(report.guard.quarantined_at.is_some());
        assert!(report.guard.fallback_passes > 0);
        assert!(guard.is_quarantined());
    }

    #[test]
    fn invalid_assignments_are_dropped_not_fatal() {
        let c = cluster();
        let s = sampler();
        let cfg = EngineConfig::default();
        // 24 tasks on 16 slots of capacity force ≥2 placing passes, and
        // every placing pass of this policy offends: 2 strikes ⇒
        // quarantine is deterministic.
        let mut guard = GuardedScheduler::with_config(
            OverCommitter,
            GuardConfig {
                max_strikes: 2,
                ..GuardConfig::default()
            },
        );
        let report =
            try_simulate_with_faults(&c, jobs(4), &s, &mut guard, &cfg, &FaultTimeline::empty())
                .expect("contained");
        assert_eq!(report.jobs.len(), 4);
        assert!(report.guard.total_rejections() > 0);
        assert!(report.guard.quarantined_at.is_some());
    }

    #[test]
    fn watchdog_counts_overruns() {
        struct Slow;
        impl Scheduler for Slow {
            fn name(&self) -> String {
                "slow".into()
            }
            fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
                std::thread::sleep(Duration::from_millis(3));
                FifoFirstFit.schedule(view)
            }
        }
        let c = cluster();
        let s = sampler();
        let cfg = EngineConfig::default();
        let mut guard = GuardedScheduler::with_config(
            Slow,
            GuardConfig {
                budget: Duration::from_micros(100),
                // Keep the (valid) batches flowing: overruns strike, and
                // we want several recorded before quarantine.
                max_strikes: u32::MAX,
                ..GuardConfig::default()
            },
        );
        let report =
            try_simulate_with_faults(&c, jobs(2), &s, &mut guard, &cfg, &FaultTimeline::empty())
                .expect("contained");
        assert!(report.guard.budget_overruns > 0);
        assert!(report.guard.quarantined_at.is_none());
    }

    #[test]
    fn watchdog_counts_slow_arrival_hooks() {
        struct SlowArrival;
        impl Scheduler for SlowArrival {
            fn name(&self) -> String {
                "slow-arrival".into()
            }
            fn on_job_arrival(&mut self, _view: &ClusterView<'_>, _job: JobId) {
                std::thread::sleep(Duration::from_millis(3));
            }
            fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
                FifoFirstFit.schedule(view)
            }
        }
        let mut guard = GuardedScheduler::with_config(
            SlowArrival,
            GuardConfig {
                budget: Duration::from_millis(1),
                max_strikes: u32::MAX,
                ..GuardConfig::default()
            },
        );
        let report = try_simulate_with_faults(
            &cluster(),
            jobs(2),
            &sampler(),
            &mut guard,
            &EngineConfig::default(),
            &FaultTimeline::empty(),
        )
        .expect("contained");
        assert!(
            report.guard.budget_overruns >= 1,
            "a decision point whose arrival hooks overrun the budget is an overrun"
        );
    }

    #[test]
    fn stall_rescue_completes_the_run() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn schedule(&mut self, _view: &ClusterView<'_>) -> Vec<Assignment> {
                Vec::new()
            }
        }
        let c = cluster();
        let s = sampler();
        let cfg = EngineConfig::default();
        let mut guard = GuardedScheduler::with_config(
            Lazy,
            GuardConfig {
                max_strikes: 1,
                ..GuardConfig::default()
            },
        );
        let report =
            try_simulate_with_faults(&c, jobs(3), &s, &mut guard, &cfg, &FaultTimeline::empty())
                .expect("rescued");
        assert_eq!(report.jobs.len(), 3);
        assert!(report.guard.stall_rescues > 0);
        assert!(
            report.guard.quarantined_at.is_some(),
            "chronic staller gets quarantined"
        );
    }

    #[test]
    fn clone_throttle_hysteresis_engages_and_releases() {
        // Drive update_throttle directly with synthetic views.
        let c = ClusterSpec::homogeneous(2, 10.0, 10.0);
        let jobs_map = std::collections::BTreeMap::new();
        let mut g = GuardedScheduler::with_config(FifoFirstFit, GuardConfig::overload());

        let full = crate::capacity::CapacityIndex::from_free(&[
            Resources::new(0.0, 0.0),
            Resources::new(0.5, 0.5),
        ]);
        let view = ClusterView::new(0, &c, &full, &jobs_map);
        assert!(g.update_throttle(&view), "≥95% used engages the throttle");

        // 90% used: inside the hysteresis band — still throttling.
        let band = crate::capacity::CapacityIndex::from_free(&[
            Resources::new(1.0, 1.0),
            Resources::new(1.0, 1.0),
        ]);
        let view = ClusterView::new(1, &c, &band, &jobs_map);
        assert!(g.update_throttle(&view), "hysteresis holds above low");

        // 50% used: below low — released.
        let idle = crate::capacity::CapacityIndex::from_free(&[
            Resources::new(5.0, 5.0),
            Resources::new(5.0, 5.0),
        ]);
        let view = ClusterView::new(2, &c, &idle, &jobs_map);
        assert!(!g.update_throttle(&view), "below low releases");
    }

    #[test]
    fn batch_cap_defers_and_replays() {
        let c = cluster();
        let s = sampler();
        let cfg = EngineConfig::default();
        let mut guard = GuardedScheduler::with_config(
            FifoFirstFit,
            GuardConfig {
                max_batch: Some(2),
                ..GuardConfig::default()
            },
        );
        let report =
            try_simulate_with_faults(&c, jobs(4), &s, &mut guard, &cfg, &FaultTimeline::empty())
                .expect("capped");
        assert_eq!(report.jobs.len(), 4, "deferral still completes the run");
        assert!(report.guard.deferred > 0, "the cap bit at least once");
        assert_eq!(report.guard.deferrals_dropped, 0);
    }
}
