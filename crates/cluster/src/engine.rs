//! The time-slotted simulation engine (§3's model, §6.3's simulator).
//!
//! The engine advances an integer slot clock, but *event-accelerated*: all
//! arrivals and durations are integer slots, so every state change lands
//! on a slot boundary and the engine jumps directly to the next one with
//! work to do. At each decision point it
//!
//! 1. retires every copy finishing at that slot (the first copy of a task
//!    to finish wins; all sibling copies are killed and their resources
//!    freed, per the kill-on-first-finish rule of §5.2),
//! 2. unlocks phases whose parents completed (Eq. 7),
//! 3. admits arriving jobs (notifying the scheduler),
//! 4. invokes [`Scheduler::schedule`] once and applies the returned batch.
//!
//! Assignment validation is strict: an over-committing or ill-typed
//! assignment aborts the run, because a buggy scheduler must fail loudly
//! rather than silently skew an experiment. There are three entry
//! points: [`try_simulate_with_faults_recorded`] is the engine itself
//! (fault timeline, flight recorder, typed [`SimError`] on abort);
//! [`try_simulate_with_faults`] is the same run with recording off; and
//! [`simulate`] is the fault-free convenience that panics with the
//! error's message (the historical research contract). To *tolerate* a
//! misbehaving policy instead of aborting on it, wrap it in
//! [`crate::guard::GuardedScheduler`]. Copy timelines and utilization
//! series are folded from the event stream by [`crate::trace::Series`].

use crate::capacity::CapacityIndex;
use crate::error::{AdmissionError, ProgressSnapshot, RejectReason, SimError};
use crate::execution::DurationSampler;
use crate::fault::{FaultEvent, FaultTimeline};
use crate::metrics::{utilization, CopyOutcome, FaultStats, JobMetrics, SchedOverhead, SimReport};
use crate::scheduler::{Assignment, Scheduler};
use crate::spec::{ClusterSpec, ServerId};
use crate::state::{CopyKind, CopyState, JobState, TaskStatus};
use crate::trace::{Event as TraceEvent, NullRecorder, Recorder};
use crate::view::ClusterView;
use dollymp_core::job::{JobId, JobSpec, PhaseId, TaskId, TaskRef};
use dollymp_core::resources::Resources;
use dollymp_core::time::Time;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Engine tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Hard mechanism cap on concurrent copies per task (original +
    /// clones). The engine default (8) is deliberately loose: the
    /// *policy* budget — the paper's 3-copy limit of §5, or the DollyMP³
    /// ablation's 4 — belongs to the scheduler; this cap only catches
    /// runaway cloning bugs.
    pub max_copies_per_task: u32,
    /// Safety valve: panic if the clock passes this slot (a scheduler
    /// livelock would otherwise spin forever).
    pub max_slots: Time,
    /// Extra periodic decision points every `tick` slots while jobs are
    /// active (§6.3: "at the beginning of each interval, DollyMP shall
    /// check the amount of available resources"). `None` (the default)
    /// schedules only on arrivals/completions — sufficient for policies
    /// without progress monitoring and much faster; speculative execution
    /// needs a tick to observe stragglers mid-flight.
    pub tick: Option<Time>,
    /// Remote-read penalty for data locality: a copy of a *root-phase*
    /// task (one that reads its input block from the distributed file
    /// system) placed on neither of the block's two replica servers (see
    /// [`crate::execution::block_replicas`]) has its duration multiplied
    /// by this factor. `1.0` (the default) disables locality modelling;
    /// the paper's YARN layer places clones on replicas to avoid exactly
    /// this cost.
    pub remote_penalty: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_copies_per_task: 8,
            max_slots: 500_000_000,
            tick: None,
            remote_penalty: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    finish: Time,
    seq: u64,
    task: TaskRef,
    copy_idx: u32,
}

/// Run one fault-free simulation to completion and return the report.
///
/// Jobs are admitted at their `arrival` slots; the run ends when every job
/// has completed. Durations come from `sampler` (scheduler-independent —
/// see [`crate::execution`]) scaled by server speed at placement.
///
/// # Panics
/// Wherever [`try_simulate_with_faults`] returns an error, with the
/// error's `Display` form as the message:
/// * if any phase demand fits no server in the cluster (the job could
///   never run);
/// * on invalid assignments (unknown job/task, over-commitment, cloning a
///   non-running task, exceeding the copy cap);
/// * if the scheduler stalls (active jobs, no running copies, no future
///   arrivals, and an empty scheduling batch);
/// * if the clock exceeds `cfg.max_slots`.
pub fn simulate(
    cluster: &ClusterSpec,
    jobs: Vec<JobSpec>,
    sampler: &DurationSampler,
    scheduler: &mut dyn Scheduler,
    cfg: &EngineConfig,
) -> SimReport {
    match try_simulate_with_faults(
        cluster,
        jobs,
        sampler,
        scheduler,
        cfg,
        &FaultTimeline::empty(),
    ) {
        Ok(report) => report,
        // Fail-loud contract: the panic message is the typed error's
        // Display form (it preserves the historical phrasing).
        Err(e) => panic!("{e}"),
    }
}

/// Deferred scheduler callback for a fault applied this slot: mutations
/// happen first, then every hook runs against one consistent view.
enum FaultHook {
    Down(ServerId),
    Up(ServerId),
    Lost(TaskRef),
}

/// Snapshot of the engine's progress state for stall/overrun errors.
fn progress_snapshot(active: &BTreeMap<JobId, JobState>, last_progress: Time) -> ProgressSnapshot {
    ProgressSnapshot {
        active_jobs: active
            .keys()
            .copied()
            .take(ProgressSnapshot::MAX_LISTED)
            .collect(),
        total_active: active.len(),
        pending_tasks: active.values().map(|j| j.iter_ready().count()).sum(),
        last_progress,
    }
}

/// A run under a fault schedule (see [`crate::fault`]) with recording
/// off: [`try_simulate_with_faults_recorded`] with a [`NullRecorder`].
/// Every abort path comes back as a typed [`SimError`], so one bad policy
/// or workload cannot kill a whole sweep.
pub fn try_simulate_with_faults(
    cluster: &ClusterSpec,
    jobs: Vec<JobSpec>,
    sampler: &DurationSampler,
    scheduler: &mut dyn Scheduler,
    cfg: &EngineConfig,
    faults: &FaultTimeline,
) -> Result<SimReport, SimError> {
    try_simulate_with_faults_recorded(
        cluster,
        jobs,
        sampler,
        scheduler,
        cfg,
        faults,
        &mut NullRecorder,
    )
}

/// The engine: run to completion under a fault schedule with a flight
/// recorder attached, emitting every observable state transition as a
/// [`TraceEvent`] (see [`crate::trace`]).
///
/// Fault events fire at their slot *after* completions of that slot are
/// retired and *before* arrivals and the scheduling pass, so a task
/// re-queued by a crash is schedulable in the same slot its copies died.
/// Faults add two abort paths: an assignment targeting a downed server,
/// and a malformed timeline (e.g. a `Restore` for a server that is not
/// down).
///
/// Events are emitted in deterministic engine order; on an `Err` return
/// the journal simply stops at the abort point (replay is only defined
/// for completed runs). The recorder's `enabled()` flag is read once:
/// with a [`NullRecorder`] every emission site is skipped and the report
/// is byte-identical to a recorded run's.
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_with_faults_recorded(
    cluster: &ClusterSpec,
    jobs: Vec<JobSpec>,
    sampler: &DurationSampler,
    scheduler: &mut dyn Scheduler,
    cfg: &EngineConfig,
    faults: &FaultTimeline,
    recorder: &mut dyn Recorder,
) -> Result<SimReport, SimError> {
    // Read once: the journal is either fully on or fully off for a run,
    // and a disabled recorder must cost nothing on the hot path (no
    // event construction, one dead branch per emission site).
    let recording = recorder.enabled();
    for j in &jobs {
        for (pi, p) in j.phases().iter().enumerate() {
            if !cluster
                .servers()
                .iter()
                .any(|s| p.demand.fits_in(s.capacity))
            {
                return Err(SimError::Unsatisfiable {
                    job: j.id,
                    phase: pi as u32,
                    demand: p.demand,
                });
            }
        }
    }

    let totals = cluster.totals();
    let mut arrivals: Vec<JobSpec> = jobs;
    // Pop from the back ⇒ ascending (arrival, id).
    arrivals.sort_by_key(|j| std::cmp::Reverse((j.arrival, j.id)));

    let mut active: BTreeMap<JobId, JobState> = BTreeMap::new();
    // Hierarchical free-capacity index, incrementally maintained across
    // launch/retire/fault events — never re-snapshotted per decision point.
    let mut free = CapacityIndex::from_capacities(cluster);
    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut done: Vec<JobMetrics> = Vec::new();
    let mut decision_points = 0u64;
    let mut scheduling_ns = 0u64;
    // One entry per decision point: schedule() plus the on-arrival
    // refreshes that preceded it in the same slot (§6.3.3 overhead).
    let mut overhead_samples: Vec<u64> = Vec::new();
    let mut now: Time = 0;
    // Last slot at which anything observable happened (admission, launch
    // or retirement) — surfaced in stall/overrun errors for debugging.
    let mut last_progress: Time = 0;
    // Fault machinery. `down` is a *count* so overlapping crash windows
    // (rack blackout + individual crash) compose; a server is up iff 0.
    let mut down: Vec<u32> = vec![0; cluster.len()];
    let mut speed_factor: Vec<f64> = vec![1.0; cluster.len()];
    let mut fault_idx = 0usize;
    let mut fstats = FaultStats::default();
    // Guard counters as of the previous pass, for per-pass journal deltas.
    let mut prev_guard = crate::metrics::GuardStats::default();
    // Scratch buffers reused across decision points so the steady-state
    // loop allocates nothing.
    let mut finished_jobs: Vec<JobId> = Vec::new();
    let mut hooks: Vec<FaultHook> = Vec::new();
    let mut children_scratch: Vec<PhaseId> = Vec::new();

    while !arrivals.is_empty() || !active.is_empty() {
        // Drop stale events (killed copies) from the heap front.
        while let Some(Reverse(ev)) = events.peek() {
            if copy_is_live(&active, ev) {
                break;
            }
            events.pop();
        }
        let next_event = events.peek().map(|Reverse(e)| e.finish);
        let next_arrival = arrivals.last().map(|j| j.arrival);
        let next_fault = faults.events().get(fault_idx).map(|f| f.at);
        // A periodic tick only matters while copies are in flight (it
        // exists to let progress monitors observe running stragglers).
        let next_tick = match (cfg.tick, next_event) {
            (Some(k), Some(_)) if !active.is_empty() => Some(now + k.max(1)),
            _ => None,
        };
        let t = match [next_event, next_arrival, next_tick, next_fault]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) => t,
            None => {
                return Err(SimError::Stalled {
                    scheduler: scheduler.name(),
                    at: now,
                    progress: progress_snapshot(&active, last_progress),
                })
            }
        };
        now = now.max(t);
        if now > cfg.max_slots {
            return Err(SimError::ClockOverrun {
                scheduler: scheduler.name(),
                max_slots: cfg.max_slots,
                at: now,
                progress: progress_snapshot(&active, last_progress),
            });
        }
        if recording {
            recorder.record(TraceEvent::SlotTick { at: now });
        }

        // 1) Retire copies finishing now (and any stale events en route).
        finished_jobs.clear();
        while let Some(Reverse(ev)) = events.peek() {
            if ev.finish > now {
                break;
            }
            #[allow(clippy::expect_used)] // loop condition peeked it
            let ev = events.pop().expect("peeked").0;
            if !copy_is_live(&active, &ev) {
                continue;
            }
            retire_copy(
                &mut active,
                &mut free,
                totals,
                now,
                &ev,
                &mut finished_jobs,
                &mut children_scratch,
                recording,
                recorder,
            );
            last_progress = now;
        }
        for id in finished_jobs.drain(..) {
            #[allow(clippy::expect_used)] // retire_copy listed it from `active`
            let job = active.remove(&id).expect("finished job present");
            let metrics = job_metrics(&job, now);
            if recording {
                recorder.record(TraceEvent::JobCompletion {
                    at: now,
                    metrics: metrics.clone(),
                });
            }
            done.push(metrics);
            scheduler.on_job_finish(&job);
        }

        // 1b) Apply fault events due now — after completions (a copy
        // finishing exactly at the crash slot completed first), before
        // arrivals and scheduling (re-queued tasks compete this slot).
        hooks.clear();
        while faults.events().get(fault_idx).is_some_and(|f| f.at <= now) {
            let f = faults.events()[fault_idx];
            fault_idx += 1;
            apply_fault(
                f.event,
                now,
                cluster,
                totals,
                &mut active,
                &mut free,
                &mut down,
                &mut speed_factor,
                &mut events,
                &mut seq,
                &mut fstats,
                &mut hooks,
                recording,
                recorder,
            )?;
        }
        if !hooks.is_empty() {
            let view = ClusterView {
                now,
                spec: cluster,
                cap: &free,
                jobs: &active,
            };
            for h in &hooks {
                match *h {
                    FaultHook::Down(s) => scheduler.on_server_down(&view, s),
                    FaultHook::Up(s) => scheduler.on_server_up(&view, s),
                    FaultHook::Lost(t) => scheduler.on_task_lost(&view, t),
                }
            }
        }

        // 2) Admit arrivals.
        let mut arrival_ns = 0u64;
        while arrivals.last().is_some_and(|j| j.arrival <= now) {
            #[allow(clippy::expect_used)] // loop condition peeked it
            let spec = arrivals.pop().expect("peeked");
            let id = spec.id;
            if active.contains_key(&id) {
                return Err(SimError::DuplicateJob { job: id });
            }
            last_progress = now;
            let tables: Vec<Vec<f64>> = spec
                .phases()
                .iter()
                .enumerate()
                .map(|(pi, p)| sampler.phase_table(id, PhaseId(pi as u32), p))
                .collect();
            active.insert(id, JobState::new(spec, tables));
            if recording {
                recorder.record(TraceEvent::JobArrival { at: now, job: id });
            }
            let view = ClusterView {
                now,
                spec: cluster,
                cap: &free,
                jobs: &active,
            };
            let t0 = std::time::Instant::now();
            scheduler.on_job_arrival(&view, id);
            arrival_ns += t0.elapsed().as_nanos() as u64;
        }

        // 3) One scheduling pass.
        if !active.is_empty() {
            let view = ClusterView {
                now,
                spec: cluster,
                cap: &free,
                jobs: &active,
            };
            let t0 = std::time::Instant::now();
            let batch = scheduler.schedule(&view);
            let schedule_ns = t0.elapsed().as_nanos() as u64;
            scheduling_ns += schedule_ns;
            overhead_samples.push(arrival_ns + schedule_ns);
            decision_points += 1;
            if recording {
                // The span precedes the batch's CopyLaunch events, so a
                // journal reader sees "decided, then placed".
                recorder.record(TraceEvent::SchedSpan {
                    at: now,
                    decision_point: decision_points,
                    arrival_ns,
                    schedule_ns,
                    batch: batch.len() as u64,
                    detail: scheduler.pass_span(),
                });
                if let Some(gs) = scheduler.guard_stats() {
                    let delta = gs.diff(&prev_guard);
                    if delta != crate::metrics::GuardStats::default() {
                        recorder.record(TraceEvent::GuardDelta { at: now, delta });
                    }
                    prev_guard = gs;
                }
            }

            // Pending fault events are future decision points too: a
            // fully-crashed cluster legitimately idles until a Restore.
            let stalled_risk =
                events.is_empty() && arrivals.is_empty() && fault_idx >= faults.len();
            if stalled_risk && batch.is_empty() {
                return Err(SimError::Stalled {
                    scheduler: scheduler.name(),
                    at: now,
                    progress: progress_snapshot(&active, last_progress),
                });
            }
            for a in batch {
                check_assignment(cluster, cfg, now, &active, &free, &down, &a)?;
                apply_assignment(
                    cluster,
                    sampler,
                    cfg,
                    now,
                    &mut active,
                    &mut free,
                    &speed_factor,
                    &mut events,
                    &mut seq,
                    a,
                    recording,
                    recorder,
                );
                last_progress = now;
            }
        }
        if recording {
            // O(1): the index keeps the total-free running sum up to date
            // across launch/retire/fault events (exact integer milli-unit
            // arithmetic, so it equals a full re-summation bit-for-bit).
            let total_free = free.total_free();
            debug_assert_eq!(
                total_free,
                free.fold_total_free(),
                "incremental total-free counter drifted from the re-summed value"
            );
            let (cpu, mem) = utilization(totals, total_free);
            recorder.record(TraceEvent::UtilSample { at: now, cpu, mem });
        }
    }

    debug_assert!(
        cluster.servers().iter().enumerate().all(|(i, s)| {
            let f = free.free(ServerId(i as u32));
            if down[i] > 0 {
                f == Resources::ZERO
            } else {
                f == s.capacity
            }
        }),
        "resource leak: free != capacity after drain"
    );

    let makespan = done.iter().map(|j| j.finish).max().unwrap_or(0);
    Ok(SimReport {
        scheduler: scheduler.name(),
        jobs: done,
        makespan,
        decision_points,
        scheduling_ns,
        sched_overhead: SchedOverhead::from_samples(&overhead_samples),
        utilization: Vec::new(),
        timeline: Vec::new(),
        faults: fstats,
        guard: scheduler.guard_stats().unwrap_or_default(),
    })
}

fn copy_is_live(active: &BTreeMap<JobId, JobState>, ev: &Event) -> bool {
    active
        .get(&ev.task.job)
        .map(|j| {
            j.task(ev.task.phase, ev.task.task)
                .copies
                .iter()
                // The finish check drops events obsoleted by a fail-slow
                // stretch (the copy re-queued a later event); without
                // faults a copy's finish never changes, so it is inert.
                .any(|c| c.copy_idx == ev.copy_idx && c.live && c.finish == ev.finish)
        })
        .unwrap_or(false)
}

/// Apply one fault event: mutate cluster/job state and queue the
/// scheduler hooks to run once every event of the slot has landed.
///
/// A malformed timeline (unknown server, restore of a server that is
/// not down) yields [`SimError::InvalidTimeline`] instead of mutating
/// anything.
#[allow(clippy::too_many_arguments)]
fn apply_fault(
    event: FaultEvent,
    now: Time,
    cluster: &ClusterSpec,
    totals: Resources,
    active: &mut BTreeMap<JobId, JobState>,
    free: &mut CapacityIndex,
    down: &mut [u32],
    speed_factor: &mut [f64],
    events: &mut BinaryHeap<Reverse<Event>>,
    seq: &mut u64,
    stats: &mut FaultStats,
    hooks: &mut Vec<FaultHook>,
    recording: bool,
    recorder: &mut dyn Recorder,
) -> Result<(), SimError> {
    let server = event.server();
    let sid = server.0 as usize;
    if sid >= cluster.len() {
        return Err(SimError::InvalidTimeline {
            at: now,
            detail: format!("fault event for unknown server {sid}"),
        });
    }
    match event {
        FaultEvent::Crash(_) => {
            down[sid] += 1;
            if down[sid] > 1 {
                // Already offline (overlapping blackout window): counted,
                // nothing left to evict.
                return Ok(());
            }
            stats.server_crashes += 1;
            if recording {
                recorder.record(TraceEvent::ServerCrash { at: now, server });
            }
            free.set_free(server, Resources::ZERO);
            hooks.push(FaultHook::Down(server));
            for (&jid, job) in active.iter_mut() {
                for pi in 0..job.tasks.len() {
                    let demand_norm = job
                        .spec()
                        .phase(PhaseId(pi as u32))
                        .demand
                        .normalized_sum(totals);
                    for ti in 0..job.tasks[pi].len() {
                        let tref = TaskRef {
                            job: jid,
                            phase: PhaseId(pi as u32),
                            task: TaskId(ti as u32),
                        };
                        let task = &mut job.tasks[pi][ti];
                        if task.status != TaskStatus::Running {
                            continue;
                        }
                        let mut evicted = false;
                        for c in task
                            .copies
                            .iter_mut()
                            .filter(|c| c.live && c.server == server)
                        {
                            c.live = false;
                            evicted = true;
                            let wasted = demand_norm * now.saturating_sub(c.start) as f64;
                            job.usage_norm += wasted;
                            stats.copies_evicted += 1;
                            stats.work_lost_norm += wasted;
                            if recording {
                                recorder.record(TraceEvent::CopyEvict {
                                    at: now,
                                    task: tref,
                                    copy_idx: c.copy_idx,
                                    server: c.server,
                                    kind: c.kind,
                                    start: c.start,
                                    work_lost_norm: wasted,
                                });
                            }
                        }
                        if !evicted {
                            continue;
                        }
                        if task.copies.iter().any(|c| c.live) {
                            // A live clone elsewhere carries the task —
                            // cloning as fault tolerance (§5.2's mechanism
                            // repurposed).
                            stats.tasks_saved_by_clone += 1;
                            if recording {
                                recorder.record(TraceEvent::TaskSaved {
                                    at: now,
                                    task: tref,
                                });
                            }
                        } else {
                            // Work-conserving re-queue: all progress lost,
                            // the task re-enters the ready pool.
                            task.status = TaskStatus::Ready;
                            stats.tasks_requeued += 1;
                            if recording {
                                recorder.record(TraceEvent::TaskLost {
                                    at: now,
                                    task: tref,
                                });
                            }
                            hooks.push(FaultHook::Lost(tref));
                        }
                    }
                }
            }
        }
        FaultEvent::Restore(_) => {
            if down[sid] == 0 {
                return Err(SimError::InvalidTimeline {
                    at: now,
                    detail: format!("restore at slot {now} for server {sid} that is not down"),
                });
            }
            down[sid] -= 1;
            if down[sid] == 0 {
                free.set_free(server, cluster.server(server).capacity);
                stats.server_recoveries += 1;
                if recording {
                    recorder.record(TraceEvent::ServerRestore { at: now, server });
                }
                hooks.push(FaultHook::Up(server));
            }
        }
        FaultEvent::Degrade(_, factor) => {
            speed_factor[sid] *= factor;
            stats.server_degradations += 1;
            if recording {
                recorder.record(TraceEvent::ServerDegrade {
                    at: now,
                    server,
                    factor,
                });
            }
            // Stretch in-flight copies: the remaining slots inflate by the
            // factor; the superseded heap event goes stale via the finish
            // check in `copy_is_live`.
            for (&jid, job) in active.iter_mut() {
                for pi in 0..job.tasks.len() {
                    for ti in 0..job.tasks[pi].len() {
                        let tref = TaskRef {
                            job: jid,
                            phase: PhaseId(pi as u32),
                            task: TaskId(ti as u32),
                        };
                        let task = &mut job.tasks[pi][ti];
                        for c in task
                            .copies
                            .iter_mut()
                            .filter(|c| c.live && c.server == server)
                        {
                            let remaining = c.finish.saturating_sub(now).max(1);
                            c.finish = now + ((remaining as f64 / factor).ceil() as Time).max(1);
                            *seq += 1;
                            events.push(Reverse(Event {
                                finish: c.finish,
                                seq: *seq,
                                task: tref,
                                copy_idx: c.copy_idx,
                            }));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Retire the copy named by `ev` as the task's winner; kill siblings,
/// update phase/job bookkeeping, and record fully finished jobs.
#[allow(clippy::too_many_arguments)]
fn retire_copy(
    active: &mut BTreeMap<JobId, JobState>,
    free: &mut CapacityIndex,
    totals: Resources,
    now: Time,
    ev: &Event,
    finished_jobs: &mut Vec<JobId>,
    children_scratch: &mut Vec<PhaseId>,
    recording: bool,
    recorder: &mut dyn Recorder,
) {
    #[allow(clippy::expect_used)] // copy_is_live gated the event on this
    let job = active
        .get_mut(&ev.task.job)
        .expect("live copy ⇒ job active");
    let demand = job.spec().phase(ev.task.phase).demand;
    let demand_norm = demand.normalized_sum(totals);
    let pi = ev.task.phase.0 as usize;
    let ti = ev.task.task.0 as usize;

    let task = &mut job.tasks[pi][ti];
    debug_assert_eq!(task.status, TaskStatus::Running);
    let mut winner_start = now;
    // End every live copy: the winner completes, the rest are killed.
    for c in task.copies.iter_mut().filter(|c| c.live) {
        c.live = false;
        free.add_free(c.server, demand);
        job.usage_norm += demand_norm * now.saturating_sub(c.start) as f64;
        if c.copy_idx == ev.copy_idx {
            winner_start = c.start;
        }
        if recording {
            recorder.record(TraceEvent::CopyRetire {
                at: now,
                task: ev.task,
                copy_idx: c.copy_idx,
                server: c.server,
                kind: c.kind,
                start: c.start,
                outcome: if c.copy_idx == ev.copy_idx {
                    CopyOutcome::Won
                } else {
                    CopyOutcome::Killed
                },
            });
        }
    }
    task.status = TaskStatus::Done;
    task.finish = Some(now);
    task.winner = Some(ev.copy_idx);
    job.phases[pi]
        .observed
        .push(now.saturating_sub(winner_start) as f64);

    debug_assert!(job.phases[pi].remaining > 0);
    job.phases[pi].remaining -= 1;
    if job.phases[pi].remaining == 0 {
        // Unlock children whose parents are now all complete (Eq. 7).
        // Copied into a reused scratch buffer to release the spec borrow.
        children_scratch.clear();
        children_scratch.extend_from_slice(job.spec().children(ev.task.phase));
        for &child in children_scratch.iter() {
            let ready = job
                .spec()
                .phase(child)
                .parents
                .iter()
                .all(|p| job.phases[p.0 as usize].remaining == 0);
            if ready && !job.phases[child.0 as usize].runnable {
                job.phases[child.0 as usize].runnable = true;
                for t in &mut job.tasks[child.0 as usize] {
                    debug_assert_eq!(t.status, TaskStatus::Blocked);
                    t.status = TaskStatus::Ready;
                }
            }
        }
        if job.is_done() {
            job.finish = Some(now);
            finished_jobs.push(job.id());
        }
    }
}

/// Validate one assignment against current engine state *before* any
/// mutation, classifying each failure mode on the [`RejectReason`]
/// taxonomy. [`crate::guard::GuardedScheduler`] performs the same checks
/// (against its batch-local view) so that guarded batches always pass
/// here.
fn check_assignment(
    cluster: &ClusterSpec,
    cfg: &EngineConfig,
    now: Time,
    active: &BTreeMap<JobId, JobState>,
    free: &CapacityIndex,
    down: &[u32],
    a: &Assignment,
) -> Result<(), AdmissionError> {
    let reject = |reason: RejectReason, detail: String| {
        Err(AdmissionError {
            at: now,
            assignment: *a,
            reason,
            detail,
        })
    };
    let Some(job) = active.get(&a.task.job) else {
        return reject(
            RejectReason::UnknownJob,
            format!("assignment for unknown job {}", a.task.job.0),
        );
    };
    let pi = a.task.phase.0 as usize;
    let ti = a.task.task.0 as usize;
    if pi >= job.spec().num_phases() || ti >= job.spec().phase(a.task.phase).ntasks as usize {
        return reject(
            RejectReason::UnknownJob,
            format!("assignment for out-of-range task {}", a.task),
        );
    }
    if !job.phases[pi].runnable {
        return reject(
            RejectReason::UnknownJob,
            format!("assignment for blocked phase of task {}", a.task),
        );
    }

    let task = &job.tasks[pi][ti];
    match a.kind {
        // A re-queued task (crash evicted its last copy) carries dead
        // copies from the lost attempt, so Ready + no *live* copy is the
        // invariant, not an empty copy list.
        CopyKind::Primary => {
            if task.status != TaskStatus::Ready || task.copies.iter().any(|c| c.live) {
                return reject(
                    RejectReason::DuplicateCopy,
                    format!(
                        "primary copy for task {} in state {:?}",
                        a.task, task.status
                    ),
                );
            }
        }
        CopyKind::Clone => {
            if task.status != TaskStatus::Running {
                return reject(
                    RejectReason::DuplicateCopy,
                    format!("clone for non-running task {}", a.task),
                );
            }
            if task.live_copies() >= cfg.max_copies_per_task {
                return reject(
                    RejectReason::DuplicateCopy,
                    format!(
                        "task {} exceeds the {}-copy cap",
                        a.task, cfg.max_copies_per_task
                    ),
                );
            }
        }
    }

    let sid = a.server.0 as usize;
    if sid >= cluster.len() {
        return reject(
            RejectReason::ServerDown,
            format!("assignment to unknown server {sid}"),
        );
    }
    if down[sid] > 0 {
        return reject(
            RejectReason::ServerDown,
            format!("assignment to downed server {sid} (task {})", a.task),
        );
    }
    let demand = job.spec().phase(a.task.phase).demand;
    let avail = free.free(a.server);
    if !demand.fits_in(avail) {
        return reject(
            RejectReason::OverCommit,
            format!(
                "over-commitment on server {sid}: demand {demand} > free {avail} (task {})",
                a.task
            ),
        );
    }
    Ok(())
}

/// Launch the (pre-validated) copy: charge capacity, sample a duration,
/// and queue the finish event. Infallible — callers run
/// [`check_assignment`] first.
#[allow(clippy::too_many_arguments)]
fn apply_assignment(
    cluster: &ClusterSpec,
    sampler: &DurationSampler,
    cfg: &EngineConfig,
    now: Time,
    active: &mut BTreeMap<JobId, JobState>,
    free: &mut CapacityIndex,
    speed_factor: &[f64],
    events: &mut BinaryHeap<Reverse<Event>>,
    seq: &mut u64,
    a: Assignment,
    recording: bool,
    recorder: &mut dyn Recorder,
) {
    #[allow(clippy::expect_used)] // check_assignment verified the job exists
    let job = active
        .get_mut(&a.task.job)
        .expect("checked: assignment for known job");
    let spec_phase = job.spec().phase(a.task.phase).clone();
    let pi = a.task.phase.0 as usize;
    let ti = a.task.task.0 as usize;
    let task = &mut job.tasks[pi][ti];

    let sid = a.server.0 as usize;
    free.sub_free(a.server, spec_phase.demand);

    let copy_idx = task.launched_copies();
    let mut base = sampler.copy_duration(
        a.task.job,
        a.task.phase,
        a.task.task,
        copy_idx,
        &spec_phase,
        &job.tables[pi],
    );
    // Data locality: root-phase tasks read their input block remotely
    // when placed off-replica.
    if cfg.remote_penalty > 1.0 && spec_phase.parents.is_empty() {
        let replicas = crate::execution::block_replicas(a.task, cluster.len());
        if !replicas.contains(&a.server) {
            base *= cfg.remote_penalty;
        }
    }
    // Fail-slow degradation compounds with the server's nominal speed.
    let speed = cluster.server(a.server).speed * speed_factor[sid];
    let dur = ((base / speed).ceil() as Time).max(1);
    let finish = now + dur;

    task.copies.push(CopyState {
        copy_idx,
        server: a.server,
        start: now,
        finish,
        kind: a.kind,
        live: true,
    });
    task.status = TaskStatus::Running;
    if a.kind == CopyKind::Clone {
        job.clone_launches += 1;
    }
    job.first_start.get_or_insert(now);

    *seq += 1;
    events.push(Reverse(Event {
        finish,
        seq: *seq,
        task: a.task,
        copy_idx,
    }));
    if recording {
        recorder.record(TraceEvent::CopyLaunch {
            at: now,
            task: a.task,
            copy_idx,
            server: a.server,
            kind: a.kind,
            finish,
        });
    }
}

fn job_metrics(job: &JobState, now: Time) -> JobMetrics {
    let finish = job.finish.unwrap_or(now);
    let first_start = job.first_start.unwrap_or(job.spec().arrival);
    JobMetrics {
        id: job.id(),
        label: job.spec().label.clone(),
        arrival: job.spec().arrival,
        first_start,
        finish,
        flowtime: finish - job.spec().arrival,
        running_time: finish - first_start,
        tasks: job.spec().total_tasks(),
        clone_copies: job.clone_launches,
        tasks_cloned: job.tasks_cloned(),
        usage: job.usage_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::StragglerModel;
    use crate::scheduler::FifoFirstFit;
    use crate::spec::{ServerId, ServerSpec};
    use crate::trace::Series;
    use dollymp_core::job::PhaseSpec;

    fn det_sampler() -> DurationSampler {
        DurationSampler::new(1, StragglerModel::Deterministic)
    }

    fn one_server(cpu: f64, mem: f64) -> ClusterSpec {
        ClusterSpec::new(vec![ServerSpec::new(cpu, mem)])
    }

    /// A fault-free run folded into its timeline and utilization series.
    fn recorded(
        cluster: &ClusterSpec,
        jobs: Vec<JobSpec>,
        sampler: &DurationSampler,
        scheduler: &mut dyn Scheduler,
    ) -> Series {
        let mut series = Series::default();
        try_simulate_with_faults_recorded(
            cluster,
            jobs,
            sampler,
            scheduler,
            &EngineConfig::default(),
            &FaultTimeline::empty(),
            &mut series,
        )
        .unwrap();
        series
    }

    #[test]
    fn single_task_job_runs_to_completion() {
        let cluster = one_server(4.0, 8.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(2.0, 2.0), 7.0, 0.0);
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].flowtime, 7);
        assert_eq!(r.jobs[0].running_time, 7);
        assert_eq!(r.makespan, 7);
        assert_eq!(r.jobs[0].clone_copies, 0);
        // usage = (2/4 + 2/8) × 7 = 5.25
        assert!((r.jobs[0].usage - 5.25).abs() < 1e-9);
    }

    #[test]
    fn parallel_tasks_share_the_server() {
        let cluster = one_server(4.0, 8.0);
        // Two tasks of 2 cores each fit simultaneously.
        let job = JobSpec::single_phase(JobId(0), 2, Resources::new(2.0, 2.0), 5.0, 0.0);
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].flowtime, 5, "tasks must run in parallel");
    }

    #[test]
    fn serial_when_capacity_binds() {
        let cluster = one_server(2.0, 8.0);
        let job = JobSpec::single_phase(JobId(0), 2, Resources::new(2.0, 2.0), 5.0, 0.0);
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].flowtime, 10, "tasks must serialize");
    }

    #[test]
    fn phase_dependency_is_honored() {
        let cluster = one_server(8.0, 8.0);
        let job = JobSpec::chain(
            JobId(0),
            vec![
                PhaseSpec::new(2, Resources::new(1.0, 1.0), 4.0, 0.0),
                PhaseSpec::new(1, Resources::new(1.0, 1.0), 3.0, 0.0),
            ],
        )
        .unwrap();
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].flowtime, 7, "map (4) then reduce (3)");
    }

    #[test]
    fn arrivals_are_respected() {
        let cluster = one_server(1.0, 1.0);
        let j0 = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 5.0, 0.0);
        let mut j1 = JobSpec::single_phase(JobId(1), 1, Resources::new(1.0, 1.0), 5.0, 0.0);
        j1 = JobSpec::builder(JobId(1))
            .arrival(100)
            .phase(j1.phases()[0].clone())
            .build()
            .unwrap();
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![j0, j1],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(0)].finish, 5);
        assert_eq!(by_id[&JobId(1)].finish, 105);
        assert_eq!(by_id[&JobId(1)].flowtime, 5, "no queueing after idle gap");
    }

    #[test]
    fn server_speed_scales_duration() {
        let cluster = ClusterSpec::new(vec![ServerSpec::new(1.0, 1.0).with_speed(2.0)]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs[0].flowtime, 5, "2× speed halves the duration");
    }

    /// A test policy: primary on server 0, then one clone on server 1.
    struct PrimaryPlusClone;
    impl Scheduler for PrimaryPlusClone {
        fn name(&self) -> String {
            "primary-plus-clone".into()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let mut out = Vec::new();
            for job in view.jobs() {
                for task in job.ready_tasks() {
                    out.push(Assignment {
                        task,
                        server: ServerId(0),
                        kind: CopyKind::Primary,
                    });
                }
                for task in job.running_tasks() {
                    let t = job.task(task.phase, task.task);
                    if t.live_copies() == 1 && t.launched_copies() == 1 {
                        out.push(Assignment {
                            task,
                            server: ServerId(1),
                            kind: CopyKind::Clone,
                        });
                    }
                }
            }
            out
        }
    }

    #[test]
    fn clone_on_faster_server_wins_and_kills_primary() {
        // Server 0 is slow (0.5×), server 1 fast (2×). θ = 10 ⇒ primary
        // takes 20 slots, clone takes 5. Clone launched one decision point
        // after the primary — same slot 0 here (clone opportunity appears
        // only at the next decision point, which is the primary's...).
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(1.0, 1.0).with_speed(0.5),
            ServerSpec::new(1.0, 1.0).with_speed(2.0),
        ]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
        let mut s = PrimaryPlusClone;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let m = &r.jobs[0];
        // Primary starts at 0 (would finish at 20). The clone can only be
        // launched at the next decision point — the primary's finish at 20
        // — unless the engine reschedules earlier. With a single job there
        // is no earlier event, so the job completes at 20 with one copy...
        // unless the clone went out in the same batch, which
        // PrimaryPlusClone cannot do (the task is not yet Running in its
        // view). This documents the decision-point contract.
        assert_eq!(m.flowtime, 20);
        assert_eq!(m.clone_copies, 0);
    }

    /// Like PrimaryPlusClone but issues primary and clone in one batch by
    /// tracking its own pending placements.
    struct AtomicCloner;
    impl Scheduler for AtomicCloner {
        fn name(&self) -> String {
            "atomic-cloner".into()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let mut out = Vec::new();
            for job in view.jobs() {
                for task in job.ready_tasks() {
                    out.push(Assignment {
                        task,
                        server: ServerId(0),
                        kind: CopyKind::Primary,
                    });
                    out.push(Assignment {
                        task,
                        server: ServerId(1),
                        kind: CopyKind::Clone,
                    });
                }
            }
            out
        }
    }

    #[test]
    fn same_batch_clone_races_the_primary() {
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(1.0, 1.0).with_speed(0.5),
            ServerSpec::new(1.0, 1.0).with_speed(2.0),
        ]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
        let mut s = AtomicCloner;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let m = &r.jobs[0];
        assert_eq!(m.flowtime, 5, "fast clone wins");
        assert_eq!(m.clone_copies, 1);
        assert_eq!(m.tasks_cloned, 1);
        // Usage: both copies occupy 1 core+1 GB for 5 slots; totals are
        // (2, 2) so each copy's normalized rate is 1.0 ⇒ usage = 10.
        assert!((m.usage - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "over-commitment")]
    fn overcommitting_scheduler_panics() {
        struct Greedy;
        impl Scheduler for Greedy {
            fn name(&self) -> String {
                "greedy".into()
            }
            fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
                // Assign both tasks to server 0 ignoring capacity.
                view.jobs()
                    .flat_map(|j| j.ready_tasks())
                    .map(|task| Assignment {
                        task,
                        server: ServerId(0),
                        kind: CopyKind::Primary,
                    })
                    .collect()
            }
        }
        let cluster = one_server(1.0, 1.0);
        let job = JobSpec::single_phase(JobId(0), 2, Resources::new(1.0, 1.0), 5.0, 0.0);
        let _ = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut Greedy,
            &EngineConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn lazy_scheduler_panics() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn schedule(&mut self, _view: &ClusterView<'_>) -> Vec<Assignment> {
                Vec::new()
            }
        }
        let cluster = one_server(1.0, 1.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 5.0, 0.0);
        let _ = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut Lazy,
            &EngineConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "fits no server")]
    fn oversized_job_rejected_up_front() {
        let cluster = one_server(1.0, 1.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(2.0, 1.0), 5.0, 0.0);
        let _ = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut FifoFirstFit,
            &EngineConfig::default(),
        );
    }

    #[test]
    fn timeline_records_winners_and_kills() {
        use crate::metrics::{timeline_to_chrome_trace, CopyOutcome};
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(1.0, 1.0).with_speed(0.5),
            ServerSpec::new(1.0, 1.0).with_speed(2.0),
        ]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
        let r = recorded(&cluster, vec![job], &det_sampler(), &mut AtomicCloner);
        assert_eq!(r.timeline.len(), 2, "primary + clone both recorded");
        let winner = r
            .timeline
            .iter()
            .find(|c| c.outcome == CopyOutcome::Won)
            .expect("a winner exists");
        let killed = r
            .timeline
            .iter()
            .find(|c| c.outcome == CopyOutcome::Killed)
            .expect("the loser was killed");
        assert_eq!(winner.server, ServerId(1), "fast clone wins");
        assert_eq!(winner.end, 5);
        assert_eq!(killed.end, 5, "killed at the winner's finish");
        assert_eq!(killed.start, 0);

        // The Chrome trace export is well-formed JSON with both events.
        let json = timeline_to_chrome_trace(&r.timeline, 5.0);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.as_array().unwrap().len(), 2);
        assert!(json.contains("clone/won"));
        assert!(json.contains("primary/killed"));
    }

    #[test]
    fn reports_leave_the_series_to_the_event_stream() {
        let cluster = one_server(2.0, 2.0);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 3.0, 0.0);
        let mut series = Series::default();
        let r = try_simulate_with_faults_recorded(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut FifoFirstFit,
            &EngineConfig::default(),
            &FaultTimeline::empty(),
            &mut series,
        )
        .unwrap();
        assert!(r.timeline.is_empty());
        assert!(r.utilization.is_empty());
        assert_eq!(series.timeline.len(), 1);
        assert!(!series.utilization.is_empty());
    }

    #[test]
    fn utilization_series_tracks_busy_cluster() {
        let cluster = one_server(2.0, 4.0);
        let job = JobSpec::single_phase(JobId(0), 2, Resources::new(1.0, 2.0), 4.0, 0.0);
        let r = recorded(&cluster, vec![job], &det_sampler(), &mut FifoFirstFit);
        // After the first decision point both tasks run: 100 % CPU + mem.
        assert!(!r.utilization.is_empty());
        let (_, cpu, mem) = r.utilization[0];
        assert!((cpu - 1.0).abs() < 1e-9);
        assert!((mem - 1.0).abs() < 1e-9);
    }

    /// The incremental used-capacity counters behind the O(1) utilization
    /// probe must agree with an *independent* re-summation, bit for bit:
    /// every sample is re-derived from the copy timeline (the
    /// demands of all copies live at the sample slot) and compared with
    /// `==` on the raw `f64`s — integer milli-unit arithmetic on both
    /// sides, so there is no tolerance to hide drift behind.
    #[test]
    fn utilization_samples_match_timeline_resum_exactly() {
        let cluster = ClusterSpec::paper_30_node();
        let mut jobs = Vec::new();
        for i in 0..12u64 {
            jobs.push(
                JobSpec::builder(JobId(i))
                    .arrival(i * 2)
                    .phase(PhaseSpec::new(
                        3 + (i % 4) as u32,
                        Resources::new(1.0 + (i % 3) as f64, 2.0 + (i % 2) as f64),
                        6.0 + (i % 5) as f64,
                        3.0,
                    ))
                    .build()
                    .expect("valid spec"),
            );
        }
        let specs: Vec<JobSpec> = jobs.clone();
        let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
        let r = recorded(&cluster, jobs, &sampler, &mut FifoFirstFit);
        assert!(r.utilization.len() >= 12, "one sample per visited slot");
        let totals = cluster.totals();
        for &(slot, cpu, mem) in &r.utilization {
            // A copy occupies its server over [start, end): launches of
            // this decision point are sampled, completions retired just
            // before the sample are not.
            let used: Resources = r
                .timeline
                .iter()
                .filter(|c| c.start <= slot && slot < c.end)
                .map(|c| specs[c.task.job.0 as usize].phase(c.task.phase).demand)
                .sum();
            assert_eq!(cpu, used.cpu() / totals.cpu(), "cpu sample at slot {slot}");
            assert_eq!(mem, used.mem() / totals.mem(), "mem sample at slot {slot}");
        }
    }

    #[test]
    fn remote_penalty_inflates_off_replica_root_tasks() {
        use crate::execution::block_replicas;
        use dollymp_core::job::TaskRef;
        let cluster = ClusterSpec::homogeneous(4, 1.0, 1.0);
        let task = TaskRef {
            job: JobId(0),
            phase: PhaseId(0),
            task: dollymp_core::job::TaskId(0),
        };
        let replicas = block_replicas(task, 4);
        // FifoFirstFit places on server 0; pick a job id whose replicas
        // exclude server 0 so the penalty must apply. Search a job id
        // deterministically.
        let mut off_replica_job = None;
        for id in 0..64u64 {
            let t = TaskRef {
                job: JobId(id),
                ..task
            };
            if !block_replicas(t, 4).contains(&ServerId(0)) {
                off_replica_job = Some(id);
                break;
            }
        }
        let id = off_replica_job.expect("some job hashes off server 0");
        let job = JobSpec::single_phase(JobId(id), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
        let cfg_local = EngineConfig::default();
        let cfg_penalty = EngineConfig {
            remote_penalty: 2.0,
            ..Default::default()
        };
        let r_local = simulate(
            &cluster,
            vec![job.clone()],
            &det_sampler(),
            &mut FifoFirstFit,
            &cfg_local,
        );
        let r_remote = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut FifoFirstFit,
            &cfg_penalty,
        );
        assert_eq!(r_local.jobs[0].flowtime, 10);
        assert_eq!(r_remote.jobs[0].flowtime, 20, "2× remote-read penalty");
        // Sanity: replicas are two distinct servers.
        assert_ne!(replicas[0], replicas[1]);
    }

    #[test]
    fn remote_penalty_skips_non_root_phases() {
        // The reduce phase reads shuffled data, not a DFS block: no
        // penalty even off-replica.
        let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
        let job = JobSpec::chain(
            JobId(3),
            vec![
                PhaseSpec::new(1, Resources::new(1.0, 1.0), 4.0, 0.0),
                PhaseSpec::new(1, Resources::new(1.0, 1.0), 6.0, 0.0),
            ],
        )
        .unwrap();
        let cfg = EngineConfig {
            remote_penalty: 3.0,
            ..Default::default()
        };
        let r = simulate(&cluster, vec![job], &det_sampler(), &mut FifoFirstFit, &cfg);
        // Map may or may not be on-replica (single server IS the replica
        // set here — with 1 server, both replicas are server 0), so no
        // penalty anywhere: 4 + 6.
        assert_eq!(r.jobs[0].flowtime, 10);
    }

    #[test]
    fn report_counts_decision_points() {
        let cluster = one_server(1.0, 1.0);
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::single_phase(JobId(i), 1, Resources::new(1.0, 1.0), 2.0, 0.0))
            .collect();
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            jobs,
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        assert_eq!(r.jobs.len(), 3);
        assert!(r.decision_points >= 3);
        assert_eq!(r.makespan, 6, "three serial 2-slot jobs");
        // One overhead sample per decision point, covering at least the
        // schedule() time itself.
        let o = r.sched_overhead;
        assert_eq!(o.decision_points, r.decision_points);
        assert!(o.total_ns >= r.scheduling_ns);
        assert!(o.mean_ns <= o.p99_ns && o.p99_ns <= o.max_ns);
        assert!(o.max_ns <= o.total_ns);
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultEvent, FaultTimeline, TimedFault};

        fn crash(at: Time, s: u32) -> TimedFault {
            TimedFault {
                at,
                event: FaultEvent::Crash(ServerId(s)),
            }
        }
        fn restore(at: Time, s: u32) -> TimedFault {
            TimedFault {
                at,
                event: FaultEvent::Restore(ServerId(s)),
            }
        }

        #[test]
        fn recorded_empty_timeline_matches_plain_simulate() {
            let cluster = ClusterSpec::paper_30_node();
            let jobs: Vec<JobSpec> = (0..6)
                .map(|i| JobSpec::single_phase(JobId(i), 20, Resources::new(2.0, 4.0), 12.0, 4.0))
                .collect();
            let sampler = DurationSampler::new(7, StragglerModel::ParetoFit);
            let cfg = EngineConfig::default();
            let a = simulate(&cluster, jobs.clone(), &sampler, &mut FifoFirstFit, &cfg);
            let mut series = Series::default();
            let b = try_simulate_with_faults_recorded(
                &cluster,
                jobs,
                &sampler,
                &mut FifoFirstFit,
                &cfg,
                &FaultTimeline::empty(),
                &mut series,
            )
            .unwrap();
            assert!(!series.timeline.is_empty());
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.decision_points, b.decision_points);
            assert_eq!(b.faults, crate::metrics::FaultStats::default());
        }

        #[test]
        fn crash_evicts_and_requeues_lone_task() {
            // Two 1×1 servers; FifoFirstFit starts the task on server 0.
            // Server 0 crashes at slot 4: the only copy dies, the task is
            // re-queued and restarts on server 1 the same slot.
            let cluster = ClusterSpec::homogeneous(2, 1.0, 1.0);
            let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
            let tl = FaultTimeline::new(vec![crash(4, 0), restore(6, 0)]);
            let mut series = Series::default();
            let r = try_simulate_with_faults_recorded(
                &cluster,
                vec![job],
                &det_sampler(),
                &mut FifoFirstFit,
                &EngineConfig::default(),
                &tl,
                &mut series,
            )
            .unwrap();
            assert_eq!(r.jobs[0].flowtime, 14, "4 lost + full 10-slot rerun");
            assert_eq!(r.faults.server_crashes, 1);
            assert_eq!(r.faults.server_recoveries, 1);
            assert_eq!(r.faults.copies_evicted, 1);
            assert_eq!(r.faults.tasks_requeued, 1);
            assert_eq!(r.faults.tasks_saved_by_clone, 0);
            // Lost work: demand (1,1) on totals (2,2) ⇒ rate 1.0, 4 slots.
            assert!((r.faults.work_lost_norm - 4.0).abs() < 1e-9);
            // Re-execution is a fresh primary, not a clone.
            assert_eq!(r.jobs[0].clone_copies, 0);
            assert_eq!(r.jobs[0].tasks_cloned, 0);
            let evicted: Vec<_> = series
                .timeline
                .iter()
                .filter(|c| c.outcome == CopyOutcome::Evicted)
                .collect();
            assert_eq!(evicted.len(), 1);
            assert_eq!(evicted[0].server, ServerId(0));
            assert_eq!(evicted[0].end, 4);
            let winner = series
                .timeline
                .iter()
                .find(|c| c.outcome == CopyOutcome::Won)
                .expect("rerun wins");
            assert_eq!(winner.server, ServerId(1));
            assert_eq!(winner.copy_idx, 1, "second launch of the task");
        }

        #[test]
        fn live_clone_saves_task_from_crash() {
            // AtomicCloner races a clone on server 1; server 0 crashes
            // mid-flight, but the clone carries the task to completion on
            // schedule — no re-execution.
            let cluster = ClusterSpec::homogeneous(2, 1.0, 1.0);
            let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
            let tl = FaultTimeline::new(vec![crash(2, 0)]);
            let r = try_simulate_with_faults(
                &cluster,
                vec![job],
                &det_sampler(),
                &mut AtomicCloner,
                &EngineConfig::default(),
                &tl,
            )
            .unwrap();
            assert_eq!(r.jobs[0].flowtime, 10, "clone finishes on time");
            assert_eq!(r.faults.copies_evicted, 1);
            assert_eq!(r.faults.tasks_saved_by_clone, 1);
            assert_eq!(r.faults.tasks_requeued, 0);
            assert_eq!(r.jobs[0].tasks_cloned, 1);
        }

        #[test]
        fn degrade_stretches_inflight_and_future_copies() {
            let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
            let j0 = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 10.0, 0.0);
            let j1 = JobSpec::builder(JobId(1))
                .arrival(20)
                .phase(dollymp_core::job::PhaseSpec::new(
                    1,
                    Resources::new(1.0, 1.0),
                    10.0,
                    0.0,
                ))
                .build()
                .unwrap();
            let tl = FaultTimeline::new(vec![TimedFault {
                at: 5,
                event: FaultEvent::Degrade(ServerId(0), 0.5),
            }]);
            let r = try_simulate_with_faults(
                &cluster,
                vec![j0, j1],
                &det_sampler(),
                &mut FifoFirstFit,
                &EngineConfig::default(),
                &tl,
            )
            .unwrap();
            let by_id = r.by_id();
            // 5 slots done, 5 remaining stretched 2× ⇒ finish at 15.
            assert_eq!(by_id[&JobId(0)].finish, 15);
            // Placed after the onset: full 2× stretch, 20 slots.
            assert_eq!(by_id[&JobId(1)].flowtime, 20);
            assert_eq!(r.faults.server_degradations, 1);
            assert_eq!(r.faults.copies_evicted, 0);
        }

        #[test]
        fn overlapping_crash_windows_need_both_restores() {
            // Blackout [2, 5) overlaps an individual crash [3, 8): the
            // server is up only at 8 (down-count reaches zero).
            let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
            let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 3.0, 0.0);
            let tl =
                FaultTimeline::new(vec![crash(2, 0), crash(3, 0), restore(5, 0), restore(8, 0)]);
            let r = try_simulate_with_faults(
                &cluster,
                vec![job],
                &det_sampler(),
                &mut FifoFirstFit,
                &EngineConfig::default(),
                &tl,
            )
            .unwrap();
            assert_eq!(r.jobs[0].finish, 11, "rerun starts at the second restore");
            assert_eq!(
                r.faults.server_crashes, 1,
                "second crash found it already down"
            );
            assert_eq!(r.faults.server_recoveries, 1);
            assert_eq!(r.faults.copies_evicted, 1);
        }

        #[test]
        fn restore_of_up_server_is_an_invalid_timeline() {
            let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
            let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 3.0, 0.0);
            let tl = FaultTimeline::new(vec![restore(1, 0)]);
            let err = try_simulate_with_faults(
                &cluster,
                vec![job],
                &det_sampler(),
                &mut FifoFirstFit,
                &EngineConfig::default(),
                &tl,
            )
            .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidTimeline { at: 1, .. }),
                "{err}"
            );
            assert!(err.to_string().contains("not down"), "{err}");
        }

        #[test]
        fn assignment_to_downed_server_is_rejected() {
            struct Blind;
            impl Scheduler for Blind {
                fn name(&self) -> String {
                    "blind".into()
                }
                fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
                    view.jobs()
                        .flat_map(|j| j.ready_tasks())
                        .map(|task| Assignment {
                            task,
                            server: ServerId(0),
                            kind: CopyKind::Primary,
                        })
                        .collect()
                }
            }
            let cluster = ClusterSpec::homogeneous(2, 1.0, 1.0);
            let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 3.0, 0.0);
            let tl = FaultTimeline::new(vec![crash(0, 0), restore(9, 0)]);
            let err = try_simulate_with_faults(
                &cluster,
                vec![job],
                &det_sampler(),
                &mut Blind,
                &EngineConfig::default(),
                &tl,
            )
            .unwrap_err();
            match &err {
                SimError::Rejected(a) => assert_eq!(a.reason, RejectReason::ServerDown),
                other => panic!("expected a ServerDown rejection, got {other}"),
            }
            assert!(err.to_string().contains("downed server"), "{err}");
        }

        #[test]
        fn same_seed_and_timeline_reproduce_identical_reports() {
            let cluster = ClusterSpec::paper_30_node();
            let jobs: Vec<JobSpec> = (0..8)
                .map(|i| JobSpec::single_phase(JobId(i), 15, Resources::new(2.0, 4.0), 10.0, 3.0))
                .collect();
            let sampler = DurationSampler::new(11, StragglerModel::ParetoFit);
            let tl = FaultTimeline::new(vec![
                crash(5, 3),
                restore(25, 3),
                crash(12, 17),
                restore(30, 17),
                TimedFault {
                    at: 8,
                    event: FaultEvent::Degrade(ServerId(9), 0.6),
                },
            ]);
            let cfg = EngineConfig::default();
            let a = try_simulate_with_faults(
                &cluster,
                jobs.clone(),
                &sampler,
                &mut FifoFirstFit,
                &cfg,
                &tl,
            )
            .unwrap();
            let b =
                try_simulate_with_faults(&cluster, jobs, &sampler, &mut FifoFirstFit, &cfg, &tl)
                    .unwrap();
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.makespan, b.makespan);
        }
    }

    #[test]
    fn diamond_dag_executes_in_dependency_order() {
        let cluster = one_server(8.0, 8.0);
        let d = Resources::new(1.0, 1.0);
        let job = JobSpec::builder(JobId(0))
            .phase(PhaseSpec::new(1, d, 2.0, 0.0))
            .phase(PhaseSpec::new(1, d, 3.0, 0.0).with_parents(vec![PhaseId(0)]))
            .phase(PhaseSpec::new(1, d, 5.0, 0.0).with_parents(vec![PhaseId(0)]))
            .phase(PhaseSpec::new(1, d, 1.0, 0.0).with_parents(vec![PhaseId(1), PhaseId(2)]))
            .build()
            .unwrap();
        let mut s = FifoFirstFit;
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        // 2 + max(3, 5) + 1 = 8.
        assert_eq!(r.jobs[0].flowtime, 8);
    }
}
