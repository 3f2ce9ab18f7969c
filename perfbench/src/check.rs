//! Output checks on simulation reports and their deterministic outcome.

use crate::setup::Trace;
use dollymp_cluster::error::SimError;
use dollymp_cluster::metrics::SimReport;
use std::collections::HashMap;

/// The simulated (host-independent) outcome of a trace set, as totals over
/// its traces. A change that keeps scheduling decisions reproduces every
/// field exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Per trace, an FNV-1a digest over every deterministic `SimReport`
    /// field (all but `scheduling_ns` and `sched_overhead`); empty for an
    /// aborted run.
    pub digests: Vec<String>,
    /// Flowtime summed over the reported jobs, in slots.
    pub flowtime: u64,
    /// Jobs reported.
    pub jobs_reported: u64,
    /// Makespan summed over the traces, in slots.
    pub makespan: u64,
    /// `SimReport::total_usage` summed over the traces.
    pub usage: f64,
    /// Decision points the engine reports.
    pub decision_points: u64,
    /// Clone copies summed over the reported jobs.
    pub clone_copies: u64,
    /// Copies evicted by crashes.
    pub copies_evicted: u64,
    /// Tasks re-queued after losing every live copy to a crash.
    pub tasks_requeued: u64,
    /// Tasks submitted.
    pub tasks: u64,
    /// Tasks that failed: re-queued after a crash, or part of a job the
    /// report is missing (an aborted run fails every task).
    pub tasks_failed: u64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs missing from the report, reported twice, unknown, or with a
    /// wrong arrival, task count or flowtime.
    pub jobs_failed: u64,
    /// What went wrong, for the log; empty when every check passed.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Add another trace's outcome to this one.
    pub fn add(&mut self, o: Outcome) {
        self.digests.extend(o.digests);
        self.flowtime += o.flowtime;
        self.jobs_reported += o.jobs_reported;
        self.makespan += o.makespan;
        self.usage += o.usage;
        self.decision_points += o.decision_points;
        self.clone_copies += o.clone_copies;
        self.copies_evicted += o.copies_evicted;
        self.tasks_requeued += o.tasks_requeued;
        self.tasks += o.tasks;
        self.tasks_failed += o.tasks_failed;
        self.jobs += o.jobs;
        self.jobs_failed += o.jobs_failed;
        self.errors.extend(o.errors);
    }

    /// One digest over the whole set.
    pub fn digest(&self) -> String {
        dollymp_obs::config_fingerprint(0, &self.digests)
    }

    /// Mean flowtime over every reported job, in slots.
    pub fn mean_flowtime(&self) -> f64 {
        self.flowtime as f64 / self.jobs_reported.max(1) as f64
    }

    /// Share of submitted tasks that did not fail.
    pub fn task_success_frac(&self) -> f64 {
        1.0 - self.tasks_failed as f64 / self.tasks.max(1) as f64
    }
}

/// Check `result` against the `trace` it was computed from: every
/// submitted job is reported exactly once, with its arrival and task count
/// and `flowtime = finish − arrival`.
pub fn check(trace: &Trace, result: &Result<SimReport, SimError>) -> Outcome {
    let tasks: u64 = trace.jobs.iter().map(|j| j.total_tasks()).sum();
    let jobs = trace.jobs.len() as u64;
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                digests: vec![String::new()],
                tasks,
                tasks_failed: tasks,
                jobs,
                jobs_failed: jobs,
                errors: vec![format!("simulation aborted: {e}")],
                ..Outcome::default()
            }
        }
    };
    let mut pending: HashMap<_, _> = trace.jobs.iter().map(|j| (j.id, j)).collect();
    let mut errors = Vec::new();
    let mut jobs_failed = 0;
    for m in &report.jobs {
        let Some(spec) = pending.remove(&m.id) else {
            jobs_failed += 1;
            errors.push(format!("job {:?} reported twice or never submitted", m.id));
            continue;
        };
        let ok = m.arrival == spec.arrival
            && m.tasks == spec.total_tasks()
            && m.finish >= m.arrival
            && m.flowtime == m.finish - m.arrival;
        if !ok {
            jobs_failed += 1;
            errors.push(format!(
                "job {:?}: arrival {} (submitted {}), finish {}, flowtime {}, tasks {} (submitted {})",
                m.id,
                m.arrival,
                spec.arrival,
                m.finish,
                m.flowtime,
                m.tasks,
                spec.total_tasks()
            ));
        }
    }
    let missing_tasks: u64 = pending.values().map(|j| j.total_tasks()).sum();
    if !pending.is_empty() {
        jobs_failed += pending.len() as u64;
        errors.push(format!(
            "{} submitted jobs missing from the report",
            pending.len()
        ));
    }
    let digest = dollymp_obs::config_fingerprint(
        0,
        &(
            &report.scheduler,
            &report.jobs,
            report.makespan,
            report.decision_points,
            &report.faults,
            (&report.guard, &report.utilization, &report.timeline),
        ),
    );
    Outcome {
        digests: vec![digest],
        flowtime: report.total_flowtime(),
        jobs_reported: report.jobs.len() as u64,
        makespan: report.makespan,
        usage: report.total_usage(),
        decision_points: report.decision_points,
        clone_copies: report.jobs.iter().map(|j| j.clone_copies).sum(),
        copies_evicted: report.faults.copies_evicted,
        tasks_requeued: report.faults.tasks_requeued,
        tasks,
        tasks_failed: (report.faults.tasks_requeued + missing_tasks).min(tasks),
        jobs,
        jobs_failed,
        errors,
    }
}
