//! Record → replay verification: rebuild a full `SimReport` from a
//! journal alone and byte-diff it against the live report.
//!
//! Every aggregate the live engine computes has a corresponding event
//! stream (the emission sites sit exactly where the live aggregates are
//! updated, in the same order), so the reconstruction is *exact* — u64
//! timing samples are the same integers, f64 work-lost sums run in the
//! same order, job records are the same structs. A mismatch therefore
//! always means behavior diverged, never rounding; [`verify`] localizes
//! it to a typed [`Divergence`] (field, slot, event index) instead of a
//! bare assert, which is what makes this the standing correctness
//! oracle for engine and scheduler refactors.

use crate::journal::Journal;
use dollymp_cluster::metrics::{FaultStats, GuardStats, SchedOverhead, SimReport};
use dollymp_cluster::trace::Event;
use dollymp_core::time::Time;

/// Where a replayed report first disagreed with the live one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Dot-path of the first divergent `SimReport` field (e.g.
    /// `jobs[3].flowtime`, `faults.work_lost_norm`).
    pub field: String,
    /// Simulation slot the divergent record belongs to, when the field
    /// has one (a job's completion slot).
    pub slot: Option<Time>,
    /// Index into the journal's event stream of the event that produced
    /// the divergent replayed value, when one did.
    pub event_index: Option<usize>,
    /// Human-readable `replayed vs live` rendering of the two values.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay diverged at `{}`", self.field)?;
        if let Some(s) = self.slot {
            write!(f, " (slot {s})")?;
        }
        if let Some(i) = self.event_index {
            write!(f, " (event #{i})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Event indices backing each positional element of the replayed
/// report, used to localize divergences.
#[derive(Debug, Default)]
struct Provenance {
    jobs: Vec<usize>,
    spans: Vec<usize>,
}

fn reconstruct(journal: &Journal) -> (SimReport, Provenance) {
    let mut prov = Provenance::default();
    let mut jobs = Vec::new();
    let mut overhead_samples: Vec<u64> = Vec::new();
    let mut scheduling_ns = 0u64;
    let mut decision_points = 0u64;
    let mut faults = FaultStats::default();
    let mut guard = GuardStats::default();

    for (i, ev) in journal.events.iter().enumerate() {
        match ev {
            Event::JobCompletion { metrics, .. } => {
                prov.jobs.push(i);
                jobs.push(metrics.clone());
            }
            Event::SchedSpan {
                arrival_ns,
                schedule_ns,
                ..
            } => {
                prov.spans.push(i);
                decision_points += 1;
                scheduling_ns += schedule_ns;
                overhead_samples.push(arrival_ns + schedule_ns);
            }
            Event::CopyEvict { work_lost_norm, .. } => {
                faults.copies_evicted += 1;
                // Same summation order as the live engine ⇒ the f64
                // total is bit-identical.
                faults.work_lost_norm += work_lost_norm;
            }
            Event::TaskSaved { .. } => faults.tasks_saved_by_clone += 1,
            Event::TaskLost { .. } => faults.tasks_requeued += 1,
            Event::ServerCrash { .. } => faults.server_crashes += 1,
            Event::ServerRestore { .. } => faults.server_recoveries += 1,
            Event::ServerDegrade { .. } => faults.server_degradations += 1,
            Event::GuardDelta { delta, .. } => guard.accumulate(delta),
            Event::SlotTick { .. }
            | Event::JobArrival { .. }
            | Event::CopyLaunch { .. }
            | Event::CopyRetire { .. }
            | Event::UtilSample { .. } => {}
        }
    }

    let makespan = jobs.iter().map(|j| j.finish).max().unwrap_or(0);
    let report = SimReport {
        scheduler: journal.header.scheduler.clone(),
        jobs,
        makespan,
        decision_points,
        scheduling_ns,
        sched_overhead: SchedOverhead::from_samples(&overhead_samples),
        faults,
        guard,
        utilization: Vec::new(),
        timeline: Vec::new(),
    };
    (report, prov)
}

/// Re-derive the full `SimReport` from the journal alone.
pub fn replay_report(journal: &Journal) -> SimReport {
    reconstruct(journal).0
}

/// Byte-diff the replayed report against the live one. `Ok(())` iff the
/// two serialize identically; otherwise the first divergence, localized
/// to a field, slot, and journal event index.
pub fn verify(journal: &Journal, live: &SimReport) -> Result<(), Divergence> {
    let (replayed, prov) = reconstruct(journal);
    #[allow(clippy::expect_used)] // reports serialize infallibly
    let same = serde_json::to_string(&replayed).expect("report serializes")
        == serde_json::to_string(live).expect("report serializes");
    if same {
        return Ok(());
    }
    Err(localize(&replayed, live, &prov))
}

fn diverge<T: std::fmt::Debug>(
    field: String,
    slot: Option<Time>,
    event_index: Option<usize>,
    replayed: &T,
    live: &T,
) -> Divergence {
    Divergence {
        field,
        slot,
        event_index,
        detail: format!("replayed {replayed:?} vs live {live:?}"),
    }
}

/// Field-wise search for the first divergence, in `SimReport` field
/// order. Called only when the byte comparison already failed, so some
/// field *must* differ; the fallback arm covers the impossible case
/// defensively.
fn localize(r: &SimReport, l: &SimReport, prov: &Provenance) -> Divergence {
    if r.scheduler != l.scheduler {
        return diverge("scheduler".into(), None, None, &r.scheduler, &l.scheduler);
    }
    if r.jobs.len() != l.jobs.len() {
        return diverge("jobs.len".into(), None, None, &r.jobs.len(), &l.jobs.len());
    }
    for (i, (rj, lj)) in r.jobs.iter().zip(&l.jobs).enumerate() {
        if rj != lj {
            return diverge(
                format!("jobs[{i}]"),
                Some(lj.finish),
                prov.jobs.get(i).copied(),
                rj,
                lj,
            );
        }
    }
    if r.makespan != l.makespan {
        return diverge("makespan".into(), None, None, &r.makespan, &l.makespan);
    }
    if r.decision_points != l.decision_points {
        return diverge(
            "decision_points".into(),
            None,
            prov.spans.last().copied(),
            &r.decision_points,
            &l.decision_points,
        );
    }
    if r.scheduling_ns != l.scheduling_ns {
        return diverge(
            "scheduling_ns".into(),
            None,
            None,
            &r.scheduling_ns,
            &l.scheduling_ns,
        );
    }
    if r.sched_overhead != l.sched_overhead {
        return diverge(
            "sched_overhead".into(),
            None,
            None,
            &r.sched_overhead,
            &l.sched_overhead,
        );
    }
    if r.faults != l.faults {
        return diverge("faults".into(), None, None, &r.faults, &l.faults);
    }
    if r.guard != l.guard {
        return diverge("guard".into(), None, None, &r.guard, &l.guard);
    }
    // The engine leaves both series empty; an archived report that
    // still carries them cannot replay from its journal.
    if r.utilization != l.utilization {
        return diverge(
            "utilization.len".into(),
            None,
            None,
            &r.utilization.len(),
            &l.utilization.len(),
        );
    }
    if r.timeline != l.timeline {
        return diverge(
            "timeline.len".into(),
            None,
            None,
            &r.timeline.len(),
            &l.timeline.len(),
        );
    }
    Divergence {
        field: "unknown".into(),
        slot: None,
        event_index: None,
        detail: "serializations differ but no field-wise mismatch was found".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{try_simulate_with_faults_recorded, EngineConfig};
    use dollymp_cluster::execution::{DurationSampler, StragglerModel};
    use dollymp_cluster::fault::FaultTimeline;
    use dollymp_cluster::scheduler::FifoFirstFit;
    use dollymp_cluster::spec::ClusterSpec;
    use dollymp_core::job::{JobId, JobSpec};
    use dollymp_core::resources::Resources;

    fn run_recorded() -> (Journal, SimReport) {
        let cluster = ClusterSpec::homogeneous(4, 8.0, 16.0);
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                let mut j = JobSpec::single_phase(JobId(i), 4, Resources::new(1.0, 2.0), 10.0, 2.0);
                j.arrival = i * 2;
                j
            })
            .collect();
        let sampler = DurationSampler::new(11, StragglerModel::ParetoFit);
        let mut policy = FifoFirstFit;
        let cfg = EngineConfig::default();
        let mut journal = Journal::for_run("fifo", 11, &cfg);
        let report = try_simulate_with_faults_recorded(
            &cluster,
            jobs,
            &sampler,
            &mut policy,
            &cfg,
            &FaultTimeline::default(),
            &mut journal,
        )
        .unwrap();
        (journal, report)
    }

    #[test]
    fn clean_run_verifies() {
        let (journal, live) = run_recorded();
        assert!(!journal.events.is_empty());
        verify(&journal, &live).unwrap();
        assert_eq!(replay_report(&journal), live);
    }

    #[test]
    fn tampered_journal_localizes_the_divergence() {
        let (mut journal, live) = run_recorded();
        // Corrupt one job record: flowtime off by one.
        let idx = journal
            .events
            .iter()
            .position(|e| matches!(e, Event::JobCompletion { .. }))
            .unwrap();
        if let Event::JobCompletion { metrics, .. } = &mut journal.events[idx] {
            metrics.flowtime += 1;
        }
        let d = verify(&journal, &live).unwrap_err();
        assert_eq!(d.field, "jobs[0]");
        assert_eq!(d.event_index, Some(idx));
        assert!(d.slot.is_some());
        assert!(d.to_string().contains("jobs[0]"), "{d}");
    }

    #[test]
    fn dropped_span_shows_up_as_decision_point_divergence() {
        let (mut journal, live) = run_recorded();
        let idx = journal
            .events
            .iter()
            .rposition(|e| matches!(e, Event::SchedSpan { .. }))
            .unwrap();
        journal.events.remove(idx);
        let d = verify(&journal, &live).unwrap_err();
        assert_eq!(d.field, "decision_points");
    }
}
