//! An intentionally misbehaving policy for exercising the containment
//! layer.
//!
//! [`AdversarialScheduler`] commits, on a rotating per-pass basis, every
//! sin the engine's admission rules forbid: over-committing free
//! capacity, targeting crashed or nonexistent servers, naming unknown
//! jobs, duplicating primaries, stalling (empty batches with runnable
//! work), busy-waiting past the watchdog budget, and outright panicking.
//! Wrapped in `GuardedScheduler` it must never take a run down — that is
//! exactly what `tests/guard.rs` proves. It is deliberately *not*
//! registered in [`crate::by_name`] / [`crate::ALL_NAMES`]: those
//! enumerate real policies that must survive *unguarded* strict runs.

use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, PhaseId, TaskId, TaskRef};
use std::collections::BTreeSet;
use std::time::Duration;

/// Which misbehaviours the adversary is allowed to commit.
///
/// Every flag defaults to on except the two that end the policy's useful
/// life in one pass (`panic_once`) or wreck wall-clock time in tests
/// (`busy_wait`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialConfig {
    /// Emit assignments that over-commit a server's free capacity
    /// (the legal batch repeated verbatim).
    pub overcommit: bool,
    /// Target servers it has seen crash (and a nonexistent server id).
    pub target_down: bool,
    /// Emit duplicate primaries for already-placed tasks.
    pub duplicate: bool,
    /// Emit assignments for a job id that does not exist.
    pub unknown_job: bool,
    /// Return an empty batch even with runnable work (stall).
    pub stall: bool,
    /// Panic inside `schedule` (once — the guard quarantines on it).
    pub panic_once: bool,
    /// Spin for this long each pass to blow the watchdog budget.
    pub busy_wait: Option<Duration>,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            overcommit: true,
            target_down: true,
            duplicate: true,
            unknown_job: true,
            stall: true,
            panic_once: false,
            busy_wait: None,
        }
    }
}

impl AdversarialConfig {
    /// Everything on, including the panic and a 1 ms busy-wait.
    pub fn full_hostility() -> Self {
        AdversarialConfig {
            panic_once: true,
            busy_wait: Some(Duration::from_millis(1)),
            ..AdversarialConfig::default()
        }
    }
}

/// The misbehaving policy itself. Internally it produces a *legal*
/// first-fit batch each pass (so runs still make progress between
/// attacks), then corrupts it according to the enabled mode for that
/// pass, cycling through the enabled modes round-robin.
#[derive(Debug)]
pub struct AdversarialScheduler {
    cfg: AdversarialConfig,
    /// Decision passes seen so far (selects this pass's attack).
    passes: u64,
    /// Servers currently down, learned from the engine's fault hooks —
    /// the "insider knowledge" that makes `target_down` reliable.
    down: BTreeSet<ServerId>,
    panicked: bool,
}

/// The attacks the adversary cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    OverCommit,
    TargetDown,
    Duplicate,
    UnknownJob,
    Stall,
    BusyWait,
    Panic,
}

impl AdversarialScheduler {
    /// Adversary with the default (non-panicking) misbehaviour set.
    pub fn new() -> Self {
        Self::with_config(AdversarialConfig::default())
    }

    /// Adversary with an explicit misbehaviour set.
    pub fn with_config(cfg: AdversarialConfig) -> Self {
        AdversarialScheduler {
            cfg,
            passes: 0,
            down: BTreeSet::new(),
            panicked: false,
        }
    }

    fn enabled_attacks(&self) -> Vec<Attack> {
        let mut v = Vec::new();
        if self.cfg.overcommit {
            v.push(Attack::OverCommit);
        }
        if self.cfg.target_down {
            v.push(Attack::TargetDown);
        }
        if self.cfg.duplicate {
            v.push(Attack::Duplicate);
        }
        if self.cfg.unknown_job {
            v.push(Attack::UnknownJob);
        }
        if self.cfg.stall {
            v.push(Attack::Stall);
        }
        if self.cfg.busy_wait.is_some() {
            v.push(Attack::BusyWait);
        }
        if self.cfg.panic_once && !self.panicked {
            v.push(Attack::Panic);
        }
        v
    }
}

impl Default for AdversarialScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for AdversarialScheduler {
    fn name(&self) -> String {
        "adversarial".into()
    }

    fn on_server_down(&mut self, _view: &ClusterView<'_>, server: ServerId) {
        self.down.insert(server);
    }

    fn on_server_up(&mut self, _view: &ClusterView<'_>, server: ServerId) {
        self.down.remove(&server);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let attacks = self.enabled_attacks();
        let attack = attacks
            .get((self.passes as usize) % attacks.len().max(1))
            .copied();
        self.passes += 1;

        let mut batch = FifoFirstFit.schedule(view);
        match attack {
            None => batch,
            Some(Attack::OverCommit) => {
                // Repeat the legal batch: the repeats are duplicate
                // primaries and/or over-commitments.
                let extra = batch.clone();
                batch.extend(extra);
                batch
            }
            Some(Attack::TargetDown) => {
                // Redirect half the batch to a crashed server if one is
                // known, and always append one launch on a server id
                // past the end of the cluster.
                if let Some(&dead) = self.down.iter().next() {
                    for a in batch.iter_mut().skip(1).step_by(2) {
                        a.server = dead;
                    }
                }
                if let Some(first) = batch.first().copied() {
                    batch.push(Assignment {
                        server: ServerId(view.cluster().len() as u32 + 7),
                        ..first
                    });
                }
                batch
            }
            Some(Attack::Duplicate) => {
                if let Some(first) = batch.first().copied() {
                    batch.push(first);
                }
                batch
            }
            Some(Attack::UnknownJob) => {
                batch.push(Assignment {
                    task: TaskRef {
                        job: JobId(u64::MAX),
                        phase: PhaseId(0),
                        task: TaskId(0),
                    },
                    server: ServerId(0),
                    kind: CopyKind::Primary,
                });
                batch
            }
            Some(Attack::Stall) => Vec::new(),
            Some(Attack::BusyWait) => {
                let dur = self.cfg.busy_wait.unwrap_or(Duration::ZERO);
                let t0 = std::time::Instant::now();
                while t0.elapsed() < dur {
                    std::hint::spin_loop();
                }
                batch
            }
            Some(Attack::Panic) => {
                self.panicked = true;
                panic!("adversarial scheduler panicking on purpose");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{try_simulate_with_faults, EngineConfig};
    use dollymp_cluster::fault::FaultTimeline;
    use dollymp_cluster::guard::{GuardConfig, GuardedScheduler};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn workload() -> (ClusterSpec, Vec<JobSpec>, DurationSampler) {
        let cluster = ClusterSpec::homogeneous(4, 8.0, 16.0);
        let jobs = (0..5u64)
            .map(|i| JobSpec::single_phase(JobId(i), 4, Resources::new(2.0, 4.0), 10.0, 3.0))
            .collect();
        (
            cluster,
            jobs,
            DurationSampler::new(3, StragglerModel::ParetoFit),
        )
    }

    #[test]
    fn unguarded_adversary_errors_instead_of_completing() {
        let (cluster, jobs, sampler) = workload();
        let mut adv = AdversarialScheduler::new();
        let res = try_simulate_with_faults(
            &cluster,
            jobs,
            &sampler,
            &mut adv,
            &EngineConfig::default(),
            &FaultTimeline::empty(),
        );
        assert!(res.is_err(), "strict mode must refuse the adversary");
    }

    #[test]
    fn guarded_adversary_completes_with_nonzero_stats() {
        let (cluster, jobs, sampler) = workload();
        let mut guard = GuardedScheduler::with_config(
            AdversarialScheduler::with_config(AdversarialConfig::full_hostility()),
            GuardConfig {
                budget: std::time::Duration::from_micros(200),
                ..GuardConfig::default()
            },
        );
        let report = try_simulate_with_faults(
            &cluster,
            jobs,
            &sampler,
            &mut guard,
            &EngineConfig::default(),
            &FaultTimeline::empty(),
        )
        .expect("guard contains the adversary");
        assert_eq!(report.jobs.len(), 5, "every job completes");
        assert!(!report.guard.is_clean());
        assert!(report.guard.total_rejections() > 0);
    }
}
