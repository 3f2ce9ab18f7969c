//! Cross-crate acceptance tests for the containment layer (PR 3's
//! tentpole): an adversarial policy under `GuardedScheduler` can never
//! take a run down, across arbitrary fault timelines — and a
//! well-behaved policy under the guard produces reports byte-identical
//! to the unguarded path.

use dollymp::prelude::*;
use dollymp::schedulers::{AdversarialConfig, AdversarialScheduler};
use dollymp_cluster::guard::GuardConfig;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn workload(seed: u64, njobs: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..njobs)
        .map(|i| {
            JobSpec::builder(JobId(i))
                .arrival(rng.gen_range(0..njobs * 3))
                .phase(dollymp_core::job::PhaseSpec::new(
                    rng.gen_range(1..=6),
                    Resources::new(rng.gen_range(1..=3) as f64, rng.gen_range(2..=4) as f64),
                    rng.gen_range(2.0..12.0),
                    rng.gen_range(0.0..5.0),
                ))
                .build()
                .expect("valid spec")
        })
        .collect()
}

/// Random well-formed crash→restore windows (every crash repaired, so
/// runs can always drain) — same shape as the engine fuzz suite's.
fn fault_timeline(seed: u64, nservers: u32, horizon: u64) -> FaultTimeline {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6A2D);
    let mut events = Vec::new();
    for s in 0..nservers {
        let mut t = rng.gen_range(1..horizon / 2);
        for _ in 0..rng.gen_range(0..=2u32) {
            let len: u64 = rng.gen_range(1..=10);
            events.push(TimedFault {
                at: t,
                event: FaultEvent::Crash(ServerId(s)),
            });
            events.push(TimedFault {
                at: t + len,
                event: FaultEvent::Restore(ServerId(s)),
            });
            t += len + rng.gen_range(1..=15u64);
        }
    }
    FaultTimeline::new(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline containment property: the adversary (over-commits,
    /// targets down servers, duplicates copies, names unknown jobs,
    /// stalls, panics, busy-waits past the budget) under the guard,
    /// on an arbitrary fault timeline, never panics the engine, still
    /// completes every job, and leaves a nonzero audit trail.
    #[test]
    fn guarded_adversary_never_takes_a_run_down(seed in 0u64..10_000) {
        let cluster = ClusterSpec::homogeneous(4, 6.0, 12.0);
        let jobs = workload(seed, 8);
        let njobs = jobs.len();
        let faults = fault_timeline(seed, 4, 60);
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let mut guard = dollymp_cluster::guard::GuardedScheduler::with_config(
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
            &faults,
        );
        let report = report.expect("guard must contain the adversary");
        prop_assert_eq!(report.jobs.len(), njobs, "every job completes");
        prop_assert!(!report.guard.is_clean(), "misbehaviour leaves a trail");
        prop_assert!(report.guard.total_rejections() > 0);
        // The panic attack only fires if strikes have not already
        // quarantined the adversary; either way it ends quarantined.
        prop_assert!(report.guard.policy_panics <= 1);
        prop_assert!(report.guard.quarantined_at.is_some(), "offender quarantined");
        prop_assert!(report.guard.fallback_passes > 0, "fallback finished the run");
    }

    /// Transparency: wrapping a well-behaved policy changes nothing —
    /// the guarded report is byte-identical to the unguarded one (after
    /// zeroing wall-clock timings) and its guard stats are all zero.
    #[test]
    fn guard_is_transparent_for_well_behaved_policies(seed in 0u64..10_000) {
        let cluster = ClusterSpec::homogeneous(4, 6.0, 12.0);
        let jobs = workload(seed, 8);
        let faults = fault_timeline(seed, 4, 60);
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        for name in ["fifo", "dollymp2"] {
            let mut plain = dollymp::schedulers::by_name(name).expect("known policy");
            let unguarded = try_simulate_with_faults(
                &cluster, jobs.clone(), &sampler, plain.as_mut(),
                &EngineConfig::default(), &faults,
            ).unwrap();
            let inner = dollymp::schedulers::by_name(name).expect("known policy");
            let mut guard = dollymp_cluster::guard::GuardedScheduler::new(inner);
            let guarded = try_simulate_with_faults(
                &cluster, jobs.clone(), &sampler, &mut guard,
                &EngineConfig::default(), &faults,
            ).unwrap();
            prop_assert!(guarded.guard.is_clean(), "{}: no interventions", name);
            prop_assert_eq!(unguarded.without_wall_clock(), guarded.without_wall_clock(), "{} must be unchanged", name);
        }
    }
}

/// Strict mode still refuses the adversary: `try_simulate` returns a
/// typed error (never panics), and the error maps onto the taxonomy.
#[test]
fn strict_mode_rejects_the_adversary_with_typed_errors() {
    let cluster = ClusterSpec::homogeneous(4, 6.0, 12.0);
    let jobs = workload(77, 6);
    let sampler = DurationSampler::new(77, StragglerModel::ParetoFit);
    let mut adv = AdversarialScheduler::new();
    let err = try_simulate_with_faults(
        &cluster,
        jobs,
        &sampler,
        &mut adv,
        &EngineConfig::default(),
        &FaultTimeline::empty(),
    )
    .expect_err("strict mode must refuse");
    // Whatever attack fired first, it lands in the shared taxonomy.
    let _reason: RejectReason = err.reason();
}

/// A well-behaved, self-consistent policy that clones aggressively from
/// leftover capacity — the kind of speculation the throttle exists to
/// suppress under saturation.
struct CloneHappy;

impl Scheduler for CloneHappy {
    fn name(&self) -> String {
        "clone-happy".into()
    }
    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut out = FifoFirstFit.schedule(view);
        for a in &out {
            let demand = view
                .job(a.task.job)
                .map(|j| j.spec().phase(a.task.phase).demand)
                .unwrap_or(Resources::ZERO);
            free[a.server.0 as usize] -= demand;
        }
        // One clone per running task into whatever is left.
        for job in view.jobs() {
            for task in job.running_tasks() {
                if job.task(task.phase, task.task).live_copies() >= 2 {
                    continue;
                }
                let demand = job.spec().phase(task.phase).demand;
                if let Some(s) = (0..free.len()).find(|&s| demand.fits_in(free[s])) {
                    free[s] -= demand;
                    out.push(Assignment {
                        task,
                        server: ServerId(s as u32),
                        kind: CopyKind::Clone,
                    });
                }
            }
        }
        out
    }
}

/// The guard under overload config still completes a saturated workload
/// and its saturation signal suppresses clone launches while the
/// cluster is hot.
#[test]
fn overload_guard_throttles_clones_under_saturation() {
    let cluster = ClusterSpec::homogeneous(4, 4.0, 8.0);
    // Everything arrives at once: 96 tasks on 16 task-slots of capacity
    // means sustained saturation for most of the run.
    let jobs: Vec<JobSpec> = (0..24u64)
        .map(|i| JobSpec::single_phase(JobId(i), 4, Resources::new(1.0, 2.0), 10.0, 4.0))
        .collect();
    let sampler = DurationSampler::new(9, StragglerModel::ParetoFit);
    let mut guard = dollymp_cluster::guard::GuardedScheduler::with_config(
        CloneHappy,
        GuardConfig {
            // The 16-slot cluster quantizes utilization in 1/16 steps, so
            // "saturated" here is ≥90% (15 of 16 slots busy).
            clone_throttle: Some(dollymp_cluster::guard::CloneThrottle {
                high: 0.90,
                low: 0.50,
            }),
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
    .expect("completes");
    assert_eq!(report.jobs.len(), 24);
    assert!(
        report.guard.clones_throttled > 0,
        "saturation must suppress clone launches: {:?}",
        report.guard
    );
    assert!(
        report.guard.quarantined_at.is_none(),
        "no offence committed"
    );
}
