//! Cross-crate acceptance tests for the fault-injection subsystem:
//! stochastic schedules from `dollymp-faults` driven through the engine
//! under real schedulers.
//!
//! Pins the three contract properties end to end: a zero-rate schedule
//! is invisible (bit-identical reports), the same seed + timeline is
//! reproducible, and cloning acts as failure insurance (DollyMP with
//! clones fully loses strictly fewer tasks than the no-clone baseline
//! on the same fault timeline).

use dollymp::faults::generate;
use dollymp::prelude::*;

fn seeded_workload() -> (ClusterSpec, Vec<JobSpec>, DurationSampler) {
    let cluster = ClusterSpec::paper_30_node();
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        let (n, theta) = match i % 4 {
            0 => (20, 40.0),
            1 => (4, 8.0),
            2 => (8, 12.0),
            _ => (2, 5.0),
        };
        jobs.push(
            JobSpec::builder(JobId(i))
                .arrival(i * 5)
                .phase(dollymp_core::job::PhaseSpec::new(
                    n,
                    Resources::new(1.0 + (i % 3) as f64, 4.0),
                    theta,
                    theta / 2.0,
                ))
                .build()
                .expect("valid job spec"),
        );
    }
    let sampler = DurationSampler::new(23, StragglerModel::ParetoFit);
    (cluster, jobs, sampler)
}

fn run(
    cluster: &ClusterSpec,
    jobs: &[JobSpec],
    sampler: &DurationSampler,
    clones: u32,
    faults: &FaultTimeline,
) -> SimReport {
    let mut s = DollyMP::with_clones(clones);
    try_simulate_with_faults(
        cluster,
        jobs.to_vec(),
        sampler,
        &mut s,
        &EngineConfig::default(),
        faults,
    )
    .unwrap()
}

#[test]
fn zero_rate_schedule_is_invisible() {
    let (cluster, jobs, sampler) = seeded_workload();
    let cfg = FaultConfig::new(99, 100_000);
    let timeline = generate(&cluster, &cfg);
    assert!(timeline.is_empty(), "all-zero rates generate no events");

    let mut s1 = DollyMP::with_clones(2);
    let plain = simulate(
        &cluster,
        jobs.clone(),
        &sampler,
        &mut s1,
        &EngineConfig::default(),
    );
    let faulty = run(&cluster, &jobs, &sampler, 2, &timeline);
    assert_eq!(plain.without_wall_clock(), faulty.without_wall_clock());
}

#[test]
fn same_seed_and_schedule_reproduce_identical_reports() {
    let (cluster, jobs, sampler) = seeded_workload();
    let cfg = FaultConfig::new(41, 2_000)
        .with_crash_rate(1e-3, 50.0)
        .with_fail_slow(0.1, 0.5);
    let a = generate(&cluster, &cfg);
    let b = generate(&cluster, &cfg);
    assert_eq!(a.events(), b.events(), "generation is deterministic");

    let r1 = run(&cluster, &jobs, &sampler, 2, &a);
    let r2 = run(&cluster, &jobs, &sampler, 2, &b);
    assert_eq!(r1.clone().without_wall_clock(), r2.without_wall_clock());
    assert!(
        r1.faults.server_crashes > 0,
        "the schedule actually injected crashes"
    );
}

#[test]
fn cloning_is_failure_insurance() {
    let (cluster, jobs, sampler) = seeded_workload();
    let cfg = FaultConfig::new(17, 2_000).with_crash_rate(5e-3, 30.0);
    let timeline = generate(&cluster, &cfg);

    let with_clones = run(&cluster, &jobs, &sampler, 2, &timeline);
    let without = run(&cluster, &jobs, &sampler, 0, &timeline);

    assert!(with_clones.faults.copies_evicted > 0, "faults hit the run");
    assert!(without.faults.tasks_requeued > 0, "baseline loses tasks");
    assert!(
        with_clones.faults.tasks_requeued < without.faults.tasks_requeued,
        "cloning must save tasks from full loss: {} vs {}",
        with_clones.faults.tasks_requeued,
        without.faults.tasks_requeued
    );
    assert!(
        with_clones.faults.tasks_saved_by_clone > 0,
        "some evictions were absorbed by a live clone"
    );
    // Both runs still complete every job — faults delay, never drop.
    assert_eq!(with_clones.jobs.len(), jobs.len());
    assert_eq!(without.jobs.len(), jobs.len());
}
