//! Engine fuzzing: a randomized (but validity-respecting) scheduler makes
//! chaotic placement and cloning decisions across many seeds; whatever it
//! does, the engine must uphold its conservation laws — every job
//! completes, no resource leaks (the engine debug-asserts free ==
//! capacity on drain), copy budgets hold, time never runs backwards.

use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, JobSpec, PhaseId, PhaseSpec};
use dollymp_core::resources::Resources;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Places a random subset of ready tasks on random fitting servers and
/// occasionally clones random running tasks — always self-consistent
/// (tracks its own tentative commitments) and never stalls (it places at
/// least one task whenever nothing is running).
struct ChaosScheduler {
    rng: SmallRng,
    max_copies: u32,
}

impl ChaosScheduler {
    fn new(seed: u64) -> Self {
        ChaosScheduler {
            rng: SmallRng::seed_from_u64(seed),
            max_copies: 3,
        }
    }
}

impl Scheduler for ChaosScheduler {
    fn name(&self) -> String {
        "chaos".into()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut free: Vec<Resources> = view.servers().map(|(_, _, f)| f).collect();
        let mut out = Vec::new();
        let mut placed_any_running = view.jobs().any(|j| !j.running_tasks().is_empty());

        // Primaries: each ready task is placed with probability 0.7, on a
        // uniformly random fitting server.
        for job in view.jobs() {
            for task in job.ready_tasks() {
                let demand = job.spec().phase(task.phase).demand;
                let must_place = !placed_any_running && out.is_empty();
                if !must_place && self.rng.gen_bool(0.3) {
                    continue;
                }
                let fitting: Vec<usize> = (0..free.len())
                    .filter(|&s| demand.fits_in(free[s]))
                    .collect();
                if let Some(&s) = fitting.get(self.rng.gen_range(0..fitting.len().max(1))) {
                    free[s] -= demand;
                    out.push(Assignment {
                        task,
                        server: ServerId(s as u32),
                        kind: CopyKind::Primary,
                    });
                    placed_any_running = true;
                }
            }
        }
        // Clones: random running tasks under the copy budget.
        for job in view.jobs() {
            for task in job.running_tasks() {
                if job.task(task.phase, task.task).live_copies() >= self.max_copies {
                    continue;
                }
                if self.rng.gen_bool(0.7) {
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

fn chaotic_workload(seed: u64, njobs: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..njobs)
        .map(|i| {
            let phases = rng.gen_range(1..=3);
            let mut b = JobSpec::builder(JobId(i)).arrival(rng.gen_range(0..30));
            for p in 0..phases {
                let spec = PhaseSpec::new(
                    rng.gen_range(1..=5),
                    Resources::new(
                        rng.gen_range(1..=4) as f64 * 0.5,
                        rng.gen_range(1..=4) as f64,
                    ),
                    rng.gen_range(1.0..12.0),
                    rng.gen_range(0.0..6.0),
                )
                .with_parents(if p == 0 { vec![] } else { vec![PhaseId(p - 1)] });
                b = b.phase(spec);
            }
            b.build().expect("chain is valid")
        })
        .collect()
}

/// Random but well-formed fault schedule: per-server sequences of
/// non-overlapping crash→restore windows (every crash is eventually
/// repaired, so runs always drain) plus occasional fail-slow onsets.
fn chaotic_faults(seed: u64, nservers: u32, horizon: dollymp_core::time::Time) -> FaultTimeline {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17);
    let mut events = Vec::new();
    for s in 0..nservers {
        let mut t = rng.gen_range(1..horizon / 2);
        for _ in 0..rng.gen_range(0..=2u32) {
            let len: u64 = rng.gen_range(1..=8);
            events.push(TimedFault {
                at: t,
                event: FaultEvent::Crash(ServerId(s)),
            });
            events.push(TimedFault {
                at: t + len,
                event: FaultEvent::Restore(ServerId(s)),
            });
            t += len + rng.gen_range(1..=12u64);
        }
        if rng.gen_bool(0.3) {
            events.push(TimedFault {
                at: rng.gen_range(0..horizon),
                event: FaultEvent::Degrade(ServerId(s), rng.gen_range(0.25..=1.0)),
            });
        }
    }
    FaultTimeline::new(events)
}

/// Merged per-server down windows `[crash, restore)` implied by a
/// timeline (a window stays open while the per-server down-count is
/// positive).
fn down_windows(faults: &FaultTimeline, nservers: u32) -> Vec<Vec<(u64, u64)>> {
    let mut depth = vec![0u32; nservers as usize];
    let mut open = vec![0u64; nservers as usize];
    let mut windows = vec![Vec::new(); nservers as usize];
    for f in faults.events() {
        let s = match f.event {
            FaultEvent::Crash(s) => {
                let i = s.0 as usize;
                depth[i] += 1;
                if depth[i] == 1 {
                    open[i] = f.at;
                }
                continue;
            }
            FaultEvent::Restore(s) => s,
            FaultEvent::Degrade(..) => continue,
        };
        let i = s.0 as usize;
        depth[i] -= 1;
        if depth[i] == 0 {
            windows[i].push((open[i], f.at));
        }
    }
    for (i, &d) in depth.iter().enumerate() {
        if d > 0 {
            windows[i].push((open[i], u64::MAX));
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the chaos scheduler does, the engine's invariants hold.
    #[test]
    fn engine_survives_chaotic_scheduling(seed in 0u64..10_000) {
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(4.0, 8.0),
            ServerSpec::new(2.0, 4.0).with_speed(0.5),
            ServerSpec::new(8.0, 16.0).with_speed(1.5),
        ]);
        let jobs = chaotic_workload(seed, 12);
        let total_tasks: u64 = jobs.iter().map(|j| j.total_tasks()).sum();
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let mut chaos = ChaosScheduler::new(seed ^ 0xC0FFEE);
        let r = simulate(&cluster, jobs.clone(), &sampler, &mut chaos, &EngineConfig::default());

        prop_assert_eq!(r.jobs.len(), jobs.len());
        let mut seen = std::collections::HashSet::new();
        for m in &r.jobs {
            prop_assert!(seen.insert(m.id), "job completed twice");
            prop_assert!(m.first_start >= m.arrival);
            prop_assert!(m.finish > m.first_start);
            prop_assert!(m.usage > 0.0);
            prop_assert!(m.tasks_cloned <= m.tasks);
            prop_assert!(m.clone_copies <= m.tasks * 2, "≤ 2 clones per task");
        }
        let reported_tasks: u64 = r.jobs.iter().map(|m| m.tasks).sum();
        prop_assert_eq!(reported_tasks, total_tasks);
        prop_assert_eq!(r.makespan, r.jobs.iter().map(|m| m.finish).max().unwrap());
    }

    /// Chaos with a periodic tick behaves identically w.r.t. invariants.
    #[test]
    fn engine_survives_chaos_with_ticks(seed in 0u64..3_000) {
        let cluster = ClusterSpec::homogeneous(3, 6.0, 12.0);
        let jobs = chaotic_workload(seed, 8);
        let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
        let cfg = EngineConfig { tick: Some(2), ..Default::default() };
        let mut chaos = ChaosScheduler::new(seed);
        let r = simulate(&cluster, jobs.clone(), &sampler, &mut chaos, &cfg);
        prop_assert_eq!(r.jobs.len(), jobs.len());
    }

    /// Chaotic scheduling under chaotic faults: every job still
    /// completes, the fault counters are mutually consistent, no copy
    /// ever runs inside a server's down window, and the whole run is a
    /// deterministic function of (seed, timeline).
    #[test]
    fn engine_upholds_invariants_under_faults(seed in 0u64..5_000) {
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(4.0, 8.0),
            ServerSpec::new(2.0, 4.0).with_speed(0.5),
            ServerSpec::new(8.0, 16.0).with_speed(1.5),
        ]);
        let jobs = chaotic_workload(seed, 10);
        let faults = chaotic_faults(seed, 3, 80);
        let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
        let cfg = EngineConfig::default();

        let run = |s: u64| {
            let mut chaos = ChaosScheduler::new(s ^ 0xC0FFEE);
            let mut series = Series::default();
            let r = try_simulate_with_faults_recorded(
                &cluster, jobs.clone(), &sampler, &mut chaos, &cfg, &faults, &mut series,
            ).unwrap().without_wall_clock();
            (r, series)
        };
        let (r, series) = run(seed);

        // Work conservation: faults delay jobs, they never lose them.
        prop_assert_eq!(r.jobs.len(), jobs.len());
        let total_tasks: u64 = jobs.iter().map(|j| j.total_tasks()).sum();
        let reported_tasks: u64 = r.jobs.iter().map(|m| m.tasks).sum();
        prop_assert_eq!(reported_tasks, total_tasks);

        // Counter consistency.
        let f = &r.faults;
        prop_assert!(f.tasks_requeued <= f.copies_evicted, "a requeue needs an eviction");
        prop_assert!(f.tasks_saved_by_clone + f.tasks_requeued <= f.copies_evicted);
        prop_assert!(f.server_recoveries <= f.server_crashes);
        prop_assert!(f.server_crashes <= faults.crash_count() as u64);
        prop_assert!(f.work_lost_norm.is_finite() && f.work_lost_norm >= 0.0);
        prop_assert!((f.copies_evicted == 0) == (f.work_lost_norm == 0.0));

        // No copy overlaps a down window of its server: a span may end
        // exactly at the crash slot (evicted or just-finished) and may
        // start exactly at the restore slot, never in between.
        let windows = down_windows(&faults, 3);
        for span in &series.timeline {
            for &(c, rst) in &windows[span.server.0 as usize] {
                prop_assert!(
                    span.end <= c || span.start >= rst,
                    "copy {:?} [{}, {}) on server {} overlaps down window [{}, {})",
                    span.task, span.start, span.end, span.server.0, c, rst
                );
            }
        }

        // Determinism: an identical rerun reproduces the report bit-wise,
        // and the copy timeline with it.
        let (r2, series2) = run(seed);
        prop_assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
        prop_assert_eq!(series.timeline, series2.timeline);
    }

    /// A zero-fault run recorded through the engine entry point is
    /// byte-identical to the plain `simulate` path — neither fault
    /// support nor recording changes anything when unused.
    #[test]
    fn empty_fault_timeline_is_byte_identical(seed in 0u64..3_000) {
        let cluster = ClusterSpec::homogeneous(3, 6.0, 12.0);
        let jobs = chaotic_workload(seed, 8);
        let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
        let cfg = EngineConfig::default();
        let mut a = ChaosScheduler::new(seed);
        let plain = simulate(&cluster, jobs.clone(), &sampler, &mut a, &cfg).without_wall_clock();
        let mut b = ChaosScheduler::new(seed);
        let mut series = Series::default();
        let faulty = try_simulate_with_faults_recorded(
            &cluster, jobs.clone(), &sampler, &mut b, &cfg, &FaultTimeline::empty(), &mut series,
        ).unwrap().without_wall_clock();
        prop_assert!(!series.timeline.is_empty());
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&faulty).unwrap()
        );
    }
}
