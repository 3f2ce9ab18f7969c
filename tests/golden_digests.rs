//! Golden-digest tripwire: every registered policy, plus the YARN
//! deployment, runs a fixed seed matrix on the paper's 30-node cluster
//! with and without one fixed crash/restore timeline, recorded into a
//! journal. Each journal must replay to its live report, and the FNV-1a
//! fingerprint of the report's deterministic fields plus the copy
//! timeline and utilization series folded from the journal must match
//! the committed table below.
//!
//! A refactor that claims to keep decisions byte-identical must leave
//! this table untouched. A change that moves decisions on purpose
//! regenerates the table (the failure message prints every actual
//! digest) and names the decisions that changed.

use dollymp::prelude::*;
use dollymp_obs::config_fingerprint;
use dollymp_obs::journal::Journal;
use dollymp_obs::replay;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 2] = [7, 1009];

/// Seeded mix of one- and two-phase jobs with mixed demands, arriving
/// densely enough that the 30-node cluster queues work.
fn workload(seed: u64) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..30u64)
        .map(|i| {
            let demand = Resources::new(rng.gen_range(1..=4) as f64, rng.gen_range(2..=8) as f64);
            let theta: f64 = rng.gen_range(4.0..30.0);
            let mut b = JobSpec::builder(JobId(i))
                .arrival(rng.gen_range(0..120))
                .label(format!("app{}", i % 5))
                .phase(dollymp_core::job::PhaseSpec::new(
                    rng.gen_range(1..=24),
                    demand,
                    theta,
                    theta * rng.gen_range(0.0..0.8),
                ));
            if rng.gen_bool(0.4) {
                b = b.phase(
                    dollymp_core::job::PhaseSpec::new(
                        rng.gen_range(1..=8),
                        Resources::new(1.0, 2.0),
                        theta / 2.0,
                        theta / 4.0,
                    )
                    .with_parents(vec![PhaseId(0)]),
                );
            }
            b.build().expect("valid spec")
        })
        .collect()
}

/// One fixed crash/restore timeline: staggered and overlapping windows,
/// one server crashing twice, every crash repaired.
fn crash_timeline() -> FaultTimeline {
    let windows: [(u32, u64, u64); 7] = [
        (0, 5, 30),
        (3, 12, 18),
        (7, 20, 60),
        (12, 25, 26),
        (21, 40, 95),
        (29, 8, 70),
        (3, 50, 64),
    ];
    let mut events = Vec::new();
    for (s, down, up) in windows {
        events.push(TimedFault {
            at: down,
            event: FaultEvent::Crash(ServerId(s)),
        });
        events.push(TimedFault {
            at: up,
            event: FaultEvent::Restore(ServerId(s)),
        });
    }
    FaultTimeline::new(events)
}

fn policy(name: &str) -> Box<dyn Scheduler> {
    if name == "yarn-dollymp2" {
        Box::new(YarnSystem::new(2))
    } else {
        dollymp::schedulers::by_name(name).expect("registered policy")
    }
}

/// Fingerprint of the report's deterministic fields (everything except
/// the wall-clock `scheduling_ns` and `sched_overhead`) and of the
/// journal's series.
fn digest(name: &str, seed: u64, faults: bool) -> String {
    let cluster = ClusterSpec::paper_30_node();
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let timeline = if faults {
        crash_timeline()
    } else {
        FaultTimeline::empty()
    };
    let cfg = EngineConfig {
        tick: (name.starts_with("capacity") || name == "hopper").then_some(1),
        ..EngineConfig::default()
    };
    let mut s = policy(name);
    let mut journal = Journal::for_run(name, seed, &cfg);
    let r = try_simulate_with_faults_recorded(
        &cluster,
        workload(seed),
        &sampler,
        s.as_mut(),
        &cfg,
        &timeline,
        &mut journal,
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(r.jobs.len(), 30, "{name}: every job completes");
    if faults {
        assert!(r.faults.copies_evicted > 0, "{name}: the crashes must bite");
    }
    if let Err(d) = replay::verify(&journal, &r) {
        panic!("{name} seed {seed} faults={faults}: {d}");
    }
    let series = Series::from_events(&journal.events);
    let fields = (
        &r.scheduler,
        &r.jobs,
        (r.makespan, r.decision_points),
        &r.faults,
        &r.guard,
        (&series.utilization, &series.timeline),
    );
    config_fingerprint(seed, &fields)
}

/// `(policy, seed, faults, digest)`.
const GOLDEN: &[(&str, u64, bool, &str)] = &[
    ("fifo", 7, false, "15a1b167db3055c4"),
    ("fifo", 7, true, "f36e6380d6e140e6"),
    ("fifo", 1009, false, "caaf8884ddfa8a99"),
    ("fifo", 1009, true, "dbec73e39c4f0c7f"),
    ("capacity", 7, false, "4268e38aabd854da"),
    ("capacity", 7, true, "41abdaea847c617d"),
    ("capacity", 1009, false, "4a0561f5e761675d"),
    ("capacity", 1009, true, "25d32faff4c03ce1"),
    ("capacity-nospec", 7, false, "07f73ffd912ebefc"),
    ("capacity-nospec", 7, true, "c361349837d6a6d2"),
    ("capacity-nospec", 1009, false, "202673e77c5058af"),
    ("capacity-nospec", 1009, true, "913ba980bbb791a2"),
    ("drf", 7, false, "d7f82a21f11da60c"),
    ("drf", 7, true, "30652926d6612a33"),
    ("drf", 1009, false, "2f8b7ebe5aa93cb4"),
    ("drf", 1009, true, "144327a692f9407b"),
    ("tetris", 7, false, "09a848c319287b2d"),
    ("tetris", 7, true, "4ff3c2d37ad70f4c"),
    ("tetris", 1009, false, "e32be48494840baa"),
    ("tetris", 1009, true, "fb739d03748b7fba"),
    ("tetris+clone1", 7, false, "4da49540b6a35ca7"),
    ("tetris+clone1", 7, true, "012b9914c0bebf30"),
    ("tetris+clone1", 1009, false, "06f6e65edbb68d13"),
    ("tetris+clone1", 1009, true, "9b6f525790effcad"),
    ("carbyne", 7, false, "961318d7efb306e6"),
    ("carbyne", 7, true, "c1b515fd28fec070"),
    ("carbyne", 1009, false, "b8e99dba0a42bcbd"),
    ("carbyne", 1009, true, "4f34c34814904cb2"),
    ("hopper", 7, false, "cef69652954705c0"),
    ("hopper", 7, true, "121597955e1058f2"),
    ("hopper", 1009, false, "da6674aaef8405bc"),
    ("hopper", 1009, true, "ec0ef99b86b34419"),
    ("srpt", 7, false, "2700db65469fcb32"),
    ("srpt", 7, true, "cc0922bef9fe2544"),
    ("srpt", 1009, false, "0ece9dd544418703"),
    ("srpt", 1009, true, "17badb06f1607429"),
    ("svf", 7, false, "c17fc87432e14012"),
    ("svf", 7, true, "31955d926c45a6c8"),
    ("svf", 1009, false, "1069e0e456887a9b"),
    ("svf", 1009, true, "e21adfdb0ba2dfbb"),
    ("dollymp0", 7, false, "50db827e3fcbf9f7"),
    ("dollymp0", 7, true, "6f971b87c0ab24a5"),
    ("dollymp0", 1009, false, "d3dcea38a0a56b7d"),
    ("dollymp0", 1009, true, "8a031f351735c978"),
    ("dollymp1", 7, false, "38b48d8fb64b5c52"),
    ("dollymp1", 7, true, "afd78e012803ecf8"),
    ("dollymp1", 1009, false, "de70d238c51c7038"),
    ("dollymp1", 1009, true, "68df49e6fe23a94b"),
    ("dollymp2", 7, false, "141d14d62b9d8b22"),
    ("dollymp2", 7, true, "0bb9113ef6ceb48a"),
    ("dollymp2", 1009, false, "a942c4586d98da54"),
    ("dollymp2", 1009, true, "3a5848cae3b39b32"),
    ("dollymp3", 7, false, "6b4b10b0333338d6"),
    ("dollymp3", 7, true, "664e9945417df137"),
    ("dollymp3", 1009, false, "18c8b402e1f22346"),
    ("dollymp3", 1009, true, "80007bef7554a1a4"),
    ("learned-dollymp2", 7, false, "77cfc61b94188515"),
    ("learned-dollymp2", 7, true, "5eaadc40f05a820d"),
    ("learned-dollymp2", 1009, false, "e452ccf005f011b4"),
    ("learned-dollymp2", 1009, true, "138b7110e1362d86"),
    ("yarn-dollymp2", 7, false, "767b013fac421151"),
    ("yarn-dollymp2", 7, true, "e81654fc9173b757"),
    ("yarn-dollymp2", 1009, false, "055438e2ef900431"),
    ("yarn-dollymp2", 1009, true, "f5205ab28ee1a128"),
];

#[test]
fn every_policy_reproduces_its_golden_digest() {
    let mut names: Vec<&str> = dollymp::schedulers::ALL_NAMES.to_vec();
    names.push("yarn-dollymp2");
    let mut actual = Vec::new();
    for &name in &names {
        for seed in SEEDS {
            for faults in [false, true] {
                actual.push((name, seed, faults, digest(name, seed, faults)));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(n, s, f, d)| format!("    ({n:?}, {s}, {f}, {d:?}),\n"))
        .collect();
    let golden: Vec<(&str, u64, bool, String)> = GOLDEN
        .iter()
        .map(|&(n, s, f, d)| (n, s, f, d.to_string()))
        .collect();
    assert_eq!(
        actual, golden,
        "decisions changed; actual digest table:\n{table}"
    );
}
