//! The acceptance suite for the flight recorder: record → replay must
//! reproduce the live `SimReport` byte-for-byte for every scheduler
//! family, with and without fault timelines, whether runs execute
//! sequentially or fanned out on the rayon backend. This generalizes
//! the bespoke equivalence suites of earlier refactors — any future
//! engine/scheduler change that perturbs observable behavior surfaces
//! here as a typed `Divergence`.

use dollymp_cluster::prelude::*;
use dollymp_core::job::{JobId, JobSpec, PhaseSpec};
use dollymp_core::resources::Resources;
use dollymp_faults::FaultConfig;
use dollymp_obs::journal::Journal;
use dollymp_obs::replay;
use dollymp_schedulers::{AdversarialConfig, AdversarialScheduler};
use proptest::prelude::*;

const SCHEDULERS: [&str; 4] = ["dollymp2", "dollymp0", "fifo", "tetris"];

fn cluster() -> ClusterSpec {
    ClusterSpec::new(vec![
        ServerSpec::new(8.0, 16.0),
        ServerSpec::new(4.0, 8.0).with_speed(0.5),
        ServerSpec::new(16.0, 32.0).with_speed(1.5),
        ServerSpec::new(8.0, 16.0),
        ServerSpec::new(8.0, 8.0),
    ])
}

/// A small mixed workload: single-phase jobs plus a two-phase chain,
/// arrivals spread so scheduling happens under churn.
fn workload(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for i in 0..8u64 {
        let mut j = JobSpec::single_phase(
            JobId(i),
            3 + (i % 4) as u32,
            Resources::new(1.0 + (i % 2) as f64, 2.0),
            8.0 + (seed % 5) as f64,
            2.0,
        );
        j.arrival = i * 3;
        jobs.push(j);
    }
    let chain = JobSpec::chain(
        JobId(100),
        vec![
            PhaseSpec::new(4, Resources::new(1.0, 2.0), 6.0, 1.5),
            PhaseSpec::new(2, Resources::new(2.0, 4.0), 5.0, 1.0),
        ],
    )
    .expect("valid chain");
    jobs.push(chain);
    jobs
}

fn faults(seed: u64) -> FaultTimeline {
    dollymp_faults::generate(
        &cluster(),
        &FaultConfig::new(seed, 120)
            .with_crash_rate(0.004, 10.0)
            .with_fail_slow(0.2, 0.5),
    )
}

fn run_recorded(name: &str, seed: u64, with_faults: bool) -> (Journal, SimReport) {
    let cluster = cluster();
    let timeline = if with_faults {
        faults(seed)
    } else {
        FaultTimeline::empty()
    };
    let sampler = DurationSampler::new(seed, StragglerModel::ParetoFit);
    let cfg = EngineConfig::default();
    let mut policy = dollymp_schedulers::by_name(name).expect("known scheduler");
    let mut journal = Journal::for_run(name, seed, &cfg);
    let report = try_simulate_with_faults_recorded(
        &cluster,
        workload(seed),
        &sampler,
        &mut policy,
        &cfg,
        &timeline,
        &mut journal,
    )
    .expect("run completes");
    (journal, report)
}

/// Zero the wall-clock nanosecond fields of a journal's spans so two
/// runs of the same configuration compare byte-equal (event *order* and
/// every simulation-domain value are deterministic; ns timings are not).
fn scrub_spans(mut j: Journal) -> Journal {
    for ev in &mut j.events {
        if let dollymp_cluster::trace::Event::SchedSpan {
            arrival_ns,
            schedule_ns,
            detail,
            ..
        } = ev
        {
            *arrival_ns = 0;
            *schedule_ns = 0;
            *detail = None;
        }
    }
    j
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every scheduler family, with and without faults: the journal
    /// replays to the byte-identical live report.
    #[test]
    fn replay_is_byte_identical(seed in 0u64..1_000) {
        for name in SCHEDULERS {
            for with_faults in [false, true] {
                let (journal, live) = run_recorded(name, seed, with_faults);
                prop_assert!(!journal.events.is_empty());
                if let Err(d) = replay::verify(&journal, &live) {
                    prop_assert!(false, "{name} faults={with_faults}: {d}");
                }
                // And through the JSONL round trip: what a reader loads
                // from disk replays identically too.
                let reloaded = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
                if let Err(d) = replay::verify(&reloaded, &live) {
                    prop_assert!(false, "{name} faults={with_faults} after JSONL: {d}");
                }
            }
        }
    }
}

/// The rayon fan-out backend records the same journals (modulo
/// wall-clock spans) and every parallel run still verifies against its
/// own live report.
#[test]
fn rayon_backend_matches_sequential() {
    let cases: Vec<(&str, bool)> = SCHEDULERS
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let parallel = rayon::par_map_slice(&cases, &|&(name, wf)| run_recorded(name, 42, wf));
    for ((name, wf), (journal, live)) in cases.iter().zip(&parallel) {
        replay::verify(journal, live).unwrap_or_else(|d| panic!("{name} faults={wf} (rayon): {d}"));
        let (seq_journal, seq_live) = run_recorded(name, 42, *wf);
        assert_eq!(
            scrub_spans(seq_journal).to_jsonl(),
            scrub_spans(journal.clone()).to_jsonl(),
            "{name} faults={wf}: journal differs across backends"
        );
        assert_eq!(
            serde_json::to_string(&seq_live.without_wall_clock()).unwrap(),
            serde_json::to_string(&live.clone().without_wall_clock()).unwrap(),
            "{name} faults={wf}: live report differs across backends"
        );
    }
}

/// A guarded run of a hostile policy exercises the `GuardDelta` stream:
/// the replayed report reproduces nonzero containment counters exactly.
#[test]
fn guarded_hostile_run_replays_guard_stats() {
    let cluster = cluster();
    let sampler = DurationSampler::new(7, StragglerModel::ParetoFit);
    let cfg = EngineConfig::default();
    let hostile = AdversarialScheduler::with_config(AdversarialConfig {
        overcommit: true,
        duplicate: true,
        ..AdversarialConfig::default()
    });
    let mut policy = GuardedScheduler::new(hostile);
    let mut journal = Journal::for_run(&policy.name(), 7, &cfg);
    let report = try_simulate_with_faults_recorded(
        &cluster,
        workload(7),
        &sampler,
        &mut policy,
        &cfg,
        &FaultTimeline::empty(),
        &mut journal,
    )
    .expect("contained");
    assert!(
        report.guard.total_rejections() > 0,
        "hostile policy should have been contained at least once"
    );
    replay::verify(&journal, &report).unwrap();
}

/// The `NullRecorder` path and the recorded path produce identical
/// simulation outcomes — recording is purely observational — and a
/// `Series` recorded live equals the one folded from the journal.
#[test]
fn recording_does_not_perturb_the_simulation() {
    for name in SCHEDULERS {
        let (journal, recorded) = run_recorded(name, 3, true);
        assert!(!journal.events.is_empty());
        let cluster = cluster();
        let sampler = DurationSampler::new(3, StragglerModel::ParetoFit);
        let cfg = EngineConfig::default();
        let mut policy = dollymp_schedulers::by_name(name).unwrap();
        let plain = try_simulate_with_faults(
            &cluster,
            workload(3),
            &sampler,
            &mut policy,
            &cfg,
            &faults(3),
        )
        .unwrap();
        let mut live_series = Series::default();
        let mut policy = dollymp_schedulers::by_name(name).unwrap();
        let with_series = try_simulate_with_faults_recorded(
            &cluster,
            workload(3),
            &sampler,
            &mut policy,
            &cfg,
            &faults(3),
            &mut live_series,
        )
        .unwrap();
        for other in [&plain, &with_series] {
            assert_eq!(
                serde_json::to_string(&other.clone().without_wall_clock()).unwrap(),
                serde_json::to_string(&recorded.clone().without_wall_clock()).unwrap(),
                "{name}: recording changed the simulation outcome"
            );
        }
        let folded = Series::from_events(&journal.events);
        assert!(!folded.timeline.is_empty() && !folded.utilization.is_empty());
        assert_eq!(live_series, folded, "{name}: live and folded series differ");
    }
}
