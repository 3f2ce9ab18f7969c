//! Differential oracle for the incremental Algorithm 1 path.
//!
//! `SummaryCache::summarize` memoizes `TransientJob::from_remaining`, a
//! pure function of (remaining work, cluster totals, σ-weight). DollyMP
//! always goes through the cache; the uncached reference lives here. Both
//! are driven through random sequences of task progress, phase
//! completion, re-queues that leave the counts unchanged, arrivals, job
//! removal, and changes to the cluster totals or σ, and every summary is
//! compared after each step. Any divergence is a fingerprinting bug,
//! never an acceptable approximation.

use dollymp::prelude::*;
use dollymp_core::job::PhaseSpec;
use dollymp_core::transient::{
    transient_schedule, SummaryCache, SummaryInput, TransientConfig, TransientJob,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A job of `1..=max_phases` phases chained by parent edges.
fn spec(rng: &mut SmallRng, id: u64, max_phases: u32) -> JobSpec {
    let mut b = JobSpec::builder(JobId(id));
    for p in 0..rng.gen_range(1..=max_phases) {
        let theta: f64 = rng.gen_range(2.0..40.0);
        let mut phase = PhaseSpec::new(
            rng.gen_range(1..=12),
            Resources::new(rng.gen_range(1..=4) as f64, rng.gen_range(1..=8) as f64),
            theta,
            theta * rng.gen_range(0.0..0.8),
        );
        if p > 0 {
            phase = phase.with_parents(vec![PhaseId(p - 1)]);
        }
        b = b.phase(phase);
    }
    b.build().expect("valid spec")
}

/// One job's remaining work, as the engine reports it.
struct Progress {
    spec: JobSpec,
    remaining: Vec<u32>,
    active: bool,
}

impl Progress {
    fn input(&self) -> SummaryInput<'_> {
        SummaryInput {
            spec: &self.spec,
            remaining_tasks: self.remaining.clone(),
            finished_phases: self.remaining.iter().map(|&r| r == 0).collect(),
        }
    }
}

fn totals(rng: &mut SmallRng) -> Resources {
    Resources::new(rng.gen_range(8..=64) as f64, rng.gen_range(16..=128) as f64)
}

/// Drive the cache and the reference through `steps` random events over
/// `njobs` jobs; after each, summarize every active job (in a shuffled
/// order, so the cache must also preserve input order) both ways, and
/// compare the summaries and the Algorithm 1 output built from them.
fn drive(seed: u64, njobs: u64, max_phases: u32, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut jobs: Vec<Progress> = (0..njobs)
        .map(|id| {
            let spec = spec(&mut rng, id, max_phases);
            let remaining = spec.phases().iter().map(|p| p.ntasks).collect();
            Progress {
                spec,
                remaining,
                active: false,
            }
        })
        .collect();
    let mut cache = SummaryCache::new();
    let mut cluster = totals(&mut rng);
    let mut sigma = 1.5f64;
    let cfg = TransientConfig::default();
    for _ in 0..steps {
        let j = rng.gen_range(0..jobs.len());
        match rng.gen_range(0..10) {
            // Arrival of a not-yet-active job.
            0 | 1 => jobs[j].active = true,
            // Progress: some tasks of one phase finish; at zero the phase
            // completes.
            2..=4 => {
                let open: Vec<usize> = (0..jobs[j].remaining.len())
                    .filter(|&p| jobs[j].remaining[p] > 0)
                    .collect();
                if let Some(&p) = open.get(rng.gen_range(0..open.len().max(1))) {
                    let done = rng.gen_range(1..=jobs[j].remaining[p]);
                    jobs[j].remaining[p] -= done;
                }
            }
            // A crash re-queues a task: the counts do not change.
            5 | 6 => {}
            // The job finishes and leaves the cache.
            7 => {
                if jobs[j].active {
                    jobs[j].active = false;
                    cache.remove(JobId(j as u64));
                }
            }
            // Capacity comes or goes.
            8 => cluster = totals(&mut rng),
            _ => sigma = [0.0, 1.0, 1.5, 3.0][rng.gen_range(0..4usize)],
        }
        let mut order: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].active).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let inputs: Vec<SummaryInput<'_>> = order.iter().map(|&i| jobs[i].input()).collect();
        let cached = cache.summarize(&inputs, cluster, sigma);
        let fresh: Vec<TransientJob> = inputs
            .iter()
            .map(|i| {
                TransientJob::from_remaining(
                    i.spec,
                    &i.remaining_tasks,
                    &i.finished_phases,
                    cluster,
                    sigma,
                )
            })
            .collect();
        assert_eq!(cached, fresh, "a cached summary diverged from a recompute");
        assert_eq!(
            transient_schedule(&cached, &cfg),
            transient_schedule(&fresh, &cfg),
            "Algorithm 1 priorities diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mostly single-phase jobs: the priority levels Algorithm 1 derives
    /// from cached summaries equal those derived from recomputed ones.
    #[test]
    fn summary_cache_does_not_change_decisions(seed in 0u64..u64::MAX, njobs in 1u64..24) {
        drive(seed, njobs, 2, 120);
    }

    /// Multi-phase DAG jobs, where phase completions change the
    /// remaining-work fingerprint mid-run.
    #[test]
    fn summary_cache_equivalence_with_multi_phase_jobs(seed in 0u64..u64::MAX, njobs in 1u64..12) {
        drive(seed, njobs, 4, 120);
    }
}
