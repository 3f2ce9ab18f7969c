//! The benchmark's workloads and the inputs each one builds from a seed.

use dollymp_cluster::execution::{DurationSampler, StragglerModel};
use dollymp_cluster::fault::FaultTimeline;
use dollymp_cluster::spec::ClusterSpec;
use dollymp_core::job::JobSpec;
use dollymp_faults::FaultConfig;
use dollymp_workload::{generate_google, GoogleConfig};
use std::time::Instant;

/// One workload: a scheduler on a set of generated Google-like traces,
/// each simulated on its own on one cluster, optionally under Poisson
/// server crashes.
///
/// A single trace's outcome swings widely from seed to seed (makespan and
/// the per-decision p90 by a quarter to a half between seeds, from the
/// trace's heavy-tailed job sizes), so each run simulates a set of traces
/// and reports totals and pooled figures over the set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Policy name, as `dollymp_schedulers::by_name` knows it.
    pub scheduler: &'static str,
    /// Servers in `ClusterSpec::google_like`.
    pub servers: u32,
    /// Traces in the set.
    pub traces: usize,
    /// Jobs in each trace.
    pub jobs: usize,
    /// Dominant-share load the arrivals are re-spaced to.
    pub load: f64,
    /// Expected crashes per server per slot; 0 runs fault-free.
    pub crash_rate: f64,
    /// Crashes start in `[0, fault_horizon)` slots. Arrivals bunch at
    /// the start of these traces, so this covers the whole run rather
    /// than only the arrival period.
    pub fault_horizon: u64,
    /// Mean repair time of a crashed server, in slots.
    pub mean_repair: f64,
}

/// The benchmark's workloads, all on the paper's 30K-server scale (§6.3).
pub const WORKLOADS: &[Workload] = &[
    // DollyMP² itself: Algorithm 1's per-arrival refresh is the work.
    Workload {
        name: "trace30k_dollymp2",
        scheduler: "dollymp2",
        servers: 30_000,
        traces: 12,
        jobs: 1_000,
        load: 0.6,
        crash_rate: 0.0,
        fault_horizon: 0,
        mean_repair: 1.0,
    },
    // The identical inputs under Tetris: its O(servers × ready tasks)
    // placement scan is the work, with no Algorithm 1 and no cloning.
    Workload {
        name: "trace30k_tetris",
        scheduler: "tetris",
        servers: 30_000,
        traces: 12,
        jobs: 1_000,
        load: 0.6,
        crash_rate: 0.0,
        fault_horizon: 0,
        mean_repair: 1.0,
    },
    // A cheap policy under crashes: the engine's crash eviction and the
    // capacity index's release/reclaim churn are the work. 2.5K-job traces
    // keep the eviction walk's working set small: a memory-bound neighbour
    // process slowed 24 × 2.5K jobs by 16 % and 12 × 5K jobs by 21 % on a
    // 2-core x86-64 VM.
    Workload {
        name: "crash30k_fifo",
        scheduler: "fifo",
        servers: 30_000,
        traces: 24,
        jobs: 2_500,
        load: 0.6,
        crash_rate: 1e-4,
        fault_horizon: 1_500,
        mean_repair: 50.0,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One trace of a set, with everything its simulation consumes besides
/// the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The jobs, sorted by `(arrival, id)`.
    pub jobs: Vec<JobSpec>,
    /// Task durations.
    pub sampler: DurationSampler,
    /// Server crashes and repairs (empty when fault-free).
    pub faults: FaultTimeline,
}

/// Everything one run consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The cluster every trace runs on.
    pub cluster: ClusterSpec,
    /// The trace set.
    pub traces: Vec<Trace>,
}

/// Host time of each set-up step, in nanoseconds, summed over the set.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `ClusterSpec::google_like`.
    pub cluster_ns: u64,
    /// Trace generation, load re-spacing and the duration samplers.
    pub workload_ns: u64,
    /// The fault timelines.
    pub faults_ns: u64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_ns(&self) -> u64 {
        self.cluster_ns + self.workload_ns + self.faults_ns
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Seed of trace `i` of the set built from `seed` (SplitMix64 finaliser,
/// so neighbouring seeds share no trace).
fn trace_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    /// Build `w`'s inputs from `seed` and time each step. Each trace is
    /// built the way `dollymp-sim --workload google --load L` builds one.
    pub fn build(w: &Workload, seed: u64) -> (Inputs, SetupTimes) {
        let t0 = Instant::now();
        let cluster = ClusterSpec::google_like(w.servers, seed);
        let mut times = SetupTimes {
            cluster_ns: elapsed_ns(t0),
            ..SetupTimes::default()
        };
        let totals = cluster.totals();
        let traces = (0..w.traces)
            .map(|i| {
                let seed = trace_seed(seed, i);
                let t0 = Instant::now();
                let mut jobs = generate_google(&GoogleConfig {
                    njobs: w.jobs,
                    mean_gap_slots: 2.0,
                    seed,
                    ..Default::default()
                });
                // Re-space arrivals so the trace offers `load` of the
                // cluster's dominant-share capacity.
                let total_work: f64 = jobs.iter().map(|j| j.volume(totals, 0.0)).sum();
                let gap = total_work / w.load / jobs.len().max(1) as f64;
                let arrivals = dollymp_workload::arrivals::poisson(jobs.len(), gap, seed ^ 0xC11);
                for (j, &a) in jobs.iter_mut().zip(&arrivals) {
                    j.arrival = a;
                }
                jobs.sort_by_key(|j| (j.arrival, j.id));
                let sampler = DurationSampler::new(seed, StragglerModel::google_traces());
                times.workload_ns += elapsed_ns(t0);

                let t0 = Instant::now();
                let faults = if w.crash_rate > 0.0 {
                    let cfg = FaultConfig::new(seed ^ 0xFA17, w.fault_horizon)
                        .with_crash_rate(w.crash_rate, w.mean_repair);
                    dollymp_faults::generate(&cluster, &cfg)
                } else {
                    FaultTimeline::empty()
                };
                times.faults_ns += elapsed_ns(t0);
                Trace {
                    jobs,
                    sampler,
                    faults,
                }
            })
            .collect();
        (Inputs { cluster, traces }, times)
    }

    /// FNV-1a fingerprint of the inputs, for telling runs on different
    /// inputs apart.
    pub fn fingerprint(&self, seed: u64) -> String {
        let traces: Vec<_> = self
            .traces
            .iter()
            .map(|t| (&t.jobs, &t.sampler, &t.faults))
            .collect();
        dollymp_obs::config_fingerprint(seed, &(&self.cluster, &traces))
    }

    /// Crashes over the whole set.
    pub fn crashes(&self) -> usize {
        self.traces.iter().map(|t| t.faults.crash_count()).sum()
    }
}
