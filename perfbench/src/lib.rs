//! Paper-scale benchmark of the DollyMP simulator.
//!
//! Each workload builds a set of traces from a seed, then repeatedly
//! simulates every trace of the set with `try_simulate_with_faults` for
//! the requested time. Layers are measured from outside, through public
//! traits only: a timing
//! [`Scheduler`](dollymp_cluster::scheduler::Scheduler) wrapped around the
//! real policy ([`probe::Probe`]), a counting
//! [`Recorder`](dollymp_cluster::trace::Recorder) ([`probe::Tally`]) and a
//! counting global allocator ([`alloc::Counting`]).
//!
//! End-to-end runs (`traced = false`) only timestamp `schedule()` returns
//! and read the allocator's high-water mark. Traced runs alternate an
//! untraced repetition with a traced one, which times every scheduler
//! callback and tallies the engine's events; the ratio of their wall
//! times is the cost of tracing itself.

pub mod alloc;
pub mod check;
pub mod probe;
pub mod setup;

use check::{check, Outcome};
use dollymp_cluster::engine::{
    try_simulate_with_faults, try_simulate_with_faults_recorded, EngineConfig,
};
use probe::{Probe, Tally};
use setup::{Inputs, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when none is given; claims are checked on it first.
pub const DEFAULT_SEED: u64 = 7;

/// Times the inputs are rebuilt in one run; `setup_s` is the median.
/// Set-up takes milliseconds, so one timing alone varies by a quarter.
const SETUP_REPEATS: usize = 21;

/// The §6.3.3 per-decision-point budget, in nanoseconds.
const DECISION_BUDGET_NS: u64 = 20_000_000;

/// Iterations of the host calibration loop (about 40 ms at 2.1 GHz).
const CALIB_ITERS: u64 = 20_000_000;

/// One metric as printed: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Every output check and reconciliation passed.
    pub correct: bool,
    /// Jobs submitted, summed over repetitions.
    pub attempted: u64,
    /// Jobs that failed the output checks, summed over repetitions.
    pub failed: u64,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Outcome digest of the run (identical across repetitions).
    pub digest: String,
    /// Fingerprint of the inputs.
    pub input_fingerprint: String,
    /// Failed checks, for the log.
    pub errors: Vec<String>,
    /// Host seconds of each untraced repetition, in order.
    pub walls_s: Vec<f64>,
    /// Host seconds of each traced repetition, in order.
    pub traced_walls_s: Vec<f64>,
    /// Median host calibration time over the repetitions, in ms.
    pub calib_ms: f64,
}

impl BenchResult {
    /// The result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host time of a fixed, deterministic CPU-bound loop, in nanoseconds:
/// tells host drift apart from program change. Reported only; it rescales
/// nothing.
fn calibrate() -> u64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for _ in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// Nearest-rank `q`-percentile of ascending `sorted` (the convention of
/// `SchedOverhead`); 0 when empty.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = ((n as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One repetition (a simulation of every trace in the set), reduced to the
/// numbers the metrics need. Times and counts are totals over the set.
#[derive(Debug)]
struct Run {
    outcome: Outcome,
    calib_ns: u64,
    wall_ns: u64,
    /// Largest over the traces.
    peak_heap_bytes: u64,
    alloc_bytes: u64,
    /// Decision points pooled over the traces.
    decisions: u64,
    decision_p50_ns: u64,
    decision_p90_ns: u64,
    decision_max_ns: u64,
    decision_over_budget: u64,
    /// Traced runs only from here on.
    init_ns: u64,
    drain_ns: u64,
    stats: probe::ProbeStats,
    pass_p90_ns: u64,
    pass_max_ns: u64,
    tally: Tally,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Simulate every trace of `inputs` once under `w`'s policy.
fn simulate_set(w: &Workload, inputs: &Inputs, traced: bool) -> Run {
    let calib_ns = calibrate();
    // Buffers sized up front so the instruments allocate nothing during a
    // simulation; no trace here reaches this many decision points.
    let capacity = 1 << 16;
    let mut stats = probe::ProbeStats::with_capacity(capacity);
    let mut decisions: Vec<u64> = Vec::with_capacity(capacity);
    let mut tally = Tally::default();
    let mut outcome = Outcome::default();
    let (mut wall_ns, mut peak_heap_bytes, mut alloc_bytes, mut init_ns, mut drain_ns) =
        (0, 0, 0, 0, 0);
    let cfg = EngineConfig::default();
    for trace in &inputs.traces {
        #[allow(clippy::expect_used)] // workload names are fixed in `setup::WORKLOADS`
        let policy =
            dollymp_schedulers::by_name(w.scheduler).expect("workload names a known scheduler");
        let mut probe = Probe::new(policy, traced, &mut stats);
        let jobs = trace.jobs.clone();

        alloc::reset_peak();
        let live0 = alloc::live();
        let alloc0 = alloc::allocated();
        let t0 = Instant::now();
        let result = if traced {
            try_simulate_with_faults_recorded(
                &inputs.cluster,
                jobs,
                &trace.sampler,
                &mut probe,
                &cfg,
                &trace.faults,
                &mut tally,
            )
        } else {
            try_simulate_with_faults(
                &inputs.cluster,
                jobs,
                &trace.sampler,
                &mut probe,
                &cfg,
                &trace.faults,
            )
        };
        let t1 = Instant::now();
        peak_heap_bytes = peak_heap_bytes.max(alloc::peak().saturating_sub(live0));
        alloc_bytes += alloc::allocated() - alloc0;
        wall_ns += ns(t1 - t0);
        drop(probe);

        // A decision point runs from the return of the previous
        // `schedule()` (the first from the start of the run) to the return
        // of its own.
        let mut prev = t0;
        for &r in &stats.schedule_returns {
            decisions.push(ns(r - prev));
            prev = r;
        }
        stats.schedule_returns.clear();
        drain_ns += ns(t1 - prev);
        init_ns += stats.first_call.take().map_or(0, |f| ns(f - t0));
        outcome.add(check(trace, &result));
    }

    decisions.sort_unstable();
    stats.pass_ns.sort_unstable();
    let pass_p90_ns = nearest_rank(&stats.pass_ns, 0.9);
    let pass_max_ns = stats.pass_ns.last().copied().unwrap_or(0);
    // Release the buffers before the next repetition measures its heap.
    stats.schedule_returns = Vec::new();
    stats.pass_ns = Vec::new();
    Run {
        outcome,
        calib_ns,
        wall_ns,
        peak_heap_bytes,
        alloc_bytes,
        decisions: decisions.len() as u64,
        decision_p50_ns: nearest_rank(&decisions, 0.5),
        decision_p90_ns: nearest_rank(&decisions, 0.9),
        decision_max_ns: decisions.last().copied().unwrap_or(0),
        decision_over_budget: decisions
            .iter()
            .filter(|&&d| d > DECISION_BUDGET_NS)
            .count() as u64,
        init_ns,
        drain_ns,
        stats,
        pass_p90_ns,
        pass_max_ns,
        tally,
    }
}

/// Cross-check a traced run's event tally against the wrapper's counts
/// and the reports.
fn reconcile(r: &Run) -> Vec<String> {
    let o = &r.outcome;
    let t = &r.tally;
    let mut errors = Vec::new();
    let mut expect = |what: &str, a: u64, b: u64| {
        if a != b {
            errors.push(format!("reconciliation: {what}: {a} != {b}"));
        }
    };
    expect(
        "SchedSpan events vs decision points",
        t.sched_spans,
        r.decisions,
    );
    expect(
        "SchedSpan events vs schedule() calls",
        t.sched_spans,
        r.stats.pass.calls,
    );
    expect(
        "SchedSpan events vs report decision_points",
        t.sched_spans,
        o.decision_points,
    );
    expect(
        "clone CopyLaunch events vs report clone_copies",
        t.clones_launched,
        o.clone_copies,
    );
    expect(
        "clone CopyLaunch events vs clone assignments",
        t.clones_launched,
        r.stats.clone_assignments,
    );
    expect(
        "TaskLost events vs faults.tasks_requeued",
        t.tasks_lost,
        o.tasks_requeued,
    );
    expect(
        "CopyEvict events vs faults.copies_evicted",
        t.copies_evicted,
        o.copies_evicted,
    );
    errors
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn calib_ms(runs: &[&Run]) -> f64 {
    median_of(runs, |r| r.calib_ns as f64) / 1e6
}

fn median_of<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Run workload `w` on inputs built from `seed` and compute its metrics:
/// the end-to-end set, or with `traced` the per-layer set.
///
/// Repetitions continue while the next one, judged by the mean so far,
/// still ends within `seconds`; there is always at least one.
pub fn bench(w: &Workload, seed: u64, seconds: f64, traced: bool) -> BenchResult {
    let mut errors = Vec::new();

    let (inputs, first_times) = Inputs::build(w, seed);
    let mut setup_times = vec![first_times];
    for _ in 1..SETUP_REPEATS {
        let (again, times) = Inputs::build(w, seed);
        if again != inputs {
            errors.push("set-up: rebuilding from the same seed gave different inputs".to_string());
        }
        setup_times.push(times);
    }
    let input_fingerprint = inputs.fingerprint(seed);

    let mut plain: Vec<Run> = Vec::new();
    let mut traced_runs: Vec<Run> = Vec::new();
    let start = Instant::now();
    loop {
        plain.push(simulate_set(w, &inputs, false));
        if traced {
            traced_runs.push(simulate_set(w, &inputs, true));
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (plain.len() + 1) as f64 / plain.len() as f64 > seconds {
            break;
        }
    }

    let all: Vec<&Run> = plain.iter().chain(&traced_runs).collect();
    let first = &all[0].outcome;
    for r in &all {
        errors.extend(r.outcome.errors.iter().cloned());
        if r.outcome.digests != first.digests {
            errors.push(format!(
                "outcome digest {} differs from the first repetition's {}",
                r.outcome.digest(),
                first.digest()
            ));
        }
    }
    for r in &traced_runs {
        errors.extend(reconcile(r));
    }
    errors.dedup();

    let metrics = if !traced {
        vec![
            m(
                "setup_s",
                median_of(&setup_times, |t| t.total_ns() as f64) / 1e9,
                "s",
            ),
            m("wall_s", median_of(&plain, |r| r.wall_ns as f64) / 1e9, "s"),
            m(
                "decision_p90_ms",
                median_of(&plain, |r| r.decision_p90_ns as f64) / 1e6,
                "ms",
            ),
            m(
                "peak_heap_mb",
                median_of(&plain, |r| r.peak_heap_bytes as f64) / 1e6,
                "MB",
            ),
            m("mean_flowtime_slots", first.mean_flowtime(), "slots"),
            m(
                "usage_norm",
                first.usage / inputs.traces.len().max(1) as f64,
                "norm",
            ),
            m("task_success_frac", first.task_success_frac(), "frac"),
        ]
    } else {
        per_layer(&inputs, &setup_times, &plain, &traced_runs)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not a finite number", m.name));
        }
    }

    BenchResult {
        correct: errors.is_empty(),
        attempted: all.iter().map(|r| r.outcome.jobs).sum(),
        failed: all.iter().map(|r| r.outcome.jobs_failed).sum(),
        metrics,
        digest: first.digest(),
        input_fingerprint,
        errors,
        walls_s: plain.iter().map(|r| r.wall_ns as f64 / 1e9).collect(),
        traced_walls_s: traced_runs.iter().map(|r| r.wall_ns as f64 / 1e9).collect(),
        calib_ms: calib_ms(&all),
    }
}

/// The per-layer metrics of a traced invocation. Timings are medians over
/// repetitions; counts are deterministic and come from the first traced
/// run; decision-point figures come from the untraced runs.
fn per_layer(
    inputs: &Inputs,
    setup: &[setup::SetupTimes],
    plain: &[Run],
    traced: &[Run],
) -> Vec<Metric> {
    let t = &traced[0];
    let st = &t.stats;
    let o = &t.outcome;
    let s = |v: f64| v / 1e9;
    let mb = |v: u64| v as f64 / 1e6;
    let count = |v: u64| v as f64;
    let plain_wall = median_of(plain, |r| r.wall_ns as f64);
    let traced_wall = median_of(traced, |r| r.wall_ns as f64);
    let arrival_busy = median_of(traced, |r| r.stats.arrival.busy_ns as f64);
    vec![
        m(
            "workload.gen_s",
            s(median_of(setup, |x| x.workload_ns as f64)),
            "s",
        ),
        m(
            "cluster.spec_s",
            s(median_of(setup, |x| x.cluster_ns as f64)),
            "s",
        ),
        m(
            "faults.gen_s",
            s(median_of(setup, |x| x.faults_ns as f64)),
            "s",
        ),
        m("faults.crashes", inputs.crashes() as f64, "count"),
        m("arrival.calls", count(st.arrival.calls), "count"),
        m("arrival.busy_s", s(arrival_busy), "s"),
        m(
            "arrival.mean_us",
            arrival_busy / st.arrival.calls.max(1) as f64 / 1e3,
            "us",
        ),
        m("arrival.alloc_mb", mb(st.arrival.alloc_bytes), "MB"),
        m("pass.calls", count(st.pass.calls), "count"),
        m(
            "pass.busy_s",
            s(median_of(traced, |r| r.stats.pass.busy_ns as f64)),
            "s",
        ),
        m(
            "pass.p90_us",
            median_of(traced, |r| r.pass_p90_ns as f64) / 1e3,
            "us",
        ),
        m(
            "pass.max_ms",
            median_of(traced, |r| r.pass_max_ns as f64) / 1e6,
            "ms",
        ),
        m("pass.alloc_mb", mb(st.pass.alloc_bytes), "MB"),
        m("pass.assignments", count(st.assignments), "count"),
        m(
            "pass.clone_assignments",
            count(st.clone_assignments),
            "count",
        ),
        m(
            "pass.prepare_s",
            s(median_of(traced, |r| r.tally.prepare_ns as f64)),
            "s",
        ),
        m(
            "pass.placement_s",
            s(median_of(traced, |r| r.tally.placement_ns as f64)),
            "s",
        ),
        m(
            "pass.useful_clone_frac",
            t.tally.clones_won as f64 / t.tally.clones_launched.max(1) as f64,
            "frac",
        ),
        m(
            "engine.init_s",
            s(median_of(traced, |r| r.init_ns as f64)),
            "s",
        ),
        m(
            "engine.self_s",
            s(median_of(traced, |r| {
                r.wall_ns.saturating_sub(r.stats.callback_ns()) as f64
            })),
            "s",
        ),
        m(
            "engine.drain_s",
            s(median_of(traced, |r| r.drain_ns as f64)),
            "s",
        ),
        m(
            "engine.self_alloc_mb",
            mb(t.alloc_bytes.saturating_sub(st.callback_alloc_bytes())),
            "MB",
        ),
        m(
            "engine.copies_launched",
            count(t.tally.copies_launched),
            "count",
        ),
        m(
            "engine.copies_killed",
            count(t.tally.copies_killed),
            "count",
        ),
        m("fault_hooks.calls", count(st.fault_hooks.calls), "count"),
        m(
            "fault_hooks.busy_s",
            s(median_of(traced, |r| r.stats.fault_hooks.busy_ns as f64)),
            "s",
        ),
        m("faults.copies_evicted", count(o.copies_evicted), "count"),
        m("faults.tasks_saved", count(t.tally.tasks_saved), "count"),
        m("faults.tasks_requeued", count(o.tasks_requeued), "count"),
        m(
            "sim.makespan_slots",
            o.makespan as f64 / inputs.traces.len().max(1) as f64,
            "slots",
        ),
        m("decision.count", count(plain[0].decisions), "count"),
        m(
            "decision.p50_ms",
            median_of(plain, |r| r.decision_p50_ns as f64) / 1e6,
            "ms",
        ),
        m(
            "decision.max_ms",
            median_of(plain, |r| r.decision_max_ns as f64) / 1e6,
            "ms",
        ),
        m(
            "decision.over_budget",
            median_of(plain, |r| r.decision_over_budget as f64),
            "count",
        ),
        m("trace.events", count(t.tally.events), "count"),
        m(
            "trace.overhead_frac",
            traced_wall / plain_wall - 1.0,
            "frac",
        ),
        m(
            "host.calib_ms",
            calib_ms(&plain.iter().chain(traced).collect::<Vec<_>>()),
            "ms",
        ),
    ]
}
