//! Differential oracle for the hierarchical free-capacity index.
//!
//! `CapacityIndex` and its `CapacityOverlay` promise answers identical to
//! a left-to-right linear scan over the per-server free values (module
//! docs of `dollymp_cluster::capacity`). The reference scan lives here,
//! over a plain `Vec<Resources>`, and never in the production query path:
//! both are driven through the same random base writes
//! (`set/add/sub_free`) and overlay `try_commit/release` calls, and every
//! query is compared after each step. Any divergence is an index bug,
//! never an acceptable approximation.

use dollymp::prelude::*;
use dollymp_core::online::best_fit_score;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cluster sizes: one server, powers of two, and their neighbours (which
/// pad the tree with zero leaves).
const SIZES: [usize; 11] = [1, 2, 3, 5, 7, 8, 9, 16, 31, 33, 100];

/// The linear-scan reference: per-server free resources, in id order.
#[derive(Clone)]
struct Linear(Vec<Resources>);

impl Linear {
    fn max_free(&self) -> Resources {
        self.0.iter().copied().fold(Resources::ZERO, Resources::max)
    }

    fn total_free(&self) -> Resources {
        self.0.iter().copied().sum()
    }

    fn next_fit_at_or_after(&self, start: usize, d: Resources) -> Option<ServerId> {
        (start..self.0.len())
            .find(|&i| d.fits_in(self.0[i]))
            .map(|i| ServerId(i as u32))
    }

    /// Highest alignment score among fitting servers; the first server
    /// with a strictly greater score wins, so ties go to the lowest id.
    fn best_fit(&self, d: Resources) -> Option<ServerId> {
        let mut best: Option<(f64, usize)> = None;
        for (i, &f) in self.0.iter().enumerate() {
            if !d.fits_in(f) {
                continue;
            }
            let score = best_fit_score(d, f);
            if best.map(|(b, _)| score > b).unwrap_or(true) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| ServerId(i as u32))
    }
}

/// A coarse grid (whole cores, half GBs) so that equal free values and
/// equal alignment scores, the tie-break cases, are common.
fn grid(rng: &mut SmallRng, max: u32) -> Resources {
    Resources::new(
        rng.gen_range(0..=max) as f64,
        rng.gen_range(0..=2 * max) as f64 / 2.0,
    )
}

/// A demand: usually random, sometimes zero, sometimes exactly one
/// server's free value (the boundary of `fits_in`).
fn demand(rng: &mut SmallRng, lin: &Linear) -> Resources {
    match rng.gen_range(0..6) {
        0 => Resources::ZERO,
        1 => lin.0[rng.gen_range(0..lin.0.len())],
        _ => grid(rng, 9),
    }
}

fn assert_base_agrees(idx: &CapacityIndex, lin: &Linear) {
    assert_eq!(idx.len(), lin.0.len());
    for (i, &f) in lin.0.iter().enumerate() {
        assert_eq!(idx.free(ServerId(i as u32)), f, "base free of server {i}");
    }
    assert_eq!(idx.max_free(), lin.max_free(), "base max_free");
    assert_eq!(idx.total_free(), lin.total_free(), "base total_free");
    assert_eq!(idx.fold_total_free(), lin.total_free(), "fold_total_free");
}

/// Every overlay query against the reference, at a few demands and starts.
fn assert_overlay_agrees(ovl: &CapacityOverlay<'_>, lin: &Linear, rng: &mut SmallRng) {
    let n = lin.0.len();
    assert_eq!(ovl.len(), n);
    for (i, &f) in lin.0.iter().enumerate() {
        assert_eq!(
            ovl.free(ServerId(i as u32)),
            f,
            "overlay free of server {i}"
        );
    }
    assert_eq!(ovl.max_free(), lin.max_free(), "overlay max_free");
    assert_eq!(ovl.total_free(), lin.total_free(), "overlay total_free");
    for _ in 0..4 {
        let d = demand(rng, lin);
        let start = rng.gen_range(0..=n + 1);
        assert_eq!(
            ovl.next_fit_at_or_after(start, d),
            lin.next_fit_at_or_after(start, d),
            "next_fit_at_or_after({start}, {d:?})"
        );
        assert_eq!(
            ovl.first_fit(d),
            lin.next_fit_at_or_after(0, d),
            "first_fit({d:?})"
        );
        assert_eq!(ovl.best_fit(d), lin.best_fit(d), "best_fit({d:?})");
        let any = lin.next_fit_at_or_after(0, d).is_some();
        assert_eq!(ovl.fits_anywhere(d), any, "fits_anywhere({d:?})");
        assert_eq!(
            ovl.could_fit(d),
            d.fits_in(lin.max_free()),
            "could_fit({d:?})"
        );
        assert!(!any || ovl.could_fit(d), "could_fit must not reject a fit");
    }
}

/// Drive an index built from `free` and the reference through `rounds`
/// rounds. A round is a few base writes, then one batch of overlay
/// commits and releases, then a fresh batch, which must see the base
/// again (earlier overlays are discarded in O(1)).
fn drive(free: Vec<Resources>, seed: u64, rounds: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = free.len();
    let mut idx = CapacityIndex::from_free(&free);
    let mut base = Linear(free);
    assert_base_agrees(&idx, &base);
    for _ in 0..rounds {
        for _ in 0..rng.gen_range(0..=6) {
            let s = rng.gen_range(0..n);
            let sid = ServerId(s as u32);
            let r = grid(&mut rng, 8);
            match rng.gen_range(0..3) {
                0 => {
                    idx.set_free(sid, r);
                    base.0[s] = r;
                }
                1 => {
                    idx.add_free(sid, r);
                    base.0[s] += r;
                }
                _ => {
                    let take = base.0[s].min(r);
                    idx.sub_free(sid, take);
                    base.0[s] -= take;
                }
            }
            assert_base_agrees(&idx, &base);
        }
        let ovl = idx.begin_batch();
        let mut eff = base.clone();
        assert_overlay_agrees(&ovl, &eff, &mut rng);
        for _ in 0..rng.gen_range(0..=16) {
            let d = demand(&mut rng, &eff);
            match rng.gen_range(0..4) {
                // Commit where a placement pass would: first or best fit.
                0 | 1 => {
                    let pick = if rng.gen_bool(0.5) {
                        eff.next_fit_at_or_after(0, d)
                    } else {
                        eff.best_fit(d)
                    };
                    if let Some(s) = pick {
                        assert!(ovl.try_commit(s, d), "commit at a fitting server");
                        eff.0[s.0 as usize] -= d;
                    }
                }
                // Commit at an arbitrary server: refused unless it fits,
                // and a refusal changes nothing.
                2 => {
                    let s = rng.gen_range(0..n);
                    let fits = d.fits_in(eff.0[s]);
                    assert_eq!(ovl.try_commit(ServerId(s as u32), d), fits);
                    if fits {
                        eff.0[s] -= d;
                    }
                }
                _ => {
                    let s = rng.gen_range(0..n);
                    let r = grid(&mut rng, 4);
                    ovl.release(ServerId(s as u32), r);
                    eff.0[s] += r;
                }
            }
            assert_overlay_agrees(&ovl, &eff, &mut rng);
        }
        assert_base_agrees(&idx, &base);
        assert_overlay_agrees(&idx.begin_batch(), &base, &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_and_linear_paths_agree(seed in 0u64..u64::MAX, which in 0usize..SIZES.len()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1DE7);
        let free = (0..SIZES[which]).map(|_| grid(&mut rng, 8)).collect();
        drive(free, seed, 8);
    }
}

/// Delegates to DollyMP² and, at every decision point, checks the
/// engine-maintained index against free capacity recomputed from the job
/// state, then replays the returned batch on a fresh overlay and on the
/// reference, comparing every query after each commit.
struct Audited {
    inner: DollyMP,
    rng: SmallRng,
    commits: usize,
}

impl Scheduler for Audited {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.inner.on_job_arrival(view, job);
    }

    fn on_job_finish(&mut self, job: &JobState) {
        self.inner.on_job_finish(job);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut lin = Linear(view.cluster().iter().map(|(_, s)| s.capacity).collect());
        for job in view.jobs() {
            for t in job.running_tasks() {
                let demand = job.spec().phase(t.phase).demand;
                for c in job
                    .task(t.phase, t.task)
                    .copies
                    .iter()
                    .filter(|c| c.is_live())
                {
                    lin.0[c.server.0 as usize] -= demand;
                }
            }
        }
        assert_base_agrees(view.capacity(), &lin);
        let batch = self.inner.schedule(view);
        let ovl = view.capacity().begin_batch();
        for a in &batch {
            let d = view
                .job(a.task.job)
                .expect("placed job is active")
                .spec()
                .phase(a.task.phase)
                .demand;
            assert!(ovl.try_commit(a.server, d), "DollyMP over-committed");
            lin.0[a.server.0 as usize] -= d;
            self.commits += 1;
            assert_overlay_agrees(&ovl, &lin, &mut self.rng);
        }
        batch
    }
}

/// The paper-shaped heterogeneous cluster under a DollyMP² run: mixed
/// server sizes, and index states produced by real placement passes
/// rather than random writes.
#[test]
fn paper_cluster_dollymp_agrees_on_both_paths() {
    let cluster = ClusterSpec::paper_30_node();
    drive(cluster.iter().map(|(_, s)| s.capacity).collect(), 4242, 40);
    let jobs = dollymp::workload::suite::heavy_wordcount(4242, 25);
    let sampler = DurationSampler::new(4242, StragglerModel::google_traces());
    let mut audited = Audited {
        inner: DollyMP::new(),
        rng: SmallRng::seed_from_u64(4242),
        commits: 0,
    };
    let r = simulate(
        &cluster,
        jobs,
        &sampler,
        &mut audited,
        &EngineConfig::default(),
    );
    assert!(!r.jobs.is_empty());
    assert!(
        audited.commits > 100,
        "only {} commits audited",
        audited.commits
    );
}
