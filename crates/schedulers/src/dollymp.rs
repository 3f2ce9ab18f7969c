//! The DollyMP scheduler — Algorithm 2 of the paper.
//!
//! On every job arrival, the priorities of *all* unfinished jobs are
//! recomputed by the transient Algorithm 1 over their remaining volumes
//! and critical paths (Eq. 16/17); between arrivals the order is frozen
//! (§5: "the scheduling order of all jobs in the cluster won't be updated
//! until the next job arrival").
//!
//! At each decision point the scheduler then:
//!
//! 1. **Primary pass** — per server, repeatedly pick the highest-priority
//!    level that has a fitting ready task and, within the level, the task
//!    with the best Tetris alignment (`R·c` inner product, Algorithm 2
//!    step 12);
//! 2. **Clone passes** — with the leftover resources, walk tasks of jobs
//!    in the same priority order and give each *running* task of a
//!    clone-eligible (small, §4.1-gated) job up to
//!    `max_copies − 1` extra copies; the pass is repeated twice, mirroring
//!    Algorithm 2's "Repeat Step 9 twice".

use crate::common::ReadyTask;
use dollymp_cluster::prelude::*;
use dollymp_core::hash::FxHashMap;
use dollymp_core::job::{JobId, PhaseId, TaskId, TaskRef};
use dollymp_core::online::{best_fit_score, ClonePolicy, PriorityTable};
use dollymp_core::resources::Resources;
use dollymp_core::transient::{transient_schedule, SummaryCache, SummaryInput, TransientConfig};

/// A cloning candidate: a task of a §4.1-eligible job, with its demand
/// and *effective* copy count (view-side live copies plus the primary
/// placed for it earlier in this batch, if any) cached so the per-pass
/// budget filter needs no map lookups at all.
#[derive(Debug, Clone, Copy)]
struct CloneCandidate {
    task: TaskRef,
    demand: Resources,
    effective_copies: u32,
}

/// Placeholder for arena `resize` calls; always overwritten before read.
const EMPTY_READY: ReadyTask = ReadyTask {
    task: TaskRef {
        job: JobId(0),
        phase: PhaseId(0),
        task: TaskId(0),
    },
    demand: Resources::ZERO,
};

/// One (job, distinct-demand) bucket of ready tasks: `len` tasks stored
/// contiguously in the scratch task arena from `start`, consumed LIFO
/// (mirroring the historical `Vec::pop`).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    demand: Resources,
    start: u32,
    len: u32,
}

/// A FIFO of placement requests sharing one demand vector; entries live
/// in a scratch entry arena at `[head, end)` and are consumed by
/// advancing `head`.
#[derive(Debug, Clone, Copy)]
struct DemandQueue {
    demand: Resources,
    head: u32,
    end: u32,
}

/// Iterates the servers of one placement walk: either a caller-supplied
/// explicit order (every listed server is visited), or the identity
/// order driven by the capacity index, whose `next_fit_at_or_after`
/// skips servers that cannot even hold `min_demand` in O(log n) per hop.
/// The two modes visit exactly the same fitting servers in the same
/// order, since a server without room for the smallest demand can never
/// receive a placement.
enum ServerWalk<'o> {
    Identity { cursor: usize },
    Custom { order: &'o [ServerId], next: usize },
}

impl<'o> ServerWalk<'o> {
    fn new(order: Option<&'o [ServerId]>) -> Self {
        match order {
            None => ServerWalk::Identity { cursor: 0 },
            Some(order) => ServerWalk::Custom { order, next: 0 },
        }
    }

    fn next(&mut self, free: &CapacityOverlay<'_>, min_demand: Resources) -> Option<ServerId> {
        match self {
            ServerWalk::Identity { cursor } => {
                let sv = free.next_fit_at_or_after(*cursor, min_demand)?;
                *cursor = sv.0 as usize + 1;
                Some(sv)
            }
            ServerWalk::Custom { order, next } => {
                let sv = *order.get(*next)?;
                *next += 1;
                Some(sv)
            }
        }
    }
}

/// Reusable buffers for one decision point. Everything here is cleared
/// and refilled each pass, so at steady state a full Algorithm 2 pass
/// performs no heap allocation beyond the returned batch itself.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Sort scratch for `PriorityTable::grouped_into`.
    tagged: Vec<(u32, JobId)>,
    /// Per priority level: `(start, end)` range into `members`.
    levels: Vec<(u32, u32)>,
    /// Flattened members of all levels, in ascending (level, id) order.
    members: Vec<JobId>,
    /// Ready-task arena, contiguous per bucket.
    tasks: Vec<ReadyTask>,
    /// One entry per (job, distinct-demand), contiguous per job.
    buckets: Vec<Bucket>,
    /// Bucket range of each job with ready tasks.
    job_buckets: FxHashMap<JobId, (u32, u32)>,
    /// Demand queues of all levels, contiguous per level.
    queues: Vec<DemandQueue>,
    /// Per priority level: `(start, end)` range into `queues`.
    level_queues: Vec<(u32, u32)>,
    /// Per priority level: ready tasks not yet placed (drives the
    /// skip-empty-prefix cursor of the placement loop).
    level_remaining: Vec<u32>,
    /// Entry arena for `queues`: `(group position, bucket index)`.
    entries: Vec<(u32, u32)>,
    /// Remaining volume per job (Eq. 16), aligned with ascending-id view
    /// order, for the §4.1 gate.
    vols: Vec<f64>,
    /// Candidate arena in ascending-id view order; reshuffled into
    /// priority order via `cand_ranges`.
    cand_arena: Vec<CloneCandidate>,
    /// Per gated-in job: `(start, end)` range into `cand_arena`.
    cand_ranges: FxHashMap<JobId, (u32, u32)>,
    /// Per job: `(fill, start)` range of its newly placed primaries in
    /// `placed_arena` (`[start, fill)` once scattered).
    placed_ranges: FxHashMap<JobId, (u32, u32)>,
    /// Primaries of this batch, grouped contiguously per job.
    placed_arena: Vec<TaskRef>,
    /// Clone candidates of this decision point, in priority order.
    candidates: Vec<CloneCandidate>,
    /// `cloned[i]`: candidate `i` received a clone in this batch.
    cloned: Vec<bool>,
    /// Demand queues of the current clone pass.
    clone_queues: Vec<DemandQueue>,
    /// Entry arena for `clone_queues`: candidate indices.
    clone_entries: Vec<u32>,
}

/// The DollyMP scheduler (Algorithm 2). `DollyMP::with_clones(r)` builds
/// the paper's DollyMP^r variants.
#[derive(Debug, Clone)]
pub struct DollyMP {
    /// Algorithm 1 configuration (σ-weight `w = 1.5` by default).
    pub transient: TransientConfig,
    /// Cloning budget and §4.1 small-job gate.
    pub clone_policy: ClonePolicy,
    table: PriorityTable,
    /// Eq. 16/17 job summaries memoized across arrivals (jobs whose
    /// remaining work is unchanged are not re-summarized).
    cache: SummaryCache,
    /// Reusable per-decision-point buffers (see [`Scratch`]).
    scratch: Scratch,
    /// Prepare/placement stage timing of the most recent pass, surfaced
    /// via [`Scheduler::pass_span`] for the flight recorder.
    last_span: PassSpan,
}

impl DollyMP {
    /// DollyMP with the paper's defaults (two clones, `δ = 0.3`,
    /// `w = 1.5`) — the DollyMP² configuration.
    pub fn new() -> Self {
        DollyMP::with_clones(2)
    }

    /// DollyMP^r: at most `clones` extra copies per task.
    pub fn with_clones(clones: u32) -> Self {
        let clone_policy = if clones == 0 {
            ClonePolicy::disabled()
        } else {
            ClonePolicy::with_clones(clones)
        };
        DollyMP {
            transient: TransientConfig {
                max_copies: clones + 1,
                ..TransientConfig::default()
            },
            clone_policy,
            table: PriorityTable::default(),
            cache: SummaryCache::new(),
            scratch: Scratch::default(),
            last_span: PassSpan::default(),
        }
    }

    /// Override the §4.1 small-job gate `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.clone_policy.delta = delta;
        self
    }

    /// Override the σ-weight of effective processing times.
    pub fn with_sigma_weight(mut self, w: f64) -> Self {
        self.transient.sigma_weight = w;
        self
    }

    fn refresh_priorities(&mut self, view: &ClusterView<'_>) {
        let inputs: Vec<SummaryInput<'_>> = view
            .jobs()
            .map(|j| SummaryInput {
                spec: j.spec(),
                remaining_tasks: j.remaining_tasks(),
                finished_phases: j.finished_phases(),
            })
            .collect();
        let summaries = self
            .cache
            .summarize(&inputs, view.totals(), self.transient.sigma_weight);
        let out = transient_schedule(&summaries, &self.transient);
        self.table = PriorityTable::from_output(&summaries, &out);
    }

    /// The primary placement pass (Algorithm 2 steps 6–15).
    ///
    /// Tasks of one phase are statistically identical, so candidates are
    /// *bucketed* by (job, demand): the per-server best-fit argmax scans
    /// one entry per distinct demand instead of one per task, which is
    /// what keeps a full pass over 30 000 servers within the paper's
    /// §6.3.3 overhead budget. All intermediate structures are flattened
    /// arenas living in [`Scratch`] (tasks, buckets, per-level demand
    /// queues), so the pass allocates nothing at steady state:
    ///
    /// * a bucket is a contiguous `[start, start+len)` slice of the task
    ///   arena, consumed LIFO like the historical per-bucket `Vec::pop`;
    /// * a level's demand queues collapse its buckets by distinct demand
    ///   — buckets sharing a demand have the same Tetris score against
    ///   any server, and the scan's strict `score > best` keeps the first
    ///   seen, so the argmax only needs the frontmost alive bucket per
    ///   demand, with exact-score ties across demands breaking toward the
    ///   smaller group position (first-seen-wins, verbatim);
    /// * fully drained levels are skipped by a monotone cursor — a level
    ///   with no tasks left can never match again.
    ///
    /// When `order` is `None` (the identity walk of plain `schedule`),
    /// the next server is found with the capacity index's
    /// `next_fit_at_or_after`, which hops over non-fitting servers in
    /// O(log n) instead of probing each id.
    fn place_primaries(
        &self,
        view: &ClusterView<'_>,
        order: Option<&[ServerId]>,
        free: &CapacityOverlay<'_>,
        s: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) {
        s.tasks.clear();
        s.buckets.clear();
        s.job_buckets.clear();
        let mut ready_count: usize = 0;
        let mut min_demand: Option<Resources> = None;
        for j in view.jobs() {
            let bstart = s.buckets.len();
            // Pass 1: one bucket per distinct demand, counting tasks.
            for task in j.iter_ready() {
                let demand = j.spec().phase(task.phase).demand;
                min_demand = Some(match min_demand {
                    Some(m) => m.min(demand),
                    None => demand,
                });
                match s.buckets[bstart..].iter_mut().find(|b| b.demand == demand) {
                    Some(b) => b.len += 1,
                    None => s.buckets.push(Bucket {
                        demand,
                        start: 0,
                        len: 1,
                    }),
                }
            }
            if s.buckets.len() == bstart {
                continue;
            }
            let mut cursor = s.tasks.len() as u32;
            for b in &mut s.buckets[bstart..] {
                b.start = cursor;
                cursor += b.len;
                ready_count += b.len as usize;
                b.len = 0;
            }
            s.tasks.resize(cursor as usize, EMPTY_READY);
            // Pass 2: scatter tasks into their bucket slices in ready
            // order (so LIFO consumption matches the historical pops).
            for task in j.iter_ready() {
                let demand = j.spec().phase(task.phase).demand;
                let b = s.buckets[bstart..]
                    .iter_mut()
                    .find(|b| b.demand == demand)
                    .expect("bucket created in pass 1");
                s.tasks[(b.start + b.len) as usize] = ReadyTask { task, demand };
                b.len += 1;
            }
            s.job_buckets
                .insert(j.id(), (bstart as u32, s.buckets.len() as u32));
        }
        if ready_count == 0 {
            return;
        }
        let min_demand = min_demand.expect("ready_count > 0");
        if !free.could_fit(min_demand) {
            // Nothing fits anywhere in the cluster — skip the server walk.
            return;
        }

        // Per-level demand queues, two-pass into flat arenas.
        s.queues.clear();
        s.level_queues.clear();
        s.level_remaining.clear();
        s.entries.clear();
        for &(mstart, mend) in &s.levels {
            let qstart = s.queues.len();
            let estart = s.entries.len() as u32;
            let mut level_tasks = 0u32;
            for &jid in &s.members[mstart as usize..mend as usize] {
                let Some(&(lo, hi)) = s.job_buckets.get(&jid) else {
                    continue;
                };
                for bidx in lo..hi {
                    let b = s.buckets[bidx as usize];
                    level_tasks += b.len;
                    match s.queues[qstart..].iter_mut().find(|q| q.demand == b.demand) {
                        Some(q) => q.end += 1,
                        None => s.queues.push(DemandQueue {
                            demand: b.demand,
                            head: 0,
                            end: 1,
                        }),
                    }
                }
            }
            let mut cursor = estart;
            for q in &mut s.queues[qstart..] {
                let count = q.end;
                q.head = cursor;
                q.end = cursor;
                cursor += count;
            }
            s.entries.resize(cursor as usize, (0, 0));
            let mut pos = 0u32;
            for &jid in &s.members[mstart as usize..mend as usize] {
                let Some(&(lo, hi)) = s.job_buckets.get(&jid) else {
                    continue;
                };
                for bidx in lo..hi {
                    let demand = s.buckets[bidx as usize].demand;
                    let q = s.queues[qstart..]
                        .iter_mut()
                        .find(|q| q.demand == demand)
                        .expect("queue created in the counting pass");
                    s.entries[q.end as usize] = (pos, bidx);
                    q.end += 1;
                    pos += 1;
                }
            }
            s.level_queues.push((qstart as u32, s.queues.len() as u32));
            s.level_remaining.push(level_tasks);
        }

        out.reserve(ready_count);
        let nlevels = s.level_queues.len();
        let mut first_active = 0usize;
        let mut walk = ServerWalk::new(order);
        while let Some(server) = walk.next(free, min_demand) {
            // The index is only queried again when moving to the next
            // server, so the server's placements accumulate locally and
            // commit to the tree once, on leaving it.
            let mut avail = free.free(server);
            let mut used = Resources::ZERO;
            'server: loop {
                // Component-wise lower bound: if even the smallest demand
                // cannot fit, nothing can — leave this server instantly.
                if !min_demand.fits_in(avail) {
                    break;
                }
                while first_active < nlevels && s.level_remaining[first_active] == 0 {
                    first_active += 1;
                }
                // Highest-priority level with a fitting task; within the
                // level, the best-aligned demand queue (step 12).
                for li in first_active..nlevels {
                    if s.level_remaining[li] == 0 {
                        continue;
                    }
                    let (qs, qe) = s.level_queues[li];
                    let mut best: Option<(f64, u32, u32)> = None;
                    for qi in qs..qe {
                        let q = s.queues[qi as usize];
                        if q.head == q.end || !q.demand.fits_in(avail) {
                            continue;
                        }
                        let (pos, _) = s.entries[q.head as usize];
                        let score = best_fit_score(q.demand, avail);
                        let better = match best {
                            None => true,
                            Some((b, bpos, _)) => score > b || (score == b && pos < bpos),
                        };
                        if better {
                            best = Some((score, pos, qi));
                        }
                    }
                    if let Some((_, _, qi)) = best {
                        let head = s.queues[qi as usize].head;
                        let (_, bidx) = s.entries[head as usize];
                        let b = &mut s.buckets[bidx as usize];
                        b.len -= 1;
                        let rt = s.tasks[(b.start + b.len) as usize];
                        if b.len == 0 {
                            s.queues[qi as usize].head += 1;
                        }
                        avail -= rt.demand; // fits_in checked above
                        used += rt.demand;
                        out.push(Assignment {
                            task: rt.task,
                            server,
                            kind: CopyKind::Primary,
                        });
                        s.level_remaining[li] -= 1;
                        ready_count -= 1;
                        if ready_count == 0 {
                            free.commit(server, used);
                            return;
                        }
                        continue 'server;
                    }
                }
                break;
            }
            if used != Resources::ZERO {
                free.commit(server, used);
            }
        }
    }

    /// Clone candidates for this decision point, in priority order
    /// (Algorithm 2 step 16's input set).
    ///
    /// Candidates are the tasks already running in the view *plus* the
    /// primaries placed earlier in this very batch (`newly_placed`) — the
    /// paper clones small jobs "when they are scheduled" (Fig. 2), not one
    /// decision point later. The §4.1 gate, remaining volumes, and the
    /// candidate walk depend only on the immutable view and the primary
    /// batch, so this is computed **once** per decision point and shared
    /// by both clone passes; the per-pass copy-budget filters are applied
    /// at queue-build time inside [`Self::place_clones`].
    fn clone_candidates(&self, view: &ClusterView<'_>, batch: &[Assignment], s: &mut Scratch) {
        s.candidates.clear();
        s.cloned.clear();
        if self.clone_policy.max_copies <= 1 {
            return;
        }
        // Group this batch's primaries by job via a counting scatter into
        // a reused arena (each job's tasks stay in batch order). Entry
        // layout: `(fill, start)` — the count lands in `fill` first, then
        // the prefix pass turns it into a cursor starting at `start`, so
        // `[start, fill)` is the final range.
        s.placed_ranges.clear();
        s.placed_arena.clear();
        for a in batch {
            s.placed_ranges.entry(a.task.job).or_insert((0, 0)).0 += 1;
        }
        let mut cursor = 0u32;
        for range in s.placed_ranges.values_mut() {
            let count = range.0;
            *range = (cursor, cursor);
            cursor += count;
        }
        s.placed_arena.resize(cursor as usize, EMPTY_READY.task);
        for a in batch {
            let range = s
                .placed_ranges
                .get_mut(&a.task.job)
                .expect("counted in the first pass");
            s.placed_arena[range.0 as usize] = a.task;
            range.0 += 1;
        }
        let w = self.transient.sigma_weight;
        // Remaining volumes, computed once (the §4.1 gate needs every
        // job's volume against the sum of the others'; recomputing per
        // candidate would make this pass quadratic). The total is summed
        // in ascending-JobId view order so it cannot depend on any map's
        // iteration order.
        let totals = view.totals();
        s.vols.clear();
        let mut total_volume = 0.0f64;
        for j in view.jobs() {
            let v = j.remaining_volume(totals, w);
            total_volume += v;
            s.vols.push(v);
        }
        // Single pass over the view (no per-member job lookups): gate
        // each job and emit its candidates into an id-ordered arena;
        // the arena is then reshuffled into priority order below.
        s.cand_arena.clear();
        s.cand_ranges.clear();
        for (j, &mine) in view.jobs().zip(s.vols.iter()) {
            // §4.1 small-job gate.
            let others = (total_volume - mine).max(0.0);
            if !self.clone_policy.small_job_gate(mine, others) {
                continue;
            }
            let start = s.cand_arena.len() as u32;
            for task in j.iter_running() {
                s.cand_arena.push(CloneCandidate {
                    task,
                    demand: j.spec().phase(task.phase).demand,
                    // Copies live in the (immutable) view — cached so
                    // the per-pass budget filter needs no job lookup.
                    effective_copies: j.task(task.phase, task.task).live_copies(),
                });
            }
            if let Some(&(fill, pstart)) = s.placed_ranges.get(&j.id()) {
                for &task in &s.placed_arena[pstart as usize..fill as usize] {
                    debug_assert_eq!(
                        j.task(task.phase, task.task).live_copies(),
                        0,
                        "a task placed as primary this batch was ready, hence copy-free"
                    );
                    s.cand_arena.push(CloneCandidate {
                        task,
                        demand: j.spec().phase(task.phase).demand,
                        // A primary placed this very batch is one copy the
                        // view cannot see yet.
                        effective_copies: 1,
                    });
                }
            }
            if s.cand_arena.len() as u32 > start {
                s.cand_ranges
                    .insert(j.id(), (start, s.cand_arena.len() as u32));
            }
        }
        // Reshuffle into priority order (Algorithm 2 step 16 walks jobs
        // in the frozen Algorithm 1 order).
        for &(mstart, mend) in &s.levels {
            for &jid in &s.members[mstart as usize..mend as usize] {
                if let Some(&(start, end)) = s.cand_ranges.get(&jid) {
                    s.candidates
                        .extend_from_slice(&s.cand_arena[start as usize..end as usize]);
                }
            }
        }
        s.cloned.resize(s.candidates.len(), false);
    }

    /// One clone pass over leftover resources (Algorithm 2 step 16).
    ///
    /// `candidates` comes from [`Self::clone_candidates`]; the filters
    /// that change between passes (copy budget, one-new-clone-per-task)
    /// are applied here.
    ///
    /// The priority-ordered request queue is kept as one FIFO per
    /// *distinct demand* over flattened arenas in [`Scratch`]. Free
    /// capacity on a server only shrinks during its scan, so a request
    /// that does not fit when passed over never fits later on that server
    /// — picking the earliest-position request that fits, repeatedly,
    /// places exactly the same set as a sequential walk of the flat
    /// queue, while costing `O(placements × #demands)` instead of
    /// `O(queue length)` per server. Queue entries are candidate indices;
    /// the index is a monotone relabeling of the historical per-pass
    /// position counter, so the earliest-fitting selection is unchanged.
    ///
    /// Returns the number of clones placed (appended to `out`).
    fn place_clones(
        &self,
        order: Option<&[ServerId]>,
        free: &CapacityOverlay<'_>,
        s: &mut Scratch,
        out: &mut Vec<Assignment>,
    ) -> usize {
        s.clone_queues.clear();
        s.clone_entries.clear();
        let mut remaining = 0usize;
        let mut min_demand: Option<Resources> = None;
        // Per-pass filters, two-pass into the flat queue arenas. At most
        // one new clone per task per decision point (`cloned`): the RM
        // grants clone containers round by round ("repeat Step 9" spans
        // allocation rounds, not one batch), so a task's second clone can
        // only arrive at a later decision point.
        let eligible = |s: &Scratch, i: usize, c: &CloneCandidate| {
            !s.cloned[i] && c.effective_copies < self.clone_policy.max_copies
        };
        for (i, c) in s.candidates.iter().enumerate() {
            if !eligible(s, i, c) {
                continue;
            }
            min_demand = Some(match min_demand {
                Some(m) => m.min(c.demand),
                None => c.demand,
            });
            match s.clone_queues.iter_mut().find(|q| q.demand == c.demand) {
                Some(q) => q.end += 1,
                None => s.clone_queues.push(DemandQueue {
                    demand: c.demand,
                    head: 0,
                    end: 1,
                }),
            }
            remaining += 1;
        }
        if remaining == 0 {
            return 0;
        }
        let mut cursor = 0u32;
        for q in &mut s.clone_queues {
            let count = q.end;
            q.head = cursor;
            q.end = cursor;
            cursor += count;
        }
        s.clone_entries.resize(cursor as usize, 0);
        for i in 0..s.candidates.len() {
            let c = s.candidates[i];
            if !eligible(s, i, &c) {
                continue;
            }
            let q = s
                .clone_queues
                .iter_mut()
                .find(|q| q.demand == c.demand)
                .expect("queue created in the counting pass");
            s.clone_entries[q.end as usize] = i as u32;
            q.end += 1;
        }

        // Server-driven placement (the RM hands leftover capacity to
        // clone requests as heartbeats come in): walk servers in order and
        // satisfy the queue in priority order. A global min-demand bound
        // skips exhausted servers (O(1) per probe in an explicit order,
        // O(log n) hops in the index-driven identity walk).
        let min_demand = min_demand.expect("remaining > 0");
        if !free.could_fit(min_demand) {
            // No server in the whole cluster has room for even the
            // smallest request — skip the server walk entirely.
            return 0;
        }
        let placed_before = out.len();
        let mut walk = ServerWalk::new(order);
        while remaining > 0 {
            let Some(server) = walk.next(free, min_demand) else {
                break;
            };
            // As in the primary pass, placements on one server accumulate
            // locally and commit to the index once, on leaving it.
            let mut avail = free.free(server);
            if !min_demand.fits_in(avail) {
                continue;
            }
            let mut used = Resources::ZERO;
            loop {
                // Earliest-position request that fits the current free.
                let mut best: Option<(u32, usize)> = None;
                for (qi, q) in s.clone_queues.iter().enumerate() {
                    if q.head == q.end || !q.demand.fits_in(avail) {
                        continue;
                    }
                    let p = s.clone_entries[q.head as usize];
                    if best.map(|(bp, _)| p < bp).unwrap_or(true) {
                        best = Some((p, qi));
                    }
                }
                let Some((ci, qi)) = best else { break };
                s.clone_queues[qi].head += 1;
                let c = s.candidates[ci as usize];
                avail -= c.demand; // fits_in checked above
                used += c.demand;
                s.cloned[ci as usize] = true;
                out.push(Assignment {
                    task: c.task,
                    server,
                    kind: CopyKind::Clone,
                });
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            if used != Resources::ZERO {
                free.commit(server, used);
            }
        }
        out.len() - placed_before
    }
}

impl Default for DollyMP {
    fn default() -> Self {
        DollyMP::new()
    }
}

impl Scheduler for DollyMP {
    fn name(&self) -> String {
        format!("dollymp{}", self.clone_policy.max_copies - 1)
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, _job: JobId) {
        self.refresh_priorities(view);
    }

    fn on_job_finish(&mut self, job: &dollymp_cluster::state::JobState) {
        self.table.remove(job.id());
        self.cache.remove(job.id());
    }

    fn on_task_lost(&mut self, view: &ClusterView<'_>, _task: TaskRef) {
        // Re-run Algorithm 1 so the frozen order reflects the post-crash
        // state of the cluster (a crash is as much a scheduling shock as
        // an arrival).
        self.refresh_priorities(view);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.schedule_inner(view, None)
    }

    fn pass_span(&self) -> Option<PassSpan> {
        Some(self.last_span)
    }
}

impl DollyMP {
    /// Run one full Algorithm 2 pass visiting servers in the given order
    /// — the hook the `learned` extension uses to prefer fast machines.
    /// `schedule` calls the identity-order equivalent, driven directly by
    /// the capacity index (no materialized server list).
    pub fn schedule_with_server_order(
        &mut self,
        view: &ClusterView<'_>,
        server_order: &[ServerId],
    ) -> Vec<Assignment> {
        self.schedule_inner(view, Some(server_order))
    }

    /// One full Algorithm 2 decision point: primary pass, then up to two
    /// clone passes over the leftovers. `order` is `None` for the
    /// identity server walk.
    fn schedule_inner(
        &mut self,
        view: &ClusterView<'_>,
        order: Option<&[ServerId]>,
    ) -> Vec<Assignment> {
        // The scratch moves out of `self` for the duration of the pass so
        // the `&self` helper methods can borrow it mutably alongside.
        let mut s = std::mem::take(&mut self.scratch);
        let pass_start = std::time::Instant::now();
        self.table.grouped_into(
            view.jobs().map(|j| j.id()),
            &mut s.tagged,
            &mut s.levels,
            &mut s.members,
        );
        let prepare_ns = pass_start.elapsed().as_nanos() as u64;
        let free = view.capacity().begin_batch();
        let mut batch: Vec<Assignment> = Vec::new();
        self.place_primaries(view, order, &free, &mut s, &mut batch);
        // "Repeat Step 9 twice if there are available resources" — but at
        // most one *new* clone per task per decision point (clone
        // containers are granted round by round). The candidate set is
        // invariant across the two passes, so it is collected once.
        self.clone_candidates(view, &batch, &mut s);
        if !s.candidates.is_empty() {
            for _ in 0..2 {
                if self.place_clones(order, &free, &mut s, &mut batch) == 0 {
                    break;
                }
            }
        }
        self.scratch = s;
        self.last_span = PassSpan {
            prepare_ns,
            placement_ns: (pass_start.elapsed().as_nanos() as u64).saturating_sub(prepare_ns),
        };
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_cluster::engine::{simulate, EngineConfig};
    use dollymp_core::job::JobSpec;
    use dollymp_core::resources::Resources;

    fn det_sampler() -> DurationSampler {
        DurationSampler::new(7, StragglerModel::Deterministic)
    }

    #[test]
    fn names_encode_clone_budget() {
        assert_eq!(DollyMP::with_clones(0).name(), "dollymp0");
        assert_eq!(DollyMP::with_clones(1).name(), "dollymp1");
        assert_eq!(DollyMP::new().name(), "dollymp2");
    }

    #[test]
    fn completes_a_simple_workload() {
        let cluster = ClusterSpec::homogeneous(2, 4.0, 8.0);
        let jobs: Vec<JobSpec> = (0..5)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 2.0), 6.0, 2.0))
            .collect();
        let mut s = DollyMP::new();
        let sampler = DurationSampler::new(3, StragglerModel::ParetoFit);
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert_eq!(r.jobs.len(), 5);
        assert!(r.total_flowtime() > 0);
    }

    #[test]
    fn prioritizes_small_jobs_over_large() {
        // One server; a long fat job (id 0) and a short thin job (id 1)
        // arriving together. DollyMP must run the small one first.
        let cluster = ClusterSpec::homogeneous(1, 1.0, 1.0);
        let big = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 50.0, 0.0);
        let small = JobSpec::single_phase(JobId(1), 1, Resources::new(1.0, 1.0), 2.0, 0.0);
        let mut s = DollyMP::with_clones(0);
        let r = simulate(
            &cluster,
            vec![big, small],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let by_id = r.by_id();
        assert_eq!(by_id[&JobId(1)].flowtime, 2, "small job first");
        assert_eq!(by_id[&JobId(0)].flowtime, 52);
    }

    #[test]
    fn clones_when_idle_resources_exist() {
        // Heterogeneous speeds: primary may land on the slow server; the
        // clone pass must exploit the idle fast server.
        let cluster = ClusterSpec::new(vec![
            ServerSpec::new(1.0, 1.0).with_speed(0.25),
            ServerSpec::new(1.0, 1.0).with_speed(1.0),
        ]);
        let job = JobSpec::single_phase(JobId(0), 1, Resources::new(1.0, 1.0), 8.0, 0.0);
        let mut s = DollyMP::new();
        let r = simulate(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
        );
        let m = &r.jobs[0];
        assert_eq!(m.clone_copies, 1, "one clone on the idle server");
        // Primary lands on the fast server (best fit tie → both equal →
        // server order favors 0? free is identical; score ties → first
        // seen wins, i.e. server 0, the slow one at 32 slots; the clone on
        // server 1 takes 8 slots and wins.
        assert_eq!(m.flowtime, 8);
    }

    #[test]
    fn dollymp0_never_clones() {
        let cluster = ClusterSpec::homogeneous(4, 4.0, 4.0);
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec::single_phase(JobId(i), 2, Resources::new(1.0, 1.0), 5.0, 3.0))
            .collect();
        let mut s = DollyMP::with_clones(0);
        let sampler = DurationSampler::new(5, StragglerModel::ParetoFit);
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        assert!(r.jobs.iter().all(|j| j.clone_copies == 0));
    }

    #[test]
    fn clone_budget_respected() {
        // Plenty of idle capacity: DollyMP¹ must cap at 1 clone per task.
        let cluster = ClusterSpec::homogeneous(8, 4.0, 4.0);
        let job = JobSpec::single_phase(JobId(0), 2, Resources::new(1.0, 1.0), 10.0, 5.0);
        let sampler = DurationSampler::new(11, StragglerModel::ParetoFit);
        let mut s1 = DollyMP::with_clones(1);
        let r1 = simulate(
            &cluster,
            vec![job.clone()],
            &sampler,
            &mut s1,
            &EngineConfig::default(),
        );
        assert!(r1.jobs[0].clone_copies <= 2, "≤ 1 clone × 2 tasks");
        assert!(
            r1.jobs[0].clone_copies >= 1,
            "idle cluster → clones expected"
        );
        let mut s2 = DollyMP::new();
        let r2 = simulate(
            &cluster,
            vec![job],
            &sampler,
            &mut s2,
            &EngineConfig::default(),
        );
        assert!(r2.jobs[0].clone_copies <= 4, "≤ 2 clones × 2 tasks");
        assert!(r2.jobs[0].clone_copies >= r1.jobs[0].clone_copies);
    }

    #[test]
    fn large_jobs_are_not_cloned_while_backlog_exists() {
        // Two equal big jobs with idle servers to spare: while BOTH are
        // active, neither passes the δ = 0.3 small-job gate (each equals
        // the other's backlog), so the job finishing first must have zero
        // clones. Once it completes, the survivor runs alone (no backlog)
        // and may legitimately be cloned.
        let cluster = ClusterSpec::homogeneous(4, 1.0, 1.0);
        let jobs: Vec<JobSpec> = (0..2)
            .map(|i| JobSpec::single_phase(JobId(i), 1, Resources::new(1.0, 1.0), 20.0, 8.0))
            .collect();
        let sampler = DurationSampler::new(13, StragglerModel::ParetoFit);
        let mut s = DollyMP::new();
        let r = simulate(&cluster, jobs, &sampler, &mut s, &EngineConfig::default());
        let first_finisher = r
            .jobs
            .iter()
            .min_by_key(|j| (j.finish, j.id))
            .expect("two jobs ran");
        assert_eq!(
            first_finisher.clone_copies, 0,
            "no clones while the equal-size backlog existed"
        );
    }

    #[test]
    fn recovers_requeued_tasks_after_crash() {
        use dollymp_cluster::engine::try_simulate_with_faults;
        use dollymp_cluster::fault::{FaultEvent, FaultTimeline, TimedFault};
        // Single server: every copy dies with it, so each loss is a full
        // re-queue DollyMP must re-place after the restore.
        let cluster = ClusterSpec::homogeneous(1, 4.0, 4.0);
        let job = JobSpec::single_phase(JobId(0), 4, Resources::new(1.0, 1.0), 10.0, 0.0);
        let tl = FaultTimeline::new(vec![
            TimedFault {
                at: 5,
                event: FaultEvent::Crash(ServerId(0)),
            },
            TimedFault {
                at: 9,
                event: FaultEvent::Restore(ServerId(0)),
            },
        ]);
        let mut s = DollyMP::with_clones(0);
        let r = try_simulate_with_faults(
            &cluster,
            vec![job],
            &det_sampler(),
            &mut s,
            &EngineConfig::default(),
            &tl,
        )
        .unwrap();
        assert_eq!(r.jobs.len(), 1, "the job still completes");
        assert_eq!(r.faults.tasks_requeued, 4);
        // 5 slots lost + 4 idle + full 10-slot rerun.
        assert_eq!(r.jobs[0].finish, 19);
    }

    #[test]
    fn beats_fifo_on_mixed_sizes() {
        // The headline behaviour: on a mix of small and large jobs with
        // stragglers, DollyMP² must achieve lower total flowtime than
        // FIFO first-fit.
        let cluster = ClusterSpec::paper_30_node();
        let mut jobs = Vec::new();
        for i in 0..30u64 {
            let (n, theta) = if i % 3 == 0 { (20, 40.0) } else { (4, 8.0) };
            jobs.push(
                JobSpec::builder(JobId(i))
                    .arrival(i * 2)
                    .phase(dollymp_core::job::PhaseSpec::new(
                        n,
                        Resources::new(2.0, 4.0),
                        theta,
                        theta / 2.0,
                    ))
                    .build()
                    .unwrap(),
            );
        }
        let sampler = DurationSampler::new(17, StragglerModel::ParetoFit);
        let mut fifo = FifoFirstFit;
        let r_fifo = simulate(
            &cluster,
            jobs.clone(),
            &sampler,
            &mut fifo,
            &EngineConfig::default(),
        );
        let mut dmp = DollyMP::new();
        let r_dmp = simulate(&cluster, jobs, &sampler, &mut dmp, &EngineConfig::default());
        assert!(
            r_dmp.total_flowtime() < r_fifo.total_flowtime(),
            "DollyMP {} ≥ FIFO {}",
            r_dmp.total_flowtime(),
            r_fifo.total_flowtime()
        );
    }
}
