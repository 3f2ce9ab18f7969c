//! Hierarchical free-capacity index over per-server [`Resources`].
//!
//! The engine keeps one [`CapacityIndex`] incrementally up to date across
//! launch/retire/fault events — there is **no per-decision-point
//! re-snapshot** of the cluster. The index is a flat (SoA) iterative
//! segment tree over the per-server free CPU/memory milli-units:
//!
//! * leaves `[size, size + n)` hold each server's free resources
//!   (`size = n.next_power_of_two()`, padding leaves are zero);
//! * internal node `j` holds the **component-wise max** of its children
//!   `2j` and `2j + 1`;
//! * a running total of free CPU/memory is maintained alongside the tree,
//!   so the engine's utilization probe is O(1) instead of O(servers).
//!
//! Because [`Resources`] is integer milli-units, every incremental update
//! is exact: the running total and every tree node are byte-identical to
//! what a full re-summation / rebuild would produce (debug builds assert
//! this; see `fold_total_free`).
//!
//! Schedulers query the index through a [`CapacityOverlay`], obtained from
//! [`CapacityIndex::begin_batch`]. The overlay layers *tentative* batch
//! commitments over the base values using epoch-stamped cells: starting a
//! new batch is O(1) (bump the epoch — stale stamps from earlier batches
//! are simply ignored), and a commit rewrites only the touched leaf plus
//! the ancestors whose max actually changes (early-exit climb). The base
//! tree is never mutated by schedulers, so [`crate::view::ClusterView`]
//! reads — which always go to the base — keep the exact snapshot
//! semantics the engine has always exposed.
//!
//! ## Query semantics (identical to a linear scan)
//!
//! * [`CapacityOverlay::first_fit`] /
//!   [`CapacityOverlay::next_fit_at_or_after`] descend leftmost-first,
//!   pruning subtrees whose component-wise max cannot hold the demand.
//!   A node max is an *upper bound* (it mixes dimensions from different
//!   servers), so a passing subtree may still contain no fitting leaf —
//!   the leaf test is exact and the walk continues rightward, which is
//!   precisely the behavior of a left-to-right scan with skips.
//! * [`CapacityOverlay::best_fit`] runs a left-to-right branch-and-bound:
//!   a subtree is pruned only when its score upper bound (the Tetris
//!   alignment score of the node max, which is monotone in each free
//!   dimension and therefore a true f64 upper bound) cannot *strictly*
//!   beat the best score so far. That preserves the legacy
//!   "first server with a strictly greater score wins" tie-break exactly.
//! * [`CapacityOverlay::max_free`] is the tree root; `total_free` is the
//!   running sum. Both equal their linear-fold counterparts exactly.
//!
//! The linear-scan reference these semantics are stated against lives in
//! the root `tests/index_equivalence.rs`: a differential proptest drives
//! this index and a plain `Vec<Resources>` through the same random writes
//! and overlay commits/releases and compares every query after each step.

use crate::spec::{ClusterSpec, ServerId};
use dollymp_core::online::best_fit_score;
use dollymp_core::resources::Resources;
use std::cell::Cell;

/// Segment-tree index of per-server free capacity (see module docs).
///
/// Mutated only by the engine (or whoever owns it) through `&mut self`;
/// schedulers see it behind `&` via [`crate::view::ClusterView`] and
/// stack tentative commitments on a [`CapacityOverlay`].
pub struct CapacityIndex {
    /// Number of real servers (leaves).
    n: usize,
    /// Tree width: `n.next_power_of_two()`; leaves live at `[size, size+n)`.
    size: usize,
    /// Free CPU milli-units, tree layout (`2 * size` slots, slot 0 unused).
    cpu: Vec<u64>,
    /// Free memory milli-units, tree layout.
    mem: Vec<u64>,
    /// Running totals over the leaves (exact — integer milli-units).
    total_cpu: u64,
    total_mem: u64,
    /// Current overlay epoch. Bumped by [`CapacityIndex::begin_batch`];
    /// overlay slots whose stamp differs are transparently ignored.
    epoch: Cell<u64>,
    /// Overlay values (valid only where `ovl_stamp == epoch`).
    ovl_cpu: Vec<Cell<u64>>,
    ovl_mem: Vec<Cell<u64>>,
    ovl_stamp: Vec<Cell<u64>>,
    /// Overlay running totals (valid only when `ovl_total_stamp == epoch`).
    ovl_total: Cell<(u64, u64)>,
    ovl_total_stamp: Cell<u64>,
}

impl CapacityIndex {
    /// Build an index whose per-server free values are `free`.
    pub fn from_free(free: &[Resources]) -> Self {
        let n = free.len();
        let size = n.next_power_of_two().max(1);
        let slots = 2 * size;
        let mut cpu = vec![0u64; slots];
        let mut mem = vec![0u64; slots];
        let mut total_cpu = 0u64;
        let mut total_mem = 0u64;
        for (i, r) in free.iter().enumerate() {
            cpu[size + i] = r.cpu_milli();
            mem[size + i] = r.mem_milli();
            total_cpu += r.cpu_milli();
            total_mem += r.mem_milli();
        }
        for j in (1..size).rev() {
            cpu[j] = cpu[2 * j].max(cpu[2 * j + 1]);
            mem[j] = mem[2 * j].max(mem[2 * j + 1]);
        }
        CapacityIndex {
            n,
            size,
            cpu,
            mem,
            total_cpu,
            total_mem,
            epoch: Cell::new(1),
            ovl_cpu: vec![Cell::new(0); slots],
            ovl_mem: vec![Cell::new(0); slots],
            ovl_stamp: vec![Cell::new(0); slots],
            ovl_total: Cell::new((0, 0)),
            ovl_total_stamp: Cell::new(0),
        }
    }

    /// Build an index with every server fully free (free = capacity).
    pub fn from_capacities(spec: &ClusterSpec) -> Self {
        let free: Vec<Resources> = spec.iter().map(|(_, s)| s.capacity).collect();
        Self::from_free(&free)
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Free resources on one server (base value — no overlay).
    pub fn free(&self, s: ServerId) -> Resources {
        let l = self.size + s.0 as usize;
        Resources::from_milli(self.cpu[l], self.mem[l])
    }

    /// Total free resources across the cluster, maintained incrementally
    /// (exact — equal to [`CapacityIndex::fold_total_free`]).
    pub fn total_free(&self) -> Resources {
        Resources::from_milli(self.total_cpu, self.total_mem)
    }

    /// O(n) re-summation of the leaves. Reference value for the
    /// incremental total; used by tests and debug assertions.
    pub fn fold_total_free(&self) -> Resources {
        let mut c = 0u64;
        let mut m = 0u64;
        for i in 0..self.n {
            c += self.cpu[self.size + i];
            m += self.mem[self.size + i];
        }
        Resources::from_milli(c, m)
    }

    /// Component-wise max of free resources over all servers (tree root).
    pub fn max_free(&self) -> Resources {
        if self.n == 0 {
            return Resources::ZERO;
        }
        Resources::from_milli(self.cpu[1], self.mem[1])
    }

    /// Set one server's free resources to an absolute value (fault events:
    /// crash zeroes it, restore brings capacity back).
    pub fn set_free(&mut self, s: ServerId, r: Resources) {
        self.write_leaf(s.0 as usize, r.cpu_milli(), r.mem_milli());
    }

    /// Return resources to a server (copy retirement).
    ///
    /// # Panics
    /// Debug builds panic on milli-unit overflow (impossible for demands
    /// bounded by server capacity).
    pub fn add_free(&mut self, s: ServerId, r: Resources) {
        let l = self.size + s.0 as usize;
        let c = self.cpu[l] + r.cpu_milli();
        let m = self.mem[l] + r.mem_milli();
        self.write_leaf(s.0 as usize, c, m);
    }

    /// Charge resources on a server (copy launch).
    ///
    /// # Panics
    /// Panics when the server does not hold `r` — the engine validates
    /// assignments before applying them, so this is a logic error.
    pub fn sub_free(&mut self, s: ServerId, r: Resources) {
        let l = self.size + s.0 as usize;
        let c = self.cpu[l]
            .checked_sub(r.cpu_milli())
            .unwrap_or_else(|| panic!("capacity underflow on {s:?} (cpu)"));
        let m = self.mem[l]
            .checked_sub(r.mem_milli())
            .unwrap_or_else(|| panic!("capacity underflow on {s:?} (mem)"));
        self.write_leaf(s.0 as usize, c, m);
    }

    /// Write a leaf and refresh ancestors, stopping as soon as an
    /// ancestor's max is unchanged.
    fn write_leaf(&mut self, i: usize, c: u64, m: u64) {
        let l = self.size + i;
        self.total_cpu = self.total_cpu + c - self.cpu[l];
        self.total_mem = self.total_mem + m - self.mem[l];
        self.cpu[l] = c;
        self.mem[l] = m;
        let mut x = l >> 1;
        while x >= 1 {
            let nc = self.cpu[2 * x].max(self.cpu[2 * x + 1]);
            let nm = self.mem[2 * x].max(self.mem[2 * x + 1]);
            if nc == self.cpu[x] && nm == self.mem[x] {
                break;
            }
            self.cpu[x] = nc;
            self.mem[x] = nm;
            x >>= 1;
        }
    }

    /// Start a scheduling batch: O(1) epoch bump invalidating any previous
    /// overlay, returning a fresh [`CapacityOverlay`] whose effective
    /// values start equal to the base.
    pub fn begin_batch(&self) -> CapacityOverlay<'_> {
        let e = self.epoch.get().wrapping_add(1);
        self.epoch.set(e);
        CapacityOverlay {
            idx: self,
            epoch: e,
        }
    }
}

/// Batch-tentative view over a [`CapacityIndex`]: commits and releases are
/// layered on epoch-stamped cells without touching the base tree, so the
/// engine's snapshot (and [`crate::view::ClusterView`]) are unaffected.
///
/// Only the overlay from the most recent [`CapacityIndex::begin_batch`]
/// call is valid; debug builds assert this on every operation.
pub struct CapacityOverlay<'a> {
    idx: &'a CapacityIndex,
    epoch: u64,
}

impl<'a> CapacityOverlay<'a> {
    #[inline]
    fn check_current(&self) {
        debug_assert_eq!(
            self.epoch,
            self.idx.epoch.get(),
            "stale CapacityOverlay used after a newer begin_batch"
        );
    }

    /// Effective (overlay-or-base) value of tree slot `x`.
    #[inline]
    fn node(&self, x: usize) -> (u64, u64) {
        if self.idx.ovl_stamp[x].get() == self.epoch {
            (self.idx.ovl_cpu[x].get(), self.idx.ovl_mem[x].get())
        } else {
            (self.idx.cpu[x], self.idx.mem[x])
        }
    }

    #[inline]
    fn node_res(&self, x: usize) -> Resources {
        let (c, m) = self.node(x);
        Resources::from_milli(c, m)
    }

    #[inline]
    fn store(&self, x: usize, c: u64, m: u64) {
        self.idx.ovl_cpu[x].set(c);
        self.idx.ovl_mem[x].set(m);
        self.idx.ovl_stamp[x].set(self.epoch);
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.idx.n
    }

    /// True when the cluster has no servers.
    pub fn is_empty(&self) -> bool {
        self.idx.n == 0
    }

    /// Remaining free resources on a server, net of this batch.
    pub fn free(&self, s: ServerId) -> Resources {
        self.check_current();
        self.node_res(self.idx.size + s.0 as usize)
    }

    /// Component-wise max of free resources over all servers, net of this
    /// batch (tree root — O(1)).
    pub fn max_free(&self) -> Resources {
        self.check_current();
        if self.idx.n == 0 {
            return Resources::ZERO;
        }
        self.node_res(1)
    }

    /// Total remaining free resources, net of this batch (running sum —
    /// O(1)).
    pub fn total_free(&self) -> Resources {
        self.check_current();
        if self.idx.ovl_total_stamp.get() == self.epoch {
            let (c, m) = self.idx.ovl_total.get();
            Resources::from_milli(c, m)
        } else {
            self.idx.total_free()
        }
    }

    fn adjust_total(&self, dc: i64, dm: i64) {
        let (c, m) = if self.idx.ovl_total_stamp.get() == self.epoch {
            self.idx.ovl_total.get()
        } else {
            (self.idx.total_cpu, self.idx.total_mem)
        };
        self.idx
            .ovl_total
            .set(((c as i64 + dc) as u64, (m as i64 + dm) as u64));
        self.idx.ovl_total_stamp.set(self.epoch);
    }

    /// Write a leaf into the overlay and refresh ancestors (early-exit).
    fn write_leaf(&self, i: usize, c: u64, m: u64) {
        let l = self.idx.size + i;
        self.store(l, c, m);
        let mut x = l >> 1;
        while x >= 1 {
            let (lc, lm) = self.node(2 * x);
            let (rc, rm) = self.node(2 * x + 1);
            let (nc, nm) = (lc.max(rc), lm.max(rm));
            let cur = self.node(x);
            if cur == (nc, nm) {
                break;
            }
            self.store(x, nc, nm);
            x >>= 1;
        }
    }

    /// Tentatively commit `demand` on `server`. Returns `false` (and
    /// changes nothing) when the demand does not fit.
    pub fn try_commit(&self, server: ServerId, demand: Resources) -> bool {
        self.check_current();
        let l = self.idx.size + server.0 as usize;
        let (c, m) = self.node(l);
        let (dc, dm) = (demand.cpu_milli(), demand.mem_milli());
        if dc > c || dm > m {
            return false;
        }
        self.write_leaf(server.0 as usize, c - dc, m - dm);
        self.adjust_total(-(dc as i64), -(dm as i64));
        true
    }

    /// Commit `demand` on `server`.
    ///
    /// # Panics
    /// Panics if it does not fit — callers must check first.
    pub fn commit(&self, server: ServerId, demand: Resources) {
        assert!(
            self.try_commit(server, demand),
            "CapacityOverlay::commit without a fit check"
        );
    }

    /// Return `amount` of capacity to `server` — the inverse of
    /// [`CapacityOverlay::try_commit`], used when a batch learns of
    /// *growing* capacity mid-build (a crashed server restored by fault
    /// recovery). The effective value may exceed the base capacity; the
    /// index does not clamp.
    pub fn release(&self, server: ServerId, amount: Resources) {
        self.check_current();
        let l = self.idx.size + server.0 as usize;
        let (c, m) = self.node(l);
        let (dc, dm) = (amount.cpu_milli(), amount.mem_milli());
        self.write_leaf(server.0 as usize, c + dc, m + dm);
        self.adjust_total(dc as i64, dm as i64);
    }

    /// O(1) pre-check: if `demand` does not fit the per-dimension max,
    /// it fits no server. (The converse does not hold — the max mixes
    /// dimensions from different servers.)
    pub fn could_fit(&self, demand: Resources) -> bool {
        demand.fits_in(self.max_free())
    }

    /// Does `demand` fit some server right now?
    pub fn fits_anywhere(&self, demand: Resources) -> bool {
        self.first_fit(demand).is_some()
    }

    /// First server (by id) with room for `demand` — O(log n).
    pub fn first_fit(&self, demand: Resources) -> Option<ServerId> {
        self.next_fit_at_or_after(0, demand)
    }

    /// First server with id ≥ `start` that has room for `demand`.
    ///
    /// Visits exactly the servers a left-to-right scan starting at
    /// `start` would accept, in the same order — the index only skips
    /// whole subtrees that provably contain no fit.
    pub fn next_fit_at_or_after(&self, start: usize, demand: Resources) -> Option<ServerId> {
        self.check_current();
        let n = self.idx.n;
        if start >= n {
            return None;
        }
        let size = self.idx.size;
        let fits = |x: usize| -> bool {
            let (c, m) = self.node(x);
            demand.cpu_milli() <= c && demand.mem_milli() <= m
        };
        let mut x = start + size;
        if fits(x) {
            return Some(ServerId(start as u32));
        }
        loop {
            // Climb while `x` is a right child, then step to the next
            // subtree covering indices strictly right of the current one.
            while x & 1 == 1 {
                x >>= 1;
                if x <= 1 {
                    return None;
                }
            }
            x += 1;
            if !fits(x) {
                continue;
            }
            // Descend into the leftmost child that fits. A node max can be
            // a false positive (it mixes dimensions from different
            // subtrees), so when neither child fits we abandon this
            // subtree and resume the rightward walk from it.
            let mut dead_end = false;
            while x < size {
                if fits(2 * x) {
                    x *= 2;
                } else if fits(2 * x + 1) {
                    x = 2 * x + 1;
                } else {
                    dead_end = true;
                    break;
                }
            }
            if dead_end {
                continue;
            }
            let idx = x - size;
            // Padding leaves are zero, and a left-first descent prefers
            // any real (left-of-padding) leaf that also fits, so this
            // only triggers defensively.
            if idx < n {
                return Some(ServerId(idx as u32));
            }
        }
    }

    /// Server maximizing the Tetris alignment score `demand · free` among
    /// those with room; ties broken by lowest id (first strictly-greater
    /// score wins, exactly like the legacy linear scan).
    pub fn best_fit(&self, demand: Resources) -> Option<ServerId> {
        self.check_current();
        if self.idx.n == 0 {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        self.best_fit_rec(1, demand, &mut best);
        best.map(|(_, i)| ServerId(i as u32))
    }

    fn best_fit_rec(&self, x: usize, demand: Resources, best: &mut Option<(f64, usize)>) {
        let m = self.node_res(x);
        if !demand.fits_in(m) {
            return;
        }
        // `demand · node_max` upper-bounds every leaf score below `x`
        // (f64 multiply and add are monotone), so prune unless the bound
        // can strictly beat the incumbent. At a leaf the bound is the
        // leaf's own score, so reaching the leaf test means it wins.
        let score = best_fit_score(demand, m);
        if best.is_some_and(|(b, _)| score <= b) {
            return;
        }
        if x >= self.idx.size {
            let i = x - self.idx.size;
            if i < self.idx.n {
                *best = Some((score, i));
            }
            return;
        }
        self.best_fit_rec(2 * x, demand, best);
        self.best_fit_rec(2 * x + 1, demand, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_layers_without_touching_base() {
        let free = vec![
            Resources::new(4.0, 4.0),
            Resources::new(1.0, 1.0),
            Resources::new(8.0, 8.0),
        ];
        let idx = CapacityIndex::from_free(&free);
        let ovl = idx.begin_batch();
        assert!(ovl.try_commit(ServerId(2), Resources::new(8.0, 8.0)));
        assert_eq!(ovl.free(ServerId(2)), Resources::ZERO);
        assert_eq!(ovl.max_free(), Resources::new(4.0, 4.0));
        assert_eq!(ovl.total_free(), Resources::new(5.0, 5.0));
        // Base untouched.
        assert_eq!(idx.free(ServerId(2)), Resources::new(8.0, 8.0));
        assert_eq!(idx.max_free(), Resources::new(8.0, 8.0));
        assert_eq!(idx.total_free(), Resources::new(13.0, 13.0));
        // A failed commit changes nothing.
        assert!(!ovl.try_commit(ServerId(1), Resources::new(2.0, 2.0)));
        assert_eq!(ovl.free(ServerId(1)), Resources::new(1.0, 1.0));
        // Release can exceed base capacity (the index does not clamp).
        ovl.release(ServerId(1), Resources::new(9.0, 0.0));
        assert_eq!(ovl.free(ServerId(1)), Resources::new(10.0, 1.0));
        assert_eq!(ovl.max_free(), Resources::new(10.0, 4.0));
        // A new batch starts clean in O(1), regardless of prior overlays.
        let ovl2 = idx.begin_batch();
        assert_eq!(ovl2.free(ServerId(2)), Resources::new(8.0, 8.0));
        assert_eq!(ovl2.total_free(), Resources::new(13.0, 13.0));
    }

    #[test]
    fn zero_demand_finds_the_first_server_not_a_padding_leaf() {
        // n = 3 pads the tree to 4 leaves with zeros; a zero demand fits
        // the padding, so the descent must still land on a real server.
        let free = vec![Resources::ZERO, Resources::ZERO, Resources::ZERO];
        let idx = CapacityIndex::from_free(&free);
        let ovl = idx.begin_batch();
        assert_eq!(ovl.first_fit(Resources::ZERO), Some(ServerId(0)));
        assert_eq!(
            ovl.next_fit_at_or_after(2, Resources::ZERO),
            Some(ServerId(2))
        );
        assert_eq!(ovl.next_fit_at_or_after(3, Resources::ZERO), None);
        assert_eq!(ovl.best_fit(Resources::ZERO), Some(ServerId(0)));
        assert_eq!(ovl.first_fit(Resources::new(0.001, 0.0)), None);
    }
}
