//! The PACO LCS algorithm (Theorem 2): execution phase.
//!
//! [`super::partition::plan_paco_lcs`] assigns every sub-region to a processor
//! and lowers the wavefront ("anti-diagonal by anti-diagonal along a time
//! line", Fig. 3) into the runtime's wave-based
//! [`Plan`] IR.  Execution is entirely generic:
//! one pool barrier per wave, every region computed on its pre-assigned
//! processor.  Because a plan step carries the region *index* (plain data,
//! not a boxed closure), both executors below call their kernel with a
//! concrete type — the same `LeafCall` discipline as `paco-graph`.
//!
//! Entry points:
//!
//! * [`LcsRun`] — the prepared instance (plan + boundary store + inputs) the
//!   service layer's `Session` schedules.  Like the paper's linear-space
//!   CO-LCS, it never holds the table: it stores only the plan's cut rows
//!   and columns, and each step is one [`bp_block`] sweep that reads a
//!   region's halo from them and writes the region's bottom row and right
//!   column back.  The schedule skeleton is workload-independent — it
//!   depends only on `(n, m, p, base)` — so [`LcsRun::from_plan`] binds
//!   fresh inputs to a shared, possibly cached [`PacoLcsPlan`] without
//!   re-partitioning.
//! * [`lcs_paco_traced`] — the identical plan replayed sequentially through
//!   the ideal distributed cache simulator over the full table with the
//!   cache-oblivious kernel, which yields the paper's `Q^Σ_p` / `Q^max_p`
//!   for the Table I experiments.

use std::sync::Arc;

use super::kernel::{bp_block, co_block, LcsAddr, LcsTable};
use super::partition::{plan_paco_lcs, PacoLcsPlan};
use paco_cache_sim::{DistCacheSim, SimTracker, Tracker};
use paco_core::arena::ScratchArena;
use paco_core::machine::CacheParams;
use paco_core::proc_list::ProcId;
use paco_core::shared::SharedSlice;
use paco_runtime::schedule::Plan;

/// A prepared PACO LCS instance: the compiled wave plan plus the shared state
/// (boundary store, inputs) its steps interpret.  This is the unit the
/// service layer's `Session` schedules — alone, in homogeneous batches, or
/// mixed with other workloads.
///
/// The store holds one full table row per cut row of the plan (row-major,
/// `m + 1` cells each) followed by one full table column per cut column
/// (`n + 1` cells each).  A table cell is *in the store* when its row or its
/// column is a cut; every region's bottom row and right column are, and so
/// is every cell a region's halo reads.  Where a cell lies on both a cut
/// row and a cut column, both copies are kept equal.
pub struct LcsRun {
    a: Vec<u32>,
    b: Vec<u32>,
    compiled: Arc<PacoLcsPlan>,
    store: SharedSlice<u32>,
    /// Pool the store returns to at finish (`from_plan_in` runs only).
    arena: Option<Arc<ScratchArena>>,
}

impl LcsRun {
    /// Partition an instance for `p` processors with base-case side `base`.
    pub fn prepare(a: Vec<u32>, b: Vec<u32>, p: usize, base: usize) -> Self {
        let compiled = Arc::new(plan_paco_lcs(a.len(), b.len(), p.max(1), base));
        Self::from_plan(a, b, compiled, base)
    }

    /// Bind inputs to an already-compiled (typically cached) plan.  The plan
    /// must have been produced by [`plan_paco_lcs`] for exactly
    /// `(a.len(), b.len())`.  `base` only shaped the plan's partition; a
    /// step sweeps its whole region at once.
    pub fn from_plan(a: Vec<u32>, b: Vec<u32>, compiled: Arc<PacoLcsPlan>, _base: usize) -> Self {
        let len = Self::store_len(&compiled, a.len(), b.len());
        Self::bind(a, b, compiled, vec![0; len], None)
    }

    /// As [`LcsRun::from_plan`], but checking the boundary store out of
    /// `arena`; it returns to the pool at [`LcsRun::finish`] (the output is
    /// just the LCS length).
    pub fn from_plan_in(
        a: Vec<u32>,
        b: Vec<u32>,
        compiled: Arc<PacoLcsPlan>,
        _base: usize,
        arena: Arc<ScratchArena>,
    ) -> Self {
        let storage = arena.take_vec(Self::store_len(&compiled, a.len(), b.len()), 0u32);
        Self::bind(a, b, compiled, storage, Some(arena))
    }

    fn store_len(compiled: &PacoLcsPlan, n: usize, m: usize) -> usize {
        compiled.cut_rows.len() * (m + 1) + compiled.cut_cols.len() * (n + 1)
    }

    fn bind(
        a: Vec<u32>,
        b: Vec<u32>,
        compiled: Arc<PacoLcsPlan>,
        storage: Vec<u32>,
        arena: Option<Arc<ScratchArena>>,
    ) -> Self {
        debug_assert!(storage.iter().all(|&x| x == 0), "store must start zeroed");
        Self {
            a,
            b,
            compiled,
            store: SharedSlice::from_vec(storage),
            arena,
        }
    }

    /// The compiled wave schedule (jobs are region indices).
    pub fn plan(&self) -> &Plan<usize> {
        &self.compiled.plan
    }

    /// Bytes of the boundary store (the run's only per-request table
    /// memory).
    pub fn store_bytes(&self) -> usize {
        self.store.len() * std::mem::size_of::<u32>()
    }

    /// Store offset of table row `i`'s first cell, if `i` is a cut row.
    fn row_at(&self, i: usize) -> Option<usize> {
        Some(self.compiled.row_slot(i)? * (self.b.len() + 1))
    }

    /// Store offset of table column `j`'s first cell, if `j` is a cut
    /// column.
    fn col_at(&self, j: usize) -> Option<usize> {
        let slot = self.compiled.col_slot(j)?;
        Some(self.compiled.cut_rows.len() * (self.b.len() + 1) + slot * (self.a.len() + 1))
    }

    /// Table cell `(i, j)` as held by the store.
    ///
    /// # Panics
    ///
    /// If neither row `i` nor column `j` is a cut of the plan.
    pub fn boundary_cell(&self, i: usize, j: usize) -> u32 {
        match (self.row_at(i), self.col_at(j)) {
            (Some(row), _) => self.store.get(row + j),
            (None, Some(col)) => self.store.get(col + i),
            (None, None) => panic!("LCS cell ({i}, {j}) is on no cut row or column"),
        }
    }

    /// Install `value` as table cell `(i, j)`, in every store copy of it.
    ///
    /// # Panics
    ///
    /// If neither row `i` nor column `j` is a cut of the plan.
    pub fn set_boundary_cell(&mut self, i: usize, j: usize, value: u32) {
        let (row, col) = (self.row_at(i), self.col_at(j));
        assert!(
            row.is_some() || col.is_some(),
            "LCS cell ({i}, {j}) is on no cut row or column"
        );
        if let Some(row) = row {
            self.store.set(row + j, value);
        }
        if let Some(col) = col {
            self.store.set(col + i, value);
        }
    }

    /// Compute region `idx` with one [`bp_block`] sweep: read its halo out
    /// of the store, write its bottom row and right column back.
    pub fn step(&self, _proc: ProcId, idx: &usize) {
        let region = &self.compiled.regions[*idx];
        let (rows, cols) = (region.rows.clone(), region.cols.clone());
        let cut = "a region's halo and boundary lie on cuts";
        let top = self.row_at(rows.start - 1).expect(cut);
        let left = self.col_at(cols.start - 1).expect(cut);
        let bottom = self.row_at(rows.end - 1).expect(cut);
        let right = self.col_at(cols.end - 1).expect(cut);
        // SAFETY: the wavefront discipline of `paco_core::shared`.  The
        // halo (`top`, `left`) was written by regions of earlier waves and
        // nothing writes it during this wave.  `bottom` and `right` are
        // cells of this region alone — distinct store rows/columns from the
        // halo, since `rows.end - 1 >= rows.start` and likewise for columns
        // — and no other region reads them before a later wave.
        let (top, left, bottom, right) = unsafe {
            (
                self.store.slice(top + cols.start - 1..top + cols.end),
                self.store.slice(left + rows.start..left + rows.end),
                self.store.slice_mut(bottom + cols.start..bottom + cols.end),
                self.store.slice_mut(right + rows.start..right + rows.end),
            )
        };
        bp_block(
            &self.a[rows.start - 1..rows.end - 1],
            &self.b[cols.start - 1..cols.end - 1],
            top,
            left,
            bottom,
            right,
        );
        // Mirror this region's boundary cells that also lie on a cut of the
        // other orientation, so whichever copy a later halo reads is final.
        for (j, &x) in (cols.start..cols.end - 1).zip(bottom.iter()) {
            if let Some(col) = self.col_at(j) {
                self.store.set(col + rows.end - 1, x);
            }
        }
        for (i, &x) in (rows.start..rows.end - 1).zip(right.iter()) {
            if let Some(row) = self.row_at(i) {
                self.store.set(row + cols.end - 1, x);
            }
        }
    }

    /// Read the LCS length off the store; the store goes back to the arena
    /// when the run was built with [`LcsRun::from_plan_in`].
    pub fn finish(self) -> u32 {
        let len = if self.a.is_empty() || self.b.is_empty() {
            0
        } else {
            self.boundary_cell(self.a.len(), self.b.len())
        };
        if let Some(arena) = &self.arena {
            arena.put_vec(self.store.into_vec());
        }
        len
    }
}

/// PACO LCS replayed through the ideal distributed cache simulator: the same
/// plan, the same kernel, but each region's accesses are charged to the private
/// cache of its assigned processor, with a task-boundary flush before each
/// region (the paper's accounting convention).
pub fn lcs_paco_traced(
    a: &[u32],
    b: &[u32],
    p: usize,
    params: CacheParams,
    base: usize,
) -> (u32, DistCacheSim) {
    let n = a.len();
    let m = b.len();
    let plan = plan_paco_lcs(n, m, p, base);
    let table = LcsTable::new(n, m);
    let addr = LcsAddr::new(n, m);
    let mut tracker = SimTracker::new(p, params);
    plan.plan.for_each(|_, proc, &idx| {
        let region = &plan.regions[idx];
        tracker.set_proc(proc);
        tracker.task_boundary();
        co_block(
            &table,
            a,
            b,
            region.rows.clone(),
            region.cols.clone(),
            base,
            &mut tracker,
            &addr,
        );
    });
    (table.lcs_length(), tracker.into_sim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs::kernel::{lcs_reference, lcs_sequential_traced};
    use paco_core::workload::{random_sequence, related_sequences};
    use paco_runtime::WorkerPool;

    /// Prepare-and-run helper standing in for the removed pool-threading
    /// wrappers; real callers go through `paco_service::Session`.
    fn run_paco(a: &[u32], b: &[u32], pool: &WorkerPool, base: usize) -> u32 {
        let run = LcsRun::prepare(a.to_vec(), b.to_vec(), pool.p(), base);
        run.plan().execute(pool, |proc, idx| run.step(proc, idx));
        run.finish()
    }

    #[test]
    fn matches_reference_for_various_p_and_sizes() {
        for &(n, m) in &[(64usize, 64usize), (200, 150), (257, 257), (400, 90)] {
            let a = random_sequence(n, 4, n as u64 * 3);
            let b = random_sequence(m, 4, m as u64 * 7 + 1);
            let expect = lcs_reference(&a, &b);
            for p in [1usize, 2, 3, 5, 7] {
                let pool = WorkerPool::new(p);
                assert_eq!(run_paco(&a, &b, &pool, 16), expect, "n={n} m={m} p={p}");
            }
        }
    }

    #[test]
    fn prime_p_on_rectangular_and_thin_tables() {
        // n != m throughout, and one side below one 64-bit word in the
        // thin shapes, at the production base size.
        for &(n, m) in &[
            (300usize, 170usize),
            (170, 300),
            (1000, 37),
            (40, 700),
            (63, 1),
            (1, 90),
        ] {
            let a = random_sequence(n, 5, n as u64 + 7);
            let b = random_sequence(m, 5, m as u64 + 11);
            let expect = lcs_reference(&a, &b);
            for p in [3usize, 5, 7] {
                let pool = WorkerPool::new(p);
                let got = run_paco(&a, &b, &pool, crate::lcs::kernel::DEFAULT_BASE);
                assert_eq!(got, expect, "n={n} m={m} p={p}");
            }
        }
    }

    #[test]
    fn related_sequences_large_instance() {
        let (a, b) = related_sequences(1000, 8, 0.15, 77);
        let pool = WorkerPool::new(4);
        assert_eq!(
            run_paco(&a, &b, &pool, crate::lcs::kernel::DEFAULT_BASE),
            lcs_reference(&a, &b)
        );
    }

    #[test]
    fn empty_inputs() {
        let pool = WorkerPool::new(4);
        assert_eq!(run_paco(&[], &[1, 2, 3], &pool, 64), 0);
        assert_eq!(run_paco(&[1], &[], &pool, 64), 0);
    }

    #[test]
    fn bound_runs_share_one_compiled_plan() {
        // The skeleton depends only on (n, m, p, base): binding two different
        // inputs to one Arc'd plan must give the same answers as fresh
        // prepares.
        let pool = WorkerPool::new(3);
        let compiled = Arc::new(plan_paco_lcs(120, 90, pool.p(), 16));
        for seed in 0..3u64 {
            let a = random_sequence(120, 4, seed);
            let b = random_sequence(90, 4, 100 + seed);
            let run = LcsRun::from_plan(a.clone(), b.clone(), Arc::clone(&compiled), 16);
            run.plan().execute(&pool, |proc, idx| run.step(proc, idx));
            assert_eq!(run.finish(), lcs_reference(&a, &b), "seed={seed}");
        }
    }

    #[test]
    fn batch_matches_individual_runs_and_shares_barriers() {
        let pool = WorkerPool::new(3);
        let inputs: Vec<(Vec<u32>, Vec<u32>)> = (0..6)
            .map(|i| {
                (
                    random_sequence(40 + 17 * i, 4, i as u64),
                    random_sequence(60 + 11 * i, 4, 100 + i as u64),
                )
            })
            .collect();
        let expect: Vec<u32> = inputs.iter().map(|(a, b)| lcs_reference(a, b)).collect();
        let runs: Vec<LcsRun> = inputs
            .iter()
            .map(|(a, b)| LcsRun::prepare(a.clone(), b.clone(), pool.p(), 16))
            .collect();
        let plan_refs: Vec<&Plan<usize>> = runs.iter().map(|r| r.plan()).collect();
        let batched = Plan::batch_refs(&plan_refs);
        batched.execute(&pool, |proc, &(inst, idx)| runs[inst].step(proc, &idx));
        let got: Vec<u32> = runs.into_iter().map(LcsRun::finish).collect();
        assert_eq!(got, expect);

        // Barrier sharing: the batched plan is as deep as the deepest
        // constituent, not as deep as all of them stacked.
        let plans: Vec<_> = inputs
            .iter()
            .map(|(a, b)| plan_paco_lcs(a.len(), b.len(), pool.p(), 16).plan)
            .collect();
        let sum: usize = plans.iter().map(|p| p.barriers()).sum();
        let max = plans.iter().map(|p| p.barriers()).max().unwrap();
        let batched = paco_runtime::schedule::Plan::batch(plans);
        assert_eq!(batched.barriers(), max);
        assert!(batched.barriers() < sum);
    }

    #[test]
    fn traced_matches_reference_and_balances_misses() {
        let n = 512;
        let (a, b) = related_sequences(n, 4, 0.2, 5);
        let expect = lcs_reference(&a, &b);
        let params = CacheParams::new(1024, 8);
        for p in [2usize, 3, 5] {
            let (len, sim) = lcs_paco_traced(&a, &b, p, params, 16);
            assert_eq!(len, expect, "p={p}");
            assert!(sim.q_sum() > 0);
            // Balanced communication: no processor takes more than ~2x the mean.
            assert!(
                sim.q_imbalance() < 2.0,
                "p={p}: miss imbalance {}",
                sim.q_imbalance()
            );
        }
    }

    #[test]
    fn overall_misses_stay_close_to_sequential_optimum() {
        // Q^Σ_p of PACO should stay within a modest factor of Q₁ (the additive
        // O(p·n·log(pZ)/L) term), far from p·Q₁.
        let n = 512;
        let (a, b) = related_sequences(n, 4, 0.25, 13);
        let params = CacheParams::new(2048, 8);
        let (_, seq) = lcs_sequential_traced(&a, &b, 16, params);
        let q1 = seq.q_sum() as f64;
        let p = 4;
        let (_, par) = lcs_paco_traced(&a, &b, p, params, 16);
        let qp = par.q_sum() as f64;
        assert!(
            qp >= 0.9 * q1,
            "parallel total misses cannot beat Q1 by much"
        );
        assert!(
            qp < 3.0 * q1,
            "Q^Σ_p = {qp} should stay well below p·Q₁ = {}",
            p as f64 * q1
        );
    }
}
