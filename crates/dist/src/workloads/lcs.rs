//! LCS on the shared-nothing executor.
//!
//! Each rank's private state is an `LcsRun`: not a table, only the plan's
//! cut rows and columns, zero-initialised on every rank (a consistent
//! replica of the table's zero row and column, costing zero scatter words).
//! The sequences ship once at scatter time as exactly the deduplicated index
//! ranges a rank's regions compare.  A region's cross-rank dataflow is its
//! one-cell halo — the row strip above it and the column strip left of it —
//! which each wave's exchange delivers, and its result is its bottom row and
//! right column, which the writeback returns to their owners.  The
//! region's interior never leaves the `bp_block` sweep that computes it.

use crate::exec::DistWorkload;
use crate::Region;
use paco_core::machine::Placement;
use paco_dp::lcs::{LcsRun, PacoLcsPlan};
use std::sync::Arc;

/// The LCS request bound for distributed execution: both sequences plus the
/// compiled (cached) wavefront plan.
pub struct LcsDist {
    a: Vec<u32>,
    b: Vec<u32>,
    compiled: Arc<PacoLcsPlan>,
    base: usize,
}

impl LcsDist {
    /// Bind `(a, b)` to an already-compiled plan (the same payload the
    /// local backend binds through `LcsRun::from_plan`).  Both sequences
    /// must be non-empty (the service falls back to the local backend for
    /// the degenerate cases).
    pub fn new(a: Vec<u32>, b: Vec<u32>, compiled: Arc<PacoLcsPlan>, base: usize) -> Self {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "degenerate LCS runs on the local backend"
        );
        Self {
            a,
            b,
            compiled,
            base,
        }
    }

    /// Merge the sorted half-open ranges a rank's regions need of one
    /// sequence, for exact (deduplicated) scatter word counting.
    fn merged(mut ranges: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        ranges.sort_unstable();
        let mut out: Vec<(usize, usize)> = Vec::new();
        for (s, e) in ranges {
            if s >= e {
                continue;
            }
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        out
    }
}

impl DistWorkload for LcsDist {
    type Job = usize;
    type Elem = u32;
    type RankInput = (Vec<u32>, Vec<u32>, u64);
    type RankState = LcsRun;
    type Gather = Option<u32>;
    type Output = u32;

    fn reads(&self, job: &usize) -> Vec<(usize, Region)> {
        let r = &self.compiled.regions[*job];
        let (rs, re) = (r.rows.start, r.rows.end);
        let (cs, ce) = (r.cols.start, r.cols.end);
        // Rows/cols are 1-based, so the halo strips start at index ≥ 0: the
        // row above (corner included) and the column to the left.
        vec![
            (0, Region::new(rs - 1..rs, cs - 1..ce)),
            (0, Region::new(rs..re, cs - 1..cs)),
        ]
    }

    fn writes(&self, job: &usize) -> Vec<(usize, Region)> {
        let r = &self.compiled.regions[*job];
        let (re, ce) = (r.rows.end, r.cols.end);
        // The bottom row, then the rest of the right column (disjoint, so
        // the corner ships once).
        vec![
            (0, Region::new(re - 1..re, r.cols.clone())),
            (0, Region::new(r.rows.start..re - 1, ce - 1..ce)),
        ]
    }

    fn scatter(
        &self,
        _placement: &Placement,
        _rank: usize,
        jobs: &[usize],
    ) -> ((Vec<u32>, Vec<u32>, u64), u64) {
        // `bp_block` compares `a[i-1]` for table rows `i` and `b[j-1]` for
        // table columns `j`: ship exactly those index ranges.
        let a_ranges = Self::merged(
            jobs.iter()
                .map(|&j| {
                    let r = &self.compiled.regions[j];
                    (r.rows.start - 1, r.rows.end - 1)
                })
                .collect(),
        );
        let b_ranges = Self::merged(
            jobs.iter()
                .map(|&j| {
                    let r = &self.compiled.regions[j];
                    (r.cols.start - 1, r.cols.end - 1)
                })
                .collect(),
        );
        let mut local_a = vec![0u32; self.a.len()];
        let mut local_b = vec![0u32; self.b.len()];
        let mut words = 0u64;
        for &(s, e) in &a_ranges {
            words += (e - s) as u64;
            local_a[s..e].copy_from_slice(&self.a[s..e]);
        }
        for &(s, e) in &b_ranges {
            words += (e - s) as u64;
            local_b[s..e].copy_from_slice(&self.b[s..e]);
        }
        ((local_a, local_b, words), words)
    }

    fn init_state(
        &self,
        _placement: &Placement,
        _rank: usize,
        input: (Vec<u32>, Vec<u32>, u64),
    ) -> LcsRun {
        let (local_a, local_b, _) = input;
        LcsRun::from_plan(local_a, local_b, Arc::clone(&self.compiled), self.base)
    }

    fn run_step(&self, rank: usize, state: &mut LcsRun, job: &usize) {
        state.step(rank, job);
    }

    fn pack(&self, state: &LcsRun, _buf: usize, region: Region, out: &mut Vec<u32>) {
        for i in region.r0..region.r1 {
            for j in region.c0..region.c1 {
                out.push(state.boundary_cell(i, j));
            }
        }
    }

    fn unpack(&self, state: &mut LcsRun, _buf: usize, region: Region, data: &[u32]) {
        let mut data = data.iter();
        for i in region.r0..region.r1 {
            for j in region.c0..region.c1 {
                state.set_boundary_cell(i, j, *data.next().expect("part carries its region"));
            }
        }
    }

    fn gather(&self, placement: &Placement, rank: usize, state: LcsRun) -> (Option<u32>, u64) {
        // The answer is one word: the bottom-right cell, gathered from the
        // rank that owns it.
        if placement.owner(self.a.len(), self.b.len()) == rank {
            (Some(state.finish()), 1)
        } else {
            (None, 0)
        }
    }

    fn finish(&self, _placement: &Placement, gathers: Vec<Option<u32>>) -> u32 {
        gathers
            .into_iter()
            .flatten()
            .next()
            .expect("exactly one rank owns the final cell")
    }
}
