//! The PACO LCS partitioning phase (Sect. III-B, Fig. 3).
//!
//! The paper's algorithm runs in two phases.  The *partitioning* phase
//! recursively divides the `n × n` DP region into square sub-regions so that
//! the wavefront execution always has at least `p` mutually independent
//! sub-regions available:
//!
//! * all unassigned sub-regions are divided level by level (each division
//!   splits a square into its four quadrants, halving the side);
//! * as soon as an *anti-diagonal* of same-level sub-regions contains at least
//!   `p` of them, that anti-diagonal is assigned to the `p` processors
//!   round-robin and takes no further part in the division;
//! * anti-diagonals whose sub-regions have shrunk to base-case size are
//!   assigned round-robin regardless of their count.
//!
//! The effect (Fig. 3): the central anti-diagonal band is covered by the
//! largest blocks (side ≈ n/p), and blocks shrink geometrically towards the
//! corners, so every processor's regions form a geometrically decreasing
//! sequence of areas — the invariant all of the paper's bounds rest on.
//!
//! One reading note: the paper's text assigns "p of them" from a qualifying
//! anti-diagonal.  We assign *all* sub-regions of a qualifying anti-diagonal
//! (still round-robin), which keeps the tiling uniform inside each band; the
//! distribution is at least as balanced (each processor receives ⌊c/p⌋ or
//! ⌈c/p⌉ equal-size regions from a band of c ≥ p regions), so every bound in
//! Theorem 2 is preserved.
//!
//! The *execution* phase (in [`super::paco`]) runs the regions wave by wave; a
//! wave is a set of regions whose mutual dependencies are already satisfied, so
//! all of a wave runs concurrently, each region on its pre-assigned processor,
//! computed by the sequential cache-oblivious kernel.

use paco_core::proc_list::{ProcId, ProcList};
use paco_runtime::schedule::{Plan, Step};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// One square sub-region of the DP table produced by the partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Division level (0 = whole table, side halves per level).
    pub level: u32,
    /// Block-row index at `level`.
    pub bi: usize,
    /// Block-column index at `level`.
    pub bj: usize,
    /// Processor this region is assigned to.
    pub proc: ProcId,
    /// Rows of the DP table covered (1-based, half-open).
    pub rows: Range<usize>,
    /// Columns of the DP table covered (1-based, half-open).
    pub cols: Range<usize>,
}

impl Region {
    /// Area of the region in cells.
    pub fn area(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// Half-perimeter (the region's working-set proxy).
    pub fn half_perimeter(&self) -> usize {
        self.rows.len() + self.cols.len()
    }
}

/// The complete PACO LCS execution plan: the assigned regions plus the
/// wavefront schedule, lowered to the runtime's wave-based [`Plan`] IR.
///
/// `regions` is kept in *assignment* (round-robin) order — the order the
/// paper's geometric-decrease invariant is stated in — while `plan` holds the
/// executable schedule whose step jobs are indices into `regions` (plain data,
/// so both the native and the traced executor call the kernel with a concrete
/// tracker type).
#[derive(Debug, Clone)]
pub struct PacoLcsPlan {
    /// All assigned regions, in assignment order.
    pub regions: Vec<Region>,
    /// The executable wavefront schedule; each step's job is an index into
    /// [`PacoLcsPlan::regions`].
    pub plan: Plan<usize>,
    /// The distinct table rows some region ends on (`rows.end - 1`), plus
    /// row 0, ascending: the rows a boundary-only run stores.
    pub cut_rows: Vec<usize>,
    /// The distinct table columns some region ends on, plus column 0,
    /// ascending.
    pub cut_cols: Vec<usize>,
    /// Position of each table row `0..=n` in `cut_rows` (`u32::MAX` when
    /// the row is not a cut).
    row_slots: Vec<u32>,
    /// Position of each table column `0..=m` in `cut_cols`.
    col_slots: Vec<u32>,
}

/// 1-based row (or column) range of block `b` out of `2^level` blocks over `len`
/// cells.  Integer arithmetic keeps parent/child boundaries nested exactly.
fn block_range(len: usize, level: u32, b: usize) -> Range<usize> {
    let parts = 1usize << level;
    let lo = b * len / parts;
    let hi = (b + 1) * len / parts;
    lo + 1..hi + 1
}

/// Build the PACO partitioning plan for an `n × m` table on `p` processors with
/// base-case side `base`.
pub fn plan_paco_lcs(n: usize, m: usize, p: usize, base: usize) -> PacoLcsPlan {
    assert!(p >= 1);
    assert!(base >= 1);
    if n == 0 || m == 0 {
        return PacoLcsPlan::new(Vec::new(), Plan::empty(p), n, m);
    }

    // ---- Phase 1: divide-and-assign over the virtual square grid. ----
    #[derive(Clone, Copy)]
    struct Sq {
        bi: usize,
        bj: usize,
    }
    let procs = ProcList::all(p);
    let mut regions: Vec<Region> = Vec::new();
    let mut unassigned = vec![Sq { bi: 0, bj: 0 }];
    let mut level: u32 = 0;
    let mut rr = 0usize;

    loop {
        // Group the current level's unassigned squares by anti-diagonal.
        let mut groups: BTreeMap<usize, Vec<Sq>> = BTreeMap::new();
        for sq in &unassigned {
            groups.entry(sq.bi + sq.bj).or_default().push(*sq);
        }
        // A square at this level is "base-case" when either dimension of its
        // cell range has shrunk to `base` or fewer cells.
        let side_rows = n >> level.min(63);
        let side_cols = m >> level.min(63);
        let is_base = side_rows <= base || side_cols <= base;

        let mut next_unassigned: Vec<Sq> = Vec::new();
        for (_diag, mut sqs) in groups {
            if sqs.len() >= p || is_base {
                sqs.sort_by_key(|s| s.bi);
                for sq in sqs {
                    let rows = block_range(n, level, sq.bi);
                    let cols = block_range(m, level, sq.bj);
                    if rows.is_empty() || cols.is_empty() {
                        continue; // degenerate slice of a small table
                    }
                    regions.push(Region {
                        level,
                        bi: sq.bi,
                        bj: sq.bj,
                        proc: procs.round_robin(rr),
                        rows,
                        cols,
                    });
                    rr += 1;
                }
            } else {
                next_unassigned.extend(sqs);
            }
        }
        if next_unassigned.is_empty() {
            break;
        }
        // Divide every remaining square into its four children.
        unassigned = next_unassigned
            .into_iter()
            .flat_map(|sq| {
                [
                    Sq {
                        bi: 2 * sq.bi,
                        bj: 2 * sq.bj,
                    },
                    Sq {
                        bi: 2 * sq.bi,
                        bj: 2 * sq.bj + 1,
                    },
                    Sq {
                        bi: 2 * sq.bi + 1,
                        bj: 2 * sq.bj,
                    },
                    Sq {
                        bi: 2 * sq.bi + 1,
                        bj: 2 * sq.bj + 1,
                    },
                ]
            })
            .collect();
        level += 1;
    }

    // ---- Phase 2: wavefront schedule (dependency depth layering). ----
    let waves = build_waves(&regions);
    let plan = Plan::from_waves(
        p,
        waves
            .into_iter()
            .map(|wave| {
                wave.into_iter()
                    .map(|idx| Step {
                        proc: regions[idx].proc,
                        job: idx,
                    })
                    .collect()
            })
            .collect(),
    );

    PacoLcsPlan::new(regions, plan, n, m)
}

/// Compute the wavefront schedule: wave `w` contains the regions whose longest
/// dependency chain has length `w`.  Regions in the same wave are mutually
/// independent, and every dependency of a wave-`w` region lives in an earlier
/// wave.
fn build_waves(regions: &[Region]) -> Vec<Vec<usize>> {
    let r = regions.len();
    // Index regions by the table row where they start / end, to find adjacency
    // without quadratic search.
    let mut by_row_end: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut by_col_end: HashMap<usize, Vec<usize>> = HashMap::new();
    for (idx, reg) in regions.iter().enumerate() {
        by_row_end.entry(reg.rows.end).or_default().push(idx);
        by_col_end.entry(reg.cols.end).or_default().push(idx);
    }

    // deps[a] = regions that must finish before a starts.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); r];
    for (idx, reg) in regions.iter().enumerate() {
        // Regions ending directly above `reg` (their last row is reg's first
        // row) whose column span touches reg's columns, including the corner
        // neighbour needed by the diagonal term of the recurrence.
        if let Some(cands) = by_row_end.get(&reg.rows.start) {
            for &c in cands {
                let other = &regions[c];
                if other.cols.start < reg.cols.end && other.cols.end >= reg.cols.start {
                    deps[idx].push(c);
                }
            }
        }
        // Regions ending directly to the left of `reg`.
        if let Some(cands) = by_col_end.get(&reg.cols.start) {
            for &c in cands {
                let other = &regions[c];
                if other.rows.start < reg.rows.end && other.rows.end >= reg.rows.start {
                    deps[idx].push(c);
                }
            }
        }
    }

    // Kahn's algorithm computing the longest-path depth of every region.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); r];
    let mut indegree = vec![0usize; r];
    for (idx, ds) in deps.iter().enumerate() {
        indegree[idx] = ds.len();
        for &d in ds {
            dependents[d].push(idx);
        }
    }
    let mut depth = vec![0usize; r];
    let mut queue: Vec<usize> = (0..r).filter(|&i| indegree[i] == 0).collect();
    let mut processed = 0usize;
    while let Some(idx) = queue.pop() {
        processed += 1;
        for &succ in &dependents[idx] {
            depth[succ] = depth[succ].max(depth[idx] + 1);
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                queue.push(succ);
            }
        }
    }
    assert_eq!(processed, r, "dependency cycle in LCS partitioning (bug)");

    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); max_depth + 1];
    for (idx, &d) in depth.iter().enumerate() {
        waves[d].push(idx);
    }
    waves
}

impl PacoLcsPlan {
    /// Record the cut rows and columns of `regions` over an `n × m` table.
    fn new(regions: Vec<Region>, plan: Plan<usize>, n: usize, m: usize) -> Self {
        let cuts = |len: usize, end: fn(&Region) -> usize| {
            let mut cuts: Vec<usize> = std::iter::once(0).chain(regions.iter().map(end)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut slots = vec![u32::MAX; len + 1];
            for (slot, &c) in cuts.iter().enumerate() {
                slots[c] = slot as u32;
            }
            (cuts, slots)
        };
        let (cut_rows, row_slots) = cuts(n, |r| r.rows.end - 1);
        let (cut_cols, col_slots) = cuts(m, |r| r.cols.end - 1);
        Self {
            regions,
            plan,
            cut_rows,
            cut_cols,
            row_slots,
            col_slots,
        }
    }

    /// Position of table row `i` in [`PacoLcsPlan::cut_rows`], if it is a
    /// cut.
    pub(crate) fn row_slot(&self, i: usize) -> Option<usize> {
        let slot = self.row_slots[i];
        (slot != u32::MAX).then_some(slot as usize)
    }

    /// Position of table column `j` in [`PacoLcsPlan::cut_cols`], if it is
    /// a cut.
    pub(crate) fn col_slot(&self, j: usize) -> Option<usize> {
        let slot = self.col_slots[j];
        (slot != u32::MAX).then_some(slot as usize)
    }

    /// Number of processors the plan targets.
    pub fn p(&self) -> usize {
        self.plan.p()
    }

    /// Number of pool barriers executing the plan will issue (= waves).
    pub fn barriers(&self) -> usize {
        self.plan.barriers()
    }

    /// Total area covered by the plan's regions (must equal `n · m`).
    pub fn total_area(&self) -> usize {
        self.regions.iter().map(|r| r.area()).sum()
    }

    /// Per-processor total area (the plan's computational load distribution).
    pub fn area_per_proc(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.p()];
        for r in &self.regions {
            out[r.proc] += r.area();
        }
        out
    }

    /// `max/mean` load imbalance of the plan.
    pub fn imbalance(&self) -> f64 {
        let areas = self.area_per_proc();
        let total: usize = areas.iter().sum();
        let max = areas.iter().copied().max().unwrap_or(0);
        if total == 0 {
            1.0
        } else {
            max as f64 / (total as f64 / self.p() as f64)
        }
    }

    /// True if every processor's region areas, in assignment order, are
    /// non-increasing up to a factor-of-two slack (the paper's "almost
    /// geometrically decreasing" invariant).
    pub fn per_proc_geometric(&self) -> bool {
        let mut per_proc: Vec<Vec<usize>> = vec![Vec::new(); self.p()];
        for r in &self.regions {
            per_proc[r.proc].push(r.area());
        }
        per_proc
            .iter()
            .all(|areas| areas.windows(2).all(|w| w[1] <= 2 * w[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn plan_tiles_the_whole_table_exactly() {
        for &(n, m, p) in &[
            (64usize, 64usize, 4usize),
            (100, 100, 3),
            (257, 129, 5),
            (128, 128, 7),
        ] {
            let plan = plan_paco_lcs(n, m, p, 8);
            assert_eq!(plan.total_area(), n * m, "n={n} m={m} p={p}");
            // No two regions overlap: check by sampling cells.
            let mut covered = HashSet::new();
            for (idx, r) in plan.regions.iter().enumerate() {
                for i in r.rows.clone() {
                    for j in r.cols.clone() {
                        assert!(
                            covered.insert((i, j)),
                            "cell ({i},{j}) covered twice (region {idx})"
                        );
                    }
                }
            }
            assert_eq!(covered.len(), n * m);
        }
    }

    #[test]
    fn central_band_gets_the_largest_regions() {
        let n = 256;
        let p = 4;
        let plan = plan_paco_lcs(n, n, p, 8);
        let max_area = plan.regions.iter().map(|r| r.area()).max().unwrap();
        // The largest regions are (n/4)² (level 2 for p=4) and they sit on the
        // main anti-diagonal of the 4x4 grid.
        assert_eq!(max_area, (n / 4) * (n / 4));
        let big: Vec<_> = plan
            .regions
            .iter()
            .filter(|r| r.area() == max_area)
            .collect();
        assert_eq!(big.len(), 4);
        assert!(big.iter().all(|r| r.bi + r.bj == 3));
    }

    #[test]
    fn load_is_balanced_even_for_prime_p() {
        for &p in &[3usize, 5, 7, 11, 13] {
            let plan = plan_paco_lcs(512, 512, p, 16);
            let imb = plan.imbalance();
            assert!(imb < 1.35, "p={p}: imbalance {imb}");
        }
    }

    #[test]
    fn per_processor_regions_decrease_geometrically() {
        let plan = plan_paco_lcs(512, 512, 4, 8);
        assert!(plan.per_proc_geometric());
    }

    #[test]
    fn waves_respect_dependencies() {
        let plan = plan_paco_lcs(128, 128, 3, 8);
        // Map region index -> wave.
        let mut wave_of = vec![usize::MAX; plan.regions.len()];
        for (w, wave) in plan.plan.waves().iter().enumerate() {
            for step in wave {
                wave_of[step.job] = w;
            }
        }
        assert!(
            wave_of.iter().all(|&w| w != usize::MAX),
            "every region scheduled"
        );
        // For every pair of adjacent regions (above / left), the dependency is in
        // an earlier wave.
        for (ia, a) in plan.regions.iter().enumerate() {
            for (ib, b) in plan.regions.iter().enumerate() {
                if ia == ib {
                    continue;
                }
                let above = b.rows.end == a.rows.start
                    && b.cols.start < a.cols.end
                    && b.cols.end >= a.cols.start;
                let left = b.cols.end == a.cols.start
                    && b.rows.start < a.rows.end
                    && b.rows.end >= a.rows.start;
                if above || left {
                    assert!(
                        wave_of[ib] < wave_of[ia],
                        "region {ib} must precede {ia} but waves are {} and {}",
                        wave_of[ib],
                        wave_of[ia]
                    );
                }
            }
        }
        // Regions within one wave are pairwise independent: no region's rows
        // start exactly where another wave-mate's rows end while their column
        // spans touch (and symmetrically for columns) — that adjacency is
        // precisely the data dependency of the recurrence.
        for wave in plan.plan.waves() {
            for sx in wave {
                for sy in wave {
                    let (x, y) = (sx.job, sy.job);
                    if x == y {
                        continue;
                    }
                    let a = &plan.regions[x];
                    let b = &plan.regions[y];
                    let depends_on = |from: &Region, on: &Region| {
                        let above = on.rows.end == from.rows.start
                            && on.cols.start < from.cols.end
                            && on.cols.end >= from.cols.start;
                        let left = on.cols.end == from.cols.start
                            && on.rows.start < from.rows.end
                            && on.rows.end >= from.rows.start;
                        above || left
                    };
                    assert!(
                        !depends_on(a, b) && !depends_on(b, a),
                        "regions {x} and {y} share a wave but depend on each other"
                    );
                }
            }
        }
    }

    #[test]
    fn single_processor_plan_is_one_region_per_band() {
        let plan = plan_paco_lcs(64, 64, 1, 64);
        // With p=1 every anti-diagonal qualifies immediately at level 0.
        assert_eq!(plan.regions.len(), 1);
        assert_eq!(plan.barriers(), 1);
    }

    #[test]
    fn empty_inputs_produce_empty_plan() {
        let plan = plan_paco_lcs(0, 100, 4, 16);
        assert!(plan.regions.is_empty());
        assert_eq!(plan.barriers(), 0);
    }

    #[test]
    fn base_case_cap_limits_region_count() {
        let fine = plan_paco_lcs(256, 256, 4, 4);
        let coarse = plan_paco_lcs(256, 256, 4, 64);
        assert!(coarse.regions.len() < fine.regions.len());
    }
}
