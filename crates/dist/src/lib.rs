//! # paco-dist
//!
//! A shared-nothing **superstep emulation** of the PACO schedules
//! (Tang & Gao, SPAA 2020, Sect. III-E-1 and Sect. V): each of `p` ranks is
//! a thread owning *private* memory — no `SharedGrid` is ever aliased across
//! ranks — connected to its peers by typed channels.  The existing wave-
//! flattened [`Plan`](paco_runtime::schedule::Plan) IR is lowered, once per
//! skeleton, into a [`SuperstepPlan`]: per wave, (1) an **exchange** phase
//! ships exactly the block operands a rank's steps read but does not own
//! under a block-cyclic [`Placement`](paco_core::machine::Placement), (2) a
//! local **compute** phase replays the wave's steps through the workload's
//! existing monomorphized leaf kernels, (3) a **writeback** phase returns
//! words a rank wrote but does not own to their owner, and (4) a binary-tree
//! barrier closes the superstep.  The owner's copy is therefore
//! authoritative at every wave boundary, which is what makes distributed
//! runs bit-identical to the shared-memory executor: waves never overlap
//! cross-processor read/write footprints (the plan invariant the FW layering
//! test asserts), and within a rank the wave's steps run in the same FIFO
//! order the worker pool uses.
//!
//! Every send is metered.  The executor derives a run's exact word and
//! message traffic *deterministically from the lowered plan* — scatter,
//! exchange, writeback, gather, barrier and critical-path counts, per rank —
//! into a [`DistStats`], and mirrors it into the process-wide
//! [`paco_core::metrics::comm`] counters so benches can compare measured
//! traffic against the analytic bounds in `cache-sim::distributed`
//! (`paco_mm_distributed`, `paco_strassen_distributed`).
//!
//! The crate deliberately reuses the workload crates' run states as each
//! rank's private memory (`FwRun`, `MmRun`, `LcsRun`, `StrassenRun`):
//! correctness comes from the data each rank *sees*, not from new kernels.
//! A rank allocates full-shape local tables (O(n²) per rank rather than
//! O(n²/p); LCS, whose run state keeps only its partition's cut rows and
//! columns, is the exception) — this is an emulation for exact accounting
//! on one box, not a memory-scaled MPI port, and the words shipped are what
//! the paper bounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod lower;
pub mod workloads;

pub use exec::{ceil_log2, run_lowered, DistStats, DistWorkload};
pub use lower::{lower, LowerCache, LowerStats, SuperstepPlan, Transfer, WaveComm};
pub use workloads::{FwDist, LcsDist, MmDist, StrassenDist};

/// A half-open rectangle `[r0, r1) × [c0, c1)` of one logical buffer, the
/// unit of exchange/writeback traffic.
///
/// `Ord` (lexicographic) so transfer part lists can be deduplicated and
/// emitted in a deterministic order on both the sending and receiving side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Region {
    /// First row (inclusive).
    pub r0: usize,
    /// Past-the-end row.
    pub r1: usize,
    /// First column (inclusive).
    pub c0: usize,
    /// Past-the-end column.
    pub c1: usize,
}

impl Region {
    /// A region from row/column ranges.
    pub fn new(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Self {
        Self {
            r0: rows.start,
            r1: rows.end,
            c0: cols.start,
            c1: cols.end,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.r1.saturating_sub(self.r0)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.c1.saturating_sub(self.c0)
    }

    /// Number of elements (= words when shipped).
    pub fn area(&self) -> usize {
        self.rows() * self.cols()
    }

    /// True if the region contains no elements.
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_geometry() {
        let r = Region::new(2..5, 1..7);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.cols(), 6);
        assert_eq!(r.area(), 18);
        assert!(!r.is_empty());
        assert!(Region::new(3..3, 0..9).is_empty());
        // Ord is lexicographic, giving deterministic part ordering.
        assert!(Region::new(0..1, 0..1) < Region::new(0..1, 0..2));
    }
}
