//! Longest Common Subsequence (Sect. III-B of the paper).
//!
//! LCS is the paper's representative of dynamic programming with *constant*
//! dependencies: cell `(i, j)` depends only on its three neighbours
//! `(i-1, j)`, `(i, j-1)`, `(i-1, j-1)`.  The module provides every variant the
//! paper measures in Fig. 12a, all built on the same sequential block kernel:
//!
//! | function | class | description |
//! |---|---|---|
//! | [`lcs_reference`] | — | two-row iterative DP, the ground truth |
//! | [`lcs_sequential_co`] | CO | sequential cache-oblivious 2-way divide-and-conquer (Lemma 1) |
//! | [`lcs_po`] | PO | recursive quadrant parallelism on rayon (randomized work stealing), base-case 256 in the paper |
//! | [`lcs_pa`] | PA | Chowdhury–Ramachandran p-way top-level division, block wavefront |
//! | [`LcsRun`] | PACO | the paper's two-phase algorithm: pruned divide-and-assign partitioning + wavefront execution (Theorem 2); run it through `paco_service::Session` with the `Lcs` request |
//!
//! The `*_traced` variants replay the identical schedules through the ideal
//! distributed cache model to measure `Q^Σ_p` / `Q^max_p`.
//!
//! [`trace::hirschberg`] recovers the actual alignment (an [`EditOp`] script)
//! in linear space — the `LcsTrace` service request of the incremental
//! subsystem builds on it.

pub mod kernel;
pub mod pa;
pub mod paco;
pub mod partition;
pub mod po;
pub mod trace;

pub use kernel::{
    bp_block, co_block, lcs_reference, lcs_sequential_co, lcs_sequential_traced, LcsAddr, LcsTable,
    DEFAULT_BASE,
};
pub use pa::{lcs_pa, lcs_pa_traced};
pub use paco::{lcs_paco_traced, LcsRun};
pub use partition::{plan_paco_lcs, PacoLcsPlan, Region};
pub use po::lcs_po;
pub use trace::{hirschberg, lcs_of_script, replay, EditOp};

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::workload::related_sequences;
    use paco_runtime::WorkerPool;

    /// All five variants agree on a moderately sized instance.
    #[test]
    fn all_variants_agree() {
        let (a, b) = related_sequences(353, 4, 0.3, 99);
        let expect = lcs_reference(&a, &b);
        assert_eq!(lcs_sequential_co(&a, &b, 32), expect);
        assert_eq!(lcs_po(&a, &b, 64), expect);
        let pool = WorkerPool::new(3);
        assert_eq!(lcs_pa(&a, &b, &pool), expect);
        let paco = LcsRun::prepare(a.clone(), b.clone(), pool.p(), DEFAULT_BASE);
        paco.plan().execute(&pool, |proc, idx| paco.step(proc, idx));
        assert_eq!(paco.finish(), expect);
    }
}
