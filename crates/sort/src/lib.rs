//! # paco-sort
//!
//! Comparison-based sorting from the PACO paper (Sect. III-G).
//!
//! * [`seq::seq_sample_sort`] — the sequential sample sort the paper's
//!   Lemma 15 refers to: recursive `√n`-way bucketing with an
//!   `O(n log n)`-work, `O((n/L)(1 + log_Z n))`-miss structure.
//! * [`po::po_sample_sort`] — a PBBS-style *low-depth* processor-oblivious
//!   sample sort: `√n`-ish buckets, block-local counting, scatter, parallel
//!   bucket sorts, all scheduled by rayon with no processor knowledge.  This is
//!   the competitor of Fig. 12b.
//! * [`paco::SortRun`] — the PACO SORT algorithm (Theorem 16): `p − 1` pivots
//!   chosen by oversampling with ratio `k = Θ(ln n)`, per-processor
//!   partitioning of an `n/p` chunk, a `p × p` count matrix with column prefix
//!   sums, an all-to-all redistribution, and a final *sequential* sample sort
//!   per processor — executed on the processor-aware worker pool.  Run it
//!   through `paco_service::Session` with the `Sort` request.
//!
//! All three share one splitter classifier ([`seq`]'s branch-free implicit
//! search tree) and one leaf (`slice::sort_unstable_by`), so Fig. 12b compares
//! partitionings over identical kernels.  Keys are `Copy + Send + Sync` and
//! ordered by `PartialOrd` (ties allowed), which must be total apart from
//! NaN; NaN keys sort last.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod paco;
pub mod po;
pub mod seq;

pub use paco::{plan_sort, SortJob, SortRun};
pub use po::po_sample_sort;
pub use seq::seq_sample_sort;

/// The key bound shared by every sorting routine in this crate.  (`'static`
/// lets runs pool their scratch buffers in a type-erased
/// [`paco_core::arena::ScratchArena`].)
pub trait SortKey: Copy + Send + Sync + PartialOrd + 'static {}
impl<T: Copy + Send + Sync + PartialOrd + 'static> SortKey for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::workload::random_keys;
    use paco_runtime::WorkerPool;

    #[test]
    fn all_variants_agree_with_std_sort() {
        let input = random_keys(10_000, 42);
        let mut expect = input.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let mut a = input.clone();
        seq_sample_sort(&mut a);
        assert_eq!(a, expect);

        let mut b = input.clone();
        po_sample_sort(&mut b);
        assert_eq!(b, expect);

        let pool = WorkerPool::new(4);
        let run = SortRun::prepare(input, pool.p(), 16);
        run.plan().execute(&pool, |proc, job| run.step(proc, job));
        assert_eq!(run.finish(), expect);
    }
}
