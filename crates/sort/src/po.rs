//! Processor-oblivious low-depth sample sort (the PBBS competitor of Fig. 12b).
//!
//! The structure follows the PBBS / Blelloch–Gibbons–Simhadri low-depth sample
//! sort: pick `Θ(√n)` pivots from an oversampled random sample, cut the input
//! into `Θ(√n)` blocks, have every block count and bucket its own elements (in
//! parallel), compute global bucket offsets with prefix sums, scatter
//! (the "matrix transposition" step), and finally sort every bucket in
//! parallel.  Every parallel step is a rayon data-parallel loop — the algorithm
//! never looks at the processor count, which is what makes it the PO baseline.
//!
//! Its kernels are the sequential sort's: the branch-free `Classifier`
//! classifies each key once, into a `u16` oracle the scatter reads back;
//! small inputs go to the std leaf, buckets to [`seq_sample_sort`].  Only the
//! partitioning differs from PACO SORT, as Fig. 12b requires.

use crate::seq::{leaf_sort, seq_sample_sort, Classifier};
use crate::SortKey;
use rayon::prelude::*;

/// Inputs of at most this length are sorted directly.
const SMALL_SORT: usize = 4096;

/// Sort `data` in place with the PBBS-style low-depth sample sort.
pub fn po_sample_sort<T: SortKey>(data: &mut [T]) {
    let n = data.len();
    if n <= SMALL_SORT {
        return leaf_sort(data);
    }

    // ---- Pivots: oversample by 8, sort the sample, take √n - 1 splitters.
    let buckets = ((n as f64).sqrt() as usize).clamp(2, 4096);
    let mut rng = paco_core::workload::rng(0xb10c_5eed);
    let mut sample: Vec<T> = (0..(buckets * 8).min(n))
        .map(|_| data[rand::Rng::gen_range(&mut rng, 0..n)])
        .collect();
    let classifier = Classifier::from_sample(&mut sample, buckets);

    // ---- Per-block classification and bucket counting (parallel over
    // blocks); every block records its keys' bucket ids in its oracle chunk.
    let block_size = n.div_ceil(buckets);
    let mut oracle = vec![0u16; n];
    let block_counts: Vec<Vec<usize>> = data
        .chunks(block_size)
        .zip(oracle.chunks_mut(block_size))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(chunk, ids)| {
            let mut counts = vec![0usize; buckets];
            classifier.classify_into(chunk, ids, &mut counts);
            counts
        })
        .collect();

    // ---- Global offsets: bucket-major prefix sums over (bucket, block).
    let nblocks = block_counts.len();
    let mut offsets = vec![0usize; buckets * nblocks + 1];
    {
        let mut acc = 0usize;
        for b in 0..buckets {
            for (blk, counts) in block_counts.iter().enumerate() {
                offsets[b * nblocks + blk] = acc;
                acc += counts[b];
            }
        }
        offsets[buckets * nblocks] = acc;
        debug_assert_eq!(acc, n);
    }

    // ---- Scatter into a scratch buffer (parallel over blocks; each block owns
    // a disjoint set of destination cursors (bucket, block)).
    let mut scratch: Vec<T> = data.to_vec();
    {
        let scratch_ptr = SendPtr(scratch.as_mut_ptr());
        data.chunks(block_size)
            .zip(oracle.chunks(block_size))
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(blk, (chunk, ids))| {
                // Rebind so the closure captures the whole `SendPtr` (which is
                // Sync) rather than disjointly borrowing its raw-pointer field.
                #[allow(clippy::redundant_locals)]
                let scratch_ptr = scratch_ptr;
                let mut cursors: Vec<usize> =
                    (0..buckets).map(|b| offsets[b * nblocks + blk]).collect();
                for (x, &b) in chunk.iter().zip(ids) {
                    let b = b as usize;
                    // SAFETY: cursor (b, blk) walks the half-open range
                    // [offsets[b*nblocks+blk], offsets[b*nblocks+blk+1]) which is
                    // disjoint from every other block's ranges, so no two rayon
                    // tasks ever write the same scratch slot.
                    unsafe {
                        *scratch_ptr.0.add(cursors[b]) = *x;
                    }
                    cursors[b] += 1;
                }
            });
    }

    // ---- Bucket boundaries in the scratch buffer, then parallel bucket sorts.
    let bucket_bounds: Vec<(usize, usize)> = (0..buckets)
        .map(|b| {
            let lo = offsets[b * nblocks];
            let hi = if b + 1 < buckets {
                offsets[(b + 1) * nblocks]
            } else {
                n
            };
            (lo, hi)
        })
        .collect();
    let mut slices: Vec<&mut [T]> = Vec::with_capacity(buckets);
    {
        let mut rest: &mut [T] = &mut scratch;
        let mut consumed = 0usize;
        for &(lo, hi) in &bucket_bounds {
            debug_assert_eq!(lo, consumed);
            let (head, tail) = rest.split_at_mut(hi - lo);
            slices.push(head);
            rest = tail;
            consumed = hi;
        }
    }
    slices
        .into_par_iter()
        .for_each(|bucket| seq_sample_sort(bucket));

    data.copy_from_slice(&scratch);
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used to write disjoint index ranges from
// different rayon tasks (see the scatter step above).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::workload::{few_distinct_keys, random_keys, sorted_keys};

    fn check(mut data: Vec<f64>) {
        let mut expect = data.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        po_sample_sort(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn sorts_random_inputs() {
        for &n in &[0usize, 1, 100, 5000, 20_000, 100_000] {
            check(random_keys(n, n as u64));
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check(sorted_keys(50_000));
        let mut rev = sorted_keys(50_000);
        rev.reverse();
        check(rev);
        check(few_distinct_keys(60_000, 2, 5));
        check(vec![7.5; 30_000]);
    }

    #[test]
    fn sorts_integers() {
        let mut data: Vec<i64> = paco_core::workload::random_u64_keys(80_000, 11)
            .into_iter()
            .map(|x| (x % 1_000_000) as i64 - 500_000)
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        po_sample_sort(&mut data);
        assert_eq!(data, expect);
    }
}
