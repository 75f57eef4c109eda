//! Sequential sample sort (the paper's `SEQ-SAMPLE-SORT`, Lemma 15).
//!
//! Recursive `√n`-way sample sort: sort an oversampled random sample and keep
//! `k − 1` evenly spaced splitters, `k` being `√n` rounded up to a power of
//! two (at most 1024); classify every key once with the branch-free
//! `Classifier` (Sanders & Winkel's Super Scalar Sample Sort), keeping its
//! bucket id in a `u16` oracle so the scatter pass only reads it back; recurse
//! into the buckets.  Each level streams the data a constant number of times,
//! so the cache complexity is `O((n/L)·(1 + log_Z n))` without knowing `Z` or
//! `L`.  One scratch buffer and one oracle serve the whole recursion.  Slices
//! of at most 2048 keys, and slices whose keys all land in one bucket
//! (duplicate-heavy input), go to the leaf: std's `sort_unstable_by` under the
//! crate order, which puts NaN keys last.

use crate::SortKey;
use rand::Rng;

/// Slices of at most this length are sorted directly by the leaf.
const SMALL_SORT: usize = 2048;
/// Sample keys drawn per bucket when choosing splitters.
const OVERSAMPLE: usize = 8;

/// Sort `data` in place with the sequential sample sort.
pub fn seq_sample_sort<T: SortKey>(data: &mut [T]) {
    if data.len() <= SMALL_SORT {
        return leaf_sort(data);
    }
    let mut rng = paco_core::workload::rng(0x5eed_5eed);
    let mut scratch = data.to_vec();
    let mut oracle = vec![0u16; data.len()];
    seq_sample_sort_rec(data, &mut scratch, &mut oracle, &mut rng);
}

/// One level on `data`, with `scratch` and `oracle` its equally long windows
/// of the shared buffers.
fn seq_sample_sort_rec<T: SortKey>(
    data: &mut [T],
    scratch: &mut [T],
    oracle: &mut [u16],
    rng: &mut impl Rng,
) {
    let n = data.len();
    if n <= SMALL_SORT {
        return leaf_sort(data);
    }

    // ---- Splitters from a sample drawn into the (still unused) scratch.
    let k = ((n as f64).sqrt() as usize)
        .next_power_of_two()
        .clamp(2, 1024);
    let sample = &mut scratch[..k * OVERSAMPLE];
    for s in sample.iter_mut() {
        *s = data[rng.gen_range(0..n)];
    }
    let classifier = Classifier::from_sample(sample, k);

    // ---- Classify once into the oracle, counting bucket sizes.
    let mut cursor = vec![0usize; k];
    classifier.classify_into(data, oracle, &mut cursor);
    if cursor.contains(&n) {
        // Every key fell into one bucket: recursing would make no progress.
        return leaf_sort(data);
    }

    // ---- Scatter by the oracle; afterwards `cursor[b]` is bucket b's end.
    let mut start = 0;
    for c in cursor.iter_mut() {
        let len = *c;
        *c = start;
        start += len;
    }
    for (x, &b) in data.iter().zip(oracle.iter()) {
        scratch[cursor[b as usize]] = *x;
        cursor[b as usize] += 1;
    }
    data.copy_from_slice(scratch);

    // ---- Recurse into each bucket.
    let mut lo = 0;
    for hi in cursor {
        seq_sample_sort_rec(
            &mut data[lo..hi],
            &mut scratch[lo..hi],
            &mut oracle[lo..hi],
            rng,
        );
        lo = hi;
    }
}

/// `a` sorts before `b` in the crate order: `PartialOrd`, which must be total
/// on self-comparable keys, with every self-incomparable key (NaN) after every
/// comparable one — where `f64::total_cmp` puts positive NaN.  Branch-free on
/// floats: two comparisons, combined without short-circuiting.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(b <= a)` holds when b is NaN
fn key_lt<T: PartialOrd>(a: &T, b: &T) -> bool {
    !(b <= a) & a.partial_cmp(a).is_some()
}

/// The leaf and sample sort, in the crate order: move the NaN keys to the
/// back, then std's `sort_unstable_by` on the rest.  (A comparator that never
/// sees NaN keeps std's small-sort networks fast; ordering NaN inside it
/// costs 2–3×.)
pub(crate) fn leaf_sort<T: SortKey>(data: &mut [T]) {
    let mut end = 0;
    for i in 0..data.len() {
        if data[i].partial_cmp(&data[i]).is_some() {
            data.swap(i, end);
            end += 1;
        }
    }
    data[..end].sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// The crate's one splitter classifier (Super Scalar Sample Sort): the
/// `buckets − 1` splitters, padded to `2^levels − 1` by repeating the last
/// one, stored as an implicit search tree that [`Classifier::classify_into`]
/// walks branch-free.
pub(crate) struct Classifier<T> {
    /// Node `j ≥ 1` at `tree[j − 1]`, children `2j` and `2j + 1`.
    tree: Vec<T>,
    levels: u32,
    last: usize,
}

impl<T: SortKey> Classifier<T> {
    /// Sort `sample` and keep its keys at ranks `i·len/buckets`,
    /// `i = 1..buckets`, as splitters.  `sample` must be non-empty unless
    /// `buckets == 1`.
    pub(crate) fn from_sample(sample: &mut [T], buckets: usize) -> Self {
        leaf_sort(sample);
        let k = buckets.next_power_of_two();
        let levels = k.trailing_zeros();
        let tree = (1..k)
            .map(|j: usize| {
                // Node j sits at depth d, position j − 2^d, in-order rank r.
                let d = j.ilog2();
                let r = ((2 * (j - (1 << d)) + 1) << (levels - 1 - d)) - 1;
                sample[(r.min(buckets - 2) + 1) * sample.len() / buckets]
            })
            .collect();
        Self {
            tree,
            levels,
            last: buckets - 1,
        }
    }

    /// Classify every key of `keys` into the oracle `ids` and add the bucket
    /// sizes to `counts`; the bucket of `x` is the number of splitters `< x`.
    /// Eight keys descend the tree in lockstep, so their independent
    /// comparison chains overlap in the pipeline.
    pub(crate) fn classify_into(&self, keys: &[T], ids: &mut [u16], counts: &mut [usize]) {
        // The PO scatter's unchecked writes rely on `ids` matching `counts`.
        assert!(self.last <= u16::MAX as usize, "bucket ids must fit a u16");
        const LANES: usize = 8;
        for (xs, out) in keys.chunks(LANES).zip(ids.chunks_mut(LANES)) {
            // A short last chunk repeats its last key in the spare lanes.
            let xs: [&T; LANES] = std::array::from_fn(|t| &xs[t.min(xs.len() - 1)]);
            let mut j = [1usize; LANES];
            for _ in 0..self.levels {
                for (j, x) in j.iter_mut().zip(xs) {
                    *j = 2 * *j + key_lt(&self.tree[*j - 1], x) as usize;
                }
            }
            for (j, id) in j.into_iter().zip(out) {
                // Leaves past the last bucket belong to padding splitters.
                let b = (j - (1 << self.levels)).min(self.last);
                *id = b as u16;
                counts[b] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_core::workload::{few_distinct_keys, random_keys, random_u64_keys, sorted_keys};

    fn is_sorted<T: SortKey>(data: &[T]) -> bool {
        data.windows(2).all(|w| w[0] <= w[1])
    }

    fn check_sorts_like_std(mut data: Vec<f64>) {
        let mut expect = data.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        seq_sample_sort(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn sorts_random_inputs_of_many_sizes() {
        for n in [
            0, 1, 2, 33, 1000, 2047, 2048, 2049, 4095, 4096, 4097, 10_000, 16_385, 50_000,
        ] {
            check_sorts_like_std(random_keys(n, n as u64 + 1));
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check_sorts_like_std(sorted_keys(10_000));
        let mut reversed = sorted_keys(10_000);
        reversed.reverse();
        check_sorts_like_std(reversed);
        check_sorts_like_std(few_distinct_keys(20_000, 3, 7));
        check_sorts_like_std(vec![1.0; 5000]);
        // At 2^18, all-equal and 3-distinct keys put a whole level into one
        // bucket; such slices must go to the leaf.
        let n = 1 << 18;
        check_sorts_like_std(vec![1.0; n]);
        check_sorts_like_std(few_distinct_keys(n, 3, 7));
        check_sorts_like_std(sorted_keys(n));
        check_sorts_like_std(sorted_keys(n).into_iter().rev().collect());
    }

    #[test]
    fn sorts_integer_keys() {
        let mut data = random_u64_keys(30_000, 3);
        let mut expect = data.clone();
        expect.sort_unstable();
        seq_sample_sort(&mut data);
        assert_eq!(data, expect);
    }

    #[test]
    fn small_sort_paths() {
        let mut tiny = vec![3.0, 1.0, 2.0];
        leaf_sort(&mut tiny);
        assert!(is_sorted(&tiny));
        let mut mid = random_keys(500, 9);
        leaf_sort(&mut mid);
        assert!(is_sorted(&mid));
    }
}
