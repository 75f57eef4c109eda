//! Property-based tests (proptest) of the core invariants:
//!
//! * every parallel variant of every algorithm agrees with its sequential
//!   reference on arbitrary inputs and arbitrary processor counts;
//! * processor-list splits always partition the list;
//! * the pruned-BFS partitioning conserves work and stays balanced;
//! * sorting variants produce a sorted permutation of their input;
//! * the closed-semiring laws hold for `MinPlus` / `MaxPlus` /
//!   `BoolSemiring` on randomly drawn elements (exactly — the tropical
//!   elements are integer-valued, so no floating-point slack is needed).

use paco_core::matrix::Matrix;
use paco_core::proc_list::ProcList;
use paco_core::semiring::{
    BoolSemiring, Bottleneck, CountMod, IdempotentSemiring, MaxPlus, MinPlus, Semiring, Viterbi,
    WrappingRing,
};
use paco_dp::lcs::{lcs_po, lcs_reference};
use paco_dp::one_d::kernel::FnWeight;
use paco_dp::one_d::one_d_reference;
use paco_matmul::mm_reference;
use paco_matmul::paco_mm::plan_paco_mm_with_base;
use paco_matmul::strassen::strassen_sequential_with_cutoff;
use paco_runtime::schedule::{Plan, Step};
use paco_service::{Lcs, MatMul, OneD, Session, Sort, Tuning};
use paco_sort::{po_sample_sort, seq_sample_sort, SortKey};
use proptest::prelude::*;

/// Lengths the sort property draws besides its random one: both sides of the
/// leaf cut-offs (2048 keys for the sequential sort, 4096 for the PO sort) and
/// of the power-of-two bucket counts, and 16,385, the first length PACO sorts
/// in four waves.
const SORT_LENS: [usize; 7] = [2047, 2048, 2049, 4095, 4096, 4097, 16_385];

/// Sort `keys` with the sequential and PO sample sorts and through a `Session`
/// at p ∈ {1, 2, 3} and `p`, comparing every output with `expect`.
fn check_sorts<T: SortKey + std::fmt::Debug>(keys: &[T], expect: &[T], p: usize) {
    let mut a = keys.to_vec();
    seq_sample_sort(&mut a);
    assert_eq!(a, expect, "seq_sample_sort");
    let mut b = keys.to_vec();
    po_sample_sort(&mut b);
    assert_eq!(b, expect, "po_sample_sort");
    for p in [1, 2, 3, p] {
        let c = Session::new(p).run(Sort {
            keys: keys.to_vec(),
        });
        assert_eq!(c, expect, "Session::run(Sort) at p = {p}");
    }
}

/// Check every closed-semiring law on one drawn triple `(a, b, c)`.
fn check_semiring_laws<S: Semiring>(a: S, b: S, c: S) {
    // ⊕ is associative and commutative with identity `zero`.
    assert_eq!(a.add(b), b.add(a));
    assert_eq!(a.add(b).add(c), a.add(b.add(c)));
    assert_eq!(a.add(S::zero()), a);
    // ⊗ is associative with identity `one` and annihilator `zero`.
    assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
    assert_eq!(a.mul(S::one()), a);
    assert_eq!(S::one().mul(a), a);
    assert_eq!(a.mul(S::zero()), S::zero());
    assert_eq!(S::zero().mul(a), S::zero());
    // ⊗ distributes over ⊕ on both sides.
    assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    assert_eq!(b.add(c).mul(a), b.mul(a).add(c.mul(a)));
    // The fused form agrees with its definition.
    assert_eq!(a.mul_add(b, c), a.add(b.mul(c)));
}

/// Map a raw integer to a `MinPlus` element: mostly finite *integer-valued*
/// weights (so `⊗ = +` is exact in `f64`), occasionally the `+∞` zero.
fn min_plus_from(raw: i32) -> MinPlus {
    if raw % 13 == 0 {
        MinPlus::zero()
    } else {
        MinPlus(f64::from(raw % 10_000))
    }
}

/// Map a raw integer to a `MaxPlus` element (dually: occasionally `-∞`).
fn max_plus_from(raw: i32) -> MaxPlus {
    if raw % 13 == 0 {
        MaxPlus::zero()
    } else {
        MaxPlus(f64::from(raw % 10_000))
    }
}

/// Map a raw integer to a `Viterbi` likelihood: a dyadic fraction `k/64`
/// with `k ∈ [0, 64]`, so every product of drawn elements is exact in `f64`
/// (power-of-two denominators) and the `×`-associativity law can be checked
/// with `==`.
fn viterbi_from(raw: i32) -> Viterbi {
    Viterbi(f64::from(raw.rem_euclid(65)) / 64.0)
}

/// Map a raw integer to a `Bottleneck` capacity: ordinary finite values plus
/// both identities (`±∞`).  `(max, min)` only ever *selects* an operand, so
/// any `f64` is exact.
fn bottleneck_from(raw: i32) -> Bottleneck {
    match raw % 17 {
        0 => Bottleneck::zero(),
        1 => Bottleneck::one(),
        _ => Bottleneck(f64::from(raw % 1_000) / 4.0),
    }
}

/// Assert `⊕`-idempotency — the law the incremental-closure path (and FW
/// itself) rides on — for one drawn element of a marked semiring.
fn check_add_idempotent<S: IdempotentSemiring>(a: S) {
    assert_eq!(a.add(a), a);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn proc_list_splits_partition_the_ids(p in 1usize..200, a in 1usize..10, b in 1usize..10) {
        let list = ProcList::all(p);
        let (l, r) = list.split_ratio(a, b);
        let mut ids: Vec<_> = l.ids().chain(r.ids()).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..p).collect::<Vec<_>>());
    }

    #[test]
    fn lcs_parallel_variants_match_reference(
        n in 1usize..200,
        m in 1usize..200,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a = paco_core::workload::random_sequence(n, 4, seed);
        let b = paco_core::workload::random_sequence(m, 4, seed.wrapping_add(1));
        let expect = lcs_reference(&a, &b);
        prop_assert_eq!(lcs_po(&a, &b, 64), expect);
        let session = Session::builder()
            .procs(p)
            .tuning(Tuning { lcs_base: 32, ..Tuning::default() })
            .build();
        prop_assert_eq!(session.run(Lcs { a, b }), expect);
    }

    #[test]
    fn one_d_paco_matches_reference(
        n in 1usize..300,
        p in 1usize..6,
        scale in 1u32..50,
    ) {
        let w = FnWeight(move |i: usize, j: usize| ((j - i) as f64 - scale as f64).powi(2));
        let expect = one_d_reference(n, &w, 0.0);
        let session = Session::builder()
            .procs(p)
            .tuning(Tuning { one_d_base: 16, ..Tuning::default() })
            .build();
        let got = session.run(OneD { n, weight: w, d0: 0.0 });
        for idx in 0..=n {
            prop_assert!((expect[idx] - got[idx]).abs() < 1e-9, "idx {}", idx);
        }
    }

    #[test]
    fn paco_mm_matches_reference_on_exact_ring(
        n in 1usize..60,
        m in 1usize..60,
        k in 1usize..60,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a = paco_core::workload::random_matrix_wrapping(n, k, seed);
        let b = paco_core::workload::random_matrix_wrapping(k, m, seed.wrapping_add(7));
        let expect = mm_reference(&a, &b);
        let session = Session::new(p);
        prop_assert_eq!(session.run(MatMul { a, b }), expect);
    }

    #[test]
    fn strassen_is_exact_on_the_wrapping_ring(
        half in 1usize..40,
        seed in 0u64..1000,
    ) {
        let n = 2 * half;
        let a = paco_core::workload::random_matrix_wrapping(n, n, seed);
        let b = paco_core::workload::random_matrix_wrapping(n, n, seed.wrapping_add(3));
        prop_assert_eq!(
            strassen_sequential_with_cutoff(&a, &b, 8),
            mm_reference(&a, &b)
        );
    }

    #[test]
    fn mm_plan_conserves_volume_and_balances(
        n in 16usize..200,
        m in 16usize..200,
        k in 16usize..200,
        p in 1usize..33,
    ) {
        let base = 8;
        let plan = plan_paco_mm_with_base(n, m, k, p, base);
        let report = plan.report();
        let volume = (n * m * k) as f64;
        // Work is never lost, for any parameters.
        prop_assert!((report.total_work - volume).abs() / volume < 1e-9);
        // Balance is only promised inside the scaling range (p = o(problem)):
        // require a few divisible pieces per processor before judging it.
        let leaves_available = (n / base).max(1) * (m / base).max(1) * (k / base).max(1);
        if leaves_available >= 4 * p {
            prop_assert!(report.work_imbalance < 2.0 + 1e-9,
                "imbalance {} with n={} m={} k={} p={}", report.work_imbalance, n, m, k, p);
        }
    }

    #[test]
    fn sorts_produce_sorted_permutations(
        keys in proptest::collection::vec(any::<i32>(), 0..3000),
        p in 1usize..6,
        len in 0usize..SORT_LENS.len() + 1,
    ) {
        // The drawn keys, then (unless `len` picks none) the keys cycled out
        // to a boundary length.
        let mut lens = vec![keys.len()];
        lens.extend(SORT_LENS.get(len).filter(|_| !keys.is_empty()));
        for n in lens {
            let ints: Vec<i64> = (0..n).map(|i| keys[i % keys.len()] as i64).collect();
            let mut expect = ints.clone();
            expect.sort_unstable();
            check_sorts(&ints, &expect, p);

            let words: Vec<u64> =
                ints.iter().map(|&x| (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
            let mut expect = words.clone();
            expect.sort_unstable();
            check_sorts(&words, &expect, p);

            let infinities = [f64::INFINITY, f64::NEG_INFINITY];
            let floats: Vec<f64> = ints
                .iter()
                .map(|&x| if x % 97 == 0 { infinities[(x & 1) as usize] } else { x as f64 / 7.0 })
                .collect();
            let mut expect = floats.clone();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            check_sorts(&floats, &expect, p);
        }
    }

    #[test]
    fn min_plus_semiring_laws_hold(a in any::<i32>(), b in any::<i32>(), c in any::<i32>()) {
        check_semiring_laws(min_plus_from(a), min_plus_from(b), min_plus_from(c));
    }

    #[test]
    fn max_plus_semiring_laws_hold(a in any::<i32>(), b in any::<i32>(), c in any::<i32>()) {
        check_semiring_laws(max_plus_from(a), max_plus_from(b), max_plus_from(c));
    }

    #[test]
    fn bool_semiring_laws_hold(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        check_semiring_laws(BoolSemiring(a), BoolSemiring(b), BoolSemiring(c));
    }

    #[test]
    fn wrapping_ring_semiring_laws_hold(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        check_semiring_laws(WrappingRing(a), WrappingRing(b), WrappingRing(c));
    }

    #[test]
    fn viterbi_semiring_laws_hold(a in any::<i32>(), b in any::<i32>(), c in any::<i32>()) {
        check_semiring_laws(viterbi_from(a), viterbi_from(b), viterbi_from(c));
        check_add_idempotent(viterbi_from(a));
    }

    #[test]
    fn bottleneck_semiring_laws_hold(a in any::<i32>(), b in any::<i32>(), c in any::<i32>()) {
        check_semiring_laws(bottleneck_from(a), bottleneck_from(b), bottleneck_from(c));
        check_add_idempotent(bottleneck_from(a));
    }

    #[test]
    fn count_mod_semiring_laws_hold(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        check_semiring_laws(
            CountMod::<97>::new(a),
            CountMod::<97>::new(b),
            CountMod::<97>::new(c),
        );
        check_semiring_laws(
            CountMod::<256>::new(a),
            CountMod::<256>::new(b),
            CountMod::<256>::new(c),
        );
    }

    #[test]
    fn semiring_matrix_identities_hold(
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        // (A * I) == A and A * 0 == 0 for the wrapping ring, through the PACO path.
        let a = paco_core::workload::random_matrix_wrapping(n, n, seed);
        let id: Matrix<WrappingRing> = Matrix::identity(n);
        let zero: Matrix<WrappingRing> = Matrix::zeros(n, n);
        let session = Session::new(3);
        prop_assert_eq!(session.run(MatMul { a: a.clone(), b: id }), a.clone());
        prop_assert_eq!(session.run(MatMul { a, b: zero.clone() }), zero);
    }
}

/// `CountMod` satisfies every *semiring* law (checked above) but is
/// deliberately **not** marked `IdempotentSemiring`: `a ⊕ a = 2a mod M ≠ a`
/// in general, so closure-style algorithms (and the incremental-closure
/// path) must not accept it.
#[test]
fn count_mod_is_not_add_idempotent() {
    let one = CountMod::<97>::one();
    assert_ne!(one.add(one), one);
}

/// Build one arbitrary wave-flattened plan from a SplitMix64 stream:
/// `p ∈ [1, 6]` processors, up to 5 waves of up to 8 steps each, every step
/// pinned to a random in-range processor with a random job payload.
fn arb_plan(state: &mut u64) -> Plan<u32> {
    let mut next = move || {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let p = (next() as usize % 6) + 1;
    let depth = next() as usize % 5;
    let waves = (0..depth)
        .map(|_| {
            let steps = next() as usize % 8;
            (0..steps)
                .map(|_| Step {
                    proc: next() as usize % p,
                    job: next() as u32,
                })
                .collect()
        })
        .collect();
    Plan::from_waves(p, waves)
}

/// Wave count plus, per processor, the FIFO order of
/// `(wave, plan-index, job)` assignments across all waves.
type ProcOrder = (usize, Vec<Vec<(usize, usize, u32)>>);

/// Flatten a batched plan into what the worker pool actually observes.
fn per_proc_order(plan: &Plan<(usize, u32)>) -> ProcOrder {
    let mut by_proc: Vec<Vec<(usize, usize, u32)>> = vec![Vec::new(); plan.p()];
    for (w, wave) in plan.waves().iter().enumerate() {
        for step in wave {
            by_proc[step.proc].push((w, step.job.0, step.job.1));
        }
    }
    (plan.waves().len(), by_proc)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// `Plan::batch` (owning) and `Plan::batch_refs` (borrowing) are the
    /// same merge: identical wave counts and identical per-processor step
    /// order for arbitrary mixes of plans with mismatched processor counts
    /// and depths.  The service layer relies on this when it batches cached
    /// (`Arc`ed, hence borrowed) skeletons alongside freshly built ones.
    #[test]
    fn batch_and_batch_refs_agree(seed in any::<u64>(), count in 0usize..6) {
        let mut state = seed;
        let plans: Vec<Plan<u32>> = (0..count).map(|_| arb_plan(&mut state)).collect();
        let refs: Vec<&Plan<u32>> = plans.iter().collect();
        let by_ref = Plan::batch_refs(&refs);
        let by_move = Plan::batch(plans);
        prop_assert_eq!(by_move.p(), by_ref.p());
        prop_assert_eq!(per_proc_order(&by_move), per_proc_order(&by_ref));
    }
}
