//! Tests of the service front door (`paco_service`): the `Session`'s three
//! verbs must be interchangeable ways of computing the same answers.
//!
//! * property tests that `Session::run_batch` and `submit`+`flush` are
//!   bit-identical to per-request `Session::run` for every workload —
//!   including the MM and sort batch paths that only exist through the
//!   service layer — and for a heterogeneous mixed-type batch;
//! * NaN sort keys come out last, on both sort plan shapes;
//! * a barrier-count regression: a batch of `k` equal Floyd–Warshall
//!   instances costs max-of-waves (= one instance's waves), not `k×` waves,
//!   measured through the session's scheduling stats.

use paco_core::workload::{
    random_digraph, random_keys, random_matrix_wrapping, random_sequence, GapCosts, ParagraphWeight,
};
use paco_graph::plan_fw;
use paco_service::{Apsp, Gap, Lcs, MatMul, OneD, Session, Sort, Strassen, TicketError, Tuning};
use proptest::prelude::*;

/// A deterministic session (tuning pinned, independent of `PACO_BASE`).
fn session(p: usize) -> Session {
    Session::builder()
        .procs(p)
        .tuning(Tuning::default())
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    #[test]
    fn lcs_batch_and_flush_match_individual_runs(
        count in 1usize..5,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let session = session(p);
        let reqs: Vec<Lcs> = (0..count)
            .map(|i| Lcs {
                a: random_sequence(20 + 31 * i, 4, seed + i as u64),
                b: random_sequence(35 + 17 * i, 4, seed + 100 + i as u64),
            })
            .collect();
        let individually: Vec<u32> = reqs.iter().cloned().map(|r| session.run(r)).collect();
        prop_assert_eq!(session.run_batch(reqs.iter().cloned()), individually.clone());
        let tickets: Vec<_> = reqs.into_iter().map(|r| session.submit(r)).collect();
        prop_assert_eq!(session.flush(), count);
        let flushed: Vec<u32> = tickets.iter().map(|t| t.take()).collect();
        prop_assert_eq!(flushed, individually);
    }

    #[test]
    fn fw_batch_and_flush_match_individual_runs(
        count in 1usize..5,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        let session = session(p);
        let reqs: Vec<Apsp> = (0..count)
            .map(|i| Apsp { adj: random_digraph(6 + 11 * i, 0.3, 25, seed + i as u64) })
            .collect();
        let individually: Vec<_> = reqs.iter().cloned().map(|r| session.run(r)).collect();
        prop_assert_eq!(session.run_batch(reqs.iter().cloned()), individually.clone());
        let tickets: Vec<_> = reqs.into_iter().map(|r| session.submit(r)).collect();
        prop_assert_eq!(session.flush(), count);
        for (t, expect) in tickets.iter().zip(&individually) {
            prop_assert_eq!(&t.take(), expect);
        }
    }

    #[test]
    fn mm_and_strassen_batches_match_individual_runs(
        count in 1usize..4,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        // The new batched MM path: exact wrapping arithmetic, so batching may
        // not change a single bit.
        let session = session(p);
        let mms: Vec<MatMul<_>> = (0..count)
            .map(|i| MatMul {
                a: random_matrix_wrapping(10 + 17 * i, 8 + 5 * i, seed + i as u64),
                b: random_matrix_wrapping(8 + 5 * i, 12 + 9 * i, seed + 50 + i as u64),
            })
            .collect();
        let individually: Vec<_> = mms.iter().cloned().map(|r| session.run(r)).collect();
        prop_assert_eq!(session.run_batch(mms.clone()), individually);

        // A small Strassen grain so the batch exercises the parallel 7-ary
        // tree, not just the sequential fallback.
        let strassen_session = Session::builder()
            .procs(p)
            .tuning(Tuning {
                strassen_cutoff: 16,
                strassen_parallel_base: 32,
                ..Tuning::default()
            })
            .build();
        let strassens: Vec<Strassen<_>> = (0..count)
            .map(|i| Strassen {
                a: random_matrix_wrapping(32 * (i + 1), 32 * (i + 1), seed + i as u64),
                b: random_matrix_wrapping(32 * (i + 1), 32 * (i + 1), seed + 70 + i as u64),
            })
            .collect();
        let individually: Vec<_> = strassens
            .iter()
            .cloned()
            .map(|r| strassen_session.run(r))
            .collect();
        prop_assert_eq!(strassen_session.run_batch(strassens), individually);
    }

    #[test]
    fn sort_batches_match_individual_runs(
        count in 1usize..5,
        p in 2usize..6,
        seed in 0u64..1000,
    ) {
        // The new batched sort path.  Mixed sizes cross the small-sort cutoff
        // in both directions; a low oversampling ratio keeps pivot selection
        // deterministic per instance (it depends only on the input), so batch
        // and individual runs see identical pivots.
        let session = Session::builder()
            .procs(p)
            .tuning(Tuning { sort_oversampling: Some(4), ..Tuning::default() })
            .build();
        let reqs: Vec<Sort<f64>> = (0..count)
            .map(|i| Sort { keys: random_keys(200 + 9000 * i + (1 << 14) * (i % 2), seed + i as u64) })
            .collect();
        let individually: Vec<_> = reqs.iter().cloned().map(|r| session.run(r)).collect();
        prop_assert_eq!(session.run_batch(reqs.iter().cloned()), individually.clone());
        let tickets: Vec<_> = reqs.into_iter().map(|r| session.submit(r)).collect();
        prop_assert_eq!(session.flush(), count);
        for (t, expect) in tickets.iter().zip(&individually) {
            prop_assert_eq!(&t.take(), expect);
        }
    }

    #[test]
    fn one_d_and_gap_batches_match_individual_runs(
        count in 1usize..4,
        p in 1usize..6,
        scale in 1u32..30,
    ) {
        let session = session(p);
        let oneds: Vec<_> = (0..count)
            .map(|i| OneD {
                n: 40 + 60 * i,
                weight: ParagraphWeight { ideal: scale as f64 },
                d0: 0.0,
            })
            .collect();
        let individually: Vec<_> = oneds.iter().cloned().map(|r| session.run(r)).collect();
        prop_assert_eq!(session.run_batch(oneds), individually);

        let gaps: Vec<_> = (0..count)
            .map(|i| Gap { n: 10 + 15 * i, costs: GapCosts::default() })
            .collect();
        let individually: Vec<_> = gaps.iter().cloned().map(|r| session.run(r)).collect();
        prop_assert_eq!(session.run_batch(gaps), individually);
    }

    #[test]
    fn mixed_type_flush_matches_individual_runs(
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        // The heterogeneous front-end: one submission per workload type, one
        // flush, every ticket bit-identical to its per-request run.
        let session = session(p);

        let lcs = Lcs {
            a: random_sequence(120, 4, seed),
            b: random_sequence(90, 4, seed + 1),
        };
        let apsp = Apsp { adj: random_digraph(40, 0.25, 30, seed + 2) };
        let mm = MatMul {
            a: random_matrix_wrapping(24, 18, seed + 3),
            b: random_matrix_wrapping(18, 30, seed + 4),
        };
        let sort = Sort { keys: random_keys(25_000, seed + 5) };
        let oned = OneD { n: 150, weight: ParagraphWeight { ideal: 7.0 }, d0: 0.0 };
        let gap = Gap { n: 30, costs: GapCosts::default() };

        let expect_lcs = session.run(lcs.clone());
        let expect_apsp = session.run(apsp.clone());
        let expect_mm = session.run(mm.clone());
        let expect_sort = session.run(sort.clone());
        let expect_oned = session.run(oned.clone());
        let expect_gap = session.run(gap.clone());

        let t_lcs = session.submit(lcs);
        let t_apsp = session.submit(apsp);
        let t_mm = session.submit(mm);
        let t_sort = session.submit(sort);
        let t_oned = session.submit(oned);
        let t_gap = session.submit(gap);
        prop_assert_eq!(session.pending(), 6);
        prop_assert_eq!(session.flush(), 6);
        prop_assert_eq!(session.pending(), 0);

        prop_assert_eq!(t_lcs.take(), expect_lcs);
        prop_assert_eq!(t_apsp.take(), expect_apsp);
        prop_assert_eq!(t_mm.take(), expect_mm);
        prop_assert_eq!(t_sort.take(), expect_sort);
        prop_assert_eq!(t_oned.take(), expect_oned);
        prop_assert_eq!(t_gap.take(), expect_gap);
    }
}

#[test]
fn fw_batch_costs_max_of_waves_not_sum() {
    // The barrier regression the batching exists for: k equal instances
    // through one run_batch must execute exactly one instance's waves, not k
    // times as many.
    let p = 4;
    let n = 64;
    let k = 6;
    let session = session(p);
    let per_instance = plan_fw(n, p, session.tuning().fw_base).plan.barriers() as u64;
    assert!(per_instance >= 1);

    let graphs: Vec<_> = (0..k)
        .map(|i| random_digraph(n, 0.25, 40, 900 + i as u64))
        .collect();
    let expect: Vec<_> = graphs
        .iter()
        .map(|g| session.run(Apsp { adj: g.clone() }))
        .collect();

    let got = session.run_batch(graphs.iter().map(|g| Apsp { adj: g.clone() }));
    assert_eq!(got, expect);
    let stats = session.last_stats();
    assert_eq!(stats.requests, k as u64);
    assert_eq!(
        stats.plan_waves, per_instance,
        "a batch of equal instances must cost max-of-waves"
    );
    assert!(
        stats.plan_waves < k as u64 * per_instance,
        "batching must beat running the {k} instances back to back"
    );
    assert_eq!(
        stats.pool_barriers, stats.plan_waves,
        "exactly one pool barrier per merged wave"
    );
}

#[test]
fn sort_puts_nan_keys_last_without_panicking() {
    // Both plan shapes: one sequential step (small n or p = 1) and the PACO
    // four-wave partition; NaN densities from every key to one in 13.
    for (n, p) in [(3000, 2), (40_000, 1), (40_000, 3)] {
        for stride in [1, 2, 13] {
            let keys: Vec<f64> = random_keys(n, stride as u64)
                .into_iter()
                .enumerate()
                .map(|(i, x)| if i % stride == 0 { f64::NAN } else { x })
                .collect();
            let mut expect: Vec<f64> = keys.iter().copied().filter(|x| !x.is_nan()).collect();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let out = session(p).run(Sort { keys });
            assert_eq!(out.len(), n);
            assert_eq!(
                out[..expect.len()],
                expect[..],
                "n={n} p={p} stride={stride}"
            );
            assert!(out[expect.len()..].iter().all(|x| x.is_nan()));
        }
    }
}

#[test]
fn flush_on_empty_queue_is_a_no_op() {
    let session = session(2);
    assert_eq!(session.pending(), 0);
    assert_eq!(session.flush(), 0);
}

#[test]
fn tickets_resolve_only_after_flush() {
    let session = session(2);
    let ticket = session.submit(Lcs {
        a: vec![1, 2, 3, 4],
        b: vec![2, 4],
    });
    assert!(!ticket.ready());
    assert_eq!(ticket.try_wait(), Err(TicketError::Pending));
    assert_eq!(session.flush(), 1);
    assert!(ticket.ready());
    assert_eq!(ticket.take(), 2);
    // Taking twice is an explicit error, not a panic or a silent None.
    assert_eq!(ticket.try_wait(), Err(TicketError::Taken));
}
