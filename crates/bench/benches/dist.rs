//! Gauges (and one micro-bench) of the shared-nothing distributed executor
//! (`paco_dist`): measured words/messages per rank vs. the analytic bounds
//! of `cache-sim::distributed` (Sect. III-E-1, Corollaries 13/14).
//!
//! Wall-clock on a 1-core container says nothing about a message-passing
//! emulation, so the signal here is the exact comm accounting the executor
//! derives from the lowered plan:
//!
//! * `dist/mm-words-per-rank` — mean words sent+received per rank for
//!   MM-1-PIECE at `n = 64`, `p = 8` (bounded by 4× the analytic
//!   `words_per_proc` of `paco_mm_distributed`);
//! * `dist/mm-analytic-ratio` — that measurement divided by the analytic
//!   bound (the documented constant factor, must stay ≤ 4);
//! * `dist/mm-messages`, `dist/mm-supersteps`, `dist/mm-max-rank-words` —
//!   the matching message/superstep/imbalance counters;
//! * `dist/strassen-words-per-rank` — mean words per rank for CONST-PIECES
//!   Strassen at `n = 128`, `p = 8`, `γ = 3` (bounded by 8× the analytic
//!   `n²/p^{2/ω₀}` of `paco_strassen_distributed`);
//! * `dist/strassen-analytic-ratio` — measured / analytic (must stay ≤ 8);
//! * `dist/strassen-critical-path-p4`, `dist/strassen-critical-path-p16` —
//!   messages on the latency critical path; Strassen's plan is a single
//!   superstep, so these are exactly `4·⌈log₂ p⌉` (8 and 16);
//! * `dist/fw-supersteps`, `dist/fw-exchange-words`,
//!   `dist/fw-barrier-messages` — Floyd–Warshall closure at `n = 64`,
//!   `p = 4`: one superstep per plan wave, `2·(p−1)` barrier messages each;
//! * `dist/lcs-gather-words` — LCS ships a single word home (the corner of
//!   the DP table), the smallest possible gather;
//! * `dist/lcs-writeback-words`, `dist/lcs-boundary-cells` — LCS at
//!   `n = m = 1024`, 2 ranks, base 64: a region writes back only its bottom
//!   row and right column, so the writeback is at most the plan's boundary
//!   cells (the sum over regions of `rows + cols − 1`) — only those another
//!   rank owns actually ship.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paco_cache_sim::distributed::{paco_mm_distributed, paco_strassen_distributed};
use paco_core::machine::Placement;
use paco_core::workload;
use paco_dist::{lower, run_lowered, DistStats, FwDist, LcsDist, MmDist, StrassenDist};
use paco_graph::plan_fw;
use paco_matmul::{plan_mm_1piece, plan_strassen, MmConfig, StrassenOptions, StrassenRun};
use std::sync::Arc;

fn placement(ranks: usize) -> Placement {
    Placement::new(ranks, Placement::DEFAULT_BLOCK)
}

fn mm_stats(n: usize, p: usize) -> DistStats {
    let a = workload::random_matrix_f64(n, n, 11);
    let b = workload::random_matrix_f64(n, n, 12);
    let cfg = MmConfig::default();
    let compiled = Arc::new(plan_mm_1piece(n, n, n, p, &cfg));
    let pl = placement(p);
    let w = MmDist::new(a, b, Arc::clone(&compiled), cfg);
    let sp = lower(&w, &compiled.plan, &pl);
    let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
    stats
}

fn strassen_stats(n: usize, p: usize, gamma: usize) -> DistStats {
    let a = workload::random_matrix_f64(n, n, 13);
    let b = workload::random_matrix_f64(n, n, 14);
    let opts = StrassenOptions {
        cutoff: 16,
        parallel_base: 32,
        gamma: Some(gamma),
    };
    let compiled = Arc::new(plan_strassen(n, p, opts));
    let pl = placement(p);
    let run = StrassenRun::from_plan(a, b, Arc::clone(&compiled), opts.cutoff);
    let w = StrassenDist::new(run, opts.cutoff);
    let sp = lower(&w, &compiled.plan, &pl);
    let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
    stats
}

fn fw_stats(n: usize, p: usize) -> DistStats {
    let adj = workload::random_digraph(n, 0.25, 50, 15);
    let compiled = Arc::new(plan_fw(n, p, 16));
    let pl = placement(p);
    let w = FwDist::new(adj, Arc::clone(&compiled), 16);
    let sp = lower(&w, &compiled.plan, &pl);
    let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
    stats
}

/// A distributed LCS run's stats plus its plan's boundary-cell count.
fn lcs_stats(n: usize, m: usize, p: usize, base: usize) -> (DistStats, usize) {
    let a = workload::random_sequence(n, 4, 21);
    let b = workload::random_sequence(m, 4, 22);
    let compiled = Arc::new(paco_dp::lcs::plan_paco_lcs(a.len(), b.len(), p, base));
    let boundary = compiled
        .regions
        .iter()
        .map(|r| r.rows.len() + r.cols.len() - 1)
        .sum();
    let pl = placement(p);
    let w = LcsDist::new(a, b, Arc::clone(&compiled), base);
    let sp = lower(&w, &compiled.plan, &pl);
    let (_, stats) = run_lowered(&w, &compiled.plan, &pl, &sp);
    (stats, boundary)
}

fn bench_dist(c: &mut Criterion) {
    // One timed point so `cargo bench -- dist` still produces a wall-clock
    // row: a full 4-rank MM superstep run, end to end (threads included).
    let mut group = c.benchmark_group("dist");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("mm-superstep-run", 4), |bench| {
        bench.iter(|| mm_stats(48, 4))
    });
    group.finish();

    // MM-1-PIECE vs. Corollary 13 at the canonical p = 8.
    let mm = mm_stats(64, 8);
    let mm_analytic = paco_mm_distributed(64, 64, 64, 8).words_per_proc;
    criterion::record_metric("dist/mm-words-per-rank", mm.comm.mean_rank_words());
    criterion::record_metric(
        "dist/mm-analytic-ratio",
        mm.comm.mean_rank_words() / mm_analytic,
    );
    criterion::record_metric("dist/mm-messages", mm.comm.data_messages as f64);
    criterion::record_metric("dist/mm-supersteps", mm.comm.supersteps as f64);
    criterion::record_metric("dist/mm-max-rank-words", mm.max_rank_words() as f64);

    // CONST-PIECES Strassen vs. Corollary 14 (`n²/p^{2/ω₀}`) at p = 8.
    let st = strassen_stats(128, 8, 3);
    let st_analytic = paco_strassen_distributed(128, 8, 3).words_per_proc;
    criterion::record_metric("dist/strassen-words-per-rank", st.comm.mean_rank_words());
    criterion::record_metric(
        "dist/strassen-analytic-ratio",
        st.comm.mean_rank_words() / st_analytic,
    );

    // Latency term: Strassen lowers to a single superstep, so the critical
    // path is exactly the scatter fan + barrier tree + gather fan,
    // `4·⌈log₂ p⌉` messages — the O(log p) growth the paper charges.
    let cp4 = strassen_stats(64, 4, 3).comm.critical_path_messages;
    let cp16 = strassen_stats(64, 16, 3).comm.critical_path_messages;
    criterion::record_metric("dist/strassen-critical-path-p4", cp4 as f64);
    criterion::record_metric("dist/strassen-critical-path-p16", cp16 as f64);

    // FW closure: the deepest superstep chain of the four workloads.
    let fw = fw_stats(64, 4);
    criterion::record_metric("dist/fw-supersteps", fw.comm.supersteps as f64);
    criterion::record_metric("dist/fw-exchange-words", fw.comm.exchange_words as f64);
    criterion::record_metric("dist/fw-barrier-messages", fw.comm.barrier_messages as f64);

    // LCS gathers exactly one word (the DP corner).
    let (lcs, _) = lcs_stats(96, 80, 4, 32);
    criterion::record_metric("dist/lcs-gather-words", lcs.comm.gather_words as f64);

    // LCS writes back region boundaries only.
    let (lcs, boundary) = lcs_stats(1024, 1024, 2, 64);
    criterion::record_metric("dist/lcs-writeback-words", lcs.comm.writeback_words as f64);
    criterion::record_metric("dist/lcs-boundary-cells", boundary as f64);
}

criterion_group!(benches, bench_dist);
criterion_main!(benches);
