//! Criterion micro-benchmarks of the LCS family (Fig. 12a in miniature):
//! sequential CO, PO (base 256), PA p-way and PACO.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paco_core::machine::available_processors;
use paco_core::workload::related_sequences;
use paco_dp::lcs::{lcs_pa, lcs_po, lcs_sequential_co, LcsRun, DEFAULT_BASE};
use paco_runtime::WorkerPool;
use paco_service::{Lcs, Session};

fn bench_lcs(c: &mut Criterion) {
    let n = 2048;
    let (a, b) = related_sequences(n, 4, 0.2, 11);
    // The PA variant takes the raw pool; the PACO variant goes through the
    // service session (same worker count).
    let pool = WorkerPool::new(available_processors());
    let session = Session::with_available_parallelism();

    let mut group = c.benchmark_group("lcs");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("sequential-co", n), |bench| {
        bench.iter(|| std::hint::black_box(lcs_sequential_co(&a, &b, 64)))
    });
    group.bench_function(BenchmarkId::new("po-base256", n), |bench| {
        bench.iter(|| std::hint::black_box(lcs_po(&a, &b, 256)))
    });
    group.bench_function(BenchmarkId::new("pa-pway", n), |bench| {
        bench.iter(|| std::hint::black_box(lcs_pa(&a, &b, &pool)))
    });
    group.bench_function(BenchmarkId::new("paco", n), |bench| {
        bench.iter(|| {
            std::hint::black_box(session.run(Lcs {
                a: a.clone(),
                b: b.clone(),
            }))
        })
    });
    group.finish();

    // Kernel-dispatch gauges: every base block of one PACO run should have
    // taken the branch-free sweep (generic = 0).
    let before = paco_core::metrics::sched::kernel::snapshot();
    std::hint::black_box(session.run(Lcs {
        a: a.clone(),
        b: b.clone(),
    }));
    let delta = paco_core::metrics::sched::kernel::snapshot().since(&before);
    criterion::record_metric(
        "kernel/lcs-leaf-specialized",
        delta.lcs_leaf_specialized as f64,
    );
    criterion::record_metric("kernel/lcs-leaf-generic", delta.lcs_leaf_generic as f64);

    // The service run's only table memory: the boundary store of the cut
    // rows and columns of the p = 4 partition, against the full table's
    // 4·(n+1)² bytes.
    let run = LcsRun::prepare(a, b, 4, DEFAULT_BASE);
    criterion::record_metric("lcs/table-bytes", run.store_bytes() as f64);
}

criterion_group!(benches, bench_lcs);
criterion_main!(benches);
