//! Criterion micro-benchmarks of the sorting family (Fig. 12b in miniature):
//! sequential sample sort, PBBS-style PO sample sort, PACO sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paco_core::workload::random_keys;
use paco_service::{Session, Sort};
use paco_sort::{po_sample_sort, seq_sample_sort};

fn bench_sort(c: &mut Criterion) {
    let session = Session::with_available_parallelism();
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    // The served size (one `Sort` request of the serving benchmark), then
    // the Fig. 12b scale.
    for n in [4096, 1 << 20] {
        let input = random_keys(n, 3);
        group.bench_function(BenchmarkId::new("sequential-sample-sort", n), |bench| {
            bench.iter(|| {
                let mut v = input.clone();
                seq_sample_sort(&mut v);
                std::hint::black_box(v.len())
            })
        });
        if n == 1 << 20 {
            group.bench_function(BenchmarkId::new("po-sample-sort", n), |bench| {
                bench.iter(|| {
                    let mut v = input.clone();
                    po_sample_sort(&mut v);
                    std::hint::black_box(v.len())
                })
            });
        }
        group.bench_function(BenchmarkId::new("paco-sort", n), |bench| {
            bench.iter(|| {
                let v = session.run(Sort {
                    keys: input.clone(),
                });
                std::hint::black_box(v.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort);
criterion_main!(benches);
