//! Criterion micro-benchmarks: heal-operation latency, H-graph splice
//! throughput, and the two eigensolvers.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{Xheal, XhealConfig};
use xheal_expander::HGraph;
use xheal_graph::{generators, NodeId};
use xheal_spectral::{
    algebraic_connectivity, jacobi_eigen, lanczos_thick_restart, laplacian_dense, CsrLaplacian,
    RESIDUAL_TOL,
};

fn bench_heal_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("heal_delete");
    for n in [100usize, 400] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g0 = generators::random_regular(n, 6, &mut rng);
        let healer = Xheal::new(&g0, XhealConfig::new(6).with_seed(1));
        group.bench_function(format!("regular6_n{n}"), |b| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter_batched(
                || healer.clone(),
                |mut h| {
                    let nodes = h.graph().node_vec();
                    let victim = nodes[rng.random_range(0..nodes.len())];
                    h.heal_delete(victim).unwrap();
                    h
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_hgraph_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hgraph");
    let mut rng = StdRng::seed_from_u64(3);
    let members: Vec<NodeId> = (0..512u64).map(NodeId::new).collect();
    let h = HGraph::random(&members, 3, &mut rng);
    group.bench_function("insert_delete_512", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut next = 1_000_000u64;
        b.iter_batched(
            || h.clone(),
            |mut h| {
                h.insert(NodeId::new(next), &mut rng);
                next += 1;
                let v = h.members()[rng.random_range(0..h.len())];
                h.delete(v);
                h
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_eigensolvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigensolvers");
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::random_regular(120, 6, &mut rng);
    group.bench_function("jacobi_n120", |b| {
        let (_, m) = laplacian_dense(&g);
        b.iter(|| jacobi_eigen(&m).values[1])
    });
    group.bench_function("lanczos_n120", |b| {
        let csr = g.csr_view();
        let op = CsrLaplacian::new(&csr);
        let (ones, zero) = (vec![1.0; 120], vec![0.0; 120]);
        // A zero start falls back to noise seeded by 1.
        b.iter(|| {
            lanczos_thick_restart(&op, &[&ones], &zero, 1, RESIDUAL_TOL)
                .unwrap()
                .value
        })
    });
    let big = generators::random_regular(1000, 6, &mut rng);
    group.bench_function("lambda2_n1000", |b| b.iter(|| algebraic_connectivity(&big)));
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_heal_delete, bench_hgraph_ops, bench_eigensolvers
}
criterion_main!(benches);
