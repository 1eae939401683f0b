//! Criterion benches: the CONGEST simulator and distributed algorithms —
//! the substrate costs behind experiments F2, T35 and T36.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdc_algos::fragments::count_components;
use qdc_algos::verify::verify_hamiltonian_cycle;
use qdc_algos::{flood, Ledger};
use qdc_congest::CongestConfig;
use qdc_graph::{generate, NodeId};
use qdc_simthm::SimulationNetwork;
use std::hint::black_box;

fn bench_flood_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    g.sample_size(20);
    for &n in &[100usize, 400] {
        let graph = generate::random_connected(n, 2 * n, 3);
        let cfg = CongestConfig::classical(64);
        g.bench_with_input(BenchmarkId::new("leader_election", n), &n, |b, _| {
            b.iter(|| {
                let mut ledger = Ledger::new();
                flood::elect_leader(black_box(&graph), cfg, &mut ledger)
            })
        });
        g.bench_with_input(BenchmarkId::new("bfs_tree", n), &n, |b, _| {
            b.iter(|| {
                let mut ledger = Ledger::new();
                flood::build_bfs_tree(black_box(&graph), cfg, NodeId(0), &mut ledger)
            })
        });
    }
    g.finish();
}

fn bench_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("verification");
    g.sample_size(10);
    for &(gamma, l) in &[(6usize, 9usize), (12, 17)] {
        let net = SimulationNetwork::build_even_tracks(gamma, l);
        let m = net.hamiltonian_m();
        let n = net.graph().node_count();
        let cfg = CongestConfig::classical(64);
        g.bench_with_input(BenchmarkId::new("distributed_ham", n), &n, |b, _| {
            b.iter(|| verify_hamiltonian_cycle(black_box(net.graph()), cfg, black_box(&m)))
        });
        g.bench_with_input(BenchmarkId::new("count_components", n), &n, |b, _| {
            b.iter(|| {
                let mut ledger = Ledger::new();
                count_components(black_box(net.graph()), cfg, black_box(&m), &mut ledger)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_flood_primitives, bench_verification);
criterion_main!(benches);
