//! Criterion benches: per-figure workloads — F3 (MST branches), E1.1
//! (Disjointness protocols), T35 (audited simulation), CHSH (games),
//! and Grover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdc_algos::disjointness::classical_disjointness;
use qdc_algos::mst::{mst_approx_sweep, mst_exact};
use qdc_congest::{CongestConfig, NullTelemetry, RunOptions};
use qdc_core::theorems;
use qdc_graph::generate;
use qdc_quantum::games::{chsh_optimal_strategy, XorGame};
use qdc_quantum::grover::Grover;
use qdc_simthm::SimulationNetwork;
use std::hint::black_box;

fn bench_fig3_mst(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_mst");
    g.sample_size(10);
    let net = SimulationNetwork::build_even_tracks(8, 17);
    let m = net.hamiltonian_m();
    let cfg = CongestConfig::classical(64);
    for &w in &[8u64, 128] {
        let weights = theorems::weight_gadget(net.graph(), &m, w);
        g.bench_with_input(BenchmarkId::new("approx_sweep", w), &w, |b, _| {
            b.iter(|| mst_approx_sweep(black_box(net.graph()), cfg, black_box(&weights), 2.0))
        });
        g.bench_with_input(BenchmarkId::new("exact", w), &w, |b, _| {
            b.iter(|| mst_exact(black_box(net.graph()), cfg, black_box(&weights)))
        });
    }
    g.finish();
}

fn bench_ex11(c: &mut Criterion) {
    let mut g = c.benchmark_group("ex11_disjointness");
    g.sample_size(10);
    for &b_len in &[256usize, 1024] {
        let x = generate::random_bits(b_len, 5);
        let y: Vec<bool> = x.iter().map(|&v| !v).collect();
        g.bench_with_input(
            BenchmarkId::new("classical_stream", b_len),
            &b_len,
            |b, _| {
                b.iter(|| {
                    classical_disjointness(
                        black_box(&x),
                        black_box(&y),
                        8,
                        CongestConfig::classical(16),
                        RunOptions::default(),
                        &mut NullTelemetry,
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_quantum(c: &mut Criterion) {
    let mut g = c.benchmark_group("quantum");
    g.bench_function("chsh_classical_bias", |b| {
        let game = XorGame::chsh();
        b.iter(|| black_box(&game).classical_bias())
    });
    g.bench_function("chsh_entangled_bias", |b| {
        let game = XorGame::chsh();
        let s = chsh_optimal_strategy();
        b.iter(|| black_box(&game).entangled_bias(black_box(&s)))
    });
    for &q in &[8usize, 12] {
        let grover = Grover::new(q, &[7]);
        let k = qdc_quantum::grover::optimal_iterations(1 << q, 1);
        g.bench_with_input(BenchmarkId::new("grover_run", q), &q, |b, _| {
            b.iter(|| black_box(&grover).run(k))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig3_mst, bench_ex11, bench_quantum);
criterion_main!(benches);
