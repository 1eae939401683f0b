//! Criterion benches: the paper's constructions (gadgets, networks,
//! codes) — experiments G47, G7, F810 of DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdc_cc::codes::greedy_random_code;
use qdc_gadgets::{gapeq_to_ham, ipmod3_to_ham};
use qdc_graph::{generate, predicates};
use qdc_simthm::SimulationNetwork;
use std::hint::black_box;

fn bench_gadgets(c: &mut Criterion) {
    let mut g = c.benchmark_group("gadgets");
    for &n in &[64usize, 256, 1024] {
        let x = generate::random_bits(n, 1);
        let y = generate::random_bits(n, 2);
        g.bench_with_input(BenchmarkId::new("ipmod3_to_ham", n), &n, |b, _| {
            b.iter(|| ipmod3_to_ham(black_box(&x), black_box(&y)))
        });
        g.bench_with_input(BenchmarkId::new("gapeq_to_ham", n), &n, |b, _| {
            b.iter(|| gapeq_to_ham(black_box(&x), black_box(&y)))
        });
        let inst = ipmod3_to_ham(&x, &y);
        let sub = inst.full_subgraph();
        g.bench_with_input(BenchmarkId::new("verify_ham_predicate", n), &n, |b, _| {
            b.iter(|| predicates::is_hamiltonian_cycle(black_box(inst.graph()), black_box(&sub)))
        });
    }
    g.finish();
}

fn bench_network(c: &mut Criterion) {
    let mut g = c.benchmark_group("network");
    for &l in &[17usize, 33, 65, 129] {
        g.bench_with_input(BenchmarkId::new("build_n_gamma16", l), &l, |b, &l| {
            b.iter(|| SimulationNetwork::build(black_box(16), black_box(l)))
        });
    }
    // Times the embedding alone, so the pair is built outside the loop.
    let net = SimulationNetwork::build_even_tracks(16, 33);
    let (carol, david) = generate::hamiltonian_matching_pair(net.track_count());
    g.bench_function("embed_matchings", |b| {
        b.iter(|| net.embed_matchings(black_box(&carol), black_box(&david)))
    });
    g.finish();
}

fn bench_codes(c: &mut Criterion) {
    let mut g = c.benchmark_group("gv_codes");
    g.sample_size(10);
    for &n in &[32usize, 64] {
        let d = n / 4;
        g.bench_with_input(BenchmarkId::new("greedy_random", n), &n, |b, _| {
            b.iter(|| greedy_random_code(black_box(n), d, 128, 20_000, 7))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gadgets, bench_network, bench_codes);
criterion_main!(benches);
