//! Criterion benches for the CONGEST substrate hot paths: the
//! `BitString` codec, flooding on a dense graph, and a full
//! Hamiltonian-cycle verification run on the Γ=13, L=17 simulation
//! network. EXPERIMENTS.md records before/after numbers for the
//! word-level codec and the O(1)-routing/reusable-buffer round loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdc_algos::verify::verify_hamiltonian_cycle;
use qdc_algos::{flood, Ledger};
use qdc_congest::{BitString, CongestConfig, NullTelemetry, RoundProfiler, RunOptions, Simulator};
use qdc_graph::Graph;
use qdc_simthm::{SimThmPoint, SimulationNetwork};
use std::hint::black_box;

/// Encode `count` fields of `width` bits each into one `BitString`.
fn encode(count: usize, width: usize) -> BitString {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut bits = BitString::new();
    for i in 0..count {
        bits.push_uint((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask, width);
    }
    bits
}

fn bench_bitstring_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitstring");
    g.sample_size(20);
    // Unaligned width (37) exercises the cross-word-boundary path;
    // 4096 fields ≈ 150 Kbit payloads, the scale of a Figure 2 round.
    for &(count, width) in &[(4096usize, 37usize), (4096, 16), (1024, 64)] {
        g.bench_with_input(
            BenchmarkId::new("encode", format!("{count}x{width}b")),
            &(count, width),
            |b, &(count, width)| b.iter(|| encode(black_box(count), black_box(width))),
        );
        let bits = encode(count, width);
        g.bench_with_input(
            BenchmarkId::new("decode", format!("{count}x{width}b")),
            &bits,
            |b, bits| {
                b.iter(|| {
                    let mut r = bits.reader();
                    let mut acc = 0u64;
                    while let Some(v) = r.read_uint(width) {
                        acc = acc.wrapping_add(v);
                    }
                    acc
                })
            },
        );
    }
    let blob = encode(4096, 37);
    g.bench_function("extend_bits/64x150Kbit", |b| {
        b.iter(|| {
            let mut acc = BitString::new();
            acc.push_bit(true); // force the unaligned path
            for _ in 0..64 {
                acc.extend_bits(black_box(&blob));
            }
            acc
        })
    });
    let bools = blob.to_bools();
    g.bench_function("from_bools/150Kbit", |b| {
        b.iter(|| BitString::from_bools(black_box(&bools)))
    });
    g.bench_function("to_bools/150Kbit", |b| {
        b.iter(|| black_box(&blob).to_bools())
    });
    g.finish();
}

fn bench_flood_complete(c: &mut Criterion) {
    let mut g = c.benchmark_group("flood");
    g.sample_size(10);
    // Complete graphs maximize per-round delivery fan-in: the regime
    // where O(deg) reverse-port scans cost O(Σ deg²) per round.
    let graph = Graph::complete(256);
    let cfg = CongestConfig::classical(64);
    g.bench_function("elect_leader/complete256", |b| {
        b.iter(|| {
            let mut ledger = Ledger::new();
            flood::elect_leader(black_box(&graph), cfg, &mut ledger)
        })
    });
    g.finish();
}

fn bench_verification_gamma13_l17(c: &mut Criterion) {
    let mut g = c.benchmark_group("verification");
    g.sample_size(10);
    // Γ=13, L=17 has 13 + log₂(16) = 17 tracks; the Hamiltonian matching
    // pair needs an even track count, so the network realizes Γ = 14.
    let net = SimulationNetwork::build_even_tracks(13, 17);
    let m = net.hamiltonian_m();
    let cfg = CongestConfig::classical(64);
    g.bench_with_input(
        BenchmarkId::new("distributed_ham", format!("n{}", net.graph().node_count())),
        &net,
        |b, net| b.iter(|| verify_hamiltonian_cycle(black_box(net.graph()), cfg, black_box(&m))),
    );
    g.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);
    // The same Γ=13, L=17-class workload as the verification group, run
    // three ways: the plain entry point (null sink — must stay on the
    // PR 1 hot-path numbers), an explicit NullTelemetry-observed run
    // (must be indistinguishable from plain: the sink is compiled out),
    // and a RoundProfiler-observed run (the real observation cost).
    let point = SimThmPoint {
        gamma: 13,
        l: 17,
        bandwidth: 32,
    };
    let options = RunOptions::default();
    g.bench_function("run_point/null_sink", |b| {
        b.iter(|| qdc_simthm::campaign::run_point(black_box(&point), options, |_| NullTelemetry))
    });
    g.bench_function("run_point/profiler", |b| {
        b.iter(|| {
            qdc_simthm::campaign::run_point(black_box(&point), options, |net| {
                let graph = net.graph();
                RoundProfiler::new(graph.node_count(), graph.edge_count(), point.bandwidth)
                    .with_classes(qdc_simthm::campaign::highway_classes(net))
            })
        })
    });
    g.finish();
}

fn bench_slab_delivery(c: &mut Criterion) {
    use qdc_congest::{Inbox, Message, NodeAlgorithm, NodeInfo, Outbox};
    let mut g = c.benchmark_group("slab");
    g.sample_size(10);
    // An every-round rebroadcast on a dense graph is the message plane's
    // worst case: every directed slot is packed, masked and scattered
    // every round. This pins the columnar (SoA) delivery path; the
    // `flood` and `verification` groups above cover the mixed regimes.
    struct Rebroadcast {
        rounds_left: usize,
    }
    impl NodeAlgorithm for Rebroadcast {
        fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
            out.broadcast(Message::from_uint(info.id.0 as u64, 32));
        }
        fn on_round(&mut self, info: &NodeInfo, _: &Inbox, out: &mut Outbox) {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                out.broadcast(Message::from_uint(info.id.0 as u64, 32));
            }
        }
        fn is_terminated(&self) -> bool {
            self.rounds_left == 0
        }
    }
    let graph = Graph::complete(128);
    let cfg = CongestConfig::classical(32);
    for &threads in &[1usize, 4] {
        let sim = Simulator::with_options(&graph, cfg, RunOptions { threads });
        g.bench_function(format!("rebroadcast/complete128/t{threads}"), |b| {
            b.iter(|| sim.run(|_| Rebroadcast { rounds_left: 16 }, black_box(64)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bitstring_codec,
    bench_flood_complete,
    bench_verification_gamma13_l17,
    bench_telemetry_overhead,
    bench_slab_delivery
);
criterion_main!(benches);
