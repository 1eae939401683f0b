//! Seeded workload inputs. The benchmark derives every spec and graph
//! from `--seed`; the program under test only ever sees the results.
//! Seed 1 is the default and seed 2 is held out for checking claims.

use qdc_congest::{Inbox, Message, NodeAlgorithm, NodeInfo, Outbox};
use qdc_graph::{generate, Graph};
use qdc_harness::{builtin, CampaignGrid, CampaignSpec};

/// SplitMix64: the seed mixer behind every derived input.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th derived value of stream `stream` under `seed`.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
}

/// The 32-point Theorem 3.5 audit grid (`simthm_grid`: Γ ∈ {7..35},
/// L ∈ {17..129}, B = 32) with the Γ axis in seeded order. Only the
/// order moves, so every seed does the same total work.
pub fn grid_spec(seed: u64) -> CampaignSpec {
    let mut spec = builtin("simthm_grid").expect("simthm_grid is a builtin");
    spec.name = "perf_grid".into();
    if let CampaignGrid::SimThm { gammas, .. } = &mut spec.grid {
        for i in (1..gammas.len()).rev() {
            let j = (derive(seed, 1, i as u64) % (i as u64 + 1)) as usize;
            gammas.swap(i, j);
        }
    }
    spec
}

/// A chaos ensemble on 24-node graphs: 4 drop rates × `seeds` seeded
/// fault plans (`quick` keeps 32 of the 512).
pub fn chaos_spec(seed: u64, quick: bool) -> CampaignSpec {
    let seeds = if quick { 32 } else { 512 };
    CampaignSpec {
        name: "perf_chaos".into(),
        grid: CampaignGrid::Chaos {
            nodes: 24,
            extra_edges: 6,
            drop_pm: vec![0, 100, 200, 300],
            seeds: (0..seeds).map(|i| derive(seed, 2, i) % 1_000_000).collect(),
            bandwidth: 8,
        },
    }
}

/// The 32-point Example 1.1 separation sweep (classical streaming vs
/// distributed Grover), unseeded: it has no random inputs.
pub fn ex11_spec() -> CampaignSpec {
    builtin("ex11_separation").expect("ex11_separation is a builtin")
}

/// Size of the service workload's spec pool.
pub const POOL: usize = 16;

/// The service workload's pool of 4-point chaos specs.
pub fn service_pool(seed: u64) -> Vec<CampaignSpec> {
    (0..POOL as u64)
        .map(|j| CampaignSpec {
            name: format!("perf_job_{j}"),
            grid: CampaignGrid::Chaos {
                nodes: 24,
                extra_edges: 6,
                drop_pm: vec![0, 200],
                seeds: (0..2).map(|i| derive(seed, 3 + j, i) % 1_000_000).collect(),
                bandwidth: 8,
            },
        })
        .collect()
}

/// The soak network: 512 nodes, a random spanning tree plus 128 extra
/// edges (639 edges for every seed tried).
pub fn soak_graph(seed: u64) -> Graph {
    generate::random_connected(512, 128, seed)
}

/// Payload width of the soak gossip, in bits (also its bandwidth).
pub const SOAK_BITS: usize = 16;

/// Gossip that never terminates: every node broadcasts a fresh 16-bit
/// word each round, so the run lasts exactly as many rounds as it is
/// stepped (the `stream_soak` workload).
pub struct Chatter {
    id: u64,
    beat: u64,
}

impl Chatter {
    /// The node's initial state.
    pub fn new(info: &NodeInfo) -> Chatter {
        Chatter {
            id: u64::from(info.id.0),
            beat: 0,
        }
    }
}

impl NodeAlgorithm for Chatter {
    fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(self.id & 0xffff, SOAK_BITS));
    }
    fn on_round(&mut self, _: &NodeInfo, _: &Inbox, out: &mut Outbox) {
        self.beat += 1;
        out.broadcast(Message::from_uint(
            (self.id + self.beat) & 0xffff,
            SOAK_BITS,
        ));
    }
    fn is_terminated(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_harness::{run_campaign, RunOptions};

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(grid_spec(1), grid_spec(1));
        assert_eq!(chaos_spec(1, false), chaos_spec(1, false));
        assert_eq!(service_pool(1), service_pool(1));
        assert_ne!(grid_spec(1), grid_spec(2));
        assert_ne!(chaos_spec(1, true), chaos_spec(2, true));
        assert_ne!(service_pool(1), service_pool(2));
    }

    #[test]
    fn seeds_1_and_2_do_the_same_work() {
        // The grid seed only permutes Γ, so both aggregates are the
        // simthm_grid audit's exactly.
        let a = run_campaign(&grid_spec(1), &RunOptions::default()).expect("runs");
        let b = run_campaign(&grid_spec(2), &RunOptions::default()).expect("runs");
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(
            (a.aggregate.messages, a.aggregate.bits),
            (2_883_280, 34_453_712)
        );
        let gammas = |s| match grid_spec(s).grid {
            CampaignGrid::SimThm { mut gammas, .. } => {
                gammas.sort_unstable();
                gammas
            }
            _ => unreachable!("grid_spec is a SimThm grid"),
        };
        assert_eq!(gammas(1), gammas(2));
        // Chaos and soak inputs keep their shape across seeds.
        for quick in [false, true] {
            assert_eq!(
                chaos_spec(1, quick).point_count(),
                chaos_spec(2, quick).point_count()
            );
        }
        assert_eq!(chaos_spec(1, false).point_count(), 2048);
        for seed in [1, 2] {
            let g = soak_graph(seed);
            assert_eq!((g.node_count(), g.edge_count()), (512, 639));
            assert!(service_pool(seed).iter().all(|s| s.point_count() == 4));
        }
    }
}
