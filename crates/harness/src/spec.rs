//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names a grid of experiment points — a Γ×L
//! simulation-theorem sweep, a chaos seed ensemble, a gadget instance
//! sweep, or an Example 1.1 separation sweep — without saying anything
//! about *how* it runs. The runner (see [`crate::runner`]) expands the
//! grid into a flat, deterministically ordered `Vec<PointSpec>` via
//! [`CampaignSpec::points`], and its worker threads pull indices into
//! that list from a shared dispenser.
//!
//! Specs are validated **up front** ([`CampaignSpec::validate`]): every
//! way a grid can be degenerate — an empty axis, Γ = 0, an L the network
//! builder would reject, a drop probability above 1, a zero distance —
//! maps to a distinct [`CampaignError`] variant, so misconfigurations
//! fail with a structured message before any thread is spawned. (Zero
//! threads or a zero retry budget are [`RunOptions`](crate::RunOptions)
//! errors, which the runner checks the same way.)

use qdc_gadgets::{GadgetFamily, GadgetPoint};
use qdc_simthm::SimThmPoint;

/// Schema tag stamped on every aggregate summary document.
pub const CAMPAIGN_SCHEMA: &str = "qdc-campaign/v1";
/// Schema tag stamped on every per-point JSONL record.
pub const POINT_SCHEMA: &str = "qdc-campaign-point/v1";
/// Schema tag stamped on every per-point failure record (a point whose
/// every attempt panicked, errored or exceeded its deadline).
pub const FAILURE_SCHEMA: &str = "qdc-campaign-failure/v1";

/// Why a campaign specification (or its CLI invocation) was rejected.
///
/// Every variant corresponds to exactly one degenerate input, checked
/// before any experiment executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The campaign name is empty (it names output files and records).
    EmptyName,
    /// A worker pool of zero threads can run nothing.
    ZeroThreads,
    /// A retry budget of zero attempts can run nothing (`max_attempts`
    /// counts the first try too, so it must be at least 1).
    ZeroAttempts,
    /// A grid axis is empty, so the campaign has no points. The payload
    /// names the empty axis (e.g. `"gammas"`).
    EmptyGrid(&'static str),
    /// A simulation-theorem point requested Γ = 0 (the network builder
    /// needs at least one path).
    ZeroGamma,
    /// A simulation-theorem point requested an unusable path length
    /// (the builder needs `L ≥ 3`).
    BadLength(usize),
    /// A bandwidth of zero bits can carry no message (chaos ensembles
    /// additionally need `B ≥ 2` for their ack words, also checked here).
    BadBandwidth(usize),
    /// A chaos drop probability above 1000 per-mille (i.e. > 1.0).
    BadDropProb(u32),
    /// A chaos ensemble over fewer than two nodes has nothing to
    /// broadcast to.
    TooFewNodes(usize),
    /// A gadget point requested zero input bits (the reductions need at
    /// least one gadget in the chain).
    ZeroBits,
    /// A disjointness point requested a zero-hop path (the two players
    /// must be distinct nodes, so `D ≥ 1`).
    ZeroDistance,
    /// The records path and the summary path collide, so one output
    /// would silently clobber the other.
    OutputCollision(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EmptyName => write!(f, "campaign name must not be empty"),
            CampaignError::ZeroThreads => write!(f, "thread count must be at least 1"),
            CampaignError::ZeroAttempts => {
                write!(f, "retry budget must allow at least 1 attempt")
            }
            CampaignError::EmptyGrid(axis) => {
                write!(f, "grid axis `{axis}` is empty: the campaign has no points")
            }
            CampaignError::ZeroGamma => write!(f, "gamma must be at least 1"),
            CampaignError::BadLength(l) => {
                write!(
                    f,
                    "path length L = {l} is unusable: the network needs L >= 3"
                )
            }
            CampaignError::BadBandwidth(b) => {
                write!(
                    f,
                    "bandwidth B = {b} bits is too small for this campaign kind"
                )
            }
            CampaignError::BadDropProb(pm) => {
                write!(f, "drop probability {pm} per-mille exceeds 1000 (i.e. 1.0)")
            }
            CampaignError::TooFewNodes(n) => {
                write!(f, "chaos ensemble needs at least 2 nodes, got {n}")
            }
            CampaignError::ZeroBits => write!(f, "gadget input length must be at least 1 bit"),
            CampaignError::ZeroDistance => {
                write!(f, "disjointness path distance must be at least 1 hop")
            }
            CampaignError::OutputCollision(path) => {
                write!(f, "records and summary would both be written to `{path}`")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// The experiment grid of a campaign — one variant per experiment kind.
///
/// Axes are cartesian-multiplied by [`CampaignSpec::points`]; the
/// expansion order (outer axis first, declared order within each axis)
/// is part of the determinism contract because point indices name
/// records in the output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignGrid {
    /// Γ×L sweep of simulation-theorem networks (Theorem 3.5 audit).
    SimThm {
        /// Requested path counts Γ.
        gammas: Vec<usize>,
        /// Requested path lengths L (each rounded up to `2^k + 1`).
        lengths: Vec<usize>,
        /// CONGEST bandwidth in qubits.
        bandwidth: usize,
    },
    /// Seed ensemble of robust broadcasts under fault injection.
    Chaos {
        /// Node count of the random connected host graph.
        nodes: usize,
        /// Extra edges beyond the spanning tree.
        extra_edges: usize,
        /// Drop probabilities in integer per-mille (`250` = 0.25) —
        /// integers so records and aggregates never contain floats.
        drop_pm: Vec<u32>,
        /// Fault-plan seeds.
        seeds: Vec<u64>,
        /// CONGEST bandwidth in bits (must be ≥ 2).
        bandwidth: usize,
    },
    /// Sweep of gadget reductions cross-checked by a distributed verifier.
    Gadgets {
        /// Input lengths `n` of the two-party problems.
        bit_sizes: Vec<usize>,
        /// Instance seeds.
        seeds: Vec<u64>,
        /// CONGEST bandwidth for the verifier runs.
        bandwidth: usize,
    },
    /// Example 1.1 separation sweep: classical streaming vs distributed
    /// Grover disjointness over b × B × D, on both channel kinds.
    Ex11 {
        /// Set sizes `b` of the disjointness instances.
        bits: Vec<usize>,
        /// CONGEST bandwidths `B` (bits classically, qubits quantumly;
        /// every `B` must fit the widest `⌈log₂ b⌉` query register).
        bandwidths: Vec<usize>,
        /// Path distances `D` between the two players.
        distances: Vec<usize>,
    },
}

/// One fully expanded experiment point, ready to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointSpec {
    /// One Γ×L cell (see [`qdc_simthm::campaign`]).
    SimThm(SimThmPoint),
    /// One seeded robust-broadcast run under fault injection.
    Chaos {
        /// Node count of the host graph.
        nodes: usize,
        /// Extra edges beyond the spanning tree.
        extra_edges: usize,
        /// Drop probability in per-mille.
        drop_pm: u32,
        /// Seed shared by the graph generator and the fault plan.
        seed: u64,
        /// CONGEST bandwidth in bits.
        bandwidth: usize,
    },
    /// One seeded gadget instance plus distributed verification.
    Gadget {
        /// The reduction point (see [`qdc_gadgets::campaign`]).
        point: GadgetPoint,
        /// CONGEST bandwidth for the verifier.
        bandwidth: usize,
    },
    /// One Example 1.1 disjointness cell: one protocol (classical
    /// streaming or distributed Grover) on one (b, B, D) triple.
    Ex11 {
        /// Set size `b`.
        bits: usize,
        /// CONGEST bandwidth `B`.
        bandwidth: usize,
        /// Path distance `D`.
        distance: usize,
        /// `true` runs the quantum (Grover) protocol on a quantum
        /// channel; `false` the classical streaming protocol.
        quantum: bool,
    },
}

/// A named, declarative experiment campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name: names output files and is stamped on every record.
    pub name: String,
    /// The experiment grid.
    pub grid: CampaignGrid,
}

impl CampaignSpec {
    /// Checks the spec for every known degenerate input.
    ///
    /// Returns the **first** problem found, in a fixed check order, so
    /// error messages are deterministic.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.name.is_empty() {
            return Err(CampaignError::EmptyName);
        }
        match &self.grid {
            CampaignGrid::SimThm {
                gammas,
                lengths,
                bandwidth,
            } => {
                if gammas.is_empty() {
                    return Err(CampaignError::EmptyGrid("gammas"));
                }
                if lengths.is_empty() {
                    return Err(CampaignError::EmptyGrid("lengths"));
                }
                if gammas.contains(&0) {
                    return Err(CampaignError::ZeroGamma);
                }
                if let Some(&l) = lengths.iter().find(|&&l| l < 3) {
                    return Err(CampaignError::BadLength(l));
                }
                if *bandwidth == 0 {
                    return Err(CampaignError::BadBandwidth(*bandwidth));
                }
            }
            CampaignGrid::Chaos {
                nodes,
                extra_edges: _,
                drop_pm,
                seeds,
                bandwidth,
            } => {
                if drop_pm.is_empty() {
                    return Err(CampaignError::EmptyGrid("drop_pm"));
                }
                if seeds.is_empty() {
                    return Err(CampaignError::EmptyGrid("seeds"));
                }
                if *nodes < 2 {
                    return Err(CampaignError::TooFewNodes(*nodes));
                }
                if let Some(&pm) = drop_pm.iter().find(|&&pm| pm > 1000) {
                    return Err(CampaignError::BadDropProb(pm));
                }
                // robust_broadcast sends 2-bit token/ack words.
                if *bandwidth < 2 {
                    return Err(CampaignError::BadBandwidth(*bandwidth));
                }
            }
            CampaignGrid::Gadgets {
                bit_sizes,
                seeds,
                bandwidth,
            } => {
                if bit_sizes.is_empty() {
                    return Err(CampaignError::EmptyGrid("bit_sizes"));
                }
                if seeds.is_empty() {
                    return Err(CampaignError::EmptyGrid("seeds"));
                }
                if bit_sizes.contains(&0) {
                    return Err(CampaignError::ZeroBits);
                }
                if *bandwidth == 0 {
                    return Err(CampaignError::BadBandwidth(*bandwidth));
                }
            }
            CampaignGrid::Ex11 {
                bits,
                bandwidths,
                distances,
            } => {
                if bits.is_empty() {
                    return Err(CampaignError::EmptyGrid("bits"));
                }
                if bandwidths.is_empty() {
                    return Err(CampaignError::EmptyGrid("bandwidths"));
                }
                if distances.is_empty() {
                    return Err(CampaignError::EmptyGrid("distances"));
                }
                if bits.contains(&0) {
                    return Err(CampaignError::ZeroBits);
                }
                if distances.contains(&0) {
                    return Err(CampaignError::ZeroDistance);
                }
                // Every bandwidth must carry the widest Grover query
                // register — one ⌈log₂ b⌉-qubit message per round trip.
                let width = bits
                    .iter()
                    .map(|&b| qdc_algos::widths::bits_for(b.saturating_sub(1) as u64))
                    .max()
                    .expect("bits is non-empty");
                if let Some(&bw) = bandwidths.iter().find(|&&bw| bw < width) {
                    return Err(CampaignError::BadBandwidth(bw));
                }
            }
        }
        Ok(())
    }

    /// The size of the expanded grid, computed arithmetically from the
    /// axis lengths — never by materializing the cross product. This is
    /// what admission control must call: a hostile spec with two
    /// multi-thousand-entry axes describes a multi-million-point grid,
    /// and sizing it via [`points`](Self::points) would allocate all of
    /// it before the quota check ever rejects. Saturates at `u64::MAX`
    /// (any saturated value is far beyond every quota anyway).
    pub fn point_count(&self) -> u64 {
        fn product(a: usize, b: usize) -> u64 {
            (a as u64).saturating_mul(b as u64)
        }
        match &self.grid {
            CampaignGrid::SimThm {
                gammas, lengths, ..
            } => product(gammas.len(), lengths.len()),
            CampaignGrid::Chaos { drop_pm, seeds, .. } => product(drop_pm.len(), seeds.len()),
            // Two gadget families per (bits, seed) cell.
            CampaignGrid::Gadgets {
                bit_sizes, seeds, ..
            } => product(bit_sizes.len(), seeds.len()).saturating_mul(2),
            // Two channel kinds per (b, B, D) cell.
            CampaignGrid::Ex11 {
                bits,
                bandwidths,
                distances,
            } => product(bits.len(), bandwidths.len())
                .saturating_mul(distances.len() as u64)
                .saturating_mul(2),
        }
    }

    /// Expands the grid into a flat, deterministically ordered point
    /// list. Point `i` of this list is record `"point": i` in the
    /// campaign output, on any thread count.
    pub fn points(&self) -> Vec<PointSpec> {
        let mut out = Vec::new();
        match &self.grid {
            CampaignGrid::SimThm {
                gammas,
                lengths,
                bandwidth,
            } => {
                for &gamma in gammas {
                    for &l in lengths {
                        out.push(PointSpec::SimThm(SimThmPoint {
                            gamma,
                            l,
                            bandwidth: *bandwidth,
                        }));
                    }
                }
            }
            CampaignGrid::Chaos {
                nodes,
                extra_edges,
                drop_pm,
                seeds,
                bandwidth,
            } => {
                for &pm in drop_pm {
                    for &seed in seeds {
                        out.push(PointSpec::Chaos {
                            nodes: *nodes,
                            extra_edges: *extra_edges,
                            drop_pm: pm,
                            seed,
                            bandwidth: *bandwidth,
                        });
                    }
                }
            }
            CampaignGrid::Gadgets {
                bit_sizes,
                seeds,
                bandwidth,
            } => {
                for family in [GadgetFamily::Ipmod3, GadgetFamily::GapEq] {
                    for &bits in bit_sizes {
                        for &seed in seeds {
                            out.push(PointSpec::Gadget {
                                point: GadgetPoint { family, bits, seed },
                                bandwidth: *bandwidth,
                            });
                        }
                    }
                }
            }
            CampaignGrid::Ex11 {
                bits,
                bandwidths,
                distances,
            } => {
                // Channel kind is the outermost axis: the full classical
                // curve first, then the full quantum curve, so record
                // index `i` and `i + count/2` are the matched pair of
                // one (b, B, D) cell.
                for quantum in [false, true] {
                    for &b in bits {
                        for &bandwidth in bandwidths {
                            for &distance in distances {
                                out.push(PointSpec::Ex11 {
                                    bits: b,
                                    bandwidth,
                                    distance,
                                    quantum,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Rejects a records/summary path pair that would clobber each other.
pub fn validate_output_paths(records: &str, summary: &str) -> Result<(), CampaignError> {
    if records == summary {
        return Err(CampaignError::OutputCollision(records.to_string()));
    }
    Ok(())
}

/// The built-in campaigns, selectable by name in the `campaign` binary.
pub fn builtin(name: &str) -> Option<CampaignSpec> {
    let spec = match name {
        // 2×2 grid: small enough for CI smoke runs.
        "simthm_smoke" => CampaignSpec {
            name: name.to_string(),
            grid: CampaignGrid::SimThm {
                gammas: vec![4, 6],
                lengths: vec![9, 17],
                bandwidth: 16,
            },
        },
        // 8×4 = 32 points: the headline Theorem 3.5 audit grid.
        "simthm_grid" => CampaignSpec {
            name: name.to_string(),
            grid: CampaignGrid::SimThm {
                gammas: vec![7, 11, 15, 19, 23, 27, 31, 35],
                lengths: vec![17, 33, 65, 129],
                bandwidth: 32,
            },
        },
        // 4×8 = 32 points: robust broadcast under increasing loss.
        "chaos_ensemble" => CampaignSpec {
            name: name.to_string(),
            grid: CampaignGrid::Chaos {
                nodes: 24,
                extra_edges: 6,
                drop_pm: vec![0, 100, 200, 300],
                seeds: (1..=8).collect(),
                bandwidth: 8,
            },
        },
        // 1×2 grid: the CI telemetry-smoke job runs this with
        // `--telemetry-dir` and cross-checks profiles against records.
        "telemetry_smoke" => CampaignSpec {
            name: name.to_string(),
            grid: CampaignGrid::SimThm {
                gammas: vec![4],
                lengths: vec![9, 17],
                bandwidth: 16,
            },
        },
        // 2 families × 4 sizes × 4 seeds = 32 points.
        "gadget_sweep" => CampaignSpec {
            name: name.to_string(),
            grid: CampaignGrid::Gadgets {
                bit_sizes: vec![4, 6, 8, 10],
                seeds: vec![1, 2, 3, 4],
                bandwidth: 32,
            },
        },
        // 2 channels × 4 sizes × 2 bandwidths × 2 distances = 32 points:
        // the Example 1.1 classical-vs-quantum separation sweep. The
        // crossover sits at b = 4096, D = 2, where 2·D·queries = 204
        // quantum rounds undercut the ⌈b/B⌉ + D − 1 classical pipeline.
        "ex11_separation" => CampaignSpec {
            name: name.to_string(),
            grid: CampaignGrid::Ex11 {
                bits: vec![64, 256, 1024, 4096],
                bandwidths: vec![12, 16],
                distances: vec![2, 4],
            },
        },
        _ => return None,
    };
    Some(spec)
}

/// Names of all built-in campaigns, in presentation order.
pub fn builtin_names() -> [&'static str; 6] {
    [
        "simthm_smoke",
        "simthm_grid",
        "chaos_ensemble",
        "gadget_sweep",
        "telemetry_smoke",
        "ex11_separation",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simthm_spec() -> CampaignSpec {
        builtin("simthm_smoke").expect("builtin")
    }

    #[test]
    fn spec_builtins_validate_and_expand() {
        for name in builtin_names() {
            let spec = builtin(name).expect("known builtin");
            spec.validate().expect("builtin specs are valid");
            let points = spec.points();
            assert!(!points.is_empty(), "{name} expands to no points");
            if !name.ends_with("_smoke") {
                assert!(points.len() >= 32, "{name} has {} points", points.len());
            }
        }
        assert!(builtin("no_such_campaign").is_none());
    }

    #[test]
    fn spec_point_count_matches_expansion_without_expanding() {
        // The arithmetic count must agree with the materialized grid on
        // every builtin (all three grid shapes are covered).
        for name in builtin_names() {
            let spec = builtin(name).expect("known builtin");
            assert_eq!(
                spec.point_count(),
                spec.points().len() as u64,
                "{name}: point_count disagrees with points()"
            );
        }
        // A hostile grid with two huge axes: the count is exact and
        // instant — calling points() here would allocate 64M PointSpecs.
        let mut spec = builtin("chaos_ensemble").expect("builtin");
        if let CampaignGrid::Chaos { drop_pm, seeds, .. } = &mut spec.grid {
            *drop_pm = vec![0; 8000];
            *seeds = (0..8000).collect();
        }
        assert_eq!(spec.point_count(), 64_000_000);
    }

    #[test]
    fn spec_point_order_is_deterministic() {
        let spec = builtin("simthm_grid").expect("builtin");
        assert_eq!(spec.points(), spec.points());
        // First axis (gamma) is outermost: the first four points share Γ.
        let points = spec.points();
        match (&points[0], &points[3]) {
            (PointSpec::SimThm(a), PointSpec::SimThm(b)) => {
                assert_eq!(a.gamma, b.gamma);
                assert_ne!(a.l, b.l);
            }
            other => panic!("unexpected points {other:?}"),
        }
    }

    #[test]
    fn spec_rejects_empty_name() {
        let mut spec = simthm_spec();
        spec.name.clear();
        assert_eq!(spec.validate(), Err(CampaignError::EmptyName));
    }

    #[test]
    fn spec_rejects_empty_axes() {
        let mut spec = simthm_spec();
        if let CampaignGrid::SimThm { gammas, .. } = &mut spec.grid {
            gammas.clear();
        }
        assert_eq!(spec.validate(), Err(CampaignError::EmptyGrid("gammas")));

        let mut spec = simthm_spec();
        if let CampaignGrid::SimThm { lengths, .. } = &mut spec.grid {
            lengths.clear();
        }
        assert_eq!(spec.validate(), Err(CampaignError::EmptyGrid("lengths")));
    }

    #[test]
    fn spec_rejects_degenerate_simthm_parameters() {
        let mut spec = simthm_spec();
        if let CampaignGrid::SimThm { gammas, .. } = &mut spec.grid {
            gammas.push(0);
        }
        assert_eq!(spec.validate(), Err(CampaignError::ZeroGamma));

        let mut spec = simthm_spec();
        if let CampaignGrid::SimThm { lengths, .. } = &mut spec.grid {
            lengths.push(2);
        }
        assert_eq!(spec.validate(), Err(CampaignError::BadLength(2)));

        let mut spec = simthm_spec();
        if let CampaignGrid::SimThm { bandwidth, .. } = &mut spec.grid {
            *bandwidth = 0;
        }
        assert_eq!(spec.validate(), Err(CampaignError::BadBandwidth(0)));
    }

    #[test]
    fn spec_rejects_degenerate_chaos_parameters() {
        let base = builtin("chaos_ensemble").expect("builtin");

        let mut spec = base.clone();
        if let CampaignGrid::Chaos { drop_pm, .. } = &mut spec.grid {
            drop_pm.push(1001);
        }
        assert_eq!(spec.validate(), Err(CampaignError::BadDropProb(1001)));

        let mut spec = base.clone();
        if let CampaignGrid::Chaos { nodes, .. } = &mut spec.grid {
            *nodes = 1;
        }
        assert_eq!(spec.validate(), Err(CampaignError::TooFewNodes(1)));

        let mut spec = base.clone();
        if let CampaignGrid::Chaos { bandwidth, .. } = &mut spec.grid {
            *bandwidth = 1;
        }
        assert_eq!(spec.validate(), Err(CampaignError::BadBandwidth(1)));

        let mut spec = base;
        if let CampaignGrid::Chaos { seeds, .. } = &mut spec.grid {
            seeds.clear();
        }
        assert_eq!(spec.validate(), Err(CampaignError::EmptyGrid("seeds")));
    }

    #[test]
    fn spec_rejects_degenerate_gadget_parameters() {
        let base = builtin("gadget_sweep").expect("builtin");

        let mut spec = base.clone();
        if let CampaignGrid::Gadgets { bit_sizes, .. } = &mut spec.grid {
            bit_sizes.push(0);
        }
        assert_eq!(spec.validate(), Err(CampaignError::ZeroBits));

        let mut spec = base;
        if let CampaignGrid::Gadgets { seeds, .. } = &mut spec.grid {
            seeds.clear();
        }
        assert_eq!(spec.validate(), Err(CampaignError::EmptyGrid("seeds")));
    }

    #[test]
    fn spec_rejects_degenerate_ex11_parameters() {
        let base = builtin("ex11_separation").expect("builtin");

        let mut spec = base.clone();
        if let CampaignGrid::Ex11 { bits, .. } = &mut spec.grid {
            bits.push(0);
        }
        assert_eq!(spec.validate(), Err(CampaignError::ZeroBits));

        let mut spec = base.clone();
        if let CampaignGrid::Ex11 { distances, .. } = &mut spec.grid {
            distances.push(0);
        }
        assert_eq!(spec.validate(), Err(CampaignError::ZeroDistance));

        // b = 4096 needs a 12-bit query register; an 11-bit channel
        // cannot carry a single Grover round trip.
        let mut spec = base.clone();
        if let CampaignGrid::Ex11 { bandwidths, .. } = &mut spec.grid {
            bandwidths.push(11);
        }
        assert_eq!(spec.validate(), Err(CampaignError::BadBandwidth(11)));

        let mut spec = base;
        if let CampaignGrid::Ex11 { bandwidths, .. } = &mut spec.grid {
            bandwidths.clear();
        }
        assert_eq!(spec.validate(), Err(CampaignError::EmptyGrid("bandwidths")));
    }

    #[test]
    fn spec_ex11_channel_axis_is_outermost() {
        let spec = builtin("ex11_separation").expect("builtin");
        let points = spec.points();
        assert_eq!(points.len(), 32);
        let half = points.len() / 2;
        for (i, p) in points.iter().enumerate() {
            match p {
                PointSpec::Ex11 { quantum, .. } => assert_eq!(*quantum, i >= half),
                other => panic!("unexpected point {other:?}"),
            }
        }
        // Record i and i + 16 are the matched classical/quantum pair.
        match (&points[0], &points[half]) {
            (
                PointSpec::Ex11 {
                    bits: a,
                    bandwidth: ab,
                    distance: ad,
                    ..
                },
                PointSpec::Ex11 {
                    bits: b,
                    bandwidth: bb,
                    distance: bd,
                    ..
                },
            ) => {
                assert_eq!((a, ab, ad), (b, bb, bd));
            }
            other => panic!("unexpected points {other:?}"),
        }
    }

    #[test]
    fn spec_rejects_output_collision() {
        assert_eq!(
            validate_output_paths("out.jsonl", "out.jsonl"),
            Err(CampaignError::OutputCollision("out.jsonl".to_string()))
        );
        validate_output_paths("out.jsonl", "BENCH_x.json").expect("distinct paths are fine");
    }

    #[test]
    fn spec_errors_display_without_panicking() {
        let errors = [
            CampaignError::EmptyName,
            CampaignError::ZeroThreads,
            CampaignError::ZeroAttempts,
            CampaignError::EmptyGrid("gammas"),
            CampaignError::ZeroGamma,
            CampaignError::BadLength(2),
            CampaignError::BadBandwidth(0),
            CampaignError::BadDropProb(2000),
            CampaignError::TooFewNodes(1),
            CampaignError::ZeroBits,
            CampaignError::ZeroDistance,
            CampaignError::OutputCollision("x".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
