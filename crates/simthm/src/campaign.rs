//! Campaign adapter: one Γ×L parameter point → one runnable experiment.
//!
//! The campaign harness (`qdc-harness`) sweeps whole grids of
//! simulation-theorem networks; this module is the bridge it uses. A
//! [`SimThmPoint`] is plain `Send` data naming one grid cell; and
//! [`run_point`] executes it: build `N(Γ, L)`, embed a
//! Hamiltonian-matching subnetwork `M`, and run the Theorem 3.5 audit
//! on it ([`audited_flood`]).
//!
//! Everything here is deterministic: a point's outcome is a pure
//! function of `(gamma, l, bandwidth)`, which is what lets the harness
//! promise bit-identical aggregates regardless of thread count.

use crate::network::SimulationNetwork;
use crate::simulate::audited_flood;
use qdc_congest::{NodeClass, RunReport, Telemetry, TrafficTrace};

/// One cell of a Γ×L campaign grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimThmPoint {
    /// Requested number of paths Γ (raised by one when the track count
    /// `Γ + k` would be odd, by [`SimulationNetwork::build_even_tracks`]).
    pub gamma: usize,
    /// Requested path length L (rounded up to `2^k + 1` by the network
    /// builder).
    pub l: usize,
    /// CONGEST bandwidth `B` in qubits (the run is accounted under the
    /// quantum channel, the paper's strongest model).
    pub bandwidth: usize,
}

/// What one simulation-theorem point produced.
#[derive(Clone, Debug)]
pub struct SimThmOutcome {
    /// Traffic accounting of the traced run (capped at the horizon).
    pub metrics: RunReport,
    /// Nodes in the realized network (after Γ/L adjustment).
    pub node_count: u64,
    /// Highway count `k` of the realized network.
    pub highways: u64,
    /// The Theorem 3.5 horizon `⌊L/2⌋ − 2` the run was capped at.
    pub horizon: u64,
    /// Total bits Carol and David paid under the ownership schedule.
    pub paid_bits: u64,
    /// Maximum Carol+David paid bits in any single round.
    pub max_paid_per_round: u64,
    /// The theorem's per-round budget `6kB`.
    pub per_round_budget: u64,
    /// Whether every audited round stayed within the budget (the
    /// Theorem 3.5 claim; a campaign exists to observe this at scale).
    pub within_budget: bool,
    /// The per-round message trace the ownership audit ran on.
    pub trace: TrafficTrace,
}

/// Executes one grid point: network, embedding, traced run, audit.
///
/// `install` builds the telemetry sink from the realized network (after
/// the Γ adjustment), so a sink can size itself and classify nodes with
/// [`highway_classes`]; the driven sink comes back beside the outcome.
/// `|_| NullTelemetry` is the unobserved run, and computes no
/// classification. The sink never changes the outcome: it is
/// byte-identical observed or not.
///
/// The run is capped at the horizon `⌊L/2⌋ − 2` — Theorem 3.5 only speaks
/// about runs within it, so `metrics.completed` is usually `false`, and
/// that is the expected shape, not a failure.
///
/// # Panics
///
/// Panics if `gamma == 0` or `l < 3` (the network builder's own
/// preconditions). Campaign specs are validated before any point runs,
/// so the harness never reaches this.
pub fn run_point<T, F>(point: &SimThmPoint, install: F) -> (SimThmOutcome, T)
where
    T: Telemetry,
    F: FnOnce(&SimulationNetwork) -> T,
{
    let net = SimulationNetwork::build_even_tracks(point.gamma, point.l);
    let mut sink = install(&net);
    let m = net.hamiltonian_m();
    let run = audited_flood(&net, &m, point.bandwidth, &mut sink);
    let outcome = SimThmOutcome {
        metrics: run.report,
        node_count: net.graph().node_count() as u64,
        highways: net.highway_count() as u64,
        horizon: net.horizon() as u64,
        paid_bits: run.audit.total_paid(),
        max_paid_per_round: run.audit.max_paid_per_round,
        per_round_budget: run.audit.per_round_budget,
        within_budget: run.audit.within_budget,
        trace: run.trace,
    };
    (outcome, sink)
}

/// The node classification of `N(Γ, L)` for telemetry's traffic split:
/// tracks `0..Γ` are [`NodeClass::Path`], tracks `Γ..Γ+k` are
/// [`NodeClass::Highway`], indexed by node id.
pub fn highway_classes(net: &SimulationNetwork) -> Vec<NodeClass> {
    net.graph()
        .nodes()
        .map(|v| {
            if net.track(v) < net.path_count() {
                NodeClass::Path
            } else {
                NodeClass::Highway
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_congest::{NullTelemetry, RoundProfiler};

    /// The unobserved run of one point.
    fn plain(point: &SimThmPoint) -> SimThmOutcome {
        run_point(point, |_| NullTelemetry).0
    }

    #[test]
    fn simthm_point_is_deterministic_and_within_budget() {
        let p = SimThmPoint {
            gamma: 6,
            l: 17,
            bandwidth: 32,
        };
        let a = plain(&p);
        let b = plain(&p);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.paid_bits, b.paid_bits);
        assert_eq!(a.trace.rounds, b.trace.rounds);
        assert!(a.within_budget, "Theorem 3.5 budget must hold");
        assert!(a.metrics.rounds as u64 <= a.horizon);
        assert!(a.metrics.messages_sent > 0);
    }

    #[test]
    fn simthm_odd_track_count_is_adjusted_like_the_suite_binaries() {
        // Γ = 11, L = 17 → k = 4, 15 tracks (odd) → realized Γ = 12.
        let p = SimThmPoint {
            gamma: 11,
            l: 17,
            bandwidth: 16,
        };
        let out = plain(&p);
        let net = SimulationNetwork::build(12, 17);
        assert_eq!(out.node_count, net.graph().node_count() as u64);
    }

    #[test]
    fn simthm_observed_point_matches_plain_and_splits_traffic() {
        let p = SimThmPoint {
            gamma: 4,
            l: 9,
            bandwidth: 16,
        };
        let plain = plain(&p);
        let (observed, profiler) = run_point(&p, |net| {
            RoundProfiler::new(
                net.graph().node_count(),
                net.graph().edge_count(),
                p.bandwidth,
            )
            .with_classes(highway_classes(net))
        });
        let telemetry = profiler.finish();
        // Observation never perturbs the run.
        assert_eq!(plain.metrics, observed.metrics);
        assert_eq!(plain.paid_bits, observed.paid_bits);
        assert_eq!(plain.trace.rounds, observed.trace.rounds);
        // The profile reproduces the run's totals…
        let totals = telemetry.totals();
        assert_eq!(totals.messages, observed.metrics.messages_sent);
        assert_eq!(totals.bits, observed.metrics.bits_sent);
        assert_eq!(telemetry.rounds.len(), observed.metrics.rounds);
        // …and the highway/path split covers every delivered bit.
        assert!(telemetry.classified);
        let split: u64 = telemetry
            .rounds
            .iter()
            .map(|r| r.path_bits + r.highway_bits + r.cross_bits)
            .sum();
        assert_eq!(split, observed.metrics.bits_sent);
        // The boundary cliques guarantee cross-class traffic in a
        // component flood; pure path traffic flows along the paths.
        let cross: u64 = telemetry.rounds.iter().map(|r| r.cross_bits).sum();
        assert!(cross > 0, "path↔highway edges must carry traffic");
    }

    #[test]
    fn simthm_highway_classes_match_track_layout() {
        let net = SimulationNetwork::build(4, 9);
        let classes = highway_classes(&net);
        assert_eq!(classes.len(), net.graph().node_count());
        let highways = classes.iter().filter(|c| **c == NodeClass::Highway).count();
        let paths = classes.len() - highways;
        // Γ paths of L nodes; k highways thin out with height but share
        // the same class.
        assert_eq!(paths, net.path_count() * net.length());
        assert!(highways > 0);
    }
}
