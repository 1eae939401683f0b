//! Deterministic, seeded fault injection for the CONGEST simulator.
//!
//! The paper's model (Section 2.1 / Appendix A.1) is perfectly
//! synchronous and fault-free; a simulator growing toward production
//! scale must also stay correct when it is not. This module supplies the
//! fault side: a [`ChaosConfig`] describes *which* faults to inject
//! (message drops, crash-stop failures, payload corruption, a runaway
//! watchdog) and a [`FaultPlan`] — built from the config and a
//! [`ChaCha8Rng`] keyed by its seed — makes the actual per-message
//! decisions. Because the round engine consults the plan in one fixed
//! delivery order (sender id, then port), two runs with the same config
//! replay **byte-exactly**: same drops, same corruptions, same
//! [`RunReport`](crate::RunReport), whether executed in batch
//! ([`Simulator::try_run`](crate::Simulator::try_run)), observed by a
//! trace or any other sink
//! ([`try_run_observed`](crate::Simulator::try_run_observed)) or one
//! round at a time ([`Stepper::with_chaos`](crate::Stepper::with_chaos)).
//!
//! Faults only ever *remove* information: a dropped message vanishes, a
//! crashed node stops sending and receiving, and a corrupted payload is
//! bit-flipped or truncated — never extended — so injection can never
//! push a message past the `B`-bit budget.

use crate::message::Message;
use crate::sim::SimError;
use qdc_graph::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Declarative description of the faults to inject into one run.
///
/// The default config injects nothing (and allows a generous watchdog),
/// so `ChaosConfig::default()` turns [`try_run`](crate::Simulator::try_run)
/// into a fallible-but-fault-free twin of [`run`](crate::Simulator::run).
///
/// # Example
///
/// ```
/// use qdc_congest::ChaosConfig;
/// use qdc_graph::NodeId;
///
/// let chaos = ChaosConfig {
///     seed: 7,
///     drop_prob: 0.1,
///     crash_schedule: vec![(NodeId(3), 5)], // node 3 crash-stops at round 5
///     corrupt_prob: 0.01,
///     max_rounds_watchdog: 1_000,
/// };
/// assert!(chaos.drop_prob < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the ChaCha8 stream behind every probabilistic decision.
    /// Equal seeds (with equal configs) replay byte-exactly.
    pub seed: u64,
    /// Probability that a delivered message is dropped in flight.
    pub drop_prob: f64,
    /// Crash-stop schedule: `(v, r)` crashes node `v` at the start of
    /// round `r` (1-based, matching
    /// [`StepSummary::round`](crate::StepSummary::round)). From round
    /// `r` on, `v` neither sends nor receives — messages it queued in
    /// round `r − 1` are still in flight and die with it.
    pub crash_schedule: Vec<(NodeId, usize)>,
    /// Probability that a surviving non-empty message is corrupted (one
    /// random bit flipped, or the payload truncated — never extended, so
    /// the `B`-bit budget still holds).
    pub corrupt_prob: f64,
    /// Round cap for [`try_run`](crate::Simulator::try_run): a run that
    /// has not reached quiescence after this many rounds fails with
    /// [`SimError::WatchdogTripped`].
    pub max_rounds_watchdog: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::fault_free(100_000)
    }
}

impl ChaosConfig {
    /// A config injecting no faults at all, with the given watchdog cap —
    /// under it, [`try_run`](crate::Simulator::try_run) reproduces
    /// [`run`](crate::Simulator::run) bit for bit.
    pub fn fault_free(max_rounds_watchdog: usize) -> Self {
        ChaosConfig {
            seed: 0,
            drop_prob: 0.0,
            crash_schedule: Vec::new(),
            corrupt_prob: 0.0,
            max_rounds_watchdog,
        }
    }

    /// Validates the probabilities.
    ///
    /// Returns [`SimError::InvalidChaosConfig`] if either probability is
    /// outside `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), SimError> {
        for p in [self.drop_prob, self.corrupt_prob] {
            if !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidChaosConfig { prob: p });
            }
        }
        Ok(())
    }
}

/// Cumulative fault counts, threaded into
/// [`RunReport`](crate::RunReport) after every round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages removed in flight (random drops plus messages lost to a
    /// crashed sender or receiver).
    pub messages_dropped: u64,
    /// Nodes whose crash schedule has activated.
    pub nodes_crashed: u64,
    /// Total payload bits flipped or truncated away by corruption.
    pub bits_corrupted: u64,
}

/// The fate of one in-flight message, as decided by
/// [`FaultPlan::decide`].
///
/// The columnar round engine applies the action to its bit-packed
/// payload slab (a word XOR for `Toggle`, a length cut for `Truncate`)
/// instead of materialising a `Message` first; [`FaultPlan::filter`]
/// applies the same action to a `Message` in place. Both paths draw the
/// same randomness in the same order, so they replay byte-exactly under
/// the same config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the payload untouched.
    Deliver,
    /// Remove the message in flight.
    Drop,
    /// Deliver with payload bit `i` flipped.
    Toggle(usize),
    /// Deliver only the first `keep` payload bits.
    Truncate(usize),
}

/// The executable form of a [`ChaosConfig`]: one seeded RNG stream plus
/// per-node crash state, consulted by the round engine at delivery time.
///
/// Determinism contract: callers must (1) call
/// [`begin_round`](FaultPlan::begin_round) exactly once per synchronous
/// round before any delivery, and (2) call
/// [`decide`](FaultPlan::decide) (or [`filter`](FaultPlan::filter)) for
/// every in-flight message in the engine's fixed delivery order
/// (ascending sender id, then ascending port). The engine follows it
/// with `decide`; a plan that follows it with `filter` on copies of the
/// sent messages predicts every delivery of the engine under the same
/// config.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: ChaCha8Rng,
    drop_prob: f64,
    corrupt_prob: f64,
    /// Scheduled crash round per node (`None` = never crashes).
    crash_round: Vec<Option<usize>>,
    crashed: Vec<bool>,
    /// Nodes whose crash activated in the current round, in ascending id
    /// order — refilled by every [`begin_round`](FaultPlan::begin_round).
    fresh_crashes: Vec<NodeId>,
    round: usize,
    stats: FaultStats,
}

impl FaultPlan {
    /// Builds the plan for a `node_count`-node network.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled node id is out of range; call
    /// [`ChaosConfig::validate`] first to reject bad probabilities
    /// without panicking (the simulator's `try_run` does).
    pub fn new(config: &ChaosConfig, node_count: usize) -> Self {
        let mut crash_round = vec![None; node_count];
        for &(v, r) in &config.crash_schedule {
            assert!(
                v.index() < node_count,
                "crash schedule names node {v} but the network has {node_count} nodes"
            );
            // Earliest scheduled crash wins if a node is listed twice.
            let slot = &mut crash_round[v.index()];
            *slot = Some(slot.map_or(r, |prev: usize| prev.min(r)));
        }
        FaultPlan {
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            drop_prob: config.drop_prob,
            corrupt_prob: config.corrupt_prob,
            crash_round,
            crashed: vec![false; node_count],
            fresh_crashes: Vec::new(),
            round: 0,
            stats: FaultStats::default(),
        }
    }

    /// Advances the round counter (1-based after the first call) and
    /// activates any crashes scheduled at or before the new round.
    pub fn begin_round(&mut self) {
        self.round += 1;
        self.fresh_crashes.clear();
        for v in 0..self.crashed.len() {
            if !self.crashed[v] && self.crash_round[v].is_some_and(|r| self.round >= r) {
                self.crashed[v] = true;
                self.stats.nodes_crashed += 1;
                self.fresh_crashes.push(NodeId(v as u32));
            }
        }
    }

    /// The nodes whose crash-stop activated in the current round (empty
    /// on fault-free rounds), in ascending id order. Telemetry sinks use
    /// this to attribute crash events to the round they struck.
    pub fn crashes_this_round(&self) -> &[NodeId] {
        &self.fresh_crashes
    }

    /// The current round (0 before the first
    /// [`begin_round`](FaultPlan::begin_round)).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Decides the fate of one `bits`-bit in-flight message `from → to`
    /// without materialising its payload. Fault counters update exactly
    /// as for [`filter`](FaultPlan::filter), and the RNG draws are
    /// identical, so engines consuming actions and engines consuming
    /// filtered messages stay in lockstep under the same config.
    ///
    /// Corruption picks by coin flip between toggling one uniformly
    /// random bit and truncating to a uniformly random shorter length.
    /// Both strictly shrink-or-preserve the bit length, so the result
    /// always fits the original `B`-bit budget.
    pub fn decide(&mut self, from: NodeId, to: NodeId, bits: usize) -> FaultAction {
        if self.crashed[from.index()] || self.crashed[to.index()] {
            self.stats.messages_dropped += 1;
            return FaultAction::Drop;
        }
        if self.drop_prob > 0.0 && self.rng.gen_bool(self.drop_prob) {
            self.stats.messages_dropped += 1;
            return FaultAction::Drop;
        }
        if self.corrupt_prob > 0.0 && bits > 0 && self.rng.gen_bool(self.corrupt_prob) {
            if self.rng.gen_bool(0.5) {
                let i = self.rng.gen_range(0..bits);
                self.stats.bits_corrupted += 1;
                return FaultAction::Toggle(i);
            }
            let keep = self.rng.gen_range(0..bits);
            self.stats.bits_corrupted += (bits - keep) as u64;
            return FaultAction::Truncate(keep);
        }
        FaultAction::Deliver
    }

    /// Decides the fate of one in-flight message `from → to`. Returns
    /// `true` to deliver (possibly after corrupting `msg` in place) or
    /// `false` to drop it; fault counters update either way.
    ///
    /// This is [`decide`](FaultPlan::decide) applied to a materialised
    /// `Message` — the two share one implementation and one RNG stream.
    /// It is the message-level reference of `decide`: the round engine
    /// applies `decide`'s actions to its bit-packed payload slab, and
    /// the tier-1 `chaos_properties` tests check those deliveries
    /// against `filter` on the sent messages.
    pub fn filter(&mut self, from: NodeId, to: NodeId, msg: &mut Message) -> bool {
        match self.decide(from, to, msg.bit_len()) {
            FaultAction::Drop => false,
            FaultAction::Deliver => true,
            FaultAction::Toggle(i) => {
                msg.payload_mut().toggle(i);
                true
            }
            FaultAction::Truncate(keep) => {
                msg.payload_mut().truncate(keep);
                true
            }
        }
    }

    /// The fault counts so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(width: usize) -> Message {
        Message::from_uint((1u64 << width) - 1, width)
    }

    #[test]
    fn chaos_fault_free_plan_touches_nothing() {
        let mut plan = FaultPlan::new(&ChaosConfig::fault_free(10), 4);
        plan.begin_round();
        for p in 0..3 {
            let mut m = msg(8);
            assert!(plan.filter(NodeId(0), NodeId(p + 1), &mut m));
            assert_eq!(m, msg(8));
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn chaos_drop_prob_one_drops_everything() {
        let cfg = ChaosConfig {
            drop_prob: 1.0,
            ..ChaosConfig::fault_free(10)
        };
        let mut plan = FaultPlan::new(&cfg, 2);
        plan.begin_round();
        let mut m = msg(4);
        assert!(!plan.filter(NodeId(0), NodeId(1), &mut m));
        assert_eq!(plan.stats().messages_dropped, 1);
    }

    #[test]
    fn chaos_crash_activates_at_scheduled_round_and_kills_traffic() {
        let cfg = ChaosConfig {
            crash_schedule: vec![(NodeId(1), 2)],
            ..ChaosConfig::fault_free(10)
        };
        let mut plan = FaultPlan::new(&cfg, 3);
        plan.begin_round(); // round 1: not yet crashed
        assert!(plan.crashes_this_round().is_empty());
        let mut m = msg(4);
        assert!(plan.filter(NodeId(1), NodeId(0), &mut m));
        plan.begin_round(); // round 2: crash activates
        assert_eq!(plan.crashes_this_round(), &[NodeId(1)]);
        assert!(!plan.filter(NodeId(1), NodeId(0), &mut m)); // sender dead
        assert!(!plan.filter(NodeId(2), NodeId(1), &mut m)); // receiver dead
        assert!(plan.filter(NodeId(2), NodeId(0), &mut m)); // bystanders fine
        let stats = plan.stats();
        assert_eq!(stats.nodes_crashed, 1);
        assert_eq!(stats.messages_dropped, 2);
    }

    #[test]
    fn chaos_corruption_never_grows_the_payload() {
        let cfg = ChaosConfig {
            seed: 11,
            corrupt_prob: 1.0,
            ..ChaosConfig::fault_free(10)
        };
        let mut plan = FaultPlan::new(&cfg, 2);
        plan.begin_round();
        for _ in 0..200 {
            let mut m = msg(16);
            assert!(plan.filter(NodeId(0), NodeId(1), &mut m));
            assert!(m.bit_len() <= 16, "corruption grew the message");
        }
        assert!(plan.stats().bits_corrupted > 0);
        // Empty messages have no bits to corrupt and draw no randomness.
        let mut empty = Message::empty();
        assert!(plan.filter(NodeId(0), NodeId(1), &mut empty));
        assert_eq!(empty.bit_len(), 0);
    }

    #[test]
    fn chaos_fresh_crashes_report_only_the_activating_round() {
        let cfg = ChaosConfig {
            crash_schedule: vec![(NodeId(2), 2), (NodeId(0), 2), (NodeId(1), 3)],
            ..ChaosConfig::fault_free(10)
        };
        let mut plan = FaultPlan::new(&cfg, 4);
        plan.begin_round();
        assert!(plan.crashes_this_round().is_empty());
        plan.begin_round();
        assert_eq!(plan.crashes_this_round(), [NodeId(0), NodeId(2)]);
        plan.begin_round();
        assert_eq!(plan.crashes_this_round(), [NodeId(1)]);
        plan.begin_round();
        assert!(plan.crashes_this_round().is_empty());
    }

    #[test]
    fn chaos_same_seed_same_decisions() {
        let cfg = ChaosConfig {
            seed: 99,
            drop_prob: 0.3,
            corrupt_prob: 0.2,
            ..ChaosConfig::fault_free(10)
        };
        let run = |cfg: &ChaosConfig| {
            let mut plan = FaultPlan::new(cfg, 4);
            let mut outcomes = Vec::new();
            for r in 0..20 {
                plan.begin_round();
                for s in 0..3u32 {
                    let mut m = msg(12);
                    let delivered = plan.filter(NodeId(s), NodeId((s + 1) % 4), &mut m);
                    outcomes.push((r, s, delivered, m));
                }
            }
            (outcomes, plan.stats())
        };
        assert_eq!(run(&cfg), run(&cfg));
        let other = ChaosConfig {
            seed: 100,
            ..cfg.clone()
        };
        assert_ne!(run(&cfg).0, run(&other).0);
    }

    #[test]
    fn chaos_decide_and_filter_make_identical_decisions() {
        let cfg = ChaosConfig {
            seed: 42,
            drop_prob: 0.25,
            corrupt_prob: 0.4,
            crash_schedule: vec![(NodeId(3), 4)],
            ..ChaosConfig::fault_free(50)
        };
        let mut by_action = FaultPlan::new(&cfg, 5);
        let mut by_filter = FaultPlan::new(&cfg, 5);
        for _ in 0..30 {
            by_action.begin_round();
            by_filter.begin_round();
            for s in 0..4u32 {
                let mut m = msg(12);
                let action = by_action.decide(NodeId(s), NodeId((s + 1) % 5), 12);
                let delivered = by_filter.filter(NodeId(s), NodeId((s + 1) % 5), &mut m);
                match action {
                    FaultAction::Drop => assert!(!delivered),
                    FaultAction::Deliver => {
                        assert!(delivered);
                        assert_eq!(m, msg(12));
                    }
                    FaultAction::Toggle(i) => {
                        assert!(delivered);
                        let mut want = msg(12);
                        want.payload_mut().toggle(i);
                        assert_eq!(m, want);
                    }
                    FaultAction::Truncate(keep) => {
                        assert!(delivered);
                        assert_eq!(m.bit_len(), keep);
                    }
                }
            }
            assert_eq!(by_action.stats(), by_filter.stats());
        }
        let stats = by_action.stats();
        assert!(stats.messages_dropped > 0 && stats.bits_corrupted > 0);
    }

    #[test]
    fn chaos_config_validation_rejects_bad_probabilities() {
        let mut cfg = ChaosConfig::fault_free(10);
        assert!(cfg.validate().is_ok());
        cfg.drop_prob = 1.5;
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidChaosConfig { .. })
        ));
        cfg.drop_prob = f64::NAN;
        assert!(cfg.validate().is_err());
    }
}
