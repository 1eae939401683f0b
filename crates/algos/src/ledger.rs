//! Cost accounting across composed simulation stages.

use qdc_congest::{NodeAlgorithm, NodeInfo, RunReport, Simulator};

/// Accumulated cost of a multi-stage distributed algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Total communication rounds across all stages.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: u64,
    /// Total payload bits (or qubits) delivered.
    pub bits: u64,
    /// Number of stages (separate simulator runs) composed.
    pub stages: usize,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Absorbs one stage's run report.
    ///
    /// # Panics
    ///
    /// Panics if the stage did not complete (hit its round cap) — composed
    /// algorithms rely on every stage reaching quiescence.
    pub fn absorb(&mut self, report: &RunReport) {
        assert!(
            report.completed,
            "stage hit its round cap without reaching quiescence"
        );
        self.rounds += report.rounds;
        self.messages += report.messages_sent;
        self.bits += report.bits_sent;
        self.stages += 1;
    }

    /// Runs one stage on `sim` (at most `cap` rounds), charges it, and
    /// hands back the final node states.
    ///
    /// # Panics
    ///
    /// Panics if the stage hits `cap` without reaching quiescence.
    pub(crate) fn run<A: NodeAlgorithm>(
        &mut self,
        sim: &Simulator,
        cap: usize,
        init: impl FnMut(&NodeInfo) -> A,
    ) -> Vec<A> {
        let (nodes, report) = sim.run(init, cap);
        self.absorb(&report);
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rounds: usize, messages: u64, bits: u64, completed: bool) -> RunReport {
        RunReport {
            rounds,
            completed,
            messages_sent: messages,
            bits_sent: bits,
            ..RunReport::default()
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut l = Ledger::new();
        l.absorb(&report(3, 10, 80, true));
        l.absorb(&report(2, 5, 40, true));
        assert_eq!(l.rounds, 5);
        assert_eq!(l.messages, 15);
        assert_eq!(l.bits, 120);
        assert_eq!(l.stages, 2);
    }

    #[test]
    #[should_panic(expected = "round cap")]
    fn incomplete_stage_rejected() {
        Ledger::new().absorb(&report(3, 1, 1, false));
    }
}
