//! The two-party record: who sent each bit, and what it cost.
//!
//! The standard model (Kushilevitz–Nisan, referenced as \[KN97\] by the
//! paper): Alice holds `x`, Bob holds `y`, they alternate messages, and
//! the cost is the total number of bits exchanged.
//! [`crate::server::simulate_in_two_party`] reports its runs as a
//! [`TwoPartyRun`], whose explicit transcript lets tests check that the
//! two-party cost equals the Server-model cost bit for bit.

/// Which party moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Party {
    /// Alice (holds `x`).
    Alice,
    /// Bob (holds `y`).
    Bob,
}

/// The record of one protocol execution.
#[derive(Clone, Debug)]
pub struct TwoPartyRun {
    /// The computed output.
    pub output: bool,
    /// Bits sent by Alice.
    pub alice_bits: usize,
    /// Bits sent by Bob.
    pub bob_bits: usize,
    /// The full transcript as `(sender, bit)` pairs.
    pub transcript: Vec<(Party, bool)>,
}

impl TwoPartyRun {
    /// Total communication cost in bits.
    pub fn total_bits(&self) -> usize {
        self.alice_bits + self.bob_bits
    }
}
