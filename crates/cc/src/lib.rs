//! Communication-complexity substrate: two-party and Server models.
//!
//! The paper's lower-bound pipeline starts in communication complexity:
//!
//! * concrete **problems** — Equality, Set Disjointness, Inner Product,
//!   `IPmod3` and the gap version `δ-Eq` (Section 6) — in [`problems`];
//! * the **Server model** (Definition 3.1: Carol, David, and a server that
//!   talks for free) in [`server`], with bit-exact costs and the classical
//!   two-party ⇄ server equivalence simulation sketched in Section 3.1,
//!   whose transcripts are the [`twoparty`] records;
//! * **fooling sets** and the one-sided quantum bound of Klauck–de Wolf
//!   used for `δ-Eq` in [`fooling`];
//! * greedy **Gilbert–Varshamov codes** (the fooling-set raw material,
//!   Section 6) in [`codes`];
//! * the **spectral quantities of Appendix B.3** (the strongly balanced
//!   4×4 gadget matrix with ‖A_g‖ = 2√2, Paturi's degree bound, and the
//!   composed `IPmod3` lower bound) in [`norms`].
//!
//! # Example
//!
//! ```
//! use qdc_cc::problems::{IpMod3, TwoPartyFunction};
//!
//! let f = IpMod3::new(4);
//! // ⟨x, y⟩ = 3 ≡ 0 (mod 3) ⇒ output 1 (per the paper's convention).
//! let x = vec![true, true, true, false];
//! let y = vec![true, true, true, true];
//! assert!(f.evaluate(&x, &y));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codes;
pub mod fooling;
pub mod norms;
pub mod problems;
pub mod server;
pub mod twoparty;
