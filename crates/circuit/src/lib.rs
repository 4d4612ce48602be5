//! Quantum circuit intermediate representation.
//!
//! The MarQSim compiler ultimately emits quantum circuits built from
//! single-qubit gates, CNOTs, and `Rz` rotations (§2.2–2.3 of the paper).
//! This crate provides:
//!
//! * [`Gate`] — the gate set (`H`, `X`, `Y`, `Z`, `S`, `S†`, `Rx`, `Ry`,
//!   `Rz`, `CNOT`, global phase).
//! * [`Circuit`] — an ordered gate list with qubit bookkeeping, gate
//!   statistics and depth computation.
//! * [`synthesis`] — Pauli-rotation synthesis: `exp(iθP)` → basis changes +
//!   CNOT ladder + `Rz` (+ mirrored suffix), exactly as in Fig. 3.
//! * [`cancellation`] — a peephole gate-cancellation pass (adjacent inverse
//!   pairs, `Rz` merging) in the style of Gui et al. \[22\]; this is the
//!   post-pass the paper's baseline applies to the qDRIFT output.
//! * [`GateStats`] — gate-count/depth summary used by every experiment.
//! * [`qasm`] — OpenQASM 2.0 export of compiled circuits.
//!
//! # Example
//!
//! ```
//! use marqsim_circuit::{synthesis, Circuit};
//! use marqsim_pauli::PauliString;
//!
//! let p: PauliString = "XYZI".parse().unwrap();
//! let mut circuit = Circuit::new(4);
//! synthesis::append_pauli_rotation(&mut circuit, &p, 0.3);
//! assert_eq!(circuit.cnot_count(), 4);
//! ```

mod circuit;
mod gate;
mod stats;

pub mod cancellation;
pub mod qasm;
pub mod synthesis;

pub use circuit::Circuit;
pub use gate::{Gate, Qubits};
pub use stats::GateStats;
