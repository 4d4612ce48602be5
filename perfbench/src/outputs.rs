//! Bit-exact digests of program outputs, and the expected-output record.
//!
//! Every float enters a digest as its bit pattern, so two outputs share a
//! digest only if they are identical bit for bit.

use marqsim_circuit::{Circuit, Gate, GateStats};
use marqsim_core::experiment::ExperimentPoint;
use marqsim_core::metrics::SequenceStats;
use marqsim_serve::{CompileSummary, Json};

use crate::inputs::{Digest, Scale};

pub fn sequence_stats(d: &mut Digest, s: &SequenceStats) {
    for v in [s.cnot, s.single_qubit, s.rz, s.total, s.segments] {
        d.u64(v as u64);
    }
}

pub fn gate_stats(d: &mut Digest, s: &GateStats) {
    for v in [s.cnot, s.single_qubit, s.rz, s.total, s.depth] {
        d.u64(v as u64);
    }
}

fn fidelity(d: &mut Digest, f: Option<f64>) {
    match f {
        Some(f) => d.f64(f),
        None => d.u64(u64::MAX),
    }
}

pub fn point(d: &mut Digest, p: &ExperimentPoint) {
    d.f64(p.epsilon);
    d.u64(p.seed);
    d.u64(p.num_samples as u64);
    sequence_stats(d, &p.stats);
    fidelity(d, p.fidelity);
}

pub fn circuit(d: &mut Digest, c: &Circuit) {
    d.u64(c.num_qubits() as u64);
    d.u64(c.len() as u64);
    for gate in c.gates() {
        let (tag, a, b) = match *gate {
            Gate::H(q) => (0, q, 0),
            Gate::X(q) => (1, q, 0),
            Gate::Y(q) => (2, q, 0),
            Gate::Z(q) => (3, q, 0),
            Gate::S(q) => (4, q, 0),
            Gate::Sdg(q) => (5, q, 0),
            Gate::Rx(q, t) => (6, q, t.to_bits() as usize),
            Gate::Ry(q, t) => (7, q, t.to_bits() as usize),
            Gate::Rz(q, t) => (8, q, t.to_bits() as usize),
            Gate::Cnot { control, target } => (9, control, target),
            Gate::GlobalPhase(p) => (10, 0, p.to_bits() as usize),
        };
        d.u64(tag);
        d.u64(a as u64);
        d.u64(b as u64);
    }
}

/// Whether two outputs are identical bit for bit under `digest`.
pub fn same<T>(a: &T, b: &T, digest: impl Fn(&mut Digest, &T)) -> bool {
    let (mut da, mut db) = (Digest::default(), Digest::default());
    digest(&mut da, a);
    digest(&mut db, b);
    da.finish() == db.finish()
}

pub fn summary(d: &mut Digest, s: &CompileSummary) {
    d.u64(s.num_samples as u64);
    d.f64(s.lambda);
    sequence_stats(d, &s.stats);
    fidelity(d, s.fidelity);
}

/// Digests recorded for [`crate::inputs::DEFAULT_SEED`], per scale and
/// workload.
const EXPECTED: &str = include_str!("../expected/outputs.json");

/// Compares `digest` with the recorded output digest of `workload` at
/// `scale`. `None` means no record applies (another seed, or no entry).
pub fn matches_expected(workload: &str, scale: Scale, digest: &Digest) -> Option<bool> {
    let record = Json::parse(EXPECTED).expect("expected/outputs.json is valid JSON");
    let hex = record.get(scale.as_str())?.get(workload)?.as_str()?;
    Some(hex == digest.hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_record_parses_and_covers_every_workload() {
        for scale in [Scale::Full, Scale::Quick] {
            for workload in crate::WORKLOADS {
                let hex = Json::parse(EXPECTED)
                    .unwrap()
                    .get(scale.as_str())
                    .and_then(|s| s.get(workload))
                    .and_then(Json::as_str)
                    .map(str::to_string);
                let hex = hex.unwrap_or_else(|| panic!("no record for {workload}"));
                assert_eq!(hex.len(), 16, "{workload}: {hex}");
            }
        }
    }

    #[test]
    fn digests_see_every_bit_of_a_float() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(0.1);
        b.f64(f64::from_bits(0.1f64.to_bits() + 1));
        assert_ne!(a.finish(), b.finish());
    }
}
