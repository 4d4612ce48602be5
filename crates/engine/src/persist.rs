//! Opt-in disk persistence for solved `P_gc` components.
//!
//! The gate-cancellation matrix `P_gc` — the min-cost-flow solve that
//! dominates compile time (§6.6, Table 2) — is a pure function of the
//! (dominant-term-split) Hamiltonian, and the Hamiltonian fingerprint is
//! stable across processes and platforms. Spilling each solved matrix to a
//! file keyed by that fingerprint therefore makes repeated benchmark runs
//! (CI, figure regeneration) nearly free: a fresh process loads the matrix
//! instead of re-solving the flow model.
//!
//! # File format (version 3)
//!
//! One file per component, named `pgc-<fingerprint:016x>.mqsc`, all fields
//! little-endian:
//!
//! ```text
//! magic   4  b"MQSC"
//! version u32
//! fingerprint u64          -- hamiltonian_fingerprint of the stored H
//! num_qubits  u64
//! num_terms   u64
//! terms       num_terms ×  (coefficient f64 bits as u64,
//!                           num_qubits × PauliOp byte)
//! states      u64          -- matrix dimension (== num_terms)
//! rows        states² × f64 bits as u64
//! basis_flag  u8           -- 0 = no spanning basis follows, 1 = it does
//! [when basis_flag == 1]
//! topology    u64          -- flow-network topology fingerprint
//! num_nodes   u64          -- real node count of the solved network
//! num_real    u64          -- real arc count
//! arc_states  (num_real + num_nodes) × u8
//! arc_flows   (num_real + num_nodes) × f64 bits as u64
//! ```
//!
//! The basis section (version 3) stores the network simplex's optimal
//! spanning basis next to the matrix, so a later process warm-starts the
//! `P_rp` perturbation solves from the loaded basis exactly as the
//! original process did; `ssp` components write `basis_flag = 0`.
//!
//! # Safety against collisions and stale files
//!
//! A load is only accepted if (1) magic, version, and fingerprint match,
//! (2) the *full Hamiltonian* stored in the file is equal — term by term,
//! exact coefficient bits — to the Hamiltonian being requested, and (3) the
//! matrix passes [`TransitionMatrix::new`]'s row-stochasticity validation.
//! A 64-bit fingerprint collision or a stale/corrupt file therefore
//! degrades to a cache miss (the component is re-solved), never a wrong
//! matrix. The final combined transition matrix is additionally re-checked
//! against both Theorem 4.1 conditions by the regular build path, loaded
//! component or not.
//!
//! Writes go through a process-unique temporary file followed by a rename,
//! so concurrent processes sharing one cache directory never observe a
//! torn file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use marqsim_core::{SolverKind, SpanningBasis};
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::{Hamiltonian, PauliOp, PauliString, Term};

const MAGIC: &[u8; 4] = b"MQSC";
/// Format/provenance version. Bumped to 2 with the pluggable-solver
/// redesign: the default backend's non-negative fast path may select a
/// different (equally optimal) flow than the pre-redesign solver did on
/// degenerate instances, so files solved by the old code must not mix with
/// fresh solves — the version gate degrades them to a one-time re-solve.
/// Bumped to 3 with warm-start re-solves: version-3 files append the
/// solve's spanning basis (see the module docs), and version-2 files are
/// re-solved rather than loaded so a cached matrix is never paired with a
/// missing basis (which would make warm-started `P_rp` samples depend on
/// which process solved `P_gc`).
const VERSION: u32 = 3;

/// Path of the component file for a fingerprint inside `dir` (the default
/// backend's layout, unchanged since version 1 so existing cache
/// directories stay valid).
pub(crate) fn component_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("pgc-{fingerprint:016x}.mqsc"))
}

/// Path of the component file for a fingerprint solved by `solver`.
/// Non-default backends get a backend-tagged file name: backends guarantee
/// equal optimal cost but may pick different optimal flows on degenerate
/// instances, so persisted components are never shared across backends.
pub(crate) fn component_path_for(dir: &Path, fingerprint: u64, solver: SolverKind) -> PathBuf {
    match solver {
        SolverKind::SuccessiveShortestPath => component_path(dir, fingerprint),
        other => dir.join(format!("pgc-{fingerprint:016x}.{}.mqsc", other.as_str())),
    }
}

/// Serializes `(ham, matrix, basis)` into the version-3 binary format.
fn encode(
    fingerprint: u64,
    ham: &Hamiltonian,
    matrix: &TransitionMatrix,
    basis: Option<&SpanningBasis>,
) -> Vec<u8> {
    let n = matrix.num_states();
    let mut out = Vec::with_capacity(4 + 4 + 8 * 3 + ham.num_terms() * 16 + n * n * 8 + 1);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(ham.num_qubits() as u64).to_le_bytes());
    out.extend_from_slice(&(ham.num_terms() as u64).to_le_bytes());
    for term in ham.terms() {
        out.extend_from_slice(&term.coefficient.to_bits().to_le_bytes());
        for op in term.string.ops() {
            out.push(*op as u8);
        }
    }
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for row in matrix.rows() {
        for &p in row {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    match basis {
        Some(basis) => {
            out.push(1);
            out.extend_from_slice(&basis.topology().to_le_bytes());
            out.extend_from_slice(&(basis.num_nodes() as u64).to_le_bytes());
            out.extend_from_slice(&(basis.num_real_arcs() as u64).to_le_bytes());
            out.extend_from_slice(&basis.state_bytes());
            for &flow in basis.flows() {
                out.extend_from_slice(&flow.to_bits().to_le_bytes());
            }
        }
        None => out.push(0),
    }
    out
}

/// Writes the solved component for `fingerprint` to `dir`, creating the
/// directory if needed. Atomic against concurrent readers and writers
/// (temp file + rename).
///
/// # Errors
///
/// Propagates filesystem errors; the caller treats them as "persistence
/// unavailable", never as a compile failure.
pub(crate) fn save_component(
    dir: &Path,
    fingerprint: u64,
    solver: SolverKind,
    ham: &Hamiltonian,
    matrix: &TransitionMatrix,
    basis: Option<&SpanningBasis>,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let bytes = encode(fingerprint, ham, matrix, basis);
    // Unique per call, not just per process: concurrent misses on one key
    // may both solve and both save (see the cache docs), and they must not
    // interleave writes through a shared temp path.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(
        "pgc-{fingerprint:016x}.tmp.{}.{seq}",
        std::process::id()
    ));
    fs::write(&tmp, &bytes)?;
    let result = fs::rename(&tmp, component_path_for(dir, fingerprint, solver));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Loads the component for `fingerprint` solved by `solver` from `dir`,
/// returning `None` — a plain cache miss — unless every validation
/// described in the module docs passes against `expected`. The second
/// element is the persisted spanning basis, when the solve exported one.
pub(crate) fn load_component(
    dir: &Path,
    fingerprint: u64,
    solver: SolverKind,
    expected: &Hamiltonian,
) -> Option<(TransitionMatrix, Option<SpanningBasis>)> {
    let bytes = fs::read(component_path_for(dir, fingerprint, solver)).ok()?;
    decode(&bytes, fingerprint, expected)
}

fn decode(
    bytes: &[u8],
    fingerprint: u64,
    expected: &Hamiltonian,
) -> Option<(TransitionMatrix, Option<SpanningBasis>)> {
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.take(4)? != MAGIC {
        return None;
    }
    if cursor.u32()? != VERSION {
        return None;
    }
    if cursor.u64()? != fingerprint {
        return None;
    }
    let num_qubits = cursor.u64()? as usize;
    let num_terms = cursor.u64()? as usize;
    // The expected Hamiltonian is in hand, so pin the header to it before
    // allocating anything: a corrupt ~40-byte file must not be able to
    // request a multi-hundred-MB buffer.
    if num_qubits != expected.num_qubits() || num_terms != expected.num_terms() {
        return None;
    }
    let mut terms = Vec::with_capacity(num_terms);
    for _ in 0..num_terms {
        let coefficient = f64::from_bits(cursor.u64()?);
        let mut ops = Vec::with_capacity(num_qubits);
        for &byte in cursor.take(num_qubits)? {
            ops.push(PauliOp::from_bits(byte & 0b10 != 0, byte & 0b01 != 0));
            if byte > 0b11 {
                return None;
            }
        }
        terms.push(Term::new(coefficient, PauliString::from_ops(ops)));
    }
    let stored = Hamiltonian::new(terms).ok()?;
    if stored != *expected {
        // Fingerprint collision or stale file: fall back to solving.
        return None;
    }
    let n = cursor.u64()? as usize;
    if n != expected.num_terms() {
        return None;
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(f64::from_bits(cursor.u64()?));
        }
        rows.push(row);
    }
    let basis = match cursor.take(1)? {
        [0] => None,
        [1] => {
            let topology = cursor.u64()?;
            let num_nodes = cursor.u64()? as usize;
            let num_real = cursor.u64()? as usize;
            let total = num_real.checked_add(num_nodes)?;
            // `take` bounds `total` against the remaining bytes before any
            // allocation, mirroring the header guard above.
            let state_bytes = cursor.take(total)?;
            let mut flows = Vec::with_capacity(total);
            for _ in 0..total {
                flows.push(f64::from_bits(cursor.u64()?));
            }
            Some(SpanningBasis::from_raw(
                topology,
                num_nodes,
                num_real,
                state_bytes,
                flows,
            )?)
        }
        _ => return None,
    };
    if cursor.pos != bytes.len() {
        return None;
    }
    Some((TransitionMatrix::new(rows).ok()?, basis))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::hamiltonian_fingerprint;
    use marqsim_core::gate_cancel::{gate_cancellation_matrix, gate_cancellation_matrix_with};

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("marqsim-persist-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_restores_the_exact_matrix() {
        let dir = temp_dir("roundtrip");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let matrix = gate_cancellation_matrix(&ham).unwrap();
        save_component(&dir, fp, SolverKind::default(), &ham, &matrix, None).unwrap();
        let (loaded, basis) =
            load_component(&dir, fp, SolverKind::default(), &ham).expect("valid file loads");
        assert_eq!(loaded, matrix, "bit-identical rows");
        assert!(basis.is_none(), "no basis was saved");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_restores_the_spanning_basis() {
        let dir = temp_dir("basis-roundtrip");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, _, basis) =
            gate_cancellation_matrix_with(&ham, SolverKind::NetworkSimplex).unwrap();
        let basis = basis.expect("network simplex exports its optimal basis");
        save_component(
            &dir,
            fp,
            SolverKind::NetworkSimplex,
            &ham,
            &matrix,
            Some(&basis),
        )
        .unwrap();
        let (loaded, loaded_basis) =
            load_component(&dir, fp, SolverKind::NetworkSimplex, &ham).expect("valid file loads");
        assert_eq!(loaded, matrix, "bit-identical rows");
        let loaded_basis = loaded_basis.expect("basis section round-trips");
        assert_eq!(loaded_basis.topology(), basis.topology());
        assert_eq!(loaded_basis.num_nodes(), basis.num_nodes());
        assert_eq!(loaded_basis.num_real_arcs(), basis.num_real_arcs());
        assert_eq!(loaded_basis.state_bytes(), basis.state_bytes());
        assert_eq!(loaded_basis.flows(), basis.flows());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backends_persist_to_separate_files() {
        let dir = temp_dir("backend-namespacing");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let matrix = gate_cancellation_matrix(&ham).unwrap();
        save_component(&dir, fp, SolverKind::NetworkSimplex, &ham, &matrix, None).unwrap();
        assert_ne!(
            component_path_for(&dir, fp, SolverKind::NetworkSimplex),
            component_path(&dir, fp),
            "non-default backend gets a tagged file"
        );
        assert!(
            load_component(&dir, fp, SolverKind::default(), &ham).is_none(),
            "a simplex-solved component must not answer a default-backend load"
        );
        assert_eq!(
            load_component(&dir, fp, SolverKind::NetworkSimplex, &ham)
                .unwrap()
                .0,
            matrix
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_miss() {
        let dir = temp_dir("missing");
        assert!(load_component(&dir, 1234, SolverKind::default(), &ham()).is_none());
    }

    #[test]
    fn corrupt_or_truncated_files_are_rejected() {
        let dir = temp_dir("corrupt");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let matrix = gate_cancellation_matrix(&ham).unwrap();
        save_component(&dir, fp, SolverKind::default(), &ham, &matrix, None).unwrap();
        let path = component_path(&dir, fp);
        let good = fs::read(&path).unwrap();

        // Truncation anywhere must be rejected, as must trailing garbage
        // and a flipped magic byte.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(
            load_component(&dir, fp, SolverKind::default(), &ham).is_none(),
            "truncated"
        );
        let mut extended = good.clone();
        extended.push(0);
        fs::write(&path, &extended).unwrap();
        assert!(
            load_component(&dir, fp, SolverKind::default(), &ham).is_none(),
            "trailing bytes"
        );
        let mut flipped = good.clone();
        flipped[0] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert!(
            load_component(&dir, fp, SolverKind::default(), &ham).is_none(),
            "bad magic"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_file_for_another_hamiltonian_is_rejected() {
        // Simulate a 64-bit fingerprint collision / stale rename: the file
        // sits at the fingerprint path of `other`, but stores `ham`. The
        // full-equality check must refuse it.
        let dir = temp_dir("stale");
        let ham = ham();
        let other = Hamiltonian::parse("0.6 XZII + 0.4 ZYII + 0.3 XXII + 0.1 IIZZ").unwrap();
        let matrix = gate_cancellation_matrix(&ham).unwrap();
        let other_fp = hamiltonian_fingerprint(&other);
        save_component(&dir, other_fp, SolverKind::default(), &ham, &matrix, None).unwrap();
        assert!(
            load_component(&dir, other_fp, SolverKind::default(), &other).is_none(),
            "stored Hamiltonian differs from the requested one"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_matrix_rows_fail_stochasticity_validation() {
        let dir = temp_dir("tampered");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let matrix = gate_cancellation_matrix(&ham).unwrap();
        save_component(&dir, fp, SolverKind::default(), &ham, &matrix, None).unwrap();
        let path = component_path(&dir, fp);
        let mut bytes = fs::read(&path).unwrap();
        // Overwrite the last matrix entry with 7.0 (the matrix rows end one
        // byte before EOF — the trailing byte is the basis flag): the row no
        // longer sums to one, so TransitionMatrix::new must reject the load.
        let last = bytes.len() - 9;
        bytes[last..last + 8].copy_from_slice(&7.0f64.to_bits().to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(load_component(&dir, fp, SolverKind::default(), &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_versions_are_rejected() {
        // A version-2 file has no basis section; accepting it would pair a
        // cached matrix with a missing basis and make warm starts depend on
        // which process solved the component. The version gate must degrade
        // it to a re-solve.
        let dir = temp_dir("old-version");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let matrix = gate_cancellation_matrix(&ham).unwrap();
        save_component(&dir, fp, SolverKind::default(), &ham, &matrix, None).unwrap();
        let path = component_path(&dir, fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(load_component(&dir, fp, SolverKind::default(), &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_basis_sections_are_rejected() {
        let dir = temp_dir("corrupt-basis");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, _, basis) =
            gate_cancellation_matrix_with(&ham, SolverKind::NetworkSimplex).unwrap();
        let basis = basis.unwrap();
        save_component(
            &dir,
            fp,
            SolverKind::NetworkSimplex,
            &ham,
            &matrix,
            Some(&basis),
        )
        .unwrap();
        let path = component_path_for(&dir, fp, SolverKind::NetworkSimplex);
        let good = fs::read(&path).unwrap();

        // An invalid basis flag must be rejected outright…
        let total = basis.num_real_arcs() + basis.num_nodes();
        let flag_pos = good.len() - (8 * 3 + total + 8 * total) - 1;
        assert_eq!(good[flag_pos], 1, "flag offset arithmetic");
        let mut bad_flag = good.clone();
        bad_flag[flag_pos] = 9;
        fs::write(&path, &bad_flag).unwrap();
        assert!(load_component(&dir, fp, SolverKind::NetworkSimplex, &ham).is_none());

        // …and so must an invalid arc-state byte inside the section.
        let mut bad_state = good.clone();
        bad_state[flag_pos + 1 + 8 * 3] = 0xff;
        fs::write(&path, &bad_state).unwrap();
        assert!(load_component(&dir, fp, SolverKind::NetworkSimplex, &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
