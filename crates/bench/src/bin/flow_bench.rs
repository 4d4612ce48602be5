//! `flow_bench` — per-backend min-cost-flow timing on the gate-cancellation
//! transportation model.
//!
//! For each problem size (Pauli-string count) it builds the same random
//! Hamiltonian `table2` uses, derives the CNOT-cost bipartite instance, and
//! solves it once per registered backend, printing one grep-able line per
//! `(backend, size)` pair:
//!
//! ```text
//! [flow] backend=ssp strings=500 states=500 solve_s=2.175 cost=3.4 bf_skipped=true
//! ```
//!
//! plus a cross-backend agreement line per size (the optimal costs must
//! match to 1e-9 — the equivalence guarantee the test suite enforces at
//! small sizes, checked here at benchmark scale too). `bf_skipped` records
//! the successive-shortest-path fast path: the CNOT cost model is
//! non-negative, so its Bellman–Ford potential bootstrap is skipped.
//!
//! Run with `cargo run --release -p marqsim-bench --bin flow_bench
//! [--quick]`. The default covers 100/500/1000 strings (≈30 s in release);
//! `--quick` drops the 1000-string instance.
//!
//! `--warm` switches to the warm-start benchmark instead: per size, solve
//! the base instance cold under the simplex backend, export its spanning
//! basis, then re-solve perturbed-cost variants both cold and as warm
//! re-pivots from that basis, printing one line per size:
//!
//! ```text
//! [flow] warm=network_simplex strings=500 samples=8 repivot_s=0.041 cold_s=0.513 speedup=12.5 equal=true
//! ```
//!
//! `equal` asserts the re-pivoted optimum matches the cold optimum to 1e-9
//! on every sample (exit 1 otherwise) — the warm-start correctness
//! contract the CI smoke leg greps for.

use marqsim_bench::{header, timed};
use marqsim_core::gate_cancel::cnot_cost_matrix;
use marqsim_core::SolverKind;
use marqsim_flow::bipartite;
use marqsim_hamlib::random::{random_hamiltonian, RandomHamiltonianParams};
use marqsim_obs::{error, info};

/// Deterministic xorshift cost perturbation: `+1.0` on roughly half of the
/// off-diagonal entries, mirroring the §5.5 perturbation shape. Costs stay
/// non-negative, so the backend-equivalence contract keeps holding.
fn perturbed(costs: &[Vec<f64>], seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    costs
        .iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(j, &cost)| {
                    if i != j && next() % 2 == 0 {
                        cost + 1.0
                    } else {
                        cost
                    }
                })
                .collect()
        })
        .collect()
}

fn run_warm(sizes: &[usize]) {
    const SAMPLES: u64 = 8;
    header("flow_bench: warm-start re-pivots vs cold solves (network simplex)");
    for &strings in sizes {
        let ham = random_hamiltonian(&RandomHamiltonianParams {
            qubits: 20,
            terms: strings,
            identity_bias: 0.6,
            seed: 1234 + strings as u64,
        })
        .split_if_dominant();
        let pi = ham.stationary_distribution();
        let costs = cnot_cost_matrix(&ham);
        let kind = SolverKind::NetworkSimplex;

        let seed_solve = bipartite::solve(kind, &pi, &costs, |i, j| i != j, None);
        let basis = match seed_solve {
            Ok((_, Some(basis))) => basis,
            Ok((_, None)) => {
                error!(
                    "flow",
                    "simplex backend exported no basis at {strings} strings"
                );
                std::process::exit(1);
            }
            Err(cause) => {
                error!("flow", "seed solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            }
        };

        let mut repivot_s = 0.0;
        let mut cold_s = 0.0;
        let mut equal = true;
        for sample in 0..SAMPLES {
            let sample_costs = perturbed(&costs, strings as u64 * 1000 + sample);
            let (cold, seconds) =
                timed(|| bipartite::solve(kind, &pi, &sample_costs, |i, j| i != j, None));
            cold_s += seconds;
            let (cold, _) = cold.unwrap_or_else(|cause| {
                error!("flow", "cold re-solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            });
            let (warm, seconds) =
                timed(|| bipartite::solve(kind, &pi, &sample_costs, |i, j| i != j, Some(&basis)));
            repivot_s += seconds;
            let (warm, _) = warm.unwrap_or_else(|cause| {
                error!("flow", "warm re-solve failed at {strings} strings: {cause}");
                std::process::exit(1);
            });
            if !warm.warm_start {
                error!("flow", "warm solve fell back to cold at {strings} strings");
                std::process::exit(1);
            }
            let scale = cold.cost.abs().max(1.0);
            if (warm.cost - cold.cost).abs() > 1e-9 * scale {
                equal = false;
            }
        }
        info!(
            "flow",
            "warm={} strings={strings} samples={SAMPLES} repivot_s={repivot_s:.3} cold_s={cold_s:.3} speedup={:.1} equal={equal}",
            kind.as_str(),
            cold_s / repivot_s.max(1e-12),
        );
        if !equal {
            error!(
                "flow",
                "warm re-pivot diverged from the cold optimum at {strings} strings"
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let warm = std::env::args().any(|a| a == "--warm");
    let sizes: &[usize] = if quick {
        &[100, 500]
    } else {
        &[100, 500, 1000]
    };
    if warm {
        run_warm(sizes);
        return;
    }

    header("flow_bench: min-cost-flow backend timing (gate-cancellation model)");
    println!(
        "(backends: {}; one [flow] line per backend and size)",
        SolverKind::ALL.map(SolverKind::as_str).join(", ")
    );

    for &strings in sizes {
        let ham = random_hamiltonian(&RandomHamiltonianParams {
            qubits: 20,
            terms: strings,
            identity_bias: 0.6,
            seed: 1234 + strings as u64,
        })
        .split_if_dominant();
        let pi = ham.stationary_distribution();
        let costs = cnot_cost_matrix(&ham);

        let mut optima: Vec<(SolverKind, f64)> = Vec::new();
        for kind in SolverKind::ALL {
            let (solution, seconds) =
                timed(|| bipartite::solve(kind, &pi, &costs, |i, j| i != j, None));
            match solution {
                Ok((flow, _)) => {
                    info!(
                        "flow",
                        "backend={} strings={strings} states={} solve_s={seconds:.3} cost={:.6} bf_skipped={}",
                        kind.as_str(),
                        ham.num_terms(),
                        flow.cost,
                        flow.bellman_ford_skipped,
                    );
                    optima.push((kind, flow.cost));
                }
                Err(cause) => {
                    error!(
                        "flow",
                        "backend {kind} failed at {strings} strings: {cause}"
                    );
                    std::process::exit(1);
                }
            }
        }
        let (reference_kind, reference) = optima[0];
        for &(kind, cost) in &optima[1..] {
            let delta = (cost - reference).abs();
            let agree = delta < 1e-9;
            info!(
                "flow",
                "agreement strings={strings} {}={reference:.9} {}={cost:.9} delta={delta:.3e} equal={agree}",
                reference_kind.as_str(),
                kind.as_str(),
            );
            if !agree {
                error!(
                    "flow",
                    "backends disagree on the optimal cost at {strings} strings"
                );
                std::process::exit(1);
            }
        }
    }
}
