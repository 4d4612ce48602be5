//! Minimum-cost flow for the MarQSim transition-matrix optimization.
//!
//! §5 of the paper tunes the Markov transition matrix by solving a Min-Cost
//! Flow Problem on a bipartite network: source → `Prev` terms → `Next` terms
//! → sink, with the stationary distribution as the capacities of the outer
//! edges and the pairwise CNOT count as the cost of the inner edges. The
//! paper uses Python's `networkx` solver; this crate is the from-scratch
//! replacement, redesigned around a **pluggable solver API**:
//!
//! * [`FlowNetwork`] — a directed flow network with real-valued capacities
//!   and costs (Definition 2.7), stored as an immutable edge list.
//!   [`FlowNetwork::solve`] is the one telemetered solve entry point: it
//!   takes the backend and an optional warm-start basis and returns the
//!   result with the basis the solve ends on. [`FlowNetwork::min_cost_flow`]
//!   is its cold, default-backend shorthand.
//! * [`MinCostFlowSolver`] — the backend trait: `name()` plus one
//!   `solve(&network, source, sink, amount, warm)`. Backends build their
//!   own per-solve working state over a shared CSR residual core (`csr`),
//!   so adding a solver never touches the network type or its callers.
//! * [`SolverKind`] — the registered backends:
//!   [`SolverKind::SuccessiveShortestPath`] (`ssp`, the default — Johnson
//!   potentials with a Dijkstra inner loop, preserving the historical
//!   solver's arc-order tie-breaking, with a recorded Bellman–Ford skip
//!   when all costs are non-negative) and [`SolverKind::NetworkSimplex`]
//!   (`network_simplex` — primal network simplex on a spanning-tree basis
//!   with a block-search pivot rule), plus the [`SolverKind::Auto`] size
//!   policy, which resolves to one of the two before every solve.
//! * [`bipartite`] — the MarQSim-shaped bipartite transportation network:
//!   given a marginal distribution `π` and a cost matrix, it returns the
//!   optimal flow between `Prev` and `Next` copies of the states, under any
//!   backend ([`bipartite::solve`]).
//! * [`SpanningBasis`] — warm-start re-solves: the network simplex exports
//!   its optimal spanning-tree basis, and a later solve over the same
//!   topology with different costs re-prices and re-pivots from it
//!   instead of rebuilding from the artificial root — the
//!   cost-perturbation shape of `P_rp` sampling and sweep grids. `ssp`
//!   exports no basis and ignores one it is given, so its warm path is
//!   its cold path.
//!
//! On networks **without negative-cost cycles** — which includes every
//! MarQSim model (CNOT counts are non-negative) — every backend reports
//! the same optimal cost (the cross-backend equivalence property the test
//! suite enforces to 1e-9) and the same [`FlowError`] classification;
//! individually optimal *flows* may differ when the optimum is not unique.
//! Networks that do contain a capacitated negative-cost cycle are outside
//! the equivalence contract: successive shortest paths solves the pure
//! s→t problem (it never circulates flow that does not serve the demand),
//! while the network simplex returns the true minimum-cost flow, which
//! additionally cancels such cycles. See `docs/flow.md` for the
//! architecture and how to add a backend.
//!
//! # Example
//!
//! ```
//! use marqsim_flow::{FlowNetwork, SolverKind};
//!
//! // Send one unit from 0 to 3 over two parallel routes with different costs.
//! let mut net = FlowNetwork::new(4);
//! net.add_edge(0, 1, 1.0, 1.0);
//! net.add_edge(1, 3, 1.0, 1.0);
//! net.add_edge(0, 2, 1.0, 5.0);
//! net.add_edge(2, 3, 1.0, 5.0);
//! let result = net.min_cost_flow(0, 3, 1.0).unwrap();
//! assert!((result.cost - 2.0).abs() < 1e-9);
//!
//! // The same solve through the network-simplex backend: equal optimum,
//! // plus the optimal basis for warm-starting a re-costed instance.
//! let (simplex, basis) = net.solve(SolverKind::NetworkSimplex, 0, 3, 1.0, None).unwrap();
//! assert!((simplex.cost - result.cost).abs() < 1e-9);
//! let (warm, _) = net
//!     .solve(SolverKind::NetworkSimplex, 0, 3, 1.0, basis.as_ref())
//!     .unwrap();
//! assert!(warm.warm_start);
//! ```

mod basis;
mod csr;
mod graph;
mod simplex;
mod ssp;

pub mod bipartite;

pub use basis::{topology_fingerprint, SpanningBasis};
pub use graph::{
    FlowEdge, FlowError, FlowNetwork, FlowResult, MinCostFlowSolver, SolveProfile, SolverKind,
};
pub use simplex::NetworkSimplex;
pub use ssp::SuccessiveShortestPath;
