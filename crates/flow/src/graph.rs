//! Flow network representation and the pluggable solver API.
//!
//! The network itself is a plain edge list ([`FlowNetwork`]); solving is
//! delegated to a [`MinCostFlowSolver`] implementation selected by
//! [`SolverKind`]. Solvers build their own working state (a CSR residual
//! network, a spanning-tree structure, …) per solve, so the network stays
//! immutable and cheap to share.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use marqsim_obs::{metrics, trace};

use crate::basis::SpanningBasis;
use crate::simplex::NetworkSimplex;
use crate::ssp::SuccessiveShortestPath;

/// Numerical tolerance for treating residual capacities as zero.
pub(crate) const CAP_EPS: f64 = 1e-12;

/// Errors produced by the min-cost flow solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The requested amount of flow cannot be routed from source to sink.
    Infeasible {
        /// Flow that could be routed before the network saturated.
        routed: f64,
        /// Flow that was requested.
        requested: f64,
    },
    /// Source or sink index is out of range.
    InvalidNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// The network-simplex anti-cycling watchdog hit its hard pivot cap
    /// without reaching optimality. Never returned by a correct solve on
    /// well-formed inputs; it exists so the backstop can *never* be a
    /// silent break returning a suboptimal flow.
    PivotLimit {
        /// Pivots performed when the cap was hit.
        pivots: u64,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Infeasible { routed, requested } => {
                write!(
                    f,
                    "only {routed} of {requested} units of flow can be routed"
                )
            }
            FlowError::InvalidNode { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for a network with {num_nodes} nodes"
                )
            }
            FlowError::PivotLimit { pivots } => {
                write!(
                    f,
                    "network simplex hit the anti-cycling pivot cap after {pivots} pivots"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// The result of a min-cost flow computation.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Total flow routed (equals the requested amount on success).
    pub amount: f64,
    /// Total cost `Σ f(e) · w(e)`.
    pub cost: f64,
    /// Flow on each edge, indexed by the [`FlowNetwork::add_edge`] return
    /// value.
    pub edge_flows: Vec<f64>,
    /// [`MinCostFlowSolver::name`] of the backend that produced this result.
    pub solver: &'static str,
    /// Whether the successive-shortest-path backend skipped its Bellman–Ford
    /// potential initialization because every edge cost was non-negative
    /// (always `false` for other backends).
    pub bellman_ford_skipped: bool,
    /// Whether this solve actually reused a saved [`SpanningBasis`]
    /// (`false` on cold solves and whenever a warm request fell back —
    /// backend without warm support, fingerprint mismatch, corrupt basis).
    pub warm_start: bool,
    /// Per-solve profiling filled in by the backend (pivot/iteration count
    /// and phase timings); published to the metrics registry by
    /// [`FlowNetwork::solve`].
    pub profile: SolveProfile,
}

/// Backend-reported profiling for one solve. Phase semantics per backend:
/// for `ssp`, `init` is the CSR build plus the (possibly skipped)
/// Bellman–Ford potential bootstrap and `pivots` counts augmenting-path
/// iterations; for `network_simplex`, `init` is arc-list and initial-basis
/// construction and `pivots` counts basis exchanges. `optimize` is the
/// main solve loop for both.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveProfile {
    /// Basis exchanges (simplex) or augmenting iterations (ssp).
    pub pivots: u64,
    /// Seconds spent building per-solve working state.
    pub init_seconds: f64,
    /// Seconds spent in the optimization loop.
    pub optimize_seconds: f64,
}

/// One directed edge of a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEdge {
    /// Tail node.
    pub from: usize,
    /// Head node.
    pub to: usize,
    /// Capacity (non-negative).
    pub capacity: f64,
    /// Cost per unit of flow (finite; may be negative).
    pub cost: f64,
}

/// A directed flow network with real-valued capacities and costs
/// (Definition 2.7 of the paper).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    num_nodes: usize,
    edges: Vec<FlowEdge>,
}

impl FlowNetwork {
    /// Creates a network with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        FlowNetwork {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges added via [`Self::add_edge`].
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, in insertion order (the index of an edge in this slice is
    /// its edge id).
    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// Whether every edge cost is non-negative (the successive-shortest-path
    /// fast path: Dijkstra needs no Bellman–Ford potential bootstrap).
    pub fn costs_are_non_negative(&self) -> bool {
        self.edges.iter().all(|e| e.cost >= 0.0)
    }

    /// Adds a directed edge with the given capacity and cost and returns its
    /// edge id (used to look up the flow in [`FlowResult::edge_flows`]).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the capacity is negative or the
    /// cost is not finite.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: f64, cost: f64) -> usize {
        let n = self.num_nodes;
        assert!(from < n && to < n, "edge endpoints must be existing nodes");
        assert!(capacity >= 0.0, "capacity must be non-negative");
        assert!(cost.is_finite(), "cost must be finite");
        let edge_id = self.edges.len();
        self.edges.push(FlowEdge {
            from,
            to,
            capacity,
            cost,
        });
        edge_id
    }

    /// Computes a minimum-cost flow of `amount` units from `source` to
    /// `sink` with the default backend
    /// ([`SolverKind::SuccessiveShortestPath`]), solved cold.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Infeasible`] if the network cannot carry the
    /// requested amount, or [`FlowError::InvalidNode`] for bad endpoints.
    pub fn min_cost_flow(
        &self,
        source: usize,
        sink: usize,
        amount: f64,
    ) -> Result<FlowResult, FlowError> {
        self.solve(SolverKind::default(), source, sink, amount, None)
            .map(|(result, _)| result)
    }

    /// Computes a minimum-cost flow of `amount` units from `source` to
    /// `sink` with the `solver` backend, optionally warm-started from a
    /// saved basis, and returns the result with the basis the solve ends
    /// on (`None` for backends without warm support, such as `ssp`).
    ///
    /// A `warm` basis whose topology matches this instance is re-priced
    /// under this network's costs and re-pivoted to optimality (see
    /// [`MinCostFlowSolver::solve`]); a mismatched basis, or a backend
    /// without warm support, degrades to a cold solve, and
    /// [`FlowResult::warm_start`] reports which happened. `Auto` resolves
    /// to a concrete backend first.
    ///
    /// Every solve is telemetered: one `flow_solve` trace span, plus
    /// per-backend registry instruments (solve counters, latency/phase
    /// histograms, pivot and Bellman–Ford-skip counters, and on an actual
    /// warm start `marqsim_flow_warm_starts_total` and
    /// `marqsim_flow_repivot_seconds` — see `docs/observability.md`).
    ///
    /// # Errors
    ///
    /// Same contract as [`min_cost_flow`](Self::min_cost_flow) —
    /// infeasibility reports identically warm or cold.
    pub fn solve(
        &self,
        solver: SolverKind,
        source: usize,
        sink: usize,
        amount: f64,
        warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, Option<SpanningBasis>), FlowError> {
        // Resolve the `auto` policy once, up front: the trace span, the
        // per-backend instruments, and the result's `solver` field all name
        // the concrete backend that actually ran.
        let solver = solver.resolve_for_nodes(self.num_nodes);
        // The span's `warm` field reports whether a usable (matching)
        // basis was offered; `FlowResult::warm_start` is the ground truth
        // for whether it was reused.
        let warm_requested = warm.is_some_and(|b| b.matches(self, source, sink, amount));
        let span = trace::Span::enter("flow_solve")
            .field("backend", solver.as_str())
            .field("nodes", self.num_nodes)
            .field("edges", self.edges.len())
            .field("warm", warm_requested);
        let started = Instant::now();
        let result = solver.solver().solve(self, source, sink, amount, warm);
        let elapsed = started.elapsed().as_secs_f64();
        let instruments = backend_metrics(solver);
        instruments.solve_seconds.record(elapsed);
        match &result {
            Ok((flow, _)) => {
                instruments.solves.inc();
                instruments.pivots.add(flow.profile.pivots);
                if flow.bellman_ford_skipped {
                    instruments.bf_skips.inc();
                }
                if flow.warm_start {
                    instruments.warm_starts.inc();
                    instruments
                        .repivot_seconds
                        .record(flow.profile.optimize_seconds);
                }
                instruments.init_seconds.record(flow.profile.init_seconds);
                instruments
                    .optimize_seconds
                    .record(flow.profile.optimize_seconds);
            }
            Err(_) => instruments.solve_errors.inc(),
        }
        drop(span);
        result
    }

    /// Shared endpoint validation for every backend.
    pub(crate) fn validate_endpoints(&self, source: usize, sink: usize) -> Result<(), FlowError> {
        let n = self.num_nodes;
        if source >= n || sink >= n {
            return Err(FlowError::InvalidNode {
                node: source.max(sink),
                num_nodes: n,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The solver API
// ---------------------------------------------------------------------------

/// A min-cost-flow backend. Implementations are stateless (per-solve working
/// state is local), so one `&'static` instance serves every thread.
pub trait MinCostFlowSolver: Send + Sync {
    /// Stable backend name — the spelling used by `MARQSIM_FLOW_SOLVER`,
    /// the serve wire protocol, and bench/stat lines.
    fn name(&self) -> &'static str;

    /// Computes a minimum-cost flow of `amount` units from `source` to
    /// `sink`, optionally warm-started from a saved basis, and returns the
    /// result with the backend's optimal basis (`None` for backends
    /// without warm support).
    ///
    /// A backend with warm support re-prices a `warm` basis under this
    /// network's costs and re-pivots to optimality instead of starting
    /// from scratch; a basis whose topology fingerprint does not match the
    /// instance is never applied. A backend without warm support ignores
    /// `warm` and solves cold. [`FlowResult::warm_start`] reports whether
    /// the basis was actually reused.
    ///
    /// On networks without negative-cost cycles every backend returns the
    /// same optimal cost. With such a cycle present, backends legitimately
    /// differ (see the [crate docs](crate)): SSP solves the pure s→t
    /// problem while the simplex also cancels the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Infeasible`] (carrying how much flow *could* be
    /// routed) if the network cannot carry the requested amount, or
    /// [`FlowError::InvalidNode`] for out-of-range endpoints — the same
    /// classification for every backend, warm or cold.
    fn solve(
        &self,
        network: &FlowNetwork,
        source: usize,
        sink: usize,
        amount: f64,
        warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, Option<SpanningBasis>), FlowError>;
}

/// The registered backends, selectable end to end (engine `CacheConfig`,
/// `SubmitOptions`, the serve wire protocol, `MARQSIM_FLOW_SOLVER`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Successive shortest paths with Johnson potentials (Dijkstra inner
    /// loop). The default; preserves the historical solver's per-node
    /// arc-order tie-breaking (see `ssp` module docs for the one
    /// observable fast-path caveat on degenerate instances).
    #[default]
    SuccessiveShortestPath,
    /// Primal network simplex over a spanning-tree structure with a
    /// block-search pivot rule.
    NetworkSimplex,
    /// Per-instance backend selection from the measured crossover
    /// (`BENCH.md`): `ssp` for small instances (≤ [`Self::AUTO_SSP_MAX_STRINGS`]
    /// Hamiltonian strings, where absolute solve cost is negligible and the
    /// historical default's tie-breaking is preserved), `network_simplex`
    /// above it (decisively faster at 500+ strings: 0.79 s vs 2.03 s cold).
    /// `Auto` always resolves to one of the concrete backends before any
    /// solve, metric, or cache attribution — it never appears in
    /// [`Self::ALL`] or on a `FlowResult`.
    Auto,
}

static SSP: SuccessiveShortestPath = SuccessiveShortestPath;
static SIMPLEX: NetworkSimplex = NetworkSimplex;
/// Cached global-registry handles for one backend — registered once, so
/// the per-solve record path is atomics only.
struct BackendMetrics {
    solves: Arc<metrics::Counter>,
    solve_errors: Arc<metrics::Counter>,
    solve_seconds: Arc<metrics::Histogram>,
    pivots: Arc<metrics::Counter>,
    bf_skips: Arc<metrics::Counter>,
    warm_starts: Arc<metrics::Counter>,
    repivot_seconds: Arc<metrics::Histogram>,
    init_seconds: Arc<metrics::Histogram>,
    optimize_seconds: Arc<metrics::Histogram>,
}

fn backend_metrics(kind: SolverKind) -> &'static BackendMetrics {
    static METRICS: OnceLock<Vec<BackendMetrics>> = OnceLock::new();
    let all = METRICS.get_or_init(|| {
        let registry = metrics::global();
        SolverKind::ALL
            .iter()
            .map(|kind| {
                let backend: &[(&str, &str)] = &[("backend", kind.as_str())];
                BackendMetrics {
                    solves: registry.counter_with("marqsim_flow_solves_total", backend),
                    solve_errors: registry.counter_with("marqsim_flow_solve_errors_total", backend),
                    solve_seconds: registry.histogram_with("marqsim_flow_solve_seconds", backend),
                    pivots: registry.counter_with("marqsim_flow_pivots_total", backend),
                    bf_skips: registry.counter_with("marqsim_flow_bf_skips_total", backend),
                    warm_starts: registry.counter_with("marqsim_flow_warm_starts_total", backend),
                    repivot_seconds: registry
                        .histogram_with("marqsim_flow_repivot_seconds", backend),
                    init_seconds: registry.histogram_with(
                        "marqsim_flow_phase_seconds",
                        &[("backend", kind.as_str()), ("phase", "init")],
                    ),
                    optimize_seconds: registry.histogram_with(
                        "marqsim_flow_phase_seconds",
                        &[("backend", kind.as_str()), ("phase", "optimize")],
                    ),
                }
            })
            .collect()
    });
    let index = SolverKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every SolverKind appears in ALL");
    &all[index]
}

impl SolverKind {
    /// Every concrete backend, default first. `Auto` is deliberately absent:
    /// it is a selection *policy*, and everything indexed per backend
    /// (registry instruments, cache-key attribution, bench tables) only
    /// deals in resolved kinds. Use [`Self::SELECTABLE`] for the spellings a
    /// user may request.
    pub const ALL: [SolverKind; 2] = [
        SolverKind::SuccessiveShortestPath,
        SolverKind::NetworkSimplex,
    ];

    /// Everything a user may select end to end (`MARQSIM_FLOW_SOLVER`,
    /// `SubmitOptions::flow_solver`, the serve wire protocol): the concrete
    /// backends plus the `auto` policy.
    pub const SELECTABLE: [SolverKind; 3] = [
        SolverKind::SuccessiveShortestPath,
        SolverKind::NetworkSimplex,
        SolverKind::Auto,
    ];

    /// Largest instance (in Hamiltonian strings) `Auto` still hands to
    /// `ssp`; anything larger resolves to `network_simplex`. Sits between
    /// the 100-string and 500-string rows of the `BENCH.md` backend table.
    pub const AUTO_SSP_MAX_STRINGS: usize = 100;

    /// The stable name ([`MinCostFlowSolver::name`] of the backend).
    pub const fn as_str(self) -> &'static str {
        match self {
            SolverKind::SuccessiveShortestPath => "ssp",
            SolverKind::NetworkSimplex => "network_simplex",
            SolverKind::Auto => "auto",
        }
    }

    /// Parses a backend name (the `as_str` spellings plus common aliases).
    pub fn parse(spelling: &str) -> Option<SolverKind> {
        match spelling.trim().to_ascii_lowercase().as_str() {
            "ssp" | "successive_shortest_path" | "successive-shortest-path" => {
                Some(SolverKind::SuccessiveShortestPath)
            }
            "network_simplex" | "network-simplex" | "simplex" => Some(SolverKind::NetworkSimplex),
            "auto" => Some(SolverKind::Auto),
            _ => None,
        }
    }

    /// Resolves the `Auto` policy for an instance of `strings` Hamiltonian
    /// terms; concrete kinds return themselves. The crossover is the
    /// measured one from `BENCH.md`: small instances keep the historical
    /// `ssp` default (negligible absolute cost, bit-compatible
    /// tie-breaking), larger ones get the decisively faster simplex.
    pub const fn resolve_for_strings(self, strings: usize) -> SolverKind {
        match self {
            SolverKind::Auto => {
                if strings <= Self::AUTO_SSP_MAX_STRINGS {
                    SolverKind::SuccessiveShortestPath
                } else {
                    SolverKind::NetworkSimplex
                }
            }
            concrete => concrete,
        }
    }

    /// [`Self::resolve_for_strings`] via the node count of the bipartite
    /// transition network (`nodes = 2·strings + 2`: one in-layer and one
    /// out-layer node per Hamiltonian string plus source and sink).
    pub const fn resolve_for_nodes(self, num_nodes: usize) -> SolverKind {
        self.resolve_for_strings(num_nodes.saturating_sub(2) / 2)
    }

    /// The backend implementation of a concrete kind. [`FlowNetwork::solve`]
    /// resolves `Auto` before dispatching here, so instruments and spans
    /// always name a concrete backend.
    pub(crate) fn solver(self) -> &'static dyn MinCostFlowSolver {
        match self {
            SolverKind::SuccessiveShortestPath => &SSP,
            SolverKind::NetworkSimplex => &SIMPLEX,
            SolverKind::Auto => unreachable!("`auto` is resolved before dispatch"),
        }
    }
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SolverKind::parse(s).ok_or_else(|| {
            format!(
                "unknown flow solver '{s}' (registered backends: {})",
                SolverKind::SELECTABLE.map(SolverKind::as_str).join(", ")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [SolverKind; 2] {
        SolverKind::ALL
    }

    #[test]
    fn solver_kind_round_trips_names() {
        for kind in both() {
            assert_eq!(SolverKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.solver().name(), kind.as_str());
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(
            SolverKind::parse("simplex"),
            Some(SolverKind::NetworkSimplex)
        );
        assert_eq!(SolverKind::parse("nope"), None);
        assert!("nope".parse::<SolverKind>().unwrap_err().contains("ssp"));
        assert_eq!(SolverKind::default(), SolverKind::SuccessiveShortestPath);
    }

    #[test]
    fn auto_resolves_by_instance_size() {
        // The policy: ssp up to the crossover, simplex above it.
        assert_eq!(
            SolverKind::Auto.resolve_for_strings(1),
            SolverKind::SuccessiveShortestPath
        );
        assert_eq!(
            SolverKind::Auto.resolve_for_strings(SolverKind::AUTO_SSP_MAX_STRINGS),
            SolverKind::SuccessiveShortestPath
        );
        assert_eq!(
            SolverKind::Auto.resolve_for_strings(SolverKind::AUTO_SSP_MAX_STRINGS + 1),
            SolverKind::NetworkSimplex
        );
        // Node form: the bipartite transition network has 2n + 2 nodes.
        assert_eq!(
            SolverKind::Auto.resolve_for_nodes(2 * SolverKind::AUTO_SSP_MAX_STRINGS + 2),
            SolverKind::SuccessiveShortestPath
        );
        assert_eq!(
            SolverKind::Auto.resolve_for_nodes(2 * (SolverKind::AUTO_SSP_MAX_STRINGS + 1) + 2),
            SolverKind::NetworkSimplex
        );
        // Concrete kinds are fixed points of resolution.
        for kind in SolverKind::ALL {
            assert_eq!(kind.resolve_for_strings(1_000_000), kind);
            assert_eq!(kind.resolve_for_nodes(0), kind);
        }
        // Spellings: parseable and selectable, but not a registered backend.
        assert_eq!(SolverKind::parse("auto"), Some(SolverKind::Auto));
        assert_eq!(SolverKind::Auto.as_str(), "auto");
        assert!(!SolverKind::ALL.contains(&SolverKind::Auto));
        assert!(SolverKind::SELECTABLE.contains(&SolverKind::Auto));
        assert!("nope".parse::<SolverKind>().unwrap_err().contains("auto"));
        // A solve through the auto policy reports the *resolved* backend,
        // never "auto".
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1.0, 1.0);
        let (r, _) = net.solve(SolverKind::Auto, 0, 1, 1.0, None).unwrap();
        assert_eq!(r.solver, "ssp");
        assert!((r.cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_solves_match_the_resolved_backend_exactly() {
        // Same seed-free deterministic instance solved via Auto and via the
        // backend Auto resolves to: identical results, bit for bit.
        let mut net = FlowNetwork::new(6);
        for &(u, v, c, w) in &[
            (0usize, 1usize, 2.0, 4.0),
            (0, 2, 2.0, 1.0),
            (1, 2, 1.0, 1.0),
            (1, 3, 1.5, 3.0),
            (2, 3, 1.0, 6.0),
            (2, 4, 2.0, 2.0),
            (3, 5, 2.0, 1.0),
            (4, 3, 1.0, 0.5),
            (4, 5, 1.0, 7.0),
        ] {
            net.add_edge(u, v, c, w);
        }
        let resolved = SolverKind::Auto.resolve_for_nodes(net.num_nodes());
        let (auto, _) = net.solve(SolverKind::Auto, 0, 5, 2.5, None).unwrap();
        let (direct, _) = net.solve(resolved, 0, 5, 2.5, None).unwrap();
        assert_eq!(auto.solver, direct.solver);
        assert_eq!(auto.cost.to_bits(), direct.cost.to_bits());
        assert_eq!(auto.edge_flows.len(), direct.edge_flows.len());
        for (a, d) in auto.edge_flows.iter().zip(direct.edge_flows.iter()) {
            assert_eq!(a.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn single_edge_network() {
        for kind in both() {
            let mut net = FlowNetwork::new(2);
            let e = net.add_edge(0, 1, 2.0, 3.0);
            let (r, _) = net.solve(kind, 0, 1, 1.5, None).unwrap();
            assert!((r.cost - 4.5).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[e] - 1.5).abs() < 1e-9, "{kind}");
            assert_eq!(r.solver, kind.as_str());
        }
    }

    #[test]
    fn prefers_the_cheaper_route() {
        for kind in both() {
            let mut net = FlowNetwork::new(4);
            let cheap_a = net.add_edge(0, 1, 1.0, 1.0);
            let cheap_b = net.add_edge(1, 3, 1.0, 1.0);
            let pricey_a = net.add_edge(0, 2, 1.0, 5.0);
            let pricey_b = net.add_edge(2, 3, 1.0, 5.0);
            let (r, _) = net.solve(kind, 0, 3, 1.0, None).unwrap();
            assert!((r.cost - 2.0).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[cheap_a] - 1.0).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[cheap_b] - 1.0).abs() < 1e-9, "{kind}");
            assert!(r.edge_flows[pricey_a].abs() < 1e-9, "{kind}");
            assert!(r.edge_flows[pricey_b].abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn spills_over_to_the_expensive_route_when_needed() {
        for kind in both() {
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 1.0, 1.0);
            net.add_edge(1, 3, 1.0, 1.0);
            net.add_edge(0, 2, 1.0, 5.0);
            net.add_edge(2, 3, 1.0, 5.0);
            let (r, _) = net.solve(kind, 0, 3, 2.0, None).unwrap();
            assert!((r.cost - 12.0).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn infeasible_demand_is_reported_identically_by_every_backend() {
        for kind in both() {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 1.0, 1.0);
            let err = net.solve(kind, 0, 1, 2.0, None).unwrap_err();
            match err {
                FlowError::Infeasible { routed, requested } => {
                    assert!((routed - 1.0).abs() < 1e-9, "{kind}: routed {routed}");
                    assert!((requested - 2.0).abs() < 1e-9, "{kind}");
                }
                other => panic!("{kind}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_node_is_reported_identically_by_every_backend() {
        for kind in both() {
            let net = FlowNetwork::new(2);
            assert_eq!(
                net.solve(kind, 0, 5, 1.0, None).unwrap_err(),
                FlowError::InvalidNode {
                    node: 5,
                    num_nodes: 2
                },
                "{kind}"
            );
        }
    }

    #[test]
    fn flow_conservation_holds_at_interior_nodes() {
        for kind in both() {
            // Diamond with an extra middle edge; route 1.5 units.
            let mut net = FlowNetwork::new(5);
            let edges = [
                (0, 1, 1.0, 2.0),
                (0, 2, 1.0, 1.0),
                (1, 2, 0.5, 0.1),
                (1, 3, 1.0, 3.0),
                (2, 3, 1.2, 2.0),
                (3, 4, 2.0, 0.0),
            ];
            let ids: Vec<usize> = edges
                .iter()
                .map(|&(u, v, c, w)| net.add_edge(u, v, c, w))
                .collect();
            let (r, _) = net.solve(kind, 0, 4, 1.5, None).unwrap();
            // Net flow into each interior node equals net flow out.
            for node in 1..=3 {
                let mut balance = 0.0;
                for (&(u, v, _, _), &id) in edges.iter().zip(ids.iter()) {
                    if v == node {
                        balance += r.edge_flows[id];
                    }
                    if u == node {
                        balance -= r.edge_flows[id];
                    }
                }
                assert!(
                    balance.abs() < 1e-9,
                    "{kind}: node {node} imbalance {balance}"
                );
            }
            // Capacities respected.
            for (&(_, _, cap, _), &id) in edges.iter().zip(ids.iter()) {
                assert!(r.edge_flows[id] <= cap + 1e-9, "{kind}");
                assert!(r.edge_flows[id] >= -1e-9, "{kind}");
            }
        }
    }

    #[test]
    fn residual_rerouting_finds_the_global_optimum() {
        for kind in both() {
            // Classic example where the greedy path must later be partially
            // undone through residual arcs to reach the optimum.
            let mut net = FlowNetwork::new(4);
            net.add_edge(0, 1, 1.0, 1.0);
            net.add_edge(0, 2, 1.0, 10.0);
            net.add_edge(1, 2, 1.0, -8.0);
            net.add_edge(1, 3, 1.0, 10.0);
            net.add_edge(2, 3, 1.0, 1.0);
            let (r, _) = net.solve(kind, 0, 3, 2.0, None).unwrap();
            assert!((r.cost - 22.0).abs() < 1e-9, "{kind}: cost {}", r.cost);
            assert!((r.amount - 2.0).abs() < 1e-12, "{kind}");
        }
    }

    #[test]
    fn fractional_capacities_route_exactly() {
        for kind in both() {
            let mut net = FlowNetwork::new(3);
            let a = net.add_edge(0, 1, 0.3, 1.0);
            let b = net.add_edge(0, 1, 0.7, 2.0);
            let c = net.add_edge(1, 2, 1.0, 0.0);
            let (r, _) = net.solve(kind, 0, 2, 1.0, None).unwrap();
            assert!((r.edge_flows[a] - 0.3).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[b] - 0.7).abs() < 1e-9, "{kind}");
            assert!((r.edge_flows[c] - 1.0).abs() < 1e-9, "{kind}");
            assert!((r.cost - (0.3 + 1.4)).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn zero_amount_flow_costs_nothing() {
        for kind in both() {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 1.0, 7.0);
            let (r, _) = net.solve(kind, 0, 1, 0.0, None).unwrap();
            assert_eq!(r.cost, 0.0, "{kind}");
            assert!(r.edge_flows.iter().all(|&f| f == 0.0), "{kind}");
        }
    }

    #[test]
    fn ssp_records_the_bellman_ford_skip() {
        // Non-negative costs: the default backend skips the Bellman–Ford
        // bootstrap and says so; a negative cost forces the full init.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0, 1.0);
        net.add_edge(1, 2, 1.0, 0.0);
        let r = net.min_cost_flow(0, 2, 1.0).unwrap();
        assert!(r.bellman_ford_skipped);

        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0, -1.0);
        net.add_edge(1, 2, 1.0, 2.0);
        let r = net.min_cost_flow(0, 2, 1.0).unwrap();
        assert!(!r.bellman_ford_skipped);
        assert!((r.cost - 1.0).abs() < 1e-9);

        // The simplex backend never reports a skip.
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1.0, 1.0);
        let (r, _) = net
            .solve(SolverKind::NetworkSimplex, 0, 1, 1.0, None)
            .unwrap();
        assert!(!r.bellman_ford_skipped);
    }

    #[test]
    fn backends_agree_on_cost_for_a_dense_network() {
        // A denser network with parallel routes: both backends must land on
        // the same optimal cost (the cross-backend headline guarantee).
        let mut net = FlowNetwork::new(6);
        let arcs = [
            (0usize, 1usize, 2.0, 4.0),
            (0, 2, 2.0, 1.0),
            (1, 2, 1.0, 1.0),
            (1, 3, 1.5, 3.0),
            (2, 3, 1.0, 6.0),
            (2, 4, 2.0, 2.0),
            (3, 5, 2.0, 1.0),
            (4, 3, 1.0, 0.5),
            (4, 5, 1.0, 7.0),
        ];
        for &(u, v, c, w) in &arcs {
            net.add_edge(u, v, c, w);
        }
        let (a, _) = net
            .solve(SolverKind::SuccessiveShortestPath, 0, 5, 2.5, None)
            .unwrap();
        let (b, _) = net
            .solve(SolverKind::NetworkSimplex, 0, 5, 2.5, None)
            .unwrap();
        assert!(
            (a.cost - b.cost).abs() < 1e-9,
            "ssp {} vs simplex {}",
            a.cost,
            b.cost
        );
    }
}
