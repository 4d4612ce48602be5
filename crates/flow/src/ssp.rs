//! The successive-shortest-path backend (Johnson potentials, Dijkstra
//! inner loop) — the default solver.
//!
//! Working state is a per-solve [`Csr`] residual network, whose per-node
//! arc ordering preserves the historical solver's tie-breaking. When every
//! edge cost is non-negative — always true for the gate-cancellation
//! CNOT-count model — the Bellman–Ford potential bootstrap is skipped
//! entirely (zero initial potentials make Dijkstra's reduced costs the raw
//! costs, which is valid exactly when no cost is negative); the skip is
//! recorded in [`FlowResult::bellman_ford_skipped`] so bench output can
//! show it. Note the skip's one observable consequence: on instances where
//! the *first* shortest path is non-unique, the zero-potential first
//! Dijkstra may tie-break onto a different (equally optimal) augmenting
//! path than the Bellman–Ford-bootstrapped run would — the committed
//! golden outputs pin the fast path's choices, and the engine's persisted
//! `P_gc` format version was bumped so caches solved by the pre-redesign
//! code are re-solved rather than mixed with fresh results.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::basis::SpanningBasis;
use crate::csr::{Csr, NO_EDGE};
use crate::graph::{FlowError, FlowNetwork, FlowResult, MinCostFlowSolver, SolveProfile, CAP_EPS};

/// The successive-shortest-path solver: Johnson potentials with a Dijkstra
/// inner loop over a per-solve CSR residual network, skipping the
/// Bellman–Ford bootstrap when every cost is non-negative.
#[derive(Debug, Default)]
pub struct SuccessiveShortestPath;

/// Binary-heap entry for Dijkstra (min-heap via reversed ordering).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap becomes a min-heap on dist.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl MinCostFlowSolver for SuccessiveShortestPath {
    fn name(&self) -> &'static str {
        "ssp"
    }

    /// Exports no basis, so `warm` is ignored and every solve is cold.
    fn solve(
        &self,
        network: &FlowNetwork,
        source: usize,
        sink: usize,
        amount: f64,
        _warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, Option<SpanningBasis>), FlowError> {
        network.validate_endpoints(source, sink)?;
        let init_started = Instant::now();
        let n = network.num_nodes();
        let mut csr = Csr::build(network);
        let mut potentials = vec![0.0f64; n];
        // Initial potentials via Bellman–Ford so that negative edge costs
        // are supported; with non-negative costs the all-zero potentials are
        // already valid (reduced cost == raw cost ≥ 0), so the pass is
        // skipped — the fast path of the gate-cancellation model.
        let bellman_ford_skipped = network.costs_are_non_negative();
        if !bellman_ford_skipped {
            bellman_ford_potentials(&csr, source, &mut potentials);
        }
        let optimize_started = Instant::now();
        let init_seconds = optimize_started
            .saturating_duration_since(init_started)
            .as_secs_f64();

        let mut remaining = amount;
        let mut total_cost = 0.0;
        let mut edge_flows = vec![0.0f64; network.num_edges()];
        let mut iterations = 0u64;

        while remaining > CAP_EPS {
            iterations += 1;
            // Dijkstra on reduced costs.
            let (dist, prev) = dijkstra(&csr, source, &potentials);
            if dist[sink].is_infinite() {
                return Err(FlowError::Infeasible {
                    routed: amount - remaining,
                    requested: amount,
                });
            }
            // Update potentials.
            for v in 0..n {
                if dist[v].is_finite() {
                    potentials[v] += dist[v];
                }
            }
            // Find bottleneck along the path.
            let mut bottleneck = remaining;
            let mut v = sink;
            while v != source {
                let (u, arc) = prev[v].expect("path exists since dist is finite");
                bottleneck = bottleneck.min(csr.cap[arc]);
                v = u;
            }
            // Augment.
            let mut v = sink;
            while v != source {
                let (u, arc) = prev[v].expect("path exists since dist is finite");
                let rev = csr.rev[arc];
                csr.cap[arc] -= bottleneck;
                csr.cap[rev] += bottleneck;
                total_cost += bottleneck * csr.cost[arc];
                let id = csr.edge_id[arc];
                if id != NO_EDGE {
                    edge_flows[id] += bottleneck;
                } else {
                    // Residual arc of an original edge: cancel flow on it.
                    let id = csr.edge_id[rev];
                    debug_assert_ne!(id, NO_EDGE, "one arc of every pair is an original edge");
                    edge_flows[id] -= bottleneck;
                }
                v = u;
            }
            remaining -= bottleneck;
        }

        let result = FlowResult {
            amount,
            cost: total_cost,
            edge_flows,
            solver: self.name(),
            bellman_ford_skipped,
            warm_start: false,
            profile: SolveProfile {
                pivots: iterations,
                init_seconds,
                optimize_seconds: optimize_started.elapsed().as_secs_f64(),
            },
        };
        Ok((result, None))
    }
}

/// Bellman–Ford pass to initialize potentials (handles negative costs).
fn bellman_ford_potentials(csr: &Csr, source: usize, potentials: &mut [f64]) {
    let n = csr.num_nodes();
    for p in potentials.iter_mut() {
        *p = f64::INFINITY;
    }
    potentials[source] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n {
            if potentials[u].is_infinite() {
                continue;
            }
            for arc in csr.arcs(u) {
                if csr.cap[arc] > CAP_EPS
                    && potentials[u] + csr.cost[arc] < potentials[csr.to[arc]] - 1e-15
                {
                    potentials[csr.to[arc]] = potentials[u] + csr.cost[arc];
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Unreachable nodes keep potential 0 so reduced costs stay finite.
    for p in potentials.iter_mut() {
        if p.is_infinite() {
            *p = 0.0;
        }
    }
}

/// Dijkstra over residual arcs with reduced costs; returns distances and
/// the predecessor `(node, arc)` of each node.
#[allow(clippy::type_complexity)]
fn dijkstra(
    csr: &Csr,
    source: usize,
    potentials: &[f64],
) -> (Vec<f64>, Vec<Option<(usize, usize)>>) {
    let n = csr.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] + 1e-15 {
            continue;
        }
        for arc in csr.arcs(u) {
            if csr.cap[arc] <= CAP_EPS {
                continue;
            }
            let to = csr.to[arc];
            let reduced = csr.cost[arc] + potentials[u] - potentials[to];
            // Clamp tiny negative values caused by floating-point noise.
            let reduced = reduced.max(0.0);
            let nd = d + reduced;
            if nd + 1e-15 < dist[to] {
                dist[to] = nd;
                prev[to] = Some((u, arc));
                heap.push(HeapEntry { dist: nd, node: to });
            }
        }
    }
    (dist, prev)
}
