//! The primal network-simplex backend.
//!
//! Modeled on the classic spanning-tree formulation: the s→t demand is
//! turned into node excesses, an artificial root with big-M arcs provides
//! the initial (strongly feasible) spanning-tree basis, and pivots exchange
//! one entering non-basic arc for one leaving tree arc until no arc has a
//! priced-out violation. The entering arc is chosen by a **block-search
//! pivot rule**: candidate arcs are scanned in fixed-size blocks from a
//! rotating cursor and the most-violating arc of the first non-empty block
//! enters — a middle ground between Dantzig's full scan (best pivots, slow
//! scans) and first-eligible (fast scans, many pivots).
//!
//! The leaving arc is the first blocking arc on the entering arc's tail
//! side and the last blocking arc on its head side (traversal order along
//! the pivot cycle), which keeps the basis strongly feasible and thereby
//! avoids cycling on degenerate pivots. Because strong feasibility is a
//! heuristic-strength argument under floating-point pricing rather than a
//! proof, a two-stage watchdog backs it up: after `4·m` consecutive
//! degenerate pivots the pricing rule falls back to Bland's rule
//! (first-eligible by arc id, provably acyclic under exact arithmetic),
//! and a hard pivot cap turns any remaining non-termination into
//! [`FlowError::PivotLimit`] instead of a silent loop.
//!
//! **Warm starts.** A successful solve can export its optimal basis as a
//! [`SpanningBasis`]; a later solve over the identical topology with
//! different costs restores the saved arc states and flows, re-prices the
//! potentials under the new costs, and re-pivots — typically a handful of
//! pivots instead of rebuilding from the artificial root. The restored
//! basis is validated (spanning-tree shape, flow conservation, bounds)
//! and any mismatch falls back to a cold solve; the infeasibility
//! classification is shared between the two paths, so a cost change that
//! makes the instance unroutable reports the identical
//! [`FlowError::Infeasible`] either way.
//!
//! **Numeric scale.** The big-M cost on artificial arcs is rounded up to
//! a power of two so it carries no representation error of its own, and
//! the pricing threshold is scale-aware: an arc's violation must clear
//! `PRICE_EPS` *or* the cancellation noise floor of its reduced-cost
//! computation (`O(ε_mach · (|c| + |π_u| + |π_v|))`), whichever is larger.
//! With the absolute-only threshold, instances mixing O(big-M) potentials
//! and O(1) costs (1000+ strings, adversarial cost spreads) could
//! misclassify arcs whose true reduced cost sits inside the rounding noise
//! and pivot endlessly on them.
//!
//! Tree bookkeeping is deliberately simple: parent/depth/potential arrays
//! are recomputed for the whole tree after each basis exchange (O(n) per
//! pivot). The solve cost is dominated by pricing scans over the arc list,
//! so the simple recompute keeps the code auditable at no measurable cost
//! for the bipartite transportation instances this crate serves.

use std::time::Instant;

use crate::basis::{topology_fingerprint, BasisArcState as ArcState, SpanningBasis};
use crate::graph::{FlowError, FlowNetwork, FlowResult, MinCostFlowSolver, SolveProfile, CAP_EPS};

/// Reduced-cost violation threshold for pricing: an arc enters only if its
/// violation exceeds this, so float noise cannot drive endless pivots.
const PRICE_EPS: f64 = 1e-9;

/// Relative component of the pricing threshold: the reduced cost
/// `c + π(u) − π(v)` carries rounding error proportional to the magnitudes
/// of its terms, so the eligibility cut scales with them. ~450 ε_mach —
/// comfortably above the cancellation noise, relatively negligible.
const PRICE_REL_EPS: f64 = 1e-13;

/// Residual flow left on an artificial arc above this is classified as
/// infeasibility (the routed amount fell short of the request).
const INFEASIBLE_EPS: f64 = 1e-9;

/// Consecutive degenerate (zero-delta) pivots tolerated per arc before the
/// pricing rule falls back to Bland's rule.
const STALL_FACTOR: usize = 4;

/// The primal network-simplex solver: a big-M artificial-root basis, a
/// block-search pivot rule with a Bland's-rule anti-cycling fallback, and
/// warm starts from a saved [`SpanningBasis`].
#[derive(Debug, Default)]
pub struct NetworkSimplex;

#[derive(Debug, Clone)]
struct Arc {
    from: usize,
    to: usize,
    upper: f64,
    cost: f64,
    flow: f64,
    state: ArcState,
}

impl Arc {
    fn residual(&self) -> f64 {
        self.upper - self.flow
    }
}

struct Tree {
    /// Parent node (`usize::MAX` at the root).
    parent: Vec<usize>,
    /// Arc id connecting a node to its parent.
    parent_arc: Vec<usize>,
    depth: Vec<usize>,
    potential: Vec<f64>,
    /// Tree adjacency: basic arc ids per node.
    adjacency: Vec<Vec<usize>>,
}

impl MinCostFlowSolver for NetworkSimplex {
    fn name(&self) -> &'static str {
        "network_simplex"
    }

    fn solve(
        &self,
        network: &FlowNetwork,
        source: usize,
        sink: usize,
        amount: f64,
        warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, Option<SpanningBasis>), FlowError> {
        self.run(network, source, sink, amount, warm)
    }
}

impl NetworkSimplex {
    /// The shared cold/warm solve. `warm` is a basis to restore; if it does
    /// not match the instance or fails validation the solve silently starts
    /// cold, so a stale or corrupt basis can cost time but never
    /// correctness.
    fn run(
        &self,
        network: &FlowNetwork,
        source: usize,
        sink: usize,
        amount: f64,
        warm: Option<&SpanningBasis>,
    ) -> Result<(FlowResult, Option<SpanningBasis>), FlowError> {
        network.validate_endpoints(source, sink)?;
        let num_real = network.num_edges();
        if amount <= CAP_EPS || source == sink {
            return Ok((
                FlowResult {
                    amount,
                    cost: 0.0,
                    edge_flows: vec![0.0; num_real],
                    solver: self.name(),
                    bellman_ford_skipped: false,
                    warm_start: false,
                    profile: SolveProfile::default(),
                },
                None,
            ));
        }

        let init_started = Instant::now();
        let n = network.num_nodes();
        let root = n;

        // Big-M cost for the artificial arcs: any simple path of real arcs
        // is cheaper, so the optimum drives artificial flow to its minimum
        // (zero when the demand is routable, the unroutable remainder
        // otherwise). Rounded up to a power of two so M itself is exactly
        // representable and adds no rounding error of its own to the
        // potentials it dominates.
        let max_abs_cost = network
            .edges()
            .iter()
            .map(|e| e.cost.abs())
            .fold(0.0f64, f64::max);
        let big_m = f64::powi(2.0, (1.0 + (n as f64) * max_abs_cost).log2().ceil() as i32);

        // Real arcs first, then one artificial arc per node. The source's
        // excess flows source→root, the sink's root→sink; every other node
        // is balanced and its artificial arc just completes the initial
        // basis with zero flow.
        let mut arcs: Vec<Arc> = network
            .edges()
            .iter()
            .map(|e| Arc {
                from: e.from,
                to: e.to,
                upper: e.capacity,
                cost: e.cost,
                flow: 0.0,
                state: ArcState::Lower,
            })
            .collect();
        for v in 0..n {
            let excess = if v == source { amount } else { 0.0 };
            let deficit = if v == sink { amount } else { 0.0 };
            let (from, to, flow) = if excess >= deficit {
                (v, root, excess)
            } else {
                (root, v, deficit)
            };
            arcs.push(Arc {
                from,
                to,
                upper: f64::INFINITY,
                cost: big_m,
                flow,
                state: ArcState::Tree,
            });
        }
        let total_arcs = arcs.len();

        // Try to restore the saved basis. Flows and states are
        // cost-independent, so a matching basis is primal-feasible as-is;
        // only the potentials (recomputed below) change under new costs.
        let mut warm_used = false;
        if let Some(basis) = warm {
            if basis.matches(network, source, sink, amount)
                && restore(&mut arcs, basis, source, sink, amount)
            {
                warm_used = true;
            }
        }

        let mut tree = Tree {
            parent: vec![usize::MAX; n + 1],
            parent_arc: vec![usize::MAX; n + 1],
            depth: vec![0; n + 1],
            potential: vec![0.0; n + 1],
            adjacency: vec![Vec::new(); n + 1],
        };
        for (arc_id, arc) in arcs.iter().enumerate() {
            if arc.state == ArcState::Tree {
                tree.adjacency[arc.from].push(arc_id);
                tree.adjacency[arc.to].push(arc_id);
            }
        }
        if recompute_tree(&mut tree, &arcs, root) != n + 1 {
            // The restored basis did not span every node (only possible
            // with a corrupt basis — the cold basis always spans): rebuild
            // the artificial starting basis and solve cold.
            debug_assert!(warm_used, "the cold initial basis always spans");
            warm_used = false;
            for (offset, arc) in arcs[num_real..].iter_mut().enumerate() {
                let v = offset;
                arc.flow = if v == source || v == sink {
                    amount
                } else {
                    0.0
                };
                arc.state = ArcState::Tree;
            }
            for arc in &mut arcs[..num_real] {
                arc.flow = 0.0;
                arc.state = ArcState::Lower;
            }
            for adjacency in &mut tree.adjacency {
                adjacency.clear();
            }
            for v in 0..n {
                let arc_id = num_real + v;
                tree.adjacency[v].push(arc_id);
                tree.adjacency[root].push(arc_id);
            }
            let spanned = recompute_tree(&mut tree, &arcs, root);
            debug_assert_eq!(spanned, n + 1);
        }

        // Block-search pricing with the Bland's-rule watchdog.
        let block = ((total_arcs as f64).sqrt().ceil() as usize)
            .max(16)
            .min(total_arcs);
        let num_blocks = total_arcs.div_ceil(block);
        let mut cursor = 0usize;
        let mut clean_blocks = 0usize;
        // Hard termination backstop far above any plausible pivot count;
        // exceeding it is reported as `PivotLimit`, never a silent break.
        let pivot_cap = 1000 + 64 * total_arcs;
        let stall_cap = STALL_FACTOR * total_arcs;
        let mut stalled = 0usize;
        let mut bland = false;
        let mut pivots = 0usize;
        let optimize_started = Instant::now();
        let init_seconds = optimize_started
            .saturating_duration_since(init_started)
            .as_secs_f64();

        loop {
            let entering = if bland {
                // Bland's rule: the first eligible arc by id. Slower per
                // scan, provably cycle-free ordering.
                (0..total_arcs).find(|&arc_id| {
                    let arc = &arcs[arc_id];
                    violation(arc, &tree) > price_tolerance(arc, &tree)
                })
            } else {
                let mut best = None;
                let mut best_violation = 0.0f64;
                for offset in 0..block {
                    let arc_id = (cursor + offset) % total_arcs;
                    let arc = &arcs[arc_id];
                    let violation = violation(arc, &tree);
                    if violation > price_tolerance(arc, &tree) && violation > best_violation {
                        best_violation = violation;
                        best = Some(arc_id);
                    }
                }
                cursor = (cursor + block) % total_arcs;
                best
            };
            match entering {
                None => {
                    if bland {
                        // A full Bland scan found nothing eligible: optimal.
                        break;
                    }
                    clean_blocks += 1;
                    if clean_blocks >= num_blocks {
                        break;
                    }
                }
                Some(entering) => {
                    clean_blocks = 0;
                    let delta = pivot(&mut tree, &mut arcs, root, entering);
                    pivots += 1;
                    if pivots > pivot_cap {
                        return Err(FlowError::PivotLimit {
                            pivots: pivots as u64,
                        });
                    }
                    if delta > 0.0 {
                        stalled = 0;
                    } else {
                        stalled += 1;
                        if stalled > stall_cap {
                            bland = true;
                        }
                    }
                }
            }
        }

        // Any flow left on an artificial arc is demand the real network
        // could not carry — the identical classification on the cold and
        // warm paths.
        let leftover = arcs[num_real..]
            .iter()
            .map(|a| a.flow)
            .fold(0.0f64, f64::max);
        if leftover > INFEASIBLE_EPS {
            return Err(FlowError::Infeasible {
                routed: amount - leftover,
                requested: amount,
            });
        }

        let mut cost = 0.0;
        let mut edge_flows = vec![0.0f64; num_real];
        for (id, arc) in arcs[..num_real].iter().enumerate() {
            edge_flows[id] = arc.flow;
            cost += arc.flow * arc.cost;
        }
        let basis = SpanningBasis {
            topology: topology_fingerprint(network, source, sink, amount),
            num_nodes: n,
            num_real_arcs: num_real,
            states: arcs.iter().map(|a| a.state).collect(),
            flows: arcs.iter().map(|a| a.flow).collect(),
        };
        Ok((
            FlowResult {
                amount,
                cost,
                edge_flows,
                solver: self.name(),
                bellman_ford_skipped: false,
                warm_start: warm_used,
                profile: SolveProfile {
                    pivots: pivots as u64,
                    init_seconds,
                    optimize_seconds: optimize_started.elapsed().as_secs_f64(),
                },
            },
            Some(basis),
        ))
    }
}

/// Restores the saved per-arc states and flows onto a freshly built arc
/// list, validating bounds and flow conservation so a corrupt basis (e.g.
/// a tampered persisted file) degrades to a cold solve. Returns whether
/// the restore was applied.
fn restore(
    arcs: &mut [Arc],
    basis: &SpanningBasis,
    source: usize,
    sink: usize,
    amount: f64,
) -> bool {
    if basis.states.len() != arcs.len() {
        return false;
    }
    // Validate before mutating: bounds per arc, conservation per node.
    let amount_scale = basis
        .flows
        .iter()
        .fold(amount.abs().max(1.0), |acc, &flow| acc.max(flow.abs()));
    let bound_eps = 1e-9 * amount_scale;
    for (arc, &flow) in arcs.iter().zip(&basis.flows) {
        if !(-bound_eps..=arc.upper + bound_eps).contains(&flow) {
            return false;
        }
    }
    let mut balance = vec![0.0f64; basis.num_nodes + 1];
    for (arc, &flow) in arcs.iter().zip(&basis.flows) {
        balance[arc.from] -= flow;
        balance[arc.to] += flow;
    }
    // s–t conservation over real plus artificial arcs: the source emits
    // `amount`, the sink absorbs it, every other node (root included)
    // balances.
    balance[source] += amount;
    balance[sink] -= amount;
    let conservation_eps = 1e-7 * amount_scale;
    if balance.iter().any(|b| b.abs() > conservation_eps) {
        return false;
    }
    let tree_arcs = basis
        .states
        .iter()
        .filter(|&&s| s == ArcState::Tree)
        .count();
    if tree_arcs != basis.num_nodes {
        return false;
    }
    for ((arc, &state), &flow) in arcs.iter_mut().zip(&basis.states).zip(&basis.flows) {
        arc.state = state;
        arc.flow = flow;
    }
    true
}

/// Reduced cost `c + π(from) − π(to)` of an arc under the tree potentials.
fn reduced_cost(arc: &Arc, tree: &Tree) -> f64 {
    arc.cost + tree.potential[arc.from] - tree.potential[arc.to]
}

/// Scale-aware eligibility threshold for one arc: the fixed `PRICE_EPS`
/// floor or the rounding-noise scale of the reduced-cost cancellation,
/// whichever is larger. Potentials on instances still carrying big-M
/// artificial arcs in the basis are O(M); comparing their O(M·ε_mach)
/// cancellation noise against an absolute 1e-9 misclassifies arcs once
/// `M` crosses ~1e7 (1000+ strings with wide cost spreads).
fn price_tolerance(arc: &Arc, tree: &Tree) -> f64 {
    let scale = arc.cost.abs() + tree.potential[arc.from].abs() + tree.potential[arc.to].abs();
    PRICE_EPS.max(PRICE_REL_EPS * scale)
}

/// Pricing violation: positive iff pivoting the arc in improves the
/// objective (lower-bound arcs want negative reduced cost, upper-bound
/// arcs positive).
fn violation(arc: &Arc, tree: &Tree) -> f64 {
    match arc.state {
        ArcState::Tree => 0.0,
        ArcState::Lower => {
            if arc.residual() > CAP_EPS {
                -reduced_cost(arc, tree)
            } else {
                0.0
            }
        }
        ArcState::Upper => reduced_cost(arc, tree),
    }
}

/// Recomputes parent/depth/potential for the whole tree from `root` using
/// the current tree adjacency, returning how many nodes were reached (a
/// valid spanning tree reaches all of them). Tree arcs have zero reduced
/// cost, which fixes every potential relative to `π(root) = 0`.
fn recompute_tree(tree: &mut Tree, arcs: &[Arc], root: usize) -> usize {
    tree.parent[root] = usize::MAX;
    tree.parent_arc[root] = usize::MAX;
    tree.depth[root] = 0;
    tree.potential[root] = 0.0;
    let mut stack = vec![root];
    let mut visited = vec![false; tree.parent.len()];
    visited[root] = true;
    let mut reached = 1usize;
    while let Some(u) = stack.pop() {
        for idx in 0..tree.adjacency[u].len() {
            let arc_id = tree.adjacency[u][idx];
            let arc = &arcs[arc_id];
            let v = if arc.from == u { arc.to } else { arc.from };
            if visited[v] {
                continue;
            }
            visited[v] = true;
            reached += 1;
            tree.parent[v] = u;
            tree.parent_arc[v] = arc_id;
            tree.depth[v] = tree.depth[u] + 1;
            tree.potential[v] = if arc.from == u {
                // u → v basic: c + π(u) − π(v) = 0.
                tree.potential[u] + arc.cost
            } else {
                tree.potential[u] - arc.cost
            };
            stack.push(v);
        }
    }
    reached
}

/// One basis exchange around the entering arc's pivot cycle. Returns the
/// flow change `delta` pushed around the cycle (zero for a degenerate
/// pivot — the stall signal for the Bland's-rule watchdog).
fn pivot(tree: &mut Tree, arcs: &mut [Arc], root: usize, entering: usize) -> f64 {
    // Push direction: lower-bound arcs push from→to, upper-bound arcs
    // reverse flow to→from.
    let at_lower = arcs[entering].state == ArcState::Lower;
    let (tail, head) = if at_lower {
        (arcs[entering].from, arcs[entering].to)
    } else {
        (arcs[entering].to, arcs[entering].from)
    };

    // Walk both endpoints to the cycle apex, tracking the blocking arc with
    // the smallest residual in push direction. Tie rule (strong
    // feasibility): first blocking arc on the tail side (strict <), last on
    // the head side (<=).
    let mut delta = if at_lower {
        arcs[entering].residual()
    } else {
        arcs[entering].flow
    };
    let mut leaving = entering;
    // When the leaving arc blocks at its upper bound the basis exchange
    // parks it there; when it blocks at zero flow it parks at the lower
    // bound. The entering arc's own bound flips state instead.
    let mut leaving_at_upper = !at_lower;

    let (mut u, mut v) = (tail, head);
    while u != v {
        if tree.depth[u] >= tree.depth[v] {
            // Tail side: cycle direction runs parent→u, so an arc oriented
            // parent→u has residual headroom and an arc u→parent is drained.
            let arc_id = tree.parent_arc[u];
            let arc = &arcs[arc_id];
            let (room, hits_upper) = if arc.to == u {
                (arc.residual(), true)
            } else {
                (arc.flow, false)
            };
            if room < delta {
                delta = room;
                leaving = arc_id;
                leaving_at_upper = hits_upper;
            }
            u = tree.parent[u];
        } else {
            // Head side: cycle direction runs v→parent.
            let arc_id = tree.parent_arc[v];
            let arc = &arcs[arc_id];
            let (room, hits_upper) = if arc.from == v {
                (arc.residual(), true)
            } else {
                (arc.flow, false)
            };
            if room <= delta {
                delta = room;
                leaving = arc_id;
                leaving_at_upper = hits_upper;
            }
            v = tree.parent[v];
        }
    }

    // Apply the flow change around the cycle.
    if delta > 0.0 {
        if at_lower {
            arcs[entering].flow += delta;
        } else {
            arcs[entering].flow -= delta;
        }
        let (mut u, mut v) = (tail, head);
        while u != v {
            if tree.depth[u] >= tree.depth[v] {
                let arc_id = tree.parent_arc[u];
                if arcs[arc_id].to == u {
                    arcs[arc_id].flow += delta;
                } else {
                    arcs[arc_id].flow -= delta;
                }
                u = tree.parent[u];
            } else {
                let arc_id = tree.parent_arc[v];
                if arcs[arc_id].from == v {
                    arcs[arc_id].flow += delta;
                } else {
                    arcs[arc_id].flow -= delta;
                }
                v = tree.parent[v];
            }
        }
    }

    if leaving == entering {
        // The entering arc saturated before any tree arc blocked: it just
        // jumps to its other bound, the basis is unchanged.
        let arc = &mut arcs[entering];
        if at_lower {
            arc.flow = arc.upper;
            arc.state = ArcState::Upper;
        } else {
            arc.flow = 0.0;
            arc.state = ArcState::Lower;
        }
        return delta;
    }

    // Basis exchange: the leaving arc parks exactly at the bound it
    // blocked on, the entering arc joins the tree.
    {
        let arc = &mut arcs[leaving];
        if leaving_at_upper {
            arc.flow = arc.upper;
            arc.state = ArcState::Upper;
        } else {
            arc.flow = 0.0;
            arc.state = ArcState::Lower;
        }
    }
    arcs[entering].state = ArcState::Tree;
    let (lf, lt) = (arcs[leaving].from, arcs[leaving].to);
    tree.adjacency[lf].retain(|&a| a != leaving);
    tree.adjacency[lt].retain(|&a| a != leaving);
    let (ef, et) = (arcs[entering].from, arcs[entering].to);
    tree.adjacency[ef].push(entering);
    tree.adjacency[et].push(entering);
    recompute_tree(tree, arcs, root);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SolverKind;

    #[test]
    fn simplex_matches_ssp_on_a_grid_of_random_instances() {
        // Deterministic xorshift-generated networks; optimal cost must agree
        // with the default backend to 1e-9.
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..40 {
            let n = 3 + (next() % 6) as usize;
            let mut net = FlowNetwork::new(n);
            // A guaranteed backbone path plus random extras.
            for v in 0..n - 1 {
                net.add_edge(v, v + 1, 1.0 + (next() % 4) as f64, (next() % 9) as f64);
            }
            for _ in 0..2 * n {
                let u = (next() % n as u64) as usize;
                let v = (next() % n as u64) as usize;
                if u != v {
                    net.add_edge(u, v, (next() % 5) as f64 * 0.5, (next() % 11) as f64);
                }
            }
            let amount = 0.5 + (next() % 3) as f64 * 0.5;
            let ssp = net.solve(SolverKind::SuccessiveShortestPath, 0, n - 1, amount, None);
            let ns = net.solve(SolverKind::NetworkSimplex, 0, n - 1, amount, None);
            match (ssp, ns) {
                (Ok((a, _)), Ok((b, _))) => {
                    assert!(
                        (a.cost - b.cost).abs() < 1e-9,
                        "case {case}: ssp {} vs simplex {}",
                        a.cost,
                        b.cost
                    );
                }
                (
                    Err(FlowError::Infeasible {
                        routed: ra,
                        requested: qa,
                    }),
                    Err(FlowError::Infeasible {
                        routed: rb,
                        requested: qb,
                    }),
                ) => {
                    assert!((ra - rb).abs() < 1e-9, "case {case}: routed {ra} vs {rb}");
                    assert_eq!(qa.to_bits(), qb.to_bits(), "case {case}");
                }
                (a, b) => panic!("case {case}: diverging classification {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn simplex_handles_saturating_parallel_arcs() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_edge(0, 1, 1.0, 3.0);
        let b = net.add_edge(0, 1, 2.0, 1.0);
        let (r, _) = net
            .solve(SolverKind::NetworkSimplex, 0, 1, 2.5, None)
            .unwrap();
        assert!((r.edge_flows[b] - 2.0).abs() < 1e-9, "cheap arc saturates");
        assert!((r.edge_flows[a] - 0.5).abs() < 1e-9);
        assert!((r.cost - (2.0 + 1.5)).abs() < 1e-9);
    }

    #[test]
    fn simplex_totally_disconnected_sink_is_infeasible_with_zero_routed() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5.0, 1.0);
        let err = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.0, None)
            .unwrap_err();
        match err {
            FlowError::Infeasible { routed, requested } => {
                assert!(routed.abs() < 1e-9);
                assert!((requested - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simplex_matches_ssp_under_adversarial_cost_spreads() {
        // Regression for the big-M precision bug: costs spanning nine
        // orders of magnitude put the artificial arcs' M (and thus the
        // transient potentials) far beyond the old absolute 1e-9 pricing
        // tolerance's useful range. The relative (scale-aware) tolerance
        // must still land on the ssp cost to relative 1e-9.
        let mut state = 0x51ed_270bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..20 {
            let n = 6 + (next() % 5) as usize;
            let mut net = FlowNetwork::new(n);
            // Backbone path so the instance stays feasible, with costs
            // alternating between O(1e9) and O(1e-3).
            for v in 0..n - 1 {
                let cost = if v % 2 == 0 {
                    1e9 + (next() % 1000) as f64
                } else {
                    1e-3 * (next() % 1000) as f64
                };
                net.add_edge(v, v + 1, 1.0 + (next() % 3) as f64, cost);
            }
            for _ in 0..3 * n {
                let u = (next() % n as u64) as usize;
                let v = (next() % n as u64) as usize;
                if u != v {
                    // Non-negative spreads only: a capacitated negative
                    // cycle would put the instance outside the
                    // cross-backend equivalence contract (ssp does not
                    // cancel cycles).
                    let cost = match next() % 3 {
                        0 => (next() % 2_000_000_000) as f64,
                        1 => 1e-6 * (next() % 1000) as f64,
                        _ => (next() % 100) as f64,
                    };
                    net.add_edge(u, v, 0.5 + (next() % 4) as f64 * 0.5, cost);
                }
            }
            let amount = 0.5 + (next() % 4) as f64 * 0.5;
            let (ssp, _) = net
                .solve(SolverKind::SuccessiveShortestPath, 0, n - 1, amount, None)
                .unwrap_or_else(|e| panic!("case {case}: ssp failed: {e}"));
            let (ns, _) = net
                .solve(SolverKind::NetworkSimplex, 0, n - 1, amount, None)
                .unwrap_or_else(|e| panic!("case {case}: simplex failed: {e}"));
            let scale = ssp.cost.abs().max(1.0);
            assert!(
                (ssp.cost - ns.cost).abs() <= 1e-9 * scale,
                "case {case}: ssp {} vs simplex {} (relative {})",
                ssp.cost,
                ns.cost,
                (ssp.cost - ns.cost).abs() / scale
            );
        }
    }

    #[test]
    fn warm_start_from_a_matching_basis_reaches_the_same_optimum() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(0, 2, 2.0, 2.0);
        net.add_edge(1, 3, 2.0, 3.0);
        net.add_edge(2, 3, 2.0, 1.0);
        net.add_edge(1, 2, 1.0, 0.5);
        let (cold, basis) = net
            .solve(SolverKind::NetworkSimplex, 0, 3, 2.0, None)
            .unwrap();
        assert!(!cold.warm_start);
        let basis = basis.expect("the simplex exports its basis");

        // Same topology, shifted costs: the warm solve must agree with a
        // fresh cold solve on the re-costed instance.
        let mut recosted = FlowNetwork::new(4);
        recosted.add_edge(0, 1, 2.0, 4.0);
        recosted.add_edge(0, 2, 2.0, 0.5);
        recosted.add_edge(1, 3, 2.0, 1.0);
        recosted.add_edge(2, 3, 2.0, 5.0);
        recosted.add_edge(1, 2, 1.0, 2.0);
        let (warm, warm_basis) = net
            .solve(SolverKind::NetworkSimplex, 0, 3, 2.0, Some(&basis))
            .unwrap();
        assert!(warm.warm_start, "matching basis must be reused");
        assert!(warm_basis.is_some());
        let (rewarm, _) = recosted
            .solve(SolverKind::NetworkSimplex, 0, 3, 2.0, Some(&basis))
            .unwrap();
        assert!(rewarm.warm_start);
        let (recold, _) = recosted
            .solve(SolverKind::NetworkSimplex, 0, 3, 2.0, None)
            .unwrap();
        assert!(
            (rewarm.cost - recold.cost).abs() < 1e-9,
            "warm {} vs cold {}",
            rewarm.cost,
            recold.cost
        );
    }

    #[test]
    fn mismatched_or_corrupt_bases_fall_back_to_cold_solves() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0, 1.0);
        net.add_edge(1, 2, 2.0, 1.0);
        let (_, basis) = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.0, None)
            .unwrap();
        let basis = basis.unwrap();

        // Topology change: an extra edge invalidates the fingerprint.
        let mut grown = net.clone();
        grown.add_edge(0, 2, 1.0, 10.0);
        let (r, _) = grown
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.0, Some(&basis))
            .unwrap();
        assert!(!r.warm_start, "fingerprint mismatch must solve cold");

        // Amount change invalidates too.
        let (r, _) = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.5, Some(&basis))
            .unwrap();
        assert!(!r.warm_start);

        // A corrupt basis (conservation violated) is rejected by restore.
        let mut corrupt = basis.clone();
        corrupt.flows[0] += 0.5;
        let (r, _) = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.0, Some(&corrupt))
            .unwrap();
        assert!(!r.warm_start, "corrupt flows must solve cold");
        assert!((r.cost - 2.0).abs() < 1e-9);

        // A corrupt basis with no spanning tree is rejected after the
        // adjacency rebuild.
        let mut no_tree = basis.clone();
        for state in &mut no_tree.states {
            *state = ArcState::Lower;
        }
        // Keep the tree-arc count plausible so the restore-time count
        // check alone does not catch it.
        for state in no_tree.states.iter_mut().take(no_tree.num_nodes) {
            *state = ArcState::Tree;
        }
        let (r, _) = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.0, Some(&no_tree))
            .unwrap();
        assert!((r.cost - 2.0).abs() < 1e-9, "still the right answer");
    }

    #[test]
    fn warm_infeasible_classification_matches_cold() {
        // A saturating instance: capacity 1.0 but 2.0 requested.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0, 1.0);
        net.add_edge(1, 2, 1.0, 1.0);
        let cold_err = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 2.0, None)
            .unwrap_err();

        // Build a matching basis from the *feasible* 2.0-capacity variant?
        // No — the fingerprint covers capacities, so the only way to get a
        // matching basis for the infeasible instance is a feasible solve of
        // the same topology. Route the feasible 1.0 first, then warm-start
        // the 2.0 request: the fingerprint (amount differs) rejects reuse
        // and the cold path classifies. Either way the error must be
        // identical to the cold solve.
        let (_, basis) = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 1.0, None)
            .unwrap();
        let warm_err = net
            .solve(SolverKind::NetworkSimplex, 0, 2, 2.0, Some(&basis.unwrap()))
            .unwrap_err();
        assert_eq!(cold_err, warm_err);
        match warm_err {
            FlowError::Infeasible { routed, requested } => {
                assert!((routed - 1.0).abs() < 1e-9);
                assert!((requested - 2.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_symmetric_instances_terminate_and_match_ssp() {
        // Anti-cycling property: fully symmetric bipartite-like instances
        // (every cost equal, every capacity equal — the tiny-ising shape)
        // maximize degenerate ties. The solve must terminate without
        // tripping the pivot cap and agree with ssp.
        quickprop::check(
            "degenerate symmetric instances terminate",
            quickprop::Config::default().with_cases(40),
            |g| {
                let side = g.usize_in(2..6);
                let cost = (g.u64_in(0..=4)) as f64;
                let cap = 0.25 * (1 + g.u64_in(0..=3)) as f64;
                (side, cost, cap, g.u64())
            },
            |&(side, cost, cap, _seed)| {
                // S -> side left nodes -> side right nodes -> T, all arcs
                // identical: maximal symmetry, maximal degeneracy.
                let n = 2 * side + 2;
                let mut net = FlowNetwork::new(n);
                let (s, t) = (0, n - 1);
                for i in 0..side {
                    net.add_edge(s, 1 + i, cap, cost);
                    for j in 0..side {
                        net.add_edge(1 + i, 1 + side + j, cap, cost);
                    }
                    net.add_edge(1 + side + i, t, cap, cost);
                }
                let amount = cap * side as f64;
                let ns = net.solve(SolverKind::NetworkSimplex, s, t, amount, None);
                let ssp = net.solve(SolverKind::SuccessiveShortestPath, s, t, amount, None);
                match (ns, ssp) {
                    (Ok((a, _)), Ok((b, _))) => {
                        let scale = b.cost.abs().max(1.0);
                        if (a.cost - b.cost).abs() <= 1e-9 * scale {
                            Ok(())
                        } else {
                            Err(format!("cost mismatch: simplex {} ssp {}", a.cost, b.cost))
                        }
                    }
                    (Err(a), Err(b)) if a == b => Ok(()),
                    (a, b) => Err(format!("classification diverged: {a:?} vs {b:?}")),
                }
            },
        );
    }

    #[test]
    fn pivot_limit_is_an_error_not_a_silent_break() {
        // There is no known input that trips the cap (that is the point of
        // the watchdog); assert the error type's contract instead.
        let err = FlowError::PivotLimit { pivots: 123 };
        assert!(err.to_string().contains("123"));
        assert_ne!(
            err,
            FlowError::Infeasible {
                routed: 0.0,
                requested: 1.0
            }
        );
    }
}
