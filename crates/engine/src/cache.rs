//! Transition-matrix caching: sharded, LRU-bounded, optionally persistent.
//!
//! Building a transition matrix for the `GateCancellation*` strategies means
//! solving a min-cost-flow problem over all term pairs — the dominant cost
//! of a MarQSim compile (§6.6, Table 2). The evaluation loop re-solves that
//! identical problem for every `(ε, seed)` sweep point. [`TransitionCache`]
//! keys validated [`HttGraph`]s by a structural Hamiltonian fingerprint plus
//! a strategy key, so each `(Hamiltonian, strategy)` pair is solved once per
//! cache (each engine owns one); the `P_gc` component is additionally cached
//! per Hamiltonian alone, because it is independent of the combination
//! weights and is shared by the MarQSim-GC and MarQSim-GC-RP strategies.
//!
//! # Architecture
//!
//! The storage layer is a [`ShardedLru`]: entries
//! are spread over per-mutex shards selected by the fingerprint (distinct
//! Hamiltonians never contend on one lock) and each shard is bounded by an
//! LRU entry cap, so a long-lived service cannot leak memory through the
//! cache. An opt-in persistence layer spills solved `P_gc` matrices to a
//! directory in a versioned binary format (see the `persist` module) and
//! loads them back in later processes, which makes repeated benchmark and
//! CI runs nearly free. Configure all three axes with [`CacheConfig`]; the
//! engine wires them to `MARQSIM_CACHE_CAP` and `MARQSIM_CACHE_DIR`.
//!
//! Cached values are immutable and shared via [`Arc`], so a cache hit costs
//! one shard-map lookup, a Hamiltonian equality check, and a reference-count
//! bump. Keys are structural (FNV-1a over term coefficients and Pauli
//! operators, exact `f64` bit patterns for weights) with no float
//! tolerance, and every entry stores the Hamiltonian it was built from and
//! is matched by full equality — a 64-bit fingerprint collision therefore
//! costs one extra bucket entry, never a wrong graph. The same full-equality
//! re-verification guards every disk load, so a stale or colliding cache
//! file degrades to a re-solve, never a wrong matrix.
//!
//! [`CacheStats`] snapshots the hit/miss/eviction and flow-solve/disk
//! counters; the evaluation binaries print it so "how much work did the
//! cache save" is always visible.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use marqsim_core::gate_cancel::gate_cancellation_matrix_with;
use marqsim_core::transition::{build_transition_matrix_with, strategy_uses_gate_cancellation};
use marqsim_core::{CompileError, HttGraph, SolverKind, SpanningBasis, TransitionStrategy};
use marqsim_markov::TransitionMatrix;
use marqsim_obs::{metrics, trace};
use marqsim_pauli::Hamiltonian;

use crate::persist;
use crate::shard::ShardedLru;

/// Default LRU entry cap per shard — generous (a full evaluation run touches
/// a few dozen distinct keys) while still bounding a long-lived service.
pub const DEFAULT_CACHE_CAP: usize = 256;

/// A structural 64-bit FNV-1a fingerprint of a Hamiltonian: qubit count,
/// term count, and every term's coefficient bits and Pauli operators, in
/// order. Stable across processes and platforms.
pub fn hamiltonian_fingerprint(ham: &Hamiltonian) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(ham.num_qubits() as u64);
    h.write_u64(ham.num_terms() as u64);
    for term in ham.terms() {
        h.write_u64(term.coefficient.to_bits());
        for op in term.string.ops() {
            h.write_u8(*op as u8);
        }
    }
    h.finish()
}

/// A hashable, strategy-identifying key: the variant plus exact bit patterns
/// of every weight and perturbation parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategyKey {
    variant: u8,
    qdrift_weight: u64,
    gc_weight: u64,
    rp_weight: u64,
    perturb_samples: u64,
    perturb_magnitude: u64,
    perturb_probability: u64,
    perturb_seed: u64,
}

impl StrategyKey {
    /// Builds the key for a strategy.
    pub fn of(strategy: &TransitionStrategy) -> Self {
        let zero = 0.0f64.to_bits();
        match *strategy {
            TransitionStrategy::QDrift => StrategyKey {
                variant: 0,
                qdrift_weight: 1.0f64.to_bits(),
                gc_weight: zero,
                rp_weight: zero,
                perturb_samples: 0,
                perturb_magnitude: zero,
                perturb_probability: zero,
                perturb_seed: 0,
            },
            TransitionStrategy::GateCancellation { qdrift_weight } => StrategyKey {
                variant: 1,
                qdrift_weight: qdrift_weight.to_bits(),
                gc_weight: (1.0 - qdrift_weight).to_bits(),
                rp_weight: zero,
                perturb_samples: 0,
                perturb_magnitude: zero,
                perturb_probability: zero,
                perturb_seed: 0,
            },
            TransitionStrategy::GateCancellationRandomPerturbation {
                qdrift_weight,
                gc_weight,
                ref perturbation,
            } => StrategyKey {
                variant: 2,
                qdrift_weight: qdrift_weight.to_bits(),
                gc_weight: gc_weight.to_bits(),
                rp_weight: (1.0 - qdrift_weight - gc_weight).to_bits(),
                perturb_samples: perturbation.samples as u64,
                perturb_magnitude: perturbation.magnitude.to_bits(),
                perturb_probability: perturbation.probability.to_bits(),
                perturb_seed: perturbation.seed,
            },
            TransitionStrategy::Combined {
                qdrift_weight,
                gc_weight,
                rp_weight,
                ref perturbation,
            } => StrategyKey {
                variant: 3,
                qdrift_weight: qdrift_weight.to_bits(),
                gc_weight: gc_weight.to_bits(),
                rp_weight: rp_weight.to_bits(),
                perturb_samples: perturbation.samples as u64,
                perturb_magnitude: perturbation.magnitude.to_bits(),
                perturb_probability: perturbation.probability.to_bits(),
                perturb_seed: perturbation.seed,
            },
        }
    }
}

/// Cache key: which Hamiltonian, compiled how, solved by which backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`hamiltonian_fingerprint`] of the (unsplit) input Hamiltonian.
    pub fingerprint: u64,
    /// [`StrategyKey`] of the transition strategy.
    pub strategy: StrategyKey,
    /// The min-cost-flow backend the graph was solved with. Backends
    /// guarantee equal optimal cost but may pick different optimal flows on
    /// degenerate instances, so entries are never shared across backends.
    pub solver: SolverKind,
}

/// Construction parameters of a [`TransitionCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Shard count; `0` means "auto" (available parallelism, rounded up to a
    /// power of two, capped at 64).
    pub shards: usize,
    /// LRU entry cap per shard; `0` means unbounded (the legacy behaviour).
    pub cap_per_shard: usize,
    /// Directory for persisted `P_gc` components; `None` disables
    /// persistence.
    pub persist_dir: Option<PathBuf>,
    /// Default min-cost-flow backend for this cache's solves (a per-job
    /// [`SubmitOptions::flow_solver`](crate::SubmitOptions) override selects
    /// another backend per lookup). The engine wires this to
    /// `MARQSIM_FLOW_SOLVER`; the engine-level default is
    /// [`SolverKind::Auto`], which picks per instance by size
    /// (`MARQSIM_FLOW_SOLVER=ssp` pins the legacy backend).
    pub flow_solver: SolverKind,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 0,
            cap_per_shard: DEFAULT_CACHE_CAP,
            persist_dir: None,
            flow_solver: SolverKind::Auto,
        }
    }
}

impl CacheConfig {
    /// Sets the shard count (`0` = auto).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard entry cap (`0` = unbounded).
    pub fn with_cap(mut self, cap_per_shard: usize) -> Self {
        self.cap_per_shard = cap_per_shard;
        self
    }

    /// Enables disk persistence of `P_gc` components under `dir`.
    pub fn with_persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Sets the default min-cost-flow backend.
    pub fn with_flow_solver(mut self, solver: SolverKind) -> Self {
        self.flow_solver = solver;
        self
    }
}

/// Counter snapshot of a [`TransitionCache`] (see [`TransitionCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Graph lookups answered from the in-memory cache.
    pub hits: u64,
    /// Graph lookups that had to build the transition matrix.
    pub misses: u64,
    /// `P_gc` component solves avoided by the in-memory per-Hamiltonian
    /// component cache (on graph misses whose strategy needs `P_gc`).
    pub component_hits: u64,
    /// Min-cost-flow solves actually performed (component-cache and disk
    /// misses). The savings headline: every avoided solve is a `P_gc`
    /// served from memory or disk instead.
    pub flow_solves: u64,
    /// Flow solves performed by the successive-shortest-path backend.
    pub flow_solves_ssp: u64,
    /// Flow solves performed by the network-simplex backend.
    pub flow_solves_simplex: u64,
    /// Flow solves answered by **warm-starting** a saved spanning basis
    /// (re-price + re-pivot) instead of a cold solve — `P_rp` perturbation
    /// samples reusing the `P_gc` basis. Warm starts are *not* counted in
    /// [`flow_solves`](Self::flow_solves): that field keeps meaning "cold
    /// solves of the full model", so `flow_solves=1 warm_starts=N−1` reads
    /// as one real solve amortized over N sample re-pivots.
    pub warm_starts: u64,
    /// `P_gc` components loaded from the persistence directory.
    pub disk_hits: u64,
    /// `P_gc` components written to the persistence directory.
    pub disk_writes: u64,
    /// Failed persistence writes (treated as "persistence unavailable",
    /// never as a compile failure).
    pub disk_errors: u64,
    /// Entries dropped by the per-shard LRU bound (graphs + components).
    pub evictions: u64,
    /// Number of cached graphs.
    pub graphs: usize,
    /// Number of cached `P_gc` components.
    pub components: usize,
}

impl CacheStats {
    /// Counter-wise difference `self − earlier` (saturating), attributing
    /// cache activity to the window between two snapshots — e.g. "how many
    /// min-cost-flow solves did *this job* trigger". The `graphs` /
    /// `components` fields are gauges, not counters, so the later snapshot's
    /// values are kept as-is. The exhaustive destructuring makes adding a
    /// `CacheStats` field without deciding its delta semantics a compile
    /// error.
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        let CacheStats {
            hits,
            misses,
            component_hits,
            flow_solves,
            flow_solves_ssp,
            flow_solves_simplex,
            warm_starts,
            disk_hits,
            disk_writes,
            disk_errors,
            evictions,
            graphs,
            components,
        } = *self;
        CacheStats {
            hits: hits.saturating_sub(earlier.hits),
            misses: misses.saturating_sub(earlier.misses),
            component_hits: component_hits.saturating_sub(earlier.component_hits),
            flow_solves: flow_solves.saturating_sub(earlier.flow_solves),
            flow_solves_ssp: flow_solves_ssp.saturating_sub(earlier.flow_solves_ssp),
            flow_solves_simplex: flow_solves_simplex.saturating_sub(earlier.flow_solves_simplex),
            warm_starts: warm_starts.saturating_sub(earlier.warm_starts),
            disk_hits: disk_hits.saturating_sub(earlier.disk_hits),
            disk_writes: disk_writes.saturating_sub(earlier.disk_writes),
            disk_errors: disk_errors.saturating_sub(earlier.disk_errors),
            evictions: evictions.saturating_sub(earlier.evictions),
            graphs,
            components,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    /// Field-wise accumulation, for aggregating counters across several
    /// caches (e.g. `table2`'s cold + warm + component caches). The
    /// exhaustive destructuring makes adding a `CacheStats` field without
    /// updating the aggregation a compile error.
    fn add_assign(&mut self, rhs: CacheStats) {
        let CacheStats {
            hits,
            misses,
            component_hits,
            flow_solves,
            flow_solves_ssp,
            flow_solves_simplex,
            warm_starts,
            disk_hits,
            disk_writes,
            disk_errors,
            evictions,
            graphs,
            components,
        } = rhs;
        self.hits += hits;
        self.misses += misses;
        self.component_hits += component_hits;
        self.flow_solves += flow_solves;
        self.flow_solves_ssp += flow_solves_ssp;
        self.flow_solves_simplex += flow_solves_simplex;
        self.warm_starts += warm_starts;
        self.disk_hits += disk_hits;
        self.disk_writes += disk_writes;
        self.disk_errors += disk_errors;
        self.evictions += evictions;
        self.graphs += graphs;
        self.components += components;
    }
}

/// Registry handles mirroring the cache's own atomic counters into the
/// process-wide metrics registry (`marqsim_cache_*_total`). The atomics
/// stay authoritative for [`CacheStats`] — per-cache, resettable by
/// [`TransitionCache::clear`] — while the registry view is cumulative
/// across every cache in the process (registry counters are monotonic by
/// contract, so `clear` never rolls them back).
#[derive(Debug)]
struct CacheInstruments {
    hits: Arc<metrics::Counter>,
    misses: Arc<metrics::Counter>,
    component_hits: Arc<metrics::Counter>,
    flow_solves: Arc<metrics::Counter>,
    warm_starts: Arc<metrics::Counter>,
    disk_hits: Arc<metrics::Counter>,
    disk_writes: Arc<metrics::Counter>,
    disk_errors: Arc<metrics::Counter>,
}

impl CacheInstruments {
    fn from_global_registry() -> Self {
        let registry = metrics::global();
        CacheInstruments {
            hits: registry.counter("marqsim_cache_hits_total"),
            misses: registry.counter("marqsim_cache_misses_total"),
            component_hits: registry.counter("marqsim_cache_component_hits_total"),
            flow_solves: registry.counter("marqsim_cache_flow_solves_total"),
            warm_starts: registry.counter("marqsim_cache_warm_starts_total"),
            disk_hits: registry.counter("marqsim_cache_disk_hits_total"),
            disk_writes: registry.counter("marqsim_cache_disk_writes_total"),
            disk_errors: registry.counter("marqsim_cache_disk_errors_total"),
        }
    }
}

/// A cached `P_gc` component: the solved matrix plus the spanning basis
/// its min-cost-flow solve exported (`None` under backends without warm
/// support). The basis rides along so `P_rp` perturbation samples — same
/// network topology, perturbed costs — can be solved as warm re-pivots.
#[derive(Debug, Clone)]
pub struct GcComponent {
    /// The solved `P_gc` transition matrix.
    pub matrix: Arc<TransitionMatrix>,
    /// The optimal spanning basis of the solve, when the backend exports
    /// one.
    pub basis: Option<Arc<SpanningBasis>>,
}

/// A cache of validated HTT graphs and `P_gc` components.
///
/// Thread-safe; each [`Engine`](crate::Engine) owns one behind an [`Arc`]
/// shared by its workers (engines do not share in-memory caches — `table2`
/// exploits this to time cold and warm compiles side by side — but engines
/// pointed at the same [`CacheConfig::persist_dir`] do share the disk
/// layer). Concurrent misses on the same key may both build the value (the
/// second insert wins, replacing the first in place), which is harmless
/// because construction is deterministic: both threads build identical
/// graphs.
#[derive(Debug)]
pub struct TransitionCache {
    graphs: ShardedLru<CacheKey, Hamiltonian, Arc<HttGraph>>,
    components: ShardedLru<(u64, SolverKind), Hamiltonian, GcComponent>,
    persist_dir: Option<PathBuf>,
    flow_solver: SolverKind,
    hits: AtomicU64,
    misses: AtomicU64,
    component_hits: AtomicU64,
    flow_solves: AtomicU64,
    flow_solves_ssp: AtomicU64,
    flow_solves_simplex: AtomicU64,
    warm_starts: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
    disk_errors: AtomicU64,
    instruments: CacheInstruments,
}

impl Default for TransitionCache {
    fn default() -> Self {
        TransitionCache::with_config(CacheConfig::default())
    }
}

impl TransitionCache {
    /// Creates an empty cache with the default configuration (auto shard
    /// count, [`DEFAULT_CACHE_CAP`] entries per shard, no persistence).
    pub fn new() -> Self {
        TransitionCache::default()
    }

    /// Creates an empty cache with an explicit configuration.
    pub fn with_config(config: CacheConfig) -> Self {
        TransitionCache {
            graphs: ShardedLru::new(config.shards, config.cap_per_shard),
            components: ShardedLru::new(config.shards, config.cap_per_shard),
            persist_dir: config.persist_dir,
            flow_solver: config.flow_solver,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            component_hits: AtomicU64::new(0),
            flow_solves: AtomicU64::new(0),
            flow_solves_ssp: AtomicU64::new(0),
            flow_solves_simplex: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
            instruments: CacheInstruments::from_global_registry(),
        }
    }

    /// The cache's default min-cost-flow backend.
    pub fn flow_solver(&self) -> SolverKind {
        self.flow_solver
    }

    /// Number of shards (same for the graph and component layers).
    pub fn shard_count(&self) -> usize {
        self.graphs.shard_count()
    }

    /// LRU entry cap per shard (`0` = unbounded).
    pub fn cap_per_shard(&self) -> usize {
        self.graphs.cap_per_shard()
    }

    /// The persistence directory, when enabled.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// Per-shard graph entry counts (diagnostics / cap assertions).
    pub fn graph_shard_lens(&self) -> Vec<usize> {
        self.graphs.shard_lens()
    }

    /// Per-shard `P_gc` component entry counts.
    pub fn component_shard_lens(&self) -> Vec<usize> {
        self.components.shard_lens()
    }

    /// Returns the cached HTT graph for `(ham, strategy)`, building and
    /// inserting it on a miss.
    ///
    /// No shard lock is held while solving: concurrent misses trade a
    /// duplicated (deterministic, identical) solve for never blocking other
    /// strategies' lookups behind a multi-second min-cost-flow run.
    ///
    /// # Errors
    ///
    /// Propagates transition-matrix construction failures; nothing is
    /// cached for a failed build.
    pub fn get_or_build(
        &self,
        ham: &Hamiltonian,
        strategy: &TransitionStrategy,
    ) -> Result<Arc<HttGraph>, CompileError> {
        self.get_or_build_with(ham, strategy, self.flow_solver)
    }

    /// Like [`get_or_build`](Self::get_or_build) with an explicit
    /// min-cost-flow backend — the per-job selection path
    /// ([`SubmitOptions::flow_solver`](crate::SubmitOptions)). Entries are
    /// keyed by backend, so a simplex-solved graph is never served to a
    /// successive-shortest-path request (backends agree on optimal cost,
    /// not necessarily on the optimal flow).
    ///
    /// # Errors
    ///
    /// Propagates transition-matrix construction failures; nothing is
    /// cached for a failed build.
    pub fn get_or_build_with(
        &self,
        ham: &Hamiltonian,
        strategy: &TransitionStrategy,
        solver: SolverKind,
    ) -> Result<Arc<HttGraph>, CompileError> {
        // The `auto` policy resolves here, on the as-submitted term count,
        // so cache keys only ever name concrete backends — an auto request
        // and an explicit request for the backend it resolves to share one
        // entry.
        let solver = solver.resolve_for_strings(ham.num_terms());
        let key = CacheKey {
            fingerprint: hamiltonian_fingerprint(ham),
            strategy: StrategyKey::of(strategy),
            solver,
        };
        if let Some(graph) = self.graphs.get(key.fingerprint, &key, ham) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.instruments.hits.inc();
            return Ok(graph);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.instruments.misses.inc();
        // Reject a bad strategy before the `P_gc` solve below builds a flow
        // network.
        strategy.validate()?;

        // Dominant-term splitting happens before fingerprinting the working
        // Hamiltonian for the component cache: P_gc is a function of the
        // split form.
        let working = ham.split_if_dominant();
        let cached_gc = if strategy_uses_gate_cancellation(strategy) {
            Some(self.gc_component(&working, solver)?)
        } else {
            None
        };
        let (matrix, warm_starts) = build_transition_matrix_with(
            &working,
            strategy,
            cached_gc
                .as_ref()
                .map(|component| (&*component.matrix, component.basis.as_deref())),
            solver,
        )?;
        self.record_warm_starts(warm_starts);
        let graph = Arc::new(HttGraph::from_matrix(&working, matrix)?);

        self.graphs
            .insert(key.fingerprint, key, ham.clone(), Arc::clone(&graph));
        Ok(graph)
    }

    /// Returns the `P_gc` component for `ham`, splitting dominant terms
    /// first (the same normalization [`get_or_build`](Self::get_or_build)
    /// applies) and serving the result from memory, then disk, then a fresh
    /// min-cost-flow solve under the cache's default backend.
    ///
    /// This is the public entry point for callers that want the flow solve
    /// itself cached/persisted without building a full graph — `table2`
    /// times exactly this call for its `P_gc` column.
    ///
    /// # Errors
    ///
    /// Propagates min-cost-flow solver failures.
    pub fn get_or_solve_gc(
        &self,
        ham: &Hamiltonian,
    ) -> Result<Arc<TransitionMatrix>, CompileError> {
        self.gc_component(&ham.split_if_dominant(), self.flow_solver)
            .map(|component| component.matrix)
    }

    /// Records `count` warm-started flow re-pivots into the cache's stats
    /// and the process-wide registry. Warm starts performed inside
    /// [`get_or_build`](Self::get_or_build) are recorded automatically;
    /// workloads that warm-start their own solves (the perturbation
    /// average) report through here so the job's `[cache]` delta shows
    /// them.
    pub fn record_warm_starts(&self, count: u64) {
        if count > 0 {
            self.warm_starts.fetch_add(count, Ordering::Relaxed);
            self.instruments.warm_starts.add(count);
        }
    }

    /// Records one cold min-cost-flow solve performed *outside* the cache
    /// (a workload solving its own model) so job-level `[cache]` deltas
    /// account for every solve, attributed to `solver`'s per-backend
    /// counter.
    pub fn record_flow_solve(&self, solver: SolverKind) {
        self.flow_solves.fetch_add(1, Ordering::Relaxed);
        self.instruments.flow_solves.inc();
        match solver {
            // `Auto` resolves before any solve path records; a stray
            // unresolved record is attributed to the default backend.
            SolverKind::SuccessiveShortestPath | SolverKind::Auto => &self.flow_solves_ssp,
            SolverKind::NetworkSimplex => &self.flow_solves_simplex,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the cached `P_gc` for the (already split) Hamiltonian:
    /// memory, then the persistence directory, then a min-cost-flow solve
    /// (spilled back to disk when persistence is on). Memory and disk
    /// entries are namespaced per backend. The component carries the
    /// solve's spanning basis, which persists and reloads with the matrix.
    fn gc_component(
        &self,
        working: &Hamiltonian,
        solver: SolverKind,
    ) -> Result<GcComponent, CompileError> {
        // `get_or_solve_gc` may hand us `auto`; resolve on the working
        // (split) term count so memory keys, disk file names, and
        // per-backend solve attribution all see a concrete backend.
        let solver = solver.resolve_for_strings(working.num_terms());
        let fp = hamiltonian_fingerprint(working);
        let key = (fp, solver);
        if let Some(gc) = self.components.get(fp, &key, working) {
            self.component_hits.fetch_add(1, Ordering::Relaxed);
            self.instruments.component_hits.inc();
            return Ok(gc);
        }
        if let Some(dir) = &self.persist_dir {
            let loaded = {
                let _span = trace::Span::enter("persist_load")
                    .field("fingerprint", fp)
                    .field("backend", solver.as_str());
                persist::load_component(dir, fp, solver, working)
            };
            if let Some((matrix, basis)) = loaded {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.instruments.disk_hits.inc();
                let gc = GcComponent {
                    matrix: Arc::new(matrix),
                    basis: basis.map(Arc::new),
                };
                self.components.insert(fp, key, working.clone(), gc.clone());
                return Ok(gc);
            }
        }
        self.record_flow_solve(solver);
        let (matrix, _, basis) = gate_cancellation_matrix_with(working, solver)?;
        let gc = GcComponent {
            matrix: Arc::new(matrix),
            basis: basis.map(Arc::new),
        };
        if let Some(dir) = &self.persist_dir {
            let _span = trace::Span::enter("persist_store")
                .field("fingerprint", fp)
                .field("backend", solver.as_str());
            match persist::save_component(dir, fp, solver, working, &gc.matrix, gc.basis.as_deref())
            {
                Ok(()) => {
                    self.disk_writes.fetch_add(1, Ordering::Relaxed);
                    self.instruments.disk_writes.inc();
                }
                Err(_) => {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    self.instruments.disk_errors.inc();
                }
            };
        }
        self.components.insert(fp, key, working.clone(), gc.clone());
        Ok(gc)
    }

    /// Current counters and entry counts (a racy-but-consistent-enough
    /// snapshot; each field is individually exact).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            component_hits: self.component_hits.load(Ordering::Relaxed),
            flow_solves: self.flow_solves.load(Ordering::Relaxed),
            flow_solves_ssp: self.flow_solves_ssp.load(Ordering::Relaxed),
            flow_solves_simplex: self.flow_solves_simplex.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            evictions: self.graphs.evictions() + self.components.evictions(),
            graphs: self.graphs.len(),
            components: self.components.len(),
        }
    }

    /// Drops every in-memory entry and resets the counters. Files in the
    /// persistence directory are left untouched (they are the point of
    /// persistence); delete the directory to cold-start.
    pub fn clear(&self) {
        self.graphs.clear();
        self.components.clear();
        for counter in [
            &self.hits,
            &self.misses,
            &self.component_hits,
            &self.flow_solves,
            &self.flow_solves_ssp,
            &self.flow_solves_simplex,
            &self.warm_starts,
            &self.disk_hits,
            &self.disk_writes,
            &self.disk_errors,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("marqsim-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = ham();
        let b = Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap();
        assert_eq!(hamiltonian_fingerprint(&a), hamiltonian_fingerprint(&b));
        let c = Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.2 ZXZY").unwrap();
        assert_ne!(hamiltonian_fingerprint(&a), hamiltonian_fingerprint(&c));
        let reordered = Hamiltonian::parse("0.5 IIZZ + 1.0 IIIZ + 0.4 XXYY + 0.1 ZXZY").unwrap();
        assert_ne!(
            hamiltonian_fingerprint(&a),
            hamiltonian_fingerprint(&reordered),
            "term order is part of the structure (it defines state indices)"
        );
    }

    #[test]
    fn strategy_keys_distinguish_variants_and_weights() {
        let gc = StrategyKey::of(&TransitionStrategy::marqsim_gc());
        let gc2 = StrategyKey::of(&TransitionStrategy::GateCancellation { qdrift_weight: 0.3 });
        let qd = StrategyKey::of(&TransitionStrategy::QDrift);
        let gcrp = StrategyKey::of(&TransitionStrategy::marqsim_gc_rp());
        assert_ne!(gc, gc2);
        assert_ne!(gc, qd);
        assert_ne!(gc, gcrp);
        assert_eq!(gc, StrategyKey::of(&TransitionStrategy::marqsim_gc()));
    }

    #[test]
    fn repeated_lookups_hit_and_return_the_identical_graph() {
        let cache = TransitionCache::new();
        let strategy = TransitionStrategy::marqsim_gc();
        let first = cache.get_or_build(&ham(), &strategy).unwrap();
        let second = cache.get_or_build(&ham(), &strategy).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "a cache hit must return the same allocation"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.graphs, 1);
        assert_eq!(stats.flow_solves, 1, "one min-cost-flow solve");
    }

    #[test]
    fn gc_component_is_shared_between_gc_and_gc_rp() {
        let cache = TransitionCache::new();
        cache
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc())
            .unwrap();
        cache
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc_rp())
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "two distinct strategies");
        assert_eq!(stats.components, 1, "one shared P_gc");
        assert_eq!(stats.component_hits, 1, "second strategy reused it");
        assert_eq!(stats.flow_solves, 1, "the flow model was solved once");
    }

    #[test]
    fn cached_graph_matches_a_fresh_build() {
        let cache = TransitionCache::new();
        let strategy = TransitionStrategy::marqsim_gc_rp();
        let cached = cache.get_or_build(&ham(), &strategy).unwrap();
        let fresh = HttGraph::build(&ham(), &strategy).unwrap();
        assert_eq!(
            cached.transition_matrix().rows(),
            fresh.transition_matrix().rows()
        );
        assert_eq!(
            cached.stationary_distribution(),
            fresh.stationary_distribution()
        );
    }

    #[test]
    fn qdrift_does_not_touch_the_component_cache() {
        let cache = TransitionCache::new();
        cache
            .get_or_build(&ham(), &TransitionStrategy::QDrift)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.components, 0);
        assert_eq!(stats.flow_solves, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = TransitionCache::new();
        cache
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc())
            .unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats, CacheStats::default());
    }

    #[test]
    fn dominant_term_hamiltonians_are_split_before_caching() {
        let cache = TransitionCache::new();
        let dominant = Hamiltonian::parse("3.0 XXII + 0.5 ZZII + 0.5 XYZI").unwrap();
        let graph = cache
            .get_or_build(&dominant, &TransitionStrategy::marqsim_gc())
            .unwrap();
        assert_eq!(graph.num_states(), 4);
        assert!((graph.hamiltonian().lambda() - dominant.lambda()).abs() < 1e-12);
    }

    #[test]
    fn per_shard_cap_is_enforced_with_correct_rebuilds() {
        // One shard, one entry: every new key evicts the previous one, and
        // a re-request of an evicted key simply rebuilds the identical
        // graph.
        let cache = TransitionCache::with_config(CacheConfig::default().with_shards(1).with_cap(1));
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.cap_per_shard(), 1);
        let strategies = [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ];
        for strategy in &strategies {
            cache.get_or_build(&ham(), strategy).unwrap();
            assert!(cache.graph_shard_lens().iter().all(|&len| len <= 1));
        }
        let stats = cache.stats();
        assert_eq!(stats.graphs, 1, "cap keeps one graph");
        assert_eq!(stats.evictions, 2, "two graphs were evicted");

        // The evicted GC graph rebuilds to the exact same matrix.
        let rebuilt = cache
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc())
            .unwrap();
        let fresh = HttGraph::build(&ham(), &TransitionStrategy::marqsim_gc()).unwrap();
        assert_eq!(
            rebuilt.transition_matrix().rows(),
            fresh.transition_matrix().rows()
        );
    }

    #[test]
    fn zero_cap_restores_the_unbounded_legacy_behaviour() {
        let cache = TransitionCache::with_config(CacheConfig::default().with_shards(1).with_cap(0));
        for strategy in [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ] {
            cache.get_or_build(&ham(), &strategy).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.graphs, 3);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn persistence_round_trip_skips_the_flow_solve() {
        let dir = temp_dir("roundtrip");
        let config = CacheConfig::default().with_persist_dir(&dir);

        let first = TransitionCache::with_config(config.clone());
        let graph_a = first
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc())
            .unwrap();
        let stats = first.stats();
        assert_eq!(stats.flow_solves, 1);
        assert_eq!(stats.disk_writes, 1);
        assert_eq!(stats.disk_hits, 0);

        // A second cache — a simulated new process — loads P_gc from disk:
        // zero min-cost-flow solves, identical graph.
        let second = TransitionCache::with_config(config);
        let graph_b = second
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc())
            .unwrap();
        let stats = second.stats();
        assert_eq!(stats.flow_solves, 0, "P_gc came from disk");
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses, 1, "the graph itself was still a miss");
        assert_eq!(
            graph_a.transition_matrix().rows(),
            graph_b.transition_matrix().rows(),
            "disk-loaded component yields a bit-identical graph"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_persisted_component_falls_back_to_solving() {
        let dir = temp_dir("corrupt-fallback");
        let config = CacheConfig::default().with_persist_dir(&dir);
        let first = TransitionCache::with_config(config.clone());
        first.get_or_solve_gc(&ham()).unwrap();
        let fp = hamiltonian_fingerprint(&ham().split_if_dominant());
        std::fs::write(persist::component_path(&dir, fp), b"not a cache file").unwrap();

        let second = TransitionCache::with_config(config);
        let gc = second.get_or_solve_gc(&ham()).unwrap();
        let stats = second.stats();
        assert_eq!(stats.disk_hits, 0, "corrupt file must not load");
        assert_eq!(stats.flow_solves, 1, "fell back to solving");
        assert_eq!(stats.disk_writes, 1, "and re-spilled the good matrix");
        assert_eq!(
            *gc,
            marqsim_core::gate_cancel::gate_cancellation_matrix(&ham()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_counters_mirror_into_the_global_registry() {
        let registry = metrics::global();
        let hits = registry.counter("marqsim_cache_hits_total");
        let misses = registry.counter("marqsim_cache_misses_total");
        let solves = registry.counter("marqsim_cache_flow_solves_total");
        let (hits_before, misses_before, solves_before) = (hits.get(), misses.get(), solves.get());

        let cache = TransitionCache::new();
        let strategy = TransitionStrategy::marqsim_gc();
        cache.get_or_build(&ham(), &strategy).unwrap();
        cache.get_or_build(&ham(), &strategy).unwrap();
        assert!(misses.get() > misses_before, "miss mirrored");
        assert!(hits.get() > hits_before, "hit mirrored");
        assert!(solves.get() > solves_before, "flow solve mirrored");

        // `clear` resets the per-cache snapshot but the registry counters
        // are process-cumulative and must stay monotonic.
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(hits.get() > hits_before);
    }

    #[test]
    fn cached_builds_match_uncached_builds_bit_for_bit_on_every_backend() {
        // The cache feeds its stored `P_gc` matrix and basis into the same
        // transition builder `HttGraph::build_with_solver` runs uncached;
        // the two must agree to the bit, whether the component was solved
        // in this cache or reloaded from a persist dir.
        let ham = Hamiltonian::parse(
            "0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap();
        let strategies = [
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ];
        let bits = |graph: &HttGraph| -> Vec<Vec<u64>> {
            graph
                .transition_matrix()
                .rows()
                .iter()
                .map(|row| row.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        for solver in SolverKind::ALL {
            let dir = temp_dir(&format!("uncached-parity-{solver}"));
            let config = CacheConfig::default().with_persist_dir(&dir);
            let fresh = TransitionCache::with_config(config.clone());
            // A second cache on the same dir: a simulated new process.
            let reloaded = TransitionCache::with_config(config);
            for strategy in &strategies {
                let uncached = HttGraph::build_with_solver(&ham, strategy, solver).unwrap();
                let cached = fresh.get_or_build_with(&ham, strategy, solver).unwrap();
                assert_eq!(
                    bits(&cached),
                    bits(&uncached),
                    "{solver} {strategy:?}: fresh cache"
                );
                let from_disk = reloaded.get_or_build_with(&ham, strategy, solver).unwrap();
                assert_eq!(
                    bits(&from_disk),
                    bits(&uncached),
                    "{solver} {strategy:?}: P_gc reloaded from disk"
                );
            }
            let fresh_stats = fresh.stats();
            let reloaded_stats = reloaded.stats();
            assert_eq!(fresh_stats.flow_solves, 1, "{solver}");
            assert_eq!(
                reloaded_stats.flow_solves, 0,
                "{solver}: P_gc came from disk"
            );
            assert_eq!(reloaded_stats.disk_hits, 1, "{solver}");
            if solver == SolverKind::NetworkSimplex {
                assert!(
                    fresh_stats.warm_starts > 0,
                    "GC-RP re-pivots the P_gc basis"
                );
                assert!(
                    reloaded_stats.warm_starts > 0,
                    "the reloaded basis is re-pivoted too"
                );
            } else {
                assert_eq!(fresh_stats.warm_starts, 0, "{solver} exports no basis");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn get_or_solve_gc_counts_hits_like_the_graph_path() {
        let cache = TransitionCache::new();
        let a = cache.get_or_solve_gc(&ham()).unwrap();
        let b = cache.get_or_solve_gc(&ham()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!(stats.flow_solves, 1);
        assert_eq!(stats.component_hits, 1);
        // The graph cache then reuses the very same component.
        cache
            .get_or_build(&ham(), &TransitionStrategy::marqsim_gc())
            .unwrap();
        assert_eq!(cache.stats().flow_solves, 1);
        assert_eq!(cache.stats().component_hits, 2);
    }

    /// A snapshot with every field set to a distinct value, so a delta or
    /// aggregation that swapped, dropped, or doubled a field cannot cancel
    /// out. `scale` shifts the whole set while keeping fields distinct.
    fn distinct_stats(scale: u64) -> CacheStats {
        CacheStats {
            hits: scale + 1,
            misses: scale + 2,
            component_hits: scale + 3,
            flow_solves: scale + 4,
            flow_solves_ssp: scale + 5,
            flow_solves_simplex: scale + 6,
            warm_starts: scale + 7,
            disk_hits: scale + 8,
            disk_writes: scale + 9,
            disk_errors: scale + 10,
            evictions: scale + 11,
            graphs: scale as usize + 12,
            components: scale as usize + 13,
        }
    }

    #[test]
    fn delta_since_subtracts_every_counter_and_keeps_the_gauges() {
        let earlier = distinct_stats(0);
        let later = distinct_stats(100);
        let delta = later.delta_since(&earlier);
        // Every counter field is later − earlier — each pair differs by
        // exactly 100, so a swapped subtraction would surface as ≠ 100.
        assert_eq!(delta.hits, 100);
        assert_eq!(delta.misses, 100);
        assert_eq!(delta.component_hits, 100);
        assert_eq!(delta.flow_solves, 100);
        assert_eq!(delta.flow_solves_ssp, 100);
        assert_eq!(delta.flow_solves_simplex, 100);
        assert_eq!(delta.warm_starts, 100);
        assert_eq!(delta.disk_hits, 100);
        assert_eq!(delta.disk_writes, 100);
        assert_eq!(delta.disk_errors, 100);
        assert_eq!(delta.evictions, 100);
        // The size fields are gauges: the later snapshot's values survive
        // untouched rather than being differenced.
        assert_eq!(delta.graphs, later.graphs);
        assert_eq!(delta.components, later.components);
    }

    #[test]
    fn delta_since_saturates_instead_of_wrapping() {
        // A cleared cache can legitimately produce a "later" snapshot with
        // smaller counters; the delta must clamp to zero, never wrap.
        let earlier = distinct_stats(100);
        let later = distinct_stats(0);
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.hits, 0);
        assert_eq!(delta.misses, 0);
        assert_eq!(delta.component_hits, 0);
        assert_eq!(delta.flow_solves, 0);
        assert_eq!(delta.flow_solves_ssp, 0);
        assert_eq!(delta.flow_solves_simplex, 0);
        assert_eq!(delta.warm_starts, 0);
        assert_eq!(delta.disk_hits, 0);
        assert_eq!(delta.disk_writes, 0);
        assert_eq!(delta.disk_errors, 0);
        assert_eq!(delta.evictions, 0);
        assert_eq!(delta.graphs, later.graphs);
        assert_eq!(delta.components, later.components);
    }

    #[test]
    fn add_assign_accumulates_every_field() {
        let mut total = distinct_stats(0);
        total += distinct_stats(1000);
        // Each field is the sum of its two distinct inputs: offset i plus
        // offset 1000 + i, i.e. 1000 + 2i — unique per field, so a swap or
        // a double-count cannot produce the expected value elsewhere.
        assert_eq!(total.hits, 1002);
        assert_eq!(total.misses, 1004);
        assert_eq!(total.component_hits, 1006);
        assert_eq!(total.flow_solves, 1008);
        assert_eq!(total.flow_solves_ssp, 1010);
        assert_eq!(total.flow_solves_simplex, 1012);
        assert_eq!(total.warm_starts, 1014);
        assert_eq!(total.disk_hits, 1016);
        assert_eq!(total.disk_writes, 1018);
        assert_eq!(total.disk_errors, 1020);
        assert_eq!(total.evictions, 1022);
        // Sizes accumulate too (table2 sums the counters of several
        // caches, each contributing its own entry counts).
        assert_eq!(total.graphs, 1024);
        assert_eq!(total.components, 1026);
    }
}
