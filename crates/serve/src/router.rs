//! Router mode: one front-end event loop over a fleet of node daemons.
//!
//! A [`Router`] binds the same line-delimited JSON protocol as a
//! [`Server`](crate::Server), but runs no engine of its own. Its client
//! connections run on the same connection layer as a node's — framing,
//! backpressure, auth, idle reaping and the `marqsim_serve_*` metrics
//! included — and this module is the router's backend to it: one
//! upstream connection per fleet node on the same single-threaded
//! reactor, and:
//!
//! * **routes** every `submit` to the node owning the workload's
//!   Hamiltonian fingerprint on a consistent-hash ring
//!   ([`marqsim_cluster::HashRing`]) — the same Hamiltonian always lands
//!   on the same node, so each node's transition cache (and its
//!   `MARQSIM_CACHE_DIR` shard) stays hot for its share of the keyspace;
//! * **relays** `submitted` / `progress` / `done` / `failed` back to the
//!   submitting connection with job ids translated from the node's id
//!   space into the router's own, each event tagged with the `node` that
//!   ran it;
//! * **fans out** `stats` to every node and aggregates the answers into
//!   one fleet view with a per-node breakdown (`per_node`), zeroed
//!   entries marking unreachable nodes;
//! * **probes** node health on the [`Membership`] schedule (timeout,
//!   exponential backoff, deterministic jitter) and, when a node dies,
//!   fails its in-flight jobs with the structured `failed` kind
//!   `node_lost` while the rest of the fleet keeps serving;
//! * **drains** gracefully: the `drain` verb stops routing new work to a
//!   node, lets its in-flight jobs finish, then drops it from the fleet.
//!
//! Two deliberate semantic differences from a plain node, documented in
//! `docs/cluster.md`: the router acks `submit` with `submitted`
//! *immediately* (before the node's own ack, so acks stay in request
//! order even when jobs fan out to different nodes), and a node-side
//! admission rejection therefore surfaces as `failed` with kind `busy`
//! rather than as a `busy` event.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use marqsim_cluster::{instruments as cluster_instruments, HashRing, Health, Membership};
use marqsim_engine::SolverKind;
use marqsim_net::{ConnectStatus, Interest, IoStatus, LineAssembler, PollEvent, Stream, TimerKey};
use marqsim_obs::{metrics, trace, warn};
use marqsim_pauli::Hamiltonian;

use crate::conn::{
    upstream_token, Backend, ConnKey, Flush, Front, Layer, LoopHandle, Outbound, Timer,
};
use crate::protocol::{Event, NodeStats, Request, Role, ServerStats, PROTOCOL_VERSION};
use crate::wire::Json;

/// Upstream handshake deadline: connect + hello (+ auth) must complete
/// within this or the attempt counts as a probe failure.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a health probe (a `stats` request on a live connection) may
/// stay unanswered before the node counts as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// A bound router front-end over a fixed fleet of node addresses.
///
/// Construct with [`Router::bind`], optionally
/// [`with_token`](Router::with_token) /
/// [`with_idle_timeout`](Router::with_idle_timeout), then
/// [`run`](Router::run) or [`spawn`](Router::spawn).
pub struct Router {
    front: Front,
    nodes: Vec<String>,
}

impl Router {
    /// Binds `addr` and prepares to route across `nodes` (each a
    /// `host:port` of a `marqsim-served` node daemon).
    ///
    /// # Errors
    ///
    /// Propagates the bind (or wakeup-channel) failure; rejects an empty
    /// node list.
    pub fn bind(addr: &str, nodes: &[String]) -> std::io::Result<Router> {
        if nodes.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one fleet node",
            ));
        }
        Ok(Router {
            front: Front::bind(addr)?,
            nodes: nodes.to_vec(),
        })
    }

    /// Requires downstream clients to present this shared secret, and
    /// presents it to the fleet nodes in the upstream handshake — one
    /// `MARQSIM_SERVE_TOKEN` secures the whole fleet.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.front.token = Some(token.into());
        self
    }

    /// Reaps downstream connections that send no request bytes for
    /// `timeout` (`MARQSIM_SERVE_IDLE_TIMEOUT_MS` on the daemon; unset =
    /// never), cancelling their routed jobs on the fleet — the same policy
    /// as [`Server::with_idle_timeout`](crate::Server::with_idle_timeout).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.front.idle_timeout = Some(timeout.max(Duration::from_millis(1)));
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.front.local_addr()
    }

    /// The configured fleet node names.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Runs the router event loop on the calling thread until shut down.
    ///
    /// # Errors
    ///
    /// Propagates reactor-level failures (individual connection errors are
    /// contained).
    pub fn run(self) -> std::io::Result<()> {
        let now = Instant::now();
        let mut membership = Membership::default();
        let nodes = self
            .nodes
            .iter()
            .map(|name| {
                membership.insert(name, now);
                NodeConn::new(name.clone())
            })
            .collect();
        let fleet = Fleet {
            token: self.front.token.clone(),
            nodes,
            ring: HashRing::default(),
            membership,
            jobs: HashMap::new(),
            next_job: 1,
            pending_stats: HashMap::new(),
            next_stats: 1,
            dirty_nodes: Vec::new(),
            workloads: crate::registry::WorkloadRegistry::builtin().kinds(),
        };
        self.front.run(fleet)
    }

    /// Moves the event loop to a background thread and returns a handle
    /// with the bound address and a shutdown switch.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let handle = self.front.handle()?;
        Ok(RouterHandle(
            handle.start("marqsim-route-loop", move || self.run())?,
        ))
    }
}

/// Handle to a background router from [`Router::spawn`].
pub struct RouterHandle(LoopHandle);

impl RouterHandle {
    /// The address downstream clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Stops the event loop and joins it.
    pub fn shutdown(self) {
        self.0.stop();
    }
}

/// One routed job, keyed by the router-assigned id downstream sees.
struct RouteEntry {
    down: ConnKey,
    node: usize,
    /// The node's own id for this job, learned from its `submitted` ack.
    node_job: Option<u64>,
    /// A cancel arrived before the node's ack; forward it once the node
    /// id is known.
    cancel_requested: bool,
    started: Instant,
}

/// Who is waiting for the next `status` event from a node (status and
/// cancel requests are answered in request order, so a FIFO correlates).
enum StatusWaiter {
    /// A downstream status/cancel: relay with the router's job id.
    Client { down: ConnKey, job: u64 },
    /// A cancel the router sent on its own behalf (downstream gone);
    /// swallow the answer.
    Discard,
}

/// Who is waiting for the next `stats` event from a node.
enum StatsWaiter {
    /// Part of a fan-out aggregation (key into `pending_stats`).
    Client(u64),
    /// A health probe; the answer is recorded, not relayed.
    Probe,
}

/// One in-progress `stats` fan-out.
struct PendingStats {
    down: ConnKey,
    remaining: usize,
    parts: Vec<NodeStats>,
}

/// Upstream connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No socket; reconnect when the membership schedule says so.
    Idle,
    /// Nonblocking connect in flight (waiting for writability).
    Connecting,
    /// Connected; waiting for the node's `hello`.
    AwaitHello,
    /// Sent `auth`; waiting for `auth_ok`.
    AwaitAuthOk,
    /// Handshake done; jobs route here.
    Ready,
}

/// Per-fleet-node upstream state.
struct NodeConn {
    name: String,
    stream: Option<Stream>,
    phase: Phase,
    assembler: LineAssembler,
    /// Request lines for the node, written through the same writer as
    /// client connections.
    out: Outbound,
    /// Router job ids whose `submitted`/`busy`/`error` ack is pending, in
    /// send order.
    awaiting_submit: VecDeque<u64>,
    awaiting_status: VecDeque<StatusWaiter>,
    awaiting_stats: VecDeque<StatsWaiter>,
    /// node job id → router job id, for relaying progress/terminals.
    jobs: HashMap<u64, u64>,
    /// Handshake or probe deadline.
    op_timer: Option<TimerKey>,
    /// Drained and dropped; never reconnected.
    retired: bool,
    dirty: bool,
    routed: Arc<metrics::Counter>,
    up_gauge: Arc<metrics::Gauge>,
}

impl NodeConn {
    fn new(name: String) -> NodeConn {
        let routed = cluster_instruments::routed(&name);
        let up_gauge = cluster_instruments::node_up(&name);
        up_gauge.set(0);
        NodeConn {
            name,
            stream: None,
            phase: Phase::Idle,
            assembler: LineAssembler::new(usize::MAX),
            out: Outbound::new(Interest::READABLE),
            awaiting_submit: VecDeque::new(),
            awaiting_status: VecDeque::new(),
            awaiting_stats: VecDeque::new(),
            jobs: HashMap::new(),
            op_timer: None,
            retired: false,
            dirty: false,
            routed,
            up_gauge,
        }
    }
}

fn probe_failures_counter() -> &'static Arc<metrics::Counter> {
    static COUNTER: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    COUNTER.get_or_init(cluster_instruments::probe_failures)
}

fn drains_counter() -> &'static Arc<metrics::Counter> {
    static COUNTER: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    COUNTER.get_or_init(cluster_instruments::drains)
}

/// A `status` answer for a job the asker cannot see (or that was lost).
fn unknown_status(job: u64) -> Event {
    Event::Status {
        job,
        known: false,
        finished: false,
        cancelled: false,
        completed: 0,
        total: 0,
    }
}

/// The router backend: job verbs forward to the fleet. Its timers are
/// upstream deadlines, keyed by node index.
struct Fleet {
    /// Presented to the nodes in the upstream handshake.
    token: Option<String>,
    nodes: Vec<NodeConn>,
    /// Connected, routable nodes only — a dead node leaves the ring (and
    /// its keys spill to neighbours) until its connection is back.
    ring: HashRing,
    membership: Membership,
    /// router job id → route, for status/cancel and relay bookkeeping.
    jobs: HashMap<u64, RouteEntry>,
    next_job: u64,
    pending_stats: HashMap<u64, PendingStats>,
    next_stats: u64,
    dirty_nodes: Vec<usize>,
    /// Workload kinds advertised in the router's `hello` (the builtin
    /// registry — the nodes decode; the router forwards params untouched).
    workloads: Vec<String>,
}

type RouterLayer = Layer<usize>;

impl Backend for Fleet {
    type Timer = usize;

    fn hello(&self) -> Event {
        Event::Hello {
            protocol: PROTOCOL_VERSION,
            role: Role::Router,
            nodes: self
                .nodes
                .iter()
                .filter(|node| !node.retired)
                .map(|node| node.name.clone())
                .collect(),
            auth: self.token.is_some(),
            // The router runs no engine; per-node capacities are in the
            // `stats` fan-out.
            threads: 0,
            workloads: self.workloads.clone(),
            flow_solver: SolverKind::default(),
            flow_solvers: SolverKind::SELECTABLE
                .iter()
                .map(|k| k.as_str().to_string())
                .collect(),
        }
    }

    fn request(&mut self, layer: &mut RouterLayer, key: ConnKey, request: Request) {
        match request {
            Request::Submit {
                label,
                kind,
                params,
                options,
            } => self.submit(layer, key, label, kind, params, options),
            Request::Status { job } => self.status(layer, key, job, false),
            Request::Cancel { job } => self.status(layer, key, job, true),
            Request::Stats => self.stats(layer, key),
            Request::Drain { node } => self.drain(layer, key, &node),
            // Answered by the connection layer.
            Request::Auth { .. } | Request::Metrics => {}
        }
    }

    /// Drops the connection's routes and cancels their jobs on the nodes.
    fn release(&mut self, layer: &mut RouterLayer, key: ConnKey, _closed: bool) {
        let owned: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, entry)| entry.down == key)
            .map(|(job, _)| *job)
            .collect();
        for job in owned {
            let Some(entry) = self.jobs.remove(&job) else {
                continue;
            };
            // An entry whose ack is pending stays implicit: the ack
            // handler finds no route and cancels then.
            if let Some(node_job) = entry.node_job {
                self.nodes[entry.node].jobs.remove(&node_job);
                self.cancel_upstream(layer, entry.node, node_job);
            }
        }
    }

    /// The membership schedule says these nodes are due: reconnect a dead
    /// node, probe a live one.
    fn turn(&mut self, layer: &mut RouterLayer) {
        let now = Instant::now();
        for name in self.membership.due_probes(now) {
            self.probe_due(layer, &name, now);
        }
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.membership.next_deadline()
    }

    fn upstream(&mut self, layer: &mut RouterLayer, index: usize, event: &PollEvent) {
        if index >= self.nodes.len() || self.nodes[index].stream.is_none() {
            return;
        }
        if self.nodes[index].phase == Phase::Connecting && (event.writable || event.closed) {
            let node = &mut self.nodes[index];
            let Some(stream) = node.stream.as_ref() else {
                return;
            };
            match stream.connect_result() {
                Ok(()) => {
                    node.phase = Phase::AwaitHello;
                    node.out.watch(
                        stream,
                        &layer.poller,
                        upstream_token(index),
                        Interest::READABLE,
                    );
                }
                Err(error) => {
                    warn!("route", "node {}: connect failed: {error}", node.name);
                    self.node_failed(layer, index, "connect failed");
                }
            }
            return;
        }
        if event.readable {
            self.node_readable(layer, index);
        }
        if event.writable {
            self.mark_node_dirty(index);
        }
        if event.closed && !event.readable {
            self.node_failed(layer, index, "connection closed");
        }
    }

    /// A handshake or probe deadline passed.
    fn timer(&mut self, layer: &mut RouterLayer, key: TimerKey, index: usize) {
        if self.nodes[index].op_timer != Some(key) {
            return;
        }
        self.nodes[index].op_timer = None;
        match self.nodes[index].phase {
            Phase::Connecting | Phase::AwaitHello | Phase::AwaitAuthOk => {
                self.node_failed(layer, index, "handshake timeout");
            }
            Phase::Ready => self.node_failed(layer, index, "probe timeout"),
            Phase::Idle => {}
        }
    }

    fn flush(&mut self, layer: &mut RouterLayer) {
        for index in std::mem::take(&mut self.dirty_nodes) {
            self.nodes[index].dirty = false;
            let node = &mut self.nodes[index];
            let Some(stream) = node.stream.as_mut() else {
                continue;
            };
            if node.phase == Phase::Connecting {
                continue;
            }
            let desired = match node.out.flush(stream) {
                Flush::Drained => Interest::READABLE,
                Flush::Blocked => Interest::BOTH,
                Flush::Failed => {
                    self.node_failed(layer, index, "write error");
                    continue;
                }
            };
            node.out
                .watch(stream, &layer.poller, upstream_token(index), desired);
        }
    }

    fn shutdown(&mut self, layer: &mut RouterLayer) {
        for index in 0..self.nodes.len() {
            self.disconnect_node(layer, index);
        }
    }
}

impl Fleet {
    // -- downstream verbs ---------------------------------------------------

    fn submit(
        &mut self,
        layer: &mut RouterLayer,
        key: ConnKey,
        label: String,
        kind: String,
        params: Json,
        options: marqsim_engine::SubmitOptions,
    ) {
        let fingerprint = routing_fingerprint(&params);
        let Some(owner) = self.ring.owner(fingerprint).map(str::to_string) else {
            let connected = self
                .nodes
                .iter()
                .filter(|n| n.phase == Phase::Ready)
                .count();
            let event = Event::Error {
                message: format!(
                    "no routable fleet nodes ({} configured, {connected} connected)",
                    self.nodes.len()
                ),
            };
            layer.push(key, &event);
            return;
        };
        let Some(index) = self.node_index(&owner) else {
            return;
        };
        let router_job = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            router_job,
            RouteEntry {
                down: key,
                node: index,
                node_job: None,
                cancel_requested: false,
                started: Instant::now(),
            },
        );
        let request = Request::Submit {
            label: label.clone(),
            kind,
            params,
            options,
        };
        self.nodes[index].awaiting_submit.push_back(router_job);
        self.nodes[index].routed.inc();
        self.node_send(index, &request);
        // Ack immediately with the router-assigned id: acks stay in
        // request order even when consecutive submits route to different
        // nodes. A node-side rejection arrives later as `failed`.
        let event = Event::Submitted {
            job: router_job,
            label,
            node: Some(owner),
        };
        layer.push(key, &event);
    }

    /// Answers `status` (or, with `cancel`, `cancel`) for `job`: forwarded
    /// to the node once its id is known, answered locally before that.
    fn status(&mut self, layer: &mut RouterLayer, key: ConnKey, job: u64, cancel: bool) {
        let Some(entry) = self.jobs.get_mut(&job).filter(|entry| entry.down == key) else {
            layer.push(key, &unknown_status(job));
            return;
        };
        match entry.node_job {
            Some(node_job) => {
                let index = entry.node;
                self.nodes[index]
                    .awaiting_status
                    .push_back(StatusWaiter::Client { down: key, job });
                let request = if cancel {
                    Request::Cancel { job: node_job }
                } else {
                    Request::Status { job: node_job }
                };
                self.node_send(index, &request);
            }
            // The node's ack is still in flight: the job exists but has
            // made no observable progress.
            None => {
                entry.cancel_requested |= cancel;
                let event = Event::Status {
                    job,
                    known: true,
                    finished: false,
                    cancelled: entry.cancel_requested,
                    completed: 0,
                    total: 0,
                };
                layer.push(key, &event);
            }
        }
    }

    fn stats(&mut self, layer: &mut RouterLayer, key: ConnKey) {
        let id = self.next_stats;
        self.next_stats += 1;
        let mut pending = PendingStats {
            down: key,
            remaining: 0,
            parts: Vec::new(),
        };
        let mut queries: Vec<usize> = Vec::new();
        for (index, node) in self.nodes.iter_mut().enumerate() {
            if node.retired {
                continue;
            }
            if node.phase == Phase::Ready {
                node.awaiting_stats.push_back(StatsWaiter::Client(id));
                pending.remaining += 1;
                queries.push(index);
            } else {
                pending.parts.push(NodeStats {
                    node: node.name.clone(),
                    health: health_name(self.membership.health(&node.name)),
                    stats: ServerStats::default(),
                });
            }
        }
        if pending.remaining == 0 {
            self.finish_stats(layer, pending);
            return;
        }
        self.pending_stats.insert(id, pending);
        for index in queries {
            self.node_send(index, &Request::Stats);
        }
    }

    /// Records one node's part of fan-out `id`, answering the client once
    /// every part is in.
    fn stats_part(&mut self, layer: &mut RouterLayer, id: u64, part: NodeStats) {
        let Some(pending) = self.pending_stats.get_mut(&id) else {
            return;
        };
        pending.parts.push(part);
        pending.remaining -= 1;
        if pending.remaining == 0 {
            if let Some(pending) = self.pending_stats.remove(&id) {
                self.finish_stats(layer, pending);
            }
        }
    }

    /// Aggregates a completed fan-out and answers the waiting client.
    fn finish_stats(&mut self, layer: &mut RouterLayer, mut pending: PendingStats) {
        pending.parts.sort_by(|a, b| a.node.cmp(&b.node));
        let down = pending.down;
        let in_flight = self
            .jobs
            .values()
            .filter(|entry| entry.down == down)
            .count();
        let mut total = ServerStats {
            in_flight,
            flow_solver: pending
                .parts
                .iter()
                .find(|part| part.health == "up" || part.health == "suspect")
                .map_or_else(SolverKind::default, |part| part.stats.flow_solver),
            ..ServerStats::default()
        };
        for part in &pending.parts {
            total.threads += part.stats.threads;
            total.active_jobs += part.stats.active_jobs;
            total.queue_depth += part.stats.queue_depth;
            total.max_active_jobs += part.stats.max_active_jobs;
            total.cache += part.stats.cache;
        }
        total.per_node = pending.parts;
        layer.push(down, &Event::Stats(total));
    }

    fn drain(&mut self, layer: &mut RouterLayer, key: ConnKey, name: &str) {
        let Some(index) = self.node_index(name) else {
            let event = Event::Error {
                message: format!("cannot drain '{name}': not a fleet node"),
            };
            layer.push(key, &event);
            return;
        };
        if self.nodes[index].retired {
            let event = Event::Error {
                message: format!("cannot drain '{name}': already drained"),
            };
            layer.push(key, &event);
            return;
        }
        if self.membership.health(name) != Some(Health::Draining) {
            drains_counter().inc();
            self.membership.begin_drain(name);
            self.ring.remove(name);
            self.nodes[index].up_gauge.set(0);
        }
        let in_flight = self.nodes[index].jobs.len() + self.nodes[index].awaiting_submit.len();
        let event = Event::Draining {
            node: name.to_string(),
            in_flight,
        };
        layer.push(key, &event);
        if in_flight == 0 {
            self.retire_node(layer, index);
        }
    }

    /// Final step of a drain: the last in-flight job finished, drop the
    /// node from the fleet for good.
    fn retire_node(&mut self, layer: &mut RouterLayer, index: usize) {
        self.disconnect_node(layer, index);
        let name = self.nodes[index].name.clone();
        self.membership.remove(&name);
        self.nodes[index].retired = true;
    }

    fn maybe_finish_drain(&mut self, layer: &mut RouterLayer, index: usize) {
        let node = &self.nodes[index];
        if self.membership.health(&node.name) == Some(Health::Draining)
            && node.jobs.is_empty()
            && node.awaiting_submit.is_empty()
        {
            self.retire_node(layer, index);
        }
    }

    // -- upstream -----------------------------------------------------------

    fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|node| node.name == name)
    }

    /// Queues one request line to a node and marks it for flushing.
    fn node_send(&mut self, index: usize, request: &Request) {
        if self.nodes[index].stream.is_none() {
            return;
        }
        let mut line = request.encode();
        line.push('\n');
        self.nodes[index].out.push(line, None);
        self.mark_node_dirty(index);
    }

    /// Cancels `node_job` on its node on the router's own behalf (the
    /// submitter is gone), swallowing the answer.
    fn cancel_upstream(&mut self, layer: &mut RouterLayer, index: usize, node_job: u64) {
        self.nodes[index]
            .awaiting_status
            .push_back(StatusWaiter::Discard);
        self.node_send(index, &Request::Cancel { job: node_job });
        self.maybe_finish_drain(layer, index);
    }

    fn mark_node_dirty(&mut self, index: usize) {
        let node = &mut self.nodes[index];
        if !node.dirty {
            node.dirty = true;
            self.dirty_nodes.push(index);
        }
    }

    fn probe_due(&mut self, layer: &mut RouterLayer, name: &str, now: Instant) {
        let Some(index) = self.node_index(name) else {
            return;
        };
        if self.nodes[index].retired {
            return;
        }
        if self.nodes[index].phase == Phase::Idle {
            self.start_connect(layer, index, now);
            return;
        }
        self.membership.begin_probe(name, now);
        // A handshake in flight resolves on its own deadline.
        if self.nodes[index].phase == Phase::Ready && self.nodes[index].op_timer.is_none() {
            self.nodes[index].op_timer =
                Some(layer.wheel.arm(now + PROBE_TIMEOUT, Timer::Backend(index)));
            self.nodes[index]
                .awaiting_stats
                .push_back(StatsWaiter::Probe);
            self.node_send(index, &Request::Stats);
        }
    }

    fn start_connect(&mut self, layer: &mut RouterLayer, index: usize, now: Instant) {
        let name = self.nodes[index].name.clone();
        self.membership.begin_probe(&name, now);
        let Some(addr) = name.to_socket_addrs().ok().and_then(|mut it| it.next()) else {
            self.node_failed(layer, index, "address does not resolve");
            return;
        };
        let (stream, status) = match Stream::connect(&addr) {
            Ok(connected) => connected,
            Err(error) => {
                warn!("route", "node {name}: connect failed: {error}");
                self.node_failed(layer, index, "connect failed");
                return;
            }
        };
        let (phase, interest) = match status {
            ConnectStatus::Ready => (Phase::AwaitHello, Interest::READABLE),
            ConnectStatus::InProgress => (Phase::Connecting, Interest::WRITABLE),
        };
        if let Err(error) = layer
            .poller
            .register(&stream, upstream_token(index), interest)
        {
            warn!("route", "node {name}: registration failed: {error}");
            self.node_failed(layer, index, "poller registration failed");
            return;
        }
        let node = &mut self.nodes[index];
        node.stream = Some(stream);
        node.phase = phase;
        node.out = Outbound::new(interest);
        node.assembler = LineAssembler::new(usize::MAX);
        node.op_timer = Some(
            layer
                .wheel
                .arm(now + CONNECT_TIMEOUT, Timer::Backend(index)),
        );
    }

    fn node_readable(&mut self, layer: &mut RouterLayer, index: usize) {
        loop {
            let Some(stream) = self.nodes[index].stream.as_mut() else {
                return;
            };
            match stream.read(&mut layer.read_buf) {
                Ok(IoStatus::Ready(n)) => self.nodes[index].assembler.push(&layer.read_buf[..n]),
                Ok(IoStatus::WouldBlock) => return,
                Ok(IoStatus::Closed) => {
                    self.node_failed(layer, index, "connection closed");
                    return;
                }
                Err(_) => {
                    self.node_failed(layer, index, "read error");
                    return;
                }
            }
            loop {
                match self.nodes[index].assembler.next_line() {
                    Ok(Some(line)) => {
                        if !self.process_node_line(layer, index, &line) {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.node_failed(layer, index, "unframeable node output");
                        return;
                    }
                }
            }
        }
    }

    /// Handles one event line from a node; returns `false` when the node
    /// connection was torn down.
    fn process_node_line(&mut self, layer: &mut RouterLayer, index: usize, line: &str) -> bool {
        let event = match Event::decode(line.trim()) {
            Ok(event) => event,
            Err(error) => {
                warn!(
                    "route",
                    "node {}: undecodable event: {error}", self.nodes[index].name
                );
                self.node_failed(layer, index, "undecodable node event");
                return false;
            }
        };
        match self.nodes[index].phase {
            Phase::AwaitHello => self.handshake_hello(layer, index, event),
            Phase::AwaitAuthOk => match event {
                Event::AuthOk => {
                    self.node_ready(layer, index);
                    true
                }
                other => {
                    warn!(
                        "route",
                        "node {}: expected auth_ok, got {other:?}", self.nodes[index].name
                    );
                    self.node_failed(layer, index, "authentication rejected");
                    false
                }
            },
            Phase::Ready => {
                self.relay_node_event(layer, index, event);
                true
            }
            _ => true,
        }
    }

    fn handshake_hello(&mut self, layer: &mut RouterLayer, index: usize, event: Event) -> bool {
        let name = self.nodes[index].name.clone();
        let Event::Hello {
            protocol,
            role,
            auth,
            ..
        } = event
        else {
            warn!("route", "node {name}: expected hello, got {event:?}");
            self.node_failed(layer, index, "protocol violation");
            return false;
        };
        if protocol != PROTOCOL_VERSION {
            warn!(
                "route",
                "node {name} speaks protocol {protocol}, router speaks {PROTOCOL_VERSION}"
            );
            self.node_failed(layer, index, "protocol version mismatch");
            return false;
        }
        if role != Role::Node {
            warn!("route", "node {name} is a {}, not a node", role.as_str());
            self.node_failed(layer, index, "peer is not a node");
            return false;
        }
        match (&self.token, auth) {
            (Some(token), _) => {
                let request = Request::Auth {
                    token: token.clone(),
                };
                self.nodes[index].phase = Phase::AwaitAuthOk;
                self.node_send(index, &request);
                true
            }
            (None, true) => {
                warn!(
                    "route",
                    "node {name} requires a token and none is configured"
                );
                self.node_failed(layer, index, "node requires authentication");
                false
            }
            (None, false) => {
                self.node_ready(layer, index);
                true
            }
        }
    }

    /// The handshake finished: the node (re)joins the ring.
    fn node_ready(&mut self, layer: &mut RouterLayer, index: usize) {
        let name = self.nodes[index].name.clone();
        if let Some(timer) = self.nodes[index].op_timer.take() {
            layer.wheel.cancel(timer);
        }
        self.nodes[index].phase = Phase::Ready;
        let health = self.membership.record_success(&name, Instant::now());
        if matches!(health, Some(Health::Up | Health::Suspect)) {
            self.ring.add(&name);
            self.nodes[index].up_gauge.set(1);
        }
    }

    /// The oldest pending submit on a node was rejected: fail it
    /// downstream (the router already acked `submitted`).
    fn reject_submit(
        &mut self,
        layer: &mut RouterLayer,
        index: usize,
        kind: &str,
        message: String,
    ) {
        let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
            warn!(
                "route",
                "node {}: unattributed rejection: {message}", self.nodes[index].name
            );
            return;
        };
        if let Some(entry) = self.jobs.remove(&router_job) {
            let event = Event::Failed {
                job: router_job,
                kind: kind.to_string(),
                message,
                node: Some(self.nodes[index].name.clone()),
            };
            layer.push(entry.down, &event);
        }
        self.maybe_finish_drain(layer, index);
    }

    /// Relays (or consumes) one event from a ready node.
    fn relay_node_event(&mut self, layer: &mut RouterLayer, index: usize, event: Event) {
        let name = self.nodes[index].name.clone();
        match event {
            Event::Submitted { job: node_job, .. } => {
                let Some(router_job) = self.nodes[index].awaiting_submit.pop_front() else {
                    return;
                };
                let wants_cancel = self.jobs.get_mut(&router_job).map(|entry| {
                    entry.node_job = Some(node_job);
                    entry.cancel_requested
                });
                if wants_cancel.is_some() {
                    self.nodes[index].jobs.insert(node_job, router_job);
                }
                // No route: the submitter left between forward and ack, so
                // cancel on its behalf and never learn this job's id. A
                // cancel that arrived before the ack is forwarded now that
                // the node's id is known.
                if wants_cancel != Some(false) {
                    self.cancel_upstream(layer, index, node_job);
                }
            }
            Event::Busy {
                in_flight, limit, ..
            } => {
                // The router already acked `submitted`, so a node-side
                // admission rejection becomes a terminal failure.
                let message =
                    format!("node {name} rejected the job ({in_flight} in flight, limit {limit})");
                self.reject_submit(layer, index, "busy", message);
            }
            // The only errors a node sends in answer to well-formed router
            // traffic are submit rejections (unknown kind, bad params) —
            // attribute to the oldest pending submit.
            Event::Error { message } => self.reject_submit(layer, index, "rejected", message),
            Event::Progress {
                job: node_job,
                completed,
                total,
                ..
            } => {
                let Some(&router_job) = self.nodes[index].jobs.get(&node_job) else {
                    return;
                };
                let Some(entry) = self.jobs.get(&router_job) else {
                    return;
                };
                let event = Event::Progress {
                    job: router_job,
                    completed,
                    total,
                    node: Some(name),
                };
                layer.push_progress(entry.down, router_job, &event);
            }
            Event::Done {
                job: node_job,
                outcome,
                cache_delta,
                flow_solver,
                ..
            } => {
                if let Some((router_job, entry)) = self.take_route(index, node_job) {
                    emit_route_span(&name, &entry, "done");
                    let event = Event::Done {
                        job: router_job,
                        outcome,
                        cache_delta,
                        flow_solver,
                        node: Some(name),
                    };
                    layer.push(entry.down, &event);
                }
                self.maybe_finish_drain(layer, index);
            }
            Event::Failed {
                job: node_job,
                kind,
                message,
                ..
            } => {
                if let Some((router_job, entry)) = self.take_route(index, node_job) {
                    emit_route_span(&name, &entry, "failed");
                    let event = Event::Failed {
                        job: router_job,
                        kind,
                        message,
                        node: Some(name),
                    };
                    layer.push(entry.down, &event);
                }
                self.maybe_finish_drain(layer, index);
            }
            Event::Status {
                completed,
                total,
                known,
                finished,
                cancelled,
                ..
            } => {
                if let Some(StatusWaiter::Client { down, job }) =
                    self.nodes[index].awaiting_status.pop_front()
                {
                    let event = Event::Status {
                        job,
                        known,
                        finished,
                        cancelled,
                        completed,
                        total,
                    };
                    layer.push(down, &event);
                }
            }
            Event::Stats(stats) => match self.nodes[index].awaiting_stats.pop_front() {
                Some(StatsWaiter::Client(id)) => {
                    let health = health_name(self.membership.health(&name));
                    let part = NodeStats {
                        node: name,
                        health,
                        stats,
                    };
                    self.stats_part(layer, id, part);
                }
                Some(StatsWaiter::Probe) => {
                    if let Some(timer) = self.nodes[index].op_timer.take() {
                        layer.wheel.cancel(timer);
                    }
                    self.membership.record_success(&name, Instant::now());
                }
                None => {}
            },
            // hello/auth_ok/draining/metrics from a ready node are
            // protocol noise; ignore.
            _ => {}
        }
    }

    /// Removes one finished job's route entry from both id spaces.
    fn take_route(&mut self, index: usize, node_job: u64) -> Option<(u64, RouteEntry)> {
        let router_job = self.nodes[index].jobs.remove(&node_job)?;
        let entry = self.jobs.remove(&router_job)?;
        Some((router_job, entry))
    }

    /// The node is gone (connect refused, handshake timeout, probe
    /// timeout, EOF, protocol violation): fail everything in flight on it
    /// with the structured `node_lost` kind, drop it from the ring, and
    /// let the membership backoff schedule the reconnect.
    fn node_failed(&mut self, layer: &mut RouterLayer, index: usize, why: &str) {
        let name = self.nodes[index].name.clone();
        probe_failures_counter().inc();
        self.disconnect_node(layer, index);
        // In-flight jobs: both acked ones and those whose ack is pending.
        let mut lost: Vec<u64> = self.nodes[index].jobs.drain().map(|(_, job)| job).collect();
        lost.extend(self.nodes[index].awaiting_submit.drain(..));
        for router_job in lost {
            if let Some(entry) = self.jobs.remove(&router_job) {
                emit_route_span(&name, &entry, "node_lost");
                let event = Event::Failed {
                    job: router_job,
                    kind: "node_lost".to_string(),
                    message: format!("node {name} was lost ({why})"),
                    node: Some(name.clone()),
                };
                layer.push(entry.down, &event);
            }
        }
        for waiter in std::mem::take(&mut self.nodes[index].awaiting_status) {
            if let StatusWaiter::Client { down, job } = waiter {
                layer.push(down, &unknown_status(job));
            }
        }
        let health = self.membership.record_failure(&name, Instant::now());
        for waiter in std::mem::take(&mut self.nodes[index].awaiting_stats) {
            if let StatsWaiter::Client(id) = waiter {
                let part = NodeStats {
                    node: name.clone(),
                    health: health_name(health),
                    stats: ServerStats::default(),
                };
                self.stats_part(layer, id, part);
            }
        }
        self.ring.remove(&name);
        self.nodes[index].up_gauge.set(0);
        if self.membership.health(&name) == Some(Health::Draining) {
            // A draining node that died finishes its drain the hard way.
            self.retire_node(layer, index);
        }
    }

    /// Drops the socket and clears I/O state; bookkeeping (jobs, waiters)
    /// is the caller's concern.
    fn disconnect_node(&mut self, layer: &mut RouterLayer, index: usize) {
        let node = &mut self.nodes[index];
        if let Some(timer) = node.op_timer.take() {
            layer.wheel.cancel(timer);
        }
        if let Some(stream) = node.stream.take() {
            layer.poller.deregister(&stream);
        }
        node.phase = Phase::Idle;
        node.out = Outbound::new(Interest::READABLE);
    }
}

fn emit_route_span(node: &str, entry: &RouteEntry, outcome: &str) {
    let dur_us = entry.started.elapsed().as_micros() as u64;
    trace::emit_interval(
        "route",
        None,
        entry.started,
        dur_us,
        &[("node", node.to_string()), ("outcome", outcome.to_string())],
    );
}

/// Wire name of a node's health for the `stats` breakdown.
fn health_name(health: Option<Health>) -> String {
    match health {
        Some(Health::Up) => "up",
        Some(Health::Suspect) => "suspect",
        Some(Health::Down) => "down",
        Some(Health::Draining) => "draining",
        None => "unknown",
    }
    .to_string()
}

/// The ring key for one submit: the Hamiltonian fingerprint when the
/// params carry one (the engine's own cache key, so all routers agree),
/// else an FNV-1a hash of the canonical params encoding.
fn routing_fingerprint(params: &Json) -> u64 {
    if let Some(text) = params.get("hamiltonian").and_then(Json::as_str) {
        if let Ok(ham) = Hamiltonian::parse(text) {
            return marqsim_engine::cache::hamiltonian_fingerprint(&ham);
        }
    }
    let encoded = params.encode();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in encoded.as_bytes() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_agree_across_equivalent_submissions() {
        let params_a = Json::obj([
            ("hamiltonian", "0.9 ZZ + 0.5 XX".into()),
            ("label", "a".into()),
        ]);
        let params_b = Json::obj([
            ("hamiltonian", "0.9 ZZ + 0.5 XX".into()),
            ("label", "b".into()),
        ]);
        // Only the Hamiltonian matters: the same physics routes to the
        // same node regardless of labels or sweep settings.
        assert_eq!(
            routing_fingerprint(&params_a),
            routing_fingerprint(&params_b)
        );
        let different = Json::obj([("hamiltonian", "0.9 ZZ + 0.4 XX".into())]);
        assert_ne!(
            routing_fingerprint(&params_a),
            routing_fingerprint(&different)
        );
    }

    #[test]
    fn non_hamiltonian_params_fall_back_to_a_content_hash() {
        let a = Json::obj([("n", 30u64.into())]);
        let b = Json::obj([("n", 31u64.into())]);
        assert_ne!(routing_fingerprint(&a), routing_fingerprint(&b));
        assert_eq!(routing_fingerprint(&a), routing_fingerprint(&a));
    }

    #[test]
    fn bind_rejects_an_empty_fleet() {
        assert!(Router::bind("127.0.0.1:0", &[]).is_err());
    }

    #[test]
    fn health_names_cover_every_state() {
        assert_eq!(health_name(Some(Health::Up)), "up");
        assert_eq!(health_name(Some(Health::Suspect)), "suspect");
        assert_eq!(health_name(Some(Health::Down)), "down");
        assert_eq!(health_name(Some(Health::Draining)), "draining");
        assert_eq!(health_name(None), "unknown");
    }
}
