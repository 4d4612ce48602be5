//! The node server: one event-loop thread over one shared engine.
//!
//! The client connections — framing, the bounded outbound queue with
//! progress coalescing and the slow-consumer disconnect, auth, idle
//! reaping ([`Server::with_idle_timeout`], `MARQSIM_SERVE_IDLE_TIMEOUT_MS`
//! on the daemon), and the connection metrics — are the connection layer
//! the [`Router`](crate::Router) runs too. This module is the node's
//! backend to it: job verbs run on the engine.
//!
//! Engine progress/completion hooks run on the job's coordinator thread
//! and only push a note onto a shared queue and ring the loop's doorbell —
//! no per-job waiter thread, and no id handshake: hooks carry the
//! engine-assigned job id. The loop delivers the notes once per
//! iteration, after the request batch, so the wire order is always
//! submitted → progress → done.
//!
//! All connections share one [`Engine`] — and therefore one worker pool
//! and one transition cache. Two clients sweeping the same Hamiltonian
//! share the min-cost-flow solve exactly as two jobs of one in-process
//! batch would; the `cache_delta` field of each `done` event makes that
//! visible per job (a warm-cache job reports `flow_solves=0`).
//!
//! # Admission control
//!
//! Two layers, both rejected with the structured `busy` event before any
//! decoding work. First the **engine-wide** bound
//! ([`Server::with_max_active_jobs`], `MARQSIM_MAX_ACTIVE_JOBS` on the
//! daemon; `0` = unlimited): a `submit` arriving while the shared engine
//! already has that many unfinished jobs — across *all* connections — is
//! rejected, so a swarm of polite clients cannot overload the daemon
//! collectively. Then the **per-connection** in-flight gauge (jobs
//! submitted but not yet finished): a `submit` at or above the effective
//! bound — the smaller of the request's `options.max_in_flight` and the
//! server's default ([`Server::with_max_in_flight`],
//! `MARQSIM_SERVE_MAX_IN_FLIGHT` on the daemon); a client can tighten its
//! bound but never raise it — is rejected, so one greedy client cannot
//! queue unbounded coordinator threads either. The `stats` event reports
//! the connection's gauge alongside the engine-wide active-job count, the
//! global bound, and the pool queue depth.
//!
//! Job ids are engine-assigned and engine-unique, but the `status` and
//! `cancel` verbs only resolve ids submitted on the **same connection** —
//! one client cannot cancel another's jobs.
//!
//! Disconnect policy: when a client hangs up (or is reaped by a timeout),
//! its unfinished jobs are cancelled (cooperatively), so an interrupted
//! sweep stops consuming the pool.
//!
//! See `docs/net.md` for the reactor architecture and the connection
//! state-machine lifecycle.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use marqsim_engine::{Engine, JobControl, SolverKind, SubmitOptions};
use marqsim_net::WakeHandle;
use marqsim_obs::lockcheck;

use crate::conn::{encode_line, Backend, ConnKey, Front, Layer, LoopHandle};
use crate::protocol::{failure_kind, Event, Request, Role, ServerStats, PROTOCOL_VERSION};
use crate::registry::WorkloadRegistry;

/// Once a connection tracks this many jobs, finished entries are evicted
/// from its registry before the next submit, so a long-lived connection
/// submitting in a loop stays bounded. Consequence: `status` of a job that
/// finished more than ~this many submissions ago may answer `known=false`.
const MAX_TRACKED_JOBS: usize = 1024;

/// Default per-connection in-flight job bound when neither the submit's
/// `options.max_in_flight` nor [`Server::with_max_in_flight`] overrides it.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 32;

/// A bound listener plus the engine it serves.
///
/// Construct with [`Server::bind`] (optionally [`with_registry`](Server::with_registry)
/// / [`with_max_in_flight`](Server::with_max_in_flight) /
/// [`with_idle_timeout`](Server::with_idle_timeout)), then either
/// [`run`](Server::run) on the current thread or [`spawn`](Server::spawn) a
/// background event loop and keep the returned [`ServerHandle`] for the
/// address and shutdown.
pub struct Server {
    front: Front,
    engine: Arc<Engine>,
    registry: Arc<WorkloadRegistry>,
    max_in_flight: usize,
    max_active_jobs: usize,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:7878"`, or port `0` to let the OS
    /// pick) and prepares to serve `engine` with the built-in workload
    /// registry and the default admission bound.
    ///
    /// # Errors
    ///
    /// Propagates the bind (or wakeup-channel) failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        Ok(Server {
            front: Front::bind(addr)?,
            engine,
            registry: Arc::new(WorkloadRegistry::builtin()),
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            max_active_jobs: 0,
        })
    }

    /// Replaces the workload registry (e.g. the built-ins plus custom
    /// kinds).
    pub fn with_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.registry = Arc::new(registry);
        self
    }

    /// Sets the per-connection in-flight job bound (a submit's
    /// `options.max_in_flight` can tighten it per request, never raise it).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Sets the engine-wide active-job bound across **all** connections
    /// (`MARQSIM_MAX_ACTIVE_JOBS` on the daemon; `0` = unlimited). A submit
    /// arriving while the engine already has this many unfinished jobs is
    /// rejected with the structured `busy` event before any decoding work;
    /// the per-connection bound can only tighten admission further, never
    /// bypass this one.
    pub fn with_max_active_jobs(mut self, max_active_jobs: usize) -> Self {
        self.max_active_jobs = max_active_jobs;
        self
    }

    /// Requires every connection to present this shared secret via the
    /// `auth` verb before any other verb is accepted
    /// (`MARQSIM_SERVE_TOKEN` on the daemon; the daemon *refuses*
    /// non-loopback binds without one). The `hello` event advertises
    /// `auth:true`; a wrong or missing token gets a structured `error`
    /// and a close.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.front.token = Some(token.into());
        self
    }

    /// Reaps connections that send no request bytes for `timeout`
    /// (`MARQSIM_SERVE_IDLE_TIMEOUT_MS` on the daemon; unset = never).
    /// Inbound bytes are the only activity that counts — a half-open
    /// client with jobs still running *is* reaped, and its jobs are
    /// cancelled, exactly like a hang-up. The blocking [`Client`]
    /// (`crate::Client`) sends keepalive `status` polls while waiting on a
    /// long job, so well-behaved waiters survive any reasonable timeout.
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

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The workload kinds this server accepts.
    pub fn workload_kinds(&self) -> Vec<String> {
        self.registry.kinds()
    }

    /// Runs the event loop on the calling thread until shut down (via a
    /// [`ServerHandle`] from [`spawn`](Server::spawn); a plain `run` server
    /// loops until the process exits).
    ///
    /// # Errors
    ///
    /// Propagates reactor-level failures (individual connection errors are
    /// contained).
    pub fn run(self) -> std::io::Result<()> {
        let node = Node {
            auth: self.front.token.is_some(),
            wake: self.front.wake_handle(),
            engine: self.engine,
            registry: self.registry,
            max_in_flight: self.max_in_flight,
            max_active_jobs: self.max_active_jobs,
            global_active: Arc::new(AtomicUsize::new(0)),
            notes: Arc::new(Mutex::new(VecDeque::new())),
            sessions: HashMap::new(),
        };
        self.front.run(node)
    }

    /// Moves the event loop to a background thread and returns a handle
    /// with the bound address and a shutdown switch — the shape the tests
    /// and the in-process smoke binary use.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let handle = self.front.handle()?;
        let engine = Arc::clone(&self.engine);
        Ok(ServerHandle {
            handle: handle.start("marqsim-serve-loop", move || self.run())?,
            engine,
        })
    }
}

/// Handle to a background server from [`Server::spawn`].
pub struct ServerHandle {
    handle: LoopHandle,
    engine: Arc<Engine>,
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The served engine (e.g. for asserting cache stats in tests).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops the event loop and joins it. Open connections are closed and
    /// their unfinished jobs cancelled.
    pub fn shutdown(self) {
        self.handle.stop();
    }
}

/// What engine-side hook threads push for the event loop to deliver.
enum Note {
    Progress {
        conn: ConnKey,
        job: u64,
        completed: usize,
        total: usize,
    },
    /// The job's terminal event, already encoded (the encoding and the
    /// cache-delta attribution happen on the coordinator thread, keeping
    /// the event loop lean).
    Terminal { conn: ConnKey, line: String },
}

/// The engine→loop note queue; hook threads push, the loop drains.
type Notes = Arc<Mutex<VecDeque<Note>>>;

fn push_note(notes: &Notes, wake: &WakeHandle, note: Note) {
    {
        let _witness = lockcheck::acquire("serve.server.notes");
        let mut queue = notes.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push_back(note);
    }
    wake.wake();
}

/// A held engine-wide admission slot (`None` when no global bound is
/// configured). Dropping it releases the slot, so every path out of
/// `submit` — per-connection rejection, decode failure, or the completion
/// hook's terminal note — frees it exactly once.
struct GlobalSlot(Option<Arc<AtomicUsize>>);

impl Drop for GlobalSlot {
    fn drop(&mut self) {
        if let Some(counter) = self.0.take() {
            counter.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One connection's jobs, created at its first submit.
#[derive(Default)]
struct Session {
    /// Jobs submitted on this connection, for status/cancel resolution.
    jobs: HashMap<u64, JobControl>,
    /// In-flight gauge: incremented at submit, decremented when the job's
    /// terminal note is delivered. Event-loop-local, so no atomics.
    in_flight: usize,
}

/// The node backend: job verbs run on the shared engine.
struct Node {
    engine: Arc<Engine>,
    registry: Arc<WorkloadRegistry>,
    auth: bool,
    max_in_flight: usize,
    max_active_jobs: usize,
    /// Jobs holding an engine-wide admission slot (reserved at submit,
    /// released when the job reaches its terminal event). A shared atomic
    /// rather than a read of the engine's gauge, so concurrent submits on
    /// different connections cannot all pass the check at once.
    global_active: Arc<AtomicUsize>,
    wake: WakeHandle,
    notes: Notes,
    sessions: HashMap<ConnKey, Session>,
}

impl Backend for Node {
    type Timer = Infallible;

    fn hello(&self) -> Event {
        Event::Hello {
            protocol: PROTOCOL_VERSION,
            role: Role::Node,
            nodes: Vec::new(),
            auth: self.auth,
            threads: self.engine.threads(),
            workloads: self.registry.kinds(),
            flow_solver: self.engine.flow_solver(),
            flow_solvers: SolverKind::SELECTABLE
                .iter()
                .map(|k| k.as_str().to_string())
                .collect(),
        }
    }

    fn request(&mut self, layer: &mut Layer<Infallible>, key: ConnKey, request: Request) {
        match request {
            Request::Submit {
                label,
                kind,
                params,
                options,
            } => self.submit(layer, key, label, kind, params, options),
            Request::Status { job } => layer.push(key, &self.status_event(key, job)),
            Request::Cancel { job } => {
                if let Some(control) = self.sessions.get(&key).and_then(|s| s.jobs.get(&job)) {
                    control.cancel();
                }
                layer.push(key, &self.status_event(key, job));
            }
            Request::Stats => {
                let event = Event::Stats(ServerStats {
                    threads: self.engine.threads(),
                    cache: self.engine.cache().stats(),
                    active_jobs: self.engine.active_jobs(),
                    queue_depth: self.engine.queue_depth(),
                    in_flight: self.sessions.get(&key).map_or(0, |s| s.in_flight),
                    flow_solver: self.engine.flow_solver(),
                    max_active_jobs: self.max_active_jobs,
                    per_node: Vec::new(),
                });
                layer.push(key, &event);
            }
            Request::Drain { node } => {
                let event = Event::Error {
                    message: format!("cannot drain '{node}': this server is a node, not a router"),
                };
                layer.push(key, &event);
            }
            // Answered by the connection layer.
            Request::Auth { .. } | Request::Metrics => {}
        }
    }

    /// Client is gone (or being evicted): cancel whatever it left running
    /// so an interrupted sweep stops consuming the pool.
    fn release(&mut self, _layer: &mut Layer<Infallible>, key: ConnKey, closed: bool) {
        if let Some(session) = self.sessions.get(&key) {
            for control in session.jobs.values() {
                if !control.is_finished() {
                    control.cancel();
                }
            }
        }
        if closed {
            self.sessions.remove(&key);
        }
    }

    /// Delivers queued engine notes to their connections.
    fn turn(&mut self, layer: &mut Layer<Infallible>) {
        let drained: Vec<Note> = {
            let _witness = lockcheck::acquire("serve.server.notes");
            let mut queue = self.notes.lock().unwrap_or_else(PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for note in drained {
            match note {
                Note::Progress {
                    conn,
                    job,
                    completed,
                    total,
                } => {
                    let event = Event::Progress {
                        job,
                        completed,
                        total,
                        node: None,
                    };
                    layer.push_progress(conn, job, &event);
                }
                Note::Terminal { conn, line } => {
                    if let Some(session) = self.sessions.get_mut(&conn) {
                        session.in_flight = session.in_flight.saturating_sub(1);
                    }
                    layer.push_line(conn, line, None);
                }
            }
        }
    }
}

impl Node {
    fn status_event(&self, key: ConnKey, job: u64) -> Event {
        match self.sessions.get(&key).and_then(|s| s.jobs.get(&job)) {
            Some(control) => {
                let progress = control.progress();
                Event::Status {
                    job,
                    known: true,
                    finished: control.is_finished(),
                    cancelled: control.is_cancelled(),
                    completed: progress.completed,
                    total: progress.total,
                }
            }
            None => Event::Status {
                job,
                known: false,
                finished: false,
                cancelled: false,
                completed: 0,
                total: 0,
            },
        }
    }

    fn submit(
        &mut self,
        layer: &mut Layer<Infallible>,
        key: ConnKey,
        label: String,
        kind: String,
        params: crate::wire::Json,
        options: SubmitOptions,
    ) {
        // Admission control, checked before any decoding work. Two bounds,
        // both rejected with the structured `busy` event: the engine-wide
        // active-job cap shared by every connection, then the
        // per-connection in-flight bound (which the request can only
        // *tighten*, never raise — a greedy client must not be able to
        // raise the limit it is being held to).
        //
        // The global slot is *reserved* with a compare-and-swap, not
        // checked against a gauge: N connections submitting at the same
        // instant get at most `max_active_jobs` slots between them. The
        // reservation is held by a drop guard until the job's terminal
        // event.
        let global_slot = if self.max_active_jobs > 0 {
            match self
                .global_active
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                    (active < self.max_active_jobs).then_some(active + 1)
                }) {
                Ok(_) => GlobalSlot(Some(Arc::clone(&self.global_active))),
                Err(active) => {
                    let event = Event::Busy {
                        label,
                        in_flight: active,
                        limit: self.max_active_jobs,
                    };
                    layer.push(key, &event);
                    return;
                }
            }
        } else {
            GlobalSlot(None)
        };
        let limit = options
            .max_in_flight
            .map_or(self.max_in_flight, |requested| {
                requested.min(self.max_in_flight)
            })
            .max(1);
        let currently = self.sessions.get(&key).map_or(0, |s| s.in_flight);
        if currently >= limit {
            let event = Event::Busy {
                label,
                in_flight: currently,
                limit,
            };
            layer.push(key, &event);
            return;
        }

        let workload = match self.registry.decode(&kind, &label, &params) {
            Ok(workload) => workload,
            Err(message) => {
                layer.push(key, &Event::Error { message });
                return;
            }
        };

        let stats_before = self.engine.cache().stats();
        let job_flow_solver = options
            .flow_solver
            .unwrap_or_else(|| self.engine.flow_solver());

        // Hooks run on the job's coordinator thread and carry the
        // engine-assigned id, so there is no submit/progress id race to
        // gate: they push a note and ring the loop's doorbell.
        let (progress_notes, progress_wake) = (Arc::clone(&self.notes), self.wake.clone());
        let (terminal_notes, terminal_wake) = (Arc::clone(&self.notes), self.wake.clone());
        let engine = Arc::clone(&self.engine);
        let registry = Arc::clone(&self.registry);
        let control = self.engine.submit_with_hooks(
            workload,
            options,
            move |job, progress| {
                let note = Note::Progress {
                    conn: key,
                    job: job.0,
                    completed: progress.completed,
                    total: progress.total,
                };
                push_note(&progress_notes, &progress_wake, note);
            },
            move |job, outcome| {
                // Terminal path, still on the coordinator thread: attribute
                // the cache-counter delta to this job, free the engine-wide
                // admission slot (so a client that saw `done` can
                // immediately resubmit), and encode the terminal event.
                let cache_delta = engine.cache().stats().delta_since(&stats_before);
                drop(global_slot);
                let event = match outcome {
                    Ok(output) => match registry.encode(&kind, &output) {
                        Ok(value) => Event::Done {
                            job: job.0,
                            outcome: crate::protocol::Outcome::Other { kind, value },
                            cache_delta,
                            flow_solver: job_flow_solver,
                            node: None,
                        },
                        Err(message) => Event::Failed {
                            job: job.0,
                            kind: "encode".to_string(),
                            message,
                            node: None,
                        },
                    },
                    Err(error) => Event::Failed {
                        job: job.0,
                        kind: failure_kind(&error).to_string(),
                        message: error.to_string(),
                        node: None,
                    },
                };
                let note = Note::Terminal {
                    conn: key,
                    line: encode_line(&event),
                };
                push_note(&terminal_notes, &terminal_wake, note);
            },
        );

        let job_id = control.id().0;
        let session = self.sessions.entry(key).or_default();
        session.in_flight += 1;
        if session.jobs.len() >= MAX_TRACKED_JOBS {
            session.jobs.retain(|_, control| !control.is_finished());
        }
        session.jobs.insert(job_id, control);
        let event = Event::Submitted {
            job: job_id,
            label,
            node: None,
        };
        layer.push(key, &event);
    }
}
