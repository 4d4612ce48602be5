//! The downstream connection layer both serving roles share.
//!
//! A node ([`Server`](crate::Server)) and a router
//! ([`Router`](crate::Router)) speak the same line protocol to their
//! clients and differ only in what a job verb *does*: run it on the
//! engine, or forward it to the fleet. Everything else about a client
//! connection lives here, once, as one explicit session per connection
//! driven by one event loop:
//!
//! * the connection slab (generation-checked [`ConnKey`]s, slot reuse) and
//!   the token layout: `0` listener, `1` wakeup, `2 + 2·slot` a client
//!   connection, `3 + 2·index` a backend's upstream socket;
//! * bounded line framing in ([`MAX_LINE_BYTES`]) and a bounded
//!   [`Outbound`] queue out, with progress coalescing and the
//!   slow-consumer disconnect;
//! * the `auth` handshake, the `metrics` verb, and bad-request answers;
//! * idle reaping and the force-close grace timer on the shared
//!   [`DeadlineWheel`];
//! * interest reconciliation, the `conn` close span, and the
//!   `marqsim_serve_*` connection instruments.
//!
//! A [`Backend`] supplies the rest: its `hello`, the job verbs, what to do
//! with a departing connection's jobs, and its own per-iteration work.
//! Teardown never calls into the backend re-entrantly: a connection that
//! is reaped, overflows, or closes is queued as *released*, and the loop
//! hands it to [`Backend::release`] between phases — so a backend that
//! overflows a client while relaying an event is not re-entered halfway
//! through that relay.

use std::collections::VecDeque;
use std::io::IoSlice;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use marqsim_net::{
    DeadlineWheel, Interest, IoStatus, LineAssembler, Listener, PollEvent, Poller, Stream,
    TimerKey, Token, WakeHandle, Wakeup,
};
use marqsim_obs::{metrics, trace, warn};

use crate::protocol::{Event, Request};

/// Maximum accepted request-line length (bytes, terminator included).
/// Bounds per-connection memory against hostile input; a sweep submit is a
/// few hundred bytes, and even thousand-term Hamiltonians stay far below
/// this.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Soft outbound-queue threshold (events): above it, consecutive progress
/// events of one job coalesce (newest wins) instead of queueing — a slow
/// reader still learns the latest progress, just not every step.
const OUTBOUND_COALESCE_EVENTS: usize = 64;

/// Hard outbound-queue cap in events; exceeding it is a slow-consumer
/// disconnect.
const OUTBOUND_MAX_EVENTS: usize = 8192;

/// Hard outbound-queue cap in bytes; exceeding it is a slow-consumer
/// disconnect. Generous enough for any single result payload (a 500-string
/// perturb matrix is ~6 MB) — the cap is about *accumulation*, not one
/// large event.
const OUTBOUND_MAX_BYTES: usize = 64 * 1024 * 1024;

/// Most queued lines one [`Outbound::flush`] write gathers. Loopback
/// traffic rarely queues more than a few lines between flushes; the cap
/// bounds the per-call slice array, not the bytes written.
const FLUSH_SLICES: usize = 64;

/// How long a disconnecting connection may take to drain its final error
/// event before the socket is closed regardless.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Listener registration token.
const TOKEN_LISTENER: u64 = 0;
/// Wakeup-channel registration token.
const TOKEN_WAKEUP: u64 = 1;

/// A client connection's token: the even tokens from 2.
fn conn_token(slot: usize) -> Token {
    Token(2 + 2 * slot as u64)
}

/// A backend upstream socket's token: the odd tokens from 3.
pub(crate) fn upstream_token(index: usize) -> Token {
    Token(3 + 2 * index as u64)
}

/// Process-wide serve instruments in the global [`metrics`] registry,
/// resolved once. Request counters are labelled by verb so the exposition
/// separates cheap `status` polls from `submit` work.
struct ServeInstruments {
    connections: Arc<metrics::Counter>,
    bytes_read: Arc<metrics::Counter>,
    bytes_written: Arc<metrics::Counter>,
    /// Per-verb request counters, indexed like [`VERBS`].
    requests: [Arc<metrics::Counter>; VERBS.len()],
    bad_requests: Arc<metrics::Counter>,
    /// Events queued but not yet written, summed over all connections.
    outbound_queue_depth: Arc<metrics::Gauge>,
    progress_coalesced: Arc<metrics::Counter>,
    slow_disconnects: Arc<metrics::Counter>,
    idle_timeouts: Arc<metrics::Counter>,
    auth_failures: Arc<metrics::Counter>,
}

/// Verb labels for `marqsim_serve_requests_total`, in [`verb_index`]
/// order.
const VERBS: [&str; 7] = [
    "submit", "status", "cancel", "stats", "metrics", "auth", "drain",
];

fn verb_index(request: &Request) -> usize {
    match request {
        Request::Submit { .. } => 0,
        Request::Status { .. } => 1,
        Request::Cancel { .. } => 2,
        Request::Stats => 3,
        Request::Metrics => 4,
        Request::Auth { .. } => 5,
        Request::Drain { .. } => 6,
    }
}

fn serve_instruments() -> &'static ServeInstruments {
    static INSTRUMENTS: OnceLock<ServeInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let registry = metrics::global();
        ServeInstruments {
            connections: registry.counter("marqsim_serve_connections_total"),
            bytes_read: registry.counter("marqsim_serve_bytes_read_total"),
            bytes_written: registry.counter("marqsim_serve_bytes_written_total"),
            requests: VERBS.map(|verb| {
                registry.counter_with("marqsim_serve_requests_total", &[("verb", verb)])
            }),
            bad_requests: registry.counter("marqsim_serve_bad_requests_total"),
            outbound_queue_depth: registry.gauge("marqsim_serve_outbound_queue_depth"),
            progress_coalesced: registry.counter("marqsim_serve_progress_coalesced_total"),
            slow_disconnects: registry.counter("marqsim_serve_slow_disconnects_total"),
            idle_timeouts: registry.counter("marqsim_serve_idle_timeouts_total"),
            auth_failures: registry.counter("marqsim_serve_auth_failures_total"),
        }
    })
}

/// Identity of one connection across slot reuse: anything addressed to a
/// `(slot, generation)` that no longer matches is stale and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ConnKey {
    slot: usize,
    gen: u64,
}

/// Why a connection is being torn down (for the trace span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer hung up or the socket died.
    Eof,
    /// Unframeable input (oversized line, invalid UTF-8).
    BadInput,
    /// The outbound queue hit its hard cap.
    SlowConsumer,
    /// No inbound bytes within the idle timeout.
    IdleTimeout,
    /// Wrong or missing shared secret on a token-protected server.
    AuthFailed,
    /// Server shutdown.
    Shutdown,
}

impl CloseReason {
    fn as_str(self) -> &'static str {
        match self {
            CloseReason::Eof => "eof",
            CloseReason::BadInput => "bad_input",
            CloseReason::SlowConsumer => "slow_consumer",
            CloseReason::IdleTimeout => "idle_timeout",
            CloseReason::AuthFailed => "auth_failed",
            CloseReason::Shutdown => "shutdown",
        }
    }
}

/// Deadline-wheel payloads: the layer's two connection timers plus
/// whatever the backend arms.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Timer<T> {
    /// Idle-timeout check for a slot.
    Idle(usize),
    /// Force-close for a disconnecting slot that never drained.
    ForceClose(usize),
    /// A backend timer.
    Backend(T),
}

/// One queued outbound line (terminator included in `line`).
struct OutLine {
    line: String,
    /// `Some(job)` for progress events — the coalescing key.
    progress_job: Option<u64>,
}

/// What one [`Outbound::flush`] achieved.
pub(crate) enum Flush {
    /// The queue is empty.
    Drained,
    /// The socket stopped accepting bytes; wait for writability.
    Blocked,
    /// The socket is dead.
    Failed,
}

/// A queue of whole lines written to a nonblocking socket, resumed after
/// short writes, plus the poller interest the socket is registered with.
/// Client connections and a router's upstream node sockets both write
/// through it; bounds are the caller's policy.
pub(crate) struct Outbound {
    lines: VecDeque<OutLine>,
    bytes: usize,
    /// Bytes of the head line already written.
    write_offset: usize,
    /// Bytes of fully written lines, over the queue's lifetime.
    written: u64,
    interest: Interest,
}

impl Outbound {
    /// An empty queue for a socket registered with `interest`.
    pub(crate) fn new(interest: Interest) -> Outbound {
        Outbound {
            lines: VecDeque::new(),
            bytes: 0,
            write_offset: 0,
            written: 0,
            interest,
        }
    }

    /// Appends one encoded line (terminator included); `progress_job` is
    /// the coalescing key of a progress event.
    pub(crate) fn push(&mut self, line: String, progress_job: Option<u64>) {
        self.bytes += line.len();
        self.lines.push_back(OutLine { line, progress_job });
    }

    /// Writes queued lines until the queue drains or the socket blocks,
    /// gathering up to [`FLUSH_SLICES`] lines into each `writev`. A short
    /// write may end inside any line; the next call resumes at the same
    /// byte of the head line.
    pub(crate) fn flush(&mut self, stream: &mut Stream) -> Flush {
        while let Some(head) = self.lines.front() {
            let mut slices = [IoSlice::new(&[]); FLUSH_SLICES];
            slices[0] = IoSlice::new(&head.line.as_bytes()[self.write_offset..]);
            for (slice, queued) in slices[1..].iter_mut().zip(self.lines.iter().skip(1)) {
                *slice = IoSlice::new(queued.line.as_bytes());
            }
            let count = self.lines.len().min(FLUSH_SLICES);
            match stream.write_vectored(&slices[..count]) {
                Ok(IoStatus::Ready(n)) => self.advance(n),
                Ok(IoStatus::WouldBlock) => return Flush::Blocked,
                Ok(IoStatus::Closed) | Err(_) => return Flush::Failed,
            }
        }
        Flush::Drained
    }

    /// Accounts `n` written bytes: pops every line they complete and
    /// leaves `write_offset` inside the new head line.
    fn advance(&mut self, mut n: usize) {
        while let Some(head) = self.lines.front() {
            let rest = head.line.len() - self.write_offset;
            if n < rest {
                self.write_offset += n;
                return;
            }
            n -= rest;
            let len = head.line.len();
            self.write_offset = 0;
            self.bytes -= len;
            self.written += len as u64;
            self.lines.pop_front();
        }
    }

    /// Reconciles the poller registration with `desired`: one
    /// `reregister` per change, none when nothing changed.
    pub(crate) fn watch(
        &mut self,
        stream: &Stream,
        poller: &Poller,
        token: Token,
        desired: Interest,
    ) {
        if desired != self.interest && poller.reregister(stream, token, desired).is_ok() {
            self.interest = desired;
        }
    }
}

/// Per-connection session state.
struct Conn {
    stream: Stream,
    gen: u64,
    assembler: LineAssembler,
    /// Encoded events waiting for socket writability; bounded (see
    /// [`OUTBOUND_MAX_EVENTS`] / [`OUTBOUND_MAX_BYTES`]).
    out: Outbound,
    /// Per-connection counters, reported by the `metrics` verb. `bytes_in`
    /// counts request-line bytes including the line terminator.
    requests: u64,
    bytes_in: u64,
    /// Last instant inbound bytes arrived (what the idle timeout watches).
    last_activity: Instant,
    idle_timer: Option<TimerKey>,
    close_timer: Option<TimerKey>,
    /// Whether the connection may use non-`auth` verbs: true from the
    /// start on an open server, true after a matching `auth` on a
    /// token-protected one.
    authed: bool,
    /// `Some(why)` while a structured disconnect is in progress: input is
    /// ignored, queued events drain, then the socket closes with `why`.
    closing: Option<CloseReason>,
    /// Marks membership in the layer's dirty list (pending flush attempt).
    dirty: bool,
    opened: Instant,
}

/// The connection slab; a slot's token is [`conn_token`].
#[derive(Default)]
struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
}

impl Slab {
    /// Picks a free slot and a fresh generation for the next connection.
    fn vacant(&mut self) -> ConnKey {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        ConnKey {
            slot,
            gen: self.next_gen,
        }
    }

    fn at(&mut self, slot: usize) -> Option<&mut Conn> {
        self.conns.get_mut(slot).and_then(Option::as_mut)
    }

    fn get(&mut self, key: ConnKey) -> Option<&mut Conn> {
        self.at(key.slot).filter(|conn| conn.gen == key.gen)
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(conn)
    }
}

/// One line off a connection, as [`Layer::next_line`] classifies it.
enum Line {
    /// A job verb for the backend.
    Request(ConnKey, Request),
    /// Consumed by the layer (blank, malformed, `auth`, `metrics`, or
    /// refused before authentication).
    Answered,
    /// No complete line is buffered, or the connection stopped reading.
    Wait,
}

/// The connection layer's state, owned by the event-loop thread and lent
/// to the backend on every call.
pub(crate) struct Layer<T> {
    pub(crate) poller: Poller,
    pub(crate) wheel: DeadlineWheel<Timer<T>>,
    /// Scratch buffer for socket reads (shared with backend upstreams).
    pub(crate) read_buf: Vec<u8>,
    slab: Slab,
    /// Slots with queued outbound data to flush this iteration.
    dirty: Vec<usize>,
    /// Connections whose jobs the backend must release, with whether the
    /// connection is closed for good.
    released: Vec<(ConnKey, bool)>,
    token: Option<String>,
    idle_timeout: Option<Duration>,
}

impl<T> Layer<T> {
    fn new(poller: Poller, token: Option<String>, idle_timeout: Option<Duration>) -> Layer<T> {
        Layer {
            poller,
            wheel: DeadlineWheel::new(),
            read_buf: vec![0u8; 64 * 1024],
            slab: Slab::default(),
            dirty: Vec::new(),
            released: Vec::new(),
            token,
            idle_timeout,
        }
    }

    /// Queues `event` for `key`; a stale key is a no-op.
    pub(crate) fn push(&mut self, key: ConnKey, event: &Event) {
        self.push_line(key, encode_line(event), None);
    }

    /// Queues a `progress` event for `key`, coalescable with a queued
    /// progress event of the same `job`.
    pub(crate) fn push_progress(&mut self, key: ConnKey, job: u64, event: &Event) {
        self.push_line(key, encode_line(event), Some(job));
    }

    /// Queues one encoded line (terminator included) for write, enforcing
    /// the backpressure policy.
    pub(crate) fn push_line(&mut self, key: ConnKey, line: String, progress_job: Option<u64>) {
        let instruments = serve_instruments();
        let Some(conn) = self.slab.get(key) else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        let out = &mut conn.out;
        // Progress coalescing above the soft threshold: replace the
        // youngest queued progress event of the same job instead of
        // growing the queue — a slow reader still learns the latest
        // progress, just not every step. A partly written head line is
        // never replaced.
        if progress_job.is_some() && out.lines.len() >= OUTBOUND_COALESCE_EVENTS {
            if let Some(back) = out
                .lines
                .back_mut()
                .filter(|back| back.progress_job == progress_job)
            {
                out.bytes = out.bytes - back.line.len() + line.len();
                back.line = line;
                instruments.progress_coalesced.inc();
                mark_dirty(conn, &mut self.dirty, key.slot);
                return;
            }
        }
        if out.lines.len() >= OUTBOUND_MAX_EVENTS || out.bytes + line.len() > OUTBOUND_MAX_BYTES {
            self.slow_consumer(key);
            return;
        }
        out.push(line, progress_job);
        instruments.outbound_queue_depth.add(1);
        mark_dirty(conn, &mut self.dirty, key.slot);
    }

    /// Structured disconnect for a consumer that cannot keep up: queued
    /// events are dropped (keeping a partially written head, which must
    /// finish to preserve framing), a terminal `error` event is queued,
    /// the connection's jobs are released, input is ignored, and the
    /// socket closes once the error drains — or when the grace timer
    /// fires.
    fn slow_consumer(&mut self, key: ConnKey) {
        let instruments = serve_instruments();
        instruments.slow_disconnects.inc();
        let error_line = encode_line(&Event::Error {
            message: format!(
                "disconnected: outbound queue overflow (slow consumer, limit {OUTBOUND_MAX_EVENTS} \
                 events / {OUTBOUND_MAX_BYTES} bytes)"
            ),
        });
        let Some(conn) = self.slab.get(key) else {
            return;
        };
        let out = &mut conn.out;
        let keep_head = usize::from(out.write_offset > 0);
        let dropped = out.lines.len().saturating_sub(keep_head);
        out.lines.truncate(keep_head);
        out.bytes = out.lines.iter().map(|l| l.line.len()).sum();
        out.push(error_line, None);
        instruments.outbound_queue_depth.sub(dropped as i64 - 1);
        self.begin_close(key, CloseReason::SlowConsumer, Instant::now());
    }

    /// Starts a structured disconnect: input stops, the connection's jobs
    /// are released to the backend, queued events drain, and the socket
    /// closes at drain-complete or after [`CLOSE_GRACE`].
    fn begin_close(&mut self, key: ConnKey, reason: CloseReason, now: Instant) {
        let Some(conn) = self.slab.get(key) else {
            return;
        };
        if conn.closing.is_some() {
            return;
        }
        conn.closing = Some(reason);
        if let Some(timer) = conn.idle_timer.take() {
            self.wheel.cancel(timer);
        }
        conn.close_timer = Some(
            self.wheel
                .arm(now + CLOSE_GRACE, Timer::ForceClose(key.slot)),
        );
        mark_dirty(conn, &mut self.dirty, key.slot);
        self.released.push((key, false));
    }

    /// Sends a structured `error` and starts a graceful close — the
    /// auth-failure twin of the slow-consumer disconnect.
    fn auth_reject(&mut self, key: ConnKey, message: &str) {
        serve_instruments().auth_failures.inc();
        let event = Event::Error {
            message: message.to_string(),
        };
        self.push(key, &event);
        self.begin_close(key, CloseReason::AuthFailed, Instant::now());
    }

    fn open(&mut self, stream: TcpStream, hello: &Event) {
        let stream = match Stream::from_std(stream) {
            Ok(stream) => stream,
            Err(error) => {
                warn!("serve", "could not prepare connection: {error}");
                return;
            }
        };
        let key = self.slab.vacant();
        if let Err(error) = self
            .poller
            .register(&stream, conn_token(key.slot), Interest::READABLE)
        {
            // A refused registration drops the stream (the client sees a
            // clean close) but must not take the loop down.
            warn!("serve", "connection registration failed: {error}");
            self.slab.free.push(key.slot);
            return;
        }
        let now = Instant::now();
        let idle_timer = self
            .idle_timeout
            .map(|timeout| self.wheel.arm(now + timeout, Timer::Idle(key.slot)));
        serve_instruments().connections.inc();
        self.slab.conns[key.slot] = Some(Conn {
            stream,
            gen: key.gen,
            assembler: LineAssembler::new(MAX_LINE_BYTES),
            out: Outbound::new(Interest::READABLE),
            requests: 0,
            bytes_in: 0,
            last_activity: now,
            idle_timer,
            close_timer: None,
            authed: self.token.is_none(),
            closing: None,
            dirty: false,
            opened: now,
        });
        self.push(key, hello);
    }

    /// One nonblocking read into the slot's line assembler. Returns
    /// `false` when there is nothing (more) to process: the socket would
    /// block, the connection is closing or gone, or it just closed.
    fn fill(&mut self, slot: usize) -> bool {
        let Some(conn) = self.slab.at(slot) else {
            return false;
        };
        if conn.closing.is_some() {
            // Input after a structured disconnect is ignored; the socket
            // only stays registered to drain and close.
            return false;
        }
        match conn.stream.read(&mut self.read_buf) {
            Ok(IoStatus::Ready(n)) => {
                conn.last_activity = Instant::now();
                conn.assembler.push(&self.read_buf[..n]);
                true
            }
            Ok(IoStatus::WouldBlock) => false,
            // An I/O error is treated like EOF: drop the connection.
            Ok(IoStatus::Closed) | Err(_) => {
                self.close(slot, CloseReason::Eof);
                false
            }
        }
    }

    /// Pops the slot's next complete line and answers whatever the layer
    /// owns; job verbs go back to the caller for the backend.
    fn next_line(&mut self, slot: usize) -> Line {
        let instruments = serve_instruments();
        let Some(conn) = self.slab.at(slot) else {
            return Line::Wait;
        };
        if conn.closing.is_some() {
            return Line::Wait;
        }
        let line = match conn.assembler.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Line::Wait,
            Err(_) => {
                // Unframeable input (oversized line / invalid UTF-8): the
                // stream can no longer be trusted, drop it.
                self.close(slot, CloseReason::BadInput);
                return Line::Wait;
            }
        };
        let line_bytes = line.len() as u64 + 1;
        conn.bytes_in += line_bytes;
        instruments.bytes_read.add(line_bytes);
        if line.trim().is_empty() {
            return Line::Answered;
        }
        conn.requests += 1;
        let key = ConnKey {
            slot,
            gen: conn.gen,
        };
        let authed = conn.authed;
        let (requests, bytes_in, bytes_out) = (conn.requests, conn.bytes_in, conn.out.written);
        let request = match Request::decode(&line) {
            Ok(request) => request,
            Err(error) => {
                instruments.bad_requests.inc();
                let event = Event::Error {
                    message: format!("bad request: {}", error.message),
                };
                self.push(key, &event);
                return Line::Answered;
            }
        };
        if let Request::Auth { token } = &request {
            instruments.requests[verb_index(&request)].inc();
            self.auth(key, token);
            return Line::Answered;
        }
        if !authed {
            // A token-protected server accepts nothing before a matching
            // `auth` — not even `stats`.
            self.auth_reject(key, "authentication required: send the auth verb first");
            return Line::Answered;
        }
        instruments.requests[verb_index(&request)].inc();
        if let Request::Metrics = request {
            let event = Event::Metrics {
                exposition: metrics::global().expose(),
                requests,
                bytes_in,
                bytes_out,
            };
            self.push(key, &event);
            return Line::Answered;
        }
        Line::Request(key, request)
    }

    fn auth(&mut self, key: ConnKey, token: &str) {
        let accepted = match &self.token {
            // An open server accepts (and ignores) any token, so a client
            // configured with one works against both kinds of server.
            None => true,
            Some(expected) => constant_time_eq(expected.as_bytes(), token.as_bytes()),
        };
        if !accepted {
            self.auth_reject(key, "authentication failed: bad token");
            return;
        }
        if let Some(conn) = self.slab.get(key) {
            conn.authed = true;
        }
        self.push(key, &Event::AuthOk);
    }

    /// The idle timer of `slot` fired: push the deadline out if the
    /// connection spoke since arming, else reap it — release its jobs,
    /// tell it why (best effort), drain, close.
    fn idle_expired(&mut self, timer: TimerKey, slot: usize, now: Instant) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let Some(conn) = self.slab.at(slot) else {
            return;
        };
        if conn.idle_timer != Some(timer) || conn.closing.is_some() {
            return;
        }
        let deadline = conn.last_activity + timeout;
        if now < deadline {
            conn.idle_timer = Some(self.wheel.arm(deadline, Timer::Idle(slot)));
            return;
        }
        serve_instruments().idle_timeouts.inc();
        conn.idle_timer = None;
        let key = ConnKey {
            slot,
            gen: conn.gen,
        };
        let message = format!(
            "disconnected: no request for {} ms (idle timeout)",
            timeout.as_millis()
        );
        self.push(key, &Event::Error { message });
        self.begin_close(key, CloseReason::IdleTimeout, now);
    }

    /// The grace timer of a disconnecting `slot` fired: close it now.
    fn force_close(&mut self, timer: TimerKey, slot: usize) {
        let reason = match self.slab.at(slot) {
            Some(conn) if conn.close_timer == Some(timer) => conn.closing,
            _ => return,
        };
        self.close(slot, reason.unwrap_or(CloseReason::Eof));
    }

    /// Attempts to flush every dirty connection's outbound queue.
    fn flush_dirty(&mut self) {
        for slot in std::mem::take(&mut self.dirty) {
            if let Some(conn) = self.slab.at(slot) {
                conn.dirty = false;
                self.flush(slot);
            }
        }
    }

    /// Writes what the socket takes, then fixes up interest: readable
    /// unless closing, writable only while data is queued. A closing
    /// connection whose queue drained is closed.
    fn flush(&mut self, slot: usize) {
        let instruments = serve_instruments();
        let Some(conn) = self.slab.at(slot) else {
            return;
        };
        let (queued, written) = (conn.out.lines.len(), conn.out.written);
        let flushed = conn.out.flush(&mut conn.stream);
        instruments.bytes_written.add(conn.out.written - written);
        instruments
            .outbound_queue_depth
            .sub((queued - conn.out.lines.len()) as i64);
        let readable = conn.closing.is_none();
        let writable = match flushed {
            Flush::Drained => match conn.closing {
                Some(reason) => return self.close(slot, reason),
                None => false,
            },
            Flush::Blocked => true,
            Flush::Failed => return self.close(slot, CloseReason::Eof),
        };
        let desired = Interest { readable, writable };
        conn.out
            .watch(&conn.stream, &self.poller, conn_token(slot), desired);
    }

    /// Tears one connection down: releases its timers and registration,
    /// emits the connection-lifetime trace span, frees the slot, and
    /// queues its jobs for release.
    fn close(&mut self, slot: usize, reason: CloseReason) {
        let Some(conn) = self.slab.remove(slot) else {
            return;
        };
        for timer in [conn.idle_timer, conn.close_timer].into_iter().flatten() {
            self.wheel.cancel(timer);
        }
        self.poller.deregister(&conn.stream);
        serve_instruments()
            .outbound_queue_depth
            .sub(conn.out.lines.len() as i64);
        let dur_us = conn.opened.elapsed().as_micros() as u64;
        trace::emit_interval(
            "conn",
            None,
            conn.opened,
            dur_us,
            &[
                ("reason", reason.as_str().to_string()),
                ("requests", conn.requests.to_string()),
                ("bytes_in", conn.bytes_in.to_string()),
                ("bytes_out", conn.out.written.to_string()),
            ],
        );
        self.released.push((
            ConnKey {
                slot,
                gen: conn.gen,
            },
            true,
        ));
    }
}

fn mark_dirty(conn: &mut Conn, dirty: &mut Vec<usize>, slot: usize) {
    if !conn.dirty {
        conn.dirty = true;
        dirty.push(slot);
    }
}

/// What differs between the two roles. The layer answers `auth` and
/// `metrics` itself; everything a job verb means is the backend's.
pub(crate) trait Backend {
    /// Payload of the backend's own deadline-wheel timers.
    type Timer: Copy;

    /// The greeting every new connection receives.
    fn hello(&self) -> Event;

    /// Handles one authenticated `submit`, `status`, `cancel`, `stats`, or
    /// `drain` from `key`.
    fn request(&mut self, layer: &mut Layer<Self::Timer>, key: ConnKey, request: Request);

    /// Cancels the jobs of `key`, which is being reaped, dropped as a slow
    /// consumer, or (`closed`) gone for good — a closed key is never seen
    /// again, so per-connection state for it can be dropped.
    fn release(&mut self, layer: &mut Layer<Self::Timer>, key: ConnKey, closed: bool);

    /// Per-iteration work after readiness dispatch.
    fn turn(&mut self, layer: &mut Layer<Self::Timer>);

    /// The backend's earliest deadline outside the wheel, if any.
    fn next_deadline(&self) -> Option<Instant> {
        None
    }

    /// Readiness on the backend's upstream socket `index`.
    fn upstream(&mut self, _layer: &mut Layer<Self::Timer>, _index: usize, _event: &PollEvent) {}

    /// A backend timer fired.
    fn timer(&mut self, _layer: &mut Layer<Self::Timer>, _key: TimerKey, _timer: Self::Timer) {}

    /// Flushes the backend's own outbound sockets, last in each iteration.
    fn flush(&mut self, _layer: &mut Layer<Self::Timer>) {}

    /// The loop is stopping; every client connection is already closed.
    fn shutdown(&mut self, _layer: &mut Layer<Self::Timer>) {}
}

/// What both roles hold between `bind` and `run`: the listener, the
/// connection policy, and the shutdown switch and doorbell a
/// [`LoopHandle`] needs.
pub(crate) struct Front {
    listener: TcpListener,
    pub(crate) token: Option<String>,
    pub(crate) idle_timeout: Option<Duration>,
    shutdown: Arc<AtomicBool>,
    wakeup: Wakeup,
}

impl Front {
    pub(crate) fn bind(addr: &str) -> std::io::Result<Front> {
        Ok(Front {
            listener: TcpListener::bind(addr)?,
            token: None,
            idle_timeout: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            wakeup: Wakeup::new()?,
        })
    }

    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The doorbell that interrupts a parked loop.
    pub(crate) fn wake_handle(&self) -> WakeHandle {
        self.wakeup.handle()
    }

    /// A handle to this front's loop; [`LoopHandle::start`] gives it its
    /// thread.
    pub(crate) fn handle(&self) -> std::io::Result<LoopHandle> {
        Ok(LoopHandle {
            addr: self.local_addr()?,
            shutdown: Arc::clone(&self.shutdown),
            wake: self.wake_handle(),
            thread: None,
        })
    }

    /// Runs the event loop on the calling thread until shut down.
    pub(crate) fn run<B: Backend>(self, mut backend: B) -> std::io::Result<()> {
        let poller = Poller::new()?;
        let listener = Listener::from_std(self.listener)?;
        poller.register(&listener, Token(TOKEN_LISTENER), Interest::READABLE)?;
        poller.register(
            self.wakeup.reader(),
            Token(TOKEN_WAKEUP),
            Interest::READABLE,
        )?;
        let mut layer = Layer::new(poller, self.token, self.idle_timeout);
        let mut events: Vec<PollEvent> = Vec::new();
        let mut expired: Vec<(TimerKey, Timer<B::Timer>)> = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            let deadline = match (layer.wheel.next_deadline(), backend.next_deadline()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            events.clear();
            layer.poller.wait(
                &mut events,
                deadline.map(|at| at.saturating_duration_since(Instant::now())),
            )?;
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            for event in &events {
                match event.token.0 {
                    TOKEN_LISTENER => accept_ready(&listener, &mut layer, &backend),
                    TOKEN_WAKEUP => self.wakeup.drain(),
                    token if token % 2 == 0 => {
                        conn_event(&mut layer, &mut backend, (token / 2 - 1) as usize, event);
                    }
                    token => backend.upstream(&mut layer, (token / 2 - 1) as usize, event),
                }
            }
            backend.turn(&mut layer);
            expired.clear();
            let now = Instant::now();
            layer.wheel.expire(now, &mut expired);
            for (key, timer) in expired.drain(..) {
                match timer {
                    Timer::Idle(slot) => layer.idle_expired(key, slot, now),
                    Timer::ForceClose(slot) => layer.force_close(key, slot),
                    Timer::Backend(timer) => backend.timer(&mut layer, key, timer),
                }
            }
            release(&mut layer, &mut backend);
            layer.flush_dirty();
            release(&mut layer, &mut backend);
            backend.flush(&mut layer);
        }
        // Shutdown: close every connection (releasing its jobs).
        for slot in 0..layer.slab.conns.len() {
            layer.close(slot, CloseReason::Shutdown);
        }
        release(&mut layer, &mut backend);
        backend.shutdown(&mut layer);
        Ok(())
    }
}

fn accept_ready<B: Backend>(listener: &Listener, layer: &mut Layer<B::Timer>, backend: &B) {
    loop {
        match listener.accept() {
            Ok(Some((stream, _peer))) => layer.open(stream, &backend.hello()),
            Ok(None) => break,
            Err(error) => {
                warn!("serve", "accept failed: {error}");
                break;
            }
        }
    }
}

fn conn_event<B: Backend>(
    layer: &mut Layer<B::Timer>,
    backend: &mut B,
    slot: usize,
    event: &PollEvent,
) {
    if event.readable {
        // Drain readable bytes, handling every completed request line.
        while layer.fill(slot) {
            loop {
                match layer.next_line(slot) {
                    Line::Request(key, request) => backend.request(layer, key, request),
                    Line::Answered => {}
                    Line::Wait => break,
                }
            }
        }
    }
    if event.writable {
        if let Some(conn) = layer.slab.at(slot) {
            mark_dirty(conn, &mut layer.dirty, slot);
        }
    }
    if event.closed && !event.readable {
        // Pure error condition with nothing to read.
        layer.close(slot, CloseReason::Eof);
    }
}

/// Hands every released connection to the backend.
fn release<B: Backend>(layer: &mut Layer<B::Timer>, backend: &mut B) {
    while let Some((key, closed)) = layer.released.pop() {
        backend.release(layer, key, closed);
    }
}

/// Handle to a background event loop: its address and shutdown switch.
pub(crate) struct LoopHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wake: WakeHandle,
    thread: Option<JoinHandle<()>>,
}

impl LoopHandle {
    /// Runs `run` (which drives `front`'s loop) on a thread named `name`.
    pub(crate) fn start(
        mut self,
        name: &str,
        run: impl FnOnce() -> std::io::Result<()> + Send + 'static,
    ) -> std::io::Result<LoopHandle> {
        self.thread = Some(std::thread::Builder::new().name(name.to_string()).spawn(
            move || {
                if let Err(error) = run() {
                    warn!("serve", "event loop failed: {error}");
                }
            },
        )?);
        Ok(self)
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop and joins its thread.
    pub(crate) fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Compares two byte strings without early exit, so a token mismatch
/// leaks no position information through response timing.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().min(b.len()) {
        diff |= usize::from(a[i] ^ b[i]);
    }
    diff == 0
}

/// Encodes one event as its wire line, terminator included.
pub(crate) fn encode_line(event: &Event) -> String {
    let mut line = event.encode();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn progress_events_coalesce_above_the_soft_threshold() {
        // Both roles queue progress through `push_progress`; a client that
        // is not reading sees the newest progress of a job, not a backlog.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut layer: Layer<()> = Layer::new(Poller::new().unwrap(), None, None);
        layer.open(accepted, &Event::AuthOk);
        let key = ConnKey { slot: 0, gen: 1 };
        for _ in 1..OUTBOUND_COALESCE_EVENTS {
            layer.push(key, &Event::AuthOk);
        }
        let progress = |completed| Event::Progress {
            job: 7,
            completed,
            total: 10,
            node: None,
        };
        for completed in 0..10 {
            layer.push_progress(key, 7, &progress(completed));
        }
        let out = &layer.slab.at(0).unwrap().out;
        assert_eq!(out.lines.len(), OUTBOUND_COALESCE_EVENTS + 1);
        assert_eq!(
            out.lines.back().map(|l| l.line.clone()),
            Some(encode_line(&progress(9)))
        );
        assert_eq!(out.bytes, out.lines.iter().map(|l| l.line.len()).sum());
        // Only a progress event of the same job at the back is replaced.
        layer.push(key, &Event::AuthOk);
        layer.push_progress(key, 7, &progress(10));
        assert_eq!(
            layer.slab.at(0).unwrap().out.lines.len(),
            OUTBOUND_COALESCE_EVENTS + 3
        );
        // Closing returns the queued events to the process-wide gauge.
        layer.close(0, CloseReason::Shutdown);
    }

    /// A layer holding one connection (slot 0) whose peer is `client`.
    fn layer_with_one_conn() -> (Layer<()>, ConnKey, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut layer: Layer<()> = Layer::new(Poller::new().unwrap(), None, None);
        layer.open(accepted, &Event::AuthOk);
        (layer, ConnKey { slot: 0, gen: 1 }, client)
    }

    /// Queues `count` distinct lines of an odd length after the hello, so
    /// the kernel's send buffer fills part-way through some line; returns
    /// every queued line in order, hello first.
    fn queue_lines(layer: &mut Layer<()>, key: ConnKey, count: usize) -> Vec<String> {
        let mut lines = vec![encode_line(&Event::AuthOk)];
        for i in 0..count {
            let line = format!("{i:0>7918}\n");
            layer.push_line(key, line.clone(), None);
            lines.push(line);
        }
        lines
    }

    /// Flushes slot 0 until the socket stops taking bytes.
    fn flush_until_blocked(layer: &mut Layer<()>) {
        let conn = layer.slab.at(0).unwrap();
        match conn.out.flush(&mut conn.stream) {
            Flush::Blocked => {}
            Flush::Drained => panic!("a peer that is not reading cannot take 15 MB"),
            Flush::Failed => panic!("the peer is still connected"),
        }
    }

    #[test]
    fn vectored_flush_resumes_across_backpressure() {
        let (mut layer, key, mut client) = layer_with_one_conn();
        let lines = queue_lines(&mut layer, key, 2000);
        let expected = lines.concat();
        let total = expected.len();

        flush_until_blocked(&mut layer);
        let out = &layer.slab.at(0).unwrap().out;
        assert!(out.written > 0);
        assert_eq!(out.written as usize + out.bytes, total);
        assert_eq!(out.bytes, out.lines.iter().map(|l| l.line.len()).sum());

        let reader = std::thread::spawn(move || {
            let mut received = vec![0u8; total];
            std::io::Read::read_exact(&mut client, &mut received).unwrap();
            received
        });
        loop {
            let conn = layer.slab.at(0).unwrap();
            match conn.out.flush(&mut conn.stream) {
                Flush::Drained => break,
                Flush::Blocked => {
                    marqsim_net::wait_writable(conn.stream.as_raw_fd(), None).unwrap();
                }
                Flush::Failed => panic!("the peer is still connected"),
            }
        }
        assert_eq!(reader.join().unwrap(), expected.as_bytes());
        let out = &layer.slab.at(0).unwrap().out;
        assert_eq!(out.written as usize, total);
        assert_eq!((out.bytes, out.write_offset), (0, 0));
        assert!(out.lines.is_empty());
        layer.close(0, CloseReason::Shutdown);
    }

    #[test]
    fn slow_consumer_mid_line_keeps_framing() {
        let (mut layer, key, mut client) = layer_with_one_conn();
        let lines = queue_lines(&mut layer, key, 2000);

        // Stop part-way through a line. The kernel almost always does; if
        // it stopped on a boundary, let the peer take a little and retry.
        let mut received = Vec::new();
        flush_until_blocked(&mut layer);
        while layer.slab.at(0).unwrap().out.write_offset == 0 {
            let mut chunk = [0u8; 4099];
            std::io::Read::read_exact(&mut client, &mut chunk).unwrap();
            received.extend_from_slice(&chunk);
            flush_until_blocked(&mut layer);
        }
        let head = layer.slab.at(0).unwrap().out.lines[0].line.clone();

        layer.slow_consumer(key);
        let error_line = {
            let out = &layer.slab.at(0).unwrap().out;
            // The partly written head survives; everything behind it is
            // replaced by the terminal error.
            assert_eq!(out.lines.len(), 2);
            assert_eq!(out.lines[0].line, head);
            assert!(out.write_offset > 0);
            assert_eq!(out.bytes, out.lines.iter().map(|l| l.line.len()).sum());
            out.lines[1].line.clone()
        };

        // Drain: the layer closes the socket once the error is written.
        let reader = std::thread::spawn(move || {
            std::io::Read::read_to_end(&mut client, &mut received).unwrap();
            received
        });
        while let Some(conn) = layer.slab.at(0) {
            let fd = conn.stream.as_raw_fd();
            layer.flush(0);
            if layer.slab.at(0).is_some() {
                marqsim_net::wait_writable(fd, None).unwrap();
            }
        }
        let received = String::from_utf8(reader.join().unwrap()).unwrap();

        // Whole lines in queue order up to the head, then the error.
        let delivered = lines.iter().position(|l| *l == head).unwrap() + 1;
        assert_eq!(received, lines[..delivered].concat() + &error_line);
        assert!(error_line.contains("slow consumer"));
    }
}
