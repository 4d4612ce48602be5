//! # marqsim-net — the readiness reactor under the serve front-end
//!
//! One event-loop thread cannot block on any single socket; it needs the
//! kernel to say *which* of thousands of fds has work. This crate is that
//! layer, built directly on `epoll` with no external dependencies (the
//! workspace has no registry access; the few syscalls `std` does not wrap
//! are declared in [`sys`] and resolve against the C library `std` already
//! links):
//!
//! * [`Poller`] / [`Token`] / [`Interest`] — a level-triggered readiness
//!   poller over one epoll instance;
//! * [`Listener`] / [`Stream`] / [`IoStatus`] — nonblocking accept/read/
//!   write wrappers that put `WouldBlock` into the type, plus outbound
//!   nonblocking [`Stream::connect`] with a typed [`ConnectStatus`] (the
//!   cluster router dials its nodes from inside the event loop). Every
//!   stream either hands out has `TCP_NODELAY` set: callers batch their
//!   own writes ([`Stream::write_vectored`]), so Nagle's algorithm only
//!   adds a delayed-ACK stall;
//! * [`Wakeup`] / [`WakeHandle`] — a socketpair-backed channel for waking
//!   a parked event loop from other threads (job completions, shutdown);
//! * [`DeadlineWheel`] / [`TimerKey`] — ordered timeouts (idle
//!   connections, slow-consumer force-close) that bound the poll wait;
//! * [`LineAssembler`] — bounded `\n`-framing over short reads, the
//!   reactor-side twin of a bounded blocking `read_line`;
//! * [`wait_readable`] / [`wait_writable`] — single-fd poll waits for
//!   *blocking* callers (the serve client) that must compose with a
//!   nonblocking peer.
//!
//! The reactor exposes its own instruments (`marqsim_net_polls_total`,
//! `marqsim_net_events_total`, `marqsim_net_wakeups_total`,
//! `marqsim_net_timers_expired_total`, `marqsim_net_nodelay_failures_total`)
//! through the global `marqsim-obs` registry; see `docs/net.md` for the
//! architecture and `docs/observability.md` for the catalog.

pub mod framing;
pub mod poller;
pub mod stream;
pub mod sys;
pub mod wakeup;
pub mod wheel;

pub use framing::{FramingError, LineAssembler};
pub use poller::{Interest, PollEvent, Poller, Token};
pub use stream::{ConnectStatus, IoStatus, Listener, Stream};
pub use sys::{wait_readable, wait_writable};
pub use wakeup::{WakeHandle, Wakeup};
pub use wheel::{DeadlineWheel, TimerKey};

use std::sync::{Arc, OnceLock};

use marqsim_obs::metrics;

/// Process-wide reactor instruments in the global metrics registry,
/// resolved once.
struct NetInstruments {
    /// `epoll_wait` calls that returned.
    polls: Arc<metrics::Counter>,
    /// Readiness events those calls delivered.
    events: Arc<metrics::Counter>,
    /// Cross-thread wakes requested through a [`WakeHandle`].
    wakeups: Arc<metrics::Counter>,
    /// Deadline-wheel timers that came due.
    timers_expired: Arc<metrics::Counter>,
    /// Streams handed out without `TCP_NODELAY` because setting it failed.
    nodelay_failures: Arc<metrics::Counter>,
}

fn instruments() -> &'static NetInstruments {
    static INSTRUMENTS: OnceLock<NetInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let registry = metrics::global();
        NetInstruments {
            polls: registry.counter("marqsim_net_polls_total"),
            events: registry.counter("marqsim_net_events_total"),
            wakeups: registry.counter("marqsim_net_wakeups_total"),
            timers_expired: registry.counter("marqsim_net_timers_expired_total"),
            nodelay_failures: registry.counter("marqsim_net_nodelay_failures_total"),
        }
    })
}
