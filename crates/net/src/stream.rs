//! Nonblocking listener and stream wrappers.
//!
//! Thin adapters that put `WouldBlock` into the type: reactor code matches
//! on [`IoStatus`] instead of re-deriving the three-way outcome (progress /
//! try later / gone) from `io::Error` at every call site. `Interrupted` is
//! retried internally; any other error means the connection is dead.
//!
//! The socket policy lives here too: every stream [`Listener::accept`] and
//! [`Stream::connect`] return has `TCP_NODELAY` set. The daemons speak
//! small request/response lines and batch their own writes, so Nagle's
//! algorithm would only hold a reply's second segment until the peer's
//! delayed ACK (about 40 ms).

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, IntoRawFd, RawFd};

use marqsim_obs::warn;

use crate::sys;

/// Turns Nagle's algorithm off on `stream`. A failure leaves a working
/// (if slower) stream, so it is logged and counted, not returned.
fn set_nodelay(stream: &TcpStream) {
    if let Err(error) = stream.set_nodelay(true) {
        warn!("net", "could not set TCP_NODELAY: {error}");
        crate::instruments().nodelay_failures.inc();
    }
}

/// Outcome of one nonblocking read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStatus {
    /// `n` bytes moved (`n > 0`).
    Ready(usize),
    /// The operation would block; wait for readiness and retry.
    WouldBlock,
    /// Orderly end of stream (read side only).
    Closed,
}

/// Outcome of starting a nonblocking [`Stream::connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectStatus {
    /// The handshake completed inside the `connect` call itself.
    Ready,
    /// The handshake is in flight: register the stream for write interest
    /// (or [`crate::wait_writable`]) and call [`Stream::connect_result`]
    /// once it turns writable.
    InProgress,
}

/// A nonblocking accept loop over a bound [`TcpListener`].
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Puts `listener` into nonblocking mode and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates the mode change failure.
    pub fn from_std(listener: TcpListener) -> io::Result<Listener> {
        listener.set_nonblocking(true)?;
        Ok(Listener { inner: listener })
    }

    /// Accepts one pending connection, or `None` when the backlog is
    /// empty. Transient per-connection errors (peer reset before accept)
    /// also come back as `None` — the listener itself is fine. The
    /// returned stream has `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// Propagates listener-level failures (e.g. fd exhaustion).
    pub fn accept(&self) -> io::Result<Option<(TcpStream, SocketAddr)>> {
        loop {
            match self.inner.accept() {
                Ok(pair) => {
                    set_nodelay(&pair.0);
                    return Ok(Some(pair));
                }
                Err(error) => match error.kind() {
                    io::ErrorKind::WouldBlock => return Ok(None),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => continue,
                    _ => return Err(error),
                },
            }
        }
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

/// A nonblocking TCP stream with status-typed reads and writes.
pub struct Stream {
    inner: TcpStream,
}

impl Stream {
    /// Puts `stream` into nonblocking mode and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates the mode change failure.
    pub fn from_std(stream: TcpStream) -> io::Result<Stream> {
        stream.set_nonblocking(true)?;
        Ok(Stream { inner: stream })
    }

    /// Starts a nonblocking outbound connect to `addr`. On
    /// [`ConnectStatus::InProgress`], the stream is not usable until it
    /// turns writable and [`connect_result`](Stream::connect_result)
    /// confirms the handshake. The stream has `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failure and synchronously reported
    /// connect errors (e.g. immediate `ECONNREFUSED` on loopback).
    pub fn connect(addr: &SocketAddr) -> io::Result<(Stream, ConnectStatus)> {
        let (fd, progress) = sys::connect_nonblocking(addr)?;
        // SAFETY: `fd` is an owned, open socket fd; ownership transfers
        // into the `TcpStream`, which closes it on drop.
        let inner = unsafe { TcpStream::from_raw_fd(fd.into_raw_fd()) };
        set_nodelay(&inner);
        let status = match progress {
            sys::ConnectProgress::Ready => ConnectStatus::Ready,
            sys::ConnectProgress::InProgress => ConnectStatus::InProgress,
        };
        Ok((Stream { inner }, status))
    }

    /// The outcome of an in-progress connect, valid once the stream has
    /// turned writable: reads and clears `SO_ERROR`.
    ///
    /// # Errors
    ///
    /// Returns the stored connect failure (e.g. `ECONNREFUSED`).
    pub fn connect_result(&self) -> io::Result<()> {
        sys::take_socket_error(self.inner.as_raw_fd())
    }

    /// Reads into `buf` once.
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors (`WouldBlock` / EOF are statuses,
    /// not errors; `Interrupted` is retried).
    pub fn read(&mut self, buf: &mut [u8]) -> io::Result<IoStatus> {
        loop {
            match self.inner.read(buf) {
                Ok(0) => return Ok(IoStatus::Closed),
                Ok(n) => return Ok(IoStatus::Ready(n)),
                Err(error) => match error.kind() {
                    io::ErrorKind::WouldBlock => return Ok(IoStatus::WouldBlock),
                    io::ErrorKind::Interrupted => continue,
                    _ => return Err(error),
                },
            }
        }
    }

    /// Writes from `buf` once; short writes are normal under backpressure.
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors.
    pub fn write(&mut self, buf: &[u8]) -> io::Result<IoStatus> {
        write_status(|| self.inner.write(buf))
    }

    /// Writes from `bufs`, in order, with one `writev`; short writes are
    /// normal under backpressure and may end inside any slice.
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors.
    pub fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<IoStatus> {
        write_status(|| self.inner.write_vectored(bufs))
    }

    /// The wrapped socket (peer address, nodelay, shutdown).
    pub fn std(&self) -> &TcpStream {
        &self.inner
    }
}

/// Runs one nonblocking write, retrying `Interrupted` and turning
/// `WouldBlock` into a status.
fn write_status(mut write: impl FnMut() -> io::Result<usize>) -> io::Result<IoStatus> {
    loop {
        match write() {
            Ok(n) => return Ok(IoStatus::Ready(n)),
            Err(error) => match error.kind() {
                io::ErrorKind::WouldBlock => return Ok(IoStatus::WouldBlock),
                io::ErrorKind::Interrupted => continue,
                _ => return Err(error),
            },
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn accept_returns_none_on_an_empty_backlog() {
        let listener = Listener::from_std(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        assert!(listener.accept().unwrap().is_none());
    }

    #[test]
    fn read_write_round_trip_with_statuses() {
        let listener = Listener::from_std(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();

        let accepted = loop {
            if let Some((stream, _)) = listener.accept().unwrap() {
                break stream;
            }
        };
        let mut server_side = Stream::from_std(accepted).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server_side.read(&mut buf).unwrap(), IoStatus::WouldBlock);

        {
            use std::io::Write as _;
            let mut client = &client;
            client.write_all(b"ping").unwrap();
        }
        // The bytes are in flight; poll until they land.
        let n = loop {
            match server_side.read(&mut buf).unwrap() {
                IoStatus::Ready(n) => break n,
                IoStatus::WouldBlock => std::thread::sleep(std::time::Duration::from_millis(1)),
                IoStatus::Closed => panic!("client is still connected"),
            }
        };
        assert_eq!(&buf[..n], b"ping");

        drop(client);
        let status = loop {
            match server_side.read(&mut buf).unwrap() {
                IoStatus::WouldBlock => std::thread::sleep(std::time::Duration::from_millis(1)),
                status => break status,
            }
        };
        assert_eq!(status, IoStatus::Closed);
    }

    /// Drives an outbound connect to completion, whichever of the two
    /// kernel-reported shapes it takes.
    fn finish_connect(stream: &Stream, status: ConnectStatus) -> std::io::Result<()> {
        match status {
            ConnectStatus::Ready => Ok(()),
            ConnectStatus::InProgress => {
                use std::os::fd::AsRawFd as _;
                let writable = crate::wait_writable(
                    stream.as_raw_fd(),
                    Some(std::time::Duration::from_secs(5)),
                )
                .unwrap();
                assert!(writable, "in-progress connect never resolved");
                stream.connect_result()
            }
        }
    }

    #[test]
    fn connect_to_a_live_listener_completes_and_moves_bytes() {
        let listener = Listener::from_std(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();

        let (mut client, status) = Stream::connect(&addr).unwrap();
        finish_connect(&client, status).expect("connect to a live listener succeeds");

        let accepted = loop {
            if let Some((stream, _)) = listener.accept().unwrap() {
                break stream;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        let mut server_side = Stream::from_std(accepted).unwrap();

        loop {
            match client.write(b"hello").unwrap() {
                IoStatus::Ready(5) => break,
                IoStatus::Ready(_) | IoStatus::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                IoStatus::Closed => panic!("listener is still connected"),
            }
        }
        let mut buf = [0u8; 16];
        let n = loop {
            match server_side.read(&mut buf).unwrap() {
                IoStatus::Ready(n) => break n,
                IoStatus::WouldBlock => std::thread::sleep(std::time::Duration::from_millis(1)),
                IoStatus::Closed => panic!("client is still connected"),
            }
        };
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn accepted_and_connected_streams_have_nodelay_set() {
        let listener = Listener::from_std(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();

        let (client, status) = Stream::connect(&addr).unwrap();
        finish_connect(&client, status).expect("connect to a live listener succeeds");
        assert!(client.std().nodelay().unwrap());

        let accepted = loop {
            if let Some((stream, _)) = listener.accept().unwrap() {
                break stream;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        let server_side = Stream::from_std(accepted).unwrap();
        assert!(server_side.std().nodelay().unwrap());
    }

    #[test]
    fn write_vectored_sends_the_slices_in_order() {
        let listener = Listener::from_std(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let accepted = loop {
            if let Some((stream, _)) = listener.accept().unwrap() {
                break stream;
            }
        };
        let mut server_side = Stream::from_std(accepted).unwrap();

        let slices = [
            IoSlice::new(b"one\n"),
            IoSlice::new(b""),
            IoSlice::new(b"two\n"),
        ];
        // An empty socket buffer takes eight bytes in one call.
        assert_eq!(
            server_side.write_vectored(&slices).unwrap(),
            IoStatus::Ready(8)
        );
        let mut buf = [0u8; 8];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"one\ntwo\n");
    }

    #[test]
    fn connect_to_a_dead_port_reports_refused() {
        // Bind then drop: the port was just free, so nothing is listening.
        let addr = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        // The refusal may surface synchronously from `connect` or
        // asynchronously through `SO_ERROR`; both are correct.
        let outcome = match Stream::connect(&addr) {
            Ok((stream, status)) => finish_connect(&stream, status),
            Err(error) => Err(error),
        };
        let error = outcome.expect_err("nothing is listening on the probed port");
        assert_eq!(error.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn in_progress_connect_is_not_an_error() {
        // A remote (non-loopback, TEST-NET-1) address cannot complete the
        // handshake synchronously, so the kernel must report in-progress
        // rather than failing the call.
        let addr: SocketAddr = "192.0.2.1:9".parse().unwrap();
        match Stream::connect(&addr) {
            Ok((_, status)) => assert_eq!(status, ConnectStatus::InProgress),
            // Sandboxes without an external route may refuse outright;
            // what matters is that `connect` never panics or hangs.
            Err(error) => assert!(error.raw_os_error().is_some()),
        }
    }
}
