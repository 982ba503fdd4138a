//! Message transports: how wire lines move between peers.
//!
//! A [`Transport`] is a bidirectional, blocking pipe of already-framed
//! lines (see [`crate::protocol`] for the framing). Two implementations
//! ship, matching the two deployment shapes:
//!
//! * [`ChannelTransport`] — `std::sync::mpsc` string channels for
//!   in-process shards and servers (zero-copy of the line, no sockets);
//! * [`TcpTransport`] — a std `TcpStream` with line framing, for shards
//!   and clients on other machines.
//!
//! Test rigs implement [`Transport`] too: fault-injection wrappers that
//! drop a peer mid-round or deliver lines out of order / duplicated live
//! in this crate's test suite, which is exactly why the seam is at the
//! line level — every fault a real network can produce is expressible as
//! a line-stream transformation.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::protocol::{decode, encode};
use crate::ServeError;

/// A transport-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone: channel disconnected or socket closed.
    Closed,
    /// An I/O failure distinct from orderly closure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "peer closed the transport"),
            TransportError::Io(msg) => write!(f, "I/O failure: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// What one bounded receive attempt observed.
///
/// The third state — [`RecvOutcome::TimedOut`] — is what separates a
/// *silent* peer from a *gone* one: a transport can only report it from
/// [`Transport::recv_deadline`], and the sharded coordinator turns it
/// into a typed timeout fault instead of blocking forever on a hung
/// shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A complete framed line arrived.
    Line(String),
    /// The peer closed cleanly (EOF at a frame boundary, channel peer
    /// dropped).
    Closed,
    /// No complete line arrived within the deadline. The transport
    /// remains usable: any partial frame already received is retained
    /// and the next receive resumes it.
    TimedOut,
}

/// A bidirectional, blocking pipe of framed wire lines.
///
/// `recv` blocks until a line arrives; `Ok(None)` reports an *orderly*
/// close (the peer finished and hung up), while `Err(Closed)` reports a
/// broken pipe. The sharded coordinator treats both as shard loss — a
/// shard that closed with work outstanding gets its jobs requeued either
/// way.
pub trait Transport: Send {
    /// Sends one framed line.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the peer is gone or I/O fails.
    fn send(&mut self, line: &str) -> Result<(), TransportError>;

    /// Blocks for the next line; `Ok(None)` means the peer closed
    /// cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] on broken pipes or I/O failure.
    fn recv(&mut self) -> Result<Option<String>, TransportError>;

    /// Waits for the next line at most `timeout`; a transport that can
    /// bound its wait reports [`RecvOutcome::TimedOut`] when the
    /// deadline passes with no complete line.
    ///
    /// A zero `timeout` is a poll on both shipped transports: it
    /// returns a line that has already arrived, or
    /// [`RecvOutcome::TimedOut`] without waiting at all.
    ///
    /// The default implementation cannot bound the wait — it delegates
    /// to the blocking [`Transport::recv`] and never times out, even
    /// for a zero `timeout`. Both shipped transports override it; a rig
    /// that deliberately hangs should too, or a timeout-armed
    /// coordinator will block on it.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] on broken pipes or I/O failure.
    fn recv_deadline(&mut self, timeout: Duration) -> Result<RecvOutcome, TransportError> {
        let _ = timeout;
        Ok(match self.recv()? {
            Some(line) => RecvOutcome::Line(line),
            None => RecvOutcome::Closed,
        })
    }
}

/// A mutable borrow of a transport is itself a transport — what lets
/// the multiplexed server loop adopt a caller-owned transport (the
/// [`crate::CampaignServer::serve`] entry point) as one of its
/// sessions without taking ownership.
impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        (**self).send(line)
    }

    fn recv(&mut self) -> Result<Option<String>, TransportError> {
        (**self).recv()
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<RecvOutcome, TransportError> {
        (**self).recv_deadline(timeout)
    }
}

/// Sends a typed message over any transport.
///
/// # Errors
///
/// Propagates the transport failure.
pub fn send_msg<T: Serialize>(
    transport: &mut dyn Transport,
    msg: &T,
) -> Result<(), TransportError> {
    transport.send(&encode(msg))
}

/// Receives and decodes a typed message; `Ok(None)` means the peer
/// closed cleanly.
///
/// # Errors
///
/// Returns [`ServeError::Transport`] on transport failure and
/// [`ServeError::Protocol`] when the line does not decode as `T`.
pub fn recv_msg<T: Deserialize>(transport: &mut dyn Transport) -> Result<Option<T>, ServeError> {
    match transport.recv() {
        Ok(Some(line)) => decode(&line).map(Some),
        Ok(None) => Ok(None),
        Err(e) => Err(ServeError::Transport(e)),
    }
}

/// In-process transport over a pair of `mpsc` string channels.
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<String>,
    rx: Receiver<String>,
}

/// Creates the two connected ends of an in-process transport.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        ChannelTransport { tx: a_tx, rx: a_rx },
        ChannelTransport { tx: b_tx, rx: b_rx },
    )
}

impl Transport for ChannelTransport {
    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        self.tx
            .send(line.to_string())
            .map_err(|_| TransportError::Closed)
    }

    fn recv(&mut self) -> Result<Option<String>, TransportError> {
        // A disconnected sender is an orderly close for channels: the
        // peer end was dropped, which is how channel peers hang up.
        Ok(self.rx.recv().ok())
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<RecvOutcome, TransportError> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(line) => RecvOutcome::Line(line),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        })
    }
}

/// TCP transport: line-framed messages over a std `TcpStream`.
///
/// `TCP_NODELAY` is enabled — the protocol is request/streamed-reply and
/// every message is latency-sensitive relative to its size.
#[derive(Debug)]
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of a frame whose newline has not arrived yet. Lives on the
    /// transport, not the read call, so a deadline that expires
    /// mid-frame loses nothing: the next receive resumes exactly where
    /// the timed-out one stopped.
    pending: Vec<u8>,
}

impl TcpTransport {
    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an accepted stream.
    ///
    /// # Errors
    ///
    /// Returns the error of cloning the stream handle.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            pending: Vec::new(),
        })
    }

    /// Arms or disarms the socket read timeout around one receive.
    /// Callers never pass a zero timeout (`SO_RCVTIMEO` rejects it):
    /// a zero deadline is a non-blocking poll instead.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| TransportError::Io(e.to_string()))
    }

    /// The zero-deadline receive: a line already buffered, else
    /// non-blocking reads until a line completes or the socket has
    /// nothing more. A short timeout cannot stand in for it: a 1 ms
    /// `SO_RCVTIMEO` measured ~8 ms of real waiting on a 2-vCPU Linux
    /// host.
    fn poll(&mut self) -> Result<RecvOutcome, TransportError> {
        // The reader and writer share one open file description, so the
        // mode switch reaches the reader through the writer's handle; the
        // guard puts blocking mode back on every path.
        let _nonblocking = if self.reader.buffer().contains(&b'\n') {
            None
        } else {
            Some(NonBlocking::set(&self.writer)?)
        };
        read_framed_line_pending(&mut self.reader, &mut self.pending, MAX_FRAME_BYTES)
    }
}

/// Holds a socket in non-blocking mode until dropped. `O_NONBLOCK`
/// lives on the open file description, which `try_clone` shares, so
/// leaving it set would also turn the transport's writes non-blocking.
struct NonBlocking<'a>(&'a TcpStream);

impl<'a> NonBlocking<'a> {
    fn set(stream: &'a TcpStream) -> Result<Self, TransportError> {
        stream
            .set_nonblocking(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(Self(stream))
    }
}

impl Drop for NonBlocking<'_> {
    fn drop(&mut self) {
        // A failure here leaves the descriptor non-blocking; the next
        // blocking read or write then surfaces it as an I/O error.
        let _ = self.0.set_nonblocking(false);
    }
}

/// The one line-framing writer: `line` + `\n` onto a byte stream. Both
/// [`TcpTransport::send`] and the typed [`crate::protocol::write_frame`]
/// go through here, so the framing cannot diverge between them.
pub(crate) fn write_framed_line<W: Write>(
    writer: &mut W,
    line: &str,
) -> Result<(), TransportError> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer
        .write_all(framed.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => {
                TransportError::Closed
            }
            _ => TransportError::Io(e.to_string()),
        })
}

/// Hard cap on one frame's bytes: far above any legitimate message (a
/// 100 000-job round assignment is ~50 MiB), but it bounds what a peer
/// that never sends a newline can make this side buffer — an accepted
/// TCP connection must not be able to grow the coordinator's memory
/// without limit.
const MAX_FRAME_BYTES: usize = 256 << 20;

/// The one line-framing reader: `Ok(None)` on EOF at a frame boundary,
/// [`TransportError::Closed`] on EOF mid-frame (the peer died while
/// sending), [`TransportError::Io`] past the frame-size cap. Shared by
/// [`TcpTransport::recv`] and the typed [`crate::protocol::read_frame`].
pub(crate) fn read_framed_line<R: BufRead>(
    reader: &mut R,
) -> Result<Option<String>, TransportError> {
    read_framed_line_capped(reader, MAX_FRAME_BYTES)
}

fn read_framed_line_capped<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
) -> Result<Option<String>, TransportError> {
    let mut pending = Vec::new();
    match read_framed_line_pending(reader, &mut pending, max_bytes)? {
        RecvOutcome::Line(line) => Ok(Some(line)),
        RecvOutcome::Closed => Ok(None),
        // Only a reader armed with a read timeout produces this; a
        // blocking reader that surfaces `WouldBlock` anyway has lost the
        // partial frame held in the local `pending`, which is an I/O
        // failure, not a retryable wait.
        RecvOutcome::TimedOut => Err(TransportError::Io(
            "read timed out on a transport without timeout support".to_string(),
        )),
    }
}

/// The resumable frame reader behind both receive paths: accumulates
/// into `pending` until a newline, so a timeout (`WouldBlock` /
/// `TimedOut` from an armed socket) can return without losing the bytes
/// of a frame caught mid-flight.
fn read_framed_line_pending<R: BufRead>(
    reader: &mut R,
    pending: &mut Vec<u8>,
    max_bytes: usize,
) -> Result<RecvOutcome, TransportError> {
    loop {
        let (newline_at, available) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(RecvOutcome::TimedOut);
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            };
            if chunk.is_empty() {
                if pending.is_empty() {
                    return Ok(RecvOutcome::Closed);
                }
                return Err(TransportError::Closed);
            }
            let pos = chunk.iter().position(|&b| b == b'\n');
            let take = pos.map_or(chunk.len(), |p| p);
            pending.extend_from_slice(&chunk[..take]);
            (pos, chunk.len())
        };
        match newline_at {
            Some(pos) => {
                reader.consume(pos + 1);
                let line = String::from_utf8(std::mem::take(pending))
                    .map_err(|_| TransportError::Io("frame is not valid UTF-8".to_string()))?;
                return Ok(RecvOutcome::Line(line));
            }
            None => {
                reader.consume(available);
                if pending.len() > max_bytes {
                    return Err(TransportError::Io(format!(
                        "frame exceeds the {max_bytes}-byte cap without a newline"
                    )));
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        write_framed_line(&mut self.writer, line)
    }

    fn recv(&mut self) -> Result<Option<String>, TransportError> {
        // Disarm any timeout a previous `recv_deadline` left on the
        // socket, then resume whatever partial frame it retained.
        self.set_read_timeout(None)?;
        match read_framed_line_pending(&mut self.reader, &mut self.pending, MAX_FRAME_BYTES)? {
            RecvOutcome::Line(line) => Ok(Some(line)),
            RecvOutcome::Closed => Ok(None),
            RecvOutcome::TimedOut => Err(TransportError::Io(
                "socket timed out with no timeout armed".to_string(),
            )),
        }
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<RecvOutcome, TransportError> {
        if timeout.is_zero() {
            return self.poll();
        }
        // The socket timeout bounds each read, not the whole receive;
        // for the coordinator's loss detector — "has this shard said
        // anything lately" — a per-read bound is exactly the question.
        self.set_read_timeout(Some(timeout))?;
        read_framed_line_pending(&mut self.reader, &mut self.pending, MAX_FRAME_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_is_bidirectional() {
        let (mut a, mut b) = channel_pair();
        a.send("ping").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some("ping"));
        b.send("pong").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some("pong"));
    }

    #[test]
    fn dropping_one_end_reads_as_orderly_close() {
        let (mut a, b) = channel_pair();
        drop(b);
        assert_eq!(a.recv().unwrap(), None);
        assert_eq!(a.send("into the void"), Err(TransportError::Closed));
    }

    #[test]
    fn oversized_frames_are_rejected_instead_of_buffered_forever() {
        // A peer that streams bytes with no newline must hit the cap,
        // not grow this side's buffer without bound.
        let endless = vec![b'x'; 1024];
        let mut reader = std::io::BufReader::with_capacity(64, endless.as_slice());
        let err = read_framed_line_capped(&mut reader, 100).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)), "{err}");
        // A frame within the cap still reads normally.
        let mut ok = std::io::BufReader::with_capacity(8, "hello\nrest".as_bytes());
        assert_eq!(
            read_framed_line_capped(&mut ok, 100).unwrap().as_deref(),
            Some("hello")
        );
    }

    #[test]
    fn channel_recv_deadline_times_out_then_delivers() {
        let (mut a, mut b) = channel_pair();
        assert_eq!(
            a.recv_deadline(Duration::from_millis(10)).unwrap(),
            RecvOutcome::TimedOut
        );
        // The transport stays usable after a timeout.
        b.send("late").unwrap();
        assert_eq!(
            a.recv_deadline(Duration::from_secs(5)).unwrap(),
            RecvOutcome::Line("late".to_string())
        );
        drop(b);
        assert_eq!(
            a.recv_deadline(Duration::from_millis(10)).unwrap(),
            RecvOutcome::Closed
        );
    }

    #[test]
    fn tcp_recv_deadline_preserves_partial_frames_across_timeouts() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go_tx, go_rx) = channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Half a frame, then silence until the client has timed out.
            stream.write_all(b"hel").unwrap();
            stream.flush().unwrap();
            go_rx.recv().unwrap();
            stream.write_all(b"lo\n").unwrap();
            stream.flush().unwrap();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        assert_eq!(
            client.recv_deadline(Duration::from_millis(50)).unwrap(),
            RecvOutcome::TimedOut
        );
        go_tx.send(()).unwrap();
        // The blocking receive resumes the frame the timeout caught
        // mid-flight: nothing of "hel" was lost.
        assert_eq!(client.recv().unwrap().as_deref(), Some("hello"));
        server.join().unwrap();
    }

    /// A connected loopback pair: the transport under test and the raw
    /// peer stream that feeds it.
    fn tcp_pair() -> (TcpTransport, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (client, peer)
    }

    /// Polls with a zero deadline until something other than a timeout
    /// comes back; loopback delivery is not instantaneous, and nothing
    /// here may depend on how long it takes.
    fn poll_until_ready(t: &mut TcpTransport) -> Result<RecvOutcome, TransportError> {
        loop {
            match t.recv_deadline(Duration::ZERO) {
                Ok(RecvOutcome::TimedOut) => std::thread::yield_now(),
                other => return other,
            }
        }
    }

    #[test]
    fn channel_zero_deadline_polls_without_waiting() {
        let (mut a, mut b) = channel_pair();
        assert_eq!(
            a.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::TimedOut
        );
        b.send("queued").unwrap();
        assert_eq!(
            a.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::Line("queued".to_string())
        );
        drop(b);
        assert_eq!(
            a.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::Closed
        );
    }

    #[test]
    fn tcp_zero_deadline_on_an_empty_socket_times_out() {
        let (mut client, _peer) = tcp_pair();
        assert_eq!(
            client.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::TimedOut
        );
        assert_eq!(
            client.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::TimedOut
        );
    }

    #[test]
    fn tcp_zero_deadline_keeps_half_a_frame_until_the_rest_arrives() {
        let (mut client, mut peer) = tcp_pair();
        peer.write_all(b"hel").unwrap();
        // Poll until the half frame has been read into `pending`: every
        // poll before the newline must report a timeout.
        while client.pending.is_empty() {
            assert_eq!(
                client.recv_deadline(Duration::ZERO).unwrap(),
                RecvOutcome::TimedOut
            );
        }
        assert_eq!(
            client.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::TimedOut
        );
        // The rest of the frame plus one whole line behind it: the first
        // poll that sees the newline returns the exact line, the next
        // returns the line that followed it.
        peer.write_all(b"lo\nnext\n").unwrap();
        assert_eq!(
            poll_until_ready(&mut client).unwrap(),
            RecvOutcome::Line("hello".to_string())
        );
        assert_eq!(
            poll_until_ready(&mut client).unwrap(),
            RecvOutcome::Line("next".to_string())
        );
        drop(peer);
        assert_eq!(poll_until_ready(&mut client).unwrap(), RecvOutcome::Closed);
    }

    #[test]
    fn tcp_zero_deadline_restores_blocking_mode_on_every_path() {
        let (mut client, peer) = tcp_pair();
        let (go_tx, go_rx) = channel::<&'static [u8]>();
        let mut writer = peer.try_clone().unwrap();
        let feeder = std::thread::spawn(move || {
            while let Ok(bytes) = go_rx.recv() {
                writer.write_all(bytes).unwrap();
            }
        });
        // The timeout path.
        assert_eq!(
            client.recv_deadline(Duration::ZERO).unwrap(),
            RecvOutcome::TimedOut
        );
        // The error path: a frame that is not UTF-8.
        go_tx.send(b"\xff\n").unwrap();
        assert!(matches!(
            poll_until_ready(&mut client),
            Err(TransportError::Io(_))
        ));
        // A blocking receive issued before the peer writes must wait for
        // the line rather than fail with `WouldBlock`.
        go_tx.send(b"after\n").unwrap();
        assert_eq!(client.recv().unwrap().as_deref(), Some("after"));
        // Writes share the file description: a send far larger than the
        // socket buffers must block until the peer drains it, not fail
        // half-written.
        let drain = std::thread::spawn(move || {
            let mut line = String::new();
            BufReader::new(peer).read_line(&mut line).unwrap();
            line.len()
        });
        let big = "x".repeat(8 << 20);
        client.send(&big).unwrap();
        assert_eq!(drain.join().unwrap(), big.len() + 1);
        drop(go_tx);
        feeder.join().unwrap();
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let line = t.recv().unwrap().unwrap();
            t.send(&format!("echo:{line}")).unwrap();
            // Returning drops the stream: the client sees a clean close.
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.send("hello").unwrap();
        assert_eq!(client.recv().unwrap().as_deref(), Some("echo:hello"));
        assert_eq!(client.recv().unwrap(), None);
        server.join().unwrap();
    }
}
