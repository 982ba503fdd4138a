//! The campaign server: an event-driven coordinator multiplexing many
//! concurrent campaigns from many client sessions over one shared
//! shard fleet.
//!
//! The server is a single readiness loop over the [`Transport`] seam —
//! epoll-style without external deps. Each sweep it (1) accepts any
//! waiting TCP client, (2) polls every session for at most one request
//! through [`Transport::recv_deadline`] — a zero-wait poll while
//! campaign work is runnable, a short bounded wait when idle — (3)
//! advances the [`ControlPlane`] a few scheduling quanta (fair-share
//! dispatch of the least-served campaign), and (4) fans completed
//! rounds and terminal results out to the sessions streaming them.
//! One slow or silent client can no longer monopolize the fleet: its
//! session just stays quiet while other campaigns' quanta keep flowing.
//!
//! Sessions speak the lifecycle API ([`Request::Create`] / `Status` /
//! `Stream` / `Pause` / `Resume` / `Cancel`) with tagged per-campaign
//! events. Campaigns are server-owned: one session can create a
//! campaign and another stream it, and a session that goes away leaves
//! its campaigns running. Session-level incidents that the old blocking
//! server silently swallowed — handshake failures, transport errors,
//! undecodable requests — are recorded in the server's [`EventLog`].
//!
//! All statistical machinery stays in `uavca_validation`; the control
//! plane advances campaigns exclusively through their checkpointable
//! steppers, so everything the server streams is byte-identical to an
//! uninterrupted in-process run.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use uavca_validation::EncounterRunner;

use crate::control::{
    CampaignId, CampaignNotice, CampaignState, ControlEvent, ControlPlane, EventLog,
};
use crate::protocol::{decode, Event, Request};
use crate::transport::{send_msg, RecvOutcome, TcpTransport, Transport};
use crate::{ServeError, ShardedBackend, TransportError};

/// Bounded wait per session poll when the plane is idle. While campaign
/// work is runnable, sessions are polled with a zero deadline instead:
/// any wait there idles the whole shard fleet, and a nominal 1 ms
/// socket timeout really waits several milliseconds.
const POLL_IDLE: Duration = Duration::from_millis(10);

/// Control-plane quanta dispatched per sweep: few enough that a new
/// request waits at most this many quanta, and the fixed bound behind
/// the race guarantee that one request per session per sweep gives
/// (a `Create` queued with a `Pause` lands it mid-flight).
const TICKS_PER_SWEEP: usize = 16;

/// How a client session ended — the signal [`CampaignServer::serve_tcp`]
/// uses to decide between accepting the next client and shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client disconnected; the server should keep serving.
    ClientClosed,
    /// The client requested shutdown; the server acknowledged it.
    ShutdownRequested,
}

/// One client connection: its transport plus the campaigns it streams.
struct Session<'a> {
    sid: u64,
    transport: Box<dyn Transport + 'a>,
    /// Campaigns streamed with tagged lifecycle events.
    subs: Vec<CampaignId>,
    /// Set once the session is over; reaped by the loop.
    end: Option<Result<SessionEnd, ServeError>>,
}

impl<'a> Session<'a> {
    fn new(sid: u64, transport: Box<dyn Transport + 'a>) -> Self {
        Session {
            sid,
            transport,
            subs: Vec::new(),
            end: None,
        }
    }
}

/// A campaign service over one shard fleet.
///
/// Cheap to share: the runner is `Arc`-backed internally and the backend
/// is wrapped here, so TCP accept loops and in-process servers can hold
/// clones. The [`EventLog`] is shared across clones too, so a test or
/// operator holding the server can read incidents recorded by the
/// serving thread.
#[derive(Debug, Clone)]
pub struct CampaignServer {
    runner: EncounterRunner,
    backend: Arc<ShardedBackend>,
    log: EventLog,
    max_restarts: usize,
}

impl CampaignServer {
    /// A server executing on `backend` with scenarios generated by
    /// `runner`'s configuration.
    pub fn new(runner: EncounterRunner, backend: ShardedBackend) -> Self {
        Self {
            runner,
            backend: Arc::new(backend),
            log: EventLog::new(),
            max_restarts: 3,
        }
    }

    /// Overrides the supervisor restart budget for campaigns (default
    /// 3).
    pub fn with_max_restarts(mut self, max_restarts: usize) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// The shard fleet this server executes on (usage counters, fault
    /// log).
    pub fn backend(&self) -> &ShardedBackend {
        &self.backend
    }

    /// The control-plane event log: session incidents, campaign
    /// lifecycle transitions, supervisor restarts.
    pub fn log(&self) -> EventLog {
        self.log.clone()
    }

    /// Serves one client session until it disconnects or requests
    /// shutdown.
    ///
    /// Internally this runs the same multiplexed loop as
    /// [`CampaignServer::serve_sessions`] with a single session, so the
    /// full lifecycle API is available over one connection.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on transport failure or undecodable
    /// requests. Campaign-config rejections and execution failures are
    /// *not* errors of the session: they are reported to the client as
    /// [`Event::Error`] / [`Event::CampaignFailed`] and the session
    /// continues.
    pub fn serve(&self, transport: &mut dyn Transport) -> Result<SessionEnd, ServeError> {
        let session = Session::new(0, Box::new(transport) as Box<dyn Transport + '_>);
        let mut ends = self.run_loop(vec![session], None)?;
        #[expect(
            clippy::expect_used,
            reason = "run_loop records one end per session before returning"
        )]
        ends.pop()
            .expect("the single session records an end before the loop returns")
    }

    /// Serves several client sessions concurrently over one shared
    /// fleet, until every session has ended or one requests shutdown.
    ///
    /// Per-session failures do not end the loop — they are recorded in
    /// the [`EventLog`] and the remaining sessions keep going.
    ///
    /// # Errors
    ///
    /// Infallible today (per-session errors are logged, not returned);
    /// the `Result` reserves the right to surface loop-fatal failures.
    pub fn serve_sessions(
        &self,
        transports: Vec<Box<dyn Transport + '_>>,
    ) -> Result<(), ServeError> {
        let sessions = transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| Session::new(i as u64, t))
            .collect();
        self.run_loop(sessions, None)?;
        Ok(())
    }

    /// Accepts clients on `listener` and serves them all concurrently
    /// until one requests shutdown. Handshake failures and session
    /// errors are recorded in the [`EventLog`]; the loop keeps serving.
    ///
    /// # Errors
    ///
    /// Returns accept failures as [`ServeError`].
    pub fn serve_tcp(&self, listener: TcpListener) -> Result<(), ServeError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Transport(TransportError::Io(e.to_string())))?;
        self.run_loop(Vec::new(), Some(&listener))?;
        Ok(())
    }

    /// The readiness loop: accept, poll, dispatch, fan out — until all
    /// sessions end (no listener) or a client requests shutdown.
    fn run_loop<'a>(
        &self,
        mut sessions: Vec<Session<'a>>,
        listener: Option<&TcpListener>,
    ) -> Result<Vec<Result<SessionEnd, ServeError>>, ServeError> {
        let mut plane = ControlPlane::new(self.runner.clone(), self.backend.clone())
            .with_log(self.log.clone())
            .with_max_restarts(self.max_restarts);
        for s in &sessions {
            self.log
                .record(ControlEvent::SessionOpened { session: s.sid });
        }
        let mut next_sid = sessions.len() as u64;
        let mut ends = Vec::new();
        let mut shutdown = false;
        loop {
            if let Some(listener) = listener {
                self.accept_clients(listener, &mut sessions, &mut next_sid)?;
            }
            let timeout = if plane.has_runnable() {
                Duration::ZERO
            } else {
                POLL_IDLE
            };
            for i in 0..sessions.len() {
                if sessions[i].end.is_some() {
                    continue;
                }
                match sessions[i].transport.recv_deadline(timeout) {
                    Ok(RecvOutcome::TimedOut) => {}
                    Ok(RecvOutcome::Line(line)) => {
                        shutdown |= self.handle_line(&mut plane, &mut sessions, i, &line);
                    }
                    Ok(RecvOutcome::Closed) => self.close_session(&mut sessions[i]),
                    Err(e) => self.fail_session(&mut sessions[i], ServeError::Transport(e)),
                }
                if shutdown {
                    break;
                }
            }
            if !shutdown {
                for _ in 0..TICKS_PER_SWEEP {
                    if !plane.has_runnable() {
                        break;
                    }
                    let notices = plane.tick();
                    self.fan_out(&mut sessions, &notices);
                }
            }
            // Reap ended sessions (their results, in end order).
            let mut i = 0;
            while i < sessions.len() {
                if let Some(end) = sessions[i].end.take() {
                    ends.push(end);
                    sessions.remove(i);
                } else {
                    i += 1;
                }
            }
            if shutdown || (listener.is_none() && sessions.is_empty()) {
                return Ok(ends);
            }
            if sessions.is_empty() && !plane.has_runnable() {
                // Listener-only idle: don't spin on the nonblocking accept.
                std::thread::sleep(POLL_IDLE);
            }
        }
    }

    /// Drains every waiting TCP client into a new session.
    fn accept_clients<'a>(
        &self,
        listener: &TcpListener,
        sessions: &mut Vec<Session<'a>>,
        next_sid: &mut u64,
    ) -> Result<(), ServeError> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let handshake = stream
                        .set_nonblocking(false)
                        .map_err(|e| TransportError::Io(e.to_string()))
                        .and_then(|()| {
                            TcpTransport::from_stream(stream)
                                .map_err(|e| TransportError::Io(e.to_string()))
                        });
                    match handshake {
                        Ok(transport) => {
                            let sid = *next_sid;
                            *next_sid += 1;
                            self.log
                                .record(ControlEvent::SessionOpened { session: sid });
                            sessions.push(Session::new(sid, Box::new(transport)));
                        }
                        Err(e) => self.log.record(ControlEvent::HandshakeFailed {
                            error: e.to_string(),
                        }),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => {
                    return Err(ServeError::Transport(TransportError::Io(e.to_string())));
                }
            }
        }
    }

    /// Handles one decoded-or-not request line from session `i`.
    /// Returns `true` when the request was a shutdown.
    fn handle_line(
        &self,
        plane: &mut ControlPlane,
        sessions: &mut [Session<'_>],
        i: usize,
        line: &str,
    ) -> bool {
        let request = match decode::<Request>(line) {
            Ok(request) => request,
            Err(e) => {
                // An undecodable request is a protocol breach: surface
                // it in the log and end the session with the typed
                // error, exactly as the blocking server did.
                self.fail_session(&mut sessions[i], e);
                return false;
            }
        };
        match request {
            Request::Create { spec, checkpoint } => {
                let event = match plane.create(*spec, checkpoint.as_ref(), true) {
                    Ok(id) => Event::CampaignCreated { id },
                    Err(message) => Event::Error { message },
                };
                self.send_or_fail(&mut sessions[i], &event);
            }
            Request::Status { id } => {
                let event = match plane.status(id) {
                    Some(status) => Event::CampaignStatus { status },
                    None => Event::Error {
                        message: format!("unknown {id}"),
                    },
                };
                self.send_or_fail(&mut sessions[i], &event);
            }
            Request::Stream { id } => self.handle_stream(plane, &mut sessions[i], id),
            Request::Pause { id } => {
                let event = match plane.pause(id) {
                    Ok(()) => Event::CampaignPaused { id },
                    Err(message) => Event::Error { message },
                };
                self.send_or_fail(&mut sessions[i], &event);
            }
            Request::Resume { id } => {
                let event = match plane.resume(id) {
                    Ok(()) => Event::CampaignResumed { id },
                    Err(message) => Event::Error { message },
                };
                self.send_or_fail(&mut sessions[i], &event);
            }
            Request::Cancel { id } => {
                match plane.cancel(id) {
                    Ok(checkpoint) => {
                        let event = Event::CampaignCancelled { id, checkpoint };
                        self.send_or_fail(&mut sessions[i], &event);
                        // Every *other* session attached to the campaign
                        // learns its stream is over.
                        for (j, session) in sessions.iter_mut().enumerate() {
                            if j == i {
                                continue;
                            }
                            if let Some(at) = session.subs.iter().position(|s| *s == id) {
                                session.subs.remove(at);
                                self.send_or_fail(session, &event);
                            }
                        }
                    }
                    Err(message) => {
                        self.send_or_fail(&mut sessions[i], &Event::Error { message });
                    }
                }
            }
            Request::Shutdown => {
                self.send_or_fail(&mut sessions[i], &Event::ShutdownAck);
                if sessions[i].end.is_none() {
                    sessions[i].end = Some(Ok(SessionEnd::ShutdownRequested));
                }
                return true;
            }
        }
        false
    }

    /// Subscribes a session to a campaign's rounds: replay everything
    /// completed so far, then either close with the terminal event or
    /// keep streaming.
    fn handle_stream(&self, plane: &ControlPlane, session: &mut Session<'_>, id: CampaignId) {
        let Some(status) = plane.status(id) else {
            let event = Event::Error {
                message: format!("unknown {id}"),
            };
            self.send_or_fail(session, &event);
            return;
        };
        for round in plane.rounds(id).unwrap_or_default() {
            self.send_or_fail(session, &Event::CampaignRound { id, round });
            if session.end.is_some() {
                return;
            }
        }
        match status.state {
            CampaignState::Finished => {
                #[expect(
                    clippy::expect_used,
                    reason = "the Finished state implies a stored result"
                )]
                let result = plane
                    .result(id)
                    .expect("a finished campaign has a result")
                    .clone();
                self.send_or_fail(session, &Event::CampaignFinished { id, result });
            }
            CampaignState::Cancelled => {
                let event = Event::CampaignCancelled {
                    id,
                    checkpoint: status.checkpoint,
                };
                self.send_or_fail(session, &event);
            }
            CampaignState::Failed if !plane.restart_pending(id) => {
                let message = status
                    .last_error
                    .unwrap_or_else(|| String::from("campaign failed"));
                self.send_or_fail(session, &Event::CampaignFailed { id, message });
            }
            // Running, paused, or failed-pending-restart: stream on.
            _ => {
                if !session.subs.contains(&id) {
                    session.subs.push(id);
                }
            }
        }
    }

    /// Delivers control-plane notices to the sessions streaming each
    /// campaign.
    fn fan_out(&self, sessions: &mut [Session<'_>], notices: &[CampaignNotice]) {
        for notice in notices {
            let (id, event) = match notice {
                CampaignNotice::Round { id, round } => (
                    id,
                    Event::CampaignRound {
                        id: *id,
                        round: round.clone(),
                    },
                ),
                CampaignNotice::Finished { id, result } => (
                    id,
                    Event::CampaignFinished {
                        id: *id,
                        result: result.clone(),
                    },
                ),
                CampaignNotice::Failed { id, error } => (
                    id,
                    Event::CampaignFailed {
                        id: *id,
                        message: error.clone(),
                    },
                ),
                CampaignNotice::Restarted { .. } => continue,
            };
            for session in sessions.iter_mut().filter(|s| s.subs.contains(id)) {
                self.send_or_fail(session, &event);
            }
        }
    }

    /// Sends `event`, failing the session on transport error.
    fn send_or_fail(&self, session: &mut Session<'_>, event: &Event) {
        if session.end.is_some() {
            return;
        }
        if let Err(e) = send_msg(session.transport.as_mut(), event) {
            self.fail_session(session, ServeError::Transport(e));
        }
    }

    /// The client went away cleanly; the campaigns it created or
    /// streamed keep running, server-owned.
    fn close_session(&self, session: &mut Session<'_>) {
        self.log.record(ControlEvent::SessionClosed {
            session: session.sid,
        });
        session.end = Some(Ok(SessionEnd::ClientClosed));
    }

    /// Ends a session with `error`, recorded in the event log. Its
    /// campaigns keep running — they are server-owned and another
    /// session may stream them.
    fn fail_session(&self, session: &mut Session<'_>, error: ServeError) {
        if session.end.is_some() {
            return;
        }
        self.log.record(ControlEvent::SessionError {
            session: session.sid,
            error: error.to_string(),
        });
        session.end = Some(Err(error));
    }
}
