//! The campaign client: drives a [`CampaignServer`]'s campaign
//! lifecycle API over any transport.

use std::collections::VecDeque;
use std::sync::Mutex;

use uavca_validation::EncounterRunner;

use crate::control::{
    CampaignId, CampaignResult, CampaignSpec, CampaignStatus, Checkpoint, RoundEvent,
};
use crate::protocol::{Event, Request};
use crate::transport::{recv_msg, send_msg, TcpTransport, Transport};
use crate::{channel_pair, CampaignServer, ServeError, SessionEnd, ShardedBackend};

/// A connection to a [`CampaignServer`].
///
/// Interior-mutable (the transport sits behind a mutex) so every method
/// takes `&self`; requests are serialized per connection either way.
///
/// A session subscribed to campaign streams can receive stream events
/// interleaved with request replies (the server pushes rounds as they
/// complete); the client buffers out-of-turn stream events so every
/// request method stays a clean call-and-reply.
pub struct CampaignClient {
    transport: Mutex<Box<dyn Transport>>,
    pending: Mutex<VecDeque<Event>>,
}

impl std::fmt::Debug for CampaignClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignClient").finish_non_exhaustive()
    }
}

impl CampaignClient {
    /// A client over an already-connected transport.
    pub fn new(transport: impl Transport + 'static) -> Self {
        Self {
            transport: Mutex::new(Box::new(transport)),
            pending: Mutex::new(VecDeque::new()),
        }
    }

    /// Connects to a TCP server (one serving
    /// [`CampaignServer::serve_tcp`]).
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect_tcp<A: std::net::ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Ok(Self::new(TcpTransport::connect(addr)?))
    }

    /// Creates a campaign on the server's control plane, optionally
    /// resuming from a checkpoint, and returns its id.
    ///
    /// The campaign runs server-side whether or not anyone streams it;
    /// follow with [`CampaignClient::stream_campaign`],
    /// [`CampaignClient::campaign_status`] and friends.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Server`] when the server rejects the spec
    /// or checkpoint, and transport/protocol failures otherwise.
    pub fn create_campaign(
        &self,
        spec: &CampaignSpec,
        checkpoint: Option<&Checkpoint>,
    ) -> Result<CampaignId, ServeError> {
        self.request_reply(
            &Request::Create {
                spec: Box::new(spec.clone()),
                checkpoint: checkpoint.cloned(),
            },
            |event| match event {
                Event::CampaignCreated { id } => Ok(id),
                other => Err(Box::new(other)),
            },
        )
    }

    /// Asks for a campaign's current status (state, progress, restart
    /// count, and its exact resume checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Server`] for unknown campaigns, and
    /// transport/protocol failures otherwise.
    pub fn campaign_status(&self, id: CampaignId) -> Result<CampaignStatus, ServeError> {
        self.request_reply(&Request::Status { id }, |event| match event {
            Event::CampaignStatus { status } if status.id == id => Ok(status),
            other => Err(Box::new(other)),
        })
    }

    /// Holds a running campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Server`] when the campaign is unknown or
    /// not running, and transport/protocol failures otherwise.
    pub fn pause_campaign(&self, id: CampaignId) -> Result<(), ServeError> {
        self.request_reply(&Request::Pause { id }, |event| match event {
            Event::CampaignPaused { id: got } if got == id => Ok(()),
            other => Err(Box::new(other)),
        })
    }

    /// Releases a paused campaign (or manually revives a failed one).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Server`] when the campaign is unknown or
    /// not resumable, and transport/protocol failures otherwise.
    pub fn resume_campaign(&self, id: CampaignId) -> Result<(), ServeError> {
        self.request_reply(&Request::Resume { id }, |event| match event {
            Event::CampaignResumed { id: got } if got == id => Ok(()),
            other => Err(Box::new(other)),
        })
    }

    /// Cancels a campaign, returning the exact checkpoint a later
    /// [`CampaignClient::create_campaign`] can resume from.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Server`] when the campaign is unknown or
    /// already terminal, and transport/protocol failures otherwise.
    pub fn cancel_campaign(&self, id: CampaignId) -> Result<Checkpoint, ServeError> {
        self.request_reply(&Request::Cancel { id }, |event| match event {
            Event::CampaignCancelled {
                id: got,
                checkpoint,
            } if got == id => Ok(checkpoint),
            other => Err(Box::new(other)),
        })
    }

    /// Subscribes to a campaign: the server replays every completed
    /// round, then streams new ones into `on_round` until the campaign
    /// reaches a terminal state.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Server`] when the campaign is unknown,
    /// failed, or cancelled (the failure message carries the typed
    /// fault detail), and transport/protocol failures otherwise.
    pub fn stream_campaign(
        &self,
        id: CampaignId,
        mut on_round: impl FnMut(&RoundEvent),
    ) -> Result<CampaignResult, ServeError> {
        // audit: allow(panic_policy, transport lock poisoning propagates a prior panic)
        let mut transport = self.transport.lock().expect("client transport lock");
        // The subscription replays the campaign's full round trail, so
        // any stream events buffered from a prior subscription to the
        // same campaign are superseded.
        self.pending
            .lock()
            // audit: allow(panic_policy, event buffer lock poisoning propagates a prior panic)
            .expect("client event buffer lock")
            .retain(|e| Self::stream_campaign_id(e) != Some(id));
        send_msg(&mut **transport, &Request::Stream { id })?;
        loop {
            match Self::expect_event(&mut **transport)? {
                Event::CampaignRound { id: got, round } if got == id => on_round(&round),
                Event::CampaignFinished { id: got, result } if got == id => return Ok(result),
                Event::CampaignFailed { id: got, message } if got == id => {
                    return Err(ServeError::Server(message));
                }
                Event::CampaignCancelled { id: got, .. } if got == id => {
                    return Err(ServeError::Server(format!("{got} was cancelled")));
                }
                other if Self::is_stream_event(&other) => self.buffer(other),
                other => return Err(Self::fail(other)),
            }
        }
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Returns transport/protocol failures; the server may already be
    /// gone by the time the acknowledgement would arrive.
    pub fn shutdown(self) -> Result<(), ServeError> {
        // audit: allow(panic_policy, transport lock poisoning propagates a prior panic)
        let mut transport = self.transport.lock().expect("client transport lock");
        send_msg(&mut **transport, &Request::Shutdown)?;
        loop {
            match Self::expect_event(&mut **transport)? {
                Event::ShutdownAck => return Ok(()),
                other if Self::is_stream_event(&other) => {} // shutting down anyway
                other => return Err(Self::fail(other)),
            }
        }
    }

    /// One request, one matched reply; out-of-turn stream events are
    /// buffered instead of failing the exchange. Unmatched events come
    /// back boxed so the closures' `Err` variant stays pointer-sized.
    fn request_reply<R>(
        &self,
        request: &Request,
        mut matcher: impl FnMut(Event) -> Result<R, Box<Event>>,
    ) -> Result<R, ServeError> {
        // audit: allow(panic_policy, transport lock poisoning propagates a prior panic)
        let mut transport = self.transport.lock().expect("client transport lock");
        send_msg(&mut **transport, request)?;
        loop {
            let event = Self::expect_event(&mut **transport)?;
            match matcher(event) {
                Ok(reply) => return Ok(reply),
                Err(other) if Self::is_stream_event(&other) => self.buffer(*other),
                Err(other) => return Err(Self::fail(*other)),
            }
        }
    }

    /// Whether an event can arrive unsolicited on a subscribed session.
    fn is_stream_event(event: &Event) -> bool {
        Self::stream_campaign_id(event).is_some()
    }

    /// The campaign a pushed stream event belongs to, if it is one.
    fn stream_campaign_id(event: &Event) -> Option<CampaignId> {
        match event {
            Event::CampaignRound { id, .. }
            | Event::CampaignFinished { id, .. }
            | Event::CampaignFailed { id, .. }
            | Event::CampaignCancelled { id, .. } => Some(*id),
            _ => None,
        }
    }

    fn buffer(&self, event: Event) {
        self.pending
            .lock()
            // audit: allow(panic_policy, event buffer lock poisoning propagates a prior panic)
            .expect("client event buffer lock")
            .push_back(event);
    }

    fn expect_event(transport: &mut dyn Transport) -> Result<Event, ServeError> {
        recv_msg::<Event>(transport)?.ok_or(ServeError::ConnectionClosed)
    }

    fn fail(event: Event) -> ServeError {
        match event {
            Event::Error { message } => ServeError::Server(message),
            other => ServeError::Unexpected(format!("{other:?}")),
        }
    }
}

/// A handle on an in-process server thread; join it after the client's
/// [`CampaignClient::shutdown`] to observe the session's end state.
#[derive(Debug)]
pub struct InProcessServer {
    handle: std::thread::JoinHandle<Result<SessionEnd, ServeError>>,
}

impl InProcessServer {
    /// Waits for the server thread to finish its session.
    ///
    /// # Errors
    ///
    /// Propagates the session's [`ServeError`], if any.
    ///
    /// # Panics
    ///
    /// Panics if the server thread itself panicked.
    pub fn join(self) -> Result<SessionEnd, ServeError> {
        // audit: allow(panic_policy, join re-raises the server thread panic as documented)
        self.handle.join().expect("campaign server thread panicked")
    }
}

/// Spawns a complete in-process service — `shards` local shard workers
/// with `threads_per_shard` executor threads each, a [`CampaignServer`]
/// thread over a channel transport — and returns the connected client.
///
/// The whole stack (protocol, framing, sharded merge) runs exactly as it
/// would across machines; only the transports are channels. This is the
/// deployment the determinism matrix and the example exercise.
pub fn spawn_in_process(
    runner: EncounterRunner,
    shards: usize,
    threads_per_shard: usize,
) -> (CampaignClient, InProcessServer) {
    let backend = ShardedBackend::spawn_local(runner.clone(), shards, threads_per_shard);
    let server = CampaignServer::new(runner, backend);
    let (client_end, mut server_end) = channel_pair();
    let handle = std::thread::Builder::new()
        .name("uavca-campaign-server".to_string())
        .spawn(move || server.serve(&mut server_end))
        // audit: allow(panic_policy, thread spawn fails only on OS resource exhaustion)
        .expect("spawning the campaign server thread");
    (CampaignClient::new(client_end), InProcessServer { handle })
}
