//! Real multi-process federation over sockets: the listener, the server's
//! transport and the client's end of the link.
//!
//! This module promotes the [`Transport`] abstraction from in-memory
//! delivery to an actual wire: [`super::frame`]'s length-prefixed frames
//! over TCP or Unix-domain sockets, speaking the *same* little-endian `f32`
//! codec as the in-memory transports ([`rfl_tensor::encode_f32_into`]), so a
//! payload's bytes on the wire are exactly the bytes the simulation meters.
//!
//! Two ends:
//!
//! * **[`SocketTransport`]** — the server. Implements [`Transport`] for
//!   downloads (frames queued on each client's connection, one
//!   [`ConnShared`] that the event-driven reactor in [`super::reactor`]
//!   flushes and fills: one `epoll(7)` thread owns the listener and every
//!   non-blocking socket, so connections scale without threads); its own
//!   methods carry the client-originated half (training orders, reports,
//!   uploads) that the in-memory simulation fakes locally, each reply
//!   claimed by one blocking call. [`crate::plane`]'s socket back-end is
//!   built on it, so `Trainer::run` drives real client processes unchanged.
//!   Broadcasts encode once into a shared `Arc<[u8]>` frame; fan-out costs
//!   refcount bumps, not payload copies.
//! * **[`ClientConn`]** — the client: connect (with bounded backoff),
//!   register via `Hello`/`Welcome`, then send and read frames for the
//!   client loop ([`crate::plane::run_client_loop`]). A connection holds no
//!   payload buffer (see [`ClientConn`]).
//!
//! Both ends encode with the one frame encoder and decode with the one
//! frame decoder, so a dense payload's values land straight in the vector a
//! claim or a read returns, and a dense body is exactly its count and
//! values at both; anything else does not decode.
//!
//! Determinism contract: a loopback run of the canonical round loop
//! reproduces the [`PerfectTransport`] loss bit-exactly — the wire moves
//! raw little-endian `f32` bits through the same codec, every numeric
//! operation stays on exactly one side of the wire, and per-client frame
//! streams are consumed in the deterministic order the round loop fixes.
//!
//! [`PerfectTransport`]: super::transport::PerfectTransport

use super::frame::{Body, Decoder, Payload, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
use super::message::{
    BroadcastDelivery, ControlMsg, Delivery, DropReason, FaultStats, LinkOutcome, MsgKind,
    PROTO_MAGIC, PROTO_VERSION,
};
use super::reactor::{ConnShared, ReactorCounters, ServerShared};
use super::session::{Deadline, RecvError};
use super::stats::{CommStats, Direction};
use super::transport::{RemoteTransport, Transport};
use crate::client::LocalReport;
use crate::compress::CompressedVec;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Ceiling on one reconnect-backoff delay (see
/// [`ClientConn::connect_with_backoff`]).
pub(crate) const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// The wait before reconnect attempt `attempt` (1-based: the first retry):
/// `base_delay · 2^(attempt−1)`, capped at [`BACKOFF_CAP`].
fn backoff_delay(base_delay: Duration, attempt: u32) -> Duration {
    base_delay
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(BACKOFF_CAP)
}

/// A connectable/listenable address: `tcp://host:port` or `unix:/path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, `host:port` (port 0 binds an ephemeral port).
    Tcp(String),
    /// Unix-domain socket path.
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Parses `tcp://host:port`, `unix:/path`, or `unix:///path`.
    pub fn parse(s: &str) -> io::Result<Endpoint> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = s
            .strip_prefix("unix://")
            .or_else(|| s.strip_prefix("unix:"))
        {
            return Ok(Endpoint::Unix(std::path::PathBuf::from(path)));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("endpoint {s:?} is neither tcp://host:port nor unix:/path"),
        ))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// The stream capabilities the framing layer needs, factored over
/// `TcpStream`/`UnixStream`.
pub(crate) trait WireStream: Read + Write + Send + Sync {
    fn try_clone_stream(&self) -> io::Result<Box<dyn WireStream>>;
    /// Force-closes both halves (unblocks a blocked reader).
    fn shutdown_now(&self);
    /// The underlying descriptor, for the reactor's `epoll_ctl`, `read`
    /// and `writev` calls. The stream object retains ownership; the fd is
    /// only valid while it lives.
    fn raw_fd(&self) -> RawFd;
}

/// Implements [`WireStream`] for std stream types, whose `try_clone` and
/// `shutdown` are inherent methods of the same names.
macro_rules! wire_stream {
    ($($stream:ty),*) => {$(
        impl WireStream for $stream {
            fn try_clone_stream(&self) -> io::Result<Box<dyn WireStream>> {
                Ok(Box::new(self.try_clone()?))
            }

            fn shutdown_now(&self) {
                let _ = self.shutdown(std::net::Shutdown::Both);
            }

            fn raw_fd(&self) -> RawFd {
                self.as_raw_fd()
            }
        }
    )*};
}

wire_stream!(TcpStream, UnixStream);

pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, std::path::PathBuf),
}

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<(Listener, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let actual = Endpoint::Tcp(l.local_addr()?.to_string());
                l.set_nonblocking(true)?;
                Ok((Listener::Tcp(l), actual))
            }
            Endpoint::Unix(path) => {
                // A stale socket file from a dead server would fail the
                // bind; replacing it is the conventional daemon behavior.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok((Listener::Unix(l, path.clone()), endpoint.clone()))
            }
        }
    }

    /// Non-blocking accept. Accepted streams stay non-blocking — they are
    /// handed straight to the reactor's `epoll` set.
    pub(crate) fn try_accept(&self) -> io::Result<Option<Box<dyn WireStream>>> {
        let accepted = match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(true)?;
                s.set_nodelay(true)?;
                Ok(Box::new(s) as Box<dyn WireStream>)
            }),
            Listener::Unix(l, _) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(true)?;
                Ok(Box::new(s) as Box<dyn WireStream>)
            }),
        };
        match accepted {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The listening descriptor, for the reactor's `epoll` set.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The socket-backed server transport (TCP or Unix-domain).
///
/// Downloads implement [`Transport`] by writing real frames; the
/// client-originated half (uploads, reports) arrives through the blocking
/// claims that [`crate::Federation::remote`]'s socket plane makes in place
/// of the simulation's local loopback. Delivery outcomes map
/// onto the same [`Delivery`]/[`LinkOutcome`] vocabulary as the in-memory
/// backends: an ended connection is a [`DropReason::Loss`], a receive that
/// outwaits [`SocketTransport::set_recv_timeout`] is a
/// [`DropReason::Deadline`], and reconnects count as retries.
pub struct SocketTransport {
    shared: Arc<ServerShared>,
    /// The event loop's thread; joined by the first shutdown.
    net_thread: Option<std::thread::JoinHandle<()>>,
    local: Endpoint,
    stats: CommStats,
    dropped: u64,
    deadline_drops: u64,
    timeout: Duration,
    /// A control message's body, encoded here before it is framed.
    body: Vec<u8>,
}

impl SocketTransport {
    /// Binds `endpoint` and starts the reactor thread that accepts
    /// registrations. `welcome` must be the [`ControlMsg::Welcome`] run
    /// configuration; its `num_clients` and `seed` validate incoming
    /// `Hello`s; any other message is an `InvalidInput` error. Fails when
    /// the endpoint cannot be bound or the kernel refuses the reactor its
    /// self-pipe, `epoll` instance or thread.
    pub fn bind(endpoint: &Endpoint, welcome: &ControlMsg) -> io::Result<SocketTransport> {
        let ControlMsg::Welcome {
            num_clients, seed, ..
        } = *welcome
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "SocketTransport::bind needs a Welcome, got {}",
                    welcome.name()
                ),
            ));
        };
        let (listener, local) = Listener::bind(endpoint)?;
        let mut welcome_body = Vec::new();
        welcome.encode_body(&mut welcome_body);
        let welcome_frame = Payload::Bytes(&welcome_body).encode(welcome.tag());
        let (shared, net_thread) =
            ServerShared::start(listener, num_clients as usize, seed, welcome_frame)?;
        Ok(SocketTransport {
            shared,
            net_thread: Some(net_thread),
            local,
            stats: CommStats::new(),
            dropped: 0,
            deadline_drops: 0,
            timeout: DEFAULT_RECV_TIMEOUT,
            body: Vec::new(),
        })
    }

    /// The actually bound endpoint (resolves an ephemeral TCP port 0).
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    /// Bounds every blocking receive; a client that stays silent longer is
    /// dropped from the round as a [`DropReason::Deadline`]. Defaults to
    /// 120 s; a timeout past what the clock can represent waits forever.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Blocks until all expected clients hold a live registered connection,
    /// or `timeout` passes. The reactor signals only a handshake that leaves
    /// the table full, and only a full table is asked which of its
    /// connections are live, so registering `n` clients costs one wakeup
    /// and one pass here, not `n` of each.
    pub fn wait_for_clients(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Deadline::after(timeout);
        let mut sessions = self.shared.sessions.lock().expect("sessions poisoned");
        loop {
            if sessions.is_full() && sessions.live() == self.shared.n_clients {
                return Ok(());
            }
            if deadline.passed() {
                let live = sessions.live();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{live}/{} clients registered", self.shared.n_clients),
                ));
            }
            let registered = deadline.wait(&self.shared.registration, sessions);
            sessions = registered.expect("sessions poisoned");
        }
    }

    /// Number of currently live registered connections.
    pub fn live_clients(&self) -> usize {
        (self.shared.sessions.lock().expect("sessions poisoned")).live()
    }

    /// What the reactor has done since `bind`: a snapshot, final once
    /// [`RemoteTransport::shutdown`] has returned.
    pub fn reactor_counters(&self) -> ReactorCounters {
        self.shared.counters()
    }

    fn conn(&self, client: usize) -> Option<Arc<ConnShared>> {
        let sessions = self.shared.sessions.lock().expect("sessions poisoned");
        sessions.slots.get(client).and_then(|s| s.clone())
    }

    /// Folds handshake traffic metered by the reactor into the
    /// ledger (the pair-wise accounting itself lives in
    /// [`CommStats::fold_handshakes`]).
    fn fold_pending(&mut self) {
        let up = self.shared.pending_up.swap(0, Ordering::Relaxed);
        let down = self.shared.pending_down.swap(0, Ordering::Relaxed);
        let msgs = self.shared.pending_msgs.swap(0, Ordering::Relaxed);
        self.stats.fold_handshakes(up, down, msgs);
    }

    /// Queues `frame` on `client`'s connection and returns its wire size.
    /// Backpressure on a wedged client's write queue is bounded by the same
    /// budget as a silent client's receive; a missing or ended connection,
    /// or one that stays wedged past it, is a counted loss.
    fn enqueue(&mut self, client: usize, frame: &Arc<[u8]>) -> Result<u64, LinkOutcome> {
        let deadline = Deadline::after(self.timeout);
        match self.conn(client).and_then(|c| c.send(frame, deadline)) {
            Some(wire) => Ok(wire),
            None => Err(LinkOutcome::lost(self.count_drop(DropReason::Loss))),
        }
    }

    fn send_control(&mut self, client: usize, msg: &ControlMsg) -> LinkOutcome {
        msg.encode_body(&mut self.body);
        let frame = Payload::Bytes(&self.body).encode(msg.tag());
        match self.enqueue(client, &frame) {
            Ok(wire) => {
                self.stats.record(msg.direction(), wire);
                LinkOutcome::perfect()
            }
            Err(lost) => lost,
        }
    }

    fn count_drop(&mut self, reason: DropReason) -> DropReason {
        self.dropped += 1;
        if reason == DropReason::Deadline {
            self.deadline_drops += 1;
        }
        reason
    }

    /// Claims `client`'s next frame tagged `tag`, blocking up to the
    /// receive timeout. A missing or ended connection is a
    /// [`DropReason::Loss`], a timeout a [`DropReason::Deadline`]; either is
    /// counted.
    fn claim(&mut self, client: usize, tag: u8) -> Result<Body, DropReason> {
        let Some(conn) = self.conn(client) else {
            return Err(self.count_drop(DropReason::Loss));
        };
        match conn.recv_frame(tag, self.timeout) {
            // The caller charges the wire bytes (plane depends on the kind).
            Ok(body) => Ok(body),
            Err(RecvError::Closed) => Err(self.count_drop(DropReason::Loss)),
            Err(RecvError::TimedOut) => {
                // A silent client is dropped from the round, exactly like
                // the in-memory deadline model; close so later phases fail
                // fast instead of re-waiting the full timeout.
                conn.close();
                Err(self.count_drop(DropReason::Deadline))
            }
        }
    }

    /// [`SocketTransport::claim`] of an upload on `kind`'s plane, decoded by
    /// `decode` and charged its true frame length; an undecodable frame is
    /// a counted loss.
    fn claim_upload<T>(
        &mut self,
        kind: MsgKind,
        client: usize,
        decode: impl FnOnce(Body) -> Option<T>,
    ) -> Result<T, DropReason> {
        assert_eq!(
            kind.direction(),
            Direction::Upload,
            "remote receives are client-originated uploads"
        );
        let body = self.claim(client, kind.tag())?;
        let wire = FRAME_HEADER_BYTES + body.wire_len() as u64;
        match decode(body) {
            Some(value) => {
                self.stats.charge(kind, wire);
                Ok(value)
            }
            None => Err(self.count_drop(DropReason::Loss)),
        }
    }

    /// Tells `client` to run `steps` local steps for `round`.
    pub fn start_training(&mut self, client: usize, round: u64, steps: usize) -> LinkOutcome {
        self.send_control(
            client,
            &ControlMsg::TrainStart {
                round,
                steps: steps as u32,
            },
        )
    }

    /// Blocks for `client`'s training report; `None` if the link died or
    /// timed out (the client sits the aggregation out). A report body that
    /// does not decode is a counted [`DropReason::Loss`], like an
    /// undecodable upload, and closes the connection, discarding whatever else
    /// it already received: the client's upload claim resolves as a loss at
    /// once, and its update is never folded.
    pub fn recv_report(&mut self, client: usize) -> Option<LocalReport> {
        let tag = ControlMsg::Report {
            loss: 0.0,
            reg_loss: 0.0,
            steps: 0,
            examples: 0,
        }
        .tag();
        let body = self.claim(client, tag).ok()?;
        let Some(Ok(ControlMsg::Report {
            loss,
            reg_loss,
            steps,
            examples,
        })) = body.bytes().map(|b| ControlMsg::decode_body(tag, b))
        else {
            if let Some(conn) = self.conn(client) {
                conn.close();
            }
            self.count_drop(DropReason::Loss);
            return None;
        };
        self.stats.record(
            Direction::Upload,
            FRAME_HEADER_BYTES + body.wire_len() as u64,
        );
        Some(LocalReport {
            loss,
            reg_loss,
            steps: steps as usize,
            examples: examples as usize,
        })
    }

    /// Tells `client` to probe its δ map with `probe_batch`-sized batches
    /// and upload it.
    pub(crate) fn request_delta(
        &mut self,
        client: usize,
        round: u64,
        probe_batch: usize,
    ) -> LinkOutcome {
        self.send_control(
            client,
            &ControlMsg::DeltaProbe {
                round,
                probe_batch: probe_batch as u32,
            },
        )
    }

    /// Blocks for `client`'s next *compressed* upload (`kind` must satisfy
    /// `MsgKind::is_compressed`) and decodes the frame into `out`. The
    /// frame body IS the `CompressedVec` wire encoding, so the charge is its
    /// true length (plus frame header), never a modelled estimate.
    pub(crate) fn recv_compressed(
        &mut self,
        kind: MsgKind,
        client: usize,
        out: &mut CompressedVec,
    ) -> LinkOutcome {
        assert!(kind.is_compressed(), "a compressed plane");
        let decode = |body: Body| {
            body.bytes()
                .is_some_and(|b| out.decode_from(b))
                .then_some(())
        };
        match self.claim_upload(kind, client, decode) {
            Ok(()) => LinkOutcome::perfect(),
            Err(reason) => LinkOutcome::lost(reason),
        }
    }

    /// Counts the compressed upload just claimed, which framed correctly
    /// but did not decode under the run's policy, as a
    /// [`DropReason::Loss`]: the round goes on without it.
    pub(crate) fn drop_undecodable(&mut self) {
        self.count_drop(DropReason::Loss);
    }
}

/// Receive timeout of a freshly bound server
/// ([`SocketTransport::set_recv_timeout`] changes it).
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

impl Transport for SocketTransport {
    fn begin_round(&mut self, _round: u64) {
        self.fold_pending();
    }

    /// The copy handed back is `payload`'s own bits: the codec copies
    /// bits, so a round trip through it would make the same vector.
    fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery {
        assert_eq!(
            kind.direction(),
            Direction::Download,
            "server-originated sends go down; uploads arrive via RemoteTransport::recv"
        );
        let frame = Payload::Dense(payload).encode(kind.tag());
        let link = match self.enqueue(client, &frame) {
            Ok(wire) => {
                self.stats.charge(kind, wire);
                LinkOutcome::perfect()
            }
            Err(lost) => lost,
        };
        Delivery::over(link, payload.to_vec())
    }

    fn broadcast(
        &mut self,
        kind: MsgKind,
        clients: &[usize],
        payload: &[f32],
    ) -> BroadcastDelivery {
        debug_assert_eq!(kind.direction(), Direction::Download, "broadcasts go down");
        // Encode once: every recipient queues the same `Arc<[u8]>` frame —
        // fan-out is N refcount bumps plus N queue pushes, never N copies
        // of an O(d) model.
        let frame = Payload::Dense(payload).encode(kind.tag());
        let mut delivered_bytes = 0u64;
        let links = (clients.iter())
            .map(|&k| match self.enqueue(k, &frame) {
                Ok(wire) => {
                    delivered_bytes += wire;
                    LinkOutcome::perfect()
                }
                Err(lost) => lost,
            })
            .collect();
        if delivered_bytes > 0 {
            self.stats.charge(kind, delivered_bytes);
        }
        BroadcastDelivery {
            data: payload.to_vec(),
            links,
        }
    }

    /// Every compressed plane is an upload, so this always refuses.
    fn send_compressed(
        &mut self,
        kind: MsgKind,
        _client: usize,
        _payload: &CompressedVec,
        _out: &mut CompressedVec,
    ) -> LinkOutcome {
        unreachable!(
            "{kind:?} is an upload; compressed uploads arrive via SocketTransport::recv_compressed"
        )
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped,
            retries: self.shared.reconnects.load(Ordering::Relaxed),
            deadline_drops: self.deadline_drops,
        }
    }
}

impl RemoteTransport for SocketTransport {
    /// The fold claims in selection order and folds each payload before
    /// claiming the next, so the server holds one decoded upload at a time.
    fn recv(&mut self, kind: MsgKind, client: usize) -> Delivery {
        Delivery::claimed(self.claim_upload(kind, client, |body| body.into_values().ok()))
    }

    fn shutdown(&mut self) {
        let conns: Vec<Arc<ConnShared>> = {
            let guard = self.shared.sessions.lock().expect("sessions poisoned");
            guard.slots.iter().flatten().cloned().collect()
        };
        let msg = ControlMsg::Shutdown;
        msg.encode_body(&mut self.body);
        let frame = Payload::Bytes(&self.body).encode(msg.tag());
        let deadline = Deadline::after(self.timeout);
        for conn in conns {
            if conn.is_live() {
                if let Some(n) = conn.send(&frame, deadline) {
                    self.stats.record(Direction::Download, n);
                }
                // Let the reactor flush the queued Shutdown before the
                // socket closes; a hard close here could drop it.
                conn.close_after_flush();
            } else {
                conn.close();
            }
        }
        // Stop *after* queueing the shutdown frames so the reactor does not
        // start its wind-down with an empty-looking queue it then ignores.
        self.shared.request_stop();
        if let Some(thread) = self.net_thread.take() {
            let _ = thread.join();
        }
        self.fold_pending();
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's framed connection to an [`SocketTransport`] server. It holds
/// no payload buffer: a payload goes out from the caller's slices in one
/// vectored write, and a dense one comes in straight into the vector
/// [`ClientConn::read_event`] returns.
pub struct ClientConn {
    stream: Box<dyn WireStream>,
    /// Encode buffer of control frames (a few dozen bytes).
    control: Vec<u8>,
    /// Between frames it holds no buffer.
    decoder: Decoder,
}

/// One frame from the server, decoded.
#[derive(Debug)]
pub enum ClientEvent {
    /// A payload frame: an `f32` vector on a [`MsgKind`] plane.
    Payload(MsgKind, Vec<f32>),
    /// A control frame.
    Control(ControlMsg),
}

/// Decodes one frame a client received: a dense payload on any [`MsgKind`]
/// plane, or a control message. Anything else — a compressed payload (the
/// server sends none down), a payload that is not exactly its count and
/// values, a malformed control body — is `InvalidData`.
fn decode_event(tag: u8, body: Body) -> io::Result<ClientEvent> {
    if let Some(kind) = MsgKind::from_tag(tag) {
        return Ok(ClientEvent::Payload(kind, body.into_values()?));
    }
    // A control tag's body is never dense, so it is bytes.
    let msg = ControlMsg::decode_body(tag, body.bytes().unwrap_or_default());
    msg.map(ClientEvent::Control)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

impl ClientConn {
    /// Connects once.
    pub fn connect(endpoint: &Endpoint) -> io::Result<ClientConn> {
        let stream: Box<dyn WireStream> = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Box::new(s)
            }
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        Ok(ClientConn {
            stream,
            control: Vec::new(),
            decoder: Decoder::new(MAX_FRAME_BYTES, true),
        })
    }

    /// Connects with bounded exponential backoff: before attempt `i`
    /// (0-based, `i > 0`) the thread sleeps `backoff_delay(base_delay, i)`,
    /// a delay doubling from `base_delay` and capped at one second
    /// (`BACKOFF_CAP`). Gives a client started before its server a
    /// registration window, and bounds how long a partitioned client spins.
    /// After `attempts` failures it returns the last connect error.
    pub fn connect_with_backoff(
        endpoint: &Endpoint,
        attempts: u32,
        base_delay: Duration,
    ) -> io::Result<ClientConn> {
        assert!(attempts >= 1, "need at least one attempt");
        let mut last = None;
        for i in 0..attempts {
            if i > 0 {
                std::thread::sleep(backoff_delay(base_delay, i));
            }
            match ClientConn::connect(endpoint) {
                Ok(conn) => return Ok(conn),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt failed"))
    }

    /// Registers with the server; returns the `Welcome` run configuration.
    pub fn hello(&mut self, client_id: u32, seed: u64) -> io::Result<ControlMsg> {
        self.send_control(&ControlMsg::Hello {
            magic: PROTO_MAGIC,
            version: PROTO_VERSION,
            client_id,
            seed,
        })?;
        // Named, not printed: a payload frame may hold a whole model.
        let got = match self.read_event()? {
            ClientEvent::Control(welcome @ ControlMsg::Welcome { .. }) => return Ok(welcome),
            ClientEvent::Control(other) => other.name().to_string(),
            ClientEvent::Payload(kind, values) => format!("{kind:?} ({} values)", values.len()),
        };
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected welcome, got {got}"),
        ))
    }

    /// Sends a control frame.
    pub(crate) fn send_control(&mut self, msg: &ControlMsg) -> io::Result<()> {
        msg.encode_body(&mut self.control);
        let frame = Payload::Bytes(&self.control).frame(msg.tag())?;
        frame.write_to(&mut self.stream)
    }

    /// Sends an `f32` payload on `kind`'s plane in the codec's encoding
    /// ([`rfl_tensor::encode_f32_into`]), from `data` itself: the frame
    /// header and count, then `data`'s bytes, in one vectored write. A
    /// payload over the frame cap is an `InvalidInput` error, and nothing is
    /// sent.
    pub fn send_payload(&mut self, kind: MsgKind, data: &[f32]) -> io::Result<()> {
        self.send(kind, Payload::Dense(data))
    }

    /// Sends `payload` on `kind`'s plane from the caller's buffers, in one
    /// vectored write.
    pub(crate) fn send(&mut self, kind: MsgKind, payload: Payload<'_>) -> io::Result<()> {
        payload.frame(kind.tag())?.write_to(&mut self.stream)
    }

    /// Blocks for the next frame: its header in one read, then its body
    /// (a dense one's count and values together) in one read per 64 KiB.
    pub fn read_event(&mut self) -> io::Result<ClientEvent> {
        let frame = self.decoder.read_from(&mut self.stream)?;
        let (tag, body) = frame.ok_or(io::ErrorKind::UnexpectedEof)?;
        decode_event(tag, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn backoff_doubles_from_the_base_and_stops_at_the_cap() {
        let ms = Duration::from_millis;
        let delays: Vec<Duration> = (1..=10).map(|i| backoff_delay(ms(5), i)).collect();
        assert_eq!(
            delays,
            [5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000].map(ms)
        );
        // Far past the cap the doubling saturates instead of overflowing,
        // and a base above the cap is cut to it.
        assert_eq!(backoff_delay(ms(5), 40), BACKOFF_CAP);
        assert_eq!(backoff_delay(Duration::from_secs(3), 1), BACKOFF_CAP);
    }

    #[test]
    fn backoff_sleeps_the_schedule_then_returns_the_connect_error() {
        let dir = std::env::temp_dir().join(format!("rfl-absent-{}", std::process::id()));
        let endpoint = Endpoint::Unix(dir.join("server.sock"));
        let Err(refused) = ClientConn::connect(&endpoint) else {
            panic!("nothing listens")
        };
        let start = Instant::now();
        let Err(err) = ClientConn::connect_with_backoff(&endpoint, 4, Duration::from_millis(5))
        else {
            panic!("nothing listens")
        };
        let waited = start.elapsed();
        assert_eq!(err.kind(), refused.kind());
        // Three retries: 5 + 10 + 20 ms of sleep before the last attempt.
        assert!(waited >= Duration::from_millis(35), "waited {waited:?}");
    }

    #[test]
    fn a_compressed_frame_reaching_a_client_is_invalid_data() {
        let payload = CompressedVec {
            words_u32: vec![7],
            words_f32: vec![-1.0, 1.0],
            bytes: vec![9, 8],
        };
        let mut wire = Vec::new();
        let frame = Payload::Compressed(&payload).frame(MsgKind::CompressedUp.tag());
        frame.unwrap().write_to(&mut wire).unwrap();
        let mut decoder = Decoder::new(MAX_FRAME_BYTES, true);
        let (tag, body) = decoder.read_from(&mut wire.as_slice()).unwrap().unwrap();
        let err = decode_event(tag, body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Handed anything but a `Welcome`, `bind` is an `InvalidInput` error,
    /// and binds nothing.
    #[test]
    fn binding_without_a_welcome_is_invalid_input() {
        let dir = std::env::temp_dir().join(format!("rfl-no-welcome-{}", std::process::id()));
        let endpoint = Endpoint::Unix(dir.join("server.sock"));
        let Err(err) = SocketTransport::bind(&endpoint, &ControlMsg::Shutdown) else {
            panic!("bound without a Welcome")
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("shutdown"), "{err}");
        assert!(!dir.exists());
    }

    /// A server that answers `Hello` with a model: the client's error names
    /// the frame instead of printing its 100,000 floats.
    #[test]
    fn a_hello_answered_by_a_payload_names_the_frame() {
        let dir = std::env::temp_dir().join(format!("rfl-raw-server-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("directory");
        let path = dir.join("server.sock");
        let listener = UnixListener::bind(&path).expect("bind");
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            super::super::frame::read_frame(&mut peer).expect("hello");
            let model = vec![0.25f32; 100_000];
            let frame = Payload::Dense(&model).frame(MsgKind::ModelDown.tag());
            frame.and_then(|f| f.write_to(&mut peer)).expect("model");
        });
        let mut conn = ClientConn::connect(&Endpoint::Unix(path)).expect("connect");
        let err = conn.hello(0, 7).expect_err("a model is no welcome");
        server.join().expect("raw server");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(
            message.len() < 200,
            "{} bytes: {message:.200}",
            message.len()
        );
        assert!(message.contains("ModelDown"), "{message}");
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".to_string())
        );
        {
            assert_eq!(
                Endpoint::parse("unix:/tmp/x.sock").unwrap(),
                Endpoint::Unix("/tmp/x.sock".into())
            );
            assert_eq!(
                Endpoint::parse("unix:///tmp/x.sock").unwrap(),
                Endpoint::Unix("/tmp/x.sock".into())
            );
        }
        assert!(Endpoint::parse("http://nope").is_err());
        // Display round-trips through parse.
        let e = Endpoint::parse("tcp://0.0.0.0:0").unwrap();
        assert_eq!(Endpoint::parse(&e.to_string()).unwrap(), e);
    }
}
