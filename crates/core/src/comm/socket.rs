//! Real multi-process federation over sockets.
//!
//! This module promotes the [`Transport`] abstraction from in-memory
//! delivery to an actual wire: a length-prefixed framing layer over TCP or
//! Unix-domain sockets, speaking the *same* little-endian `f32` codec as
//! the in-memory transports ([`rfl_tensor::encode_f32_into`]), so a payload's
//! bytes on the wire are exactly the bytes the simulation meters.
//!
//! Three pieces:
//!
//! * **Framing** — `[u32 le body_len][u8 tag][body]`. Payload frames carry
//!   a [`MsgKind`] tag and a codec-encoded `f32` vector; control frames
//!   carry a [`ControlMsg`] (handshake, round orchestration, churn).
//! * **[`SocketTransport`]** — the server backend. Implements [`Transport`]
//!   for downloads (frames queued to per-client [`Session`]s and flushed by
//!   the event-driven reactor in [`super::reactor`]: a fixed budget of
//!   `poll(2)` shards owns every non-blocking socket, so connections scale
//!   without threads); its own methods carry the client-originated half
//!   (training orders, reports, uploads) that the in-memory simulation
//!   fakes locally, each reply claimed by one blocking call.
//!   [`crate::plane`]'s socket back-end is built on it, so
//!   `Trainer::run` drives real client processes unchanged. Broadcasts
//!   encode once into a shared `Arc<[u8]>` frame; fan-out costs refcount
//!   bumps, not payload copies.
//! * **[`ClientConn`] / [`run_client_loop`]** — the client side: connect
//!   (with bounded backoff), register via `Hello`/`Welcome`, then an
//!   event-driven loop that installs broadcast parameters, trains on
//!   `TrainStart`, uploads, and answers δ probes, until `Shutdown`.
//!
//! Determinism contract: a loopback run of the canonical round loop
//! reproduces the [`PerfectTransport`] loss bit-exactly — the wire moves
//! raw little-endian `f32` bits through the same codec, every numeric
//! operation stays on exactly one side of the wire, and per-client frame
//! streams are consumed in the deterministic order the round loop fixes.
//!
//! [`PerfectTransport`]: super::transport::PerfectTransport

use super::message::{
    BroadcastDelivery, ControlMsg, Delivery, DropReason, FaultStats, LinkOutcome, MsgKind,
    WireError, PROTO_MAGIC, PROTO_VERSION,
};
use super::reactor::{self, ReactorCounters, ServerShared, SessionTable};
use super::session::{Deadline, RecvError, Session};
use super::stats::{CommStats, Direction};
use super::transport::{codec_round_trip, RemoteTransport, Transport};
use crate::client::{Client, LocalReport};
use crate::compress::{CompressedVec, Compression};
use crate::plane::{answer_delta, answer_upload, Frame, Pull, Scratch};
use crate::rules::LocalRule;
use rfl_tensor::{decode_f32_into, encode_f32_into};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Framing overhead per frame: 4-byte body length + 1-byte tag.
pub const FRAME_HEADER_BYTES: u64 = 5;

/// Upper bound on a frame body — rejects garbage lengths before allocating.
pub(crate) const MAX_FRAME_BYTES: usize = 256 << 20;

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

/// Writes one `[len][tag][body]` frame; returns its wire size. Header and
/// body leave in one vectored write — on a `TCP_NODELAY` stream one `send`
/// and one segment instead of two — and only a short write loops.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, tag: u8, body: &[u8]) -> io::Result<u64> {
    assert!(body.len() <= MAX_FRAME_BYTES, "frame body too large");
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4] = tag;
    let total = header.len() + body.len();
    let mut sent = 0;
    while sent < total {
        let wrote = if sent < header.len() {
            w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(body)])
        } else {
            w.write(&body[sent - header.len()..])
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok(FRAME_HEADER_BYTES + body.len() as u64)
}

/// Encodes one `[len][tag][body]` frame into a shared buffer — the
/// encode-once broadcast path queues a single `Arc<[u8]>` to every
/// recipient, so fan-out costs refcount bumps, not copies.
pub fn encode_frame(tag: u8, body: &[u8]) -> Arc<[u8]> {
    assert!(body.len() <= MAX_FRAME_BYTES, "frame body too large");
    let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES as usize + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(body);
    Arc::from(buf)
}

/// The most one read of a frame body asks for, and the most a reader
/// reserves for a body on the word of its header alone (the reactor's read
/// buffer is this size too).
pub(crate) const READ_CHUNK_BYTES: usize = 64 << 10;

/// Makes room in `body`, a frame body claimed at `need` bytes, for `take`
/// more: the first reservation is at most [`READ_CHUNK_BYTES`], each later one
/// at most doubles the buffer, and none passes `need` — so a peer has to
/// send what its header claims before the reader holds it. Both frame
/// readers grow their bodies through here: [`read_frame`] and the reactor's
/// chunk-fed one.
pub(crate) fn reserve_body(body: &mut Vec<u8>, need: usize, take: usize) {
    let have = body.len();
    if body.capacity() - have < take {
        let grow = if have == 0 {
            need.min(READ_CHUNK_BYTES)
        } else {
            (need - have).min(take.max(have))
        };
        body.reserve_exact(grow.max(take));
    }
}

/// Reads one frame, tolerating arbitrarily split reads. Returns `(tag,
/// body)`. The body grows by `reserve_body` as bytes arrive, one read of
/// at most `READ_CHUNK_BYTES` at a time, so a garbled or hostile header
/// costs no more memory than the bytes that follow it.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let need = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if need > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {need} bytes exceeds the {MAX_FRAME_BYTES} cap"),
        ));
    }
    let mut body = Vec::new();
    while body.len() < need {
        let have = body.len();
        let take = (need - have).min(READ_CHUNK_BYTES);
        reserve_body(&mut body, need, take);
        body.resize(have + take, 0);
        match r.read(&mut body[have..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => body.truncate(have + n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => body.truncate(have),
            Err(e) => return Err(e),
        }
    }
    Ok((header[4], body))
}

/// A connectable/listenable address: `tcp://host:port` or `unix:/path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, `host:port` (port 0 binds an ephemeral port).
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Parses `tcp://host:port`, `unix:/path`, or `unix:///path`.
    pub fn parse(s: &str) -> io::Result<Endpoint> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        #[cfg(unix)]
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
            #[cfg(unix)]
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
    /// The underlying descriptor, for the reactor's `poll`/`writev` calls.
    /// The stream object retains ownership; the fd is only valid while it
    /// lives.
    fn raw_fd(&self) -> RawFd;
}

impl WireStream for TcpStream {
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

#[cfg(unix)]
impl WireStream for UnixStream {
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

pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
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
            #[cfg(unix)]
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
    /// handed straight to a reactor shard's poll set.
    pub(crate) fn try_accept(&self) -> io::Result<Option<Box<dyn WireStream>>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    s.set_nodelay(true)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    /// The listening descriptor, for the accepting shard's poll set.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
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
/// backends: a drained session is a [`DropReason::Loss`], a receive that
/// outwaits [`SocketTransport::set_recv_timeout`] is a
/// [`DropReason::Deadline`], and reconnects count as retries.
pub struct SocketTransport {
    shared: Arc<ServerShared>,
    net_threads: Vec<std::thread::JoinHandle<()>>,
    local: Endpoint,
    stats: CommStats,
    dropped: u64,
    deadline_drops: u64,
    timeout: Duration,
    /// Codec scratch (payload encode) and control scratch.
    wire: Vec<u8>,
    body: Vec<u8>,
}

impl SocketTransport {
    /// Binds `endpoint` and starts the reactor shards that accept
    /// registrations. `welcome` must be the [`ControlMsg::Welcome`] run
    /// configuration; its `num_clients` and `seed` validate incoming
    /// `Hello`s.
    pub fn bind(endpoint: &Endpoint, welcome: &ControlMsg) -> io::Result<SocketTransport> {
        let (n_clients, seed) = match *welcome {
            ControlMsg::Welcome {
                num_clients, seed, ..
            } => (num_clients as usize, seed),
            ref other => panic!(
                "SocketTransport::bind needs a Welcome, got {}",
                other.name()
            ),
        };
        let (listener, local) = Listener::bind(endpoint)?;
        let mut welcome_body = Vec::new();
        welcome.encode_body(&mut welcome_body);
        let (shards, wake_rx_ends) = reactor::build_shards(reactor::net_threads())?;
        let shared = Arc::new(ServerShared {
            sessions: Mutex::new(SessionTable::new(n_clients)),
            registration: Condvar::new(),
            reconnects: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            pending_up: AtomicU64::new(0),
            pending_down: AtomicU64::new(0),
            pending_msgs: AtomicU64::new(0),
            welcome_frame: encode_frame(welcome.tag(), &welcome_body),
            n_clients,
            seed,
            shards,
        });
        let net_threads = reactor::spawn_shards(listener, &shared, wake_rx_ends)?;
        Ok(SocketTransport {
            shared,
            net_threads,
            local,
            stats: CommStats::new(),
            dropped: 0,
            deadline_drops: 0,
            timeout: DEFAULT_RECV_TIMEOUT,
            wire: Vec::new(),
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

    /// Blocks until all expected clients hold a live registered session, or
    /// `timeout` passes. The reactor signals only a handshake that leaves
    /// the session table full, and only a full table is asked which of its
    /// sessions are live, so registering `n` clients costs one wakeup and
    /// one pass here, not `n` of each.
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

    /// Number of currently live (non-draining) sessions.
    pub fn live_clients(&self) -> usize {
        (self.shared.sessions.lock().expect("sessions poisoned")).live()
    }

    /// What the reactor shards have done since `bind`, summed over them: a
    /// snapshot, final once [`RemoteTransport::shutdown`] has returned.
    pub fn reactor_counters(&self) -> ReactorCounters {
        self.shared.counters()
    }

    fn session(&self, client: usize) -> Option<Arc<Session>> {
        let sessions = self.shared.sessions.lock().expect("sessions poisoned");
        sessions.slots.get(client).and_then(|s| s.clone())
    }

    /// Folds handshake traffic metered by the reactor shards into the
    /// ledger (the pair-wise accounting itself lives in
    /// [`CommStats::fold_handshakes`]).
    fn fold_pending(&mut self) {
        let up = self.shared.pending_up.swap(0, Ordering::Relaxed);
        let down = self.shared.pending_down.swap(0, Ordering::Relaxed);
        let msgs = self.shared.pending_msgs.swap(0, Ordering::Relaxed);
        self.stats.fold_handshakes(up, down, msgs);
    }

    /// The per-send enqueue deadline: backpressure on a wedged client's
    /// write queue is bounded by the same budget as a silent client's
    /// receive.
    fn send_deadline(&self) -> Deadline {
        Deadline::after(self.timeout)
    }

    /// Queues one frame on `client`'s session through `push` and returns
    /// its wire size; a missing session or a failed enqueue is a counted
    /// loss.
    fn enqueue(
        &mut self,
        client: usize,
        push: impl FnOnce(&Session, Deadline) -> io::Result<u64>,
    ) -> Result<u64, LinkOutcome> {
        let deadline = self.send_deadline();
        match self.session(client).map(|s| push(&s, deadline)) {
            Some(Ok(wire)) => Ok(wire),
            _ => Err(LinkOutcome::lost(self.count_drop(DropReason::Loss))),
        }
    }

    /// [`SocketTransport::enqueue`] of a `[tag][body]` frame charged to the
    /// ledger as `kind`.
    fn send_frame(&mut self, kind: MsgKind, client: usize, body: &[u8]) -> LinkOutcome {
        match self.enqueue(client, |s, deadline| {
            s.send_frame(kind.tag(), body, deadline)
        }) {
            Ok(wire) => {
                self.stats.charge(kind, wire);
                LinkOutcome::perfect()
            }
            Err(lost) => lost,
        }
    }

    fn send_control(&mut self, client: usize, msg: &ControlMsg) -> LinkOutcome {
        let mut body = std::mem::take(&mut self.body);
        msg.encode_body(&mut body);
        let sent = self.enqueue(client, |s, deadline| {
            s.send_frame(msg.tag(), &body, deadline)
        });
        self.body = body;
        match sent {
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
    /// receive timeout. A missing or drained session is a
    /// [`DropReason::Loss`], a timeout a [`DropReason::Deadline`]; either is
    /// counted.
    fn claim(&mut self, client: usize, tag: u8) -> Result<Vec<u8>, DropReason> {
        let Some(session) = self.session(client) else {
            return Err(self.count_drop(DropReason::Loss));
        };
        match session.recv_frame(tag, self.timeout) {
            // The caller charges the wire bytes (plane depends on the kind).
            Ok((body, _wire)) => Ok(body),
            Err(RecvError::Closed) => Err(self.count_drop(DropReason::Loss)),
            Err(RecvError::TimedOut) => {
                // A silent client is dropped from the round, exactly like
                // the in-memory deadline model; drain so later phases fail
                // fast instead of re-waiting the full timeout.
                session.close();
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
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Result<T, DropReason> {
        assert_eq!(
            kind.direction(),
            Direction::Upload,
            "remote receives are client-originated uploads"
        );
        let body = self.claim(client, kind.tag())?;
        match decode(&body) {
            Some(value) => {
                self.stats
                    .charge(kind, FRAME_HEADER_BYTES + body.len() as u64);
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
    /// undecodable upload, and closes the session, discarding whatever else
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
        let Ok(ControlMsg::Report {
            loss,
            reg_loss,
            steps,
            examples,
        }) = ControlMsg::decode_body(tag, &body)
        else {
            if let Some(s) = self.session(client) {
                s.close();
            }
            self.count_drop(DropReason::Loss);
            return None;
        };
        self.stats
            .record(Direction::Upload, FRAME_HEADER_BYTES + body.len() as u64);
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
        let decode = |body: &[u8]| out.decode_from(body).then_some(());
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

fn decode_dense(body: &[u8]) -> Option<Vec<f32>> {
    let mut data = Vec::new();
    decode_f32_into(body, &mut data).ok().map(|()| data)
}

impl Transport for SocketTransport {
    fn begin_round(&mut self, _round: u64) {
        self.fold_pending();
    }

    fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery {
        assert_eq!(
            kind.direction(),
            Direction::Download,
            "server-originated sends go down; uploads arrive via RemoteTransport::recv"
        );
        let mut wire = std::mem::take(&mut self.wire);
        let data = codec_round_trip(&mut wire, payload);
        let link = self.send_frame(kind, client, &wire);
        self.wire = wire;
        Delivery::over(link, data)
    }

    fn broadcast(
        &mut self,
        kind: MsgKind,
        clients: &[usize],
        payload: &[f32],
    ) -> BroadcastDelivery {
        debug_assert_eq!(kind.direction(), Direction::Download, "broadcasts go down");
        let data = codec_round_trip(&mut self.wire, payload);
        // Encode once: every recipient queues the same `Arc<[u8]>` frame —
        // fan-out is N refcount bumps plus N queue pushes, never N copies
        // of an O(d) model.
        let frame = encode_frame(kind.tag(), &self.wire);
        let mut delivered_bytes = 0u64;
        let links = (clients.iter())
            .map(
                |&k| match self.enqueue(k, |s, deadline| s.send_encoded(&frame, deadline)) {
                    Ok(wire) => {
                        delivered_bytes += wire;
                        LinkOutcome::perfect()
                    }
                    Err(lost) => lost,
                },
            )
            .collect();
        if delivered_bytes > 0 {
            self.stats.charge(kind, delivered_bytes);
        }
        BroadcastDelivery { data, links }
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
        Delivery::claimed(self.claim_upload(kind, client, decode_dense))
    }

    fn shutdown(&mut self) {
        let sessions: Vec<Arc<Session>> = {
            let guard = self.shared.sessions.lock().expect("sessions poisoned");
            guard.slots.iter().flatten().cloned().collect()
        };
        self.body.clear();
        let deadline = self.send_deadline();
        for session in sessions {
            if session.is_live() {
                let msg = ControlMsg::Shutdown;
                msg.encode_body(&mut self.body);
                if let Ok(n) = session.send_frame(msg.tag(), &self.body, deadline) {
                    self.stats.record(Direction::Download, n);
                }
                // Let the reactor flush the queued Shutdown before the
                // socket closes; a hard close here could drop it.
                session.close_graceful();
            } else {
                session.close();
            }
        }
        // Stop *after* queueing the shutdown frames so no shard starts its
        // wind-down with an empty-looking queue it then ignores.
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.wake_all();
        for handle in self.net_threads.drain(..) {
            let _ = handle.join();
        }
        self.fold_pending();
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's framed connection to an [`SocketTransport`] server.
pub struct ClientConn {
    stream: Box<dyn WireStream>,
    body: Vec<u8>,
    wire: Vec<u8>,
}

/// One frame from the server, decoded.
#[derive(Debug)]
pub enum ClientEvent {
    /// A payload frame: an `f32` vector on a [`MsgKind`] plane.
    Payload(MsgKind, Vec<f32>),
    /// A compressed payload frame in the exact `CompressedVec` encoding.
    Compressed(MsgKind, CompressedVec),
    /// A control frame.
    Control(ControlMsg),
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
            #[cfg(unix)]
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        Ok(ClientConn {
            stream,
            body: Vec::new(),
            wire: Vec::new(),
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
        match self.read_event()? {
            ClientEvent::Control(welcome @ ControlMsg::Welcome { .. }) => Ok(welcome),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected welcome, got {other:?}"),
            )),
        }
    }

    /// Sends a control frame.
    pub(crate) fn send_control(&mut self, msg: &ControlMsg) -> io::Result<()> {
        msg.encode_body(&mut self.body);
        write_frame(&mut self.stream, msg.tag(), &self.body)?;
        Ok(())
    }

    /// Sends an `f32` payload on `kind`'s plane (codec-encoded).
    pub fn send_payload(&mut self, kind: MsgKind, data: &[f32]) -> io::Result<()> {
        encode_f32_into(&mut self.wire, data);
        write_frame(&mut self.stream, kind.tag(), &self.wire)?;
        Ok(())
    }

    /// Sends a compressed payload in its exact `CompressedVec` wire
    /// encoding; the frame body length is `payload.wire_bytes()`.
    pub(crate) fn send_compressed(
        &mut self,
        kind: MsgKind,
        payload: &CompressedVec,
    ) -> io::Result<()> {
        debug_assert!(kind.is_compressed(), "kind must be a compressed plane");
        payload.encode_into(&mut self.wire);
        write_frame(&mut self.stream, kind.tag(), &self.wire)?;
        Ok(())
    }

    /// Sends `client`'s answer to `what` ([`answer_upload`],
    /// [`answer_delta`]) on the message kind it belongs to.
    fn send_answer(
        &mut self,
        client: &mut Client,
        what: Pull<'_>,
        policy: Compression,
        scratch: &mut Scratch,
    ) -> io::Result<()> {
        let kind = what.kind(policy.is_enabled());
        let frame = match what {
            Pull::Upload { global } => answer_upload(client, global, policy, scratch),
            Pull::Delta { dp } => answer_delta(dp, policy, scratch),
        };
        match frame {
            Frame::Dense(values) => self.send_payload(kind, values),
            Frame::Compressed(payload) => self.send_compressed(kind, payload),
        }
    }

    /// Blocks for the next frame.
    pub fn read_event(&mut self) -> io::Result<ClientEvent> {
        let (tag, body) = read_frame(&mut self.stream)?;
        if let Some(kind) = MsgKind::from_tag(tag) {
            if kind.is_compressed() {
                let payload = CompressedVec::decode(&body).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad compressed frame")
                })?;
                return Ok(ClientEvent::Compressed(kind, payload));
            }
            let mut data = Vec::new();
            decode_f32_into(&body, &mut data)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad payload codec"))?;
            return Ok(ClientEvent::Payload(kind, data));
        }
        let msg = ControlMsg::decode_body(tag, &body)
            .map_err(|e: WireError| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(ClientEvent::Control(msg))
    }
}

/// Client-loop tuning knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientLoopOpts {
    /// Graceful churn: after completing round `r`'s training and upload,
    /// answer its δ probe with a `Goodbye` and leave the federation.
    pub leave_after_round: Option<u64>,
    /// Upload-compression policy (normally taken from the `Welcome` frame).
    /// When enabled, model uploads go up as error-feedback-compressed
    /// `CompressedUp` frames and δ syncs as `CompressedDeltaUp` frames.
    pub compression: Compression,
}

/// How a client loop ended.
#[derive(Debug)]
pub enum ClientOutcome {
    /// The server ended the run; exit cleanly.
    Shutdown,
    /// This client left gracefully (`leave_after_round`).
    Left,
    /// The link died; the caller may reconnect and resume.
    Disconnected(io::Error),
}

/// The event-driven client half of the protocol: installs broadcast
/// parameters, trains on `TrainStart` (with the δ target received this
/// round, if any) and follows the report with the upload, answers δ probes
/// — until `Shutdown`, a graceful departure, or a dead link. The frames it
/// uploads come from [`answer_upload`] and [`answer_delta`], the functions
/// the in-process plane calls on its replicas.
///
/// The numeric call sequence on `client` is exactly the one the in-process
/// simulation makes on its local replica, so the client's RNG stream and
/// parameter trajectory are bit-identical to the oracle's.
pub fn run_client_loop(
    conn: &mut ClientConn,
    client: &mut Client,
    lambda: f32,
    opts: &ClientLoopOpts,
) -> ClientOutcome {
    let mut pending_target: Option<Vec<f32>> = None;
    // The last broadcast parameters (a compressed upload is relative to
    // them) and the reused upload workspaces. The error-feedback residual
    // itself lives on the `Client` so hibernation persists it.
    let mut global: Vec<f32> = Vec::new();
    let mut scratch = Scratch::default();
    loop {
        let event = match conn.read_event() {
            Ok(ev) => ev,
            Err(e) => return ClientOutcome::Disconnected(e),
        };
        let io_result = match event {
            ClientEvent::Payload(MsgKind::ModelDown, params) => {
                client.write_params(&params);
                global = params;
                Ok(())
            }
            ClientEvent::Payload(MsgKind::DeltaDown, target) => {
                pending_target = Some(target);
                Ok(())
            }
            ClientEvent::Control(ControlMsg::TrainStart { steps, .. }) => {
                let rule = match pending_target.take() {
                    Some(target) => LocalRule::Mmd {
                        lambda,
                        target: Arc::new(target),
                    },
                    None => LocalRule::Plain,
                };
                let report = client.train_local(steps as usize, &rule);
                conn.send_control(&ControlMsg::Report {
                    loss: report.loss,
                    reg_loss: report.reg_loss,
                    steps: report.steps as u32,
                    examples: report.examples as u32,
                })
                .and_then(|()| {
                    let upload = Pull::Upload { global: &global };
                    conn.send_answer(client, upload, opts.compression, &mut scratch)
                })
            }
            ClientEvent::Control(ControlMsg::DeltaProbe { round, probe_batch }) => {
                if opts.leave_after_round == Some(round) {
                    let _ = conn.send_control(&ControlMsg::Goodbye);
                    return ClientOutcome::Left;
                }
                // The request is the probe; the frame is claimed at once.
                client.compute_delta_into(&mut scratch.delta, probe_batch as usize);
                let claim = Pull::Delta { dp: None };
                conn.send_answer(client, claim, opts.compression, &mut scratch)
            }
            ClientEvent::Control(ControlMsg::Shutdown) => return ClientOutcome::Shutdown,
            // Frames this loop has no request for (`DeltaTableDown`, the
            // control-variate planes) are ignored rather than fatal: the
            // server refuses, before round 0, every algorithm that would
            // send one ([`crate::Trainer::try_run`]).
            _ => Ok(()),
        };
        if let Err(e) = io_result {
            return ClientOutcome::Disconnected(e);
        }
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

    #[cfg(unix)]
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
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 0x42, b"hello").unwrap();
        assert_eq!(n, 5 + 5);
        assert_eq!(buf.len() as u64, n);
        let (tag, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(tag, 0x42);
        assert_eq!(body, b"hello");
    }

    /// A sink that counts write calls and accepts at most `limit` bytes
    /// per call (vectored or not).
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.limit - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_when_the_writer_takes_it_all() {
        let mut sink = Sink {
            bytes: Vec::new(),
            calls: 0,
            limit: usize::MAX,
        };
        for i in 0..3u8 {
            write_frame(&mut sink, i, &[i; 100]).unwrap();
            assert_eq!(sink.calls, i as usize + 1);
        }
        write_frame(&mut sink, 9, &[]).unwrap();
        assert_eq!(sink.calls, 4);
        let mut wire = sink.bytes.as_slice();
        for i in 0..3u8 {
            assert_eq!(read_frame(&mut wire).unwrap(), (i, vec![i; 100]));
        }
        assert_eq!(read_frame(&mut wire).unwrap(), (9, Vec::new()));
    }

    #[test]
    fn a_frame_survives_a_writer_that_takes_one_byte_per_call() {
        let mut sink = Sink {
            bytes: Vec::new(),
            calls: 0,
            limit: 1,
        };
        let body: Vec<u8> = (0..=255).collect();
        let n = write_frame(&mut sink, 0x17, &body).unwrap();
        assert_eq!(n, sink.bytes.len() as u64);
        assert_eq!(sink.calls, 5 + 256);
        assert_eq!(
            read_frame(&mut sink.bytes.as_slice()).unwrap(),
            (0x17, body)
        );
    }

    #[test]
    fn empty_body_frames_work() {
        let mut buf = Vec::new();
        write_frame(&mut buf, ControlMsg::Goodbye.tag(), &[]).unwrap();
        let (tag, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(tag, ControlMsg::Goodbye.tag());
        assert!(body.is_empty());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(0x01);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x01, &[1, 2, 3, 4]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    /// A source that records the largest buffer a read asks it to fill.
    struct Recorder<'a> {
        wire: &'a [u8],
        largest_ask: usize,
    }

    impl Read for Recorder<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            self.wire.read(buf)
        }
    }

    #[test]
    fn a_header_sizes_no_read_past_one_chunk() {
        let body: Vec<u8> = (0..200u32 << 10).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, 0x02, &body).unwrap();
        let mut src = Recorder {
            wire: &wire,
            largest_ask: 0,
        };
        assert_eq!(read_frame(&mut src).unwrap(), (0x02, body));
        assert!(src.largest_ask <= READ_CHUNK_BYTES, "{}", src.largest_ask);

        // 256 MiB claimed, then EOF: one chunk asked for, and refused.
        let mut header = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        header.push(0x02);
        let mut src = Recorder {
            wire: &header,
            largest_ask: 0,
        };
        let err = read_frame(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(src.largest_ask <= READ_CHUNK_BYTES, "{}", src.largest_ask);
    }

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".to_string())
        );
        #[cfg(unix)]
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
