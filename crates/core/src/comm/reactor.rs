//! Event-driven socket server: a small number of sharded `poll(2)` loops
//! replace the accept thread and the per-session reader threads.
//!
//! Each shard owns a set of non-blocking connections and multiplexes them
//! through one `poll(2)` call: per-connection *read* state machines
//! reassemble `[len][tag][body]` frames across arbitrarily split reads, and
//! per-connection *write* state machines flush bounded FIFO queues of
//! pre-encoded frames with `writev(2)`, resuming mid-frame after partial
//! writes. Shard 0 additionally owns the listener and round-robins accepted
//! connections across shards. Cross-thread nudges (a frame enqueued by the
//! round loop, a shutdown request) land as one byte on the shard's self-pipe,
//! so nothing in the server sleep-polls.
//!
//! Backpressure: every connection's write queue is bounded
//! ([`WRITE_BUF_BYTES`], 16 MiB). An enqueue that would
//! overflow the bound blocks the *sender* (the round loop) on a condvar
//! until the reactor drains space or the send deadline passes — a wedged
//! client costs one bounded wait, never unbounded server memory. Broadcast
//! is encode-once: the transport encodes a frame into one `Arc<[u8]>` and
//! every recipient queues a refcount bump, not a copy.

use super::message::{ControlMsg, PROTO_MAGIC, PROTO_VERSION};
use super::session::Session;
use super::socket::{Listener, WireStream, MAX_FRAME_BYTES};
use super::sys;
use std::collections::VecDeque;
use std::io;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a connection may sit between `accept` and a valid `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a stopping reactor keeps flushing queued frames (the `Shutdown`
/// broadcast) toward clients that have stopped reading before force-closing.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Per-connection write-queue bound in bytes.
const WRITE_BUF_BYTES: usize = 16 << 20;

/// Number of event-loop shards a new server starts: `RFL_NET_THREADS`, or
/// one per core up to 4.
pub(crate) fn net_threads() -> usize {
    let raw = std::env::var_os("RFL_NET_THREADS").map(|v| v.to_string_lossy().into_owned());
    parse_net_threads(raw.as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(4)))
}

/// Parses `RFL_NET_THREADS`: unset means the default shard count (`None`),
/// anything else must be an integer ≥ 1. A typo must not silently run the
/// default configuration, so everything else is an error.
fn parse_net_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!(
            "RFL_NET_THREADS={raw:?} is not valid: expected an integer >= 1, \
             or unset for one shard per core (at most 4)"
        )),
    }
}

/// A FIFO of pre-encoded frames awaiting the wire, with partial-write
/// resume: [`gather`](WriteQueue::gather) exposes the unwritten tails as
/// `writev`-ready slices and [`advance`](WriteQueue::advance) consumes
/// however many bytes the kernel actually accepted, mid-frame or across
/// several frames. Frames are shared `Arc<[u8]>`s, so queueing one frame to
/// N connections costs N refcount bumps, not N copies.
#[derive(Default)]
pub struct WriteQueue {
    /// `(frame, offset)`: `offset` bytes of the front frame are already on
    /// the wire.
    segs: VecDeque<(Arc<[u8]>, usize)>,
    /// Total unwritten bytes across all segments.
    queued: usize,
}

impl WriteQueue {
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Appends one encoded frame.
    pub fn push(&mut self, frame: Arc<[u8]>) {
        self.queued += frame.len();
        self.segs.push_back((frame, 0));
    }

    /// Unwritten bytes currently queued.
    pub fn pending_bytes(&self) -> usize {
        self.queued
    }

    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The unwritten tails of up to `max_slices` queued frames, in wire
    /// order — ready for one vectored write.
    pub fn gather(&self, max_slices: usize) -> Vec<&[u8]> {
        self.segs
            .iter()
            .take(max_slices)
            .map(|(frame, off)| &frame[*off..])
            .collect()
    }

    /// Consumes `n` bytes from the front of the queue (the bytes a write
    /// actually accepted), dropping fully written frames and recording the
    /// resume offset of a partially written one.
    ///
    /// # Panics
    /// If `n` exceeds [`pending_bytes`](WriteQueue::pending_bytes).
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.queued, "advanced past the queued bytes");
        self.queued -= n;
        while n > 0 {
            let (frame, off) = self.segs.front_mut().expect("bytes imply a segment");
            let remaining = frame.len() - *off;
            if n >= remaining {
                n -= remaining;
                self.segs.pop_front();
            } else {
                *off += n;
                n = 0;
            }
        }
    }
}

/// Wakes one shard's `poll(2)` by writing a byte to its self-pipe. Failure
/// is fine: a full pipe means a wakeup is already pending.
pub(crate) struct Waker {
    tx: OwnedFd,
}

impl Waker {
    pub(crate) fn wake(&self) {
        let _ = sys::write_fd(self.tx.as_raw_fd(), &[1]);
    }
}

/// Why an enqueue returned no bytes.
pub(crate) enum EnqueueError {
    /// The connection is closed (or closing); nothing will be delivered.
    Closed,
    /// The write queue stayed full past the sender's deadline.
    TimedOut,
}

struct QueueState {
    q: WriteQueue,
    /// Accepting new frames. Cleared by both close paths.
    open: bool,
    /// Flush what is queued, then close (graceful shutdown).
    close_after_flush: bool,
    capacity: usize,
}

/// What a flush attempt left behind.
enum FlushStatus {
    /// Nothing queued (and no pending close).
    Idle,
    /// The kernel buffer filled; poll for `POLLOUT`.
    WantWrite,
    /// Queue drained and a graceful close was requested.
    FlushedClose,
    /// The socket died mid-write.
    Dead,
}

/// The write half of one connection, shared between the reactor shard that
/// flushes it and the transport threads that enqueue into it.
pub(crate) struct ConnShared {
    state: Mutex<QueueState>,
    /// Signalled when the reactor drains queue space (backpressure waits).
    space: Condvar,
    waker: Arc<Waker>,
    /// A cloned stream handle used to force-close the socket from any
    /// thread; the reactor notices via `poll` and reaps the connection.
    closer: Box<dyn WireStream>,
    fd: RawFd,
}

impl ConnShared {
    /// Queues one encoded frame for delivery; returns its wire size.
    ///
    /// With a deadline (transport sends), a full queue blocks until space
    /// frees up or the deadline passes — backpressure lands on the sender,
    /// not on server memory. Without one (reactor-internal sends, e.g. the
    /// `Welcome`), the frame is queued unconditionally: the reactor must
    /// never block on its own queues.
    pub(crate) fn enqueue(
        &self,
        frame: &Arc<[u8]>,
        deadline: Option<Instant>,
    ) -> Result<u64, EnqueueError> {
        let mut st = self.state.lock().expect("write queue poisoned");
        loop {
            if !st.open {
                return Err(EnqueueError::Closed);
            }
            let fits = st.q.is_empty() || st.q.pending_bytes() + frame.len() <= st.capacity;
            let Some(deadline) = deadline else {
                st.q.push(frame.clone());
                drop(st);
                self.waker.wake();
                return Ok(frame.len() as u64);
            };
            if fits {
                st.q.push(frame.clone());
                drop(st);
                self.waker.wake();
                return Ok(frame.len() as u64);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(EnqueueError::TimedOut);
            }
            let (guard, _) = self
                .space
                .wait_timeout(st, deadline - now)
                .expect("write queue poisoned");
            st = guard;
        }
    }

    /// Hard close: drop queued frames, refuse new ones, and force the
    /// socket down so the owning shard reaps the connection.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.open = false;
        st.q = WriteQueue::new();
        drop(st);
        self.space.notify_all();
        self.closer.shutdown_now();
        self.waker.wake();
    }

    /// Graceful close: refuse new frames, flush what is queued, then close.
    pub(crate) fn close_after_flush(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.open = false;
        st.close_after_flush = true;
        drop(st);
        self.space.notify_all();
        self.waker.wake();
    }

    /// Reactor-side: mark the queue closed when the connection is reaped so
    /// blocked senders fail fast instead of waiting out their deadline.
    fn mark_dead(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.open = false;
        st.q = WriteQueue::new();
        drop(st);
        self.space.notify_all();
    }

    /// Whether the shard must poll this connection for writability.
    fn wants_write(&self) -> bool {
        let st = self.state.lock().expect("write queue poisoned");
        !st.q.is_empty() || st.close_after_flush
    }

    /// Reactor-side: write as much of the queue as the kernel will take,
    /// one `writev` gather at a time, resuming partial writes.
    fn flush(&self) -> FlushStatus {
        let mut st = self.state.lock().expect("write queue poisoned");
        loop {
            if st.q.is_empty() {
                return if st.close_after_flush {
                    FlushStatus::FlushedClose
                } else {
                    FlushStatus::Idle
                };
            }
            let wrote = {
                let slices = st.q.gather(sys::MAX_IOV);
                sys::writev_fd(self.fd, &slices)
            };
            match wrote {
                Ok(n) => {
                    st.q.advance(n);
                    self.space.notify_all();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushStatus::WantWrite,
                Err(_) => return FlushStatus::Dead,
            }
        }
    }
}

/// The cross-thread face of one shard: its waker plus an inbox of freshly
/// accepted connections waiting to be adopted into the shard's poll set.
pub(crate) struct ShardHandle {
    pub(crate) waker: Arc<Waker>,
    inbox: Mutex<Vec<Box<dyn WireStream>>>,
}

/// Server state shared between the transport (round loop) and the reactor
/// shards.
pub(crate) struct ServerShared {
    /// `sessions[k]` is client `k`'s live session, if any.
    pub(crate) sessions: Mutex<Vec<Option<Arc<Session>>>>,
    pub(crate) registration: Condvar,
    /// Reconnects observed at handshake — reported as
    /// [`FaultStats::retries`](super::message::FaultStats::retries), the
    /// same History/CSV column the in-memory fault model uses for
    /// retransmissions.
    pub(crate) reconnects: AtomicU64,
    pub(crate) stop: AtomicBool,
    /// Handshake wire bytes, folded into the ledger at the next round
    /// boundary (the reactor cannot touch [`super::stats::CommStats`]
    /// directly).
    pub(crate) pending_up: AtomicU64,
    pub(crate) pending_down: AtomicU64,
    pub(crate) pending_msgs: AtomicU64,
    /// The pre-encoded `Welcome` frame, queued verbatim to every client.
    pub(crate) welcome_frame: Arc<[u8]>,
    pub(crate) n_clients: usize,
    pub(crate) seed: u64,
    pub(crate) shards: Vec<Arc<ShardHandle>>,
}

impl ServerShared {
    /// Wakes every shard (stop requests, queued shutdown frames).
    pub(crate) fn wake_all(&self) {
        for shard in &self.shards {
            shard.waker.wake();
        }
    }
}

/// Creates the shard handles plus the matching self-pipe read ends (one
/// per shard thread).
pub(crate) fn build_shards(n: usize) -> io::Result<(Vec<Arc<ShardHandle>>, Vec<OwnedFd>)> {
    let mut handles = Vec::with_capacity(n);
    let mut rx_ends = Vec::with_capacity(n);
    for _ in 0..n {
        let (rx, tx) = sys::pipe_nonblocking()?;
        handles.push(Arc::new(ShardHandle {
            waker: Arc::new(Waker { tx }),
            inbox: Mutex::new(Vec::new()),
        }));
        rx_ends.push(rx);
    }
    Ok((handles, rx_ends))
}

/// Spawns one event-loop thread per shard; shard 0 owns the listener.
pub(crate) fn spawn_shards(
    listener: Listener,
    shared: &Arc<ServerShared>,
    rx_ends: Vec<OwnedFd>,
) -> io::Result<Vec<std::thread::JoinHandle<()>>> {
    let mut threads = Vec::with_capacity(rx_ends.len());
    let mut listener = Some(listener);
    for (idx, wake_rx) in rx_ends.into_iter().enumerate() {
        let shard = Shard {
            idx,
            wake_rx,
            listener: if idx == 0 { listener.take() } else { None },
            shared: shared.clone(),
            conns: Vec::new(),
            next_rr: 0,
            stop_deadline: None,
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("rfl-net-{idx}"))
                .spawn(move || shard.run())?,
        );
    }
    Ok(threads)
}

/// Read-side frame reassembly: `[u32 le len][u8 tag]` header, then the
/// body, each accumulated across arbitrarily split non-blocking reads.
struct FrameReader {
    header: [u8; 5],
    header_have: usize,
    body: Vec<u8>,
    body_have: usize,
    in_body: bool,
}

enum ReadStep {
    Frame(u8, Vec<u8>),
    WouldBlock,
    Eof,
    Corrupt,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            header: [0; 5],
            header_have: 0,
            body: Vec::new(),
            body_have: 0,
            in_body: false,
        }
    }

    /// Advances the state machine by at most one complete frame.
    fn step(&mut self, fd: RawFd) -> ReadStep {
        if !self.in_body {
            while self.header_have < self.header.len() {
                match sys::read_fd(fd, &mut self.header[self.header_have..]) {
                    Ok(0) => return ReadStep::Eof,
                    Ok(n) => self.header_have += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStep::WouldBlock,
                    Err(_) => return ReadStep::Corrupt,
                }
            }
            let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_BYTES {
                return ReadStep::Corrupt;
            }
            self.body = vec![0; len];
            self.body_have = 0;
            self.in_body = true;
        }
        while self.body_have < self.body.len() {
            match sys::read_fd(fd, &mut self.body[self.body_have..]) {
                Ok(0) => return ReadStep::Eof,
                Ok(n) => self.body_have += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStep::WouldBlock,
                Err(_) => return ReadStep::Corrupt,
            }
        }
        let tag = self.header[4];
        let body = std::mem::take(&mut self.body);
        self.header_have = 0;
        self.body_have = 0;
        self.in_body = false;
        ReadStep::Frame(tag, body)
    }
}

enum Phase {
    /// Accepted; `Hello` not yet validated.
    Handshake { deadline: Instant },
    /// Registered: frames route to the session's receive queue.
    Open { session: Arc<Session> },
}

struct Conn {
    /// Owns the socket; dropped when the connection is reaped.
    stream: Box<dyn WireStream>,
    fd: RawFd,
    shared: Arc<ConnShared>,
    phase: Phase,
    reader: FrameReader,
    alive: bool,
}

struct Shard {
    idx: usize,
    wake_rx: OwnedFd,
    listener: Option<Listener>,
    shared: Arc<ServerShared>,
    conns: Vec<Conn>,
    /// Round-robin cursor for distributing accepted connections (shard 0).
    next_rr: usize,
    stop_deadline: Option<Instant>,
}

impl Shard {
    fn run(mut self) {
        let mut pollfds: Vec<sys::PollFd> = Vec::new();
        loop {
            let stopping = self.shared.stop.load(Ordering::Relaxed);
            if stopping {
                self.listener = None;
                let deadline = *self
                    .stop_deadline
                    .get_or_insert_with(|| Instant::now() + STOP_FLUSH_GRACE);
                // Handshakes can't complete on a stopped server, and past
                // the grace deadline even graceful closes go hard.
                for conn in &mut self.conns {
                    let expired = Instant::now() >= deadline;
                    if matches!(conn.phase, Phase::Handshake { .. }) || expired {
                        conn.alive = false;
                    }
                }
                self.reap();
                if self.conns.is_empty() {
                    break;
                }
            }

            pollfds.clear();
            pollfds.push(sys::PollFd::new(self.wake_rx.as_raw_fd(), sys::POLLIN));
            let listener_slot = self.listener.as_ref().map(|l| {
                pollfds.push(sys::PollFd::new(l.raw_fd(), sys::POLLIN));
                pollfds.len() - 1
            });
            let conn_base = pollfds.len();
            for conn in &self.conns {
                let mut events = sys::POLLIN;
                if conn.shared.wants_write() {
                    events |= sys::POLLOUT;
                }
                pollfds.push(sys::PollFd::new(conn.fd, events));
            }

            let timeout_ms = self.poll_timeout_ms(stopping);
            if sys::poll_fds(&mut pollfds, timeout_ms).is_err() {
                // Only catastrophic poll failures land here (EINTR is
                // retried); treat them as a stop request.
                self.shared.stop.store(true, Ordering::Relaxed);
                continue;
            }

            if pollfds[0].revents & sys::POLLIN != 0 {
                self.drain_wake_pipe();
            }
            if let Some(slot) = listener_slot {
                if pollfds[slot].revents & (sys::POLLIN | sys::POLLERR) != 0 {
                    self.accept_ready();
                }
            }
            self.adopt_inbox();

            for (i, conn) in self.conns.iter_mut().enumerate() {
                // Connections adopted after the pollfd snapshot have no
                // revents yet; they are serviced on the next iteration.
                let Some(pfd) = pollfds.get(conn_base + i) else {
                    break;
                };
                debug_assert_eq!(pfd.fd, conn.fd, "pollfd/conn order diverged");
                if pfd.revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                    conn.alive = false;
                    continue;
                }
                if pfd.revents & (sys::POLLIN | sys::POLLHUP) != 0 {
                    Shard::service_read(&self.shared, conn);
                }
            }
            self.service_writes();
            self.expire_handshakes();
            self.reap();
        }
    }

    fn poll_timeout_ms(&self, stopping: bool) -> i32 {
        if stopping {
            return 50;
        }
        // Only pending handshake deadlines need a timed wakeup; everything
        // else arrives as readiness or a self-pipe nudge.
        let now = Instant::now();
        self.conns
            .iter()
            .filter_map(|c| match c.phase {
                Phase::Handshake { deadline } => {
                    Some(deadline.saturating_duration_since(now).as_millis() as i32 + 1)
                }
                Phase::Open { .. } => None,
            })
            .min()
            .map_or(-1, |ms| ms.clamp(1, 1000))
    }

    fn drain_wake_pipe(&self) {
        let mut buf = [0u8; 64];
        while matches!(sys::read_fd(self.wake_rx.as_raw_fd(), &mut buf), Ok(n) if n > 0) {}
    }

    /// Shard 0: accept everything pending and deal connections round-robin
    /// across shards.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.try_accept() {
                Ok(Some(stream)) => {
                    let target = self.next_rr % self.shared.shards.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        let shard = &self.shared.shards[target];
                        shard
                            .inbox
                            .lock()
                            .expect("shard inbox poisoned")
                            .push(stream);
                        shard.waker.wake();
                    }
                }
                Ok(None) => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A fatal accept error (e.g. EMFILE storm): stop accepting
                // rather than spinning on a hot listener.
                Err(_) => {
                    self.listener = None;
                    return;
                }
            }
        }
    }

    fn adopt_inbox(&mut self) {
        let pending = {
            let mut inbox = self.shared.shards[self.idx]
                .inbox
                .lock()
                .expect("shard inbox poisoned");
            std::mem::take(&mut *inbox)
        };
        for stream in pending {
            self.adopt(stream);
        }
    }

    /// Wraps a freshly accepted (already non-blocking) stream into a
    /// handshaking connection in this shard's poll set.
    fn adopt(&mut self, stream: Box<dyn WireStream>) {
        let Ok(closer) = stream.try_clone_stream() else {
            return;
        };
        let fd = stream.raw_fd();
        let shared = Arc::new(ConnShared {
            state: Mutex::new(QueueState {
                q: WriteQueue::new(),
                open: true,
                close_after_flush: false,
                capacity: WRITE_BUF_BYTES,
            }),
            space: Condvar::new(),
            waker: self.shared.shards[self.idx].waker.clone(),
            closer,
            fd,
        });
        self.conns.push(Conn {
            stream,
            fd,
            shared,
            phase: Phase::Handshake {
                deadline: Instant::now() + HANDSHAKE_TIMEOUT,
            },
            reader: FrameReader::new(),
            alive: true,
        });
    }

    /// Pulls every complete frame the socket has for us and dispatches by
    /// phase.
    fn service_read(server: &Arc<ServerShared>, conn: &mut Conn) {
        while conn.alive {
            match conn.reader.step(conn.fd) {
                ReadStep::Frame(tag, body) => Shard::dispatch_frame(server, conn, tag, body),
                ReadStep::WouldBlock => return,
                ReadStep::Eof | ReadStep::Corrupt => {
                    conn.alive = false;
                }
            }
        }
    }

    fn dispatch_frame(server: &Arc<ServerShared>, conn: &mut Conn, tag: u8, body: Vec<u8>) {
        match &conn.phase {
            Phase::Handshake { .. } => {
                if Shard::complete_handshake(server, conn, tag, &body).is_err() {
                    conn.alive = false;
                }
            }
            Phase::Open { session } => {
                if tag == ControlMsg::Goodbye.tag() {
                    // A graceful departure drains the session: every later
                    // send or receive on it is a deterministic Loss.
                    session.drain();
                    conn.alive = false;
                } else {
                    session.push_frame(tag, body);
                }
            }
        }
    }

    /// Validates a `Hello`, registers the session, and queues the shared
    /// pre-encoded `Welcome` frame. Any protocol violation closes the
    /// connection without a session ever existing.
    fn complete_handshake(
        server: &Arc<ServerShared>,
        conn: &mut Conn,
        tag: u8,
        body: &[u8],
    ) -> Result<(), ()> {
        let hello = ControlMsg::decode_body(tag, body).map_err(|_| ())?;
        let ControlMsg::Hello {
            magic,
            version,
            client_id,
            seed,
        } = hello
        else {
            return Err(());
        };
        let id = client_id as usize;
        if magic != PROTO_MAGIC
            || version != PROTO_VERSION
            || id >= server.n_clients
            || seed != server.seed
        {
            return Err(());
        }
        let hello_bytes = super::socket::FRAME_HEADER_BYTES + body.len() as u64;
        // Register the session *before* queueing the welcome: a client that
        // holds its Welcome must already be visible to wait_for_clients.
        let session = Session::new(conn.shared.clone());
        conn.phase = Phase::Open {
            session: session.clone(),
        };
        {
            let mut sessions = server.sessions.lock().expect("sessions poisoned");
            if let Some(old) = sessions[id].replace(session) {
                // A returning client: the old link is superseded. Count it
                // as a retry (the reconnect IS the retransmission budget of
                // this backend) and force the stale connection out.
                server.reconnects.fetch_add(1, Ordering::Relaxed);
                old.close();
            }
        }
        let welcome_bytes = conn
            .shared
            .enqueue(&server.welcome_frame, None)
            .map_err(|_| ())?;
        server.pending_up.fetch_add(hello_bytes, Ordering::Relaxed);
        server
            .pending_down
            .fetch_add(welcome_bytes, Ordering::Relaxed);
        server.pending_msgs.fetch_add(2, Ordering::Relaxed);
        server.registration.notify_all();
        Ok(())
    }

    /// Flushes every connection with queued bytes (cheap no-op otherwise)
    /// and applies flush outcomes.
    fn service_writes(&mut self) {
        for conn in &mut self.conns {
            if !conn.alive {
                continue;
            }
            match conn.shared.flush() {
                FlushStatus::Idle | FlushStatus::WantWrite => {}
                FlushStatus::FlushedClose | FlushStatus::Dead => conn.alive = false,
            }
        }
    }

    fn expire_handshakes(&mut self) {
        let now = Instant::now();
        for conn in &mut self.conns {
            if let Phase::Handshake { deadline } = conn.phase {
                if now >= deadline {
                    conn.alive = false;
                }
            }
        }
    }

    /// Drops reaped connections: the write queue is marked dead (blocked
    /// senders fail fast), the session drains, and the socket force-closes
    /// so the peer observes EOF rather than a stall.
    fn reap(&mut self) {
        self.conns.retain(|conn| {
            if conn.alive {
                return true;
            }
            conn.shared.mark_dead();
            if let Phase::Open { session } = &conn.phase {
                session.drain();
            }
            conn.stream.shutdown_now();
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8, body: &[u8]) -> Arc<[u8]> {
        super::super::socket::encode_frame(tag, body)
    }

    #[test]
    fn write_queue_tracks_offsets_across_partial_writes() {
        let mut q = WriteQueue::new();
        q.push(frame(1, b"abc")); // 8 bytes on the wire
        q.push(frame(2, b"")); // 5 bytes
        assert_eq!(q.pending_bytes(), 13);
        // Partial write inside the first frame.
        q.advance(3);
        assert_eq!(q.pending_bytes(), 10);
        let slices = q.gather(16);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].len(), 5);
        // A write spanning the frame boundary.
        q.advance(7);
        assert_eq!(q.pending_bytes(), 3);
        assert_eq!(q.gather(16).len(), 1);
        q.advance(3);
        assert!(q.is_empty());
        assert!(q.gather(16).is_empty());
    }

    #[test]
    #[should_panic(expected = "advanced past the queued bytes")]
    fn write_queue_rejects_overadvance() {
        let mut q = WriteQueue::new();
        q.push(frame(1, b"x"));
        q.advance(7);
    }

    #[test]
    fn gather_respects_slice_cap() {
        let mut q = WriteQueue::new();
        for i in 0..10 {
            q.push(frame(i, &[i]));
        }
        assert_eq!(q.gather(4).len(), 4);
        assert_eq!(q.gather(64).len(), 10);
    }

    #[test]
    fn rfl_net_threads_accepts_positive_integers_only() {
        assert_eq!(parse_net_threads(None), Ok(None));
        assert_eq!(parse_net_threads(Some("2")), Ok(Some(2)));
        for bad in ["0", "two", "-1", ""] {
            let err = parse_net_threads(Some(bad)).unwrap_err();
            assert!(
                err.contains("RFL_NET_THREADS") && err.contains(bad),
                "{err}"
            );
            assert!(err.contains("integer >= 1"), "{err}");
        }
    }
}
