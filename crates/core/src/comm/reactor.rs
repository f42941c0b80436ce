//! Event-driven socket server: a small number of sharded `poll(2)` loops
//! replace the accept thread and the per-session reader threads.
//!
//! Each shard owns a set of non-blocking connections and multiplexes them
//! through one `poll(2)` call over a *persistent* `pollfd` array that sits
//! beside a slab connection table (a vacant slot holds `fd = -1`, which
//! `poll` skips). Outside the stop path nothing in a wakeup visits every
//! connection except that array's `revents` scan, which takes no lock, makes
//! no call and stops once the count `poll` reported is consumed; everything
//! else is proportional to what is ready:
//!
//! * **Reads.** A readable connection costs one `read(2)` into the shard's
//!   64 KiB buffer (a short read means the socket is drained; level-triggered
//!   readiness reports whatever is left), and a chunk-fed [`FrameReader`]
//!   cuts the bytes into `[len][tag][body]` frames. A body grows with the
//!   bytes that actually arrive, so a header alone cannot make the server
//!   allocate the length it claims. A freshly adopted connection is read
//!   speculatively: accept → `Hello` → `Welcome` flush is one wakeup.
//! * **Writes.** A sender that queues a frame lists its connection — once,
//!   guarded by a flag — on the owning shard's dirty list; the shard flushes
//!   the listed connections plus those that reported `POLLOUT`, with
//!   `writev(2)` and partial-write resume. `POLLOUT` is a bit in the
//!   persistent array that the last flush outcome sets or clears.
//! * **Wakeups.** Cross-thread nudges (a listed connection, an accepted
//!   stream in the inbox, a stop request) coalesce on the shard's [`Waker`]:
//!   only the first nudge since the shard last drained its self-pipe writes
//!   a byte. Frames the shard queues itself (the `Welcome`) are listed
//!   without waking anything. Nothing in the server sleep-polls.
//! * **Deadlines.** Handshake deadlines are issued in order, so they sit in
//!   a FIFO whose front is the next `poll` timeout; connections that die in
//!   a wakeup go on a dead list that feeds the reap at its end.
//!
//! Shard 0 additionally owns the listener and round-robins accepted
//! connections across shards.
//!
//! Backpressure: every connection's write queue is bounded
//! ([`WRITE_BUF_BYTES`], 16 MiB). An enqueue that would
//! overflow the bound blocks the *sender* (the round loop) on a condvar
//! until the reactor drains space or the send deadline passes — a wedged
//! client costs one bounded wait, never unbounded server memory. Broadcast
//! is encode-once: the transport encodes a frame into one `Arc<[u8]>` and
//! every recipient queues a refcount bump, not a copy.

use super::message::{ControlMsg, PROTO_MAGIC, PROTO_VERSION};
use super::session::{Deadline, Session};
use super::socket::{
    reserve_body, Listener, WireStream, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, READ_CHUNK_BYTES,
};
use super::sys;
use std::collections::VecDeque;
use std::io;
use std::ops::ControlFlow;
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

/// Reads one connection gets in a wakeup when each of them fills the
/// buffer: a peer that writes as fast as the shard reads must not starve
/// the shard's other connections.
const MAX_READS_PER_WAKEUP: usize = 16;

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
struct WriteQueue {
    /// `(frame, offset)`: `offset` bytes of the front frame are already on
    /// the wire.
    segs: VecDeque<(Arc<[u8]>, usize)>,
    /// Total unwritten bytes across all segments.
    queued: usize,
}

impl WriteQueue {
    /// Appends one encoded frame.
    fn push(&mut self, frame: Arc<[u8]>) {
        self.queued += frame.len();
        self.segs.push_back((frame, 0));
    }

    /// Unwritten bytes currently queued.
    fn pending_bytes(&self) -> usize {
        self.queued
    }

    fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// The unwritten tails of up to `max_slices` queued frames, in wire
    /// order — ready for one vectored write.
    fn gather(&self, max_slices: usize) -> Vec<&[u8]> {
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
    fn advance(&mut self, mut n: usize) {
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

/// What a server's reactor has done since it was bound, summed over its
/// shards ([`SocketTransport::reactor_counters`]). After a shutdown
/// `bytes_in` and `bytes_out` equal the upload and download bytes of the
/// [`CommStats`] ledger when every peer spoke the protocol.
///
/// [`SocketTransport::reactor_counters`]: super::socket::SocketTransport::reactor_counters
/// [`CommStats`]: super::stats::CommStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorCounters {
    /// Returns from `poll(2)`.
    pub wakeups: u64,
    /// Descriptors those returns reported ready; `ready ÷ wakeups` is the
    /// batch one wakeup serves.
    pub ready: u64,
    /// `read(2)` calls on connections.
    pub reads: u64,
    /// Complete frames cut out of what those calls returned.
    pub frames_in: u64,
    /// Bytes those calls returned.
    pub bytes_in: u64,
    /// Flushes of one connection's write queue (it was listed, or reported
    /// `POLLOUT`).
    pub flushes: u64,
    /// `writev(2)` calls that accepted bytes.
    pub writevs: u64,
    /// Bytes those calls accepted.
    pub bytes_out: u64,
    /// Bytes written to a self-pipe: the nudges that were not coalesced.
    pub wake_writes: u64,
    /// Handshakes completed (`Hello` validated, `Welcome` queued).
    pub handshakes: u64,
}

/// One shard's share of [`ReactorCounters`]. Only the shard's own thread
/// writes these, so an update is a relaxed load and store ([`bump`]), not a
/// read-modify-write; they publish nothing but themselves.
#[derive(Default)]
struct ShardCounters {
    wakeups: AtomicU64,
    ready: AtomicU64,
    reads: AtomicU64,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    flushes: AtomicU64,
    writevs: AtomicU64,
    bytes_out: AtomicU64,
    handshakes: AtomicU64,
}

/// Single-writer increment of a [`ShardCounters`] field.
fn bump(counter: &AtomicU64, n: usize) {
    counter.store(
        counter.load(Ordering::Relaxed) + n as u64,
        Ordering::Relaxed,
    );
}

/// Wakes one shard's `poll(2)` through its self-pipe, one byte per batch of
/// nudges: only the first nudge since the shard last drained the pipe
/// writes.
pub(crate) struct Waker {
    tx: OwnedFd,
    /// A byte is in the pipe, or about to be, that the shard has not
    /// drained yet.
    pending: AtomicBool,
    /// Bytes written ([`ReactorCounters::wake_writes`]); any thread nudges.
    writes: AtomicU64,
}

impl Waker {
    /// The caller publishes its work (a dirty-list or inbox entry, the stop
    /// flag) *before* it calls this.
    pub(crate) fn wake(&self) {
        // Pairs with the swap in `Shard::drain_wake_pipe`. A nudge that
        // finds the flag set is ordered before the shard's clear, and the
        // shard takes its lists after the clear, so it sees this nudge's
        // work; a nudge after the clear finds the flag down and writes.
        if !self.pending.swap(true, Ordering::SeqCst) {
            self.writes.fetch_add(1, Ordering::Relaxed);
            let _ = sys::write_fd(self.tx.as_raw_fd(), &[1]);
        }
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
    /// Senders blocked on `space`; a flush notifies only when there are any.
    waiters: usize,
}

/// What a flush attempt left behind.
enum FlushStatus {
    /// Nothing queued (and no pending close).
    Idle,
    /// The kernel buffer filled; poll for `POLLOUT`.
    WantWrite,
    /// Queue drained and a graceful close was requested.
    FlushedClose,
    /// The socket died mid-write, or the connection was hard-closed.
    Dead,
}

/// The write half of one connection, shared between the reactor shard that
/// flushes it and the transport threads that enqueue into it.
pub(crate) struct ConnShared {
    state: Mutex<QueueState>,
    /// Signalled when the reactor drains queue space (backpressure waits).
    space: Condvar,
    /// On the owning shard's dirty list and not yet taken off it for a
    /// flush: whoever raises the flag lists the connection, everyone else
    /// knows a flush is already owed.
    dirty: AtomicBool,
    shard: Arc<ShardHandle>,
    /// This connection's slot in the owning shard's table.
    slot: usize,
    /// A cloned stream handle used to force-close the socket from any
    /// thread; the reactor notices via `poll` and reaps the connection.
    closer: Box<dyn WireStream>,
    fd: RawFd,
}

impl ConnShared {
    /// Queues one encoded frame for delivery and returns its wire size. A
    /// full queue blocks until space frees up or `deadline` passes —
    /// backpressure lands on the sender, not on server memory.
    pub(crate) fn enqueue(
        &self,
        frame: &Arc<[u8]>,
        deadline: Deadline,
    ) -> Result<u64, EnqueueError> {
        let mut st = self.state.lock().expect("write queue poisoned");
        loop {
            if !st.open {
                return Err(EnqueueError::Closed);
            }
            if st.q.is_empty() || st.q.pending_bytes() + frame.len() <= WRITE_BUF_BYTES {
                st.q.push(frame.clone());
                drop(st);
                self.list();
                return Ok(frame.len() as u64);
            }
            if deadline.passed() {
                return Err(EnqueueError::TimedOut);
            }
            st.waiters += 1;
            st = deadline
                .wait(&self.space, st)
                .expect("write queue poisoned");
            st.waiters -= 1;
        }
    }

    /// Reactor-side enqueue (the `Welcome`): queued whatever the bound,
    /// because the reactor must never block on its own queues, and not
    /// listed, because the shard lists its own work without waking itself.
    fn enqueue_unbounded(&self, frame: &Arc<[u8]>) -> Result<u64, EnqueueError> {
        let mut st = self.state.lock().expect("write queue poisoned");
        if !st.open {
            return Err(EnqueueError::Closed);
        }
        st.q.push(frame.clone());
        Ok(frame.len() as u64)
    }

    /// Raises the dirty flag; `true` if the caller is the one who must list
    /// the connection.
    fn mark_dirty(&self) -> bool {
        // Pairs with the store in `flush`, made under the queue lock: a
        // sender raises the flag after it has queued, so if it finds the
        // flag up, the flush that will lower it has yet to take the lock
        // and will see the frame; once that flush has let go of the lock
        // the flag is down and the next sender lists again.
        !self.dirty.swap(true, Ordering::SeqCst)
    }

    /// Puts the connection on its shard's dirty list (once) and nudges the
    /// shard. Called with the state lock released.
    fn list(&self) {
        if self.mark_dirty() {
            self.shard
                .dirty
                .lock()
                .expect("dirty list poisoned")
                .push(self.slot);
            self.shard.waker.wake();
        }
    }

    /// Hard close: drop queued frames, refuse new ones, and force the
    /// socket down so the owning shard reaps the connection.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.open = false;
        st.q = WriteQueue::default();
        drop(st);
        self.space.notify_all();
        self.closer.shutdown_now();
        self.list();
    }

    /// Graceful close: refuse new frames, flush what is queued, then close.
    pub(crate) fn close_after_flush(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.open = false;
        st.close_after_flush = true;
        drop(st);
        self.space.notify_all();
        self.list();
    }

    /// Reactor-side: mark the queue closed when the connection is reaped so
    /// blocked senders fail fast instead of waiting out their deadline.
    fn mark_dead(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.open = false;
        st.close_after_flush = false;
        st.q = WriteQueue::default();
        drop(st);
        self.space.notify_all();
    }

    /// Reactor-side: take the connection off the dirty list's books and
    /// write as much of the queue as the kernel will take, one `writev`
    /// gather at a time, resuming partial writes.
    fn flush(&self) -> FlushStatus {
        let counters = &self.shard.counters;
        bump(&counters.flushes, 1);
        let mut st = self.state.lock().expect("write queue poisoned");
        // Inside the lock and ahead of the writes (see `mark_dirty`).
        // Lowered after the lock is released, a frame queued in between
        // would find the flag up, go unlisted, and wait for the next frame
        // to this connection.
        self.dirty.store(false, Ordering::SeqCst);
        loop {
            if st.q.is_empty() {
                return match (st.open, st.close_after_flush) {
                    (_, true) => FlushStatus::FlushedClose,
                    (true, false) => FlushStatus::Idle,
                    (false, false) => FlushStatus::Dead,
                };
            }
            let wrote = {
                let slices = st.q.gather(sys::MAX_IOV);
                sys::writev_fd(self.fd, &slices)
            };
            match wrote {
                Ok(n) => {
                    st.q.advance(n);
                    bump(&counters.writevs, 1);
                    bump(&counters.bytes_out, n);
                    if st.waiters > 0 {
                        self.space.notify_all();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushStatus::WantWrite,
                Err(_) => return FlushStatus::Dead,
            }
        }
    }
}

/// The cross-thread face of one shard: its waker, an inbox of freshly
/// accepted connections waiting to be adopted into the shard's poll set,
/// the dirty list senders put connections on, and the shard's counters.
pub(crate) struct ShardHandle {
    waker: Waker,
    inbox: Mutex<Vec<Box<dyn WireStream>>>,
    /// Slots of connections that have frames queued, or a close requested,
    /// since the shard last took the list (see [`ConnShared::dirty`]). A
    /// slot may have changed hands by the time it is taken; flushing the
    /// newcomer is harmless.
    dirty: Mutex<Vec<usize>>,
    counters: ShardCounters,
}

/// `sessions[k]` is client `k`'s session, if it ever registered; a drained
/// session keeps its slot until a reconnect replaces it.
pub(crate) struct SessionTable {
    pub(crate) slots: Vec<Option<Arc<Session>>>,
    /// How many slots are `Some` — what registration is waiting on.
    occupied: usize,
}

impl SessionTable {
    pub(crate) fn new(n_clients: usize) -> SessionTable {
        SessionTable {
            slots: vec![None; n_clients],
            occupied: 0,
        }
    }

    /// Whether every client has registered at least once. Only then is it
    /// worth asking each session whether it is still live.
    pub(crate) fn is_full(&self) -> bool {
        self.occupied == self.slots.len()
    }

    pub(crate) fn live(&self) -> usize {
        (self.slots.iter().flatten())
            .filter(|s| s.is_live())
            .count()
    }

    /// Installs client `id`'s new session; returns the one it supersedes.
    fn register(&mut self, id: usize, session: Arc<Session>) -> Option<Arc<Session>> {
        let old = self.slots[id].replace(session);
        self.occupied += usize::from(old.is_none());
        old
    }
}

/// Server state shared between the transport (round loop) and the reactor
/// shards.
pub(crate) struct ServerShared {
    pub(crate) sessions: Mutex<SessionTable>,
    /// Signalled when a handshake leaves the session table full — the last
    /// client registering, or a reconnect into a full table — which is the
    /// only time [`wait_for_clients`] can have something new to find.
    ///
    /// [`wait_for_clients`]: super::socket::SocketTransport::wait_for_clients
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
    /// Wakes every shard (stop requests).
    pub(crate) fn wake_all(&self) {
        for shard in &self.shards {
            shard.waker.wake();
        }
    }

    /// The shards' counters, summed.
    pub(crate) fn counters(&self) -> ReactorCounters {
        let mut sum = ReactorCounters::default();
        for shard in &self.shards {
            let c = &shard.counters;
            let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
            sum.wakeups += read(&c.wakeups);
            sum.ready += read(&c.ready);
            sum.reads += read(&c.reads);
            sum.frames_in += read(&c.frames_in);
            sum.bytes_in += read(&c.bytes_in);
            sum.flushes += read(&c.flushes);
            sum.writevs += read(&c.writevs);
            sum.bytes_out += read(&c.bytes_out);
            sum.wake_writes += read(&shard.waker.writes);
            sum.handshakes += read(&c.handshakes);
        }
        sum
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
            waker: Waker {
                tx,
                pending: AtomicBool::new(false),
                writes: AtomicU64::new(0),
            },
            inbox: Mutex::new(Vec::new()),
            dirty: Mutex::new(Vec::new()),
            counters: ShardCounters::default(),
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
        let shard = Shard::new(idx, wake_rx, listener.take(), shared.clone());
        threads.push(
            std::thread::Builder::new()
                .name(format!("rfl-net-{idx}"))
                .spawn(move || shard.run())?,
        );
    }
    Ok(threads)
}

/// A header claimed a body longer than [`MAX_FRAME_BYTES`].
#[derive(Debug, PartialEq)]
struct Corrupt;

/// Read-side frame reassembly: `[u32 le len][u8 tag]` header, then the
/// body, fed whatever bytes a `read(2)` returned — any number of frames, cut
/// anywhere.
struct FrameReader {
    header: [u8; 5],
    header_have: usize,
    /// The body so far, once the header is whole; `need` bytes complete it.
    body: Vec<u8>,
    need: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            header: [0; 5],
            header_have: 0,
            body: Vec::new(),
            need: 0,
        }
    }

    /// Consumes `chunk`, handing every frame it completes to `emit` as
    /// `(tag, body)`, in order; a trailing partial frame waits for the next
    /// chunk. `emit` breaking stops the feed and drops the rest of the chunk
    /// (the connection is going away). After `Err` the reader is spent.
    ///
    /// A body's buffer grows by [`reserve_body`] as bytes arrive, so a peer
    /// has to send what it claims before the server holds it.
    fn feed(
        &mut self,
        mut chunk: &[u8],
        mut emit: impl FnMut(u8, Vec<u8>) -> ControlFlow<()>,
    ) -> Result<(), Corrupt> {
        loop {
            if self.header_have < self.header.len() {
                let take = (self.header.len() - self.header_have).min(chunk.len());
                self.header[self.header_have..][..take].copy_from_slice(&chunk[..take]);
                self.header_have += take;
                chunk = &chunk[take..];
                if self.header_have < self.header.len() {
                    return Ok(());
                }
                let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes"));
                self.need = len as usize;
                if self.need > MAX_FRAME_BYTES {
                    return Err(Corrupt);
                }
            }
            let take = (self.need - self.body.len()).min(chunk.len());
            reserve_body(&mut self.body, self.need, take);
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() < self.need {
                return Ok(());
            }
            self.header_have = 0;
            if emit(self.header[4], std::mem::take(&mut self.body)).is_break() {
                return Ok(());
            }
        }
    }
}

enum Phase {
    /// Accepted; `Hello` not yet validated. The deadline is in
    /// [`Shard::handshakes`].
    Handshake,
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
    /// Distinguishes this connection from earlier tenants of its slot.
    serial: u64,
    /// Cleared once, by [`Shard::kill`], which also puts the slot on the
    /// dead list.
    alive: bool,
}

/// `pollfds[WAKE]` is the self-pipe, `pollfds[LISTENER]` the listener (`fd =
/// -1` on shards that have none), and `pollfds[CONN_BASE + slot]` belongs to
/// `conns[slot]`.
const WAKE: usize = 0;
const LISTENER: usize = 1;
const CONN_BASE: usize = 2;

/// An entry `poll(2)` skips.
const VACANT: sys::PollFd = sys::PollFd {
    fd: -1,
    events: 0,
    revents: 0,
};

struct Shard {
    idx: usize,
    wake_rx: OwnedFd,
    listener: Option<Listener>,
    shared: Arc<ServerShared>,
    /// This shard's entry of `shared.shards`.
    handle: Arc<ShardHandle>,
    /// The persistent `poll(2)` set; `pollfds.len() == CONN_BASE +
    /// conns.len()` always.
    pollfds: Vec<sys::PollFd>,
    /// Slab connection table: a reaped connection leaves `None` (and `fd =
    /// -1` in `pollfds`) and its slot on `free`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Occupied slots.
    live: usize,
    next_serial: u64,
    /// `(deadline, slot, serial)` of every adopted connection, oldest — and
    /// so soonest — first. Entries outlive their handshake; they are
    /// dropped when they reach the front.
    handshakes: VecDeque<(Instant, usize, u64)>,
    /// Connections to flush this wakeup: the shard's own listings (a queued
    /// `Welcome`, a reported `POLLOUT`) plus the handle's dirty list.
    to_flush: Vec<usize>,
    /// Connections that died this wakeup, for [`Shard::reap`].
    dead: Vec<usize>,
    /// Where every `read(2)` lands.
    buf: Box<[u8]>,
    /// Round-robin cursor for distributing accepted connections (shard 0).
    next_rr: usize,
    stop_deadline: Option<Instant>,
}

impl Shard {
    fn new(
        idx: usize,
        wake_rx: OwnedFd,
        listener: Option<Listener>,
        shared: Arc<ServerShared>,
    ) -> Shard {
        let wake = sys::PollFd::new(wake_rx.as_raw_fd(), sys::POLLIN);
        let accept =
            (listener.as_ref()).map_or(VACANT, |l| sys::PollFd::new(l.raw_fd(), sys::POLLIN));
        Shard {
            idx,
            wake_rx,
            listener,
            handle: shared.shards[idx].clone(),
            shared,
            pollfds: vec![wake, accept],
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_serial: 0,
            handshakes: VecDeque::new(),
            to_flush: Vec::new(),
            dead: Vec::new(),
            buf: vec![0; READ_CHUNK_BYTES].into_boxed_slice(),
            next_rr: 0,
            stop_deadline: None,
        }
    }

    fn run(mut self) {
        loop {
            let stopping = self.shared.stop.load(Ordering::Relaxed);
            if stopping {
                self.stop_listening();
                let deadline = *self
                    .stop_deadline
                    .get_or_insert_with(|| Instant::now() + STOP_FLUSH_GRACE);
                // Handshakes can't complete on a stopped server, and past
                // the grace deadline even graceful closes go hard. The stop
                // path is the one place that walks the whole table.
                let expired = Instant::now() >= deadline;
                for slot in 0..self.conns.len() {
                    let handshaking = matches!(
                        self.conns[slot],
                        Some(Conn {
                            phase: Phase::Handshake,
                            ..
                        })
                    );
                    if handshaking || expired {
                        self.kill(slot);
                    }
                }
                self.reap();
                if self.live == 0 {
                    break;
                }
            }

            let timeout_ms = self.poll_timeout_ms(stopping);
            let Ok(ready) = sys::poll_fds(&mut self.pollfds, timeout_ms) else {
                // Only catastrophic poll failures land here (EINTR is
                // retried); treat them as a stop request.
                self.shared.stop.store(true, Ordering::Relaxed);
                continue;
            };
            bump(&self.handle.counters.wakeups, 1);
            bump(&self.handle.counters.ready, ready);
            self.serve(ready);
        }
    }

    /// One wakeup: `ready` entries of `pollfds` carry `revents`.
    fn serve(&mut self, ready: usize) {
        let mut unseen = ready;
        if self.pollfds[WAKE].revents != 0 {
            unseen -= 1;
            self.drain_wake_pipe();
        }
        if self.pollfds[LISTENER].revents != 0 {
            unseen -= 1;
            self.accept_ready();
        }
        self.adopt_inbox();

        // The one pass over the whole set: no lock, no call, and it ends
        // with the last ready entry. Slots adopted above were vacant when
        // `poll` ran, so their `revents` read zero.
        let mut at = CONN_BASE;
        while unseen > 0 && at < self.pollfds.len() {
            let revents = self.pollfds[at].revents;
            let slot = at - CONN_BASE;
            at += 1;
            if revents == 0 {
                continue;
            }
            unseen -= 1;
            if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                self.kill(slot);
                continue;
            }
            if revents & (sys::POLLIN | sys::POLLHUP) != 0 {
                self.service_read(slot);
            }
            if revents & sys::POLLOUT != 0 {
                self.to_flush.push(slot);
            }
        }

        self.flush_listed();
        self.expire_handshakes();
        self.reap();
    }

    fn poll_timeout_ms(&mut self, stopping: bool) -> i32 {
        if stopping {
            return 50;
        }
        // Only a pending handshake deadline needs a timed wakeup;
        // everything else arrives as readiness or a self-pipe nudge.
        while let Some(&(deadline, slot, serial)) = self.handshakes.front() {
            if self.is_handshaking(slot, serial) {
                let left = deadline.saturating_duration_since(Instant::now());
                return (left.as_millis() as i32 + 1).clamp(1, 1000);
            }
            self.handshakes.pop_front();
        }
        -1
    }

    /// Whether `slot` still holds the connection `serial`, short of a valid
    /// `Hello`.
    fn is_handshaking(&self, slot: usize, serial: u64) -> bool {
        self.conns[slot].as_ref().is_some_and(|conn| {
            conn.serial == serial && conn.alive && matches!(conn.phase, Phase::Handshake)
        })
    }

    fn drain_wake_pipe(&mut self) {
        // Nudges coalesce, so the pipe holds a byte or two: a short read
        // has emptied it.
        let (rx, full) = (self.wake_rx.as_raw_fd(), self.buf.len());
        while sys::read_fd(rx, &mut self.buf).is_ok_and(|n| n == full) {}
        // Lower the flag *after* the drain and *before* the lists are
        // taken (see `Waker::wake`). The other way round, a nudge that
        // lands between taking a list and lowering the flag writes no byte
        // and its work waits for the next unrelated wakeup.
        self.handle.waker.pending.swap(false, Ordering::SeqCst);
    }

    fn stop_listening(&mut self) {
        self.listener = None;
        self.pollfds[LISTENER] = VACANT;
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
                Err(_) => return self.stop_listening(),
            }
        }
    }

    fn adopt_inbox(&mut self) {
        let pending = std::mem::take(&mut *self.handle.inbox.lock().expect("shard inbox poisoned"));
        for stream in pending {
            self.adopt(stream);
        }
    }

    /// Wraps a freshly accepted (already non-blocking) stream into a
    /// handshaking connection in this shard's poll set, and reads it at
    /// once: a client writes its `Hello` right behind its `connect`, so the
    /// bytes are usually there and the handshake needs no wakeup of its
    /// own.
    fn adopt(&mut self, stream: Box<dyn WireStream>) {
        let Ok(closer) = stream.try_clone_stream() else {
            return;
        };
        let fd = stream.raw_fd();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.pollfds.push(VACANT);
            self.conns.len() - 1
        });
        let shared = Arc::new(ConnShared {
            state: Mutex::new(QueueState {
                q: WriteQueue::default(),
                open: true,
                close_after_flush: false,
                waiters: 0,
            }),
            space: Condvar::new(),
            dirty: AtomicBool::new(false),
            shard: self.handle.clone(),
            slot,
            closer,
            fd,
        });
        let serial = self.next_serial;
        self.next_serial += 1;
        self.conns[slot] = Some(Conn {
            stream,
            fd,
            shared,
            phase: Phase::Handshake,
            reader: FrameReader::new(),
            serial,
            alive: true,
        });
        self.pollfds[CONN_BASE + slot] = sys::PollFd::new(fd, sys::POLLIN);
        self.live += 1;
        self.handshakes
            .push_back((Instant::now() + HANDSHAKE_TIMEOUT, slot, serial));
        self.service_read(slot);
    }

    /// Marks `slot`'s connection for this wakeup's reap.
    fn kill(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut().filter(|c| c.alive) {
            conn.alive = false;
            self.dead.push(slot);
        }
    }

    /// Reads what the socket has — one `read(2)` unless it fills the whole
    /// buffer — and dispatches every frame the bytes complete.
    fn service_read(&mut self, slot: usize) {
        let Shard {
            conns,
            buf,
            shared: server,
            handle,
            to_flush,
            ..
        } = self;
        let Some(conn) = conns[slot].as_mut().filter(|c| c.alive) else {
            return;
        };
        let counters = &handle.counters;
        let mut alive = true;
        for _ in 0..MAX_READS_PER_WAKEUP {
            bump(&counters.reads, 1);
            let n = match sys::read_fd(conn.fd, buf) {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // EOF, or the socket died.
                _ => {
                    alive = false;
                    break;
                }
            };
            bump(&counters.bytes_in, n);
            let Conn {
                reader,
                phase,
                shared: queue,
                ..
            } = conn;
            let fed = reader.feed(&buf[..n], |tag, body| {
                bump(&counters.frames_in, 1);
                match phase {
                    Phase::Handshake => {
                        match Shard::complete_handshake(server, queue, tag, &body) {
                            Ok(session) => {
                                *phase = Phase::Open { session };
                                bump(&counters.handshakes, 1);
                                if queue.mark_dirty() {
                                    to_flush.push(slot);
                                }
                                ControlFlow::Continue(())
                            }
                            Err(()) => {
                                alive = false;
                                ControlFlow::Break(())
                            }
                        }
                    }
                    Phase::Open { session } if tag == ControlMsg::Goodbye.tag() => {
                        // A graceful departure drains the session: every
                        // later send or receive on it is a deterministic
                        // Loss.
                        session.drain();
                        alive = false;
                        ControlFlow::Break(())
                    }
                    Phase::Open { session } => {
                        session.push_frame(tag, body);
                        ControlFlow::Continue(())
                    }
                }
            });
            alive &= fed.is_ok();
            // A short read drained the socket; level-triggered readiness
            // reports anything that arrives behind it.
            if !alive || n < buf.len() {
                break;
            }
        }
        if !alive {
            self.kill(slot);
        }
    }

    /// Validates a `Hello`, registers the session, and queues the shared
    /// pre-encoded `Welcome` frame. Any protocol violation closes the
    /// connection without a session ever existing.
    fn complete_handshake(
        server: &ServerShared,
        queue: &Arc<ConnShared>,
        tag: u8,
        body: &[u8],
    ) -> Result<Arc<Session>, ()> {
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
        let hello_bytes = FRAME_HEADER_BYTES + body.len() as u64;
        // Register the session *before* queueing the welcome: a client that
        // holds its Welcome must already be visible to wait_for_clients.
        let session = Session::new(queue.clone());
        let (old, full) = {
            let mut sessions = server.sessions.lock().expect("sessions poisoned");
            (sessions.register(id, session.clone()), sessions.is_full())
        };
        if let Some(old) = old {
            // A returning client: the old link is superseded. Count it
            // as a retry (the reconnect IS the retransmission budget of
            // this backend) and force the stale connection out.
            server.reconnects.fetch_add(1, Ordering::Relaxed);
            old.close();
        }
        let welcome_bytes = queue
            .enqueue_unbounded(&server.welcome_frame)
            .map_err(|_| ())?;
        server.pending_up.fetch_add(hello_bytes, Ordering::Relaxed);
        server
            .pending_down
            .fetch_add(welcome_bytes, Ordering::Relaxed);
        server.pending_msgs.fetch_add(2, Ordering::Relaxed);
        if full {
            server.registration.notify_all();
        }
        Ok(session)
    }

    /// Flushes exactly the connections someone listed — senders on the
    /// handle's dirty list, this wakeup's `Welcome`s and `POLLOUT` reports
    /// on the shard's own — and lets each outcome set or clear the
    /// connection's `POLLOUT` bit.
    fn flush_listed(&mut self) {
        self.to_flush
            .append(&mut self.handle.dirty.lock().expect("dirty list poisoned"));
        for i in 0..self.to_flush.len() {
            let slot = self.to_flush[i];
            let Some(conn) = self.conns[slot].as_ref().filter(|c| c.alive) else {
                continue;
            };
            let events = &mut self.pollfds[CONN_BASE + slot].events;
            match conn.shared.flush() {
                FlushStatus::Idle => *events &= !sys::POLLOUT,
                FlushStatus::WantWrite => *events |= sys::POLLOUT,
                FlushStatus::FlushedClose | FlushStatus::Dead => self.kill(slot),
            }
        }
        self.to_flush.clear();
    }

    fn expire_handshakes(&mut self) {
        while let Some(&(deadline, slot, serial)) = self.handshakes.front() {
            if deadline > Instant::now() {
                break;
            }
            self.handshakes.pop_front();
            if self.is_handshaking(slot, serial) {
                self.kill(slot);
            }
        }
    }

    /// Drops this wakeup's dead connections: the write queue is marked dead
    /// (blocked senders fail fast), the session drains, the socket
    /// force-closes so the peer observes EOF rather than a stall, and the
    /// slot is vacated.
    fn reap(&mut self) {
        for slot in self.dead.drain(..) {
            let conn = self.conns[slot].take().expect("listed by kill");
            conn.shared.mark_dead();
            if let Phase::Open { session } = &conn.phase {
                session.drain();
            }
            conn.stream.shutdown_now();
            self.pollfds[CONN_BASE + slot] = VACANT;
            self.free.push(slot);
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::message::MsgKind;
    use super::super::session::RecvError;
    use super::super::socket::{encode_frame, read_frame, write_frame};
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;

    fn frame(tag: u8, body: &[u8]) -> Arc<[u8]> {
        encode_frame(tag, body)
    }

    /// A lost wakeup fails a test after this long instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(20);
    const SEED: u64 = 7;

    /// Feeds `chunks` in order; everything emitted, or `Corrupt`.
    fn feed_all(reader: &mut FrameReader, chunks: &[&[u8]]) -> Result<Vec<(u8, Vec<u8>)>, Corrupt> {
        let mut frames = Vec::new();
        for chunk in chunks {
            reader.feed(chunk, |tag, body| {
                frames.push((tag, body));
                ControlFlow::Continue(())
            })?;
        }
        Ok(frames)
    }

    #[test]
    fn a_header_alone_reserves_at_most_one_read_chunk() {
        let mut reader = FrameReader::new();
        let mut header = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        header.push(0x02);
        // 256 MiB claimed, then silence.
        assert_eq!(feed_all(&mut reader, &[&header]), Ok(vec![]));
        assert_eq!(reader.need, MAX_FRAME_BYTES);
        assert!(reader.body.capacity() <= READ_CHUNK_BYTES);
        // What does arrive is held, and little more.
        let drip = vec![0xAB; 3 * READ_CHUNK_BYTES];
        assert_eq!(feed_all(&mut reader, &[&drip]), Ok(vec![]));
        assert_eq!(reader.body.len(), drip.len());
        assert!(reader.body.capacity() <= 2 * drip.len());
    }

    #[test]
    fn a_length_over_the_cap_is_corrupt() {
        let mut header = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        header.push(0x02);
        assert_eq!(feed_all(&mut FrameReader::new(), &[&header]), Err(Corrupt));
        // Also when the header arrives a byte at a time.
        let bytes: Vec<&[u8]> = header.chunks(1).collect();
        assert_eq!(feed_all(&mut FrameReader::new(), &bytes), Err(Corrupt));
    }

    #[test]
    fn empty_bodies_emit_as_soon_as_their_header_is_whole() {
        let wire = [frame(0x15, b""), frame(0x16, b"")].concat();
        let mut reader = FrameReader::new();
        assert_eq!(
            feed_all(&mut reader, &[&wire[..9], &wire[9..]]),
            Ok(vec![(0x15, vec![]), (0x16, vec![])])
        );
    }

    #[test]
    fn two_and_a_half_frames_emit_two_and_keep_the_half() {
        let wire = [frame(1, b"first"), frame(2, b"second"), frame(3, b"third")].concat();
        let cut = wire.len() - 4;
        let mut reader = FrameReader::new();
        assert_eq!(
            feed_all(&mut reader, &[&wire[..cut]]),
            Ok(vec![(1, b"first".to_vec()), (2, b"second".to_vec())])
        );
        assert_eq!(reader.body, b"t");
        assert_eq!(
            feed_all(&mut reader, &[&wire[cut..]]),
            Ok(vec![(3, b"third".to_vec())])
        );
    }

    #[test]
    fn a_break_drops_the_rest_of_the_chunk() {
        let wire = [frame(1, b"kept"), frame(0x15, b""), frame(2, b"dropped")].concat();
        let mut seen = Vec::new();
        let fed = FrameReader::new().feed(&wire, |tag, _| {
            seen.push(tag);
            if tag == 0x15 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!((fed, seen), (Ok(()), vec![1, 0x15]));
    }

    proptest! {
        /// Any frames, cut anywhere, truncated anywhere: `feed` emits exactly
        /// what `socket::read_frame` — the blocking reader every client end
        /// uses — reads from the same bytes.
        #[test]
        fn feed_agrees_with_read_frame_under_any_chunking(
            frames in prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u8>(), 0..300)),
                0..12,
            ),
            cuts in prop::collection::vec(1usize..97, 1..8),
            cut_tail in 0usize..40,
        ) {
            let mut wire = Vec::new();
            for (tag, body) in &frames {
                write_frame(&mut wire, *tag, body).expect("vec write");
            }
            wire.truncate(wire.len().saturating_sub(cut_tail));

            let mut oracle = Vec::new();
            let mut rest = wire.as_slice();
            while let Ok(frame) = read_frame(&mut rest) {
                oracle.push(frame);
            }

            let mut reader = FrameReader::new();
            let mut emitted = Vec::new();
            let (mut at, mut turn) = (0, 0);
            while at < wire.len() {
                let end = (at + cuts[turn % cuts.len()]).min(wire.len());
                let fed = reader.feed(&wire[at..end], |tag, body| {
                    emitted.push((tag, body));
                    ControlFlow::Continue(())
                });
                prop_assert_eq!(fed, Ok(()));
                (at, turn) = (end, turn + 1);
            }
            prop_assert_eq!(emitted, oracle);
        }

        /// The reactor's partial-write resume path: a queue of encoded frames
        /// drained in arbitrary byte-sized steps (including splits *inside*
        /// headers and across frame boundaries) emits exactly the
        /// concatenation of the frames, with `pending_bytes` bookkeeping exact
        /// at every step.
        #[test]
        fn write_queue_resumes_partial_writes_at_any_boundary(
            frames in prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)),
                1..6,
            ),
            steps in prop::collection::vec(1usize..8, 1..10),
            max_slices in 1usize..8,
        ) {
            let mut q = WriteQueue::default();
            let mut want = Vec::new();
            for (tag, body) in &frames {
                let frame = encode_frame(*tag, body);
                want.extend_from_slice(&frame);
                q.push(frame);
            }
            prop_assert_eq!(q.pending_bytes(), want.len());

            // Simulated kernel: accept `step` bytes of whatever the gather
            // exposes, cycling through the step sizes until drained.
            let mut wire = Vec::new();
            let mut next = 0usize;
            while !q.is_empty() {
                let slices = q.gather(max_slices);
                prop_assert!(!slices.is_empty());
                let exposed: usize = slices.iter().map(|s| s.len()).sum();
                let step = steps[next % steps.len()].min(exposed);
                next += 1;
                let mut take = step;
                for s in &slices {
                    let n = take.min(s.len());
                    wire.extend_from_slice(&s[..n]);
                    take -= n;
                    if take == 0 {
                        break;
                    }
                }
                let before = q.pending_bytes();
                q.advance(step);
                prop_assert_eq!(q.pending_bytes(), before - step);
            }
            prop_assert_eq!(&wire, &want);

            // And the byte stream parses back into the original frames.
            let mut reader = wire.as_slice();
            for (tag, body) in &frames {
                let (got_tag, got_body) = read_frame(&mut reader).unwrap();
                prop_assert_eq!(got_tag, *tag);
                prop_assert_eq!(&got_body, body);
            }
        }

        /// A single frame split at *every* byte boundary: a two-step drain
        /// (cut, rest) reproduces the frame for each possible cut point.
        #[test]
        fn write_queue_single_frame_splits_everywhere(
            tag in any::<u8>(),
            body in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let frame = encode_frame(tag, &body);
            for cut in 0..=frame.len() {
                let mut q = WriteQueue::default();
                q.push(frame.clone());
                let mut wire = Vec::new();
                for want in [cut, frame.len() - cut] {
                    let mut need = want;
                    while need > 0 {
                        let slices = q.gather(4);
                        let n = need.min(slices[0].len());
                        wire.extend_from_slice(&slices[0][..n]);
                        q.advance(n);
                        need -= n;
                    }
                }
                prop_assert!(q.is_empty());
                prop_assert_eq!(wire.as_slice(), &frame[..]);
            }
        }
    }

    #[test]
    fn nudges_coalesce_until_the_shard_lowers_the_flag() {
        let (handles, rx_ends) = build_shards(1).expect("pipe");
        let waker = &handles[0].waker;
        for _ in 0..3 {
            waker.wake();
        }
        assert_eq!(waker.writes.load(Ordering::Relaxed), 1);
        let mut buf = [0u8; 8];
        assert_eq!(sys::read_fd(rx_ends[0].as_raw_fd(), &mut buf).ok(), Some(1));
        // Drained but not lowered: still coalescing.
        waker.wake();
        assert_eq!(waker.writes.load(Ordering::Relaxed), 1);
        waker.pending.swap(false, Ordering::SeqCst);
        waker.wake();
        assert_eq!(waker.writes.load(Ordering::Relaxed), 2);
    }

    /// One listener-less shard on its own thread, serving `n` client ids
    /// over Unix socket pairs dropped into its inbox.
    struct Rig {
        shared: Arc<ServerShared>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Rig {
        fn new(n_clients: usize) -> Rig {
            let (shards, mut rx_ends) = build_shards(1).expect("pipe");
            let welcome = ControlMsg::Shutdown;
            let shared = Arc::new(ServerShared {
                sessions: Mutex::new(SessionTable::new(n_clients)),
                registration: Condvar::new(),
                reconnects: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                pending_up: AtomicU64::new(0),
                pending_down: AtomicU64::new(0),
                pending_msgs: AtomicU64::new(0),
                // Any frame will do for the peers of these tests.
                welcome_frame: frame(welcome.tag(), b""),
                n_clients,
                seed: SEED,
                shards,
            });
            let shard = Shard::new(0, rx_ends.remove(0), None, shared.clone());
            let thread = Some(std::thread::spawn(move || shard.run()));
            Rig { shared, thread }
        }

        /// Registers client `id` and returns the peer's end, whose reads
        /// give up after [`PATIENCE`].
        fn connect(&self, id: usize) -> (UnixStream, Arc<Session>) {
            let (mut ours, theirs) = UnixStream::pair().expect("socketpair");
            theirs.set_nonblocking(true).expect("nonblocking");
            ours.set_read_timeout(Some(PATIENCE)).expect("timeout");
            let shard = &self.shared.shards[0];
            shard.inbox.lock().unwrap().push(Box::new(theirs));
            shard.waker.wake();
            let mut body = Vec::new();
            let hello = ControlMsg::Hello {
                magic: PROTO_MAGIC,
                version: PROTO_VERSION,
                client_id: id as u32,
                seed: SEED,
            };
            hello.encode_body(&mut body);
            write_frame(&mut ours, hello.tag(), &body).expect("hello");
            read_frame(&mut ours).expect("welcome");
            // Registered before the welcome was queued.
            let session = self.shared.sessions.lock().unwrap().slots[id].clone();
            (ours, session.expect("registered"))
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            for session in self.shared.sessions.lock().unwrap().slots.iter().flatten() {
                session.close();
            }
            self.shared.stop.store(true, Ordering::Relaxed);
            self.shared.wake_all();
            let shard = self.thread.take().expect("joined once").join();
            if !std::thread::panicking() {
                shard.expect("shard thread");
            }
        }
    }

    #[test]
    fn a_goodbye_mid_chunk_stops_dispatch_of_what_follows_it() {
        let rig = Rig::new(1);
        let (mut peer, session) = rig.connect(0);
        let up = MsgKind::ModelUp.tag();
        let wire = [
            frame(up, b"before"),
            frame(ControlMsg::Goodbye.tag(), b""),
            frame(up, b"after"),
        ]
        .concat();
        // One write, so one read on the other side.
        peer.write_all(&wire).expect("write");
        let (body, _) = session.recv_frame(up, PATIENCE).expect("the frame before");
        assert_eq!(body, b"before");
        assert!(matches!(
            session.recv_frame(up, PATIENCE),
            Err(RecvError::Closed)
        ));
    }

    /// Draining is terminal: after a `Goodbye` the session refuses to send
    /// and reports every receive `Closed`; and `close()` releases a receive
    /// blocked on another thread at once, not at its timeout.
    #[test]
    fn a_drained_session_never_carries_traffic_again() {
        let rig = Rig::new(2);
        let (mut gone, session) = rig.connect(0);
        gone.write_all(&frame(ControlMsg::Goodbye.tag(), b""))
            .expect("goodbye");
        let deadline = Instant::now() + PATIENCE;
        while session.is_live() {
            assert!(Instant::now() < deadline, "the goodbye never drained");
            std::thread::yield_now();
        }
        let sent = session.send_frame(MsgKind::ModelDown.tag(), b"x", Deadline::after(PATIENCE));
        assert_eq!(sent.unwrap_err().kind(), io::ErrorKind::NotConnected);
        assert!(matches!(
            session.recv_frame(MsgKind::ModelUp.tag(), Duration::ZERO),
            Err(RecvError::Closed)
        ));

        let (_peer, live) = rig.connect(1);
        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                let t0 = Instant::now();
                let got = live.recv_frame(MsgKind::ModelUp.tag(), PATIENCE);
                (got, t0.elapsed())
            });
            // Give the receiver its chance to block first; either order
            // must pass.
            for _ in 0..1_000 {
                std::thread::yield_now();
            }
            live.close();
            let (got, waited) = blocked.join().expect("receiver");
            assert!(matches!(got, Err(RecvError::Closed)));
            assert!(waited < PATIENCE / 2, "released by its timeout: {waited:?}");
        });
    }

    /// Four threads queue frames for the eight connections of one shard,
    /// round after round. The peers sit behind a gate — they read a round
    /// only once every sender has queued it, and nothing is sent while they
    /// read — so within a round the senders' nudges are all that wakes the
    /// shard, and after it nobody comes to the rescue of a frame whose
    /// nudge or listing was lost: its peer's read times out. EXPERIMENTS.md
    /// ("Where a reactor wakeup went") records the two reorderings of the
    /// wakeup protocol that turn this red, and how often.
    #[test]
    fn racing_senders_lose_no_wakeup_and_keep_per_connection_order() {
        const SENDERS: usize = 4;
        const CONNS: usize = 8;
        /// A round is one frame from every sender to every connection and
        /// takes ~0.1 ms. A lost nudge strands a frame within a few hundred
        /// rounds; a listing lost between a flush and the flag going down
        /// can take a few thousand.
        const ROUNDS: u32 = 16_000;

        let rig = Rig::new(CONNS);
        let (mut peers, sessions): (Vec<_>, Vec<_>) = (0..CONNS).map(|id| rig.connect(id)).unzip();
        let sessions = Arc::new(sessions);
        let (queued, round_queued) = mpsc::channel();
        let starts: Vec<_> = (0..SENDERS)
            .map(|t| {
                let (start, started) = mpsc::channel::<u32>();
                let (sessions, queued) = (sessions.clone(), queued.clone());
                // Not joined: a sender left waiting for a round that never
                // starts sees its channel close when the test unwinds.
                std::thread::spawn(move || {
                    for round in started {
                        // Each sender starts two connections further on, so
                        // the listings are many and the shard's flush
                        // passes long.
                        for i in 0..CONNS {
                            sessions[(i + 2 * t) % CONNS]
                                .send_frame(
                                    t as u8,
                                    &round.to_le_bytes(),
                                    Deadline::after(PATIENCE),
                                )
                                .expect("enqueue");
                        }
                        queued.send(()).expect("gate");
                    }
                });
                start
            })
            .collect();

        for round in 0..ROUNDS {
            for start in &starts {
                start.send(round).expect("sender alive");
            }
            for _ in 0..SENDERS {
                round_queued
                    .recv_timeout(PATIENCE)
                    .expect("a sender is wedged");
            }
            for (c, peer) in peers.iter_mut().enumerate() {
                let mut from = [false; SENDERS];
                for _ in 0..SENDERS {
                    let (t, body) = read_frame(peer).unwrap_or_else(|e| {
                        panic!("round {round}, connection {c}: a queued frame never left: {e}")
                    });
                    // A sender's frames reach a connection in the order it
                    // queued them: this round's, and once.
                    assert_eq!(body, round.to_le_bytes(), "connection {c}, sender {t}");
                    assert!(!std::mem::replace(&mut from[t as usize], true));
                }
            }
        }
    }

    #[test]
    fn write_queue_tracks_offsets_across_partial_writes() {
        let mut q = WriteQueue::default();
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
        let mut q = WriteQueue::default();
        q.push(frame(1, b"x"));
        q.advance(7);
    }

    #[test]
    fn gather_respects_slice_cap() {
        let mut q = WriteQueue::default();
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
