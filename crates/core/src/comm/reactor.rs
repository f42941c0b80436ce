//! Event-driven socket server: one `epoll(7)` loop per server replaces the
//! accept thread and the per-session reader threads.
//!
//! The loop owns the listener and every non-blocking connection and
//! multiplexes them through one level-triggered `epoll` instance beside a
//! slab connection table: each connection is registered once, when it is
//! adopted, with its slot as the token, and deregistered when it is reaped.
//! A wait returns only what is ready, so outside the stop path nothing in a
//! wakeup — and nothing in a registration — visits every connection; all of
//! it is proportional to what is ready:
//!
//! * **Accepts.** A readable listener is drained with `accept(2)` on the
//!   loop's own thread, and each accepted connection joins the set. It is
//!   read speculatively at once: when its `Hello` is already in, accept →
//!   `Welcome` flush is one wakeup.
//! * **Reads.** A readable connection costs one `read(2)` into the loop's
//!   64 KiB buffer (a short read means the socket is drained; level-triggered
//!   readiness reports whatever is left), which the connection's frame
//!   decoder ([`super::frame`]) cuts into frames. Until its handshake the
//!   decoder refuses a header longer than a `Hello`'s.
//! * **Writes.** A sender that queues a frame lists its connection — once,
//!   guarded by a flag — on the loop's dirty list; the loop flushes the
//!   listed connections plus those that reported `EPOLLOUT`, with `writev(2)`
//!   and partial-write resume. A registration holds `EPOLLOUT` while the last
//!   flush left bytes behind: only a changed outcome costs an `EPOLL_CTL_MOD`.
//! * **Wakeups.** Cross-thread nudges (a listed connection, a stop request)
//!   coalesce on the loop's [`Waker`]: only the first nudge since the loop
//!   last drained its self-pipe writes a byte. Frames the loop queues itself
//!   (the `Welcome`) are listed without waking anything. Nothing in the
//!   server sleep-polls.
//! * **Deadlines.** Handshake deadlines are issued in order, so they sit in
//!   a FIFO whose front is the next wait's timeout; connections that die in
//!   a wakeup go on a dead list that feeds the reap at its end.
//!
//! Each connection is one [`ConnShared`], shared by the loop and the round
//! loop: the frames the loop received for the round loop to claim, the
//! frames the round loop queued for the loop to flush, and one liveness
//! flag. Once its handshake registers it, the [`SessionTable`] holds it
//! under its client's id. It ends once, whoever ends it — a `Goodbye`, a
//! hard close, the graceful close behind `Shutdown`, a reconnect that
//! supersedes it, the reap of a dead socket — and the end refuses later
//! sends and wakes every waiter; what it received stays claimable unless
//! the round loop gave up on the link.
//!
//! Backpressure: every connection's write queue is bounded
//! ([`WRITE_BUF_BYTES`], 16 MiB). An enqueue that would
//! overflow the bound blocks the *sender* (the round loop) on a condvar
//! until the reactor drains space or the send deadline passes — a wedged
//! client costs one bounded wait, never unbounded server memory. Broadcast
//! is encode-once: the transport encodes a frame into one `Arc<[u8]>` and
//! every recipient queues a refcount bump, not a copy.

use super::frame::{Body, Decoder, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, READ_CHUNK_BYTES};
use super::message::{ControlMsg, HELLO_BODY_BYTES, PROTO_MAGIC, PROTO_VERSION};
use super::session::{Deadline, RecvError, RecvQueue};
use super::socket::{Listener, WireStream};
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

/// Reads one connection gets in a wakeup when each of them fills the
/// buffer: a peer that writes as fast as the loop reads must not starve
/// the loop's other connections.
const MAX_READS_PER_WAKEUP: usize = 16;

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

/// What a server's reactor has done since it was bound
/// ([`SocketTransport::reactor_counters`]). After a shutdown
/// `bytes_in` and `bytes_out` equal the upload and download bytes of the
/// [`CommStats`] ledger when every peer spoke the protocol.
///
/// [`SocketTransport::reactor_counters`]: super::socket::SocketTransport::reactor_counters
/// [`CommStats`]: super::stats::CommStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorCounters {
    /// Returns from `epoll_wait(2)`.
    pub wakeups: u64,
    /// Events those returns reported; `ready ÷ wakeups` is the batch one
    /// wakeup serves.
    pub ready: u64,
    /// `read(2)` calls on connections.
    pub reads: u64,
    /// Complete frames cut out of what those calls returned.
    pub frames_in: u64,
    /// Bytes those calls returned.
    pub bytes_in: u64,
    /// Flushes of one connection's write queue (it was listed, or reported
    /// `EPOLLOUT`).
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

/// The loop's share of [`ReactorCounters`]. Only the loop's thread writes
/// these, so an update is a relaxed load and store ([`bump`]), not a
/// read-modify-write; they publish nothing but themselves.
#[derive(Default)]
struct LoopCounters {
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

/// Single-writer increment of a [`LoopCounters`] field.
fn bump(counter: &AtomicU64, n: usize) {
    counter.store(
        counter.load(Ordering::Relaxed) + n as u64,
        Ordering::Relaxed,
    );
}

/// Wakes the loop's `epoll_wait(2)` through its self-pipe, one byte per batch of
/// nudges: only the first nudge since the loop last drained the pipe
/// writes.
struct Waker {
    tx: OwnedFd,
    /// A byte is in the pipe, or about to be, that the loop has not
    /// drained yet.
    pending: AtomicBool,
    /// Bytes written ([`ReactorCounters::wake_writes`]); any thread nudges.
    writes: AtomicU64,
}

impl Waker {
    /// A waker and the read end of its self-pipe.
    fn new() -> io::Result<(Waker, OwnedFd)> {
        let (rx, tx) = sys::pipe_nonblocking()?;
        let waker = Waker {
            tx,
            pending: AtomicBool::new(false),
            writes: AtomicU64::new(0),
        };
        Ok((waker, rx))
    }

    /// The caller publishes its work (a dirty-list entry, the stop flag)
    /// *before* it calls this.
    fn wake(&self) {
        // Pairs with the swap in `EventLoop::drain_wake_pipe`. A nudge that
        // finds the flag set is ordered before the loop's clear, and the
        // loop takes its lists after the clear, so it sees this nudge's
        // work; a nudge after the clear finds the flag down and writes.
        if !self.pending.swap(true, Ordering::SeqCst) {
            self.writes.fetch_add(1, Ordering::Relaxed);
            let _ = sys::write_fd(self.tx.as_raw_fd(), &[1]);
        }
    }
}

struct QueueState {
    q: WriteQueue,
    /// Flush what is queued, then close (graceful shutdown).
    close_after_flush: bool,
    /// Senders blocked on `space`; a flush notifies only when there are any.
    waiters: usize,
}

/// What a flush attempt left behind.
enum FlushStatus {
    /// Nothing queued (and no pending close).
    Idle,
    /// The kernel buffer filled; wait for `EPOLLOUT`.
    WantWrite,
    /// Queue drained and a graceful close was requested.
    FlushedClose,
    /// The socket died mid-write, or the connection ended.
    Dead,
}

/// One connection, shared between the event loop that reads and flushes it
/// and the round loop that claims from it and sends to it: its receive
/// queue, its bounded write queue, each with its condvar, and one liveness
/// flag. Every end goes through [`ConnShared::end`]: the round loop's
/// [`close`](ConnShared::close) and
/// [`close_after_flush`](ConnShared::close_after_flush), and the reap of a
/// connection the peer ended (`Goodbye`, EOF) or the loop killed.
pub(crate) struct ConnShared {
    /// Lowered once, by [`ConnShared::end`], never raised again. Whatever
    /// fills a queue reads it under that queue's lock, so nothing lands
    /// behind the end's discard.
    live: AtomicBool,
    recv: Mutex<RecvQueue>,
    /// Signalled when a frame arrives for a blocked receiver, and at the end.
    arrived: Condvar,
    state: Mutex<QueueState>,
    /// Signalled when the reactor drains queue space (backpressure waits),
    /// and at the end.
    space: Condvar,
    /// On the loop's dirty list and not yet taken off it for a
    /// flush: whoever raises the flag lists the connection, everyone else
    /// knows a flush is already owed.
    dirty: AtomicBool,
    handle: Arc<LoopHandle>,
    /// This connection's slot in the loop's table.
    slot: usize,
    /// A cloned stream handle used to force-close the socket from any
    /// thread; the reactor notices the hang-up and reaps the connection.
    /// Being a dup, it keeps the socket's open file, and so its `epoll`
    /// registration, alive after the reap closes the stream's descriptor.
    closer: Box<dyn WireStream>,
    fd: RawFd,
}

impl ConnShared {
    /// Whether the connection can still carry traffic.
    pub(crate) fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }

    /// Queues one encoded frame for delivery and returns its wire size. A
    /// full queue blocks until space frees up or `deadline` passes —
    /// backpressure lands on the sender, not on server memory. `None` when
    /// the connection has ended, or when its queue stayed full past the
    /// deadline: the link is wedged, and this call closes it, so everything
    /// after a failed send is dropped, exactly like a dead link.
    pub(crate) fn send(&self, frame: &Arc<[u8]>, deadline: Deadline) -> Option<u64> {
        let mut st = self.state.lock().expect("write queue poisoned");
        loop {
            if !self.is_live() {
                return None;
            }
            if st.q.is_empty() || st.q.pending_bytes() + frame.len() <= WRITE_BUF_BYTES {
                st.q.push(frame.clone());
                drop(st);
                self.list();
                return Some(frame.len() as u64);
            }
            if deadline.passed() {
                drop(st);
                self.close();
                return None;
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
    /// listed, because the loop lists its own work without waking itself.
    fn enqueue_unbounded(&self, frame: &Arc<[u8]>) -> Option<u64> {
        let mut st = self.state.lock().expect("write queue poisoned");
        self.is_live().then(|| {
            st.q.push(frame.clone());
            frame.len() as u64
        })
    }

    /// Reactor-side delivery of one received frame; an ended connection
    /// takes no more.
    fn push_frame(&self, tag: u8, body: Body) {
        let mut q = self.recv.lock().expect("receive queue poisoned");
        if !self.is_live() {
            return;
        }
        q.frames.push_back((tag, body));
        if q.waiting > 0 {
            self.arrived.notify_all();
        }
    }

    /// Blocks until a frame with `tag` arrives (earlier frames of other
    /// tags stay queued), the connection ends, or `timeout` passes. Returns
    /// the frame body; a frame the end kept is still claimed.
    pub(crate) fn recv_frame(&self, tag: u8, timeout: Duration) -> Result<Body, RecvError> {
        let deadline = Deadline::after(timeout);
        let mut q = self.recv.lock().expect("receive queue poisoned");
        loop {
            if let Some(claimed) = q.claim(tag) {
                return Ok(claimed);
            }
            if !self.is_live() {
                return Err(RecvError::Closed);
            }
            if deadline.passed() {
                return Err(RecvError::TimedOut);
            }
            q.waiting += 1;
            q = deadline
                .wait(&self.arrived, q)
                .expect("receive queue poisoned");
            q.waiting -= 1;
        }
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

    /// Puts the connection on the loop's dirty list (once) and nudges the
    /// loop. Called with the state lock released.
    fn list(&self) {
        if self.mark_dirty() {
            self.handle
                .dirty
                .lock()
                .expect("dirty list poisoned")
                .push(self.slot);
            self.handle.waker.wake();
        }
    }

    /// Ends the connection for both loops: lowers the liveness flag, wakes
    /// every blocked receiver and sender, and drops what the end does not
    /// keep — the frames received but not yet claimed unless `received`,
    /// the queued writes unless `flush`, which has the loop send them
    /// before it closes the socket.
    fn end(&self, received: bool, flush: bool) {
        self.live.store(false, Ordering::Release);
        // Through each queue's lock, so a waiter is either already waiting
        // or has yet to check the flag: the notification cannot fall
        // between its check and its wait.
        let mut q = self.recv.lock().expect("receive queue poisoned");
        if !received {
            q.frames.clear();
        }
        if q.waiting > 0 {
            self.arrived.notify_all();
        }
        drop(q);
        let mut st = self.state.lock().expect("write queue poisoned");
        st.close_after_flush = flush;
        if !flush {
            st.q = WriteQueue::default();
        }
        drop(st);
        self.space.notify_all();
    }

    /// Hard close, when the round loop gives up on the client: discards
    /// the frames received but not yet claimed (every later claim is a
    /// loss, so nothing this client sent is folded) and the queued writes,
    /// and forces the socket down so the loop reaps the connection.
    pub(crate) fn close(&self) {
        self.end(false, false);
        self.closer.shutdown_now();
        self.list();
    }

    /// Graceful close: refuses new frames, lets the loop flush what is
    /// queued (the `Shutdown` frame), then close.
    pub(crate) fn close_after_flush(&self) {
        self.end(true, true);
        self.list();
    }

    /// Reactor-side: take the connection off the dirty list's books and
    /// write as much of the queue as the kernel will take, one `writev`
    /// gather at a time, resuming partial writes.
    fn flush(&self) -> FlushStatus {
        let counters = &self.handle.counters;
        bump(&counters.flushes, 1);
        let mut st = self.state.lock().expect("write queue poisoned");
        // Inside the lock and ahead of the writes (see `mark_dirty`).
        // Lowered after the lock is released, a frame queued in between
        // would find the flag up, go unlisted, and wait for the next frame
        // to this connection.
        self.dirty.store(false, Ordering::SeqCst);
        loop {
            if st.q.is_empty() {
                return match (self.is_live(), st.close_after_flush) {
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

/// The cross-thread face of the event loop: its waker, the dirty list
/// senders put connections on, and its counters.
struct LoopHandle {
    waker: Waker,
    /// Slots of connections that have frames queued, or a close requested,
    /// since the loop last took the list (see [`ConnShared::dirty`]). A
    /// slot may have changed hands by the time it is taken; flushing the
    /// newcomer is harmless.
    dirty: Mutex<Vec<usize>>,
    counters: LoopCounters,
}

/// `slots[k]` is client `k`'s connection, if it ever registered; an ended
/// connection keeps its slot until a reconnect replaces it.
pub(crate) struct SessionTable {
    pub(crate) slots: Vec<Option<Arc<ConnShared>>>,
    /// How many slots are `Some` — what registration is waiting on.
    occupied: usize,
}

impl SessionTable {
    fn new(n_clients: usize) -> SessionTable {
        SessionTable {
            slots: vec![None; n_clients],
            occupied: 0,
        }
    }

    /// Whether every client has registered at least once. Only then is it
    /// worth asking each connection whether it is still live.
    pub(crate) fn is_full(&self) -> bool {
        self.occupied == self.slots.len()
    }

    pub(crate) fn live(&self) -> usize {
        (self.slots.iter().flatten())
            .filter(|s| s.is_live())
            .count()
    }

    /// Installs client `id`'s new connection; returns the one it supersedes.
    fn register(&mut self, id: usize, conn: Arc<ConnShared>) -> Option<Arc<ConnShared>> {
        let old = self.slots[id].replace(conn);
        self.occupied += usize::from(old.is_none());
        old
    }
}

/// Server state shared between the transport (round loop) and the event
/// loop.
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
    stop: AtomicBool,
    /// Handshake wire bytes, folded into the ledger at the next round
    /// boundary (the reactor cannot touch [`super::stats::CommStats`]
    /// directly).
    pub(crate) pending_up: AtomicU64,
    pub(crate) pending_down: AtomicU64,
    pub(crate) pending_msgs: AtomicU64,
    /// The pre-encoded `Welcome` frame, queued verbatim to every client.
    welcome_frame: Arc<[u8]>,
    pub(crate) n_clients: usize,
    seed: u64,
    handle: Arc<LoopHandle>,
}

impl ServerShared {
    /// Starts a server's event loop on `listener`, on its one `rfl-net`
    /// thread: it accepts connections, validates their `Hello`s against
    /// `n_clients` and `seed`, answers each with `welcome_frame`, and serves
    /// every registered session until a stop. A self-pipe, `epoll` or
    /// thread the kernel refuses is an error here, on the caller's thread.
    pub(crate) fn start(
        listener: Listener,
        n_clients: usize,
        seed: u64,
        welcome_frame: Arc<[u8]>,
    ) -> io::Result<(Arc<ServerShared>, std::thread::JoinHandle<()>)> {
        let (waker, wake_rx) = Waker::new()?;
        let shared = Arc::new(ServerShared {
            sessions: Mutex::new(SessionTable::new(n_clients)),
            registration: Condvar::new(),
            reconnects: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            pending_up: AtomicU64::new(0),
            pending_down: AtomicU64::new(0),
            pending_msgs: AtomicU64::new(0),
            welcome_frame,
            n_clients,
            seed,
            handle: Arc::new(LoopHandle {
                waker,
                dirty: Mutex::new(Vec::new()),
                counters: LoopCounters::default(),
            }),
        });
        let event_loop = EventLoop::new(wake_rx, listener, shared.clone())?;
        let thread = std::thread::Builder::new()
            .name("rfl-net".into())
            .spawn(move || event_loop.run())?;
        Ok((shared, thread))
    }

    /// Asks the loop to stop: it stops listening, flushes what is queued
    /// for up to [`STOP_FLUSH_GRACE`], closes every connection and returns.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.waker.wake();
    }

    /// A snapshot of the loop's counters.
    pub(crate) fn counters(&self) -> ReactorCounters {
        let c = &self.handle.counters;
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        ReactorCounters {
            wakeups: read(&c.wakeups),
            ready: read(&c.ready),
            reads: read(&c.reads),
            frames_in: read(&c.frames_in),
            bytes_in: read(&c.bytes_in),
            flushes: read(&c.flushes),
            writevs: read(&c.writevs),
            bytes_out: read(&c.bytes_out),
            wake_writes: read(&self.handle.waker.writes),
            handshakes: read(&c.handshakes),
        }
    }
}

enum Phase {
    /// Accepted; `Hello` not yet validated. The deadline is in
    /// [`EventLoop::handshakes`].
    Handshake,
    /// Registered: frames route to the connection's receive queue.
    Open,
}

struct Conn {
    /// Owns the socket; dropped when the connection is reaped.
    stream: Box<dyn WireStream>,
    shared: Arc<ConnShared>,
    phase: Phase,
    /// Capped at a `Hello`'s body until the handshake.
    decoder: Decoder,
    /// Distinguishes this connection from earlier tenants of its slot.
    serial: u64,
    /// Cleared once, by [`EventLoop::kill`], which also puts the slot on the
    /// dead list.
    alive: bool,
    /// `EPOLLOUT` is in the registration: the last flush left bytes behind.
    out_armed: bool,
}

/// The tokens [`sys::Epoll::wait`] reports the self-pipe and the listener
/// with; a connection's token is its slot in the table.
const WAKE: u64 = u64::MAX;
const LISTENER: u64 = u64::MAX - 1;

/// Most events one wait returns; the next wait reports the rest.
const MAX_EVENTS: usize = 1024;

struct EventLoop {
    /// Level-triggered: the self-pipe, the listener, every connection.
    epoll: sys::Epoll,
    events: Box<[sys::EpollEvent]>,
    wake_rx: OwnedFd,
    listener: Option<Listener>,
    shared: Arc<ServerShared>,
    /// Slab connection table: a reaped connection leaves `None` and its
    /// slot on `free`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Occupied slots.
    live: usize,
    next_serial: u64,
    /// `(deadline, slot, serial)` of every accepted connection, oldest — and
    /// so soonest — first. Entries outlive their handshake; they are
    /// dropped when they reach the front.
    handshakes: VecDeque<(Instant, usize, u64)>,
    /// Connections to flush this wakeup: the loop's own listings (a queued
    /// `Welcome`, a reported `EPOLLOUT`) plus the handle's dirty list.
    to_flush: Vec<usize>,
    /// Connections that died this wakeup, for [`EventLoop::reap`].
    dead: Vec<usize>,
    /// Where every `read(2)` lands.
    buf: Box<[u8]>,
    stop_deadline: Option<Instant>,
}

impl EventLoop {
    /// Fails when the kernel refuses the `epoll` instance or a registration.
    fn new(wake_rx: OwnedFd, listener: Listener, shared: Arc<ServerShared>) -> io::Result<Self> {
        let epoll = sys::Epoll::new()?;
        epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, WAKE)?;
        epoll.add(listener.raw_fd(), sys::EPOLLIN, LISTENER)?;
        Ok(EventLoop {
            epoll,
            events: vec![sys::EpollEvent::default(); MAX_EVENTS].into_boxed_slice(),
            wake_rx,
            listener: Some(listener),
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_serial: 0,
            handshakes: VecDeque::new(),
            to_flush: Vec::new(),
            dead: Vec::new(),
            buf: vec![0; READ_CHUNK_BYTES].into_boxed_slice(),
            stop_deadline: None,
        })
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

            let timeout_ms = self.wait_timeout_ms(stopping);
            let Ok(ready) = self.epoll.wait(&mut self.events, timeout_ms) else {
                // Only catastrophic wait failures land here (EINTR is
                // retried); treat them as a stop request.
                self.shared.stop.store(true, Ordering::Relaxed);
                continue;
            };
            let counters = &self.shared.handle.counters;
            bump(&counters.wakeups, 1);
            bump(&counters.ready, ready);
            self.serve(ready);
        }
    }

    /// One wakeup: the first `ready` entries of `events`. A slot's token
    /// means its current tenant: a reaped connection left before the wait.
    fn serve(&mut self, ready: usize) {
        for i in 0..ready {
            let sys::EpollEvent { events, token } = self.events[i];
            match token {
                WAKE => self.drain_wake_pipe(),
                LISTENER => self.accept_ready(),
                token => {
                    let slot = token as usize;
                    if events & sys::EPOLLERR != 0 {
                        self.kill(slot);
                        continue;
                    }
                    if events & (sys::EPOLLIN | sys::EPOLLHUP) != 0 {
                        self.service_read(slot);
                    }
                    if events & sys::EPOLLOUT != 0 {
                        self.to_flush.push(slot);
                    }
                }
            }
        }

        self.flush_listed();
        self.expire_handshakes();
        self.reap();
    }

    fn wait_timeout_ms(&mut self, stopping: bool) -> i32 {
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
        let waker = &self.shared.handle.waker;
        waker.pending.swap(false, Ordering::SeqCst);
    }

    /// Closes the listener; its only descriptor's close ends its registration.
    fn stop_listening(&mut self) {
        self.listener = None;
    }

    /// Accepts everything pending and adopts it.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.try_accept() {
                Ok(Some(stream)) => self.adopt(stream),
                Ok(None) => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A fatal accept error (e.g. EMFILE storm): stop accepting
                // rather than spinning on a hot listener.
                Err(_) => return self.stop_listening(),
            }
        }
    }

    /// Wraps a freshly accepted (already non-blocking) stream into a
    /// handshaking connection, registered under its slot, and reads it at
    /// once: a client writes its `Hello` right behind its `connect`, so the
    /// bytes are often there and the handshake needs no wakeup of its
    /// own. A registration the kernel refuses (`max_user_watches`,
    /// `ENOMEM`) drops the connection as a failed handshake does.
    fn adopt(&mut self, stream: Box<dyn WireStream>) {
        let Ok(closer) = stream.try_clone_stream() else {
            return;
        };
        let fd = stream.raw_fd();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self.epoll.add(fd, sys::EPOLLIN, slot as u64).is_err() {
            self.free.push(slot);
            return;
        }
        let shared = Arc::new(ConnShared {
            live: AtomicBool::new(true),
            recv: Mutex::new(RecvQueue::default()),
            arrived: Condvar::new(),
            state: Mutex::new(QueueState {
                q: WriteQueue::default(),
                close_after_flush: false,
                waiters: 0,
            }),
            space: Condvar::new(),
            dirty: AtomicBool::new(false),
            handle: self.shared.handle.clone(),
            slot,
            closer,
            fd,
        });
        let serial = self.next_serial;
        self.next_serial += 1;
        self.conns[slot] = Some(Conn {
            stream,
            shared,
            phase: Phase::Handshake,
            decoder: Decoder::new(HELLO_BODY_BYTES, true),
            serial,
            alive: true,
            out_armed: false,
        });
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
        let EventLoop {
            conns,
            buf,
            shared: server,
            to_flush,
            ..
        } = self;
        let Some(conn) = conns[slot].as_mut().filter(|c| c.alive) else {
            return;
        };
        let counters = &server.handle.counters;
        let mut alive = true;
        for _ in 0..MAX_READS_PER_WAKEUP {
            bump(&counters.reads, 1);
            let n = match sys::read_fd(conn.shared.fd, buf) {
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
                decoder,
                phase,
                shared: queue,
                ..
            } = conn;
            let mut chunk = &buf[..n];
            while alive {
                let frame = decoder.read_from(&mut chunk);
                alive = frame.is_ok();
                let Ok(Some((tag, body))) = frame else { break };
                bump(&counters.frames_in, 1);
                match phase {
                    Phase::Handshake => {
                        match EventLoop::complete_handshake(server, queue, tag, &body) {
                            Ok(()) => {
                                *phase = Phase::Open;
                                // Lift the `Hello` cap. Between frames a
                                // decoder holds nothing a fresh one lacks.
                                *decoder = Decoder::new(MAX_FRAME_BYTES, true);
                                bump(&counters.handshakes, 1);
                                if queue.mark_dirty() {
                                    to_flush.push(slot);
                                }
                            }
                            Err(()) => alive = false,
                        }
                    }
                    // A graceful departure ends the connection like a
                    // hang-up: every later send or receive on it is a
                    // deterministic Loss.
                    Phase::Open if tag == ControlMsg::Goodbye.tag() => alive = false,
                    Phase::Open => queue.push_frame(tag, body),
                }
            }
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

    /// Validates a `Hello`, registers the connection, and queues the shared
    /// pre-encoded `Welcome` frame. Any protocol violation closes the
    /// connection without its ever being registered.
    fn complete_handshake(
        server: &ServerShared,
        queue: &Arc<ConnShared>,
        tag: u8,
        body: &Body,
    ) -> Result<(), ()> {
        let hello = body.bytes().map(|b| ControlMsg::decode_body(tag, b));
        let Some(Ok(ControlMsg::Hello {
            magic,
            version,
            client_id,
            seed,
        })) = hello
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
        let hello_bytes = FRAME_HEADER_BYTES + body.wire_len() as u64;
        // Register the connection *before* queueing the welcome: a client
        // that holds its Welcome must already be visible to wait_for_clients.
        let (old, full) = {
            let mut sessions = server.sessions.lock().expect("sessions poisoned");
            (sessions.register(id, queue.clone()), sessions.is_full())
        };
        if let Some(old) = old {
            // A returning client: the old link is superseded. Count it
            // as a retry (the reconnect IS the retransmission budget of
            // this backend) and force the stale connection out.
            server.reconnects.fetch_add(1, Ordering::Relaxed);
            old.close();
        }
        let welcome_bytes = queue.enqueue_unbounded(&server.welcome_frame).ok_or(())?;
        server.pending_up.fetch_add(hello_bytes, Ordering::Relaxed);
        server
            .pending_down
            .fetch_add(welcome_bytes, Ordering::Relaxed);
        server.pending_msgs.fetch_add(2, Ordering::Relaxed);
        if full {
            server.registration.notify_all();
        }
        Ok(())
    }

    /// Flushes exactly the connections someone listed — senders on the
    /// handle's dirty list, this wakeup's `Welcome`s and `EPOLLOUT` reports
    /// on the loop's own — and, when a connection's outcome changes, adds
    /// `EPOLLOUT` to its registration or takes it out.
    fn flush_listed(&mut self) {
        let dirty = &self.shared.handle.dirty;
        self.to_flush
            .append(&mut dirty.lock().expect("dirty list poisoned"));
        for i in 0..self.to_flush.len() {
            let slot = self.to_flush[i];
            let Some(conn) = self.conns[slot].as_mut().filter(|c| c.alive) else {
                continue;
            };
            let want_out = match conn.shared.flush() {
                FlushStatus::Idle => false,
                FlushStatus::WantWrite => true,
                FlushStatus::FlushedClose | FlushStatus::Dead => {
                    self.kill(slot);
                    continue;
                }
            };
            if want_out != conn.out_armed {
                conn.out_armed = want_out;
                let events = sys::EPOLLIN | if want_out { sys::EPOLLOUT } else { 0 };
                if self
                    .epoll
                    .modify(conn.shared.fd, events, slot as u64)
                    .is_err()
                {
                    self.kill(slot);
                }
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

    /// Drops this wakeup's dead connections: each one ends (blocked senders
    /// and receivers fail fast; what it received stays claimable, its queued
    /// writes go), the socket force-closes so the peer observes EOF rather
    /// than a stall, and the slot is vacated.
    fn reap(&mut self) {
        for slot in self.dead.drain(..) {
            let conn = self.conns[slot].take().expect("listed by kill");
            // Before the stream drops: `ConnShared::closer`, a dup of the
            // socket, keeps its open file — and with it the registration —
            // alive past the stream's close, where it would report the dead
            // socket under this slot's next tenant.
            let _ = self.epoll.delete(conn.shared.fd);
            conn.shared.end(true, false);
            conn.stream.shutdown_now();
            self.free.push(slot);
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{encode_frame, read_frame, write_frame};
    use super::super::message::MsgKind;
    use super::super::socket::Endpoint;
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

    proptest! {
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
    fn nudges_coalesce_until_the_loop_lowers_the_flag() {
        let (waker, rx) = Waker::new().expect("pipe");
        for _ in 0..3 {
            waker.wake();
        }
        assert_eq!(waker.writes.load(Ordering::Relaxed), 1);
        let mut buf = [0u8; 8];
        assert_eq!(sys::read_fd(rx.as_raw_fd(), &mut buf).ok(), Some(1));
        // Drained but not lowered: still coalescing.
        waker.wake();
        assert_eq!(waker.writes.load(Ordering::Relaxed), 1);
        waker.pending.swap(false, Ordering::SeqCst);
        waker.wake();
        assert_eq!(waker.writes.load(Ordering::Relaxed), 2);
    }

    /// A server's event loop on its own thread, listening on a Unix-domain
    /// socket in a directory of its own and serving `n` client ids.
    struct Rig {
        shared: Arc<ServerShared>,
        thread: Option<std::thread::JoinHandle<()>>,
        dir: std::path::PathBuf,
    }

    impl Rig {
        fn new(n_clients: usize) -> Rig {
            static RIGS: AtomicU64 = AtomicU64::new(0);
            let rig = RIGS.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("rfl-rig-{}-{rig}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("rig directory");
            let endpoint = Endpoint::Unix(dir.join("server.sock"));
            let (listener, _) = Listener::bind(&endpoint).expect("bind");
            // Any frame will do for the peers of these tests.
            let welcome = frame(ControlMsg::Shutdown.tag(), b"");
            let (shared, thread) =
                ServerShared::start(listener, n_clients, SEED, welcome).expect("start");
            Rig {
                shared,
                thread: Some(thread),
                dir,
            }
        }

        /// Registers client `id` and returns the peer's end, whose reads
        /// give up after [`PATIENCE`].
        fn connect(&self, id: usize) -> (UnixStream, Arc<ConnShared>) {
            let mut ours = UnixStream::connect(self.dir.join("server.sock")).expect("connect");
            ours.set_read_timeout(Some(PATIENCE)).expect("timeout");
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
            let conn = self.shared.sessions.lock().unwrap().slots[id].clone();
            (ours, conn.expect("registered"))
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            for conn in self.shared.sessions.lock().unwrap().slots.iter().flatten() {
                conn.close();
            }
            self.shared.request_stop();
            let event_loop = self.thread.take().expect("joined once").join();
            // The stopped loop dropped the listener, which removed the socket.
            let _ = std::fs::remove_dir(&self.dir);
            if !std::thread::panicking() {
                event_loop.expect("event loop thread");
            }
        }
    }

    /// A header longer than a `Hello`'s body fails the handshake at once:
    /// the peer sees EOF long before the handshake deadline, and nothing was
    /// reserved for the body it claimed.
    #[test]
    fn a_hello_header_claiming_more_than_a_hello_drops_at_once() {
        use std::io::Read;
        let rig = Rig::new(1);
        let mut peer = UnixStream::connect(rig.dir.join("server.sock")).expect("connect");
        peer.set_read_timeout(Some(PATIENCE)).expect("timeout");
        let hello = ControlMsg::Hello {
            magic: PROTO_MAGIC,
            version: PROTO_VERSION,
            client_id: 0,
            seed: SEED,
        };
        let mut header = (1u32 << 20).to_le_bytes().to_vec();
        header.push(hello.tag());
        let t0 = Instant::now();
        peer.write_all(&header).expect("header");
        let mut byte = [0u8; 1];
        assert_eq!(peer.read(&mut byte).expect("EOF, not a timeout"), 0);
        let waited = t0.elapsed();
        assert!(waited < Duration::from_secs(1), "dropped after {waited:?}");
        assert_eq!(rig.shared.counters().handshakes, 0);
    }

    #[test]
    fn a_goodbye_mid_chunk_stops_dispatch_of_what_follows_it() {
        let rig = Rig::new(1);
        let (mut peer, conn) = rig.connect(0);
        let up = MsgKind::ModelUp.tag();
        let wire = [
            frame(up, b"before"),
            frame(ControlMsg::Goodbye.tag(), b""),
            frame(up, b"after"),
        ]
        .concat();
        // One write, so one read on the other side.
        peer.write_all(&wire).expect("write");
        let body = conn.recv_frame(up, PATIENCE).expect("the frame before");
        assert_eq!(body.bytes(), Some(&b"before"[..]));
        assert!(matches!(
            conn.recv_frame(up, PATIENCE),
            Err(RecvError::Closed)
        ));
    }

    /// The five ways a registered connection ends.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum End {
        /// The peer says `Goodbye`.
        Goodbye,
        /// The round loop gives up on the client (a timeout, a bad report).
        HardClose,
        /// The round loop's graceful close behind the `Shutdown` frame.
        Shutdown,
        /// The same client registers again.
        Superseded,
        /// The peer's socket reports EOF, and the loop reaps it.
        PeerEof,
    }

    /// Every way a registered connection ends refuses later sends, reports
    /// every later receive `Closed` and releases a receiver blocked on
    /// another thread at once, not at its timeout. A frame that arrived
    /// before the end stays claimable when the peer ended it or the close
    /// was graceful, and is discarded when the round loop gave up on the
    /// link; the graceful close still delivers the frame it queued last.
    #[test]
    fn every_way_a_connection_ends_refuses_traffic_and_wakes_its_receivers() {
        let table = [
            (End::Goodbye, true),
            (End::HardClose, false),
            (End::Shutdown, true),
            (End::Superseded, false),
            (End::PeerEof, true),
        ];
        let (up, other, down) = (
            MsgKind::ModelUp.tag(),
            MsgKind::DeltaUp.tag(),
            MsgKind::ModelDown.tag(),
        );
        for (end, keeps_what_arrived) in table {
            let rig = Rig::new(1);
            let (mut peer, conn) = rig.connect(0);
            peer.write_all(&frame(up, b"early")).expect("write");
            // The `Hello`, then this frame.
            let deadline = Instant::now() + PATIENCE;
            while rig.shared.counters().frames_in < 2 {
                assert!(
                    Instant::now() < deadline,
                    "{end:?}: the frame never arrived"
                );
                std::thread::yield_now();
            }
            let mut successor = None;
            std::thread::scope(|s| {
                let blocked = s.spawn(|| {
                    let t0 = Instant::now();
                    (conn.recv_frame(other, PATIENCE), t0.elapsed())
                });
                // Give the receiver its chance to block first; either order
                // must pass.
                for _ in 0..1_000 {
                    std::thread::yield_now();
                }
                match end {
                    End::Goodbye => peer
                        .write_all(&frame(ControlMsg::Goodbye.tag(), b""))
                        .expect("goodbye"),
                    End::HardClose => conn.close(),
                    End::Shutdown => {
                        conn.send(&frame(down, b"last"), Deadline::after(PATIENCE))
                            .expect("enqueue");
                        conn.close_after_flush();
                    }
                    End::Superseded => successor = Some(rig.connect(0)),
                    End::PeerEof => peer.shutdown(std::net::Shutdown::Both).expect("EOF"),
                }
                let (got, waited) = blocked.join().expect("receiver");
                assert!(matches!(got, Err(RecvError::Closed)), "{end:?}: {got:?}");
                assert!(waited < PATIENCE / 2, "{end:?}: released by its timeout");
            });
            assert!(!conn.is_live(), "{end:?}");
            let sent = conn.send(&frame(down, b"x"), Deadline::after(PATIENCE));
            assert!(sent.is_none(), "{end:?}: a send after the end was queued");
            assert!(
                matches!(
                    conn.recv_frame(other, Duration::ZERO),
                    Err(RecvError::Closed)
                ),
                "{end:?}"
            );
            let early = conn.recv_frame(up, Duration::ZERO);
            match keeps_what_arrived {
                true => assert_eq!(early.expect("kept").bytes(), Some(&b"early"[..])),
                false => assert!(matches!(early, Err(RecvError::Closed)), "{end:?}"),
            }
            if end == End::Shutdown {
                assert_eq!(
                    read_frame(&mut peer).expect("flushed"),
                    (down, b"last".to_vec())
                );
                let eof = read_frame(&mut peer).expect_err("closed after the flush");
                assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
            }
            if let Some((_, successor)) = successor {
                assert!(successor.is_live(), "the successor was closed too");
            }
        }
    }

    /// A reaped connection leaves the readiness set although its
    /// `ConnShared` — and with it `closer`, a dup that keeps the socket
    /// open — outlives the reap: the next connection into its slot trades
    /// frames as usual, and an idle loop stays asleep. A registration left behind
    /// keeps reporting the dead socket's hang-up under the slot's token, so
    /// the loop spins (or kills the newcomer); EXPERIMENTS.md ("The reactor
    /// on epoll") records that run.
    #[test]
    fn a_reaped_slot_s_next_tenant_is_undisturbed() {
        let rig = Rig::new(2);
        // The loop's only connection so far, so its slot is the one the
        // next accept reuses.
        let (gone, held) = rig.connect(0);
        drop(gone);
        let deadline = Instant::now() + PATIENCE;
        while held.is_live() {
            assert!(Instant::now() < deadline, "the hang-up was never reaped");
            std::thread::yield_now();
        }

        let (mut peer, conn) = rig.connect(1);
        let up = MsgKind::ModelUp.tag();
        peer.write_all(&frame(up, b"up")).expect("write");
        let body = conn.recv_frame(up, PATIENCE).expect("upload");
        assert_eq!(body.bytes(), Some(&b"up"[..]));
        let down = MsgKind::ModelDown.tag();
        conn.send(&frame(down, b"down"), Deadline::after(PATIENCE))
            .expect("enqueue");
        assert_eq!(
            read_frame(&mut peer).expect("download"),
            (down, b"down".to_vec())
        );

        // Let the flush's wakeup end, then watch the idle loop.
        std::thread::sleep(Duration::from_millis(10));
        let before = rig.shared.counters().wakeups;
        std::thread::sleep(Duration::from_millis(50));
        let after = rig.shared.counters().wakeups;
        assert_eq!(
            after,
            before,
            "an idle loop woke {} times in 50 ms",
            after - before
        );
        assert!(conn.is_live(), "the newcomer was killed");
    }

    /// Four threads queue frames for the eight connections of the loop,
    /// round after round. The peers sit behind a gate — they read a round
    /// only once every sender has queued it, and nothing is sent while they
    /// read — so within a round the senders' nudges are all that wakes the
    /// loop, and after it nobody comes to the rescue of a frame whose
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
        let (mut peers, conns): (Vec<_>, Vec<_>) = (0..CONNS).map(|id| rig.connect(id)).unzip();
        let conns = Arc::new(conns);
        let (queued, round_queued) = mpsc::channel();
        let starts: Vec<_> = (0..SENDERS)
            .map(|t| {
                let (start, started) = mpsc::channel::<u32>();
                let (conns, queued) = (conns.clone(), queued.clone());
                // Not joined: a sender left waiting for a round that never
                // starts sees its channel close when the test unwinds.
                std::thread::spawn(move || {
                    for round in started {
                        // Each sender starts two connections further on, so
                        // the listings are many and the loop's flush
                        // passes long.
                        for i in 0..CONNS {
                            conns[(i + 2 * t) % CONNS]
                                .send(
                                    &frame(t as u8, &round.to_le_bytes()),
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
}
