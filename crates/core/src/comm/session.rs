//! Per-connection server-side session: the round loop's handle onto one
//! registered client's socket.
//!
//! A session is built once the handshake has registered its client, and is
//! live until it drains — either gracefully (the client sent
//! [`ControlMsg::Goodbye`]) or because the link died. Draining is terminal:
//! a drained session never delivers again, and every later send or receive
//! on it reports a deterministic [`DropReason::Loss`], which is exactly how
//! the in-memory fault models describe a lost client, so the round loop's
//! churn handling is identical across backends. A reconnect builds a new
//! session rather than reviving the drained one.
//!
//! I/O is reactor-driven: the owning [`reactor`](super::reactor) shard
//! drains the socket into this session's tag-indexed frame queue and
//! flushes the connection's bounded write queue. A send here only *queues*
//! a pre-encoded frame (blocking briefly under backpressure); a receive
//! pops from the frame queue under a bounded condvar wait, so a hung client
//! can never wedge the server. Every such wait ends at a [`Deadline`].
//!
//! [`ControlMsg::Goodbye`]: super::message::ControlMsg::Goodbye
//! [`DropReason::Loss`]: super::message::DropReason::Loss

use super::reactor::{ConnShared, EnqueueError};
use super::socket::encode_frame;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// When a blocking wait on the socket plane gives up: a timeout from now,
/// or never, when no [`Instant`] can represent that time. Every send,
/// receive and registration wait forms its deadline here, so no timeout a
/// caller passes can overflow the clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Deadline(Option<Instant>);

impl Deadline {
    pub(crate) fn after(timeout: Duration) -> Deadline {
        Deadline(Instant::now().checked_add(timeout))
    }

    pub(crate) fn passed(self) -> bool {
        self.0.is_some_and(|at| Instant::now() >= at)
    }

    /// Blocks on `cv` until it is notified or the deadline passes.
    pub(crate) fn wait<'a, T>(
        self,
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
    ) -> LockResult<MutexGuard<'a, T>> {
        let Some(at) = self.0 else {
            return cv.wait(guard);
        };
        let left = at.saturating_duration_since(Instant::now());
        match cv.wait_timeout(guard, left) {
            Ok((guard, _)) => Ok(guard),
            Err(poisoned) => Err(PoisonError::new(poisoned.into_inner().0)),
        }
    }
}

/// Why a blocking receive returned no frame.
#[derive(Debug)]
pub(crate) enum RecvError {
    /// The session is draining (goodbye, dead link, or replaced).
    Closed,
    /// No matching frame arrived within the wait bound.
    TimedOut,
}

/// One registered client connection: the round loop's handle onto a
/// reactor-owned socket. Sends enqueue onto the connection's bounded write
/// queue; receives pop from the frame queue the reactor fills.
pub(crate) struct Session {
    /// Set once by [`Session::drain`], never cleared.
    draining: AtomicBool,
    queue: Mutex<RecvQueue>,
    cv: Condvar,
    conn: Arc<ConnShared>,
}

#[derive(Default)]
struct RecvQueue {
    /// Received frames, newest last, not yet claimed by the round loop.
    frames: VecDeque<(u8, Vec<u8>)>,
    /// Receivers blocked on the condvar: the reactor notifies only when
    /// there is one, so a frame for a session nobody is waiting on costs no
    /// futex call.
    waiting: usize,
}

impl RecvQueue {
    /// Claims the oldest queued frame tagged `tag`: its body and wire size.
    fn claim(&mut self, tag: u8) -> Option<(Vec<u8>, u64)> {
        let pos = self.frames.iter().position(|(t, _)| *t == tag)?;
        let (_, body) = self.frames.remove(pos).expect("position just found");
        let wire = super::socket::FRAME_HEADER_BYTES + body.len() as u64;
        Some((body, wire))
    }
}

impl Session {
    /// Wraps an already-handshaken reactor connection in a live session.
    pub(crate) fn new(conn: Arc<ConnShared>) -> Arc<Session> {
        Arc::new(Session {
            draining: AtomicBool::new(false),
            queue: Mutex::new(RecvQueue::default()),
            cv: Condvar::new(),
            conn,
        })
    }

    /// Marks the session terminal and wakes blocked receivers. Reactor- and
    /// transport-side close paths both funnel through here.
    pub(crate) fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        // Through the queue lock, so a receiver is either already waiting
        // or has yet to check the flag: the notification cannot fall
        // between its check and its wait.
        let q = self.queue.lock().expect("session queue poisoned");
        if q.waiting > 0 {
            self.cv.notify_all();
        }
    }

    /// Whether the session can still carry traffic.
    pub(crate) fn is_live(&self) -> bool {
        !self.draining.load(Ordering::Acquire)
    }

    /// Reactor-side delivery of one received frame. A drained session takes
    /// no more: the flag is read under the queue lock, so a frame cannot
    /// slip in behind [`Session::close`]'s discard.
    pub(crate) fn push_frame(&self, tag: u8, body: Vec<u8>) {
        let mut q = self.queue.lock().expect("session queue poisoned");
        if !self.is_live() {
            return;
        }
        q.frames.push_back((tag, body));
        if q.waiting > 0 {
            self.cv.notify_all();
        }
    }

    /// Encodes and queues one frame; returns its wire bytes. See
    /// [`send_encoded`](Session::send_encoded) for the failure contract.
    pub(crate) fn send_frame(&self, tag: u8, body: &[u8], deadline: Deadline) -> io::Result<u64> {
        self.send_encoded(&encode_frame(tag, body), deadline)
    }

    /// Queues one pre-encoded frame (the encode-once broadcast path shares
    /// a single `Arc<[u8]>` across every recipient); returns its wire
    /// bytes. Backpressure blocks until `deadline`; a queue that stays full
    /// past it means the link is effectively wedged, so the session drains
    /// and the connection closes — everything after a failed send is
    /// dropped, exactly like a dead link.
    pub(crate) fn send_encoded(&self, frame: &Arc<[u8]>, deadline: Deadline) -> io::Result<u64> {
        if !self.is_live() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "session draining",
            ));
        }
        match self.conn.enqueue(frame, deadline) {
            Ok(n) => Ok(n),
            Err(EnqueueError::Closed) => {
                self.drain();
                Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "connection closed",
                ))
            }
            Err(EnqueueError::TimedOut) => {
                self.drain();
                self.conn.close();
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "write queue full past the send deadline",
                ))
            }
        }
    }

    /// Blocks until a frame with `tag` arrives (earlier frames of other
    /// tags stay queued), the session drains, or `timeout` passes. Returns
    /// the frame body and its wire size.
    pub(crate) fn recv_frame(
        &self,
        tag: u8,
        timeout: Duration,
    ) -> Result<(Vec<u8>, u64), RecvError> {
        let deadline = Deadline::after(timeout);
        let mut q = self.queue.lock().expect("session queue poisoned");
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
            q = deadline.wait(&self.cv, q).expect("session queue poisoned");
            q.waiting -= 1;
        }
    }

    /// Hard close: drains the session, discards the frames received but not
    /// yet claimed (every later claim is a loss, so nothing this client sent
    /// is folded), and force-closes the socket (queued writes are dropped).
    /// The reactor reaps the connection on the next wakeup.
    pub(crate) fn close(&self) {
        self.drain();
        (self.queue.lock().expect("session queue poisoned"))
            .frames
            .clear();
        self.conn.close();
    }

    /// Graceful close: drains the session but lets the reactor flush
    /// already-queued frames (e.g. the `Shutdown` broadcast) before the
    /// socket closes.
    pub(crate) fn close_graceful(&self) {
        self.drain();
        self.conn.close_after_flush();
    }
}
