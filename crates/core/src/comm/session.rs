//! What the round loop waits on when its clients are processes: the
//! [`Deadline`] every blocking wait of the socket plane ends at, the
//! receive queue of a registered connection and [`RecvError`], why a
//! blocking receive returned no frame.
//!
//! A connection is one [`ConnShared`](super::reactor::ConnShared), built
//! when its handshake registers a client and live until it ends — the
//! client sent [`ControlMsg::Goodbye`], the link died, or the round loop
//! closed it. The end is terminal: every later send or receive on it
//! reports a deterministic [`DropReason::Loss`], which is exactly how the
//! in-memory fault models describe a lost client, so the round loop's churn
//! handling is identical across backends. A reconnect registers a new
//! connection rather than reviving the old one.
//!
//! [`ControlMsg::Goodbye`]: super::message::ControlMsg::Goodbye
//! [`DropReason::Loss`]: super::message::DropReason::Loss

use super::frame::Body;
use std::collections::VecDeque;
use std::sync::{Condvar, LockResult, MutexGuard, PoisonError};
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
    /// The connection has ended (goodbye, dead link, closed or replaced).
    Closed,
    /// No matching frame arrived within the wait bound.
    TimedOut,
}

/// The receive half of one registered connection ([`super::reactor::ConnShared`]):
/// the frames the reactor cut out of its socket, waiting for the round loop
/// to claim them.
#[derive(Default)]
pub(crate) struct RecvQueue {
    /// Received frames, newest last, not yet claimed by the round loop: a
    /// dense upload as the vector the decoder read its values into.
    pub(crate) frames: VecDeque<(u8, Body)>,
    /// Receivers blocked on the connection's condvar: the reactor notifies
    /// only when there is one, so a frame for a connection nobody is
    /// waiting on costs no futex call.
    pub(crate) waiting: usize,
}

impl RecvQueue {
    /// Claims the oldest queued frame tagged `tag`: its body.
    pub(crate) fn claim(&mut self, tag: u8) -> Option<Body> {
        let pos = self.frames.iter().position(|(t, _)| *t == tag)?;
        self.frames.remove(pos).map(|(_, body)| body)
    }
}
