//! Byte-accurate communication: simulated and real.
//!
//! The layer is split in three: [`CommStats`] is the byte ledger every
//! backend charges with the real wire codec's lengths, the [`Transport`]
//! trait decides *delivery* — typed envelopes ([`MsgKind`]) go in,
//! [`Delivery`]/[`BroadcastDelivery`] outcomes come out — and the socket
//! layer moves the same frames over a real wire. [`PerfectTransport`] is the
//! lossless default; [`FaultyTransport`] injects seeded per-link drops, virtual
//! latency, bounded retries, and per-round deadlines; [`SocketTransport`]
//! runs the server end of a multi-process federation over TCP or Unix-domain
//! sockets and reproduces the perfect transport bit-exactly on a loopback.

mod faulty;
mod message;
mod reactor;
mod session;
mod socket;
mod stats;
mod sys;
mod transport;

pub(crate) use faulty::mix64;

pub use faulty::{FaultConfig, FaultyTransport, LatencyModel};
pub use message::{
    BroadcastDelivery, ControlMsg, Delivery, DropReason, FaultStats, LinkOutcome, MsgKind,
    WireError, PROTO_MAGIC, PROTO_VERSION,
};
pub use reactor::WriteQueue;
pub use session::SessionState;
pub use socket::run_client_loop;
pub use socket::{
    encode_frame, read_frame, write_frame, ClientConn, ClientEvent, ClientLoopOpts, ClientOutcome,
    Endpoint, SocketTransport, BACKOFF_CAP, FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
pub use stats::{CommStats, Direction};
pub use transport::{PerfectTransport, RemoteTransport, Transport};
