//! Byte-accurate communication: simulated and real.
//!
//! [`CommStats`] is the byte ledger every backend charges with the real
//! wire codec's lengths; the [`Transport`] trait decides *delivery* — typed
//! envelopes ([`MsgKind`]) go in, [`Delivery`]/[`BroadcastDelivery`]
//! outcomes come out. The two client-plane back-ends of [`crate::plane`]
//! sit on the two kinds of transport:
//!
//! * **In process**, a [`Transport`] simulates the network between the
//!   server and replicas it owns: [`PerfectTransport`] is the lossless
//!   default; [`FaultyTransport`] injects seeded per-link drops, virtual
//!   latency, bounded retries, and per-round deadlines. Both directions go
//!   through `send`/`broadcast` — the plane computes a client's frame and
//!   hands it to the transport.
//! * **Over sockets**, [`SocketTransport`] — a `Transport` for the
//!   downloads plus the training orders, δ probes and blocking claims a
//!   server needs when the other end is a process — moves the same frames
//!   over a real wire: the server end over TCP or Unix-domain sockets on
//!   the reactor. [`run_client_loop`] is the client end. A loopback run
//!   reproduces the perfect transport bit-exactly.

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
pub use reactor::ReactorCounters;
pub use socket::run_client_loop;
pub use socket::{
    encode_frame, read_frame, write_frame, ClientConn, ClientEvent, ClientLoopOpts, ClientOutcome,
    Endpoint, SocketTransport, FRAME_HEADER_BYTES,
};
pub use stats::{CommStats, Direction};
pub use transport::{PerfectTransport, RemoteTransport, Transport};
