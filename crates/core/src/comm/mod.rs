//! Byte-accurate communication: simulated and real.
//!
//! [`CommStats`] is the byte ledger every backend charges with the real
//! wire codec's lengths; the [`Transport`] trait decides *delivery* — typed
//! envelopes ([`MsgKind`]) go in, [`Delivery`]/[`BroadcastDelivery`]
//! outcomes come out. The two client-plane back-ends of [`crate::plane`]
//! sit on the two kinds of transport:
//!
//! * **In process**, a [`Transport`] simulates the network between the
//!   server and the clients it owns: [`PerfectTransport`] is the lossless
//!   default; [`FaultyTransport`] injects seeded per-link drops, virtual
//!   latency, bounded retries, and per-round deadlines. Both directions go
//!   through `send`/`broadcast` — the plane computes a client's frame and
//!   hands it to the transport.
//! * **Over sockets**, [`SocketTransport`] — a `Transport` for the
//!   downloads plus the training orders, δ probes and blocking claims a
//!   server needs when the other end is a process — moves the same frames
//!   over TCP or Unix-domain sockets on the reactor, one shared object per
//!   connection; [`ClientConn`] is the client's end of the link. Both ends
//!   write frames with `frame.rs`'s one encoder and read them with its one
//!   decoder. A loopback run reproduces the perfect transport bit-exactly.
//!
//! This module is transport only: what a client does with the frames it
//! receives — [`run_client_loop`] — lives in [`crate::plane`] beside the
//! in-process clients' answers, and is re-exported here at its old path.

mod faulty;
mod frame;
mod message;
mod reactor;
mod session;
mod socket;
mod stats;
mod sys;
mod transport;

pub(crate) use faulty::mix64;
pub(crate) use frame::Payload;

pub use crate::plane::{run_client_loop, ClientLoopOpts, ClientOutcome};
pub use faulty::{FaultConfig, FaultyTransport, LatencyModel};
pub use frame::{encode_frame, read_frame, write_frame, FRAME_HEADER_BYTES};
pub use message::{
    BroadcastDelivery, ControlMsg, Delivery, DropReason, FaultStats, LinkOutcome, MsgKind,
    WireError, PROTO_MAGIC, PROTO_VERSION,
};
pub use reactor::ReactorCounters;
pub use socket::{ClientConn, ClientEvent, Endpoint, SocketTransport};
pub use stats::{CommStats, Direction};
pub use transport::{PerfectTransport, RemoteTransport, Transport};
