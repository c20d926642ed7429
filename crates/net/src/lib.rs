//! The message layer between `fgl` clients and the page server.
//!
//! Two transports carry the same typed RPC surface ([`api`]):
//!
//! * The **in-process counted fabric** (the deterministic default):
//!   client→server requests are direct method calls on the server
//!   runtime through `Arc<dyn ServerApi>`, server→client callbacks are
//!   direct calls through the [`ClientPeer`] trait, and *every* logical
//!   message passes through a shared [`NetSim`] that counts it (by kind
//!   and size) and injects the configured one-way latency. The algorithms in the paper depend only on message
//!   ordering, counts and latency — all of which this fabric reproduces
//!   and measures.
//! * The **socket backend** ([`transport::socket`]): real TCP or
//!   Unix-domain sockets speaking the length-prefixed frame codec of
//!   [`transport::frame`], two streams per client (requests and replies
//!   on one, callbacks and grants on the other), so server and clients
//!   run as separate processes.
//!
//! Blocking lock grants are delivered through [`GrantSlot`]s: the server
//! parks a waiter and fulfils it when the GLM grants (or names the waiter
//! a deadlock victim). On the socket backend the fulfilment travels as a
//! `Grant` frame on the client's events stream, correlated with the
//! original lock request.

pub mod api;
pub mod partition;
pub mod peer;
pub mod stats;
pub mod transport;
pub mod wait;

pub use api::{
    Callback, CallbackReplyMsg, Dispatched, FetchedPage, LockResponse, RecoverPagePlan,
    RecoveryHandshake, Reply, Request, ServerApi, WireError,
};
pub use partition::PartitionedServer;
pub use peer::{
    CallbackOutcome, ClientPeer, ClientStateReport, RecoverJob, RecoveredPageOutcome,
    RECOVER_BATCH_PAGES,
};
pub use stats::{MsgKind, NetSim, NetSnapshot, NetStats};
pub use wait::{GrantMsg, GrantSlot, GrantWaiter};
