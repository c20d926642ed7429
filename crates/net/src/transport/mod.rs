//! The pluggable transport seam.
//!
//! Two backends carry the typed RPC surface of [`crate::api`]:
//!
//! * the **in-process sim fabric** — direct method calls on the server
//!   runtime through `Arc<dyn ServerApi>`, byte-accounted by
//!   [`crate::NetSim`] (callback-family messages at their [`frame`]
//!   sizes, the rest at nominal ones). This is the deterministic
//!   default; it carries no code of its own here because the trait
//!   object *is* the transport.
//! * the **socket backend** ([`socket`]) — real TCP or Unix-domain
//!   sockets speaking the length-prefixed frames of [`frame`], two
//!   streams per client (rpc: requests up, replies down; events:
//!   callbacks and grants down), with blocking lock waits mapped onto
//!   request correlation IDs.
//!
//! [`frame`] is the codec both socket flavors share; `pool` is the
//! cached worker pool that runs the socket backend's blocking requests
//! and callbacks.

pub mod frame;
mod pool;
pub mod socket;
