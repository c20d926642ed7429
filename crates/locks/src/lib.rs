//! Lock management for the `fgl` page server (§2, §3.2).
//!
//! * [`mode`] — lock modes (S/X plus the IS/IX intents) and their
//!   compatibility, and the [`mode::LockTarget`] vocabulary shared by the
//!   client and server.
//! * [`glm`] — the server's **global lock manager**: grants locks to
//!   clients (inter-transaction lock caching), produces **callback**
//!   actions on conflicts (callback locking, [11, 13]), triggers lock
//!   **de-escalation** on page-level conflicts (§3.2), and detects
//!   distributed deadlocks through a waits-for graph fed by deferred
//!   callback replies.
//! * [`llm`] — each client's **local lock manager**: caches granted locks
//!   across transactions, grants compatible requests locally, tracks which
//!   locks active transactions are using, and answers callbacks
//!   (immediately, or deferred until the using transaction terminates).
//!
//! The managers are pure state machines: no I/O, no channels. The server
//! and client runtimes drive them and ship the produced actions over the
//! network layer, which keeps every protocol rule unit-testable.

pub mod coordinator;
pub mod glm;
pub mod llm;
pub mod mode;
pub mod waitgraph;

pub use coordinator::{AbortHook, DeadlockCoordinator};
pub use glm::{CallbackAction, CallbackKind, CallbackReply, GlmCore, GlmEvent, LockOutcome};
pub use llm::{LlmCore, LocalDecision};
pub use mode::{LockTarget, Mode, ObjMode};
pub use waitgraph::WaitGraph;
