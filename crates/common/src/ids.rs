//! Strongly-typed identifiers used throughout the system.
//!
//! The paper's vocabulary (§2):
//! * **PSN** — *page sequence number*, stored in every page header and
//!   incremented on every modification; the merge procedure produces
//!   `max(PSN_i, PSN_j) + 1` so that PSNs written into log records for the
//!   same object by different clients are monotone.
//! * **LSN** — *log sequence number*; by assumption the byte address of a
//!   log record in a client's private log file.
//! * Objects live inside pages; an [`ObjectId`] is a (page, slot) pair,
//!   mirroring classic page-server OODBs where object ids embed the page.

use std::fmt;

/// Identifier of a database page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

/// Slot index of an object within its page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId(pub u16);

/// Identifier of an object: the page holding it plus the slot inside that
/// page. Page-server systems ship whole pages, so the page component is the
/// unit of transfer while the object is the unit of locking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId {
    pub page: PageId,
    pub slot: SlotId,
}

/// Identifier of a client workstation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

/// Globally unique transaction identifier.
///
/// Transactions execute entirely at the client that started them (§2), so
/// uniqueness is achieved by embedding the client id in the high bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

/// Log sequence number: the address of a log record in a private log file.
/// `Lsn(0)` is reserved as "nil" (no record).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Page sequence number (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Psn(pub u64);

impl PageId {
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl SlotId {
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

impl ObjectId {
    pub const fn new(page: PageId, slot: SlotId) -> Self {
        ObjectId { page, slot }
    }
}

impl ClientId {
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl TxnId {
    /// Compose a transaction id from the owning client and a local sequence
    /// number. The client occupies the top 32 bits so ids from different
    /// clients never collide and *older* transactions (smaller local
    /// sequence) compare smaller within one client.
    pub const fn compose(client: ClientId, local_seq: u32) -> Self {
        TxnId(((client.0 as u64) << 32) | local_seq as u64)
    }

    /// The client that started this transaction.
    pub const fn client(self) -> ClientId {
        ClientId((self.0 >> 32) as u32)
    }

    /// The client-local sequence number.
    pub const fn local_seq(self) -> u32 {
        self.0 as u32
    }
}

impl Lsn {
    /// The nil LSN: "no log record".
    pub const NIL: Lsn = Lsn(0);

    pub const fn is_nil(self) -> bool {
        self.0 == 0
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl Psn {
    /// PSN value of a freshly formatted, never-updated page.
    pub const ZERO: Psn = Psn(0);

    pub const fn next(self) -> Psn {
        Psn(self.0 + 1)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The merge rule of §2: one greater than the maximum of the two copies'
    /// PSNs, which keeps PSNs strictly increasing even when both copies
    /// carry the same value.
    pub fn merge(a: Psn, b: Psn) -> Psn {
        Psn(a.0.max(b.0) + 1)
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}.{:?}", self.page, self.slot)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.client().0, self.local_seq())
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nil() {
            write!(f, "LSN(nil)")
        } else {
            write!(f, "LSN({})", self.0)
        }
    }
}

impl fmt::Debug for Psn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PSN({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_composition_roundtrips() {
        let t = TxnId::compose(ClientId(7), 42);
        assert_eq!(t.client(), ClientId(7));
        assert_eq!(t.local_seq(), 42);
    }

    #[test]
    fn txn_ids_from_one_client_order_by_age() {
        let older = TxnId::compose(ClientId(3), 1);
        let younger = TxnId::compose(ClientId(3), 2);
        assert!(older < younger);
    }

    #[test]
    fn psn_merge_is_strictly_increasing() {
        // Even when both copies carry the same PSN (concurrent updaters),
        // the merged PSN must exceed both (§2).
        let merged = Psn::merge(Psn(5), Psn(5));
        assert_eq!(merged, Psn(6));
        let merged = Psn::merge(Psn(2), Psn(9));
        assert_eq!(merged, Psn(10));
    }

    #[test]
    fn nil_lsn_is_zero() {
        assert!(Lsn::NIL.is_nil());
        assert!(!Lsn(1).is_nil());
        assert_eq!(Lsn::default(), Lsn::NIL);
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(format!("{}", PageId(3)), "P3");
        assert_eq!(format!("{}", ObjectId::new(PageId(3), SlotId(1))), "P3.s1");
        assert_eq!(format!("{}", TxnId::compose(ClientId(2), 5)), "T2.5");
    }
}
