//! The slotted database page.
//!
//! Layout (`page_size` bytes total, all integers little-endian):
//!
//! ```text
//! +---------------------------+ 0
//! | header (32 bytes)         |
//! +---------------------------+ 32
//! | slot table (16 B / slot)  |   grows downward (towards high offsets)
//! +---------------------------+
//! | free space                |
//! +---------------------------+ data_start
//! | object data               |   grows upward (towards low offsets)
//! +---------------------------+ page_size
//! ```
//!
//! Header fields:
//!
//! | off | size | field       |
//! |-----|------|-------------|
//! | 0   | 4    | magic       |
//! | 4   | 2    | format ver  |
//! | 6   | 2    | slot_count  |
//! | 8   | 8    | page id     |
//! | 16  | 8    | PSN         |
//! | 24  | 2    | data_start  |
//! | 26  | 6    | reserved    |
//!
//! Each slot entry records, besides the byte extent of the object, the
//! **slot PSN**: the page PSN at the moment the object was last modified.
//! This is the "little more book-keeping" §3.1 accepts to make merging
//! page *copies* possible — when two copies of a page are merged, every
//! object is taken from the copy whose slot PSN is higher (callback-order
//! PSN monotonicity across clients, §2, makes these comparable).
//!
//! Slot entry layout (16 bytes): `data_off u16 | len u16 | flags u16 |
//! pad u16 | slot_psn u64`. Bit 0 of `flags` = live.
//!
//! `data_start` is a u16, so a 64 KiB page with an empty data region
//! stores 0 there (the header makes 0 impossible otherwise); a zero-length
//! object on such a page likewise records `data_off` 0.
//!
//! # Disk and wire forms
//!
//! A page has two byte forms. On disk it is the whole `page_size` buffer
//! above ([`as_bytes`](Page::as_bytes) / [`from_bytes`](Page::from_bytes)),
//! so a page fills a fixed-size slot. Every page copy that crosses the
//! server/client API (grants, fetches, callback and completion copies,
//! replacement ships, recovery pulls and bases) leaves the free gap out
//! ([`to_wire`](Page::to_wire) / [`from_wire`](Page::from_wire)):
//!
//! ```text
//! +---------------------------+ 0
//! | header (32 bytes)         |
//! +---------------------------+ 32
//! | slot table (16 B / slot)  |
//! +---------------------------+ slots_end
//! | object data               |   buf[data_start..page_size]
//! +---------------------------+ slots_end + page_size - data_start
//! ```
//!
//! The header is unchanged, so `data_start` and every slot's `data_off`
//! still name offsets in the whole page: the receiver, which knows its
//! configured `page_size`, puts the data region back at `data_start` and
//! zeroes the gap. The body must imply exactly that `page_size`.

use fgl_common::{FglError, ObjectId, PageId, Psn, Result, SlotId};
use std::sync::Arc;

/// Size of the fixed page header in bytes.
pub const PAGE_HEADER_SIZE: usize = 32;
/// Size of one slot-table entry in bytes.
pub const SLOT_ENTRY_SIZE: usize = 16;

const MAGIC: u32 = 0xF61C_DA7A;
const FORMAT_VERSION: u16 = 1;

const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_SLOT_COUNT: usize = 6;
const OFF_PAGE_ID: usize = 8;
const OFF_PSN: usize = 16;
const OFF_DATA_START: usize = 24;

const FLAG_LIVE: u16 = 1;

/// An in-memory database page. Owns its backing bytes.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8]>,
}

/// One slot-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    pub(crate) data_off: u16,
    pub(crate) len: u16,
    pub(crate) flags: u16,
    pub(crate) psn: Psn,
}

impl Slot {
    /// The entry of a dead (freed or never used) slot last modified at
    /// `psn`.
    pub(crate) fn dead(psn: Psn) -> Slot {
        Slot {
            data_off: 0,
            len: 0,
            flags: 0,
            psn,
        }
    }

    pub(crate) fn live(&self) -> bool {
        self.flags & FLAG_LIVE != 0
    }
}

impl Page {
    /// Format a fresh page. `psn` is the seed PSN taken from the space
    /// allocation map entry (§2 / \[18\]); a brand-new database uses
    /// [`Psn::ZERO`].
    pub fn format(page_size: usize, id: PageId, psn: Psn) -> Page {
        assert!(
            (128..=1 << 16).contains(&page_size),
            "page size out of range"
        );
        let mut buf = vec![0u8; page_size].into_boxed_slice();
        buf[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(&MAGIC.to_le_bytes());
        buf[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        let mut p = Page { buf };
        p.set_slot_count(0);
        p.set_id(id);
        p.set_psn(psn);
        p.set_data_start(page_size);
        p
    }

    /// Read the page id straight out of a raw frame's header without
    /// materializing (or validating) the whole page — what a partition
    /// router needs to pick the owning server for a shipped copy.
    pub fn peek_id(bytes: &[u8]) -> Result<PageId> {
        check_header(bytes)?;
        Ok(PageId(u64::from_le_bytes(
            bytes[OFF_PAGE_ID..OFF_PAGE_ID + 8].try_into().unwrap(),
        )))
    }

    /// Reconstruct a page from its disk form (the whole `page_size`
    /// buffer), validating the header and every live slot's extent.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Page> {
        if bytes.len() < 128 {
            return Err(FglError::Corrupt(
                "page buffer shorter than 128 bytes".into(),
            ));
        }
        check_header(&bytes)?;
        let p = Page {
            buf: bytes.into_boxed_slice(),
        };
        if p.slots_end() > p.data_start() || p.data_start() > p.size() {
            return Err(FglError::Corrupt("page extents out of range".into()));
        }
        p.check_slots()?;
        Ok(p)
    }

    /// The page's wire form: header and slot table, then the data region,
    /// with the free gap between them left out (module docs).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.buf[..self.slots_end()]);
        out.extend_from_slice(&self.buf[self.data_start()..]);
        out
    }

    /// [`to_wire`](Self::to_wire) as a shared frame, written straight into
    /// its one allocation.
    pub fn wire_frame(&self) -> Arc<[u8]> {
        let head = &self.buf[..self.slots_end()];
        let data = &self.buf[self.data_start()..];
        let mut frame = Arc::<[u8]>::new_uninit_slice(head.len() + data.len());
        let out = Arc::get_mut(&mut frame).expect("a fresh Arc is unique");
        out[..head.len()].write_copy_of_slice(head);
        out[head.len()..].write_copy_of_slice(data);
        // SAFETY: the two copies above wrote every byte of the frame.
        unsafe { frame.assume_init() }
    }

    /// Length of [`to_wire`](Self::to_wire)'s output: `size()` less the
    /// free gap.
    pub fn wire_len(&self) -> usize {
        self.size() - self.contiguous_free()
    }

    /// Rebuild a page of the receiver's `page_size` from its wire form,
    /// with a zeroed gap. A body whose header, slot table, `data_start`,
    /// implied page size or live-slot extents do not fit is refused as
    /// [`FglError::Corrupt`]; hostile bytes never panic.
    pub fn from_wire(bytes: &[u8], page_size: usize) -> Result<Page> {
        if !(128..=1 << 16).contains(&page_size) {
            return Err(FglError::Corrupt(format!(
                "page size {page_size} out of range"
            )));
        }
        check_header(bytes)?;
        let mut p = Page {
            buf: vec![0u8; page_size].into_boxed_slice(),
        };
        p.buf[..PAGE_HEADER_SIZE].copy_from_slice(&bytes[..PAGE_HEADER_SIZE]);
        let (slots_end, data_start) = (p.slots_end(), p.data_start());
        if slots_end > bytes.len() || slots_end > data_start || data_start > page_size {
            return Err(FglError::Corrupt(
                "page body's slot table or data start out of range".into(),
            ));
        }
        let implied = data_start + (bytes.len() - slots_end);
        if implied != page_size {
            return Err(FglError::Corrupt(format!(
                "page body implies a {implied} B page, expected {page_size} B"
            )));
        }
        p.buf[PAGE_HEADER_SIZE..slots_end].copy_from_slice(&bytes[PAGE_HEADER_SIZE..slots_end]);
        p.buf[data_start..].copy_from_slice(&bytes[slots_end..]);
        p.check_slots()?;
        Ok(p)
    }

    /// Every live slot's extent lies in the data region, and together
    /// they fit in it — so later reads cannot slice out of bounds and the
    /// free-space arithmetic cannot underflow on a corrupted page.
    fn check_slots(&self) -> Result<()> {
        let mut live = 0usize;
        for (i, slot) in self.iter_slots() {
            let (off, end) = (
                slot.data_off as usize,
                slot.data_off as usize + slot.len as usize,
            );
            if end > self.size() || (slot.len > 0 && off < self.data_start()) {
                return Err(FglError::Corrupt(format!(
                    "slot {} extent [{off}, {end}) out of range",
                    i.0
                )));
            }
            live += slot.len as usize;
        }
        if live > self.size() - self.data_start() {
            return Err(FglError::Corrupt(format!(
                "live objects total {live} B, more than the data region"
            )));
        }
        Ok(())
    }

    /// The page's disk form: all `page_size` bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the page into its disk form.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into_vec()
    }

    /// Total size of the page in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    pub fn id(&self) -> PageId {
        PageId(u64::from_le_bytes(
            self.buf[OFF_PAGE_ID..OFF_PAGE_ID + 8].try_into().unwrap(),
        ))
    }

    fn set_id(&mut self, id: PageId) {
        self.buf[OFF_PAGE_ID..OFF_PAGE_ID + 8].copy_from_slice(&id.0.to_le_bytes());
    }

    /// Current page sequence number.
    pub fn psn(&self) -> Psn {
        Psn(u64::from_le_bytes(
            self.buf[OFF_PSN..OFF_PSN + 8].try_into().unwrap(),
        ))
    }

    /// Overwrite the PSN. Used by the merge procedure and by recovery when
    /// the server tells a client which PSN to install (§3.3, §3.4).
    pub fn set_psn(&mut self, psn: Psn) {
        self.buf[OFF_PSN..OFF_PSN + 8].copy_from_slice(&psn.0.to_le_bytes());
    }

    pub fn slot_count(&self) -> u16 {
        u16::from_le_bytes(
            self.buf[OFF_SLOT_COUNT..OFF_SLOT_COUNT + 2]
                .try_into()
                .unwrap(),
        )
    }

    pub(crate) fn set_slot_count(&mut self, n: u16) {
        self.buf[OFF_SLOT_COUNT..OFF_SLOT_COUNT + 2].copy_from_slice(&n.to_le_bytes());
    }

    /// Offset of the data region; a stored 0 is a 64 KiB page's empty
    /// region (module docs).
    fn data_start(&self) -> usize {
        match u16::from_le_bytes(
            self.buf[OFF_DATA_START..OFF_DATA_START + 2]
                .try_into()
                .unwrap(),
        ) {
            0 => 1 << 16,
            v => v as usize,
        }
    }

    fn set_data_start(&mut self, v: usize) {
        self.buf[OFF_DATA_START..OFF_DATA_START + 2].copy_from_slice(&(v as u16).to_le_bytes());
    }

    /// End of the slot table.
    fn slots_end(&self) -> usize {
        PAGE_HEADER_SIZE + self.slot_count() as usize * SLOT_ENTRY_SIZE
    }

    fn slot_entry_off(&self, slot: SlotId) -> usize {
        PAGE_HEADER_SIZE + slot.0 as usize * SLOT_ENTRY_SIZE
    }

    pub(crate) fn read_slot(&self, slot: SlotId) -> Option<Slot> {
        if slot.0 >= self.slot_count() {
            return None;
        }
        let off = self.slot_entry_off(slot);
        let e = &self.buf[off..off + SLOT_ENTRY_SIZE];
        Some(Slot {
            data_off: u16::from_le_bytes(e[0..2].try_into().unwrap()),
            len: u16::from_le_bytes(e[2..4].try_into().unwrap()),
            flags: u16::from_le_bytes(e[4..6].try_into().unwrap()),
            psn: Psn(u64::from_le_bytes(e[8..16].try_into().unwrap())),
        })
    }

    pub(crate) fn write_slot(&mut self, slot: SlotId, s: Slot) {
        let off = self.slot_entry_off(slot);
        let e = &mut self.buf[off..off + SLOT_ENTRY_SIZE];
        e[0..2].copy_from_slice(&s.data_off.to_le_bytes());
        e[2..4].copy_from_slice(&s.len.to_le_bytes());
        e[4..6].copy_from_slice(&s.flags.to_le_bytes());
        e[6..8].copy_from_slice(&0u16.to_le_bytes());
        e[8..16].copy_from_slice(&s.psn.0.to_le_bytes());
    }

    /// The bytes of a live slot entry's object.
    pub(crate) fn extent(&self, s: Slot) -> &[u8] {
        &self.buf[s.data_off as usize..s.data_off as usize + s.len as usize]
    }

    /// Mutable [`extent`](Self::extent).
    pub(crate) fn extent_mut(&mut self, s: Slot) -> &mut [u8] {
        &mut self.buf[s.data_off as usize..s.data_off as usize + s.len as usize]
    }

    /// Bytes of contiguous free space between the slot table and the data
    /// region (not counting reclaimable dead-object space).
    pub fn contiguous_free(&self) -> usize {
        self.data_start() - self.slots_end()
    }

    /// Total free space assuming compaction (dead objects reclaimed).
    pub fn total_free(&self) -> usize {
        let live: usize = self.iter_slots().map(|(_, s)| s.len as usize).sum();
        self.size() - self.slots_end() - live
    }

    fn iter_slots(&self) -> impl Iterator<Item = (SlotId, Slot)> + '_ {
        (0..self.slot_count()).filter_map(move |i| {
            let id = SlotId(i);
            self.read_slot(id).filter(|s| s.live()).map(|s| (id, s))
        })
    }

    /// Ids of all live slots on the page.
    pub fn live_slots(&self) -> Vec<SlotId> {
        self.iter_slots().map(|(id, _)| id).collect()
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.iter_slots().count()
    }

    /// Does `slot` name a live object?
    pub fn slot_is_live(&self, slot: SlotId) -> bool {
        self.read_slot(slot).map(|s| s.live()).unwrap_or(false)
    }

    /// The PSN the page had when `slot` was last modified, if the slot ever
    /// existed (live or dead).
    pub fn slot_psn(&self, slot: SlotId) -> Option<Psn> {
        self.read_slot(slot).map(|s| s.psn)
    }

    /// Read the bytes of a live object.
    pub fn read_object(&self, slot: SlotId) -> Result<&[u8]> {
        let s = self
            .read_slot(slot)
            .filter(|s| s.live())
            .ok_or_else(|| FglError::ObjectNotFound(ObjectId::new(self.id(), slot)))?;
        Ok(self.extent(s))
    }

    /// Bump the page PSN by one (a transaction modified the page, §2) and
    /// return the new value.
    fn bump_psn(&mut self) -> Psn {
        let next = self.psn().next();
        self.set_psn(next);
        next
    }

    /// The slot [`insert_object`](Self::insert_object) would pick right
    /// now (dead-slot reuse, else a new entry). Lets callers write the log
    /// record *before* mutating the page (WAL ordering).
    pub fn peek_insert_slot(&self) -> SlotId {
        (0..self.slot_count())
            .map(SlotId)
            .find(|&i| self.read_slot(i).map(|s| !s.live()).unwrap_or(false))
            .unwrap_or(SlotId(self.slot_count()))
    }

    /// Allocate a new object with the given contents; returns its slot.
    /// This is a **non-mergeable** structural update (§3.1): callers must
    /// hold a page-level exclusive lock.
    pub fn insert_object(&mut self, data: &[u8]) -> Result<SlotId> {
        // Reuse a dead slot if possible, else append a new slot entry.
        let reuse = (0..self.slot_count())
            .map(SlotId)
            .find(|&i| self.read_slot(i).map(|s| !s.live()).unwrap_or(false));
        let (slot, new_entry) = match reuse {
            Some(s) => (s, false),
            None => (SlotId(self.slot_count()), true),
        };
        self.place_object(slot, new_entry, data)?;
        Ok(slot)
    }

    /// Allocate a new object at a specific slot (used when a logged update
    /// is applied or rolled back). Extends the slot table as needed.
    pub fn insert_object_at(&mut self, slot: SlotId, data: &[u8]) -> Result<()> {
        if self.slot_is_live(slot) {
            return Err(FglError::Protocol(format!(
                "insert_object_at: slot {slot:?} already live on {}",
                self.id()
            )));
        }
        let new_entry = slot.0 >= self.slot_count();
        if new_entry && slot.0 > self.slot_count() {
            // Create intermediate dead slots so the table stays dense.
            let added = slot.0 as usize + 1 - self.slot_count() as usize;
            self.reserve(added * SLOT_ENTRY_SIZE + data.len())?;
            let cur_psn = self.psn();
            while self.slot_count() <= slot.0 {
                let s = SlotId(self.slot_count());
                self.set_slot_count(self.slot_count() + 1);
                self.write_slot(s, Slot::dead(cur_psn));
            }
            return self.place_object(slot, false, data);
        }
        self.place_object(slot, new_entry, data)
    }

    fn place_object(&mut self, slot: SlotId, new_entry: bool, data: &[u8]) -> Result<()> {
        self.reserve(data.len() + if new_entry { SLOT_ENTRY_SIZE } else { 0 })?;
        if new_entry {
            self.set_slot_count(self.slot_count() + 1);
        }
        let psn = self.bump_psn();
        self.put_object(slot, data, psn);
        Ok(())
    }

    /// Make `needed` bytes of contiguous free space, compacting when the
    /// dead-object space allows it; a page that cannot is left untouched.
    pub(crate) fn reserve(&mut self, needed: usize) -> Result<()> {
        if self.contiguous_free() < needed && self.total_free() >= needed {
            self.compact();
        }
        if self.contiguous_free() < needed {
            return Err(FglError::PageFull {
                page: self.id(),
                needed,
                free: self.contiguous_free(),
            });
        }
        Ok(())
    }

    /// Copy `data` to the low end of the data region as the live object of
    /// the existing slot entry `slot`, with slot PSN `psn`. The caller has
    /// [`reserve`](Self::reserve)d the room.
    pub(crate) fn put_object(&mut self, slot: SlotId, data: &[u8], psn: Psn) {
        let new_start = self.data_start() - data.len();
        self.buf[new_start..new_start + data.len()].copy_from_slice(data);
        self.set_data_start(new_start);
        self.write_slot(
            slot,
            Slot {
                data_off: new_start as u16,
                len: data.len() as u16,
                flags: FLAG_LIVE,
                psn,
            },
        );
    }

    /// Overwrite the full contents of a live object **without changing its
    /// size** — the *mergeable* update of §3.1.
    pub fn write_object(&mut self, slot: SlotId, data: &[u8]) -> Result<()> {
        let s = self
            .read_slot(slot)
            .filter(|s| s.live())
            .ok_or_else(|| FglError::ObjectNotFound(ObjectId::new(self.id(), slot)))?;
        if s.len as usize != data.len() {
            return Err(FglError::Protocol(format!(
                "write_object: size change {} -> {} on {:?} requires resize_object",
                s.len,
                data.len(),
                ObjectId::new(self.id(), slot)
            )));
        }
        self.extent_mut(s).copy_from_slice(data);
        let psn = self.bump_psn();
        self.write_slot(slot, Slot { psn, ..s });
        Ok(())
    }

    /// Overwrite `data.len()` bytes of a live object starting at byte
    /// `offset` — a partial mergeable update.
    pub fn write_object_at(&mut self, slot: SlotId, offset: usize, data: &[u8]) -> Result<()> {
        let s = self
            .read_slot(slot)
            .filter(|s| s.live())
            .ok_or_else(|| FglError::ObjectNotFound(ObjectId::new(self.id(), slot)))?;
        if offset + data.len() > s.len as usize {
            return Err(FglError::Protocol(format!(
                "write_object_at: range {}..{} exceeds object length {}",
                offset,
                offset + data.len(),
                s.len
            )));
        }
        let base = s.data_off as usize + offset;
        self.buf[base..base + data.len()].copy_from_slice(data);
        let psn = self.bump_psn();
        self.write_slot(slot, Slot { psn, ..s });
        Ok(())
    }

    /// Change the size of a live object, preserving the common prefix.
    /// **Non-mergeable** (§3.1): requires a page-level exclusive lock.
    pub fn resize_object(&mut self, slot: SlotId, new_len: usize) -> Result<()> {
        let s = self
            .read_slot(slot)
            .filter(|s| s.live())
            .ok_or_else(|| FglError::ObjectNotFound(ObjectId::new(self.id(), slot)))?;
        let old = self.extent(s).to_vec();
        let mut data = old.clone();
        data.resize(new_len, 0);
        // Free the old extent (mark dead), then re-place. Keep the psn
        // bookkeeping of place_object.
        self.write_slot(slot, Slot { flags: 0, ..s });
        match self.place_object(slot, false, &data) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll the slot back to its previous state on failure.
                self.write_slot(slot, s);
                Err(e)
            }
        }
    }

    /// Delete a live object. **Non-mergeable** (§3.1).
    pub fn free_object(&mut self, slot: SlotId) -> Result<Vec<u8>> {
        let s = self
            .read_slot(slot)
            .filter(|s| s.live())
            .ok_or_else(|| FglError::ObjectNotFound(ObjectId::new(self.id(), slot)))?;
        let old = self.extent(s).to_vec();
        let psn = self.bump_psn();
        self.write_slot(slot, Slot::dead(psn));
        Ok(old)
    }

    /// Install an exact object state at `slot` with an explicit slot PSN,
    /// without bumping the page PSN. `None` installs the *dead* state
    /// (object freed). This is the primitive behind recovery redo/undo,
    /// which must reproduce historical PSNs rather than mint new ones.
    pub fn install_object(&mut self, slot: SlotId, data: Option<&[u8]>, psn: Psn) -> Result<()> {
        // Extend the slot table with dead entries up to `slot`.
        while self.slot_count() <= slot.0 {
            self.reserve(SLOT_ENTRY_SIZE)?;
            let s = SlotId(self.slot_count());
            self.set_slot_count(self.slot_count() + 1);
            self.write_slot(s, Slot::dead(Psn::ZERO));
        }
        let cur = self.read_slot(slot).expect("slot exists after extension");
        match data {
            None => {
                self.write_slot(slot, Slot::dead(psn));
                Ok(())
            }
            Some(bytes) => {
                if cur.live() && cur.len as usize == bytes.len() {
                    // Overwrite in place.
                    self.extent_mut(cur).copy_from_slice(bytes);
                    self.write_slot(slot, Slot { psn, ..cur });
                    return Ok(());
                }
                // Mark dead, then re-place with the explicit PSN. A failed
                // reservation has not compacted, so the rollback restores
                // `cur`'s extent where it still lies.
                self.write_slot(slot, Slot { flags: 0, ..cur });
                if let Err(e) = self.reserve(bytes.len()) {
                    self.write_slot(slot, cur);
                    return Err(e);
                }
                self.put_object(slot, bytes, psn);
                Ok(())
            }
        }
    }

    /// Compact the data region, squeezing out dead-object space. Slot ids
    /// and PSNs are unaffected. Objects keep their order: each moves up
    /// with `copy_within`, the highest first, so none overwrites one that
    /// has not moved yet. The only allocation is the sort order, one `u32`
    /// per live object.
    pub fn compact(&mut self) {
        let mut order: Vec<u32> = self
            .iter_slots()
            .map(|(id, s)| u32::from(s.data_off) << 16 | u32::from(id.0))
            .collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        let mut cursor = self.size();
        for key in order {
            let id = SlotId(key as u16);
            let s = self.read_slot(id).expect("a live slot");
            let off = s.data_off as usize;
            cursor -= s.len as usize;
            self.buf.copy_within(off..off + s.len as usize, cursor);
            self.write_slot(
                id,
                Slot {
                    data_off: cursor as u16,
                    ..s
                },
            );
        }
        self.set_data_start(cursor);
    }

    /// Snapshot of the page's live objects: `(slot, slot_psn, bytes)`.
    /// Used by the verification oracle.
    pub fn snapshot_objects(&self) -> Vec<(SlotId, Psn, Vec<u8>)> {
        self.iter_slots()
            .map(|(id, s)| (id, s.psn, self.extent(s).to_vec()))
            .collect()
    }

    /// Snapshot of every slot, dead ones included: `(slot, slot_psn, live,
    /// bytes-if-live)` — a page's per-slot content, whatever its layout.
    /// Tests compare pages by it.
    pub fn snapshot_all_slots(&self) -> Vec<(SlotId, Psn, bool, Vec<u8>)> {
        (0..self.slot_count())
            .map(SlotId)
            .filter_map(|id| self.read_slot(id).map(|s| (id, s)))
            .map(|(id, s)| {
                let bytes = if s.live() {
                    self.extent(s).to_vec()
                } else {
                    Vec::new()
                };
                (id, s.psn, s.live(), bytes)
            })
            .collect()
    }
}

/// A header's length, magic and format version, shared by the disk and
/// wire forms.
fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < PAGE_HEADER_SIZE {
        return Err(FglError::Corrupt(
            "page bytes shorter than their header".into(),
        ));
    }
    let magic = u32::from_le_bytes(bytes[OFF_MAGIC..OFF_MAGIC + 4].try_into().unwrap());
    if magic != MAGIC {
        return Err(FglError::Corrupt(format!("bad page magic {magic:#x}")));
    }
    let ver = u16::from_le_bytes(bytes[OFF_VERSION..OFF_VERSION + 2].try_into().unwrap());
    if ver != FORMAT_VERSION {
        return Err(FglError::Corrupt(format!("unsupported page format {ver}")));
    }
    Ok(())
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id())
            .field("psn", &self.psn())
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.contiguous_free())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::rng::DetRng;

    fn page() -> Page {
        Page::format(4096, PageId(7), Psn::ZERO)
    }

    #[test]
    fn format_and_header_roundtrip() {
        let p = page();
        assert_eq!(p.id(), PageId(7));
        assert_eq!(p.psn(), Psn::ZERO);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.live_count(), 0);
        assert_eq!(p.contiguous_free(), 4096 - PAGE_HEADER_SIZE);
    }

    #[test]
    fn from_bytes_validates_magic() {
        let p = page();
        let mut bytes = p.into_bytes();
        let ok = Page::from_bytes(bytes.clone());
        assert!(ok.is_ok());
        bytes[0] ^= 0xFF;
        assert!(Page::from_bytes(bytes).is_err());
    }

    #[test]
    fn insert_read_roundtrip_bumps_psn() {
        let mut p = page();
        let s = p.insert_object(b"hello").unwrap();
        assert_eq!(p.read_object(s).unwrap(), b"hello");
        assert_eq!(p.psn(), Psn(1));
        assert_eq!(p.slot_psn(s), Some(Psn(1)));
        let s2 = p.insert_object(b"world!").unwrap();
        assert_ne!(s, s2);
        assert_eq!(p.psn(), Psn(2));
        assert_eq!(p.read_object(s).unwrap(), b"hello");
        assert_eq!(p.read_object(s2).unwrap(), b"world!");
    }

    #[test]
    fn write_object_same_size_only() {
        let mut p = page();
        let s = p.insert_object(b"aaaa").unwrap();
        p.write_object(s, b"bbbb").unwrap();
        assert_eq!(p.read_object(s).unwrap(), b"bbbb");
        assert!(p.write_object(s, b"toolong").is_err());
    }

    #[test]
    fn partial_write() {
        let mut p = page();
        let s = p.insert_object(b"abcdef").unwrap();
        p.write_object_at(s, 2, b"XY").unwrap();
        assert_eq!(p.read_object(s).unwrap(), b"abXYef");
        assert!(p.write_object_at(s, 5, b"ZZ").is_err());
    }

    #[test]
    fn free_then_reuse_slot() {
        let mut p = page();
        let s0 = p.insert_object(b"one").unwrap();
        let _s1 = p.insert_object(b"two").unwrap();
        let old = p.free_object(s0).unwrap();
        assert_eq!(old, b"one");
        assert!(p.read_object(s0).is_err());
        // Next insert reuses the dead slot.
        let s2 = p.insert_object(b"three").unwrap();
        assert_eq!(s2, s0);
        assert_eq!(p.read_object(s2).unwrap(), b"three");
    }

    #[test]
    fn resize_preserves_prefix() {
        let mut p = page();
        let s = p.insert_object(b"abcd").unwrap();
        p.resize_object(s, 8).unwrap();
        assert_eq!(p.read_object(s).unwrap(), b"abcd\0\0\0\0");
        p.resize_object(s, 2).unwrap();
        assert_eq!(p.read_object(s).unwrap(), b"ab");
    }

    #[test]
    fn page_fills_up_and_reports_full() {
        let mut p = Page::format(256, PageId(1), Psn::ZERO);
        let blob = [0xAB; 64];
        let mut inserted = 0;
        loop {
            match p.insert_object(&blob) {
                Ok(_) => inserted += 1,
                Err(FglError::PageFull { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(inserted >= 2, "inserted only {inserted}");
        // All previously inserted objects still readable.
        for s in p.live_slots() {
            assert_eq!(p.read_object(s).unwrap(), blob);
        }
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = Page::format(512, PageId(1), Psn::ZERO);
        let a = p.insert_object(&[1u8; 100]).unwrap();
        let b = p.insert_object(&[2u8; 100]).unwrap();
        let c = p.insert_object(&[3u8; 100]).unwrap();
        p.free_object(b).unwrap();
        // A 150-byte object does not fit contiguously but fits after
        // compaction.
        assert!(p.contiguous_free() < 150 + SLOT_ENTRY_SIZE);
        let d = p.insert_object(&[4u8; 150]).unwrap();
        assert_eq!(p.read_object(a).unwrap(), &[1u8; 100][..]);
        assert_eq!(p.read_object(c).unwrap(), &[3u8; 100][..]);
        assert_eq!(p.read_object(d).unwrap(), &[4u8; 150][..]);
    }

    #[test]
    fn compaction_after_interleaved_resizes_keeps_every_slot() {
        let mut rng = DetRng::new(0xC0_4AC7);
        for case in 0..200 {
            let mut p = Page::format(2048, PageId(case), Psn::ZERO);
            let slots: Vec<SlotId> = (0..rng.range_usize(1, 24))
                .map(|i| p.insert_object(&[i as u8; 20]).unwrap())
                .collect();
            for _ in 0..rng.range_usize(0, 40) {
                let s = slots[rng.range_usize(0, slots.len())];
                let _ = p.resize_object(s, rng.range_usize(0, 60));
            }
            let before = p.snapshot_all_slots();
            p.compact();
            assert_eq!(p.snapshot_all_slots(), before, "case {case}");
            assert_eq!(p.total_free(), p.contiguous_free(), "case {case}");
            Page::from_bytes(p.as_bytes().to_vec()).unwrap();
        }
    }

    #[test]
    fn insert_at_specific_slot_extends_table() {
        let mut p = page();
        p.insert_object_at(SlotId(3), b"x").unwrap();
        assert_eq!(p.slot_count(), 4);
        assert!(p.slot_is_live(SlotId(3)));
        assert!(!p.slot_is_live(SlotId(0)));
        assert_eq!(p.read_object(SlotId(3)).unwrap(), b"x");
        // Inserting at a live slot is a protocol error.
        assert!(p.insert_object_at(SlotId(3), b"y").is_err());
    }

    #[test]
    fn snapshot_includes_dead_slots() {
        let mut p = page();
        let a = p.insert_object(b"keep").unwrap();
        let b = p.insert_object(b"kill").unwrap();
        p.free_object(b).unwrap();
        let snap = p.snapshot_all_slots();
        assert_eq!(snap.len(), 2);
        let (_, _, live_a, data_a) = &snap[a.0 as usize];
        assert!(*live_a);
        assert_eq!(data_a, b"keep");
        let (_, psn_b, live_b, _) = &snap[b.0 as usize];
        assert!(!*live_b);
        // The dead slot's PSN reflects the free, for merge ordering.
        assert_eq!(*psn_b, p.psn());
    }

    /// One random mutation of `p`, as the protocol could apply it.
    fn mutate(p: &mut Page, rng: &mut DetRng) {
        let slots = p.slot_count().max(1) as u64;
        let slot = SlotId(rng.gen_range(slots + 2) as u16);
        let mut data = vec![0u8; rng.range_usize(0, 96)];
        rng.fill_bytes(&mut data);
        let _ = match rng.gen_range(6) {
            0 => p.insert_object(&data).map(drop),
            1 => p.write_object(slot, &data).or_else(|_| {
                let len = p.read_object(slot).map(<[u8]>::len).unwrap_or(0);
                p.write_object(slot, &data[..len.min(data.len())])
            }),
            2 => p.resize_object(slot, data.len()),
            3 => p.free_object(slot).map(drop),
            4 => {
                p.compact();
                Ok(())
            }
            _ => {
                let psn = p.psn().next();
                let live = rng.chance(0.8).then_some(data.as_slice());
                p.install_object(slot, live, psn).map(|()| p.set_psn(psn))
            }
        };
    }

    /// `p` round-trips through its wire form, which is `size()` less the
    /// gap, and merging the shipped copy equals merging the whole one.
    fn assert_wire_round_trip(p: &Page, resident: &Page) {
        let wire = p.to_wire();
        assert_eq!(wire.len(), p.wire_len());
        assert_eq!(p.wire_len(), p.size() - p.contiguous_free());
        let back = Page::from_wire(&wire, p.size()).unwrap();
        assert_eq!(back.id(), p.id());
        assert_eq!(back.psn(), p.psn());
        assert_eq!(back.slot_count(), p.slot_count());
        assert_eq!(back.data_start(), p.data_start());
        assert_eq!(back.snapshot_all_slots(), p.snapshot_all_slots());
        assert_eq!(back.to_wire(), wire);
        let via_wire = crate::merge::merge_pages(resident, &back).unwrap();
        let whole = crate::merge::merge_pages(resident, p).unwrap();
        assert_eq!(via_wire.as_bytes(), whole.as_bytes());
    }

    #[test]
    fn wire_form_round_trips_random_pages() {
        let mut rng = DetRng::new(0x3417_E000);
        for case in 0..400u64 {
            let size = [128, 512, 4096, 1 << 16][case as usize % 4];
            let mut p = Page::format(size, PageId(case), Psn(case));
            let steps = rng.range_usize(0, 80);
            let split = rng.range_usize(0, steps + 1);
            let mut resident = p.clone();
            for step in 0..steps {
                if step == split {
                    resident = p.clone();
                }
                mutate(&mut p, &mut rng);
            }
            assert_wire_round_trip(&p, &resident);
        }
    }

    #[test]
    fn wire_form_of_empty_and_gapless_pages() {
        for size in [128, 4096, 1 << 16] {
            let empty = Page::format(size, PageId(1), Psn(3));
            assert_eq!(empty.wire_len(), PAGE_HEADER_SIZE);
            assert_wire_round_trip(&empty, &empty);

            let mut full = empty.clone();
            while full.insert_object(&[0x5A; 40]).is_ok() {}
            let last = full.contiguous_free() - SLOT_ENTRY_SIZE;
            full.insert_object(&vec![0xA5; last]).unwrap();
            assert_eq!(full.contiguous_free(), 0, "{size} B page keeps a gap");
            assert_eq!(full.wire_len(), size);
            assert_wire_round_trip(&full, &empty);
        }
    }

    /// A decoded hostile body must be a page every accessor handles.
    fn exercise(p: &Page) {
        for i in 0..p.slot_count() {
            let _ = p.read_object(SlotId(i));
        }
        let _ = (p.snapshot_all_slots(), p.total_free(), p.live_count());
        let again = Page::from_wire(&p.to_wire(), p.size()).unwrap();
        assert_eq!(again.snapshot_all_slots(), p.snapshot_all_slots());
        let mut q = p.clone();
        q.compact();
        let _ = q.insert_object(b"after");
    }

    #[test]
    fn hostile_wire_bodies_are_refused_or_valid() {
        let mut p = Page::format(512, PageId(9), Psn(4));
        for obj in [&b"first"[..], b"second", b"third!"] {
            p.insert_object(obj).unwrap();
        }
        p.free_object(SlotId(1)).unwrap();
        let wire = p.to_wire();
        let check = |bytes: &[u8], size: usize| match Page::from_wire(bytes, size) {
            Ok(q) => exercise(&q),
            Err(FglError::Corrupt(_)) => {}
            Err(e) => panic!("hostile body gave {e}, not Corrupt"),
        };
        for len in 0..wire.len() {
            assert!(Page::from_wire(&wire[..len], 512).is_err(), "len {len}");
        }
        for byte in 0..p.slots_end() {
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[byte] ^= 1 << bit;
                check(&bad, 512);
            }
        }
        for size in [256, 1024, 4096, 1 << 16, 64, 1 << 20] {
            assert!(Page::from_wire(&wire, size).is_err(), "size {size}");
        }
        let mut longer = wire.clone();
        longer.push(0);
        assert!(Page::from_wire(&longer, 512).is_err());
    }

    #[test]
    fn clone_is_deep() {
        let mut p = page();
        let s = p.insert_object(b"orig").unwrap();
        let q = p.clone();
        p.write_object(s, b"new!").unwrap();
        assert_eq!(q.read_object(s).unwrap(), b"orig");
        assert_eq!(p.read_object(s).unwrap(), b"new!");
    }
}
