//! Minimal binary codec for log records: a cursor-based writer/reader pair
//! plus the checksum guarding each record on disk. [`Reader`] is also how
//! `fgl-net` decodes its wire frames: one byte reader for every format.
//!
//! Log record scalars (ids, LSNs, PSNs, image lengths) are unsigned
//! LEB128 varints ([`Writer::varint`]); frame integers — the log frame's
//! `[len][checksum]`, list counts and every wire-frame field — stay
//! fixed-width little-endian, and byte strings u32-length-prefixed. The
//! codec is hand-rolled (rather than serde) so that LSNs remain *byte
//! addresses* (§2) with a stable, inspectable on-disk format.

use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, SlotId, TxnId};

/// The per-record checksum: 32 bits over every byte of `bytes`, its length
/// mixed in. Detects torn tail writes after a crash; not meant to defeat
/// an adversary.
///
/// Little-endian, arithmetic mod 2^64: from `h = BASIS ^ len * K`, each
/// 8-byte word `w` (the last zero-padded; the length tells paddings apart)
/// sets `h = (h ^ w) * K; h ^= h >> 32`; the result is `h`'s high half —
/// the half every bit of the last word reaches, a product's low half
/// never seeing the multiplicand's high bits. Each step is a bijection of
/// `h`, so inputs differing in one word reach different states (DESIGN.md
/// §14). One multiply per eight bytes where FNV-1a spent eight.
pub fn checksum(bytes: &[u8]) -> u32 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = BASIS ^ (bytes.len() as u64).wrapping_mul(K);
    let mut mix = |word: u64| {
        h = (h ^ word).wrapping_mul(K);
        h ^= h >> 32;
    };
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        mix(u64::from_le_bytes(last));
    }
    (h >> 32) as u32
}

/// Append-only byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Continue writing at the end of `buf` ([`Self::into_bytes`] hands
    /// it back).
    pub(crate) fn onto(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `v` behind its u32 length.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }

    /// `v` as an unsigned LEB128 varint: seven bits a byte, the low
    /// group first, the high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// `v` as it is, with no length: bytes whose extent the reader knows
    /// otherwise, such as the rest of a frame body.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn lsn(&mut self, v: Lsn) {
        self.u64(v.0);
    }

    pub fn psn(&mut self, v: Psn) {
        self.u64(v.0);
    }

    pub fn opt_psn(&mut self, v: Option<Psn>) {
        match v {
            None => self.u8(0),
            Some(p) => {
                self.u8(1);
                self.psn(p);
            }
        }
    }

    pub fn page(&mut self, v: PageId) {
        self.u64(v.0);
    }

    pub fn object(&mut self, v: ObjectId) {
        self.page(v.page);
        self.u16(v.slot.0);
    }
}

/// Cursor-based byte reader with corruption-safe bounds checks.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FglError::Corrupt(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A u32 element count, refused when the bytes left cannot hold that
    /// many elements of at least `min_elem` bytes each — so a corrupt
    /// count never sizes an allocation.
    pub fn count(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(FglError::Corrupt(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A u32-counted list of elements of at least `min_elem` bytes each,
    /// each read by `elem`. The count passes [`Self::count`] before it
    /// sizes the list: every counted list is read here.
    pub fn list<T>(
        &mut self,
        min_elem: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(min_elem)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(elem(self)?);
        }
        Ok(v)
    }

    /// A u32-length-prefixed byte string, borrowed.
    pub fn sized(&mut self) -> Result<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Every byte left.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Refuse bytes left over after a complete decode.
    pub fn done(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(FglError::Corrupt(format!("{n} trailing bytes"))),
        }
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An unsigned LEB128 varint ([`Writer::varint`]). One that runs past
    /// ten bytes or overflows 64 bits is `Corrupt`.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for (i, &b) in self.buf[self.pos..].iter().take(10).enumerate() {
            // The tenth byte holds bit 63 alone, and ends the varint.
            if i == 9 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(FglError::Corrupt("varint cut short or past 64 bits".into()))
    }

    /// A varint that must fit `T`; a larger one is `Corrupt`.
    pub fn varint_as<T: TryFrom<u64>>(&mut self) -> Result<T> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| {
            FglError::Corrupt(format!(
                "varint {v} overflows {}",
                std::any::type_name::<T>()
            ))
        })
    }

    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(FglError::Corrupt(format!("bad bool tag {t}"))),
        }
    }

    pub fn lsn(&mut self) -> Result<Lsn> {
        Ok(Lsn(self.u64()?))
    }

    pub fn psn(&mut self) -> Result<Psn> {
        Ok(Psn(self.u64()?))
    }

    pub fn opt_psn(&mut self) -> Result<Option<Psn>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.psn()?)),
            t => Err(FglError::Corrupt(format!("bad option tag {t}"))),
        }
    }

    pub fn page(&mut self) -> Result<PageId> {
        Ok(PageId(self.u64()?))
    }

    pub fn client(&mut self) -> Result<ClientId> {
        Ok(ClientId(self.u32()?))
    }

    pub fn txn(&mut self) -> Result<TxnId> {
        Ok(TxnId(self.u64()?))
    }

    pub fn object(&mut self) -> Result<ObjectId> {
        Ok(ObjectId::new(self.page()?, SlotId(self.u16()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX);
        w.u8(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_and_options_roundtrip() {
        let mut w = Writer::new();
        w.bytes(b"hello");
        w.opt_psn(Some(Psn(9)));
        w.opt_psn(None);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.sized().unwrap(), b"hello");
        assert_eq!(r.opt_psn().unwrap(), Some(Psn(9)));
        assert_eq!(r.opt_psn().unwrap(), None);
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let values = [0, 1, 127, 128, 300, 1 << 21, (1 << 28) - 1, u64::MAX];
        let widths = [1, 1, 1, 2, 2, 4, 4, 10];
        for (v, width) in values.into_iter().zip(widths) {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), width, "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    /// Eleven bytes, a tenth byte past bit 63, a value too wide for its
    /// target type and a cut varint are all `Corrupt`.
    #[test]
    fn hostile_varints_are_corrupt() {
        let corrupt = |bytes: &[u8], narrow: bool| {
            let mut r = Reader::new(bytes);
            let got = if narrow {
                r.varint_as::<u16>().map(u64::from)
            } else {
                r.varint()
            };
            assert!(matches!(got, Err(FglError::Corrupt(_))), "{bytes:?}");
        };
        corrupt(&[0xFF; 11], false);
        corrupt(
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            false,
        );
        corrupt(&[0x80, 0x80, 0x04], true);
        corrupt(&[0x80], false);
        let mut r = Reader::new(&[0xFF, 0xFF, 0x03]);
        assert_eq!(r.varint_as::<u16>().unwrap(), u16::MAX);
    }

    #[test]
    fn id_roundtrip() {
        let mut w = Writer::new();
        let obj = ObjectId::new(PageId(77), SlotId(3));
        w.object(obj);
        w.u64(TxnId::compose(ClientId(2), 9).0);
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.object().unwrap(), obj);
        assert_eq!(r.txn().unwrap(), TxnId::compose(ClientId(2), 9));
        assert_eq!(r.client().unwrap(), ClientId(5));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.bytes(b"full payload");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 3]);
        assert!(r.sized().is_err());
    }

    /// Pinned against an independent implementation of the definition in
    /// [`checksum`]'s docs: a change to the function is a log-format
    /// change and must show up here.
    #[test]
    fn checksum_test_vectors() {
        let ramp: Vec<u8> = (0..174).collect();
        let vectors: [(&[u8], u32); 8] = [
            (b"", 0xcbf2_9ce4),
            (b"a", 0x4d19_f479),
            (b"\0", 0xe7f3_4390),
            (b"\0\0", 0x6c29_9f27),
            (b"12345678", 0x8cc6_6b42),
            (b"123456789", 0x300c_eff5),
            (b"some log record", 0xcecf_9eca),
            (&ramp, 0x32b0_ce8e),
        ];
        for (input, want) in vectors {
            assert_eq!(checksum(input), want, "checksum of {input:?}");
        }
    }

    #[test]
    fn checksum_differs_on_flip() {
        let a = checksum(b"some log record");
        let mut data = b"some log record".to_vec();
        data[3] ^= 1;
        assert_ne!(a, checksum(&data));
        assert_eq!(a, checksum(b"some log record"));
    }
}
