//! Big-endian field access helpers.
//!
//! All wire formats in this crate are network (big-endian) byte order. These
//! helpers centralize the unchecked slice arithmetic so the packet views stay
//! declarative; callers are expected to have validated lengths via
//! `check_len` first.

/// A byte range inside a header, `start..end`.
pub type Field = core::ops::Range<usize>;

/// Read a `u16` at `off`.
#[inline]
pub fn read_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Write a `u16` at `off`.
#[inline]
pub fn write_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Read a 24-bit unsigned value at `off` (stored in 3 bytes).
#[inline]
pub fn read_u24(buf: &[u8], off: usize) -> u32 {
    (u32::from(buf[off]) << 16) | (u32::from(buf[off + 1]) << 8) | u32::from(buf[off + 2])
}

/// Write the low 24 bits of `v` at `off` (3 bytes). High bits are discarded.
#[inline]
pub fn write_u24(buf: &mut [u8], off: usize, v: u32) {
    buf[off] = (v >> 16) as u8;
    buf[off + 1] = (v >> 8) as u8;
    buf[off + 2] = v as u8;
}

/// Read a `u32` at `off`.
#[inline]
pub fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Write a `u32` at `off`.
#[inline]
pub fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_be_bytes());
}

/// Read a 56-bit unsigned value at `off` (stored in 7 bytes).
#[inline]
pub fn read_u56(buf: &[u8], off: usize) -> u64 {
    let mut v = 0u64;
    for b in &buf[off..off + 7] {
        v = (v << 8) | u64::from(*b);
    }
    v
}

/// Write the low 56 bits of `v` at `off` (7 bytes). High bits are discarded.
#[inline]
pub fn write_u56(buf: &mut [u8], off: usize, v: u64) {
    let bytes = v.to_be_bytes();
    buf[off..off + 7].copy_from_slice(&bytes[1..8]);
}

/// Read a `u64` at `off`.
#[inline]
pub fn read_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_be_bytes(b)
}

/// Write a `u64` at `off`.
#[inline]
pub fn write_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_roundtrip() {
        let mut buf = [0u8; 4];
        write_u16(&mut buf, 1, 0xBEEF);
        assert_eq!(buf, [0, 0xBE, 0xEF, 0]);
        assert_eq!(read_u16(&buf, 1), 0xBEEF);
    }

    #[test]
    fn u24_roundtrip_and_truncation() {
        let mut buf = [0u8; 3];
        write_u24(&mut buf, 0, 0x01_AB_CD_EF);
        // High byte (0x01) is discarded: only 24 bits are stored.
        assert_eq!(read_u24(&buf, 0), 0x00AB_CDEF);
    }

    #[test]
    fn u32_roundtrip() {
        let mut buf = [0u8; 6];
        write_u32(&mut buf, 2, 0xDEAD_BEEF);
        assert_eq!(read_u32(&buf, 2), 0xDEAD_BEEF);
    }

    #[test]
    fn u56_roundtrip_and_truncation() {
        let mut buf = [0u8; 7];
        write_u56(&mut buf, 0, 0xFF_12_34_56_78_9A_BC_DE);
        assert_eq!(read_u56(&buf, 0), 0x12_34_56_78_9A_BC_DE);
    }

    #[test]
    fn u64_roundtrip() {
        let mut buf = [0u8; 10];
        write_u64(&mut buf, 1, u64::MAX - 5);
        assert_eq!(read_u64(&buf, 1), u64::MAX - 5);
    }
}
