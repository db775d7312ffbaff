//! Sparse paged memory for the emulator.

use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Byte-addressable sparse memory. Pages are allocated on first write (and
/// on first read, returning zeroes), so guest code can use a large stack and
/// heap without the emulator reserving host memory up front.
#[derive(Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl Memory {
    /// Creates empty memory.
    pub(crate) fn new() -> Memory {
        Memory::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Reads a single byte.
    pub(crate) fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Writes a single byte.
    pub(crate) fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        self.page_mut(addr)[off] = value;
    }

    /// Reads `n <= 8` bytes little-endian, zero-extended to 64 bits.
    pub(crate) fn read(&self, addr: u64, n: u32) -> u64 {
        let mut v = 0u64;
        for i in 0..n as u64 {
            v |= (self.read_u8(addr + i) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `value` little-endian.
    pub fn write(&mut self, addr: u64, n: u32, value: u64) {
        for i in 0..n as u64 {
            self.write_u8(addr + i, (value >> (8 * i)) as u8);
        }
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_across_pages() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 3; // straddles a page boundary
        m.write(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, 4), 0x5566_7788);
        assert_eq!(m.read_u8(addr), 0x88);
        assert!(m.pages.len() >= 2);
    }

    #[test]
    fn unmapped_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
    }

    #[test]
    fn byte_slice_helpers() {
        let mut m = Memory::new();
        m.write_bytes(0x1000, b"hello");
        assert_eq!(m.read_bytes(0x1000, 5), b"hello");
    }
}
