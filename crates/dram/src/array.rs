//! Sparse, lazily-allocated backing store for a DRAM bank's contents.
//!
//! A full iPIM machine has 4096 banks of 16 MiB each; allocating them eagerly
//! would need 64 GiB of host memory. Workloads touch a small, contiguous
//! fraction of each bank, so the array allocates 4 KiB pages on first write
//! and reads unwritten locations as zero (DRAM contents after host
//! initialization are defined by the host upload anyway).

use crate::IdMap;

const PAGE_BYTES: usize = 4096;

/// Sparse byte array modelling one bank's data contents.
#[derive(Debug, Clone, Default)]
pub struct BankArray {
    pages: IdMap<u32, Box<[u8; PAGE_BYTES]>>,
}

impl BankArray {
    /// Creates an empty (all-zero) bank array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `buf.len()` bytes starting at `addr`; unwritten bytes are zero.
    pub fn read(&self, addr: u32, buf: &mut [u8]) {
        let mut addr = addr as usize;
        let mut off = 0;
        while off < buf.len() {
            let page = (addr / PAGE_BYTES) as u32;
            let inner = addr % PAGE_BYTES;
            let n = (PAGE_BYTES - inner).min(buf.len() - off);
            match self.pages.get(&page) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[inner..inner + n]),
                None => buf[off..off + n].fill(0),
            }
            addr += n;
            off += n;
        }
    }

    /// Writes `data` starting at byte `addr`, allocating pages as needed.
    pub fn write(&mut self, addr: u32, data: &[u8]) {
        let mut addr = addr as usize;
        let mut off = 0;
        while off < data.len() {
            let page = (addr / PAGE_BYTES) as u32;
            let inner = addr % PAGE_BYTES;
            let n = (PAGE_BYTES - inner).min(data.len() - off);
            let p = self.pages.entry(page).or_insert_with(|| Box::new([0; PAGE_BYTES]));
            p[inner..inner + n].copy_from_slice(&data[off..off + n]);
            addr += n;
            off += n;
        }
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: u32) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads an `f32` at `addr`.
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` at `addr`.
    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Number of 4 KiB pages currently allocated.
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let a = BankArray::new();
        let mut buf = [0xAAu8; 32];
        a.read(123, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(a.allocated_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut a = BankArray::new();
        let data: Vec<u8> = (0..=255).collect();
        a.write(100, &data);
        let mut back = vec![0u8; 256];
        a.read(100, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn cross_page_access() {
        let mut a = BankArray::new();
        let data = vec![7u8; 10000];
        a.write(PAGE_BYTES as u32 - 5, &data);
        assert_eq!(a.allocated_pages(), 4);
        let mut back = vec![0u8; 10000];
        a.read(PAGE_BYTES as u32 - 5, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn scalar_helpers() {
        let mut a = BankArray::new();
        a.write_u32(8, 0xDEAD_BEEF);
        assert_eq!(a.read_u32(8), 0xDEAD_BEEF);
        a.write_f32(16, -1.25);
        assert_eq!(a.read_f32(16), -1.25);
    }

    #[test]
    fn partial_overwrite_preserves_neighbors() {
        let mut a = BankArray::new();
        a.write(0, &[1, 2, 3, 4]);
        a.write(1, &[9, 9]);
        let mut buf = [0u8; 4];
        a.read(0, &mut buf);
        assert_eq!(buf, [1, 9, 9, 4]);
    }
}
