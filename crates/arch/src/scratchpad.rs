//! Scratchpad memories: the process-group scratchpad (PGSM) and the vault
//! scratchpad (VSM).

use ipim_dram::BankArray;

/// A byte-addressed scratchpad with access counting.
///
/// PGSM (8 KiB, one per process group) provides intra-PG data sharing with
/// per-PE read/write ports; VSM (256 KiB, one per vault) provides intra-vault
/// sharing, remote-access buffering and instruction storage (paper
/// Sec. IV-E). Out-of-range accesses panic: the compiler must never emit
/// them, so they indicate a codegen bug.
///
/// The contents live in a [`BankArray`]: 4 KiB pages allocated on first
/// write, unwritten bytes reading as zero. Programs touch a few KiB of the
/// VSM, so a fresh machine does not zero 256 KiB per vault.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    pages: BankArray,
    size: usize,
    accesses: u64,
}

impl Scratchpad {
    /// Creates a zeroed scratchpad of `size` bytes.
    pub fn new(size: u32) -> Self {
        Self { pages: BankArray::new(), size: size as usize, accesses: 0 }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the scratchpad has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the scratchpad.
    pub fn read(&mut self, addr: u32, buf: &mut [u8]) {
        let a = addr as usize;
        assert!(
            a + buf.len() <= self.size,
            "scratchpad read {a}+{} out of {} bytes",
            buf.len(),
            self.size
        );
        self.pages.read(addr, buf);
        self.accesses += 1;
    }

    /// Writes `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the scratchpad.
    pub fn write(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        assert!(
            a + data.len() <= self.size,
            "scratchpad write {a}+{} out of {} bytes",
            data.len(),
            self.size
        );
        self.pages.write(addr, data);
        self.accesses += 1;
    }

    /// Reads a `u32` at `addr`.
    pub fn read_u32(&mut self, addr: u32) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a `u32` at `addr`.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Number of read/write accesses so far (for energy accounting).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_counting() {
        let mut s = Scratchpad::new(64);
        assert_eq!(s.len(), 64);
        s.write_u32(8, 0xFEED);
        assert_eq!(s.read_u32(8), 0xFEED);
        assert_eq!(s.accesses(), 2);
    }

    #[test]
    fn zero_initialized() {
        let mut s = Scratchpad::new(16);
        assert_eq!(s.read_u32(12), 0);
    }

    #[test]
    fn pages_allocate_on_first_write() {
        let mut s = Scratchpad::new(256 * 1024);
        let mut buf = [0xAA; 16];
        s.read(4096 - 8, &mut buf);
        assert_eq!(buf, [0; 16]);
        assert_eq!(s.pages.allocated_pages(), 0);
        s.write(2 * 4096 - 8, &[7; 16]);
        assert_eq!(s.pages.allocated_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_read_panics() {
        let mut s = Scratchpad::new(16);
        let mut b = [0u8; 4];
        s.read(13, &mut b);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_write_panics() {
        let mut s = Scratchpad::new(16);
        s.write(16, &[1]);
    }
}
