//! Guest physical memory: a sparse, byte-addressable 64-bit space.
//!
//! This is a *value* store; cache/DRAM *timing* lives in `sim-mem`. The two
//! are consulted together by the core engine: timing from the hierarchy,
//! data from here.
//!
//! All 64-bit accesses must be 8-byte aligned — guest code in this
//! workspace is generated, and the allocator hands out aligned addresses, so
//! misalignment is always a bug and is reported as a fault.

use sim_core::{FxHashMap, SimError, SimResult};

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Page numbers below this are held in a direct-indexed table (covers the
/// first 256 MiB of guest address space, where the bump allocator places
/// everything); stray far addresses fall back to a hash map so the full
/// 64-bit space stays addressable.
const DIRECT_PAGES: u64 = 1 << 16;

/// Sparse guest memory.
///
/// The value store sits on the interpreter's hottest path (every guest
/// load and store), so lookup is a direct array index for the low address
/// range rather than a hash: `pages[page]` is `None` until first written.
#[derive(Debug, Default)]
pub struct GuestMem {
    /// Direct-indexed table for pages below [`DIRECT_PAGES`].
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Overflow for far pages (rare: wild pointers, stress tests).
    far: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl GuestMem {
    /// An empty address space.
    pub fn new() -> Self {
        GuestMem::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        let page = addr >> PAGE_BITS;
        if page < DIRECT_PAGES {
            let idx = page as usize;
            if idx >= self.pages.len() {
                self.pages.resize_with(idx + 1, || None);
            }
            return self.pages[idx].get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        }
        self.far
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        let page = addr >> PAGE_BITS;
        if page < DIRECT_PAGES {
            self.pages.get(page as usize)?.as_deref()
        } else {
            self.far.get(&page).map(|p| &**p)
        }
    }

    /// Reads an aligned 64-bit word. Unmapped memory reads as zero.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> SimResult<u64> {
        check_aligned(addr)?;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        Ok(match self.page(addr) {
            Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte slice")),
            None => 0,
        })
    }

    /// Writes an aligned 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> SimResult<()> {
        check_aligned(addr)?;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Adds `delta` to the word at `addr`, returning the previous value.
    pub fn fetch_add_u64(&mut self, addr: u64, delta: u64) -> SimResult<u64> {
        let old = self.read_u64(addr)?;
        self.write_u64(addr, old.wrapping_add(delta))?;
        Ok(old)
    }

    /// Copies a byte slice into guest memory (host-side initialization).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            self.page_mut(a)[off] = b;
        }
    }

    /// Reads a byte slice out of guest memory (host-side extraction).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let a = addr + i as u64;
                let off = (a as usize) & (PAGE_SIZE - 1);
                self.page(a).map_or(0, |p| p[off])
            })
            .collect()
    }

    /// Number of materialized pages (for memory-footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() + self.far.len()
    }
}

fn check_aligned(addr: u64) -> SimResult<()> {
    if !addr.is_multiple_of(8) {
        return Err(SimError::Fault(format!(
            "unaligned 64-bit access at {addr:#x}"
        )));
    }
    Ok(())
}

/// A bump allocator for laying out guest data regions.
///
/// Host-side experiment code uses this to place lock words, counter
/// accumulators, log buffers, and workload data without overlap. Allocations
/// are 64-byte aligned by default so distinct objects never share a cache
/// line unless explicitly requested (false sharing is opt-in, not an
/// accident).
#[derive(Debug, Clone)]
pub struct MemLayout {
    cursor: u64,
}

impl MemLayout {
    /// Starts allocating at the given base address.
    pub fn new(base: u64) -> Self {
        MemLayout {
            cursor: align_up(base, 64),
        }
    }

    /// Allocates `bytes` bytes aligned to `align` (power of two).
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        let addr = align_up(self.cursor, align);
        self.cursor = addr + bytes;
        addr
    }

    /// Allocates an array of `n` 64-bit words, cache-line aligned.
    pub fn alloc_words(&mut self, n: u64) -> u64 {
        self.alloc(n * 8, 64)
    }

    /// The next free address.
    pub fn watermark(&self) -> u64 {
        self.cursor
    }
}

impl Default for MemLayout {
    fn default() -> Self {
        // Leave page zero unused so "address 0" bugs surface as zero reads
        // of untouched memory rather than silently aliasing real data.
        MemLayout::new(0x1_0000)
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = GuestMem::new();
        assert_eq!(m.read_u64(0x5000).unwrap(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = GuestMem::new();
        m.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn unaligned_access_faults() {
        let mut m = GuestMem::new();
        assert!(m.read_u64(0x1001).is_err());
        assert!(m.write_u64(0x1004, 1).is_err());
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let mut m = GuestMem::new();
        m.write_u64(0x2000, 10).unwrap();
        assert_eq!(m.fetch_add_u64(0x2000, 5).unwrap(), 10);
        assert_eq!(m.read_u64(0x2000).unwrap(), 15);
    }

    #[test]
    fn bytes_cross_page_boundaries() {
        let mut m = GuestMem::new();
        let addr = 0x1FFE; // straddles the 0x1000/0x2000 page line
        m.write_bytes(addr, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(addr, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn word_write_within_page_works_at_page_end() {
        let mut m = GuestMem::new();
        // Last aligned word of a page.
        m.write_u64(0x1FF8, 42).unwrap();
        assert_eq!(m.read_u64(0x1FF8).unwrap(), 42);
    }

    #[test]
    fn layout_respects_alignment_and_no_overlap() {
        let mut l = MemLayout::new(0x100);
        let a = l.alloc(8, 64);
        let b = l.alloc(8, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 8);
        assert_ne!(a / 64, b / 64, "separate cache lines");
    }

    #[test]
    fn layout_word_array() {
        let mut l = MemLayout::default();
        let arr = l.alloc_words(10);
        assert_eq!(arr % 64, 0);
        assert!(l.watermark() >= arr + 80);
    }
}
