//! Sparse, byte-addressable physical memory with a frame allocator and
//! copy-on-write paging.
//!
//! # Copy-on-write frame model
//!
//! The whole point of MicroScope is that one logical victim run is denoised
//! into thousands of replays, and every replay starts by rewinding the
//! machine to the armed checkpoint. The naive snapshot — deep-cloning every
//! resident page — makes checkpoint capture and restore O(memory size),
//! which caps replay throughput long before the core model does.
//!
//! [`PhysMem`] therefore shares its pages:
//!
//! * the page table (`ppn → page`) is an [`Rc`]-shared map, so **cloning a
//!   `PhysMem` is one reference bump** — O(1), no byte is copied;
//! * each page is itself an [`Rc`]-shared 4 KiB frame, so the first write
//!   after a clone copies **only the written page** ([`Rc::make_mut`]),
//!   never the whole store;
//! * an access goes a page at a time: one map lookup (and, for a write, at
//!   most one copy) per page touched, so only an access that straddles a
//!   page boundary is split;
//! * per-epoch dirty counters ([`PhysMem::epoch_dirty_pages`]) let the
//!   checkpoint layer report restore cost as *pages actually dirtied
//!   between capture and rewind*, pinning the O(dirty) claim in benches.
//!
//! Reads of never-written memory still return zeros (as if backed by the
//! zero page). Page tables, victim data, monitor buffers and AES tables all
//! live here, which is what lets the cache hierarchy treat them uniformly —
//! and what makes the CoW sharing pay for the page-table frames too.
//!
//! The counts are `Rc`, not `Arc`: every write pays a `make_mut`, and a
//! non-atomic count makes that a plain compare instead of a locked
//! compare-and-swap. A machine never leaves the thread that built it, so
//! `PhysMem` is `!Send` by design (see [`PhysMem`]).

use microscope_cache::{PAddr, PAGE_BYTES};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::rc::Rc;

const PAGE: usize = PAGE_BYTES as usize;

/// One 4 KiB physical frame.
type Page = [u8; PAGE];

/// The page table: frame number → shared frame.
type PageMap = HashMap<u64, Rc<Page>, BuildHasherDefault<FrameHasher>>;

/// Hashes a frame number with one multiply by the 64-bit golden ratio.
///
/// Frame numbers are small and dense (the allocator hands them out in
/// order), so they need no protection against chosen collisions, only a
/// spread across both the low bits (bucket index) and the high bits (the
/// map's control tag). Results read the map only through lookups and
/// `len()`, never its iteration order (which the default hasher already
/// randomized per process).
#[derive(Default)]
struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the page map hashes only u64 frame numbers")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Splits the `len` bytes at `addr` at page boundaries, yielding each
/// piece as `(ppn, offset in that page, range in the caller's buffer)`.
fn page_pieces(addr: PAddr, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.offset(done as u64);
            let off = at.page_offset() as usize;
            let span = done..len.min(done + PAGE - off);
            done = span.end;
            (at.ppn(), off, span)
        })
    })
}

/// Simulated physical memory (copy-on-write paged; see the module docs).
///
/// ```
/// use microscope_mem::{PhysMem, PAddr};
/// let mut m = PhysMem::new();
/// let frame = m.alloc_frame();
/// let addr = PAddr(frame * 4096 + 8);
/// m.write_u64(addr, 0xdead_beef);
/// assert_eq!(m.read_u64(addr), 0xdead_beef);
/// assert_eq!(m.read_u32(addr), 0xdead_beef);
/// assert_eq!(m.read_u8(addr.offset(3)), 0xde);
///
/// // A clone is a snapshot: it shares every page until one side writes.
/// let snap = m.clone();
/// m.write_u64(addr, 1);
/// assert_eq!(snap.read_u64(addr), 0xdead_beef);
/// ```
///
/// Its pages are shared through non-atomic [`Rc`] counts, so a `PhysMem`
/// cannot cross threads; a store shared between threads would have to
/// bring `Arc` back on purpose:
///
/// ```compile_fail
/// fn needs_send<T: Send>(_: T) {}
/// needs_send(microscope_mem::PhysMem::new());
/// ```
#[derive(Debug, Default)]
pub struct PhysMem {
    pages: Rc<PageMap>,
    next_frame: u64,
    /// Pages copied by CoW since construction (monotone while this lineage
    /// lives; a restore rewinds it to the captured value, which is how the
    /// checkpoint layer computes per-epoch deltas).
    cow_copied: Cell<u64>,
    /// Distinct pages dirtied since the last [`PhysMem::begin_epoch`].
    epoch_dirty: Cell<u64>,
    /// Times the shared page *table* was copied (first write after a clone).
    table_copies: Cell<u64>,
}

impl Clone for PhysMem {
    /// O(1): bumps the shared page-table reference. No page is copied until
    /// one of the clones writes.
    fn clone(&self) -> Self {
        PhysMem {
            pages: Rc::clone(&self.pages),
            next_frame: self.next_frame,
            cow_copied: self.cow_copied.clone(),
            epoch_dirty: self.epoch_dirty.clone(),
            table_copies: self.table_copies.clone(),
        }
    }
}

impl PhysMem {
    /// Creates an empty physical memory. Frame 0 is reserved (never handed
    /// out) so a zero PPN can act as a null sentinel in page tables.
    pub fn new() -> Self {
        PhysMem {
            pages: Rc::default(),
            next_frame: 1,
            cow_copied: Cell::new(0),
            epoch_dirty: Cell::new(0),
            table_copies: Cell::new(0),
        }
    }

    /// Allocates a fresh, zeroed physical frame and returns its PPN.
    pub fn alloc_frame(&mut self) -> u64 {
        let ppn = self.next_frame;
        self.next_frame += 1;
        ppn
    }

    /// Allocates `n` consecutive frames, returning the first PPN.
    pub fn alloc_frames(&mut self, n: u64) -> u64 {
        let first = self.next_frame;
        self.next_frame += n;
        first
    }

    /// Number of pages that have actually been materialized by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages copied by copy-on-write since this store (lineage) was built.
    /// Feeds the `checkpoint.pages_cow` metric.
    pub fn cow_copied_pages(&self) -> u64 {
        self.cow_copied.get()
    }

    /// Times the shared page table itself was duplicated (first write after
    /// a snapshot). One per capture/restore epoch in steady replay.
    pub fn table_copies(&self) -> u64 {
        self.table_copies.get()
    }

    /// Distinct pages dirtied since the last [`PhysMem::begin_epoch`] call
    /// — exactly the pages a rewind to that epoch's snapshot discards.
    pub fn epoch_dirty_pages(&self) -> u64 {
        self.epoch_dirty.get()
    }

    /// Marks an epoch boundary (a checkpoint capture or restore): resets
    /// the per-epoch dirty-page counter. Interior-mutable so the snapshot
    /// path, which only has `&self`, can mark it too.
    pub fn begin_epoch(&self) {
        self.epoch_dirty.set(0);
    }

    fn page(&self, ppn: u64) -> Option<&Page> {
        self.pages.get(&ppn).map(|b| &**b)
    }

    /// The writable view of a page, materializing or CoW-copying as needed.
    fn page_mut(&mut self, ppn: u64) -> &mut Page {
        if Rc::strong_count(&self.pages) > 1 {
            self.table_copies.set(self.table_copies.get() + 1);
        }
        let table = Rc::make_mut(&mut self.pages);
        let slot = match table.entry(ppn) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let slot = e.into_mut();
                if Rc::strong_count(slot) > 1 {
                    // First write to this page since a snapshot: copy it now.
                    self.cow_copied.set(self.cow_copied.get() + 1);
                    self.epoch_dirty.set(self.epoch_dirty.get() + 1);
                }
                slot
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                // A fresh materialization is epoch-dirty too: a rewind to
                // the epoch's snapshot discards it like any other write.
                self.epoch_dirty.set(self.epoch_dirty.get() + 1);
                e.insert(Rc::new([0u8; PAGE]))
            }
        };
        Rc::make_mut(slot)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PAddr) -> u8 {
        match self.page(addr.ppn()) {
            Some(p) => p[addr.page_offset() as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: PAddr, value: u8) {
        let off = addr.page_offset() as usize;
        self.page_mut(addr.ppn())[off] = value;
    }

    /// Reads little-endian bytes starting at `addr`: one page lookup per
    /// page touched, so only a read that crosses a page boundary splits.
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) {
        for (ppn, off, span) in page_pieces(addr, buf.len()) {
            let chunk = &mut buf[span];
            match self.page(ppn) {
                Some(p) => chunk.copy_from_slice(&p[off..off + chunk.len()]),
                None => chunk.fill(0),
            }
        }
    }

    /// Writes bytes starting at `addr`: one page lookup (and at most one
    /// copy-on-write) per page touched, so only a write that crosses a page
    /// boundary splits.
    pub fn write_bytes(&mut self, addr: PAddr, bytes: &[u8]) {
        for (ppn, off, span) in page_pieces(addr, bytes.len()) {
            let chunk = &bytes[span];
            self.page_mut(ppn)[off..off + chunk.len()].copy_from_slice(chunk);
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: PAddr) -> u16 {
        let mut b = [0; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: PAddr) -> u32 {
        let mut b = [0; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: PAddr, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: PAddr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: PAddr, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a sized little-endian value (1, 2, 4 or 8 bytes), zero-extended
    /// to `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read_sized(&self, addr: PAddr, size: u8) -> u64 {
        match size {
            1 => self.read_u8(addr) as u64,
            2 => self.read_u16(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            other => panic!("unsupported access size {other}"),
        }
    }

    /// Writes the low `size` bytes of `value` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write_sized(&mut self, addr: PAddr, value: u64, size: u8) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            other => panic!("unsupported access size {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = PhysMem::new();
        assert_eq!(m.read_u64(PAddr(0x12_3456)), 0);
    }

    #[test]
    fn frames_are_distinct_and_nonzero() {
        let mut m = PhysMem::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut m = PhysMem::new();
        let addr = PAddr(PAGE_BYTES - 4);
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u32(PAddr(PAGE_BYTES)), 0x1122_3344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sized_accesses_truncate_and_extend() {
        let mut m = PhysMem::new();
        let a = PAddr(0x2000);
        m.write_sized(a, 0xffff_ffff_ffff_ffff, 2);
        assert_eq!(m.read_sized(a, 2), 0xffff);
        assert_eq!(m.read_sized(a, 4), 0x0000_ffff);
        assert_eq!(m.read_sized(a, 1), 0xff);
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_size_panics() {
        let m = PhysMem::new();
        let _ = m.read_sized(PAddr(0), 3);
    }

    #[test]
    fn clone_is_a_snapshot_and_writes_are_isolated() {
        let mut m = PhysMem::new();
        for i in 0..64u64 {
            m.write_u64(PAddr(0x1000 * (i + 1)), i);
        }
        let snap = m.clone();
        // Mutate a handful of pages in the live store: each first write
        // copies a page the snapshot shares.
        let copied = m.cow_copied_pages();
        m.write_u64(PAddr(0x1000), 999);
        m.write_u64(PAddr(0x2000), 998);
        assert_eq!(m.cow_copied_pages() - copied, 2);
        // Snapshot still sees the captured bytes.
        assert_eq!(snap.read_u64(PAddr(0x1000)), 0);
        assert_eq!(snap.read_u64(PAddr(0x2000)), 1);
        assert_eq!(m.read_u64(PAddr(0x1000)), 999);
        // Restoring = cloning the snapshot back.
        let restored = snap.clone();
        assert_eq!(restored.read_u64(PAddr(0x1000)), 0);
        assert_eq!(restored.read_u64(PAddr(0x2000)), 1);
    }

    #[test]
    fn cow_copies_count_only_dirtied_pages() {
        let mut m = PhysMem::new();
        for i in 0..100u64 {
            m.write_u64(PAddr(0x1000 * (i + 1)), i);
        }
        let base_cow = m.cow_copied_pages();
        let _snap = m.clone();
        m.begin_epoch();
        // Dirty 3 distinct pages, one of them twice.
        m.write_u8(PAddr(0x1000), 1);
        m.write_u8(PAddr(0x1008), 2);
        m.write_u8(PAddr(0x2000), 3);
        m.write_u8(PAddr(0x3000), 4);
        assert_eq!(m.epoch_dirty_pages(), 3);
        assert_eq!(m.cow_copied_pages() - base_cow, 3);
    }

    #[test]
    fn unshared_writes_do_not_count_as_cow() {
        let mut m = PhysMem::new();
        m.write_u64(PAddr(0x1000), 7);
        m.write_u64(PAddr(0x1000), 8);
        assert_eq!(m.cow_copied_pages(), 0);
        assert_eq!(m.table_copies(), 0);
    }
}
