//! CR3-rooted address spaces and software page walks.
//!
//! An [`AddressSpace`] is a lightweight handle `{CR3, PCID}`; the tables
//! themselves live in [`PhysMem`]. All the operations the MicroScope kernel
//! module performs on page tables (paper §5.2.2: "identify the page table
//! entries required for a virtual memory translation … by performing a
//! software page walk") are methods here.

use crate::fault::{PageFault, PageFaultKind, Translation};
use crate::phys::PhysMem;
use crate::pte::{PtLevel, Pte, PteFlags};
use crate::vaddr::VAddr;
use microscope_cache::{PAddr, PAGE_BYTES};

/// A 4-level page-table tree identified by its root frame and PCID.
///
/// `AddressSpace` is `Copy`: it is a *capability* to interpret memory, not
/// the memory itself, mirroring how an OS passes `cr3` values around.
///
/// ```
/// use microscope_mem::{AddressSpace, PhysMem, PteFlags, VAddr};
/// let mut phys = PhysMem::new();
/// let asp = AddressSpace::new(&mut phys, 7);
/// let frame = phys.alloc_frame();
/// let va = VAddr(0x1234_5000);
/// asp.map(&mut phys, va, frame, PteFlags::user_data());
/// let t = asp.translate(&mut phys, va.offset(0x10), false).unwrap();
/// assert_eq!(t.paddr.0, frame * 4096 + 0x10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressSpace {
    cr3: PAddr,
    pcid: u16,
}

impl AddressSpace {
    /// Allocates a fresh, empty top-level table and returns its handle.
    pub fn new(phys: &mut PhysMem, pcid: u16) -> Self {
        let root = phys.alloc_frame();
        AddressSpace {
            cr3: PAddr(root * PAGE_BYTES),
            pcid,
        }
    }

    /// The physical address of the root (PGD) table.
    pub fn cr3(&self) -> PAddr {
        self.cr3
    }

    /// The process-context identifier used to tag TLB entries.
    pub fn pcid(&self) -> u16 {
        self.pcid
    }

    /// Physical address of the table entry consulted at `level` for `vaddr`,
    /// assuming all levels above it are present. Returns `None` when an
    /// upper level is missing or not present.
    pub fn entry_paddr(&self, phys: &PhysMem, vaddr: VAddr, level: PtLevel) -> Option<PAddr> {
        let mut table = self.cr3;
        for l in PtLevel::ALL {
            let entry = table.offset(vaddr.table_index(l) * 8);
            if l == level {
                return Some(entry);
            }
            let pte = Pte(phys.read_u64(entry));
            if !pte.present() || pte.ppn() == 0 {
                return None;
            }
            table = PAddr(pte.ppn() * PAGE_BYTES);
        }
        unreachable!("loop covers all levels");
    }

    /// The physical addresses of all four entries translating `vaddr`
    /// (PGD, PUD, PMD, PTE order) — exactly what the Replayer flushes before
    /// each replay. Entries below a non-present level are `None`. One walk
    /// down the tables: entry `i` is [`AddressSpace::entry_paddr`] at level
    /// `i`.
    pub fn entry_paddrs(&self, phys: &PhysMem, vaddr: VAddr) -> [Option<PAddr>; 4] {
        let mut out = [None; 4];
        let mut table = self.cr3;
        for (slot, l) in out.iter_mut().zip(PtLevel::ALL) {
            let entry = table.offset(vaddr.table_index(l) * 8);
            *slot = Some(entry);
            if l == PtLevel::Pte {
                break;
            }
            let pte = Pte(phys.read_u64(entry));
            if !pte.present() || pte.ppn() == 0 {
                break;
            }
            table = PAddr(pte.ppn() * PAGE_BYTES);
        }
        out
    }

    /// Reads the raw entry at `level` for `vaddr`, if reachable.
    pub fn read_entry(&self, phys: &PhysMem, vaddr: VAddr, level: PtLevel) -> Option<Pte> {
        self.entry_paddr(phys, vaddr, level)
            .map(|pa| Pte(phys.read_u64(pa)))
    }

    /// Overwrites the entry at `level` for `vaddr`.
    ///
    /// # Panics
    ///
    /// Panics if the entry is unreachable (an upper level is missing); map
    /// the page first.
    pub fn write_entry(&self, phys: &mut PhysMem, vaddr: VAddr, level: PtLevel, pte: Pte) {
        let pa = self
            .entry_paddr(phys, vaddr, level)
            .expect("upper levels must be present to write an entry");
        phys.write_u64(pa, pte.0);
    }

    /// Maps the page containing `vaddr` to physical frame `ppn`, creating
    /// intermediate tables as needed.
    pub fn map(&self, phys: &mut PhysMem, vaddr: VAddr, ppn: u64, flags: PteFlags) {
        let mut table = self.cr3;
        for l in [PtLevel::Pgd, PtLevel::Pud, PtLevel::Pmd] {
            let entry_pa = table.offset(vaddr.table_index(l) * 8);
            let mut pte = Pte(phys.read_u64(entry_pa));
            if !pte.present() || pte.ppn() == 0 {
                let frame = phys.alloc_frame();
                pte = Pte::new(frame, PteFlags::table());
                phys.write_u64(entry_pa, pte.0);
            }
            table = PAddr(pte.ppn() * PAGE_BYTES);
        }
        let leaf_pa = table.offset(vaddr.table_index(PtLevel::Pte) * 8);
        phys.write_u64(leaf_pa, Pte::new(ppn, flags).0);
    }

    /// Allocates frames for and maps `len` bytes starting at `vaddr`
    /// (rounded out to page boundaries). Returns the number of pages mapped.
    pub fn alloc_map(&self, phys: &mut PhysMem, vaddr: VAddr, len: u64, flags: PteFlags) -> u64 {
        let first = vaddr.vpn();
        let last = vaddr.offset(len.max(1) - 1).vpn();
        for vpn in first..=last {
            let frame = phys.alloc_frame();
            self.map(phys, VAddr(vpn * PAGE_BYTES), frame, flags);
        }
        last - first + 1
    }

    /// Removes the mapping for the page containing `vaddr` (zeroes the leaf
    /// PTE). Upper levels are left in place. Returns the old entry.
    pub fn unmap(&self, phys: &mut PhysMem, vaddr: VAddr) -> Option<Pte> {
        let pa = self.entry_paddr(phys, vaddr, PtLevel::Pte)?;
        let old = Pte(phys.read_u64(pa));
        phys.write_u64(pa, 0);
        Some(old)
    }

    /// Sets or clears the leaf Present bit — the attack's core primitive.
    ///
    /// Returns the previous entry. Returns `None` (and does nothing) when
    /// the translation path does not exist.
    pub fn set_present(&self, phys: &mut PhysMem, vaddr: VAddr, present: bool) -> Option<Pte> {
        let pa = self.entry_paddr(phys, vaddr, PtLevel::Pte)?;
        let old = Pte(phys.read_u64(pa));
        phys.write_u64(pa, old.with_present(present).0);
        Some(old)
    }

    /// Reads the Accessed bit of the leaf PTE (Sneaky Page Monitoring).
    pub fn accessed(&self, phys: &PhysMem, vaddr: VAddr) -> Option<bool> {
        self.read_entry(phys, vaddr, PtLevel::Pte)
            .map(|p| p.flags().accessed)
    }

    /// Reads the Dirty bit of the leaf PTE.
    pub fn dirty(&self, phys: &PhysMem, vaddr: VAddr) -> Option<bool> {
        self.read_entry(phys, vaddr, PtLevel::Pte)
            .map(|p| p.flags().dirty)
    }

    /// Performs a *software* page walk: pure translation with no timing, no
    /// cache traffic and no Accessed/Dirty updates. This is both the OS's
    /// own walk (paper §5.2.2) and the reference the hardware walker is
    /// property-tested against.
    ///
    /// # Errors
    ///
    /// Returns the precise [`PageFault`] a hardware walk would raise.
    pub fn translate(
        &self,
        phys: &PhysMem,
        vaddr: VAddr,
        is_write: bool,
    ) -> Result<Translation, PageFault> {
        let mut table = self.cr3;
        for l in PtLevel::ALL {
            let entry_pa = table.offset(vaddr.table_index(l) * 8);
            let pte = Pte(phys.read_u64(entry_pa));
            if !pte.present() || (l != PtLevel::Pte && pte.ppn() == 0) {
                return Err(PageFault {
                    vaddr,
                    kind: PageFaultKind::NotPresent { level: l },
                    is_write,
                });
            }
            if l == PtLevel::Pte {
                let flags = pte.flags();
                if is_write && !flags.writable {
                    return Err(PageFault {
                        vaddr,
                        kind: PageFaultKind::Protection,
                        is_write,
                    });
                }
                return Ok(Translation {
                    paddr: PAddr(pte.ppn() * PAGE_BYTES + vaddr.page_offset()),
                    flags,
                });
            }
            table = PAddr(pte.ppn() * PAGE_BYTES);
        }
        unreachable!("loop returns at the leaf level");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, AddressSpace) {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        (phys, asp)
    }

    #[test]
    fn map_translate_round_trip() {
        let (mut phys, asp) = setup();
        let frame = phys.alloc_frame();
        let va = VAddr(0x7fff_dead_b000);
        asp.map(&mut phys, va, frame, PteFlags::user_data());
        let t = asp.translate(&phys, va.offset(0xbc), false).unwrap();
        assert_eq!(t.paddr, PAddr(frame * PAGE_BYTES + 0xbc));
    }

    #[test]
    fn unmapped_address_faults_at_the_right_level() {
        let (mut phys, asp) = setup();
        let va = VAddr::from_indices(1, 2, 3, 4, 0);
        let err = asp.translate(&phys, va, false).unwrap_err();
        assert_eq!(
            err.kind,
            PageFaultKind::NotPresent {
                level: PtLevel::Pgd
            }
        );
        // Map a sibling page so upper levels exist, then expect a PTE fault.
        let frame = phys.alloc_frame();
        let sibling = VAddr::from_indices(1, 2, 3, 5, 0);
        asp.map(&mut phys, sibling, frame, PteFlags::user_data());
        let err = asp.translate(&phys, va, false).unwrap_err();
        assert_eq!(
            err.kind,
            PageFaultKind::NotPresent {
                level: PtLevel::Pte
            }
        );
    }

    #[test]
    fn clearing_present_causes_minor_fault() {
        let (mut phys, asp) = setup();
        let frame = phys.alloc_frame();
        let va = VAddr(0x4000_0000);
        asp.map(&mut phys, va, frame, PteFlags::user_data());
        assert!(asp.translate(&phys, va, false).is_ok());
        asp.set_present(&mut phys, va, false).unwrap();
        let err = asp.translate(&phys, va, false).unwrap_err();
        assert_eq!(
            err.kind,
            PageFaultKind::NotPresent {
                level: PtLevel::Pte
            }
        );
        asp.set_present(&mut phys, va, true).unwrap();
        assert!(asp.translate(&phys, va, false).is_ok());
    }

    #[test]
    fn write_to_readonly_is_a_protection_fault() {
        let (mut phys, asp) = setup();
        let frame = phys.alloc_frame();
        let va = VAddr(0x5000_0000);
        asp.map(&mut phys, va, frame, PteFlags::user_readonly());
        assert!(asp.translate(&phys, va, false).is_ok());
        let err = asp.translate(&phys, va, true).unwrap_err();
        assert_eq!(err.kind, PageFaultKind::Protection);
    }

    #[test]
    fn entry_paddrs_are_distinct_and_complete() {
        let (mut phys, asp) = setup();
        let frame = phys.alloc_frame();
        let va = VAddr(0x1_2345_6000);
        asp.map(&mut phys, va, frame, PteFlags::user_data());
        let entries = asp.entry_paddrs(&phys, va);
        let mut seen = Vec::new();
        for e in entries {
            let pa = e.expect("all four levels present");
            assert!(!seen.contains(&pa));
            seen.push(pa);
        }
        assert_eq!(seen[0].ppn(), asp.cr3().ppn());
    }

    #[test]
    fn two_spaces_are_isolated() {
        let mut phys = PhysMem::new();
        let a = AddressSpace::new(&mut phys, 1);
        let b = AddressSpace::new(&mut phys, 2);
        let fa = phys.alloc_frame();
        let va = VAddr(0x9000);
        a.map(&mut phys, va, fa, PteFlags::user_data());
        assert!(a.translate(&phys, va, false).is_ok());
        assert!(b.translate(&phys, va, false).is_err());
    }

    #[test]
    fn alloc_map_covers_the_range() {
        let (mut phys, asp) = setup();
        let va = VAddr(0x10_0000);
        let pages = asp.alloc_map(&mut phys, va, 3 * PAGE_BYTES + 1, PteFlags::user_data());
        assert_eq!(pages, 4);
        for i in 0..4 {
            assert!(asp
                .translate(&phys, va.offset(i * PAGE_BYTES), true)
                .is_ok());
        }
        assert!(asp
            .translate(&phys, va.offset(4 * PAGE_BYTES), false)
            .is_err());
    }

    #[test]
    fn unmap_removes_translation() {
        let (mut phys, asp) = setup();
        let frame = phys.alloc_frame();
        let va = VAddr(0x6000_0000);
        asp.map(&mut phys, va, frame, PteFlags::user_data());
        let old = asp.unmap(&mut phys, va).unwrap();
        assert_eq!(old.ppn(), frame);
        assert!(asp.translate(&phys, va, false).is_err());
    }
}
