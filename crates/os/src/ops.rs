//! The attack operations of paper §5.2.2, expressed over the privileged
//! hardware view.

use microscope_cache::PAddr;
use microscope_cpu::HwParts;
use microscope_mem::{AddressSpace, PhysMem, PtLevel, VAddr, PAGE_BYTES};
use std::error::Error;
use std::fmt;

/// Translates `vaddr` through `aspace` *ignoring the Present bit* of the
/// leaf PTE. The OS can always do this (it owns the tables), and needs it to
/// probe/prime lines on pages it has itself marked not-present (the pivot).
pub fn translate_ignoring_present(
    hw: &HwParts,
    aspace: AddressSpace,
    vaddr: VAddr,
) -> Option<PAddr> {
    leaf_frame(&hw.phys, aspace, vaddr).map(|ppn| PAddr(ppn * PAGE_BYTES + vaddr.page_offset()))
}

/// The frame the leaf PTE for `vaddr` names, Present bit or not.
fn leaf_frame(phys: &PhysMem, aspace: AddressSpace, vaddr: VAddr) -> Option<u64> {
    let ppn = aspace.read_entry(phys, vaddr, PtLevel::Pte)?.ppn();
    (ppn != 0).then_some(ppn)
}

/// [`translate_ignoring_present`] over `addrs`, in order, dropping the
/// unmapped ones. The tables are walked once per run of consecutive
/// addresses on the same page, not once per address.
fn translate_by_page<'a>(
    phys: &'a PhysMem,
    aspace: AddressSpace,
    addrs: &'a [VAddr],
) -> impl Iterator<Item = (VAddr, PAddr)> + 'a {
    let mut last: Option<(u64, Option<u64>)> = None;
    addrs.iter().filter_map(move |&va| {
        let frame = match last {
            Some((vpn, frame)) if vpn == va.vpn() => frame,
            _ => last.insert((va.vpn(), leaf_frame(phys, aspace, va))).1,
        };
        Some((va, PAddr(frame? * PAGE_BYTES + va.page_offset())))
    })
}

/// Flushes all translation state for `vaddr`: the four page-table entry
/// lines from the cache hierarchy, the page-walk cache, and the TLB entry
/// (paper §4.1.1, Replayer setup steps 2–4).
pub fn flush_translation(hw: &mut HwParts, aspace: AddressSpace, vaddr: VAddr) {
    let entries = aspace.entry_paddrs(&hw.phys, vaddr);
    flush_entries(hw, aspace, vaddr, &entries);
}

/// [`flush_translation`] given the entries `vaddr` translates through.
fn flush_entries(
    hw: &mut HwParts,
    aspace: AddressSpace,
    vaddr: VAddr,
    entries: &[Option<PAddr>; 4],
) {
    for &entry_pa in entries.iter().flatten() {
        hw.hier.flush_line(entry_pa);
        hw.walker.pwc_mut().flush_entry(entry_pa);
    }
    hw.tlb.invlpg(vaddr, aspace.pcid());
}

/// The walk lengths [`set_walk_length`] accepts: one level (the leaf PTE)
/// up to a fully cold four-level walk.
pub(crate) const WALK_LENGTHS: std::ops::RangeInclusive<u8> = 1..=4;

/// Why the Table-2 operation
/// [`initiate_page_walk`](crate::MicroScopeModule::initiate_page_walk)
/// refused a length: a walk fetches between one and four levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkLengthError {
    /// The requested length.
    pub length: u8,
}

impl fmt::Display for WalkLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let length = self.length;
        write!(
            f,
            "initiate_page_walk failed: length {length} is outside 1..=4"
        )
    }
}

impl Error for WalkLengthError {}

/// Tunes the next hardware walk for `vaddr` to dereference exactly `length`
/// levels from memory (the Table-2 `initiate_page_walk(addr, length)`
/// operation): the remaining upper levels are left warm in the page-walk
/// cache, so the walk costs ~`length` DRAM round trips. A length outside
/// 1..=4 is refused before any state changes.
pub fn set_walk_length(
    hw: &mut HwParts,
    aspace: AddressSpace,
    vaddr: VAddr,
    length: u8,
) -> Result<(), WalkLengthError> {
    if !WALK_LENGTHS.contains(&length) {
        return Err(WalkLengthError { length });
    }
    let entries = aspace.entry_paddrs(&hw.phys, vaddr);
    // Cold everything first.
    flush_entries(hw, aspace, vaddr, &entries);
    // Warm the top `4 - length` levels back into the PWC (only the three
    // upper levels are PWC-cacheable, so `length == 1` still pays one DRAM
    // access for the leaf PTE — matching real walkers).
    let warm = (4 - length).min(3) as usize;
    for entry in entries.iter().take(warm).flatten() {
        hw.walker.pwc_mut().insert(*entry);
    }
    Ok(())
}

/// Evicts each address's line from the whole hierarchy ("priming the
/// caches" before a replay so the next probe is unambiguous).
pub fn prime_lines(hw: &mut HwParts, aspace: AddressSpace, addrs: &[VAddr]) {
    for (_, pa) in translate_by_page(&hw.phys, aspace, addrs) {
        hw.hier.flush_line(pa);
    }
}

/// Probes each address's line, returning `(vaddr, access latency)` — the
/// measurement step of a Prime+Probe replayer. Probing fills the lines, so
/// callers normally [`prime_lines`] again before resuming the victim.
pub fn probe_latencies(
    hw: &mut HwParts,
    aspace: AddressSpace,
    addrs: &[VAddr],
) -> Vec<(VAddr, u64)> {
    translate_by_page(&hw.phys, aspace, addrs)
        .map(|(va, pa)| (va, hw.hier.access(pa).latency))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use microscope_cache::{HierarchyConfig, MemoryHierarchy};
    use microscope_cpu::{BranchPredictor, PredictorConfig};
    use microscope_mem::{
        PageWalker, PhysMem, PteFlags, TlbEntry, TlbHierarchy, TlbHierarchyConfig, WalkerConfig,
    };

    pub(crate) fn hw_with_mapping() -> (HwParts, AddressSpace, VAddr) {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let va = VAddr(0x1234_5000);
        let frame = phys.alloc_frame();
        aspace.map(&mut phys, va, frame, PteFlags::user_data());
        let hw = HwParts {
            phys,
            hier: MemoryHierarchy::new(HierarchyConfig::default()),
            tlb: TlbHierarchy::new(TlbHierarchyConfig::default()),
            walker: PageWalker::new(WalkerConfig::default()),
            predictor: BranchPredictor::new(PredictorConfig::default()),
        };
        (hw, aspace, va)
    }

    #[test]
    fn translate_ignoring_present_survives_cleared_bit() {
        let (mut hw, aspace, va) = hw_with_mapping();
        let normal = aspace.translate(&hw.phys, va, false).unwrap().paddr;
        aspace.set_present(&mut hw.phys, va, false);
        assert!(aspace.translate(&hw.phys, va, false).is_err());
        assert_eq!(translate_ignoring_present(&hw, aspace, va), Some(normal));
    }

    #[test]
    fn translate_ignoring_present_rejects_unmapped() {
        let (hw, aspace, _) = hw_with_mapping();
        assert_eq!(
            translate_ignoring_present(&hw, aspace, VAddr(0xdead_0000)),
            None
        );
    }

    #[test]
    fn flush_translation_clears_tlb_and_pte_lines() {
        let (mut hw, aspace, va) = hw_with_mapping();
        // Warm everything with a hardware walk + TLB fill.
        let t = hw
            .walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false)
            .result
            .unwrap();
        hw.tlb.insert(TlbEntry {
            vpn: va.vpn(),
            ppn: t.paddr.ppn(),
            flags: t.flags,
            pcid: aspace.pcid(),
        });
        assert!(hw.tlb.lookup(va.vpn(), 1).entry.is_some());
        flush_translation(&mut hw, aspace, va);
        assert!(hw.tlb.lookup(va.vpn(), 1).entry.is_none());
        for pa in aspace.entry_paddrs(&hw.phys, va).into_iter().flatten() {
            assert_eq!(hw.hier.level_of(pa), None);
        }
        // The next walk is long again.
        let replay = hw
            .walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
        assert!(replay.latency > 4 * hw.hier.config().dram.row_hit_latency);
    }

    #[test]
    fn walk_length_controls_walk_latency_monotonically() {
        let (mut hw, aspace, va) = hw_with_mapping();
        hw.walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
        let mut lats = Vec::new();
        for length in 1..=4 {
            assert_eq!(set_walk_length(&mut hw, aspace, va, length), Ok(()));
            let out = hw
                .walker
                .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
            lats.push(out.latency);
        }
        for w in lats.windows(2) {
            assert!(w[0] < w[1], "longer length => longer walk: {lats:?}");
        }
        // Length 4 is a fully cold walk: ~4 DRAM accesses.
        assert!(lats[3] > 4 * hw.hier.config().dram.row_hit_latency);
    }

    #[test]
    fn walk_length_outside_1_to_4_is_an_error() {
        let (mut hw, aspace, va) = hw_with_mapping();
        for length in [0, 5] {
            assert_eq!(
                set_walk_length(&mut hw, aspace, va, length),
                Err(WalkLengthError { length })
            );
        }
    }

    #[test]
    fn page_grouped_prime_and_probe_match_line_by_line() {
        let (mut hw, aspace, a) = hw_with_mapping();
        let b = VAddr(a.0 + 3 * PAGE_BYTES);
        let frame = hw.phys.alloc_frame();
        aspace.map(&mut hw.phys, b, frame, PteFlags::user_data());
        aspace.set_present(&mut hw.phys, b, false);
        let unmapped = VAddr(a.0 + PAGE_BYTES);
        // Runs on A, then B, then A again, with an unmapped line between.
        let addrs = [
            (a, 0),
            (a, 64),
            (b, 0),
            (b, 128),
            (a, 192),
            (unmapped, 0),
            (b, 256),
            (a, 4032),
        ]
        .map(|(page, off)| page.offset(off));
        let lines = |hw: &HwParts| -> Vec<Option<PAddr>> {
            (addrs.iter())
                .map(|va| translate_ignoring_present(hw, aspace, *va))
                .collect()
        };
        assert_eq!(lines(&hw).iter().filter(|pa| pa.is_none()).count(), 1);
        for pa in lines(&hw).into_iter().flatten() {
            hw.hier.access(pa);
        }
        let mut reference = hw.clone();
        prime_lines(&mut hw, aspace, &addrs);
        for pa in lines(&reference).into_iter().flatten() {
            reference.hier.flush_line(pa);
        }
        assert_eq!(format!("{:?}", hw.hier), format!("{:?}", reference.hier));
        hw.hier.access(lines(&hw)[3].expect("mapped"));
        reference.hier.access(lines(&reference)[3].expect("mapped"));
        let want: Vec<(VAddr, u64)> = (addrs.iter().zip(lines(&reference)))
            .filter_map(|(va, pa)| Some((*va, reference.hier.access(pa?).latency)))
            .collect();
        assert_eq!(probe_latencies(&mut hw, aspace, &addrs), want);
        assert_eq!(format!("{:?}", hw.hier), format!("{:?}", reference.hier));
    }

    #[test]
    fn prime_then_probe_distinguishes_touched_lines() {
        let (mut hw, aspace, va) = hw_with_mapping();
        let other = VAddr(va.0 + 128);
        prime_lines(&mut hw, aspace, &[va, other]);
        // Victim touches only `va`.
        let pa = translate_ignoring_present(&hw, aspace, va).unwrap();
        hw.hier.access(pa);
        let probes = probe_latencies(&mut hw, aspace, &[va, other]);
        assert_eq!(probes.len(), 2);
        let (touched, untouched) = (probes[0].1, probes[1].1);
        assert!(
            touched < untouched,
            "touched line must probe faster: {touched} vs {untouched}"
        );
    }
}
