//! The hardware page-table walker (MMU) with its page-walk cache.
//!
//! This is the component whose *timing* MicroScope manipulates. Every
//! page-table entry it dereferences is a memory access through the simulated
//! cache hierarchy, so:
//!
//! * with all four entry lines (and the PWC) flushed, a walk costs four DRAM
//!   round trips — the paper's ">1000 cycles" long replay window;
//! * with upper levels warm in the PWC and the leaf line in L1, a walk costs
//!   a handful of cycles — the short window used to single-step AES.
//!
//! Walking also sets the Accessed (and, for writes, Dirty) bits in the
//! entries it traverses, which is the signal the Sneaky-Page-Monitoring
//! channel reads.

use crate::aspace::AddressSpace;
use crate::fault::{PageFault, PageFaultKind, Translation};
use crate::phys::PhysMem;
use crate::pte::{PtLevel, Pte};
use crate::vaddr::VAddr;
use microscope_cache::{MemoryHierarchy, PAddr, PageWalkCache, PwcConfig, PAGE_BYTES};
use microscope_probe::{EventKind, Probe};

/// Configuration of the hardware walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkerConfig {
    /// Page-walk cache geometry.
    pub pwc: PwcConfig,
    /// Whether the PWC is consulted at all (ablation knob).
    pub pwc_enabled: bool,
    /// Whether walks update Accessed/Dirty bits (real hardware does; an
    /// ablation knob for the SPM channel).
    pub update_accessed_dirty: bool,
}

impl WalkerConfig {
    /// Checks the rule an enabled page-walk cache needs, which a struct
    /// literal can break: it holds at least one entry (`pwc_enabled =
    /// false` is the way to run without one).
    ///
    /// # Errors
    ///
    /// `("walker.pwc.entries", 0)`: the field's path from a simulation
    /// config's `walker` field, and its value.
    pub fn check(&self) -> Result<(), (&'static str, u64)> {
        match (self.pwc_enabled, self.pwc.entries) {
            (true, 0) => Err(("walker.pwc.entries", 0)),
            _ => Ok(()),
        }
    }
}

impl Default for WalkerConfig {
    fn default() -> Self {
        WalkerConfig {
            pwc: PwcConfig::default(),
            pwc_enabled: true,
            update_accessed_dirty: true,
        }
    }
}

/// The result of one hardware walk.
#[derive(Clone, Copy, Debug)]
pub struct WalkOutcome {
    /// Total walker latency in cycles (page-table accesses only; the TLB
    /// probe that preceded the walk is charged by the CPU model).
    pub latency: u64,
    /// Either a translation or the page fault the walk discovered.
    pub result: Result<Translation, PageFault>,
    /// How many levels were dereferenced (4 on success or a leaf fault).
    pub levels_accessed: usize,
    /// How many upper-level dereferences were served by the PWC.
    pub pwc_hits: usize,
}

/// The hardware MMU walker.
#[derive(Clone, Debug)]
pub struct PageWalker {
    cfg: WalkerConfig,
    pwc: PageWalkCache,
    walks: u64,
    faults: u64,
    probe: Probe,
}

impl PageWalker {
    /// Creates a walker with a cold PWC.
    pub fn new(cfg: WalkerConfig) -> Self {
        PageWalker {
            pwc: PageWalkCache::new(cfg.pwc),
            cfg,
            walks: 0,
            faults: 0,
            probe: Probe::disabled(),
        }
    }

    /// Connects the walker to a shared event bus.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The configuration in use.
    pub fn config(&self) -> &WalkerConfig {
        &self.cfg
    }

    /// Mutable access to the PWC so the OS can flush translation state
    /// (paper §5.2.2 operation 2).
    pub fn pwc_mut(&mut self) -> &mut PageWalkCache {
        &mut self.pwc
    }

    /// Read access to the PWC.
    pub fn pwc(&self) -> &PageWalkCache {
        &self.pwc
    }

    /// (walks performed, walks that ended in a fault).
    pub fn stats(&self) -> (u64, u64) {
        (self.walks, self.faults)
    }

    /// Performs a full hardware walk for `vaddr` in `aspace`.
    ///
    /// Upper-level dereferences try the PWC first; every PWC miss (and the
    /// leaf dereference, always) is a cache-hierarchy access to the physical
    /// address of the page-table entry. Present entries get their Accessed
    /// bit set; a successful write walk also sets the leaf Dirty bit.
    pub fn walk(
        &mut self,
        phys: &mut PhysMem,
        hier: &mut MemoryHierarchy,
        aspace: &AddressSpace,
        vaddr: VAddr,
        is_write: bool,
    ) -> WalkOutcome {
        self.walks += 1;
        self.probe
            .emit(None, EventKind::WalkStart { vaddr: vaddr.0 });
        let out = self.walk_inner(phys, hier, aspace, vaddr, is_write);
        self.probe.emit(
            None,
            EventKind::WalkEnd {
                vaddr: vaddr.0,
                latency: out.latency,
                faulted: out.result.is_err(),
            },
        );
        out
    }

    fn walk_inner(
        &mut self,
        phys: &mut PhysMem,
        hier: &mut MemoryHierarchy,
        aspace: &AddressSpace,
        vaddr: VAddr,
        is_write: bool,
    ) -> WalkOutcome {
        let mut latency = 0;
        let mut pwc_hits = 0;
        let mut table = aspace.cr3();
        for (step, level) in PtLevel::ALL.into_iter().enumerate() {
            let entry_pa = table.offset(vaddr.table_index(level) * 8);
            let upper = level != PtLevel::Pte;
            let step_latency;
            let pwc_hit;
            if upper && self.cfg.pwc_enabled && self.pwc.lookup(entry_pa) {
                step_latency = self.pwc.config().hit_latency;
                pwc_hit = true;
                pwc_hits += 1;
            } else {
                step_latency = hier.access(entry_pa).latency;
                pwc_hit = false;
                if upper && self.cfg.pwc_enabled {
                    self.pwc.insert(entry_pa);
                }
            }
            latency += step_latency;
            self.probe.emit(
                None,
                EventKind::WalkStep {
                    level: step as u8,
                    pwc_hit,
                    latency: step_latency,
                },
            );
            let levels_accessed = step + 1;
            let pte = Pte(phys.read_u64(entry_pa));
            if !pte.present() || (upper && pte.ppn() == 0) {
                self.faults += 1;
                return WalkOutcome {
                    latency,
                    result: Err(PageFault {
                        vaddr,
                        kind: PageFaultKind::NotPresent { level },
                        is_write,
                    }),
                    levels_accessed,
                    pwc_hits,
                };
            }
            if self.cfg.update_accessed_dirty && !pte.flags().accessed {
                phys.write_u64(entry_pa, pte.with_accessed(true).0);
            }
            if level == PtLevel::Pte {
                let flags = pte.flags();
                if is_write && !flags.writable {
                    self.faults += 1;
                    return WalkOutcome {
                        latency,
                        result: Err(PageFault {
                            vaddr,
                            kind: PageFaultKind::Protection,
                            is_write,
                        }),
                        levels_accessed,
                        pwc_hits,
                    };
                }
                if self.cfg.update_accessed_dirty && is_write && !flags.dirty {
                    phys.write_u64(entry_pa, pte.with_accessed(true).with_dirty(true).0);
                }
                return WalkOutcome {
                    latency,
                    result: Ok(Translation {
                        paddr: PAddr(pte.ppn() * PAGE_BYTES + vaddr.page_offset()),
                        flags,
                    }),
                    levels_accessed,
                    pwc_hits,
                };
            }
            table = PAddr(pte.ppn() * PAGE_BYTES);
        }
        unreachable!("walk returns at the leaf");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;
    use microscope_cache::HierarchyConfig;

    fn setup() -> (PhysMem, MemoryHierarchy, PageWalker, AddressSpace, VAddr) {
        let mut phys = PhysMem::new();
        let hier = MemoryHierarchy::new(HierarchyConfig::default());
        let walker = PageWalker::new(WalkerConfig::default());
        let asp = AddressSpace::new(&mut phys, 1);
        let va = VAddr(0x7000_1234_5000);
        let frame = phys.alloc_frame();
        asp.map(&mut phys, va, frame, PteFlags::user_data());
        (phys, hier, walker, asp, va)
    }

    #[test]
    fn check_refuses_an_empty_enabled_pwc() {
        let mut cfg = WalkerConfig::default();
        assert_eq!(cfg.check(), Ok(()));
        cfg.pwc.entries = 0;
        assert_eq!(cfg.check(), Err(("walker.pwc.entries", 0)));
        cfg.pwc_enabled = false;
        assert_eq!(cfg.check(), Ok(()), "a disabled PWC needs no entries");
    }

    #[test]
    fn hardware_walk_agrees_with_software_walk() {
        let (mut phys, mut hier, mut walker, asp, va) = setup();
        let hw = walker.walk(&mut phys, &mut hier, &asp, va, false);
        let sw = asp.translate(&phys, va, false).unwrap();
        assert_eq!(hw.result.unwrap().paddr, sw.paddr);
        assert_eq!(hw.levels_accessed, 4);
    }

    #[test]
    fn warm_walk_is_much_faster_than_cold() {
        let (mut phys, mut hier, mut walker, asp, va) = setup();
        let cold = walker.walk(&mut phys, &mut hier, &asp, va, false);
        let warm = walker.walk(&mut phys, &mut hier, &asp, va, false);
        assert!(
            cold.latency > 4 * hier.config().dram.row_hit_latency,
            "cold walk should pay ~4 DRAM accesses, got {}",
            cold.latency
        );
        assert!(warm.latency < cold.latency / 4);
        assert_eq!(warm.pwc_hits, 3);
    }

    #[test]
    fn flushing_entries_restores_the_long_walk() {
        let (mut phys, mut hier, mut walker, asp, va) = setup();
        walker.walk(&mut phys, &mut hier, &asp, va, false);
        // OS flush: all four entry lines + the PWC.
        for pa in asp.entry_paddrs(&phys, va).into_iter().flatten() {
            hier.flush_line(pa);
        }
        walker.pwc_mut().flush_all();
        let replayed = walker.walk(&mut phys, &mut hier, &asp, va, false);
        assert!(replayed.latency > 4 * hier.config().dram.row_hit_latency);
    }

    #[test]
    fn partial_warming_gives_intermediate_latencies() {
        // The Table-2 `initiate_page_walk(addr, length)` knob: leaving the
        // top `4 - length` levels warm shortens the walk proportionally.
        let (mut phys, mut hier, mut walker, asp, va) = setup();
        walker.walk(&mut phys, &mut hier, &asp, va, false);
        let entries = asp.entry_paddrs(&phys, va).map(|e| e.unwrap());
        let mut latencies = Vec::new();
        for levels_cold in 1..=4usize {
            // Flush the *bottom* `levels_cold` entry lines; keep the rest warm.
            walker.pwc_mut().flush_all();
            for pa in &entries {
                hier.access(*pa); // warm everything
            }
            for pa in entries.iter().rev().take(levels_cold) {
                hier.flush_line(*pa);
            }
            let out = walker.walk(&mut phys, &mut hier, &asp, va, false);
            latencies.push(out.latency);
        }
        for w in latencies.windows(2) {
            assert!(w[0] < w[1], "walk latency must grow: {latencies:?}");
        }
    }

    #[test]
    fn fault_reported_with_accumulated_latency() {
        let (mut phys, mut hier, mut walker, asp, va) = setup();
        asp.set_present(&mut phys, va, false);
        let out = walker.walk(&mut phys, &mut hier, &asp, va, false);
        let err = out.result.unwrap_err();
        assert_eq!(
            err.kind,
            PageFaultKind::NotPresent {
                level: PtLevel::Pte
            }
        );
        assert_eq!(out.levels_accessed, 4);
        assert!(out.latency > 0);
        assert_eq!(walker.stats().1, 1);
    }

    #[test]
    fn walks_set_accessed_and_dirty_bits() {
        let (mut phys, mut hier, mut walker, asp, va) = setup();
        assert_eq!(asp.accessed(&phys, va), Some(false));
        walker.walk(&mut phys, &mut hier, &asp, va, false);
        assert_eq!(asp.accessed(&phys, va), Some(true));
        assert_eq!(asp.dirty(&phys, va), Some(false));
        walker.walk(&mut phys, &mut hier, &asp, va, true);
        assert_eq!(asp.dirty(&phys, va), Some(true));
    }

    #[test]
    fn ad_updates_can_be_disabled() {
        let (mut phys, mut hier, _, asp, va) = setup();
        let mut walker = PageWalker::new(WalkerConfig {
            update_accessed_dirty: false,
            ..WalkerConfig::default()
        });
        walker.walk(&mut phys, &mut hier, &asp, va, true);
        assert_eq!(asp.accessed(&phys, va), Some(false));
        assert_eq!(asp.dirty(&phys, va), Some(false));
    }

    #[test]
    fn disabled_pwc_always_pays_memory_hierarchy() {
        let (mut phys, mut hier, _, asp, va) = setup();
        let mut walker = PageWalker::new(WalkerConfig {
            pwc_enabled: false,
            ..WalkerConfig::default()
        });
        walker.walk(&mut phys, &mut hier, &asp, va, false);
        let warm = walker.walk(&mut phys, &mut hier, &asp, va, false);
        assert_eq!(warm.pwc_hits, 0);
        // Still fast because the lines are in L1, but slower than PWC hits.
        let l1 = hier.config().l1.hit_latency;
        assert_eq!(warm.latency, 4 * l1);
    }
}
