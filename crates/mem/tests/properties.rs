//! Property tests: the hardware walker against the software walk oracle,
//! and the page-granular physical-memory access path against a byte map.

use microscope_cache::{HierarchyConfig, MemoryHierarchy};
use microscope_mem::{
    AddressSpace, PAddr, PageWalker, PhysMem, PtLevel, PteFlags, VAddr, PAGE_BYTES,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn arb_vaddr() -> impl Strategy<Value = VAddr> {
    // 48-bit canonical user addresses, page-aligned plus an offset.
    (0u64..(1 << 36), 0u64..PAGE_BYTES).prop_map(|(vpn, off)| VAddr(vpn * PAGE_BYTES + off))
}

fn arb_clustered_vaddr() -> impl Strategy<Value = VAddr> {
    (0u64..2, 0u64..2, 0u64..2, 0u64..4, 0u64..PAGE_BYTES)
        .prop_map(|(g, u, m, t, off)| VAddr::from_indices(g, u, m, t, off))
}

proptest! {
    /// For any set of mapped pages, hardware and software walks agree on
    /// both successful translations and fault kinds.
    #[test]
    fn hardware_walk_matches_software_oracle(
        mapped in prop::collection::vec(arb_vaddr(), 1..20),
        probes in prop::collection::vec(arb_vaddr(), 1..20),
    ) {
        let mut phys = PhysMem::new();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::tiny());
        let mut walker = PageWalker::new(Default::default());
        let asp = AddressSpace::new(&mut phys, 3);
        for va in &mapped {
            let frame = phys.alloc_frame();
            asp.map(&mut phys, *va, frame, PteFlags::user_data());
        }
        for probe in mapped.iter().chain(probes.iter()) {
            let hw = walker.walk(&mut phys, &mut hier, &asp, *probe, false);
            let sw = asp.translate(&phys, *probe, false);
            match (hw.result, sw) {
                (Ok(h), Ok(s)) => prop_assert_eq!(h.paddr, s.paddr),
                (Err(h), Err(s)) => prop_assert_eq!(h.kind, s.kind),
                (h, s) => prop_assert!(false, "disagreement: hw={h:?} sw={s:?}"),
            }
        }
    }

    /// Toggling the Present bit off always turns a translating address into
    /// a leaf fault, and restoring it restores the identical translation.
    #[test]
    fn present_bit_round_trip(va in arb_vaddr()) {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        let frame = phys.alloc_frame();
        asp.map(&mut phys, va, frame, PteFlags::user_data());
        let before = asp.translate(&phys, va, false).unwrap();
        asp.set_present(&mut phys, va, false).unwrap();
        prop_assert!(asp.translate(&phys, va, false).is_err());
        asp.set_present(&mut phys, va, true).unwrap();
        let after = asp.translate(&phys, va, false).unwrap();
        prop_assert_eq!(before.paddr, after.paddr);
    }

    /// Distinct virtual pages map to distinct physical frames under
    /// alloc_map, and translations never alias.
    #[test]
    fn alloc_map_never_aliases(base in 0u64..(1 << 30), pages in 1u64..8) {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        let va = VAddr(base * PAGE_BYTES);
        asp.alloc_map(&mut phys, va, pages * PAGE_BYTES, PteFlags::user_data());
        let mut frames = std::collections::HashSet::new();
        for i in 0..pages {
            let t = asp.translate(&phys, va.offset(i * PAGE_BYTES), false).unwrap();
            prop_assert!(frames.insert(t.paddr.ppn()));
        }
    }

    /// The single-pass `entry_paddrs` equals `entry_paddr` taken at each
    /// level, for mapped addresses, unmapped ones (missing at any level)
    /// and ones below an upper-level entry whose Present bit is clear.
    /// Table indices come from a small range so the tables are shared.
    #[test]
    fn entry_paddrs_matches_per_level_walks(
        mapped in prop::collection::vec(arb_clustered_vaddr(), 1..12),
        probes in prop::collection::vec(arb_clustered_vaddr(), 1..24),
        hide in 0usize..12,
        level in 0usize..3,
    ) {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 5);
        for va in &mapped {
            let frame = phys.alloc_frame();
            asp.map(&mut phys, *va, frame, PteFlags::user_data());
        }
        let hidden = mapped[hide % mapped.len()];
        let upper = PtLevel::ALL[level];
        let pte = asp.read_entry(&phys, hidden, upper).expect("mapped");
        asp.write_entry(&mut phys, hidden, upper, pte.with_present(false));
        prop_assert_eq!(asp.entry_paddrs(&phys, hidden)[level + 1], None);
        for va in mapped.iter().chain(&probes) {
            let want = PtLevel::ALL.map(|l| asp.entry_paddr(&phys, *va, l));
            prop_assert_eq!(asp.entry_paddrs(&phys, *va), want, "{:?}", va);
        }
    }

    /// Physical memory read/write round trip at arbitrary sizes.
    #[test]
    fn phys_mem_round_trip(addr in 0u64..(1 << 30), value: u64, size_pow in 0u32..4) {
        let size = 1u8 << size_pow;
        let mut m = PhysMem::new();
        m.write_sized(microscope_cache::PAddr(addr), value, size);
        let mask = if size == 8 { u64::MAX } else { (1u64 << (size as u32 * 8)) - 1 };
        prop_assert_eq!(m.read_sized(microscope_cache::PAddr(addr), size), value & mask);
    }
}

/// One step of the access-path property.
#[derive(Clone, Debug)]
enum Access {
    /// `write_sized` of the low `size` bytes of `value`.
    Write { addr: u64, value: u64, size: u8 },
    /// `write_bytes` of `len` bytes taken from `value`, repeated.
    WriteBytes { addr: u64, value: u64, len: usize },
    /// `read_sized` of `size` bytes.
    Read { addr: u64, size: u8 },
    /// `read_bytes` of `len` bytes.
    ReadBytes { addr: u64, len: usize },
    /// Keep a `clone()` of the store alive and begin an epoch.
    Snapshot,
}

/// Addresses on five pages, half of them within 7 bytes of a page end so
/// that wider accesses straddle into the next page.
fn arb_addr() -> impl Strategy<Value = u64> {
    let off = prop_oneof![0u64..PAGE_BYTES, (PAGE_BYTES - 7)..PAGE_BYTES];
    (1u64..6, off).prop_map(|(ppn, off)| ppn * PAGE_BYTES + off)
}

fn arb_access() -> impl Strategy<Value = Access> {
    let size = (0u32..4).prop_map(|p| 1u8 << p);
    prop_oneof![
        (arb_addr(), 0u64..u64::MAX, size.clone()).prop_map(|(addr, value, size)| Access::Write {
            addr,
            value,
            size
        }),
        (arb_addr(), 0u64..u64::MAX, 1usize..24)
            .prop_map(|(addr, value, len)| Access::WriteBytes { addr, value, len }),
        (arb_addr(), size).prop_map(|(addr, size)| Access::Read { addr, size }),
        (arb_addr(), 1usize..24).prop_map(|(addr, len)| Access::ReadBytes { addr, len }),
        Just(Access::Snapshot),
    ]
}

/// The reference model: every byte ever written, plus the page-level
/// bookkeeping that predicts the store's copy-on-write counters.
#[derive(Default)]
struct ByteModel {
    bytes: HashMap<u64, u8>,
    /// Pages the live store has materialized.
    resident: HashSet<u64>,
    /// Resident pages still shared with a live snapshot.
    shared: HashSet<u64>,
    cow_copied: u64,
    epoch_dirty: u64,
}

impl ByteModel {
    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.bytes.insert(addr + i as u64, b);
        }
        let last = addr + data.len() as u64 - 1;
        for ppn in addr / PAGE_BYTES..=last / PAGE_BYTES {
            if self.resident.insert(ppn) {
                self.epoch_dirty += 1;
            } else if self.shared.remove(&ppn) {
                self.cow_copied += 1;
                self.epoch_dirty += 1;
            }
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (addr..addr + len as u64)
            .map(|a| self.bytes.get(&a).copied().unwrap_or(0))
            .collect()
    }

    fn snapshot(&mut self) {
        self.shared = self.resident.clone();
        self.epoch_dirty = 0;
    }
}

fn fill(value: u64, len: usize) -> Vec<u8> {
    value
        .to_le_bytes()
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

fn le_value(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |acc, &b| (acc << 8) | u64::from(b))
}

proptest! {
    /// Sized and `*_bytes` accesses, page-straddling ones included, read
    /// back what a byte map says; never-written bytes read zero; every
    /// snapshot keeps the bytes it was taken with; and the CoW counters
    /// count exactly the pages a per-page model predicts.
    #[test]
    fn page_granular_access_matches_a_byte_map(
        accesses in prop::collection::vec(arb_access(), 1..60),
    ) {
        let mut m = PhysMem::new();
        let mut model = ByteModel::default();
        let mut snaps: Vec<(PhysMem, HashMap<u64, u8>)> = Vec::new();
        for access in &accesses {
            match *access {
                Access::Write { addr, value, size } => {
                    m.write_sized(PAddr(addr), value, size);
                    model.write(addr, &value.to_le_bytes()[..size as usize]);
                }
                Access::WriteBytes { addr, value, len } => {
                    let data = fill(value, len);
                    m.write_bytes(PAddr(addr), &data);
                    model.write(addr, &data);
                }
                Access::Read { addr, size } => {
                    let want = le_value(&model.read(addr, size as usize));
                    prop_assert_eq!(m.read_sized(PAddr(addr), size), want);
                }
                Access::ReadBytes { addr, len } => {
                    let mut got = vec![0xaa; len];
                    m.read_bytes(PAddr(addr), &mut got);
                    prop_assert_eq!(got, model.read(addr, len));
                }
                Access::Snapshot => {
                    snaps.push((m.clone(), model.bytes.clone()));
                    m.begin_epoch();
                    model.snapshot();
                }
            }
            prop_assert_eq!(m.cow_copied_pages(), model.cow_copied);
            prop_assert_eq!(m.epoch_dirty_pages(), model.epoch_dirty);
            prop_assert_eq!(m.resident_pages(), model.resident.len());
        }
        for (snap, bytes) in &snaps {
            for &a in model.bytes.keys().chain(bytes.keys()) {
                let want = bytes.get(&a).copied().unwrap_or(0);
                prop_assert_eq!(snap.read_u8(PAddr(a)), want, "snapshot byte {:#x}", a);
            }
        }
    }
}

/// A write that straddles two pages shared with a snapshot copies exactly
/// those two pages, once each, and the snapshot keeps the old bytes.
#[test]
fn straddling_write_to_two_shared_pages_copies_two() {
    let mut m = PhysMem::new();
    let end = 2 * PAGE_BYTES - 4;
    m.write_u64(PAddr(end), 0x1111_1111_1111_1111);
    let snap = m.clone();
    m.begin_epoch();
    m.write_u64(PAddr(end), 0x2222_2222_2222_2222);
    assert_eq!(m.cow_copied_pages(), 2);
    assert_eq!(m.epoch_dirty_pages(), 2);
    assert_eq!(m.table_copies(), 1);
    m.write_u64(PAddr(end), 0x3333_3333_3333_3333);
    assert_eq!(m.cow_copied_pages(), 2);
    assert_eq!(snap.read_u64(PAddr(end)), 0x1111_1111_1111_1111);
    assert_eq!(m.read_u64(PAddr(end)), 0x3333_3333_3333_3333);
}
