//! `MemoryHierarchy::l3_eviction_set` computes the congruent lines in
//! O(ways). This property keeps the line-by-line pool scan it replaced as
//! the oracle: over random L3 geometries, pool bases and targets (below,
//! inside and above the scanned window) both return the same lines in the
//! same order.

use microscope_cache::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy, PAddr, LINE_BYTES};
use proptest::prelude::*;

/// The old scan: walk the pool one line at a time from `pool_base`, keeping
/// every line in the target's L3 set except the target, until `ways` lines.
fn scan_oracle(l3: &Cache, target: PAddr, pool_base: PAddr) -> Vec<PAddr> {
    let tgt_set = l3.set_index(target.line());
    let ways = l3.config().ways;
    let mut out = Vec::with_capacity(ways);
    let mut line = pool_base.line();
    while out.len() < ways {
        if l3.set_index(line) == tgt_set && line != target.line() {
            out.push(line.base());
        }
        line = line.offset(1);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn closed_form_matches_the_pool_scan(
        sets_log2 in 0u32..13,
        ways in 1usize..33,
        pool_base in 0u64..(1 << 40),
        placement in 0u8..3,
        distance in 0u64..(1 << 20),
        target_offset in 0u64..LINE_BYTES,
    ) {
        let sets = 1usize << sets_log2;
        let l3_cfg = CacheConfig::new(sets, ways, 40);
        let h = MemoryHierarchy::new(HierarchyConfig {
            l3: l3_cfg,
            ..HierarchyConfig::tiny()
        });
        let l3 = Cache::new(l3_cfg);

        // The scan examines at most (ways + 1) * sets lines from the base.
        let base_line = pool_base / LINE_BYTES;
        let window = (ways as u64 + 1) * sets as u64;
        let target_line = match placement {
            0 => base_line.saturating_sub(1 + distance),
            1 => base_line + distance % window,
            _ => base_line + window + distance,
        };
        let target = PAddr(target_line * LINE_BYTES + target_offset);

        let set = h.l3_eviction_set(target, PAddr(pool_base));
        prop_assert_eq!(&set, &scan_oracle(&l3, target, PAddr(pool_base)));
        let tgt_set = l3.set_index(target.line());
        for (i, a) in set.iter().enumerate() {
            prop_assert_eq!(a.line_offset(), 0, "line address {} at {}", a, i);
            prop_assert_eq!(l3.set_index(a.line()), tgt_set, "set of {} at {}", a, i);
            prop_assert!(a.line() != target.line(), "target {} returned at {}", a, i);
            prop_assert!(a.line().0 >= base_line, "{} below the pool at {}", a, i);
        }
        for pair in set.windows(2) {
            prop_assert!(pair[0] < pair[1], "not ascending: {} then {}", pair[0], pair[1]);
        }
    }
}
