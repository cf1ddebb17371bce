//! Contention channels: TLB sets, DRAM row buffers, L1 cache banks and the
//! shared branch predictor. All are modelled at the hardware level with a
//! seeded background-noise process standing in for the unrelated system
//! activity that makes these channels noisy on real machines.

use super::Measurement;
use microscope_cache::{HierarchyConfig, LineAddr, MemoryHierarchy, PAddr};
use microscope_cpu::{BranchPredictor, PredictorConfig};
use microscope_mem::{PteFlags, Tlb, TlbConfig, TlbEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TLB-set contention (TLBleed / Hund et al.): the attacker parks its own
/// translations in two L1-DTLB sets; the victim's secret-dependent page
/// accesses evict one of them; the attacker detects which of its entries
/// now miss. Page-granular; noisy because unrelated victim accesses also
/// evict.
pub fn tlb_experiment(trials: u32, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TlbConfig::new(16, 4, 1);
    let mut correct = 0;
    for _ in 0..trials {
        let secret = rng.gen_bool(0.5);
        let mut tlb = Tlb::new(cfg);
        let attacker_pcid = 9;
        let entry = |vpn: u64, pcid: u16| TlbEntry {
            vpn,
            ppn: vpn + 1,
            flags: PteFlags::user_data(),
            pcid,
        };
        // Attacker entries: one in set 0, one in set 1.
        tlb.insert(entry(0, attacker_pcid));
        tlb.insert(entry(1, attacker_pcid));
        // Victim: hammers pages in set (secret as usize), plus background
        // noise over random sets.
        let target_set = u64::from(secret);
        for i in 0..8 {
            tlb.insert(entry(target_set + 16 * (i + 1), 1));
        }
        for _ in 0..6 {
            let vpn: u64 = rng.gen_range(0..512);
            tlb.insert(entry(vpn, 1));
        }
        let miss0 = tlb.lookup(0, attacker_pcid).is_none();
        let miss1 = tlb.lookup(1, attacker_pcid).is_none();
        let guess = match (miss0, miss1) {
            (true, false) => false,
            (false, true) => true,
            _ => rng.gen_bool(0.5), // noise drowned the signal
        };
        if guess == secret {
            correct += 1;
        }
    }
    Measurement::from_hits(correct, trials, 2)
}

/// DRAMA: the attacker opens a row in a bank; the victim's secret decides
/// whether it touches a *different row of the same bank* (closing the
/// attacker's row) or another bank. The attacker's re-access latency
/// reveals it. Row-granular; background traffic adds noise.
pub fn drama_experiment(trials: u32, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut correct = 0;
    for _ in 0..trials {
        let secret = rng.gen_bool(0.5);
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let dram_cfg = *hier.dram().config();
        let lines_per_bank_stride = dram_cfg.lines_per_row;
        // Attacker's line: bank 0, row 0.
        let attacker = LineAddr(0).base();
        hier.access(attacker);
        // Victim: same bank, different row (secret=true) or next bank.
        let victim = if secret {
            LineAddr(lines_per_bank_stride * dram_cfg.banks as u64).base()
        } else {
            LineAddr(lines_per_bank_stride).base()
        };
        hier.flush_line(victim); // make sure it reaches DRAM
        hier.access(victim);
        // Background noise: a few random accesses that may close rows.
        for _ in 0..2 {
            let l = LineAddr(rng.gen_range(0..1 << 20));
            hier.flush_line(l.base());
            hier.access(l.base());
        }
        // Attacker probes its own line again — from DRAM (flush first so
        // the cache doesn't mask DRAM timing, as row-buffer attacks do via
        // uncached accesses).
        hier.flush_line(attacker);
        let lat = hier.access(attacker).latency;
        let row_closed = lat
            >= hier.config().l1.hit_latency
                + hier.config().l2.hit_latency
                + hier.config().l3.hit_latency
                + dram_cfg.row_miss_latency;
        // Guess: row closed ⇒ the victim shared our bank.
        if row_closed == secret {
            correct += 1;
        }
    }
    Measurement::from_hits(correct, trials, 1)
}

/// CacheBleed-style L1 bank contention: the attacker claims a bank every
/// "cycle" while the victim performs secret-offset loads; conflict counts
/// reveal the victim's low address bits (4-byte granularity). Noisy: the
/// victim's other accesses hit random banks.
pub fn bank_contention_experiment(trials: u32, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut correct = 0;
    for _ in 0..trials {
        let secret = rng.gen_bool(0.5);
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default());
        let secret_bank_addr = if secret { PAddr(0) } else { PAddr(4) };
        let mut conflicts = 0;
        let rounds = 64;
        for _ in 0..rounds {
            let banks = hier.bank_model();
            banks.begin_cycle();
            // Victim: its secret-dependent access plus one random access.
            banks.claim(secret_bank_addr);
            let noise_addr = PAddr(rng.gen_range(0..16) * 4);
            banks.claim(noise_addr);
            // Attacker times a load on bank 0.
            if banks.claim(PAddr(0)) > 0 {
                conflicts += 1;
            }
        }
        // Bank 0 conflicts every round when the secret picked bank 0;
        // roughly 1/16 of rounds otherwise (noise).
        let guess = conflicts > rounds / 2;
        if guess == secret {
            correct += 1;
        }
    }
    Measurement::from_hits(correct, trials, 64)
}

/// BTB/PHT collision: the victim's secret-direction branch trains a
/// pattern-history-table counter that the attacker's aliased branch shares;
/// the attacker infers the direction from its own (timed, here: observed)
/// misprediction. Instruction-granular; noisy because other branches alias
/// into the same counter.
pub fn btb_collision_experiment(trials: u32, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut correct = 0;
    let cfg = PredictorConfig {
        pht_entries: 64,
        reset_value: 1,
    };
    for _ in 0..trials {
        let secret = rng.gen_bool(0.5);
        let mut pred = BranchPredictor::new(cfg);
        let victim_pc = 24usize;
        // Victim executes its secret-direction branch a couple of times.
        for _ in 0..2 {
            let predicted = pred.predict(victim_pc);
            pred.train(victim_pc, secret, predicted != secret);
        }
        // Noise: unrelated victim branches, some of which alias.
        for _ in 0..4 {
            let pc = rng.gen_range(0..256);
            let dir = rng.gen_bool(0.5);
            let p = pred.predict(pc);
            pred.train(pc, dir, p != dir);
        }
        // Attacker: same-index branch; observes its own prediction (on
        // hardware: by timing a known-direction branch).
        let aliased_pc = victim_pc + cfg.pht_entries; // same PHT index
        let guess = pred.predict(aliased_pc);
        if guess == secret {
            correct += 1;
        }
    }
    Measurement::from_hits(correct, trials, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_channel_beats_chance_but_is_noisy() {
        let m = tlb_experiment(40, 7);
        assert!(m.single_trace_accuracy > 0.6, "{m:?}");
    }

    #[test]
    fn drama_channel_beats_chance() {
        let m = drama_experiment(40, 8);
        assert!(m.single_trace_accuracy > 0.6, "{m:?}");
    }

    #[test]
    fn bank_contention_recovers_low_bits() {
        let m = bank_contention_experiment(40, 9);
        assert!(m.single_trace_accuracy > 0.7, "{m:?}");
    }

    #[test]
    fn btb_collision_leaks_direction() {
        let m = btb_collision_experiment(40, 10);
        assert!(m.single_trace_accuracy > 0.6, "{m:?}");
    }
}
