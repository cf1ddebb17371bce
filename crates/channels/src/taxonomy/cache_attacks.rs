//! Cache-state channels: unsynchronized L3 Prime+Probe and interrupt-
//! stepped L1 probing (CacheZoom / SGX-Step style).

use super::Measurement;
use crate::prime_probe::PrimeProbe;
use microscope_cache::{HierarchyConfig, MemoryHierarchy, PAddr};
use microscope_cpu::{
    ContextId, FaultEvent, HwParts, InterruptEvent, MachineBuilder, Supervisor, SupervisorAction,
};
use microscope_mem::{AddressSpace, PhysMem, PteFlags, VAddr};
use microscope_victims::loop_secret;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// L3 Prime+Probe without synchronization: the attacker primes the sets of
/// two candidate lines, the victim makes one secret-dependent access amid
/// background traffic, the attacker probes. Line-granular; noisy because
/// the background traffic also lands in monitored sets (the reason the
/// real attacks need hundreds of traces).
pub fn l3_prime_probe_experiment(trials: u32, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut correct = 0;
    for _ in 0..trials {
        let secret = rng.gen_bool(0.5);
        let mut hw = fresh_hw();
        let line_a = PAddr(0x111_0000);
        let line_b = PAddr(0x222_0040);
        let pp_a = PrimeProbe::new(&hw, line_a, PAddr(0x4000_0000));
        let pp_b = PrimeProbe::new(&hw, line_b, PAddr(0x5000_0000));
        pp_a.prime(&mut hw);
        pp_b.prime(&mut hw);
        // Victim access.
        hw.hier.access(if secret { line_b } else { line_a });
        // Unsynchronized background traffic (the noise source).
        for _ in 0..40 {
            hw.hier.access(PAddr(rng.gen::<u32>() as u64 & 0x0fff_ffc0));
        }
        let hits_a = pp_a.probe(&mut hw);
        let hits_b = pp_b.probe(&mut hw);
        let guess = match hits_b.cmp(&hits_a) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => rng.gen_bool(0.5),
        };
        if guess == secret {
            correct += 1;
        }
    }
    Measurement::from_hits(correct, trials, 1)
}

fn fresh_hw() -> HwParts {
    HwParts {
        phys: PhysMem::new(),
        hier: MemoryHierarchy::new(HierarchyConfig::default()),
        tlb: microscope_mem::TlbHierarchy::new(microscope_mem::TlbHierarchyConfig::default()),
        walker: microscope_mem::PageWalker::new(microscope_mem::WalkerConfig::default()),
        predictor: microscope_cpu::BranchPredictor::new(microscope_cpu::PredictorConfig::default()),
    }
}

/// A supervisor that, on every stepping interrupt, probes the victim's
/// table lines (flush+reload style via privileged flush) and logs which
/// were touched since the previous step.
struct SteppingProber {
    aspace: AddressSpace,
    lines: Vec<VAddr>,
    /// One entry per step: indices of lines observed hot.
    pub observations: std::rc::Rc<std::cell::RefCell<Vec<Vec<usize>>>>,
}

impl Supervisor for SteppingProber {
    fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
        // Honest paging for anything that faults.
        if self
            .aspace
            .set_present(&mut hw.phys, ev.fault.vaddr, true)
            .is_none()
        {
            let frame = hw.phys.alloc_frame();
            self.aspace
                .map(&mut hw.phys, ev.fault.vaddr, frame, PteFlags::user_data());
        }
        hw.tlb.invlpg(ev.fault.vaddr, self.aspace.pcid());
        SupervisorAction::cycles(600)
    }

    fn on_interrupt(&mut self, hw: &mut HwParts, _ev: &InterruptEvent) -> SupervisorAction {
        let mut hot = Vec::new();
        for (i, va) in self.lines.iter().enumerate() {
            if let Some(pa) = microscope_os::translate_ignoring_present(hw, self.aspace, *va) {
                if hw.hier.level_of(pa).is_some() {
                    hot.push(i);
                }
                hw.hier.flush_line(pa); // reset for the next step
            }
        }
        self.observations.borrow_mut().push(hot);
        SupervisorAction::cycles(400)
    }
}

/// CacheZoom/SGX-Step-style stepping attack on the loop-secret victim:
/// interrupt every few retired instructions, probe+flush the table lines.
/// Fine-grain and high-resolution, but ordering jitter between the
/// interrupt grid and the victim's accesses leaves residual error — the
/// "relatively low noise … still require multiple runs" row of Table 1.
pub fn cachezoom_experiment(trials: u32, seed: u64) -> Measurement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recovered = 0u32;
    let mut total = 0u32;
    for t in 0..trials {
        let n_secrets = 4usize;
        let table_lines = 8u64;
        let secrets: Vec<u64> = (0..n_secrets)
            .map(|_| rng.gen_range(0..table_lines))
            .collect();
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (prog, layout) =
            loop_secret::build(&mut phys, aspace, VAddr(0x100_0000), &secrets, table_lines);
        let observations = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let prober = SteppingProber {
            aspace,
            lines: layout.table_line_addrs(),
            observations: observations.clone(),
        };
        let mut m = MachineBuilder::new()
            .phys(phys)
            .context_in(prog, aspace)
            .supervisor(Box::new(prober))
            .build();
        // Interrupt cadence jitters between runs (the noise source).
        let every = 3 + (u64::from(t) + seed) % 3;
        m.set_step_interrupt(ContextId(0), Some(every));
        m.run(10_000_000);
        // Reconstruct: concatenate hot lines across steps, dedup adjacent.
        let seen: Vec<usize> = observations.borrow().iter().flatten().copied().collect();
        for s in &secrets {
            total += 1;
            if seen.contains(&(*s as usize)) {
                recovered += 1;
            }
        }
    }
    // Four attempts per trial, one per secret.
    Measurement {
        trials,
        ..Measurement::from_hits(recovered, total, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l3_prime_probe_beats_chance() {
        let m = l3_prime_probe_experiment(30, 5);
        assert!(m.single_trace_accuracy > 0.6, "{m:?}");
    }

    #[test]
    fn cachezoom_recovers_most_lines() {
        let m = cachezoom_experiment(4, 6);
        assert!(m.single_trace_accuracy > 0.7, "{m:?}");
    }
}
