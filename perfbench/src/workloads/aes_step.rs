//! `aes_step`: the cache-stepping attack. One operation is one complete,
//! cold 64-step T-table AES attack (`aes_attack::run`): the replayer
//! primes and probes the 64 table lines after every replay and pivots the
//! handle forward step by step. The key comes from the seed, and every
//! operation decrypts a fresh ciphertext block drawn from it, so each
//! operation touches different table lines.

use super::{no_panic, Outcome, Rng, Workload};
use crate::compose::{self, Scope};
use crate::layers::Counts;
use microscope_channels::aes_attack::{self, AesAttackConfig, AesAttackOutcome};
use microscope_core::{AttackSession, RunRequest, SessionBuilder};
use microscope_cpu::ContextId;
use microscope_mem::{AddressSpace, VAddr};
use microscope_victims::aes::{self, AesLayout};
use std::hint::black_box;

/// Probe threshold (cycles) separating table-line hits from misses.
const HIT_THRESHOLD: u64 = 100;
/// Minimum recall and precision of the extracted line trace.
const MIN_SCORE: f64 = 0.8;
/// Passes of direct cache accesses / page walks per traced operation.
const DIRECT_PASSES: usize = 4;

pub struct AesStep {
    key: Vec<u8>,
    rng: Rng,
    cross_block: [u8; 16],
    verified: bool,
}

fn config(key: &[u8], block: [u8; 16]) -> AesAttackConfig {
    AesAttackConfig {
        key: key.to_vec(),
        block,
        ..AesAttackConfig::default()
    }
}

/// The attack's outputs check out: the victim still decrypted correctly and
/// the extracted table lines match the reference trace.
fn check(out: &AesAttackOutcome) -> bool {
    let (recall, precision) = out.score(HIT_THRESHOLD);
    out.decrypted_correctly && recall >= MIN_SCORE && precision >= MIN_SCORE
}

/// The session `aes_attack::run` assembles, built from the same public
/// calls. The default configuration arms at build time, which the
/// composed cold run relies on.
fn session(cfg: &AesAttackConfig) -> (SessionBuilder, AddressSpace, AesLayout) {
    let mut b = SessionBuilder::new();
    b.sim(cfg.sim);
    let aspace = b.new_aspace(1);
    let (prog, layout) = aes::build(
        b.phys(),
        aspace,
        VAddr(0x4000_0000),
        &cfg.key,
        cfg.size,
        &cfg.block,
    );
    b.victim(prog, aspace);
    let id = b.module().provide_replay_handle(ContextId(0), layout.rk);
    let module = b.module();
    module.provide_pivot(id, layout.td[0]);
    for line in layout.all_table_lines() {
        module.provide_monitor_addr(id, line);
    }
    let recipe = module.recipe_mut(id);
    recipe.name = "aes-ttable".into();
    recipe.replays_per_step = cfg.replays_per_step;
    recipe.max_steps = cfg.max_steps;
    recipe.walk = cfg.walk;
    recipe.prime_between_replays = true;
    recipe.handler_cycles = cfg.handler_cycles;
    (b, aspace, layout)
}

/// Times direct `MemoryHierarchy::access` calls over the table lines the
/// recipe probes, and direct `PageWalker::walk` calls over the victim's
/// table and round-key pages, on a throwaway clone of the armed hardware.
fn direct_layer_calls(
    s: &AttackSession,
    aspace: AddressSpace,
    layout: &AesLayout,
    at: Scope<'_>,
    counts: &mut Counts,
) {
    let mut hw = s.machine().hw().clone();
    let lines: Vec<_> = layout
        .all_table_lines()
        .into_iter()
        .filter_map(|va| aspace.translate(&hw.phys, va, false).ok())
        .map(|t| t.paddr)
        .collect();
    at.span("cache.access", || {
        for _ in 0..DIRECT_PASSES {
            for pa in &lines {
                black_box(hw.hier.access(*pa));
            }
        }
    });
    counts.direct_accesses += (DIRECT_PASSES * lines.len()) as u64;
    let pages: Vec<VAddr> = layout
        .td
        .iter()
        .copied()
        .chain([layout.td4, layout.rk])
        .collect();
    at.span("mem.walk", || {
        for _ in 0..DIRECT_PASSES {
            for va in &pages {
                black_box(
                    hw.walker
                        .walk(&mut hw.phys, &mut hw.hier, &aspace, *va, false),
                );
            }
        }
    });
    counts.direct_walks += (DIRECT_PASSES * pages.len()) as u64;
}

impl AesStep {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 2);
        let key: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
        let cross_block = std::array::from_fn(|_| rng.next_u64() as u8);
        let mut w = AesStep {
            key,
            rng,
            cross_block,
            verified: false,
        };
        // Warm-up: one untimed attack, which must already check out.
        if !w.op().ok {
            return Err("warm-up attack failed its checks".into());
        }
        Ok(w)
    }

    fn next_config(&mut self) -> AesAttackConfig {
        let block = std::array::from_fn(|_| self.rng.next_u64() as u8);
        config(&self.key, block)
    }
}

impl Workload for AesStep {
    fn op(&mut self) -> Outcome {
        let cfg = self.next_config();
        let out = aes_attack::run(&cfg);
        let mut counts = Counts::default();
        counts.add_report(&out.report);
        Outcome {
            ok: check(&out),
            counts,
        }
    }

    fn traced_op(&mut self, at: Scope<'_>) -> Outcome {
        let cfg = self.next_config();
        let mut counts = Counts::default();
        let (_, ground_truth) = aes::decrypt_block_traced(&cfg.key, cfg.size, &cfg.block);
        let expected = aes::decrypt_block(&cfg.key, cfg.size, &cfg.block);
        let (b, aspace, layout) = session(&cfg);
        let Ok(mut s) = at.span("session.build", || b.build()) else {
            return Outcome::default();
        };
        direct_layer_calls(&s, aspace, &layout, at, &mut counts);
        let cow_before = s.machine().hw().phys.cow_copied_pages();
        let (report, _armed) = compose::cold(&mut s, cfg.max_cycles, at, &mut counts);
        counts.pages_cow += s.machine().hw().phys.cow_copied_pages() - cow_before;
        counts.add_report(&report);
        let decrypted_correctly =
            aes::read_output(&s.machine().hw().phys, aspace, &layout) == expected;
        let out = AesAttackOutcome {
            report,
            layout,
            ground_truth,
            decrypted_correctly,
        };
        let mut ok = check(&out);
        if !self.verified {
            self.verified = true;
            if format!("{:?}", out.report) != format!("{:?}", aes_attack::run(&cfg).report) {
                eprintln!("aes_step: composed attack differs from execute()");
                ok = false;
            }
        }
        Outcome { ok, counts }
    }

    fn cross_check(&mut self) -> Result<String, String> {
        let cfg = config(&self.key, self.cross_block);
        let (b, _, _) = session(&cfg);
        let mut s = b.build().map_err(|e| e.to_string())?;
        s.execute(RunRequest::cold(cfg.max_cycles))
            .map_err(|e| e.to_string())?;
        let report = no_panic("aes_step cross-check", || {
            s.execute(RunRequest::cold(cfg.max_cycles).cross_checked())
        })?
        .map_err(|e| format!("cross-checked run failed: {e}"))?;
        Ok(format!("{report:?}"))
    }
}
