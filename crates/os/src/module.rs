//! The MicroScope kernel module: recipe registry, trampoline and the
//! replay/pivot state machine.

use crate::ops::{flush_translation, prime_lines, probe_latencies, set_walk_length};
use crate::recipe::{AttackRecipe, RecipeId, WalkTuning};
use crate::shared::{new_shared, ModuleShared, Observation, SharedHandle};
use microscope_cpu::{FaultEvent, HwParts, SupervisorAction};
use microscope_mem::{AddressSpace, VAddr};
use microscope_probe::{EventKind, Probe};

/// Which address a recipe is currently replaying on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Handle,
    Pivot,
}

#[derive(Clone, Debug)]
struct RecipeState {
    phase: Phase,
    replays_this_step: u64,
    steps_done: u64,
    finished: bool,
    armed: bool,
    /// Classification history for the confidence threshold.
    last_hits: Option<Vec<VAddr>>,
    stable_streak: u64,
}

impl RecipeState {
    fn new() -> Self {
        RecipeState {
            phase: Phase::Handle,
            replays_this_step: 0,
            steps_done: 0,
            finished: false,
            armed: false,
            last_hits: None,
            stable_streak: 0,
        }
    }
}

/// The in-kernel attack module (paper §5, Figure 9 item "MicroScope
/// module").
#[derive(Debug)]
pub struct MicroScopeModule {
    recipes: Vec<(AttackRecipe, RecipeState)>,
    shared: SharedHandle,
    probe: Probe,
}

impl Default for MicroScopeModule {
    fn default() -> Self {
        Self::new()
    }
}

impl MicroScopeModule {
    /// Creates an empty module.
    pub fn new() -> Self {
        MicroScopeModule {
            recipes: Vec::new(),
            shared: new_shared(),
            probe: Probe::disabled(),
        }
    }

    /// Connects the module to a shared event bus. Also makes the module
    /// keep the ambient *replay index* up to date, so events from every
    /// layer are stamped with the replay cycle they occurred in.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// A handle to the observation state, kept by the host-side attacker.
    pub fn shared(&self) -> SharedHandle {
        self.shared.clone()
    }

    /// Registers a full recipe. Prefer this over the piecewise Table-2 API
    /// when constructing attacks programmatically.
    ///
    /// # Panics
    ///
    /// Panics if the recipe is internally inconsistent (see
    /// [`AttackRecipe::validate`]).
    pub fn install(&mut self, recipe: AttackRecipe) -> RecipeId {
        recipe.validate();
        let id = RecipeId(self.recipes.len());
        self.recipes.push((recipe, RecipeState::new()));
        let mut sh = self.shared.borrow_mut();
        sh.replays.push(0);
        sh.steps.push(0);
        sh.finished.push(false);
        id
    }

    // ------------------------------------------------------------------
    // Table 2 API
    // ------------------------------------------------------------------

    /// Table 2: `provide_replay_handle(addr)` — starts a new recipe around
    /// the handle and returns its id for further configuration.
    pub fn provide_replay_handle(
        &mut self,
        victim: microscope_cpu::ContextId,
        addr: VAddr,
    ) -> RecipeId {
        self.install(AttackRecipe::new(victim, addr))
    }

    /// Table 2: `provide_pivot(addr)`.
    ///
    /// # Panics
    ///
    /// Panics if the pivot shares a page with the recipe's replay handle.
    pub fn provide_pivot(&mut self, id: RecipeId, addr: VAddr) {
        let (recipe, _) = &mut self.recipes[id.0];
        recipe.pivot = Some(addr);
        recipe.validate();
    }

    /// Table 2: `provide_monitor_addr(addr)`.
    pub fn provide_monitor_addr(&mut self, id: RecipeId, addr: VAddr) {
        self.recipes[id.0].0.monitor_addrs.push(addr);
    }

    /// Table 2: `initiate_page_walk(addr, length)` — arranges the next walk
    /// of `addr` to fetch `length` levels from memory.
    pub fn initiate_page_walk(
        &mut self,
        hw: &mut HwParts,
        aspace: AddressSpace,
        addr: VAddr,
        length: u8,
    ) {
        set_walk_length(hw, aspace, addr, length);
    }

    /// Table 2: `initiate_page_fault(addr)` — clears the Present bit and
    /// flushes all translation state, guaranteeing the next access faults.
    pub fn initiate_page_fault(&mut self, hw: &mut HwParts, aspace: AddressSpace, addr: VAddr) {
        fault_page(&self.probe, hw, aspace, addr);
    }

    /// Mutable access to an installed recipe (attack-exploration tweaks).
    pub fn recipe_mut(&mut self, id: RecipeId) -> &mut AttackRecipe {
        &mut self.recipes[id.0].0
    }

    /// Read access to an installed recipe.
    pub fn recipe(&self, id: RecipeId) -> &AttackRecipe {
        &self.recipes[id.0].0
    }

    /// Arms every installed recipe: faults its replay handle and applies
    /// walk tuning and priming. Call once before the victim resumes.
    pub fn arm(&mut self, hw: &mut HwParts, aspace: AddressSpace) {
        self.shared.borrow_mut().armed = true;
        for (idx, (recipe, state)) in self.recipes.iter_mut().enumerate() {
            if state.finished || state.armed {
                continue;
            }
            state.armed = true;
            self.probe.emit(
                None,
                EventKind::RecipeArmed {
                    recipe: idx as u32,
                    vaddr: recipe.replay_handle.0,
                },
            );
            fault_page(&self.probe, hw, aspace, recipe.replay_handle);
            apply_tuning(hw, aspace, recipe.replay_handle, recipe.walk);
            // NOTE: no priming here — Figure 11's "Replay 0" is deliberately
            // unprimed ("Before the first replay, the Replayer does not
            // prime the cache hierarchy"); priming happens between replays.
        }
    }

    /// The page-fault trampoline (Figure 9, step 4): offered every fault;
    /// returns `Some` when a recipe claims it.
    pub fn handle_fault(
        &mut self,
        hw: &mut HwParts,
        aspace: AddressSpace,
        ev: &FaultEvent,
    ) -> Option<SupervisorAction> {
        let vpn = ev.fault.vaddr.vpn();
        for idx in 0..self.recipes.len() {
            let (recipe, state) = &self.recipes[idx];
            if state.finished || !state.armed || recipe.victim != ev.ctx {
                continue;
            }
            let on_handle = state.phase == Phase::Handle && vpn == recipe.replay_handle.vpn();
            let on_pivot =
                state.phase == Phase::Pivot && recipe.pivot.map(|p| p.vpn()) == Some(vpn);
            if on_handle {
                return Some(self.replay_step(idx, hw, aspace, ev));
            }
            if on_pivot {
                return Some(self.pivot_step(idx, hw, aspace, ev));
            }
        }
        None
    }

    /// One replay of the handle: measure, decide, re-arm or release.
    fn replay_step(
        &mut self,
        idx: usize,
        hw: &mut HwParts,
        aspace: AddressSpace,
        ev: &FaultEvent,
    ) -> SupervisorAction {
        let (recipe, state) = &mut self.recipes[idx];
        state.replays_this_step += 1;
        let total_replays;
        {
            let mut sh = self.shared.borrow_mut();
            sh.replays[idx] += 1;
            total_replays = sh.replays[idx];
            sh.fault_log.push((ev.cycle, ev.fault.vaddr));
        }
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            EventKind::HandlerEnter {
                vaddr: ev.fault.vaddr.0,
            },
        );
        // Advance the ambient replay index: everything any layer emits from
        // here on belongs to this replay cycle.
        self.probe.set_replay(total_replays);
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            EventKind::Replay {
                recipe: idx as u32,
                replay: state.replays_this_step,
            },
        );
        // Measure: probe the monitored lines (cache-attack configuration).
        let mut stable = false;
        if !recipe.monitor_addrs.is_empty() {
            let probes = probe_latencies(hw, aspace, &recipe.monitor_addrs);
            for &(addr, latency) in &probes {
                self.probe.emit(
                    Some(ev.ctx.0 as u32),
                    EventKind::MonitorProbe {
                        vaddr: addr.0,
                        latency,
                    },
                );
            }
            let obs = Observation {
                recipe: RecipeId(idx),
                step: state.steps_done,
                replay: state.replays_this_step,
                cycle: ev.cycle,
                probes,
            };
            let hits = obs.hits(recipe.hit_threshold);
            if state.last_hits.as_ref() == Some(&hits) {
                state.stable_streak += 1;
            } else {
                state.stable_streak = 0;
                state.last_hits = Some(hits);
            }
            if let Some(k) = recipe.stop_when_stable {
                stable = state.stable_streak >= k;
            }
            self.shared.borrow_mut().observations.push(obs);
        }
        let done_replaying = state.replays_this_step >= recipe.replays_per_step || stable;
        if done_replaying {
            // Release the handle so the victim makes forward progress.
            release_page(&self.probe, hw, aspace, recipe.replay_handle);
            state.replays_this_step = 0;
            state.last_hits = None;
            state.stable_streak = 0;
            match recipe.pivot {
                Some(pivot) => {
                    // Arm the pivot to regain control after this iteration;
                    // the pivot step decides whether the attack continues.
                    fault_page(&self.probe, hw, aspace, pivot);
                    state.phase = Phase::Pivot;
                }
                None => {
                    state.finished = true;
                    let mut sh = self.shared.borrow_mut();
                    sh.finished[idx] = true;
                    sh.steps[idx] = state.steps_done + 1;
                    self.probe.emit(
                        None,
                        EventKind::RecipeFinished {
                            recipe: idx as u32,
                            replays: sh.replays[idx],
                        },
                    );
                }
            }
        } else {
            // Keep the Present bit clear; re-arm timing for the next replay.
            apply_tuning(hw, aspace, recipe.replay_handle, recipe.walk);
            if recipe.prime_between_replays {
                prime_lines(hw, aspace, &recipe.monitor_addrs);
            }
        }
        SupervisorAction::cycles(recipe.handler_cycles)
    }

    /// The pivot faulted: release it, advance the step, re-arm the handle.
    fn pivot_step(
        &mut self,
        idx: usize,
        hw: &mut HwParts,
        aspace: AddressSpace,
        ev: &FaultEvent,
    ) -> SupervisorAction {
        let (recipe, state) = &mut self.recipes[idx];
        let pivot = recipe.pivot.expect("pivot phase requires a pivot");
        {
            let mut sh = self.shared.borrow_mut();
            sh.fault_log.push((ev.cycle, ev.fault.vaddr));
        }
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            EventKind::HandlerEnter {
                vaddr: ev.fault.vaddr.0,
            },
        );
        release_page(&self.probe, hw, aspace, pivot);
        state.steps_done += 1;
        self.shared.borrow_mut().steps[idx] = state.steps_done;
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            EventKind::PivotStep {
                recipe: idx as u32,
                step: state.steps_done,
            },
        );
        if state.steps_done >= recipe.max_steps {
            state.finished = true;
            self.shared.borrow_mut().finished[idx] = true;
            self.probe.emit(
                None,
                EventKind::RecipeFinished {
                    recipe: idx as u32,
                    replays: self.shared.borrow().replays[idx],
                },
            );
        } else {
            // Re-arm the handle for the next iteration (§4.2.2: "clears the
            // present bit for the replay handle … when the Victim resumes
            // execution, it retires all the instructions of the current
            // iteration and proceeds to the next").
            fault_page(&self.probe, hw, aspace, recipe.replay_handle);
            apply_tuning(hw, aspace, recipe.replay_handle, recipe.walk);
            if recipe.prime_between_replays {
                prime_lines(hw, aspace, &recipe.monitor_addrs);
            }
            state.phase = Phase::Handle;
        }
        SupervisorAction::cycles(recipe.handler_cycles)
    }

    /// Captures the module's mutable state — per-recipe progress and the
    /// shared observation log — for a machine checkpoint.
    pub fn checkpoint(&self) -> ModuleCheckpoint {
        ModuleCheckpoint {
            recipes: self.recipes.clone(),
            shared: self.shared.borrow().clone(),
        }
    }

    /// Rewinds the module to a [`MicroScopeModule::checkpoint`]. The
    /// restore writes *through* the [`SharedHandle`], so host-side clones
    /// of the handle observe the rewound observation state too.
    pub fn restore(&mut self, cp: &ModuleCheckpoint) {
        self.recipes = cp.recipes.clone();
        *self.shared.borrow_mut() = cp.shared.clone();
    }

    /// A snapshot of the shared observation state.
    pub fn snapshot(&self) -> ModuleShared {
        self.shared.borrow().clone()
    }
}

/// Opaque snapshot of a [`MicroScopeModule`]'s mutable state: every
/// installed recipe with its replay/pivot progress (phase, counts,
/// confidence streaks) plus the shared observation log. Restoring one via
/// [`MicroScopeModule::restore`] clones it, so a single snapshot seeds any
/// number of re-executions.
#[derive(Clone, Debug)]
pub struct ModuleCheckpoint {
    recipes: Vec<(AttackRecipe, RecipeState)>,
    shared: ModuleShared,
}

/// Faults `addr`'s page: clears its Present bit and flushes its
/// translation state, so the next access faults.
fn fault_page(probe: &Probe, hw: &mut HwParts, aspace: AddressSpace, addr: VAddr) {
    aspace.set_present(&mut hw.phys, addr, false);
    flush_translation(hw, aspace, addr);
    probe.emit(None, EventKind::PresentCleared { vaddr: addr.0 });
    probe.emit(None, EventKind::TlbShootdown { vaddr: addr.0 });
}

/// Releases `addr`'s page: sets its Present bit and drops its stale TLB
/// entry, so the victim makes forward progress.
fn release_page(probe: &Probe, hw: &mut HwParts, aspace: AddressSpace, addr: VAddr) {
    aspace.set_present(&mut hw.phys, addr, true);
    hw.tlb.invlpg(addr, aspace.pcid());
    probe.emit(None, EventKind::PresentSet { vaddr: addr.0 });
}

fn apply_tuning(hw: &mut HwParts, aspace: AddressSpace, addr: VAddr, walk: WalkTuning) {
    match walk {
        WalkTuning::Long => flush_translation(hw, aspace, addr),
        WalkTuning::Length { levels } => set_walk_length(hw, aspace, addr, levels),
        WalkTuning::Natural => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::ContextId;

    #[test]
    fn table2_api_builds_a_recipe() {
        let mut m = MicroScopeModule::new();
        let id = m.provide_replay_handle(ContextId(0), VAddr(0x1000));
        m.provide_pivot(id, VAddr(0x2000));
        m.provide_monitor_addr(id, VAddr(0x3000));
        m.provide_monitor_addr(id, VAddr(0x3040));
        let r = m.recipe(id);
        assert_eq!(r.replay_handle, VAddr(0x1000));
        assert_eq!(r.pivot, Some(VAddr(0x2000)));
        assert_eq!(r.monitor_addrs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "different page")]
    fn pivot_on_handle_page_rejected_via_api() {
        let mut m = MicroScopeModule::new();
        let id = m.provide_replay_handle(ContextId(0), VAddr(0x1000));
        m.provide_pivot(id, VAddr(0x1800));
    }

    #[test]
    fn shared_state_grows_with_recipes() {
        let mut m = MicroScopeModule::new();
        m.provide_replay_handle(ContextId(0), VAddr(0x1000));
        m.provide_replay_handle(ContextId(0), VAddr(0x5000));
        let sh = m.snapshot();
        assert_eq!(sh.replays, vec![0, 0]);
        assert_eq!(sh.finished, vec![false, false]);
    }
}
