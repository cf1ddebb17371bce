//! The MicroScope kernel module: recipe registry, trampoline and the
//! replay/pivot state machine.

use crate::ops::{
    flush_translation, prime_lines, probe_latencies, set_walk_length, WalkLengthError,
};
use crate::recipe::{AttackRecipe, RecipeId, WalkTuning};
use crate::shared::{new_shared, ModuleShared, Observation, SharedHandle};
use microscope_cpu::{FaultEvent, HwParts, SupervisorAction};
use microscope_mem::{AddressSpace, VAddr};
use microscope_probe::{EventKind, Probe};

/// Which address a recipe is currently replaying on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Installed, not yet armed: the module claims none of its faults.
    Unarmed,
    Handle,
    Pivot,
}

/// A recipe's progress that [`ModuleShared`] does not hold; its step count
/// and finished flag live there.
#[derive(Clone, Debug)]
struct RecipeState {
    phase: Phase,
    replays_this_step: u64,
}

/// The in-kernel attack module (paper §5, Figure 9 item "MicroScope
/// module").
#[derive(Clone, Debug)]
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
    /// when constructing attacks programmatically. The session build
    /// refuses a recipe that breaks a rule of [`AttackRecipe::check`].
    pub fn install(&mut self, recipe: AttackRecipe) -> RecipeId {
        let id = RecipeId(self.recipes.len());
        let state = RecipeState {
            phase: Phase::Unarmed,
            replays_this_step: 0,
        };
        self.recipes.push((recipe, state));
        let mut sh = self.shared.borrow_mut();
        sh.replays.push(0);
        sh.steps.push(0);
        sh.finished.push(false);
        id
    }

    /// Checks every installed recipe against [`AttackRecipe::check`],
    /// naming the first one that breaks a rule with its field and value.
    pub fn check(&self) -> Result<(), (RecipeId, &'static str, u64)> {
        for (idx, (recipe, _)) in self.recipes.iter().enumerate() {
            recipe
                .check()
                .map_err(|(field, value)| (RecipeId(idx), field, value))?;
        }
        Ok(())
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

    /// Table 2: `provide_pivot(addr)`. The pivot must live on a different
    /// page than the handle, or the session build refuses the recipe.
    pub fn provide_pivot(&mut self, id: RecipeId, addr: VAddr) {
        self.recipes[id.0].0.pivot = Some(addr);
    }

    /// Table 2: `provide_monitor_addr(addr)`.
    pub fn provide_monitor_addr(&mut self, id: RecipeId, addr: VAddr) {
        self.recipes[id.0].0.monitor_addrs.push(addr);
    }

    /// Table 2: `initiate_page_walk(addr, length)` — arranges the next walk
    /// of `addr` to fetch `length` levels from memory. A length outside
    /// 1..=4 is a [`WalkLengthError`] and changes nothing.
    pub fn initiate_page_walk(
        &mut self,
        hw: &mut HwParts,
        aspace: AddressSpace,
        addr: VAddr,
        length: u8,
    ) -> Result<(), WalkLengthError> {
        set_walk_length(hw, aspace, addr, length)
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

    /// Arms every installed recipe: faults its replay handle and applies
    /// walk tuning and priming. Call once before the victim resumes.
    ///
    /// # Panics
    ///
    /// On a walk length that [`MicroScopeModule::check`] refuses; a session
    /// checks its recipes before it arms them.
    pub fn arm(&mut self, hw: &mut HwParts, aspace: AddressSpace) {
        self.shared.borrow_mut().armed = true;
        for (idx, (recipe, state)) in self.recipes.iter_mut().enumerate() {
            if state.phase != Phase::Unarmed {
                continue;
            }
            state.phase = Phase::Handle;
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
            if self.shared.borrow().finished[idx] || recipe.victim != ev.ctx {
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

    /// One replay of the handle: measure, then re-arm the handle or
    /// release it.
    fn replay_step(
        &mut self,
        idx: usize,
        hw: &mut HwParts,
        aspace: AddressSpace,
        ev: &FaultEvent,
    ) -> SupervisorAction {
        let (recipe, state) = &mut self.recipes[idx];
        state.replays_this_step += 1;
        let (total_replays, step) = {
            let mut sh = self.shared.borrow_mut();
            sh.replays[idx] += 1;
            enter_handler(&mut sh, &self.probe, ev);
            (sh.replays[idx], sh.steps[idx])
        };
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
            self.shared.borrow_mut().observations.push(Observation {
                recipe: RecipeId(idx),
                step,
                replay: state.replays_this_step,
                cycle: ev.cycle,
                probes,
            });
        }
        if state.replays_this_step < recipe.replays_per_step {
            // Keep the Present bit clear; re-arm timing for the next replay.
            rearm_handle(hw, aspace, recipe);
        } else {
            // Release the handle so the victim makes forward progress.
            release_page(&self.probe, hw, aspace, recipe.replay_handle);
            state.replays_this_step = 0;
            match recipe.pivot {
                Some(pivot) => {
                    // Arm the pivot to regain control after this iteration;
                    // the pivot step decides whether the attack continues.
                    fault_page(&self.probe, hw, aspace, pivot);
                    state.phase = Phase::Pivot;
                }
                None => {
                    let mut sh = self.shared.borrow_mut();
                    sh.steps[idx] += 1;
                    finish(&mut sh, &self.probe, idx);
                }
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
        let mut sh = self.shared.borrow_mut();
        enter_handler(&mut sh, &self.probe, ev);
        if let Some(pivot) = recipe.pivot {
            release_page(&self.probe, hw, aspace, pivot);
        }
        sh.steps[idx] += 1;
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            EventKind::PivotStep {
                recipe: idx as u32,
                step: sh.steps[idx],
            },
        );
        if sh.steps[idx] >= recipe.max_steps {
            finish(&mut sh, &self.probe, idx);
        } else {
            // Re-arm the handle for the next iteration (§4.2.2: "clears the
            // present bit for the replay handle … when the Victim resumes
            // execution, it retires all the instructions of the current
            // iteration and proceeds to the next").
            fault_page(&self.probe, hw, aspace, recipe.replay_handle);
            rearm_handle(hw, aspace, recipe);
            state.phase = Phase::Handle;
        }
        SupervisorAction::cycles(recipe.handler_cycles)
    }

    /// A snapshot of the shared observation state.
    pub fn snapshot(&self) -> ModuleShared {
        self.shared.borrow().clone()
    }
}

/// The handler is entered for a fault the module claimed: log it.
fn enter_handler(sh: &mut ModuleShared, probe: &Probe, ev: &FaultEvent) {
    sh.fault_log.push((ev.cycle, ev.fault.vaddr));
    probe.emit(
        Some(ev.ctx.0 as u32),
        EventKind::HandlerEnter {
            vaddr: ev.fault.vaddr.0,
        },
    );
}

/// The recipe at `idx` has run its last step: it disarms itself.
fn finish(sh: &mut ModuleShared, probe: &Probe, idx: usize) {
    sh.finished[idx] = true;
    probe.emit(
        None,
        EventKind::RecipeFinished {
            recipe: idx as u32,
            replays: sh.replays[idx],
        },
    );
}

/// Readies the (faulted) handle for its next replay: walk tuning, then
/// priming of the monitored lines when the recipe asks for it.
fn rearm_handle(hw: &mut HwParts, aspace: AddressSpace, recipe: &AttackRecipe) {
    apply_tuning(hw, aspace, recipe.replay_handle, recipe.walk);
    if recipe.prime_between_replays {
        prime_lines(hw, aspace, &recipe.monitor_addrs);
    }
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
        // `AttackRecipe::check` refuses every length this rejects.
        WalkTuning::Length { levels } => {
            set_walk_length(hw, aspace, addr, levels).expect("recipes are checked before arming")
        }
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
        let r = m.recipe_mut(id);
        assert_eq!(r.replay_handle, VAddr(0x1000));
        assert_eq!(r.pivot, Some(VAddr(0x2000)));
        assert_eq!(r.monitor_addrs.len(), 2);
        assert_eq!(m.check(), Ok(()));
    }

    #[test]
    fn check_names_the_recipe_with_a_pivot_on_its_handle_page() {
        let mut m = MicroScopeModule::new();
        m.provide_replay_handle(ContextId(0), VAddr(0x1000));
        let id = m.provide_replay_handle(ContextId(0), VAddr(0x5000));
        m.provide_pivot(id, VAddr(0x5800));
        assert_eq!(m.check(), Err((id, "pivot", 0x5800)));
    }

    #[test]
    #[should_panic(expected = "recipes are checked before arming")]
    fn arming_an_unchecked_walk_length_panics() {
        let (mut hw, aspace, va) = crate::ops::tests::hw_with_mapping();
        let mut m = MicroScopeModule::new();
        let id = m.provide_replay_handle(ContextId(0), va);
        m.recipe_mut(id).walk = WalkTuning::Length { levels: 0 };
        m.arm(&mut hw, aspace);
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
