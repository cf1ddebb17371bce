//! Branch direction prediction (PHT of 2-bit counters) shared across SMT.
//!
//! The predictor matters to MicroScope twice:
//!
//! * §4.2.3 ("Prediction"): with a primed/flushed predictor in a *known
//!   state*, whether a secret-dependent branch mispredicts leaks
//!   `secret == predicted direction`. Priming and flushing are first-class
//!   operations here.
//! * §7.2: mispredicting branches are replay handles of bounded replay
//!   count; the machine counts mispredict-squashes for that experiment.
//!
//! The table is shared by both hardware contexts (no PCID tagging), which
//! also provides the BTB/PHT-collision channel referenced in Table 1.

use std::rc::Rc;

/// Predictor geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the pattern history table. Must be a power of two.
    pub pht_entries: usize,
    /// Counter value entries reset to on flush (0 = strongly not-taken,
    /// 3 = strongly taken; 1 is "weakly not-taken", a common reset state).
    pub reset_value: u8,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            pht_entries: 1024,
            reset_value: 1,
        }
    }
}

impl PredictorConfig {
    /// Checks the rules [`BranchPredictor::new`] asserts, which a struct
    /// literal can break: `pht_entries` is a power of two and
    /// `reset_value` a 2-bit counter state (at most 3).
    ///
    /// # Errors
    ///
    /// The first field, in that order, that breaks its rule, as its path
    /// from a simulation config's `core` field
    /// (`"core.predictor.pht_entries"`) and its value.
    pub fn check(&self) -> Result<(), (&'static str, u64)> {
        if !self.pht_entries.is_power_of_two() {
            return Err(("core.predictor.pht_entries", self.pht_entries as u64));
        }
        match self.reset_value {
            0..=3 => Ok(()),
            v => Err(("core.predictor.reset_value", u64::from(v))),
        }
    }
}

/// A pattern-history-table predictor with 2-bit saturating counters.
///
/// The PHT is [`Rc`]-shared so checkpoint capture is a reference bump; the
/// first training after a clone copies the table back out.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    cfg: PredictorConfig,
    pht: Rc<Vec<u8>>,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor in the flushed state.
    ///
    /// # Panics
    ///
    /// Panics if `pht_entries` is not a power of two or `reset_value > 3`
    /// (see [`PredictorConfig::check`]).
    pub fn new(cfg: PredictorConfig) -> Self {
        assert!(cfg.pht_entries.is_power_of_two());
        assert!(cfg.reset_value <= 3);
        BranchPredictor {
            pht: Rc::new(vec![cfg.reset_value; cfg.pht_entries]),
            cfg,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: usize) -> usize {
        pc & (self.cfg.pht_entries - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&mut self, pc: usize) -> bool {
        self.lookups += 1;
        self.pht[self.index(pc)] >= 2
    }

    /// Reads the counter without recording a lookup (attacker inspection).
    pub fn peek(&self, pc: usize) -> u8 {
        self.pht[self.index(pc)]
    }

    /// Trains the counter with the resolved direction and records whether
    /// the earlier prediction was wrong.
    pub fn train(&mut self, pc: usize, taken: bool, was_mispredict: bool) {
        let idx = self.index(pc);
        let c = &mut Rc::make_mut(&mut self.pht)[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        if was_mispredict {
            self.mispredicts += 1;
        }
    }

    /// Drives the counter for `pc` to a strong state — the attacker's
    /// "prime the predictor to a known state" (§4.2.3, citing Spectre's
    /// priming technique).
    pub fn prime(&mut self, pc: usize, taken: bool) {
        let idx = self.index(pc);
        Rc::make_mut(&mut self.pht)[idx] = if taken { 3 } else { 0 };
    }

    /// Resets every counter — the enclave-boundary predictor flush
    /// countermeasure the paper notes "puts it into a known state".
    pub fn flush(&mut self) {
        let reset = self.cfg.reset_value;
        for c in Rc::make_mut(&mut self.pht) {
            *c = reset;
        }
    }

    /// (lookups, mispredicts recorded).
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_saturates_both_directions() {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        for _ in 0..10 {
            p.train(4, true, false);
        }
        assert!(p.predict(4));
        assert_eq!(p.peek(4), 3);
        for _ in 0..10 {
            p.train(4, false, false);
        }
        assert!(!p.predict(4));
        assert_eq!(p.peek(4), 0);
    }

    #[test]
    fn prime_and_flush_set_known_states() {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        p.prime(12, true);
        assert!(p.predict(12));
        p.flush();
        assert_eq!(p.peek(12), 1);
        assert!(!p.predict(12), "reset state is weakly not-taken");
    }

    #[test]
    fn aliasing_is_shared_across_contexts() {
        // Two pcs that collide in the table influence each other — the
        // BTB/PHT collision channel.
        let cfg = PredictorConfig {
            pht_entries: 16,
            reset_value: 1,
        };
        let mut p = BranchPredictor::new(cfg);
        p.prime(3, true);
        assert!(p.predict(3 + 16), "aliased pc shares the counter");
    }

    #[test]
    fn check_names_the_first_broken_field() {
        assert_eq!(PredictorConfig::default().check(), Ok(()));
        let mut cfg = PredictorConfig {
            pht_entries: 1000,
            reset_value: 4,
        };
        let first = Err(("core.predictor.pht_entries", 1000));
        assert_eq!(cfg.check(), first, "the table size first");
        cfg.pht_entries = 0;
        assert_eq!(cfg.check(), Err(("core.predictor.pht_entries", 0)));
        cfg.pht_entries = 16;
        assert_eq!(cfg.check(), Err(("core.predictor.reset_value", 4)));
        cfg.reset_value = 3;
        assert_eq!(cfg.check(), Ok(()));
    }

    #[test]
    fn mispredict_stats_count() {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        p.train(0, true, true);
        p.train(0, true, false);
        assert_eq!(p.stats().1, 1);
    }
}
