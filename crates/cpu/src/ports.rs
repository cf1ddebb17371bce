//! Execution ports and the shared non-pipelined divider.
//!
//! The port layout loosely follows Haswell (the paper's machine):
//!
//! | port | capabilities                  |
//! |------|-------------------------------|
//! | P0   | ALU, FP mul/add, **divider**  |
//! | P1   | ALU, integer mul, FP mul/add  |
//! | P2   | load                          |
//! | P3   | load                          |
//! | P4   | store                         |
//! | P5   | ALU, branch                   |
//!
//! All ports are shared between the two SMT contexts every cycle — that
//! sharing *is* the PortSmash/Figure-10 side channel. The divider is a
//! separate, non-pipelined unit reached through P0: a `divsd` occupies it
//! for its full latency, so a victim's in-flight division delays a
//! monitor's division by up to that latency.

/// What a given instruction needs from the issue stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Simple integer op (P0/P1/P5).
    Alu,
    /// Integer multiply (P1).
    Mul,
    /// FP add/mul (P0/P1).
    Fp,
    /// FP divide: needs P0 *and* the divider to be free.
    Div,
    /// Load (P2/P3).
    Load,
    /// Store (P4).
    Store,
    /// Branch (P5/P0).
    Branch,
}

const NUM_PORTS: usize = 6;

fn candidate_ports(kind: PortKind) -> &'static [usize] {
    match kind {
        PortKind::Alu => &[1, 5, 0],
        PortKind::Mul => &[1],
        PortKind::Fp => &[0, 1],
        PortKind::Div => &[0],
        PortKind::Load => &[2, 3],
        PortKind::Store => &[4],
        PortKind::Branch => &[5, 0],
    }
}

/// Per-cycle port arbitration plus the divider occupancy clock.
#[derive(Clone, Debug)]
pub struct Ports {
    busy: [bool; NUM_PORTS],
    divider_busy_until: u64,
    div_issues: u64,
    div_stall_cycles: u64,
    port_issues: [u64; NUM_PORTS],
}

impl Default for Ports {
    fn default() -> Self {
        Self::new()
    }
}

impl Ports {
    /// Creates idle ports.
    pub fn new() -> Self {
        Ports {
            busy: [false; NUM_PORTS],
            divider_busy_until: 0,
            div_issues: 0,
            div_stall_cycles: 0,
            port_issues: [0; NUM_PORTS],
        }
    }

    /// Clears per-cycle port claims. The divider clock persists.
    pub fn begin_cycle(&mut self) {
        self.busy = [false; NUM_PORTS];
    }

    /// Attempts to claim a port (and, for [`PortKind::Div`], the divider)
    /// at cycle `now` for an operation lasting `latency` cycles. Returns
    /// `true` when issue succeeds.
    pub fn try_issue(&mut self, kind: PortKind, now: u64, latency: u64) -> bool {
        if kind == PortKind::Div && self.divider_busy_until > now {
            self.div_stall_cycles += 1;
            return false;
        }
        for &p in candidate_ports(kind) {
            if !self.busy[p] {
                self.busy[p] = true;
                self.port_issues[p] += 1;
                if kind == PortKind::Div {
                    self.divider_busy_until = now + latency;
                    self.div_issues += 1;
                }
                return true;
            }
        }
        false
    }

    /// Charges `cycles` divider stalls that fast-forward skipped over: one
    /// per waiting division per skipped cycle, as a failed issue attempt
    /// in each of those cycles would have.
    pub(crate) fn credit_div_stalls(&mut self, cycles: u64) {
        self.div_stall_cycles += cycles;
    }

    /// When the divider becomes free (cycle number).
    pub fn divider_busy_until(&self) -> u64 {
        self.divider_busy_until
    }

    /// (division issues, cycles some division waited on a busy divider).
    pub fn div_stats(&self) -> (u64, u64) {
        (self.div_issues, self.div_stall_cycles)
    }

    /// Issues recorded per port, P0..P5.
    pub fn port_issues(&self) -> [u64; NUM_PORTS] {
        self.port_issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_have_two_ports() {
        let mut p = Ports::new();
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Load, 0, 4));
        assert!(p.try_issue(PortKind::Load, 0, 4));
        assert!(!p.try_issue(PortKind::Load, 0, 4), "only P2/P3 carry loads");
    }

    #[test]
    fn divider_is_not_pipelined() {
        let mut p = Ports::new();
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Div, 0, 24));
        p.begin_cycle();
        assert!(
            !p.try_issue(PortKind::Div, 1, 24),
            "second div must wait for the divider"
        );
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Div, 24, 24), "free again at t=24");
        assert_eq!(p.div_stats().0, 2);
        assert!(p.div_stats().1 >= 1);
    }

    #[test]
    fn div_blocked_by_divider_not_port() {
        let mut p = Ports::new();
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Div, 0, 24));
        // P0 is claimed this cycle, but an ALU op can still go to P1/P5.
        assert!(p.try_issue(PortKind::Alu, 0, 1));
        p.begin_cycle();
        // Next cycle P0 is free for FP mul even though the divider is busy.
        assert!(p.try_issue(PortKind::Fp, 1, 4));
        assert!(!p.try_issue(PortKind::Div, 1, 24));
    }

    #[test]
    fn alu_falls_back_across_ports() {
        let mut p = Ports::new();
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Alu, 0, 1)); // P1
        assert!(p.try_issue(PortKind::Alu, 0, 1)); // P5
        assert!(p.try_issue(PortKind::Alu, 0, 1)); // P0
        assert!(!p.try_issue(PortKind::Alu, 0, 1));
    }

    #[test]
    fn begin_cycle_frees_ports_but_not_divider() {
        let mut p = Ports::new();
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Div, 0, 10));
        p.begin_cycle();
        assert!(p.try_issue(PortKind::Fp, 1, 4), "P0 port itself is free");
        assert_eq!(p.divider_busy_until(), 10, "busy through cycle 9");
    }
}
