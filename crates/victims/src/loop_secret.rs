//! The loop-secret victim (paper Figure 4b).
//!
//! ```text
//! for i in 0..n {
//!     handle(pub_addrA);       // replay handle, page A
//!     transmit(secret[i]);     // secret-indexed table access
//!     pivot(pub_addrB);        // pivot, page B
//! }
//! ```
//!
//! Each iteration transmits a *different* secret by loading
//! `table[secret[i] * 64]` — a classic cache-line-indexed transmit. The
//! challenge the pivot solves (§4.2.2): all iterations fault on the same
//! handle page, so without the pivot the replayer cannot tell `secret[i]`
//! from `secret[i+1]`.

use crate::layout::DataLayout;
use microscope_cpu::{Assembler, Cond, Program};
use microscope_mem::{AddressSpace, PhysMem, VAddr, LINE_BYTES};

/// Layout of the loop-secret victim.
#[derive(Clone, Copy, Debug)]
pub struct LoopSecretLayout {
    /// Page A: the replay handle.
    pub handle: VAddr,
    /// Page B: the pivot.
    pub pivot: VAddr,
    /// The secrets array (one u64 per iteration).
    pub secrets: VAddr,
    /// The transmit table (`lines` cache lines on its own pages).
    pub table: VAddr,
    /// Number of loop iterations.
    pub iterations: u64,
    /// Number of table lines.
    pub table_lines: u64,
}

impl LoopSecretLayout {
    /// All table line addresses (probe set).
    pub fn table_line_addrs(&self) -> Vec<VAddr> {
        (0..self.table_lines)
            .map(|i| self.table.offset(i * LINE_BYTES))
            .collect()
    }
}

/// Registers used by the generated program.
pub mod regs {
    use microscope_cpu::Reg;
    /// Loop counter.
    pub const I: Reg = Reg(1);
    /// Iteration bound.
    pub const N: Reg = Reg(2);
    /// Handle pointer.
    pub const HANDLE: Reg = Reg(3);
    /// Pivot pointer.
    pub const PIVOT: Reg = Reg(4);
    /// Secrets base.
    pub const SECRETS: Reg = Reg(5);
    /// Table base.
    pub const TABLE: Reg = Reg(6);
    /// Scratch.
    pub const TMP: Reg = Reg(7);
    /// Loaded secret.
    pub const SECRET: Reg = Reg(8);
    /// Transmit destination.
    pub const SINK: Reg = Reg(9);
}

/// Builds the victim over the given per-iteration secrets. Each secret must
/// be `< table_lines`.
///
/// # Panics
///
/// Panics if any secret indexes past the table.
pub fn build(
    phys: &mut PhysMem,
    aspace: AddressSpace,
    base: VAddr,
    secrets: &[u64],
    table_lines: u64,
) -> (Program, LoopSecretLayout) {
    assert!(
        secrets.iter().all(|s| *s < table_lines),
        "secret out of table range"
    );
    let mut layout = DataLayout::new(phys, aspace, base);
    let handle = layout.page(64);
    let pivot = layout.page(64);
    let secrets_base = layout.array_u64(secrets);
    let table = layout.page(table_lines * LINE_BYTES);

    let mut asm = Assembler::new();
    asm.imm(regs::I, 0)
        .imm(regs::N, secrets.len() as u64)
        .imm(regs::HANDLE, handle.0)
        .imm(regs::PIVOT, pivot.0)
        .imm(regs::SECRETS, secrets_base.0)
        .imm(regs::TABLE, table.0);
    let top = asm.label();
    asm.bind(top);
    // handle(pub_addrA): a load from page A — the replay handle.
    asm.load(regs::TMP, regs::HANDLE, 0);
    // transmit(secret[i]): load table[secret[i] * 64].
    asm.alu_imm(microscope_cpu::AluOp::Shl, regs::SECRET, regs::I, 3)
        .alu(
            microscope_cpu::AluOp::Add,
            regs::SECRET,
            regs::SECRET,
            regs::SECRETS,
        )
        .load(regs::SECRET, regs::SECRET, 0)
        .alu_imm(microscope_cpu::AluOp::Shl, regs::SECRET, regs::SECRET, 6)
        .alu(
            microscope_cpu::AluOp::Add,
            regs::SECRET,
            regs::SECRET,
            regs::TABLE,
        )
        .load(regs::SINK, regs::SECRET, 0);
    // pivot(pub_addrB): a load from page B.
    asm.load(regs::TMP, regs::PIVOT, 0);
    asm.alu_imm(microscope_cpu::AluOp::Add, regs::I, regs::I, 1)
        .branch(Cond::Lt, regs::I, regs::N, top)
        .halt();

    (
        asm.finish(),
        LoopSecretLayout {
            handle,
            pivot,
            secrets: secrets_base,
            table,
            iterations: secrets.len() as u64,
            table_lines,
        },
    )
}

/// Taint sources: the per-iteration `secret[i]` array. Each loaded secret
/// forms the `table[secret[i] * 64]` address — the cache-line transmit.
pub fn secrets(layout: &LoopSecretLayout) -> crate::SecretMap {
    crate::SecretMap::new().region(layout.secrets, layout.iterations * 8, "secret[i] array")
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{ContextId, MachineBuilder};

    #[test]
    fn loop_terminates_and_reads_all_secrets() {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let secrets = [3, 1, 4, 1, 5];
        let (prog, layout) = build(&mut phys, aspace, VAddr(0x60_0000), &secrets, 8);
        let mut m = MachineBuilder::new()
            .phys(phys)
            .context_in(prog, aspace)
            .build();
        m.run(5_000_000);
        assert!(m.context(ContextId(0)).halted());
        assert_eq!(m.context(ContextId(0)).reg(regs::I), 5);
        // All accessed table lines are cached; unaccessed ones are not.
        for line in 0..layout.table_lines {
            let va = layout.table.offset(line * LINE_BYTES);
            let pa = aspace.translate(&m.hw().phys, va, false).unwrap().paddr;
            let cached = m.hw().hier.level_of(pa).is_some();
            assert_eq!(
                cached,
                secrets.contains(&line),
                "line {line} cached={cached}"
            );
        }
    }

    #[test]
    fn handle_pivot_table_all_on_distinct_pages() {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (_, l) = build(&mut phys, aspace, VAddr(0x60_0000), &[0, 1], 4);
        assert!(!l.handle.same_page(l.pivot));
        assert!(!l.handle.same_page(l.table));
        assert!(!l.pivot.same_page(l.table));
        assert!(!l.secrets.same_page(l.table));
    }

    #[test]
    #[should_panic(expected = "out of table range")]
    fn oversized_secret_rejected() {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let _ = build(&mut phys, aspace, VAddr(0x60_0000), &[9], 8);
    }
}
