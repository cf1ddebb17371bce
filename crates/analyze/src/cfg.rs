//! Control-flow graph construction and dominance analysis over
//! [`Program`]s.
//!
//! Blocks are maximal straight-line instruction runs. A virtual **exit**
//! block (with an empty pc range at `program.len()`) collects `Halt`
//! instructions and fall-off-the-end edges, so post-dominance is well
//! defined even for programs with several stopping points.

use microscope_cpu::{Inst, Program};

/// A basic block: the half-open pc range `[start, end)`.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// The pcs in this block.
    pub fn pcs(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }
}

/// The control-flow graph of one program, with dominator and
/// post-dominator sets.
#[derive(Clone, Debug)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    block_of: Vec<usize>,
    exit: usize,
    /// `u64` words per row of the bit matrices below.
    words: usize,
    /// Row `b` holds the blocks that dominate `b`.
    dom: Vec<u64>,
    /// Row `b` holds the blocks that post-dominate `b`.
    pdom: Vec<u64>,
}

impl Cfg {
    /// Builds the CFG (leaders from `Branch`/`Jmp`/`XBegin` targets and
    /// fall-throughs) and computes dominators/post-dominators by the
    /// classic iterative set fixpoint — programs here are a few thousand
    /// instructions at most.
    pub fn build(program: &Program) -> Cfg {
        let n = program.len();
        let mut leader = vec![false; n + 1];
        leader[n] = true; // virtual exit
        if n > 0 {
            leader[0] = true;
        }
        for (pc, inst) in program.iter().enumerate() {
            // `Program::new` keeps every target at most `n`.
            if let Some(t) = inst.control_target() {
                leader[t] = true;
            }
            // Any control transfer ends a block; the next pc starts one.
            if inst.control_target().is_some() || matches!(inst, Inst::Halt) {
                leader[pc + 1] = true;
            }
        }
        let starts: Vec<usize> = (0..=n).filter(|&i| leader[i]).collect();
        let mut blocks: Vec<BasicBlock> = starts
            .iter()
            .enumerate()
            .map(|(bi, &s)| BasicBlock {
                start: s,
                end: if bi + 1 < starts.len() {
                    starts[bi + 1]
                } else {
                    n
                },
                succs: Vec::new(),
                preds: Vec::new(),
            })
            .collect();
        let exit = blocks.len() - 1; // the block starting at `n`
        let mut block_of = vec![exit; n];
        for (bi, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(bi);
        }
        let block_at = |pc: usize| if pc >= n { exit } else { block_of[pc] };
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (bi, b) in blocks.iter().enumerate() {
            if b.start == b.end {
                continue; // virtual exit
            }
            let last = b.end - 1;
            let Some(inst) = program.fetch(last) else {
                continue;
            };
            let mut out: Vec<usize> = Vec::new();
            if inst.falls_through() {
                out.push(block_at(last + 1));
            }
            if let Some(t) = inst.control_target() {
                out.push(block_at(t));
            }
            if matches!(inst, Inst::Halt) {
                out.push(exit);
            }
            out.dedup();
            for s in out {
                edges.push((bi, s));
            }
        }
        for &(a, b) in &edges {
            if !blocks[a].succs.contains(&b) {
                blocks[a].succs.push(b);
            }
            if !blocks[b].preds.contains(&a) {
                blocks[b].preds.push(a);
            }
        }
        let nb = blocks.len();
        let words = nb.div_ceil(64);
        let dom = Self::dominators(0, words, (0..nb).collect(), |b| &blocks[b].preds);
        // Post-dominance flows backwards: sweeping blocks last to first
        // settles it in a pass or two instead of one pass per loop level.
        let pdom = Self::dominators(exit, words, (0..nb).rev().collect(), |b| &blocks[b].succs);
        Cfg {
            blocks,
            block_of,
            exit,
            words,
            dom,
            pdom,
        }
    }

    /// Iterative dominator fixpoint: `sets[root] = {root}`, everything else
    /// starts full and shrinks via `sets[b] = {b} ∪ ⋂ sets[inputs(b)]`,
    /// visiting blocks in `order` each pass. Passing predecessor edges
    /// yields dominators; successor edges (with the exit as root) yields
    /// post-dominators. Nodes that cannot reach the root keep full sets —
    /// a sound over-approximation for the control-dependence queries built
    /// on top. The sets form a row-major bit matrix of `words` words per
    /// row; any visiting order reaches the same (greatest) fixpoint.
    fn dominators<'a, F>(root: usize, words: usize, order: Vec<usize>, inputs: F) -> Vec<u64>
    where
        F: Fn(usize) -> &'a Vec<usize>,
    {
        let mut sets = vec![u64::MAX; order.len() * words];
        let row_of = |b: usize| b * words..(b + 1) * words;
        sets[row_of(root)].fill(0);
        sets[root * words + root / 64] = 1 << (root % 64);
        let mut row = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                if b == root {
                    continue;
                }
                row.fill(u64::MAX);
                for &p in inputs(b) {
                    for (w, &x) in row.iter_mut().zip(&sets[row_of(p)]) {
                        *w &= x;
                    }
                }
                row[b / 64] |= 1 << (b % 64);
                if sets[row_of(b)] != row[..] {
                    sets[row_of(b)].copy_from_slice(&row);
                    changed = true;
                }
            }
        }
        sets
    }

    fn bit(sets: &[u64], words: usize, row: usize, col: usize) -> bool {
        sets[row * words + col / 64] >> (col % 64) & 1 != 0
    }

    /// The basic blocks, entry first, virtual exit last.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// The virtual exit block's index.
    pub fn exit(&self) -> usize {
        self.exit
    }

    /// Whether block `a` dominates block `b` (every path from entry to `b`
    /// passes through `a`).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        Self::bit(&self.dom, self.words, b, a)
    }

    /// Whether block `a` post-dominates block `b` (every path from `b` to
    /// exit passes through `a`).
    pub fn post_dominates(&self, a: usize, b: usize) -> bool {
        Self::bit(&self.pdom, self.words, b, a)
    }

    /// The pcs control-dependent on the conditional branch at `branch_pc`:
    /// every pc in a block that post-dominates one successor of the
    /// branch's block but does not post-dominate the branch's block itself
    /// — the instructions whose *execution* (not data) reveals the branch
    /// condition.
    pub fn control_dependents(&self, branch_pc: usize) -> Vec<usize> {
        let b = self.block_of(branch_pc);
        let mut out = Vec::new();
        for (x, blk) in self.blocks.iter().enumerate() {
            if self.post_dominates(x, b) && x != b {
                continue;
            }
            if self.blocks[b]
                .succs
                .iter()
                .any(|&s| self.post_dominates(x, s))
            {
                out.extend(blk.pcs());
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{Assembler, Cond, Reg};
    use proptest::prelude::*;

    /// The classic `Vec<Vec<bool>>` set fixpoint, swept in block order:
    /// the oracle for the bit-matrix [`Cfg::dominators`].
    fn oracle_sets(root: usize, nb: usize, inputs: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<bool>> {
        let mut sets = vec![vec![true; nb]; nb];
        sets[root] = vec![false; nb];
        sets[root][root] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                if b == root {
                    continue;
                }
                let ins = inputs(b);
                let mut next = vec![ins.is_empty(); nb];
                if !ins.is_empty() {
                    for (i, slot) in next.iter_mut().enumerate() {
                        *slot = ins.iter().all(|&p| sets[p][i]);
                    }
                }
                next[b] = true;
                if next != sets[b] {
                    sets[b] = next;
                    changed = true;
                }
            }
        }
        sets
    }

    /// Control-heavy programs of up to 160 instructions (so some CFGs
    /// span more than one 64-bit word per matrix row) whose targets fold
    /// into `0..=len`, falling off the end included.
    fn arb_program() -> impl Strategy<Value = Program> {
        prop::collection::vec((0u8..8, 0usize..170), 1..160).prop_map(|spec| {
            let span = spec.len() + 1;
            let insts = spec.into_iter().map(|(kind, target)| match kind {
                0 | 1 => Inst::Branch {
                    cond: Cond::Eq,
                    a: Reg(1),
                    b: Reg(2),
                    target,
                },
                2 => Inst::Jmp { target },
                3 => Inst::XBegin {
                    abort_target: target,
                },
                4 => Inst::Halt,
                _ => Inst::Nop,
            });
            let insts = insts.map(|i| i.retargeted(|t| t % span));
            Program::new(insts.collect()).expect("registers, sizes and targets are in range")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Dominance, post-dominance and control dependence read off the
        /// bit matrices agree with the set-fixpoint oracle for every block
        /// pair and every pc.
        #[test]
        fn bit_matrix_dominance_matches_the_set_fixpoint(p in arb_program()) {
            let cfg = Cfg::build(&p);
            let blocks = cfg.blocks();
            let nb = blocks.len();
            let dom = oracle_sets(0, nb, |b| blocks[b].preds.clone());
            let pdom = oracle_sets(cfg.exit(), nb, |b| blocks[b].succs.clone());
            for a in 0..nb {
                for b in 0..nb {
                    prop_assert_eq!(cfg.dominates(a, b), dom[b][a], "dominates({}, {})", a, b);
                    prop_assert_eq!(
                        cfg.post_dominates(a, b),
                        pdom[b][a],
                        "post_dominates({}, {})",
                        a,
                        b
                    );
                }
            }
            for pc in 0..p.len() {
                let b = cfg.block_of(pc);
                let mut want = Vec::new();
                for (x, blk) in blocks.iter().enumerate() {
                    let on_all_paths = pdom[b][x] && x != b;
                    if !on_all_paths && blocks[b].succs.iter().any(|&s| pdom[s][x]) {
                        want.extend(blk.pcs());
                    }
                }
                want.sort_unstable();
                prop_assert_eq!(cfg.control_dependents(pc), want, "control_dependents({})", pc);
            }
        }
    }

    fn diamond() -> Program {
        // 0: imm r1
        // 1: branch r1==r1 -> 4
        // 2: imm r2        (fall side)
        // 3: jmp 5
        // 4: imm r3        (taken side)
        // 5: halt          (join)
        let mut asm = Assembler::new();
        let taken = asm.label();
        let join = asm.label();
        asm.imm(Reg(1), 0);
        asm.branch(Cond::Eq, Reg(1), Reg(1), taken);
        asm.imm(Reg(2), 1).jmp(join);
        asm.bind(taken);
        asm.imm(Reg(3), 2);
        asm.bind(join);
        asm.halt();
        asm.finish()
    }

    #[test]
    fn diamond_blocks_and_edges() {
        let p = diamond();
        let cfg = Cfg::build(&p);
        // entry[0,2), fall[2,4), taken[4,5), join[5,6), exit[6,6)
        assert_eq!(cfg.blocks().len(), 5);
        let entry = cfg.block_of(0);
        let fall = cfg.block_of(2);
        let taken = cfg.block_of(4);
        let join = cfg.block_of(5);
        assert_eq!(cfg.blocks()[entry].succs.len(), 2);
        assert_eq!(cfg.blocks()[fall].succs, vec![join]);
        assert_eq!(cfg.blocks()[taken].succs, vec![join]);
        assert_eq!(cfg.blocks()[join].succs, vec![cfg.exit()]);
    }

    #[test]
    fn dominance_in_the_diamond() {
        let p = diamond();
        let cfg = Cfg::build(&p);
        let entry = cfg.block_of(0);
        let fall = cfg.block_of(2);
        let taken = cfg.block_of(4);
        let join = cfg.block_of(5);
        assert!(cfg.dominates(entry, join));
        assert!(!cfg.dominates(fall, join), "two paths into the join");
        assert!(cfg.post_dominates(join, entry));
        assert!(!cfg.post_dominates(taken, entry));
    }

    #[test]
    fn control_dependents_of_the_branch_are_the_two_sides() {
        let p = diamond();
        let cfg = Cfg::build(&p);
        // Branch at pc 1; sides are pcs 2,3 (fall) and 4 (taken); the join
        // (pc 5) executes regardless, so it is *not* control-dependent.
        assert_eq!(cfg.control_dependents(1), vec![2, 3, 4]);
    }

    #[test]
    fn straight_line_program_is_one_block_plus_exit() {
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 1).imm(Reg(2), 2).halt();
        let cfg = Cfg::build(&asm.finish());
        assert_eq!(cfg.blocks().len(), 2);
        assert!(cfg.dominates(0, 0));
        assert!(cfg.post_dominates(cfg.exit(), 0));
        assert!(cfg.control_dependents(0).is_empty());
    }
}
