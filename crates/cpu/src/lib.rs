//! A cycle-level out-of-order, simultaneous-multithreading core model.
//!
//! This crate is the substrate the MicroScope attack actually runs on. The
//! paper (§2.2, §4.1) depends on five properties of modern cores, all of
//! which are modelled faithfully here:
//!
//! 1. **In-order retirement with precise exceptions** — a page-faulting load
//!    must reach the head of the reorder buffer before the fault is raised;
//!    younger instructions are then squashed and execution restarts at the
//!    faulting instruction. This restart is the *replay* in "replay attack".
//! 2. **Speculative execution during page walks** — a TLB miss queues a
//!    hardware walk and the frontend keeps fetching and executing younger
//!    instructions until the ROB fills. The walk latency (tunable by the OS
//!    through cache state) is the attacker's *speculation window*.
//! 3. **Persistent microarchitectural side effects** — squashes restore
//!    architectural state but leave cache/TLB fills and port-occupancy
//!    history behind.
//! 4. **Shared execution ports under SMT** — two hardware contexts issue
//!    into one set of ports; the floating-point divider is not pipelined,
//!    so a victim's `divsd` delays a monitor's `divsd` (the PortSmash-style
//!    channel of Figure 10).
//! 5. **Alternative replay handles (§7)** — transactional aborts (TSX) and
//!    branch mispredictions also roll execution back; both are modelled.
//!
//! The instruction set ([`Inst`]) is a small RISC-flavoured ISA that is
//! nevertheless rich enough to express the paper's victims: the
//! single-secret `getSecret` (Figure 5), the mul/div control-flow victim
//! (Figure 6), the timed-division monitor (Figure 7), and a full T-table
//! AES decryption (Figure 8).
//!
//! # Example
//!
//! ```
//! use microscope_cpu::{Assembler, MachineBuilder, NullSupervisor, Reg};
//!
//! let mut asm = Assembler::new();
//! let (a, b, c) = (Reg(1), Reg(2), Reg(3));
//! asm.imm(a, 6).imm(b, 7).mul(c, a, b).halt();
//!
//! let mut machine = MachineBuilder::new()
//!     .supervisor(Box::new(NullSupervisor))
//!     .context(asm.finish())
//!     .build();
//! machine.run(10_000);
//! assert_eq!(machine.context(0.into()).reg(c), 42);
//! ```

mod config;
mod context;
mod isa;
mod machine;
mod ports;
mod predictor;
mod program;
mod rob;
mod stats;
mod supervisor;

pub use config::{CoreConfig, DivLatency};
pub use context::{Context, ContextId};
pub use isa::{AluOp, Cond, FpOp, Inst, Reg};
pub use machine::{CheckpointStats, Machine, MachineBuilder, MachineCheckpoint, RunExit};
pub use ports::{PortKind, Ports};
pub use predictor::{BranchPredictor, PredictorConfig};
pub use program::{Assembler, Label, Program, ProgramError};
pub use rob::{RobEntry, RobState, SquashCause};
pub use stats::{ContextStats, MachineStats};
pub use supervisor::{
    FaultEvent, HonestSupervisor, HwParts, InterruptEvent, NullSupervisor, Supervisor,
    SupervisorAction,
};
