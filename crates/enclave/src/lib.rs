//! An SGX-style shielded-execution abstraction.
//!
//! MicroScope needs surprisingly little from the enclave layer (paper §2.3):
//! "the only requirement is that the OS handles page faults during enclave
//! execution". This crate models precisely the SGX behaviours the paper's
//! threat model references:
//!
//! * **Enclave memory region** ([`EnclaveRegion`]) — a contiguous virtual
//!   range whose contents the OS cannot read or tamper with. The simulator
//!   enforces the *information* boundary: faults inside the region are
//!   sanitized to page granularity before the OS sees them.
//! * **Asynchronous Enclave Exit (AEX)** — on a fault during enclave
//!   execution "the enclave signals an AEX and the OS receives the VPN of
//!   the faulting page" ([`Enclave::sanitize_fault`]); AEX events are
//!   counted, since defenses like T-SGX reason about AEX rates.
//! * **Attestation and run-once counters** (§3: the victim "can defend
//!   against the adversary replaying the entire enclave code by using a
//!   combination of secure channels and SGX attestation mechanisms" with
//!   non-volatile counters, citing ROTE) — [`RunOncePolicy`] rejects a
//!   second launch for the same input. MicroScope's whole point is that it
//!   replays *within* a single authorized launch, which this layer cannot
//!   prevent; the integration tests demonstrate exactly that asymmetry.
//!
//! ```
//! use microscope_enclave::{EnclaveRegion, RunOncePolicy};
//! use microscope_mem::VAddr;
//!
//! let mut policy = RunOncePolicy::new(0xfeed);
//! let permit = policy.authorize(42).unwrap();
//! assert_eq!(permit.input_id(), 42);
//! // A classic replay — relaunching on the same input — is refused:
//! assert!(policy.authorize(42).is_err());
//! let region = EnclaveRegion::new(VAddr(0x10_0000), 16);
//! assert!(region.contains(VAddr(0x10_0fff)));
//! ```

use microscope_cpu::Program;
use microscope_mem::{PageFault, VAddr, PAGE_BYTES};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A contiguous enclave virtual-memory region (the ELRANGE analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnclaveRegion {
    base: VAddr,
    pages: u64,
}

impl EnclaveRegion {
    /// A region of `pages` 4 KiB pages starting at the page containing
    /// `base`.
    pub fn new(base: VAddr, pages: u64) -> Self {
        EnclaveRegion {
            base: base.page_base(),
            pages,
        }
    }

    /// Base address (page aligned).
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// Size in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Whether `va` falls inside the region.
    pub fn contains(&self, va: VAddr) -> bool {
        va.0 >= self.base.0 && va.0 < self.base.0 + self.pages * PAGE_BYTES
    }
}

/// An enclave instance: its protected region, code measurement and AEX
/// accounting.
#[derive(Clone, Debug)]
pub struct Enclave {
    region: EnclaveRegion,
    measurement: u64,
    aex_count: u64,
}

impl Enclave {
    /// Creates an enclave for `program` over `region`, computing its
    /// measurement (an MRENCLAVE analogue — here a structural hash of the
    /// instruction stream).
    pub fn new(program: &Program, region: EnclaveRegion) -> Self {
        Enclave {
            region,
            measurement: measure(program),
            aex_count: 0,
        }
    }

    /// The protected region.
    pub fn region(&self) -> EnclaveRegion {
        self.region
    }

    /// The code measurement.
    pub fn measurement(&self) -> u64 {
        self.measurement
    }

    /// Number of asynchronous exits (faults during enclave execution).
    pub fn aex_count(&self) -> u64 {
        self.aex_count
    }

    /// SGX AEX semantics: when a fault hits the protected region, the OS
    /// learns only the faulting *page* — the page offset is zeroed. Faults
    /// outside the region (accesses to host memory) pass through unchanged.
    /// Every sanitized fault counts as one AEX.
    pub fn sanitize_fault(&mut self, fault: PageFault) -> PageFault {
        if self.region.contains(fault.vaddr) {
            self.aex_count += 1;
            PageFault {
                vaddr: fault.vaddr.page_base(),
                ..fault
            }
        } else {
            fault
        }
    }

    /// Produces an attestation quote binding the measurement to a launch
    /// counter value.
    pub fn quote(&self, counter: u64) -> Quote {
        Quote {
            measurement: self.measurement,
            counter,
        }
    }
}

/// An attestation quote (measurement + monotonic counter snapshot).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quote {
    /// Code measurement at launch.
    pub measurement: u64,
    /// Monotonic counter value bound into the quote.
    pub counter: u64,
}

/// Structural hash of a program (the measurement).
pub fn measure(program: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    for inst in program.iter() {
        inst.hash(&mut h);
    }
    h.finish()
}

/// Error returned when a launch would violate run-once semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayRejected {
    /// The input whose relaunch was refused.
    pub input_id: u64,
}

impl fmt::Display for ReplayRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "launch refused: input {} was already processed once",
            self.input_id
        )
    }
}

impl std::error::Error for ReplayRejected {}

/// A permit authorizing exactly one enclave run over one input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchPermit {
    input_id: u64,
    counter: u64,
}

impl LaunchPermit {
    /// The authorized input.
    pub fn input_id(&self) -> u64 {
        self.input_id
    }

    /// The monotonic counter value at authorization.
    pub fn counter(&self) -> u64 {
        self.counter
    }
}

/// The victim-side defense against *conventional* replay: a non-volatile
/// monotonic counter plus a record of processed inputs (the ROTE-style
/// rollback protection the paper's §3 grants the victim).
///
/// MicroScope never triggers this defense, because a microarchitectural
/// replay re-executes instructions inside one authorized launch.
#[derive(Clone, Debug)]
pub struct RunOncePolicy {
    counter: u64,
    seen: HashSet<u64>,
    seed: u64,
}

impl RunOncePolicy {
    /// Creates a policy; `seed` stands in for the sealed identity key.
    pub fn new(seed: u64) -> Self {
        RunOncePolicy {
            counter: 0,
            seen: HashSet::new(),
            seed,
        }
    }

    /// Current monotonic counter.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Authorizes one run for `input_id`, bumping the monotonic counter.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayRejected`] if this input was authorized before.
    pub fn authorize(&mut self, input_id: u64) -> Result<LaunchPermit, ReplayRejected> {
        if !self.seen.insert(input_id) {
            return Err(ReplayRejected { input_id });
        }
        self.counter += 1;
        Ok(LaunchPermit {
            input_id,
            counter: self.counter,
        })
    }

    /// Verifies that a quote corresponds to a permitted launch (counter
    /// matches, measurement non-zero).
    pub fn verify(&self, quote: &Quote, permit: &LaunchPermit) -> bool {
        quote.counter == permit.counter && quote.measurement != 0 && self.seed != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{Assembler, Reg};
    use microscope_mem::PageFaultKind;
    use microscope_mem::PtLevel;

    fn program(seed: u64) -> Program {
        let mut asm = Assembler::new();
        asm.imm(Reg(1), seed).halt();
        asm.finish()
    }

    #[test]
    fn region_contains_its_pages_only() {
        let r = EnclaveRegion::new(VAddr(0x5000), 2);
        assert!(r.contains(VAddr(0x5000)));
        assert!(r.contains(VAddr(0x6fff)));
        assert!(!r.contains(VAddr(0x7000)));
        assert!(!r.contains(VAddr(0x4fff)));
    }

    #[test]
    fn region_base_is_page_aligned() {
        let r = EnclaveRegion::new(VAddr(0x5123), 1);
        assert_eq!(r.base(), VAddr(0x5000));
    }

    #[test]
    fn measurement_distinguishes_programs() {
        let a = measure(&program(1));
        let b = measure(&program(2));
        let a2 = measure(&program(1));
        assert_eq!(a, a2, "measurement is deterministic");
        assert_ne!(a, b, "different code, different measurement");
    }

    #[test]
    fn aex_sanitizes_in_region_faults_to_page_granularity() {
        let region = EnclaveRegion::new(VAddr(0x10_0000), 4);
        let mut e = Enclave::new(&program(0), region);
        let fault = PageFault {
            vaddr: VAddr(0x10_0abc),
            kind: PageFaultKind::NotPresent {
                level: PtLevel::Pte,
            },
            is_write: false,
        };
        let seen = e.sanitize_fault(fault);
        assert_eq!(seen.vaddr, VAddr(0x10_0000), "offset hidden from the OS");
        assert_eq!(e.aex_count(), 1);
        // Outside the region: passes through untouched, no AEX.
        let outside = PageFault {
            vaddr: VAddr(0x50_0abc),
            ..fault
        };
        assert_eq!(e.sanitize_fault(outside).vaddr, VAddr(0x50_0abc));
        assert_eq!(e.aex_count(), 1);
    }

    #[test]
    fn run_once_policy_blocks_conventional_replay() {
        let mut p = RunOncePolicy::new(0x1234);
        let permit = p.authorize(7).unwrap();
        assert_eq!(p.counter(), 1);
        assert_eq!(p.authorize(7), Err(ReplayRejected { input_id: 7 }));
        // Distinct input: fine.
        let p2 = p.authorize(8).unwrap();
        assert_eq!(p2.counter(), 2);
        assert_eq!(permit.counter(), 1);
    }

    #[test]
    fn quotes_verify_against_their_permit() {
        let region = EnclaveRegion::new(VAddr(0), 1);
        let e = Enclave::new(&program(3), region);
        let mut policy = RunOncePolicy::new(9);
        let permit = policy.authorize(1).unwrap();
        let quote = e.quote(permit.counter());
        assert!(policy.verify(&quote, &permit));
        let stale = e.quote(permit.counter() + 1);
        assert!(!policy.verify(&stale, &permit));
    }

    #[test]
    fn replay_rejected_displays_input() {
        let s = ReplayRejected { input_id: 99 }.to_string();
        assert!(s.contains("99"));
    }
}
