//! Secret-source annotations for the static analysis.
//!
//! A [`SecretMap`] declares, per victim, *where the secret enters the
//! program*: memory regions whose contents are sensitive (key tables,
//! branch conditions), registers that are secret from the first
//! instruction on (an exponent baked in as an immediate), and whether
//! hardware randomness counts as secret (the §7.2 integrity victim). The
//! taint analysis in `microscope-analyze` seeds its dataflow from exactly
//! these declarations — the victims know what their secrets are; the
//! analysis only knows how they propagate.

use microscope_cpu::Reg;
use microscope_mem::VAddr;

/// A byte range of victim-virtual memory holding secret data.
#[derive(Clone, Debug)]
pub struct SecretRegion {
    /// First secret byte.
    pub base: VAddr,
    /// Length in bytes.
    pub len: u64,
    /// Human-readable name ("round keys", "exponent bits", ...).
    pub label: String,
}

impl SecretRegion {
    /// Whether an access of `size` bytes at `addr` overlaps this region.
    pub fn overlaps(&self, addr: VAddr, size: u64) -> bool {
        addr.0 < self.base.0 + self.len && self.base.0 < addr.0 + size.max(1)
    }
}

/// Where a victim's secrets live: the taint-source declaration the static
/// analysis starts from.
#[derive(Clone, Debug, Default)]
pub struct SecretMap {
    regions: Vec<SecretRegion>,
    sticky_regs: Vec<(Reg, String)>,
    rdrand_is_secret: bool,
}

impl SecretMap {
    /// An empty map (nothing is secret).
    pub fn new() -> Self {
        SecretMap::default()
    }

    /// Declares `len` bytes at `base` secret.
    pub fn region(mut self, base: VAddr, len: u64, label: impl Into<String>) -> Self {
        self.regions.push(SecretRegion {
            base,
            len,
            label: label.into(),
        });
        self
    }

    /// Declares a register secret for the whole program — "sticky" because
    /// no write clears it (the modexp exponent is an immediate operand; its
    /// value, not its provenance, is the secret).
    pub fn sticky_reg(mut self, reg: Reg, label: impl Into<String>) -> Self {
        self.sticky_regs.push((reg, label.into()));
        self
    }

    /// Declares hardware random draws ([`RdRand`](microscope_cpu::Inst))
    /// secret — the value whose integrity the §7.2 biasing attack targets.
    pub fn rdrand(mut self) -> Self {
        self.rdrand_is_secret = true;
        self
    }

    /// The declared secret memory regions.
    pub fn regions(&self) -> &[SecretRegion] {
        &self.regions
    }

    /// The declared always-secret registers.
    pub fn sticky_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.sticky_regs.iter().map(|(r, _)| *r)
    }

    /// Whether hardware random draws are secret.
    pub fn rdrand_is_secret(&self) -> bool {
        self.rdrand_is_secret
    }

    /// Whether anything at all is declared secret.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() && self.sticky_regs.is_empty() && !self.rdrand_is_secret
    }

    /// One-line summary of the declared sources (for reports).
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = self
            .regions
            .iter()
            .map(|r| format!("{} @ {} (+{})", r.label, r.base, r.len))
            .collect();
        parts.extend(
            self.sticky_regs
                .iter()
                .map(|(r, l)| format!("{l} in {r} (sticky)")),
        );
        if self.rdrand_is_secret {
            parts.push("rdrand draws".to_string());
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(", ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_overlap_is_half_open() {
        let m = SecretMap::new().region(VAddr(0x1000), 16, "t");
        let r = &m.regions()[0];
        assert!(r.overlaps(VAddr(0x1000), 1));
        assert!(r.overlaps(VAddr(0x100f), 1));
        assert!(!r.overlaps(VAddr(0x1010), 8));
        assert!(r.overlaps(VAddr(0xff8), 16), "straddles the start");
        assert!(!r.overlaps(VAddr(0xff8), 8));
    }

    #[test]
    fn sticky_and_rdrand_flags() {
        let m = SecretMap::new().sticky_reg(Reg(4), "exp").rdrand();
        assert!(m.sticky_regs().eq([Reg(4)]));
        assert!(m.rdrand_is_secret());
        assert!(!m.is_empty());
        assert!(SecretMap::new().is_empty());
    }

    #[test]
    fn describe_lists_every_source() {
        let m = SecretMap::new()
            .region(VAddr(0x2000), 8, "operand")
            .sticky_reg(Reg(1), "exp");
        let d = m.describe();
        assert!(d.contains("operand") && d.contains("sticky"));
        assert_eq!(SecretMap::new().describe(), "none");
    }
}
