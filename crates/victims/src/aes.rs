//! OpenSSL-0.9.8-style T-table AES (the paper's §4.4 victim).
//!
//! Three pieces:
//!
//! 1. a **reference implementation** (encryption and T-table decryption)
//!    validated against the FIPS-197 known-answer vectors;
//! 2. the **table/data layout**: `Td0..Td3` (256 × u32 = 16 cache lines
//!    each, exactly as the paper notes) and `rk` on *different pages* — the
//!    property that makes `rk` accesses usable as replay handles and `Td0`
//!    accesses as pivots;
//! 3. a **compiler** from the decryption rounds to the simulated ISA,
//!    producing the same memory-access structure as OpenSSL's
//!    `AES_decrypt` (Figure 8a).
//!
//! The reference implementation also produces the **ground-truth line
//! trace** — which 64-byte line of each table every table lookup touches —
//! against which the attack's extraction is scored (§6.2: "MicroScope
//! reliably extracts all the cache accesses performed during the
//! decryption").

use crate::layout::DataLayout;
use microscope_cpu::{AluOp, Assembler, Program, Reg};
use microscope_mem::{AddressSpace, PhysMem, VAddr, LINE_BYTES};

// ---------------------------------------------------------------------
// GF(2^8) arithmetic and S-boxes
// ---------------------------------------------------------------------

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (if x & 0x80 != 0 { 0x1b } else { 0 })
}

/// GF(2^8) multiplication (AES polynomial).
pub fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// The forward S-box, generated from the multiplicative inverse plus the
/// affine transform (no hardcoded table — the generator is itself tested
/// against FIPS-197 landmarks). Cached after the first call.
pub fn sbox() -> [u8; 256] {
    static SBOX: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    *SBOX.get_or_init(|| {
        // Multiplicative inverses via brute force (256×256 is trivial).
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut s = [0u8; 256];
        for (x, out) in s.iter_mut().enumerate() {
            let i = inv[x];
            *out = i
                ^ i.rotate_left(1)
                ^ i.rotate_left(2)
                ^ i.rotate_left(3)
                ^ i.rotate_left(4)
                ^ 0x63;
        }
        s
    })
}

/// The inverse S-box (cached).
pub fn inv_sbox() -> [u8; 256] {
    static ISBOX: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    *ISBOX.get_or_init(|| {
        let s = sbox();
        let mut si = [0u8; 256];
        for (x, v) in s.iter().enumerate() {
            si[*v as usize] = x as u8;
        }
        si
    })
}

// ---------------------------------------------------------------------
// T-tables
// ---------------------------------------------------------------------

/// The four decryption T-tables, `Td0..Td3`, in OpenSSL's layout:
/// `Td0[x] = [0e·Si[x], 09·Si[x], 0d·Si[x], 0b·Si[x]]` packed big-endian
/// into a u32, and `Td{n} = Td0 rotated right by 8·n bits`.
pub fn td_tables() -> [[u32; 256]; 4] {
    static TD: std::sync::OnceLock<[[u32; 256]; 4]> = std::sync::OnceLock::new();
    *TD.get_or_init(|| {
        let si = inv_sbox();
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = si[x];
            let w = (u32::from(gf_mul(s, 0x0e)) << 24)
                | (u32::from(gf_mul(s, 0x09)) << 16)
                | (u32::from(gf_mul(s, 0x0d)) << 8)
                | u32::from(gf_mul(s, 0x0b));
            td[0][x] = w;
            td[1][x] = w.rotate_right(8);
            td[2][x] = w.rotate_right(16);
            td[3][x] = w.rotate_right(24);
        }
        td
    })
}

/// The final-round table `Td4[x] = Si[x]` replicated into all four bytes
/// (as OpenSSL 0.9.8 does).
pub fn td4_table() -> [u32; 256] {
    let si = inv_sbox();
    let mut t = [0u32; 256];
    for (x, out) in t.iter_mut().enumerate() {
        let s = u32::from(si[x]);
        *out = s << 24 | s << 16 | s << 8 | s;
    }
    t
}

// ---------------------------------------------------------------------
// Key schedule
// ---------------------------------------------------------------------

/// Supported key sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Rounds for this key size (paper: "10, 12, and 14 rounds").
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    /// Key length in bytes.
    pub fn key_bytes(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    /// Key words (Nk).
    fn nk(self) -> usize {
        self.key_bytes() / 4
    }
}

/// Expands an encryption key schedule: `4 * (rounds + 1)` words.
///
/// # Panics
///
/// Panics if `key.len()` does not match `size`.
pub fn expand_key(key: &[u8], size: KeySize) -> Vec<u32> {
    assert_eq!(key.len(), size.key_bytes(), "key length mismatch");
    let s = sbox();
    let nk = size.nk();
    let nr = size.rounds();
    let total = 4 * (nr + 1);
    let mut w = Vec::with_capacity(total);
    for i in 0..nk {
        w.push(u32::from_be_bytes([
            key[4 * i],
            key[4 * i + 1],
            key[4 * i + 2],
            key[4 * i + 3],
        ]));
    }
    let mut rcon: u8 = 1;
    for i in nk..total {
        let mut t = w[i - 1];
        if i % nk == 0 {
            t = t.rotate_left(8);
            t = sub_word(t, &s) ^ (u32::from(rcon) << 24);
            rcon = xtime(rcon);
        } else if nk > 6 && i % nk == 4 {
            t = sub_word(t, &s);
        }
        w.push(w[i - nk] ^ t);
    }
    w
}

fn sub_word(w: u32, s: &[u8; 256]) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        s[b[0] as usize],
        s[b[1] as usize],
        s[b[2] as usize],
        s[b[3] as usize],
    ])
}

fn inv_mix_column(w: u32) -> u32 {
    let b = w.to_be_bytes();
    let mix = |c0: u8, c1: u8, c2: u8, c3: u8| {
        gf_mul(c0, 0x0e) ^ gf_mul(c1, 0x0b) ^ gf_mul(c2, 0x0d) ^ gf_mul(c3, 0x09)
    };
    u32::from_be_bytes([
        mix(b[0], b[1], b[2], b[3]),
        mix(b[1], b[2], b[3], b[0]),
        mix(b[2], b[3], b[0], b[1]),
        mix(b[3], b[0], b[1], b[2]),
    ])
}

/// Builds the *decryption* key schedule used by the T-table inverse cipher
/// (the equivalent-inverse-cipher transform OpenSSL's
/// `AES_set_decrypt_key` performs): round keys in reverse order with
/// `InvMixColumns` applied to the middle rounds.
pub fn decrypt_key_schedule(key: &[u8], size: KeySize) -> Vec<u32> {
    let enc = expand_key(key, size);
    let nr = size.rounds();
    let mut dec = vec![0u32; enc.len()];
    for r in 0..=nr {
        for c in 0..4 {
            dec[4 * r + c] = enc[4 * (nr - r) + c];
        }
    }
    for word in dec.iter_mut().take(4 * nr).skip(4) {
        *word = inv_mix_column(*word);
    }
    dec
}

// ---------------------------------------------------------------------
// Reference cipher
// ---------------------------------------------------------------------

/// Encrypts one 16-byte block (reference, for round-trip validation).
pub fn encrypt_block(key: &[u8], size: KeySize, block: &[u8; 16]) -> [u8; 16] {
    let s = sbox();
    let w = expand_key(key, size);
    let nr = size.rounds();
    let mut state = [[0u8; 4]; 4];
    for (i, b) in block.iter().enumerate() {
        state[i % 4][i / 4] = *b;
    }
    add_round_key(&mut state, &w[0..4]);
    for round in 1..nr {
        sub_bytes(&mut state, &s);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, &w[4 * round..4 * round + 4]);
    }
    sub_bytes(&mut state, &s);
    shift_rows(&mut state);
    add_round_key(&mut state, &w[4 * nr..4 * nr + 4]);
    let mut out = [0u8; 16];
    for (i, b) in out.iter_mut().enumerate() {
        *b = state[i % 4][i / 4];
    }
    out
}

fn add_round_key(state: &mut [[u8; 4]; 4], rk: &[u32]) {
    for (c, k) in rk.iter().enumerate() {
        let kb = k.to_be_bytes();
        for r in 0..4 {
            state[r][c] ^= kb[r];
        }
    }
}

fn sub_bytes(state: &mut [[u8; 4]; 4], s: &[u8; 256]) {
    for row in state.iter_mut() {
        for b in row.iter_mut() {
            *b = s[*b as usize];
        }
    }
}

fn shift_rows(state: &mut [[u8; 4]; 4]) {
    for (r, row) in state.iter_mut().enumerate() {
        row.rotate_left(r);
    }
}

fn mix_columns(state: &mut [[u8; 4]; 4]) {
    // Column-major access over a row-major state: indexing is the clear form.
    #[allow(clippy::needless_range_loop)]
    for c in 0..4 {
        let col = [state[0][c], state[1][c], state[2][c], state[3][c]];
        state[0][c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        state[1][c] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        state[2][c] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        state[3][c] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

/// One table lookup performed by the T-table decryption: which table, which
/// index — and therefore which cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableAccess {
    /// Table number: 0..=3 for `Td0..Td3`, 4 for `Td4`.
    pub table: u8,
    /// Index into the table (0..256).
    pub index: u8,
    /// The round the access happened in (1-based; `rounds()` = final).
    pub round: u8,
}

impl TableAccess {
    /// The 64-byte line within the table this access touches (u32 entries:
    /// 16 per line, so line = index / 16).
    pub fn line(&self) -> u8 {
        self.index / 16
    }
}

/// Decrypts one block with the T-table inverse cipher, returning the
/// plaintext and the exact sequence of table accesses (ground truth for
/// the attack).
pub fn decrypt_block_traced(
    key: &[u8],
    size: KeySize,
    block: &[u8; 16],
) -> ([u8; 16], Vec<TableAccess>) {
    let td = td_tables();
    let td4 = td4_table();
    let rk = decrypt_key_schedule(key, size);
    let nr = size.rounds();
    let mut trace = Vec::new();

    let word = |i: usize| {
        u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ])
    };
    let mut s = [
        word(0) ^ rk[0],
        word(1) ^ rk[1],
        word(2) ^ rk[2],
        word(3) ^ rk[3],
    ];
    // Index pattern of the inverse cipher: t[i] uses s[i], s[(i+3)%4],
    // s[(i+2)%4], s[(i+1)%4] for Td0..Td3 respectively.
    for round in 1..nr {
        let mut t = [0u32; 4];
        for i in 0..4 {
            let i0 = (s[i] >> 24) as u8;
            let i1 = (s[(i + 3) % 4] >> 16) as u8;
            let i2 = (s[(i + 2) % 4] >> 8) as u8;
            let i3 = s[(i + 1) % 4] as u8;
            for (tbl, idx) in [(0u8, i0), (1, i1), (2, i2), (3, i3)] {
                trace.push(TableAccess {
                    table: tbl,
                    index: idx,
                    round: round as u8,
                });
            }
            t[i] = td[0][i0 as usize]
                ^ td[1][i1 as usize]
                ^ td[2][i2 as usize]
                ^ td[3][i3 as usize]
                ^ rk[4 * round + i];
        }
        s = t;
    }
    // Final round: Td4 byte substitutions.
    let mut out_words = [0u32; 4];
    for i in 0..4 {
        let i0 = (s[i] >> 24) as u8;
        let i1 = (s[(i + 3) % 4] >> 16) as u8;
        let i2 = (s[(i + 2) % 4] >> 8) as u8;
        let i3 = s[(i + 1) % 4] as u8;
        for idx in [i0, i1, i2, i3] {
            trace.push(TableAccess {
                table: 4,
                index: idx,
                round: nr as u8,
            });
        }
        out_words[i] = (td4[i0 as usize] & 0xff00_0000)
            ^ (td4[i1 as usize] & 0x00ff_0000)
            ^ (td4[i2 as usize] & 0x0000_ff00)
            ^ (td4[i3 as usize] & 0x0000_00ff)
            ^ rk[4 * nr + i];
    }
    let mut out = [0u8; 16];
    for (i, w) in out_words.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
    }
    (out, trace)
}

/// Convenience: decrypt without the trace.
pub fn decrypt_block(key: &[u8], size: KeySize, block: &[u8; 16]) -> [u8; 16] {
    decrypt_block_traced(key, size, block).0
}

// ---------------------------------------------------------------------
// Victim layout + program compiler
// ---------------------------------------------------------------------

/// Where the AES victim's data landed.
#[derive(Clone, Copy, Debug)]
pub struct AesLayout {
    /// Base of the decryption round keys (`rk`, u32 entries) — the replay
    /// handle page.
    pub rk: VAddr,
    /// Bases of `Td0..Td3` (each on its own page; 16 lines of content).
    pub td: [VAddr; 4],
    /// Base of `Td4` (final round).
    pub td4: VAddr,
    /// The input block (4 big-endian words, stored as native u32).
    pub input: VAddr,
    /// The output block location.
    pub output: VAddr,
    /// Key size used.
    pub size: KeySize,
}

impl AesLayout {
    /// The 16 line addresses of table `t` (0..=3) — the probe set for the
    /// Figure 11 experiment.
    ///
    /// # Panics
    ///
    /// Panics if `t > 3`.
    pub fn table_lines(&self, t: usize) -> Vec<VAddr> {
        (0..16).map(|l| self.td[t].offset(l * LINE_BYTES)).collect()
    }

    /// All 64 line addresses of `Td0..Td3`.
    pub fn all_table_lines(&self) -> Vec<VAddr> {
        (0..4).flat_map(|t| self.table_lines(t)).collect()
    }
}

/// Registers used by the compiled decryption.
mod r {
    use microscope_cpu::Reg;
    pub const S: [Reg; 4] = [Reg(1), Reg(2), Reg(3), Reg(4)];
    pub const T: [Reg; 4] = [Reg(5), Reg(6), Reg(7), Reg(8)];
    pub const RK: Reg = Reg(9);
    pub const TD: [Reg; 4] = [Reg(10), Reg(11), Reg(12), Reg(13)];
    pub const TD4: Reg = Reg(14);
    pub const IN: Reg = Reg(15);
    pub const OUT: Reg = Reg(16);
    pub const IDX: Reg = Reg(17);
    pub const VAL: Reg = Reg(18);
    pub const ACC: Reg = Reg(19);
    pub const MASK: Reg = Reg(20);
}

/// Installs tables, round keys and the input block, and compiles the full
/// T-table decryption of one block to the simulated ISA.
///
/// The generated code has the paper's structure: every round performs 16
/// `Td` loads and 4 `rk` loads, with `rk` on its own page (replay handle)
/// and each `Td` table on its own page (`Td0` is the pivot).
pub fn build(
    phys: &mut PhysMem,
    aspace: AddressSpace,
    base: VAddr,
    key: &[u8],
    size: KeySize,
    block: &[u8; 16],
) -> (Program, AesLayout) {
    let td = td_tables();
    let td4 = td4_table();
    let rk = decrypt_key_schedule(key, size);
    let mut layout = DataLayout::new(phys, aspace, base);
    let rk_base = layout.array_u32(&rk);
    let td_bases = [
        layout.array_u32(&td[0]),
        layout.array_u32(&td[1]),
        layout.array_u32(&td[2]),
        layout.array_u32(&td[3]),
    ];
    let td4_base = layout.array_u32(&td4);
    let in_words: Vec<u32> = (0..4)
        .map(|i| {
            u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ])
        })
        .collect();
    let input = layout.array_u32(&in_words);
    let output = layout.page(16);

    let nr = size.rounds();
    let mut asm = Assembler::new();
    asm.imm(r::RK, rk_base.0)
        .imm(r::TD[0], td_bases[0].0)
        .imm(r::TD[1], td_bases[1].0)
        .imm(r::TD[2], td_bases[2].0)
        .imm(r::TD[3], td_bases[3].0)
        .imm(r::TD4, td4_base.0)
        .imm(r::IN, input.0)
        .imm(r::OUT, output.0)
        .imm(r::MASK, 0xff);
    // s[i] = GETU32(in + 4i) ^ rk[i]
    for i in 0..4 {
        asm.load_sized(r::S[i], r::IN, (4 * i) as i64, 4)
            .load_sized(r::VAL, r::RK, (4 * i) as i64, 4)
            .alu(AluOp::Xor, r::S[i], r::S[i], r::VAL);
    }
    // Emits: idx = (s >> shift) & 0xff; acc ^= table[idx]
    let lookup = |asm: &mut Assembler, table_reg: Reg, src: Reg, shift: u64, first: bool| {
        if shift == 0 {
            asm.alu(AluOp::And, r::IDX, src, r::MASK);
        } else {
            asm.alu_imm(AluOp::Shr, r::IDX, src, shift);
            if shift != 24 {
                asm.alu(AluOp::And, r::IDX, r::IDX, r::MASK);
            }
        }
        asm.alu_imm(AluOp::Shl, r::IDX, r::IDX, 2)
            .alu(AluOp::Add, r::IDX, r::IDX, table_reg)
            .load_sized(r::VAL, r::IDX, 0, 4);
        if first {
            asm.mov(r::ACC, r::VAL);
        } else {
            asm.alu(AluOp::Xor, r::ACC, r::ACC, r::VAL);
        }
    };
    for round in 1..nr {
        for i in 0..4 {
            lookup(&mut asm, r::TD[0], r::S[i], 24, true);
            lookup(&mut asm, r::TD[1], r::S[(i + 3) % 4], 16, false);
            lookup(&mut asm, r::TD[2], r::S[(i + 2) % 4], 8, false);
            lookup(&mut asm, r::TD[3], r::S[(i + 1) % 4], 0, false);
            // acc ^= rk[4*round + i]  — the rk access (replay handle page).
            asm.load_sized(r::VAL, r::RK, (4 * (4 * round + i)) as i64, 4)
                .alu(AluOp::Xor, r::T[i], r::ACC, r::VAL);
        }
        for i in 0..4 {
            asm.mov(r::S[i], r::T[i]);
        }
    }
    // Final round via Td4 with byte masks.
    let masks = [0xff00_0000u64, 0x00ff_0000, 0x0000_ff00, 0x0000_00ff];
    for i in 0..4 {
        let srcs = [
            r::S[i],
            r::S[(i + 3) % 4],
            r::S[(i + 2) % 4],
            r::S[(i + 1) % 4],
        ];
        let shifts = [24u64, 16, 8, 0];
        for (j, (src, shift)) in srcs.iter().zip(shifts).enumerate() {
            if shift == 0 {
                asm.alu(AluOp::And, r::IDX, *src, r::MASK);
            } else {
                asm.alu_imm(AluOp::Shr, r::IDX, *src, shift);
                if shift != 24 {
                    asm.alu(AluOp::And, r::IDX, r::IDX, r::MASK);
                }
            }
            asm.alu_imm(AluOp::Shl, r::IDX, r::IDX, 2)
                .alu(AluOp::Add, r::IDX, r::IDX, r::TD4)
                .load_sized(r::VAL, r::IDX, 0, 4);
            // Mask the byte this position contributes.
            asm.imm(r::T[1], masks[j]);
            asm.alu(AluOp::And, r::VAL, r::VAL, r::T[1]);
            if j == 0 {
                asm.mov(r::ACC, r::VAL);
            } else {
                asm.alu(AluOp::Xor, r::ACC, r::ACC, r::VAL);
            }
        }
        asm.load_sized(r::VAL, r::RK, (4 * (4 * nr + i)) as i64, 4)
            .alu(AluOp::Xor, r::ACC, r::ACC, r::VAL)
            .store_sized(r::ACC, r::OUT, (4 * i) as i64, 4);
    }
    asm.halt();

    (
        asm.finish(),
        AesLayout {
            rk: rk_base,
            td: td_bases,
            td4: td4_base,
            input,
            output,
            size,
        },
    )
}

/// Taint sources: the decryption round keys (`4·(rounds+1)` u32 words).
/// Every state word mixes in `rk`, so all `Td`/`Td4` lookup addresses are
/// key-dependent — the Figure 8/11 cache channel. The `rk` loads
/// themselves use constant addresses: they are handles, not transmitters.
pub fn secrets(layout: &AesLayout) -> crate::SecretMap {
    let words = 4 * (layout.size.rounds() as u64 + 1);
    crate::SecretMap::new().region(layout.rk, words * 4, "decryption round keys")
}

/// Reads the decrypted block back out of victim memory after a run.
///
/// # Panics
///
/// Panics if the output page is unmapped.
pub fn read_output(phys: &PhysMem, aspace: AddressSpace, layout: &AesLayout) -> [u8; 16] {
    let mut out = [0u8; 16];
    for i in 0..4u64 {
        let t = aspace
            .translate(phys, layout.output.offset(4 * i), false)
            .expect("output mapped");
        let w = phys.read_u32(t.paddr);
        out[(4 * i) as usize..(4 * i + 4) as usize].copy_from_slice(&w.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIPS_KEY_128: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ];
    const FIPS_PLAIN: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    const FIPS_CIPHER_128: [u8; 16] = [
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ];

    #[test]
    fn sbox_matches_fips_landmarks() {
        let s = sbox();
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7c);
        assert_eq!(s[0x53], 0xed);
        assert_eq!(s[0xff], 0x16);
        let si = inv_sbox();
        for x in 0..256 {
            assert_eq!(si[s[x] as usize], x as u8);
        }
    }

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1, "FIPS-197 §4.2 example");
        assert_eq!(gf_mul(0x57, 0x13), 0xfe, "FIPS-197 §4.2.1 example");
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    #[test]
    fn fips_197_encrypt_kat() {
        assert_eq!(
            encrypt_block(&FIPS_KEY_128, KeySize::Aes128, &FIPS_PLAIN),
            FIPS_CIPHER_128
        );
    }

    #[test]
    fn fips_197_decrypt_kat() {
        assert_eq!(
            decrypt_block(&FIPS_KEY_128, KeySize::Aes128, &FIPS_CIPHER_128),
            FIPS_PLAIN
        );
    }

    #[test]
    fn key_expansion_matches_fips_appendix_a() {
        // FIPS-197 A.1, key 2b7e151628aed2a6abf7158809cf4f3c:
        // w[4] = a0fafe17, w[43] = b6630ca6.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let w = expand_key(&key, KeySize::Aes128);
        assert_eq!(w[4], 0xa0fafe17);
        assert_eq!(w[9], 0x7a96b943);
        assert_eq!(w[10], 0x5935807a);
        assert_eq!(w[43], 0xb6630ca6);
    }

    #[test]
    fn round_trip_all_key_sizes() {
        for (size, klen) in [
            (KeySize::Aes128, 16),
            (KeySize::Aes192, 24),
            (KeySize::Aes256, 32),
        ] {
            let key: Vec<u8> = (0..klen as u8).collect();
            let block = *b"MicroScope test!";
            let ct = encrypt_block(&key, size, &block);
            let pt = decrypt_block(&key, size, &ct);
            assert_eq!(pt, block, "{size:?}");
        }
    }

    #[test]
    fn trace_counts_match_round_structure() {
        let (_, trace) = decrypt_block_traced(&FIPS_KEY_128, KeySize::Aes128, &FIPS_CIPHER_128);
        let nr = KeySize::Aes128.rounds();
        // 16 Td accesses per middle round, 16 Td4 accesses in the final.
        assert_eq!(trace.len(), 16 * (nr - 1) + 16);
        assert!(trace.iter().filter(|a| a.table == 4).count() == 16);
        for a in &trace {
            assert!(a.line() < 16);
        }
    }

    #[test]
    fn compiled_program_decrypts_correctly() {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (prog, layout) = build(
            &mut phys,
            aspace,
            VAddr(0x100_0000),
            &FIPS_KEY_128,
            KeySize::Aes128,
            &FIPS_CIPHER_128,
        );
        let mut m = microscope_cpu::MachineBuilder::new()
            .phys(phys)
            .context_in(prog, aspace)
            .build();
        let exit = m.run(10_000_000);
        assert_eq!(exit, microscope_cpu::RunExit::AllHalted);
        let out = read_output(&m.hw().phys, aspace, &layout);
        assert_eq!(out, FIPS_PLAIN, "compiled T-table AES must match FIPS");
    }

    #[test]
    fn compiled_program_decrypts_aes256() {
        let key: Vec<u8> = (0..32).collect();
        let block = *b"block for aes256";
        let ct = encrypt_block(&key, KeySize::Aes256, &block);
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (prog, layout) = build(
            &mut phys,
            aspace,
            VAddr(0x100_0000),
            &key,
            KeySize::Aes256,
            &ct,
        );
        let mut m = microscope_cpu::MachineBuilder::new()
            .phys(phys)
            .context_in(prog, aspace)
            .build();
        m.run(20_000_000);
        assert_eq!(read_output(&m.hw().phys, aspace, &layout), block);
    }

    #[test]
    fn layout_separates_rk_and_tables_by_page() {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (_, layout) = build(
            &mut phys,
            aspace,
            VAddr(0x100_0000),
            &FIPS_KEY_128,
            KeySize::Aes128,
            &FIPS_CIPHER_128,
        );
        for t in 0..4 {
            assert!(!layout.rk.same_page(layout.td[t]));
            for u in 0..4 {
                if t != u {
                    assert!(!layout.td[t].same_page(layout.td[u]));
                }
            }
        }
        assert_eq!(layout.table_lines(0).len(), 16);
        assert_eq!(layout.all_table_lines().len(), 64);
    }

    #[test]
    fn traced_lines_match_machine_cache_state() {
        // Ground truth vs. what a machine run actually caches.
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (prog, layout) = build(
            &mut phys,
            aspace,
            VAddr(0x100_0000),
            &FIPS_KEY_128,
            KeySize::Aes128,
            &FIPS_CIPHER_128,
        );
        let (_, trace) = decrypt_block_traced(&FIPS_KEY_128, KeySize::Aes128, &FIPS_CIPHER_128);
        let mut m = microscope_cpu::MachineBuilder::new()
            .phys(phys)
            .context_in(prog, aspace)
            .build();
        m.run(10_000_000);
        use std::collections::HashSet;
        let touched: HashSet<(u8, u8)> = trace
            .iter()
            .filter(|a| a.table < 4)
            .map(|a| (a.table, a.line()))
            .collect();
        for t in 0..4u8 {
            for line in 0..16u8 {
                let va = layout.td[t as usize].offset(u64::from(line) * LINE_BYTES);
                let pa = aspace.translate(&m.hw().phys, va, false).unwrap().paddr;
                let cached = m.hw().hier.level_of(pa).is_some();
                assert_eq!(
                    cached,
                    touched.contains(&(t, line)),
                    "Td{t} line {line}: cached={cached}"
                );
            }
        }
    }
}
