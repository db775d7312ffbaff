//! AArch64 (A64) instruction encoder.
//!
//! Emits 32-bit instruction words into a [`CodeBuffer`]. The subset covers
//! what the TPDE back-ends and snippet encoders need: integer ALU and
//! logical operations, multiply/divide, shifts, loads/stores (scaled and
//! unscaled), load/store pairs for the prologue, branches, compares,
//! conditional select, and scalar floating-point operations.
//!
//! Every instruction is committed as one whole little-endian word;
//! multi-instruction sequences (`mov_imm64`, `adr_sym`) are assembled in an
//! on-stack [`tpde_core::codebuf::InstBuf`] window and committed with a
//! single batched write. Branches to labels that are already bound
//! (back-edges) encode their displacement immediately; forward branches go
//! through the code buffer's fixup machinery.
//!
//! Registers are architectural numbers (`0..=30`; 31 is `xzr`/`wzr` or `sp`
//! depending on the instruction, as in the ISA).

use tpde_core::codebuf::{
    branch19_imm, branch26_imm, CodeBuffer, FixupKind, InstBuf, Label, Reloc, RelocKind,
    SectionKind, SymbolId,
};

/// The zero register / stack pointer number.
pub const ZR: u8 = 31;
/// The stack pointer number (same encoding slot as `ZR`).
pub const SP: u8 = 31;
/// Frame pointer.
pub const FP: u8 = 29;
/// Link register.
pub const LR: u8 = 30;

/// AArch64 condition codes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Cond {
    Eq = 0,
    Ne = 1,
    Hs = 2,
    Lo = 3,
    Mi = 4,
    Pl = 5,
    Vs = 6,
    Vc = 7,
    Hi = 8,
    Ls = 9,
    Ge = 10,
    Lt = 11,
    Gt = 12,
    Le = 13,
    Al = 14,
}

impl Cond {
    /// The inverted condition.
    #[inline]
    pub fn invert(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Hs => Cond::Lo,
            Cond::Lo => Cond::Hs,
            Cond::Mi => Cond::Pl,
            Cond::Pl => Cond::Mi,
            Cond::Vs => Cond::Vc,
            Cond::Vc => Cond::Vs,
            Cond::Hi => Cond::Ls,
            Cond::Ls => Cond::Hi,
            Cond::Ge => Cond::Lt,
            Cond::Lt => Cond::Ge,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Al => Cond::Al,
        }
    }
}

#[inline]
fn emit(buf: &mut CodeBuffer, word: u32) {
    buf.emit_u32(word);
}

#[inline]
fn sf(is64: bool) -> u32 {
    if is64 {
        1 << 31
    } else {
        0
    }
}

// --- moves and constants ----------------------------------------------------------

/// `mov rd, rm` (register move via `orr rd, zr, rm`).
#[inline]
pub fn mov_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x2A00_03E0 | ((rm as u32) << 16) | rd as u32,
    );
}

/// `mov rd, sp` / `mov sp, rd` (uses `add rd, rn, #0` which allows SP).
#[inline]
pub fn mov_sp(buf: &mut CodeBuffer, rd: u8, rn: u8) {
    add_imm(buf, true, rd, rn, 0);
}

#[inline]
pub(crate) fn movz_word(is64: bool, rd: u8, imm16: u16, hw: u8) -> u32 {
    debug_assert!(is64 || hw < 2, "32-bit movz shifted by {}", 16 * hw);
    sf(is64) | 0x5280_0000 | ((hw as u32) << 21) | ((imm16 as u32) << 5) | rd as u32
}

#[inline]
fn movk_word(is64: bool, rd: u8, imm16: u16, hw: u8) -> u32 {
    debug_assert!(is64 || hw < 2, "32-bit movk shifted by {}", 16 * hw);
    sf(is64) | 0x7280_0000 | ((hw as u32) << 21) | ((imm16 as u32) << 5) | rd as u32
}

/// `movz rd, #imm16, lsl #(hw*16)`.
#[inline]
pub fn movz(buf: &mut CodeBuffer, is64: bool, rd: u8, imm16: u16, hw: u8) {
    emit(buf, movz_word(is64, rd, imm16, hw));
}

/// `movk rd, #imm16, lsl #(hw*16)`.
#[inline]
pub fn movk(buf: &mut CodeBuffer, is64: bool, rd: u8, imm16: u16, hw: u8) {
    emit(buf, movk_word(is64, rd, imm16, hw));
}

/// `movn rd, #imm16, lsl #(hw*16)`.
#[inline]
pub fn movn(buf: &mut CodeBuffer, is64: bool, rd: u8, imm16: u16, hw: u8) {
    debug_assert!(is64 || hw < 2, "32-bit movn shifted by {}", 16 * hw);
    emit(
        buf,
        sf(is64) | 0x1280_0000 | ((hw as u32) << 21) | ((imm16 as u32) << 5) | rd as u32,
    );
}

/// Materializes an arbitrary 64-bit constant using `movz`/`movk` (1–4
/// instructions), committed as one batched write.
#[inline]
pub fn mov_imm64(buf: &mut CodeBuffer, rd: u8, value: u64) {
    if value == 0 {
        movz(buf, true, rd, 0, 0);
        return;
    }
    let mut seq = InstBuf::new();
    let mut first = true;
    for hw in 0..4u8 {
        let chunk = ((value >> (hw * 16)) & 0xffff) as u16;
        if chunk != 0 || (hw == 3 && first) {
            if first {
                seq.push_u32(movz_word(true, rd, chunk, hw));
                first = false;
            } else {
                seq.push_u32(movk_word(true, rd, chunk, hw));
            }
        }
    }
    if first {
        seq.push_u32(movz_word(true, rd, 0, 0));
    }
    buf.emit_inst(seq);
}

// --- integer arithmetic --------------------------------------------------------------

/// `add rd, rn, rm`.
#[inline]
pub fn add_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x0B00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `sub rd, rn, rm`.
#[inline]
pub fn sub_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x4B00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `subs rd, rn, rm` (also `cmp` when `rd == zr`).
#[inline]
pub fn subs_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x6B00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `adds rd, rn, rm`.
#[inline]
pub fn adds_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x2B00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `cmp rn, rm`.
#[inline]
pub fn cmp_rr(buf: &mut CodeBuffer, is64: bool, rn: u8, rm: u8) {
    subs_rr(buf, is64, ZR, rn, rm);
}

/// `add rd, rn, #imm12` (also valid for SP operands).
#[inline]
pub fn add_imm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, imm12: u32) {
    debug_assert!(imm12 < 4096);
    emit(
        buf,
        sf(is64) | 0x1100_0000 | (imm12 << 10) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `sub rd, rn, #imm12`.
#[inline]
pub fn sub_imm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, imm12: u32) {
    debug_assert!(imm12 < 4096);
    emit(
        buf,
        sf(is64) | 0x5100_0000 | (imm12 << 10) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `sub sp, sp, rm` (extended-register form, usable with SP operands).
#[inline]
pub fn sub_sp_reg(buf: &mut CodeBuffer, rm: u8) {
    emit(buf, 0xCB20_63FF | ((rm as u32) << 16));
}

/// `add sp, sp, rm` (extended-register form, usable with SP operands).
#[inline]
pub fn add_sp_reg(buf: &mut CodeBuffer, rm: u8) {
    emit(buf, 0x8B20_63FF | ((rm as u32) << 16));
}

/// `subs zr, rn, #imm12` (`cmp rn, #imm`).
#[inline]
pub fn cmp_imm(buf: &mut CodeBuffer, is64: bool, rn: u8, imm12: u32) {
    debug_assert!(imm12 < 4096);
    emit(
        buf,
        sf(is64) | 0x7100_0000 | (imm12 << 10) | ((rn as u32) << 5) | ZR as u32,
    );
}

/// `and rd, rn, rm`.
#[inline]
pub fn and_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x0A00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `orr rd, rn, rm`.
#[inline]
pub fn orr_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x2A00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `eor rd, rn, rm`.
#[inline]
pub fn eor_rr(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x4A00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `ands zr, rn, rm` (`tst rn, rm`).
#[inline]
pub fn tst_rr(buf: &mut CodeBuffer, is64: bool, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x6A00_0000 | ((rm as u32) << 16) | ((rn as u32) << 5) | ZR as u32,
    );
}

/// `madd rd, rn, rm, ra` (`rd = ra + rn*rm`); `mul` when `ra == zr`.
#[inline]
pub fn madd(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8, ra: u8) {
    emit(
        buf,
        sf(is64)
            | 0x1B00_0000
            | ((rm as u32) << 16)
            | ((ra as u32) << 10)
            | ((rn as u32) << 5)
            | rd as u32,
    );
}

/// `msub rd, rn, rm, ra` (`rd = ra - rn*rm`); used for remainders.
#[inline]
pub fn msub(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8, ra: u8) {
    emit(
        buf,
        sf(is64)
            | 0x1B00_8000
            | ((rm as u32) << 16)
            | ((ra as u32) << 10)
            | ((rn as u32) << 5)
            | rd as u32,
    );
}

/// `mul rd, rn, rm`.
#[inline]
pub fn mul(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    madd(buf, is64, rd, rn, rm, ZR);
}

/// `sdiv rd, rn, rm`.
#[inline]
pub fn sdiv(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x1AC0_0C00 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `udiv rd, rn, rm`.
#[inline]
pub fn udiv(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8) {
    emit(
        buf,
        sf(is64) | 0x1AC0_0800 | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// Variable shifts: `lslv`, `lsrv`, `asrv`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ShiftOp {
    Lsl,
    Lsr,
    Asr,
}

/// `lslv/lsrv/asrv rd, rn, rm`.
#[inline]
pub fn shift_rr(buf: &mut CodeBuffer, is64: bool, op: ShiftOp, rd: u8, rn: u8, rm: u8) {
    let opc = match op {
        ShiftOp::Lsl => 0x2000,
        ShiftOp::Lsr => 0x2400,
        ShiftOp::Asr => 0x2800,
    };
    emit(
        buf,
        sf(is64) | 0x1AC0_0000 | opc | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `ubfm rd, rn, #immr, #imms` (64-bit uses N=1).
#[inline]
pub fn ubfm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, immr: u8, imms: u8) {
    let n = if is64 { 1 << 22 } else { 0 };
    emit(
        buf,
        sf(is64)
            | 0x5300_0000
            | n
            | ((immr as u32) << 16)
            | ((imms as u32) << 10)
            | ((rn as u32) << 5)
            | rd as u32,
    );
}

/// `sbfm rd, rn, #immr, #imms`.
#[inline]
pub fn sbfm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, immr: u8, imms: u8) {
    let n = if is64 { 1 << 22 } else { 0 };
    emit(
        buf,
        sf(is64)
            | 0x1300_0000
            | n
            | ((immr as u32) << 16)
            | ((imms as u32) << 10)
            | ((rn as u32) << 5)
            | rd as u32,
    );
}

/// `lsl rd, rn, #shift` (immediate form, via `ubfm`).
#[inline]
pub fn lsl_imm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, shift: u8) {
    let bits = if is64 { 64u8 } else { 32 };
    ubfm(buf, is64, rd, rn, (bits - shift) % bits, bits - 1 - shift);
}

/// `lsr rd, rn, #shift` (immediate form).
#[inline]
pub fn lsr_imm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, shift: u8) {
    let bits = if is64 { 63u8 } else { 31 };
    ubfm(buf, is64, rd, rn, shift, bits);
}

/// `asr rd, rn, #shift` (immediate form).
#[inline]
pub fn asr_imm(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, shift: u8) {
    let bits = if is64 { 63u8 } else { 31 };
    sbfm(buf, is64, rd, rn, shift, bits);
}

/// Sign-extend byte/halfword/word to 64 bits.
#[inline]
pub fn sxt(buf: &mut CodeBuffer, from_size: u32, rd: u8, rn: u8) {
    match from_size {
        1 => sbfm(buf, true, rd, rn, 0, 7),
        2 => sbfm(buf, true, rd, rn, 0, 15),
        4 => sbfm(buf, true, rd, rn, 0, 31),
        _ => mov_rr(buf, true, rd, rn),
    }
}

/// Zero-extend byte/halfword to 32 bits (words are zero-extended implicitly).
#[inline]
pub fn uxt(buf: &mut CodeBuffer, from_size: u32, rd: u8, rn: u8) {
    match from_size {
        1 => ubfm(buf, false, rd, rn, 0, 7),
        2 => ubfm(buf, false, rd, rn, 0, 15),
        _ => mov_rr(buf, false, rd, rn),
    }
}

/// `csel rd, rn, rm, cond`.
#[inline]
pub fn csel(buf: &mut CodeBuffer, is64: bool, rd: u8, rn: u8, rm: u8, cond: Cond) {
    emit(
        buf,
        sf(is64)
            | 0x1A80_0000
            | ((rm as u32) << 16)
            | ((cond as u32) << 12)
            | ((rn as u32) << 5)
            | rd as u32,
    );
}

/// `cset rd, cond` (via `csinc rd, zr, zr, !cond`).
#[inline]
pub fn cset(buf: &mut CodeBuffer, is64: bool, rd: u8, cond: Cond) {
    let inv = cond.invert();
    emit(
        buf,
        sf(is64)
            | 0x1A80_0400
            | ((ZR as u32) << 16)
            | ((inv as u32) << 12)
            | ((ZR as u32) << 5)
            | rd as u32,
    );
}

// --- loads & stores ---------------------------------------------------------------------

#[inline]
fn ldst_size_bits(size: u32) -> (u32, u32) {
    // returns (size field, scale)
    match size {
        1 => (0, 0),
        2 => (1, 1),
        4 => (2, 2),
        _ => (3, 3),
    }
}

/// Integer load from `[rn + offset]`. Picks the scaled unsigned-offset form
/// when possible, otherwise the unscaled (`ldur`) form; large offsets are
/// not supported directly (callers materialize the address).
#[inline]
pub fn ldr(buf: &mut CodeBuffer, size: u32, rt: u8, rn: u8, offset: i32) {
    let (sz, scale) = ldst_size_bits(size);
    let base = (sz << 30) | 0x3940_0000;
    if offset >= 0 && (offset as u32).is_multiple_of(1 << scale) && (offset as u32 >> scale) < 4096
    {
        emit(
            buf,
            base | (((offset as u32) >> scale) << 10) | ((rn as u32) << 5) | rt as u32,
        );
    } else {
        debug_assert!((-256..256).contains(&offset), "ldur offset out of range");
        let imm9 = (offset as u32) & 0x1ff;
        emit(
            buf,
            (sz << 30) | 0x3840_0000 | (imm9 << 12) | ((rn as u32) << 5) | rt as u32,
        );
    }
}

/// Integer store to `[rn + offset]`.
#[inline]
pub fn str(buf: &mut CodeBuffer, size: u32, rt: u8, rn: u8, offset: i32) {
    let (sz, scale) = ldst_size_bits(size);
    let base = (sz << 30) | 0x3900_0000;
    if offset >= 0 && (offset as u32).is_multiple_of(1 << scale) && (offset as u32 >> scale) < 4096
    {
        emit(
            buf,
            base | (((offset as u32) >> scale) << 10) | ((rn as u32) << 5) | rt as u32,
        );
    } else {
        debug_assert!((-256..256).contains(&offset), "stur offset out of range");
        let imm9 = (offset as u32) & 0x1ff;
        emit(
            buf,
            (sz << 30) | 0x3800_0000 | (imm9 << 12) | ((rn as u32) << 5) | rt as u32,
        );
    }
}

/// FP/SIMD load from `[rn + offset]` (4 or 8 bytes).
#[inline]
pub fn ldr_fp(buf: &mut CodeBuffer, size: u32, rt: u8, rn: u8, offset: i32) {
    let (sz, scale) = ldst_size_bits(size);
    if offset >= 0 && (offset as u32).is_multiple_of(1 << scale) && (offset as u32 >> scale) < 4096
    {
        emit(
            buf,
            (sz << 30)
                | 0x3D40_0000
                | (((offset as u32) >> scale) << 10)
                | ((rn as u32) << 5)
                | rt as u32,
        );
    } else {
        let imm9 = (offset as u32) & 0x1ff;
        emit(
            buf,
            (sz << 30) | 0x3C40_0000 | (imm9 << 12) | ((rn as u32) << 5) | rt as u32,
        );
    }
}

/// FP/SIMD store to `[rn + offset]`.
#[inline]
pub fn str_fp(buf: &mut CodeBuffer, size: u32, rt: u8, rn: u8, offset: i32) {
    let (sz, scale) = ldst_size_bits(size);
    if offset >= 0 && (offset as u32).is_multiple_of(1 << scale) && (offset as u32 >> scale) < 4096
    {
        emit(
            buf,
            (sz << 30)
                | 0x3D00_0000
                | (((offset as u32) >> scale) << 10)
                | ((rn as u32) << 5)
                | rt as u32,
        );
    } else {
        let imm9 = (offset as u32) & 0x1ff;
        emit(
            buf,
            (sz << 30) | 0x3C00_0000 | (imm9 << 12) | ((rn as u32) << 5) | rt as u32,
        );
    }
}

/// Sign-extending load (8/16/32 bits into a 64-bit register).
#[inline]
pub fn ldrs(buf: &mut CodeBuffer, from_size: u32, rt: u8, rn: u8, offset: i32) {
    let (sz, scale) = ldst_size_bits(from_size);
    debug_assert!(from_size <= 4);
    // opc = 10 (sign-extend to 64 bit)
    let base = (sz << 30) | 0x3980_0000;
    if offset >= 0 && (offset as u32).is_multiple_of(1 << scale) && (offset as u32 >> scale) < 4096
    {
        emit(
            buf,
            base | (((offset as u32) >> scale) << 10) | ((rn as u32) << 5) | rt as u32,
        );
    } else {
        let imm9 = (offset as u32) & 0x1ff;
        emit(
            buf,
            (sz << 30) | 0x3880_0000 | (imm9 << 12) | ((rn as u32) << 5) | rt as u32,
        );
    }
}

/// `stp rt, rt2, [rn, #offset]!` (pre-index).
#[inline]
pub fn stp_pre(buf: &mut CodeBuffer, rt: u8, rt2: u8, rn: u8, offset: i32) {
    let imm7 = ((offset / 8) as u32) & 0x7f;
    emit(
        buf,
        0xA980_0000 | (imm7 << 15) | ((rt2 as u32) << 10) | ((rn as u32) << 5) | rt as u32,
    );
}

/// `ldp rt, rt2, [rn], #offset` (post-index).
#[inline]
pub fn ldp_post(buf: &mut CodeBuffer, rt: u8, rt2: u8, rn: u8, offset: i32) {
    let imm7 = ((offset / 8) as u32) & 0x7f;
    emit(
        buf,
        0xA8C0_0000 | (imm7 << 15) | ((rt2 as u32) << 10) | ((rn as u32) << 5) | rt as u32,
    );
}

/// `stp rt, rt2, [rn, #offset]` (signed offset, no writeback).
#[inline]
pub fn stp(buf: &mut CodeBuffer, rt: u8, rt2: u8, rn: u8, offset: i32) {
    let imm7 = ((offset / 8) as u32) & 0x7f;
    emit(
        buf,
        0xA900_0000 | (imm7 << 15) | ((rt2 as u32) << 10) | ((rn as u32) << 5) | rt as u32,
    );
}

/// `ldp rt, rt2, [rn, #offset]` (signed offset, no writeback).
#[inline]
pub fn ldp(buf: &mut CodeBuffer, rt: u8, rt2: u8, rn: u8, offset: i32) {
    let imm7 = ((offset / 8) as u32) & 0x7f;
    emit(
        buf,
        0xA940_0000 | (imm7 << 15) | ((rt2 as u32) << 10) | ((rn as u32) << 5) | rt as u32,
    );
}

// --- branches ------------------------------------------------------------------------------

/// `b label`. Back-edges (bound labels) encode their displacement
/// immediately; forward references record a fixup.
#[inline]
pub fn b_label(buf: &mut CodeBuffer, label: Label) {
    let off = buf.text_offset();
    if let Some(target) = buf.label_offset(label) {
        if let Ok(imm) = branch26_imm(off, target) {
            emit(buf, 0x1400_0000 | imm);
            return;
        }
    }
    emit(buf, 0x1400_0000);
    buf.add_fixup(off, label, FixupKind::A64Branch26);
}

/// Commits a branch19-class instruction word: immediate encoding for bound
/// labels whose displacement fits, fixup otherwise.
#[inline]
fn emit_branch19(buf: &mut CodeBuffer, word: u32, label: Label) {
    let off = buf.text_offset();
    if let Some(target) = buf.label_offset(label) {
        if let Ok(imm) = branch19_imm(off, target) {
            emit(buf, word | (imm << 5));
            return;
        }
    }
    emit(buf, word);
    buf.add_fixup(off, label, FixupKind::A64Branch19);
}

/// `b.cond label`.
#[inline]
pub fn bcond_label(buf: &mut CodeBuffer, cond: Cond, label: Label) {
    emit_branch19(buf, 0x5400_0000 | cond as u32, label);
}

/// `cbz rt, label` / `cbnz rt, label`.
#[inline]
pub fn cbz_label(buf: &mut CodeBuffer, is64: bool, nonzero: bool, rt: u8, label: Label) {
    let op = if nonzero { 0x3500_0000 } else { 0x3400_0000 };
    emit_branch19(buf, sf(is64) | op | rt as u32, label);
}

/// `bl sym` (with a CALL26 relocation).
#[inline]
pub fn bl_sym(buf: &mut CodeBuffer, sym: SymbolId) {
    let off = buf.text_offset();
    emit(buf, 0x9400_0000);
    buf.add_reloc(Reloc {
        section: SectionKind::Text,
        offset: off,
        symbol: sym,
        kind: RelocKind::Call26,
        addend: 0,
    });
}

/// `blr rn` (indirect call).
#[inline]
pub fn blr(buf: &mut CodeBuffer, rn: u8) {
    emit(buf, 0xD63F_0000 | ((rn as u32) << 5));
}

/// `br rn` (indirect branch).
#[inline]
pub fn br(buf: &mut CodeBuffer, rn: u8) {
    emit(buf, 0xD61F_0000 | ((rn as u32) << 5));
}

/// `ret`.
#[inline]
pub fn ret(buf: &mut CodeBuffer) {
    emit(buf, 0xD65F_03C0);
}

/// `nop`.
#[inline]
pub fn nop(buf: &mut CodeBuffer) {
    emit(buf, 0xD503_201F);
}

/// Loads the 64-bit absolute address of a symbol using a `movz`/`movk`
/// sequence patched via an `Abs64` relocation stored in a literal-free way:
/// we emit `adrp`+`add` instead, which is the conventional approach.
#[inline]
pub fn adr_sym(buf: &mut CodeBuffer, rd: u8, sym: SymbolId) {
    let off = buf.text_offset();
    let mut seq = InstBuf::new();
    seq.push_u32(0x9000_0000 | rd as u32); // adrp rd, sym
    seq.push_u32(0x9100_0000 | ((rd as u32) << 5) | rd as u32); // add rd, rd, #lo12
    buf.emit_inst(seq);
    buf.add_reloc(Reloc {
        section: SectionKind::Text,
        offset: off,
        symbol: sym,
        kind: RelocKind::AdrpPage,
        addend: 0,
    });
    buf.add_reloc(Reloc {
        section: SectionKind::Text,
        offset: off + 4,
        symbol: sym,
        kind: RelocKind::AddLo12,
        addend: 0,
    });
}

// --- scalar floating point ----------------------------------------------------------------

#[inline]
fn fp_type(size: u32) -> u32 {
    if size == 4 {
        0
    } else {
        1 << 22
    }
}

/// `fmov fd, fn` (register move).
#[inline]
pub fn fmov_rr(buf: &mut CodeBuffer, size: u32, rd: u8, rn: u8) {
    emit(
        buf,
        0x1E20_4000 | fp_type(size) | ((rn as u32) << 5) | rd as u32,
    );
}

/// Scalar FP arithmetic: `fadd`, `fsub`, `fmul`, `fdiv`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum FpOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// `fadd/fsub/fmul/fdiv fd, fn, fm`.
#[inline]
pub fn fp_arith(buf: &mut CodeBuffer, size: u32, op: FpOp, rd: u8, rn: u8, rm: u8) {
    let opc = match op {
        FpOp::Add => 0x2800,
        FpOp::Sub => 0x3800,
        FpOp::Mul => 0x0800,
        FpOp::Div => 0x1800,
    };
    emit(
        buf,
        0x1E20_0000 | fp_type(size) | opc | ((rm as u32) << 16) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `fneg fd, fn`.
#[inline]
pub fn fneg(buf: &mut CodeBuffer, size: u32, rd: u8, rn: u8) {
    emit(
        buf,
        0x1E21_4000 | fp_type(size) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `fcmp fn, fm`.
#[inline]
pub fn fcmp(buf: &mut CodeBuffer, size: u32, rn: u8, rm: u8) {
    emit(
        buf,
        0x1E20_2000 | fp_type(size) | ((rm as u32) << 16) | ((rn as u32) << 5),
    );
}

/// `scvtf fd, rn` (signed integer to FP; `int64` selects the source width).
#[inline]
pub fn scvtf(buf: &mut CodeBuffer, fp_size: u32, int64: bool, rd: u8, rn: u8) {
    emit(
        buf,
        sf(int64) | 0x1E22_0000 | fp_type(fp_size) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `ucvtf fd, rn` (unsigned integer to FP).
#[inline]
pub fn ucvtf(buf: &mut CodeBuffer, fp_size: u32, int64: bool, rd: u8, rn: u8) {
    emit(
        buf,
        sf(int64) | 0x1E23_0000 | fp_type(fp_size) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `fcvtzs rd, fn` (FP to signed integer, truncating).
#[inline]
pub fn fcvtzs(buf: &mut CodeBuffer, fp_size: u32, int64: bool, rd: u8, rn: u8) {
    emit(
        buf,
        sf(int64) | 0x1E38_0000 | fp_type(fp_size) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `fcvt` between single and double precision (`to_size` 4 or 8).
#[inline]
pub fn fcvt(buf: &mut CodeBuffer, to_size: u32, rd: u8, rn: u8) {
    let (ty, opc) = if to_size == 8 {
        (0u32, 1u32) // from single to double
    } else {
        (1 << 22, 0) // from double to single
    };
    emit(
        buf,
        0x1E22_4000 | ty | (opc << 15) | ((rn as u32) << 5) | rd as u32,
    );
}

/// `fmov xd, dn` / `fmov wd, sn` (FP to GP bit move).
#[inline]
pub fn fmov_to_gp(buf: &mut CodeBuffer, size: u32, rd: u8, rn: u8) {
    if size == 8 {
        emit(buf, 0x9E66_0000 | ((rn as u32) << 5) | rd as u32);
    } else {
        emit(buf, 0x1E26_0000 | ((rn as u32) << 5) | rd as u32);
    }
}

/// `fmov dd, xn` / `fmov sd, wn` (GP to FP bit move).
#[inline]
pub fn fmov_from_gp(buf: &mut CodeBuffer, size: u32, rd: u8, rn: u8) {
    if size == 8 {
        emit(buf, 0x9E67_0000 | ((rn as u32) << 5) | rd as u32);
    } else {
        emit(buf, 0x1E27_0000 | ((rn as u32) << 5) | rd as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc1(f: impl FnOnce(&mut CodeBuffer)) -> u32 {
        let mut buf = CodeBuffer::new();
        f(&mut buf);
        assert_eq!(buf.text().len(), 4);
        u32::from_le_bytes(buf.text()[0..4].try_into().unwrap())
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(enc1(|b| add_rr(b, true, 0, 1, 2)), 0x8b020020);
        assert_eq!(enc1(|b| sub_rr(b, true, 3, 4, 5)), 0xcb050083);
        assert_eq!(enc1(|b| add_rr(b, false, 0, 1, 2)), 0x0b020020);
        assert_eq!(enc1(|b| cmp_rr(b, true, 0, 1)), 0xeb01001f);
        assert_eq!(enc1(|b| mul(b, true, 0, 1, 2)), 0x9b027c20);
        assert_eq!(enc1(|b| sdiv(b, true, 0, 1, 2)), 0x9ac20c20);
        assert_eq!(enc1(|b| udiv(b, false, 0, 1, 2)), 0x1ac20820);
    }

    #[test]
    fn moves_and_constants() {
        assert_eq!(enc1(|b| mov_rr(b, true, 0, 1)), 0xaa0103e0);
        assert_eq!(enc1(|b| movz(b, true, 0, 42, 0)), 0xd2800540);
        assert_eq!(enc1(|b| movk(b, true, 0, 1, 1)), 0xf2a00020);
        let mut buf = CodeBuffer::new();
        mov_imm64(&mut buf, 0, 0x0001_0000_0000_002a);
        // movz #0x2a, lsl 0 ; movk #1, lsl 48
        assert_eq!(buf.text().len(), 8);
        let mut buf = CodeBuffer::new();
        mov_imm64(&mut buf, 3, 0);
        assert_eq!(buf.text().len(), 4);
    }

    #[test]
    fn immediates_and_stack() {
        assert_eq!(enc1(|b| sub_imm(b, true, SP, SP, 32)), 0xd10083ff);
        assert_eq!(enc1(|b| add_imm(b, true, SP, SP, 32)), 0x910083ff);
        assert_eq!(enc1(|b| cmp_imm(b, true, 0, 7)), 0xf1001c1f);
    }

    #[test]
    fn loads_and_stores() {
        assert_eq!(enc1(|b| str(b, 8, 0, SP, 16)), 0xf9000be0);
        assert_eq!(enc1(|b| ldr(b, 8, 0, SP, 16)), 0xf9400be0);
        // negative offset falls back to unscaled form
        assert_eq!(enc1(|b| ldr(b, 8, 0, FP, -8)), 0xf85f83a0);
        assert_eq!(enc1(|b| str(b, 4, 1, FP, -12)), 0xb81f43a1);
        assert_eq!(enc1(|b| ldr(b, 1, 2, 3, 0)), 0x39400062);
        assert_eq!(enc1(|b| stp_pre(b, FP, LR, SP, -16)), 0xa9bf7bfd);
        assert_eq!(enc1(|b| ldp_post(b, FP, LR, SP, 16)), 0xa8c17bfd);
    }

    #[test]
    fn branches_and_fixups() {
        let mut buf = CodeBuffer::new();
        let l = buf.new_label();
        b_label(&mut buf, l);
        nop(&mut buf);
        buf.bind_label(l);
        ret(&mut buf);
        buf.resolve_fixups().unwrap();
        let w = u32::from_le_bytes(buf.text()[0..4].try_into().unwrap());
        assert_eq!(w, 0x1400_0002);
        assert_eq!(
            u32::from_le_bytes(buf.text()[8..12].try_into().unwrap()),
            0xd65f03c0
        );

        let mut buf = CodeBuffer::new();
        let l = buf.new_label();
        bcond_label(&mut buf, Cond::Eq, l);
        nop(&mut buf);
        buf.bind_label(l);
        buf.resolve_fixups().unwrap();
        let w = u32::from_le_bytes(buf.text()[0..4].try_into().unwrap());
        assert_eq!(w, 0x5400_0040); // imm19 = 2
    }

    #[test]
    fn calls_and_relocations() {
        let mut buf = CodeBuffer::new();
        let sym = buf.declare_symbol("callee", tpde_core::codebuf::SymbolBinding::Global, true);
        bl_sym(&mut buf, sym);
        assert_eq!(buf.relocs().len(), 1);
        assert_eq!(buf.relocs()[0].kind, RelocKind::Call26);
        assert_eq!(enc1(|b| blr(b, 9)), 0xd63f0120);
        assert_eq!(enc1(ret), 0xd65f03c0);
        let mut buf = CodeBuffer::new();
        let sym = buf.declare_symbol("gv", tpde_core::codebuf::SymbolBinding::Global, false);
        adr_sym(&mut buf, 0, sym);
        assert_eq!(buf.text().len(), 8);
        assert_eq!(buf.relocs().len(), 2);
    }

    #[test]
    fn shifts_and_extensions() {
        assert_eq!(
            enc1(|b| shift_rr(b, true, ShiftOp::Lsl, 0, 1, 2)),
            0x9ac22020
        );
        // lsl x0, x1, #4 == ubfm x0, x1, #60, #59
        assert_eq!(enc1(|b| lsl_imm(b, true, 0, 1, 4)), 0xd37cec20);
        // lsr x0, x1, #4 == ubfm x0, x1, #4, #63
        assert_eq!(enc1(|b| lsr_imm(b, true, 0, 1, 4)), 0xd344fc20);
        // sxtw x0, w1
        assert_eq!(enc1(|b| sxt(b, 4, 0, 1)), 0x93407c20);
        // uxtb w0, w1
        assert_eq!(enc1(|b| uxt(b, 1, 0, 1)), 0x53001c20);
    }

    #[test]
    fn conditional_select() {
        assert_eq!(enc1(|b| csel(b, true, 0, 1, 2, Cond::Lt)), 0x9a82b020);
        // cset x0, eq == csinc x0, xzr, xzr, ne
        assert_eq!(enc1(|b| cset(b, true, 0, Cond::Eq)), 0x9a9f17e0);
    }

    #[test]
    fn floating_point() {
        assert_eq!(enc1(|b| fp_arith(b, 8, FpOp::Add, 0, 1, 2)), 0x1e622820);
        assert_eq!(enc1(|b| fp_arith(b, 4, FpOp::Mul, 0, 1, 2)), 0x1e220820);
        assert_eq!(enc1(|b| fcmp(b, 8, 0, 1)), 0x1e612000);
        assert_eq!(enc1(|b| fmov_rr(b, 8, 0, 1)), 0x1e604020);
        assert_eq!(enc1(|b| scvtf(b, 8, true, 0, 1)), 0x9e620020);
        assert_eq!(enc1(|b| fcvtzs(b, 8, true, 0, 1)), 0x9e780020);
        assert_eq!(enc1(|b| fmov_to_gp(b, 8, 0, 1)), 0x9e660020);
        assert_eq!(enc1(|b| fmov_from_gp(b, 8, 1, 0)), 0x9e670001);
        assert_eq!(enc1(|b| ldr_fp(b, 8, 0, FP, 16)), 0xfd400ba0);
        assert_eq!(enc1(|b| str_fp(b, 8, 0, SP, 8)), 0xfd0007e0);
    }

    #[test]
    fn cond_invert() {
        assert_eq!(Cond::Eq.invert(), Cond::Ne);
        assert_eq!(Cond::Lt.invert(), Cond::Ge);
        assert_eq!(Cond::Hi.invert(), Cond::Ls);
    }
}
