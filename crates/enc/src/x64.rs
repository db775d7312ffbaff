//! x86-64 instruction encoder.
//!
//! Emits raw bytes into a [`CodeBuffer`]. Only the subset used by the TPDE
//! back-ends and snippet encoders is implemented: 8/16/32/64-bit integer
//! ALU operations, moves with full ModRM/SIB addressing, shifts, multiply
//! and divide, conditional set/move, branches, calls, and SSE2 scalar
//! floating-point operations.
//!
//! All functions append at the current end of the text section. Each
//! encoder assembles its instruction into an on-stack
//! [`tpde_core::codebuf::InstBuf`] window and commits it with a single
//! batched write (see the reserve/commit contract in
//! [`tpde_core::codebuf`]). Branches to labels that are already bound
//! (back-edges) encode their `rel32` displacement immediately; forward
//! branches are patched through the code buffer's fixup mechanism.

use tpde_core::codebuf::{
    CodeBuffer, FixupKind, InstBuf, Label, Reloc, RelocKind, SectionKind, SymbolId,
};
use tpde_core::regs::{Reg, RegBank};

/// A general-purpose register (architectural number 0–15).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Gp(pub u8);

#[allow(missing_docs)]
impl Gp {
    pub const RAX: Gp = Gp(0);
    pub const RCX: Gp = Gp(1);
    pub const RDX: Gp = Gp(2);
    pub const RBX: Gp = Gp(3);
    pub const RSP: Gp = Gp(4);
    pub const RBP: Gp = Gp(5);
    pub const RSI: Gp = Gp(6);
    pub const RDI: Gp = Gp(7);
    pub const R8: Gp = Gp(8);
    pub const R9: Gp = Gp(9);
    pub const R10: Gp = Gp(10);
    pub const R11: Gp = Gp(11);
    pub const R12: Gp = Gp(12);
    pub const R13: Gp = Gp(13);
    pub const R14: Gp = Gp(14);
    pub const R15: Gp = Gp(15);

    #[inline]
    fn lo(self) -> u8 {
        self.0 & 7
    }
    #[inline]
    fn hi(self) -> bool {
        self.0 >= 8
    }
}

impl From<Reg> for Gp {
    #[inline]
    fn from(r: Reg) -> Gp {
        debug_assert_eq!(r.bank(), RegBank::GP);
        Gp(r.index())
    }
}

/// An SSE register (xmm0–xmm15).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Xmm(pub u8);

impl Xmm {
    #[inline]
    fn hi(self) -> bool {
        self.0 >= 8
    }
}

impl From<Reg> for Xmm {
    #[inline]
    fn from(r: Reg) -> Xmm {
        debug_assert_eq!(r.bank(), RegBank::FP);
        Xmm(r.index())
    }
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Mem {
    /// Base register.
    pub base: Gp,
    /// Optional index register and scale (1, 2, 4 or 8). The index must not
    /// be `rsp`.
    pub index: Option<(Gp, u8)>,
    /// Constant displacement.
    pub disp: i32,
}

impl Mem {
    /// `[base]`
    #[inline]
    pub fn base(base: Gp) -> Mem {
        Mem {
            base,
            index: None,
            disp: 0,
        }
    }
    /// `[base + disp]`
    #[inline]
    pub fn base_disp(base: Gp, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }
    /// `[base + index*scale + disp]`
    #[inline]
    pub fn sib(base: Gp, index: Gp, scale: u8, disp: i32) -> Mem {
        debug_assert!(matches!(scale, 1 | 2 | 4 | 8));
        debug_assert!(index != Gp::RSP, "rsp cannot be an index register");
        Mem {
            base,
            index: Some((index, scale)),
            disp,
        }
    }
}

/// Condition codes (the low nibble of `Jcc`/`SETcc`/`CMOVcc` opcodes).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Cond {
    O = 0x0,
    NO = 0x1,
    B = 0x2,
    AE = 0x3,
    E = 0x4,
    NE = 0x5,
    BE = 0x6,
    A = 0x7,
    S = 0x8,
    NS = 0x9,
    P = 0xa,
    NP = 0xb,
    L = 0xc,
    GE = 0xd,
    LE = 0xe,
    G = 0xf,
}

impl Cond {
    /// The inverted condition.
    #[inline]
    pub fn invert(self) -> Cond {
        match self {
            Cond::O => Cond::NO,
            Cond::NO => Cond::O,
            Cond::B => Cond::AE,
            Cond::AE => Cond::B,
            Cond::E => Cond::NE,
            Cond::NE => Cond::E,
            Cond::BE => Cond::A,
            Cond::A => Cond::BE,
            Cond::S => Cond::NS,
            Cond::NS => Cond::S,
            Cond::P => Cond::NP,
            Cond::NP => Cond::P,
            Cond::L => Cond::GE,
            Cond::GE => Cond::L,
            Cond::LE => Cond::G,
            Cond::G => Cond::LE,
        }
    }
}

/// Binary ALU operations sharing the standard opcode pattern.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Alu {
    Add = 0,
    Or = 1,
    Adc = 2,
    Sbb = 3,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

// --- low-level helpers -------------------------------------------------------

#[inline]
fn op_size_prefix(i: &mut InstBuf, size: u32) {
    if size == 2 {
        i.push_u8(0x66);
    }
}

/// Pushes a REX prefix if needed. `r`, `x`, `b` are the high bits of the
/// reg field, index and base/rm. `force` requires a REX byte even without
/// bits (for spl/bpl/sil/dil access).
#[inline]
fn rex(i: &mut InstBuf, w: bool, r: bool, x: bool, b: bool, force: bool) {
    let mut v = 0x40u8;
    if w {
        v |= 8;
    }
    if r {
        v |= 4;
    }
    if x {
        v |= 2;
    }
    if b {
        v |= 1;
    }
    if v != 0x40 || force {
        i.push_u8(v);
    }
}

#[inline]
fn needs_rex8(reg: u8) -> bool {
    (4..8).contains(&reg)
}

#[inline]
fn modrm(i: &mut InstBuf, md: u8, reg: u8, rm: u8) {
    i.push_u8((md << 6) | ((reg & 7) << 3) | (rm & 7));
}

/// Pushes ModRM for a register-direct operand.
#[inline]
fn modrm_rr(i: &mut InstBuf, reg: u8, rm: u8) {
    modrm(i, 3, reg, rm);
}

/// Pushes ModRM/SIB/disp for a memory operand with `reg` in the reg field.
#[inline]
fn modrm_mem(i: &mut InstBuf, reg: u8, mem: Mem) {
    let base = mem.base;
    let disp = mem.disp;
    // choose mod encoding
    let (md, disp_bytes): (u8, u8) = if disp == 0 && base.lo() != 5 {
        (0, 0)
    } else if (-128..=127).contains(&disp) {
        (1, 1)
    } else {
        (2, 4)
    };
    match mem.index {
        None => {
            if base.lo() == 4 {
                // rsp/r12 base requires SIB
                modrm(i, md, reg, 4);
                i.push_u8(0x24); // scale=0, index=100 (none), base=rsp
            } else {
                modrm(i, md, reg, base.lo());
            }
        }
        Some((index, scale)) => {
            let ss = match scale {
                1 => 0,
                2 => 1,
                4 => 2,
                8 => 3,
                _ => unreachable!(),
            };
            modrm(i, md, reg, 4);
            i.push_u8((ss << 6) | (index.lo() << 3) | base.lo());
        }
    }
    match disp_bytes {
        0 => {}
        1 => i.push_u8(disp as i8 as u8),
        _ => i.push_i32(disp),
    }
}

#[inline]
fn rex_for_rm(i: &mut InstBuf, size: u32, reg: u8, rm: u8) {
    op_size_prefix(i, size);
    let force = size == 1 && (needs_rex8(reg) || needs_rex8(rm));
    rex(i, size == 8, reg >= 8, false, rm >= 8, force);
}

#[inline]
fn rex_for_mem(i: &mut InstBuf, size: u32, reg: u8, mem: Mem) {
    op_size_prefix(i, size);
    let x = mem.index.is_some_and(|(idx, _)| idx.hi());
    let force = size == 1 && needs_rex8(reg);
    rex(i, size == 8, reg >= 8, x, mem.base.hi(), force);
}

// --- moves --------------------------------------------------------------------

/// `mov dst, src` (register to register).
#[inline]
pub fn mov_rr(buf: &mut CodeBuffer, size: u32, dst: Gp, src: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, src.0, dst.0);
    i.push_u8(if size == 1 { 0x88 } else { 0x89 });
    modrm_rr(&mut i, src.0, dst.0);
    buf.emit_inst(i);
}

/// `mov dst, imm`. Chooses the shortest usable encoding
/// (`mov r32, imm32`, sign-extended `imm32`, or `movabs`).
#[inline]
pub fn mov_ri(buf: &mut CodeBuffer, size: u32, dst: Gp, imm: u64) {
    let mut i = InstBuf::new();
    if size <= 4 || imm <= u32::MAX as u64 {
        // 32-bit move zero-extends to 64 bits
        rex(&mut i, false, false, false, dst.hi(), false);
        i.push_u8(0xb8 + dst.lo());
        i.push_u32(imm as u32);
    } else if (imm as i64) >= i32::MIN as i64 && (imm as i64) <= i32::MAX as i64 {
        rex(&mut i, true, false, false, dst.hi(), false);
        i.push_u8(0xc7);
        modrm_rr(&mut i, 0, dst.0);
        i.push_u32(imm as u32);
    } else {
        rex(&mut i, true, false, false, dst.hi(), false);
        i.push_u8(0xb8 + dst.lo());
        i.push_u64(imm);
    }
    buf.emit_inst(i);
}

/// `mov dst, [mem]` (load).
#[inline]
pub fn mov_rm(buf: &mut CodeBuffer, size: u32, dst: Gp, mem: Mem) {
    let mut i = InstBuf::new();
    rex_for_mem(&mut i, size, dst.0, mem);
    i.push_u8(if size == 1 { 0x8a } else { 0x8b });
    modrm_mem(&mut i, dst.0, mem);
    buf.emit_inst(i);
}

/// `mov [mem], src` (store).
#[inline]
pub fn mov_mr(buf: &mut CodeBuffer, size: u32, mem: Mem, src: Gp) {
    let mut i = InstBuf::new();
    rex_for_mem(&mut i, size, src.0, mem);
    i.push_u8(if size == 1 { 0x88 } else { 0x89 });
    modrm_mem(&mut i, src.0, mem);
    buf.emit_inst(i);
}

/// `mov dword/qword ptr [mem], imm32` (sign-extended for 64-bit).
#[inline]
pub fn mov_mi(buf: &mut CodeBuffer, size: u32, mem: Mem, imm: i32) {
    let mut i = InstBuf::new();
    rex_for_mem(&mut i, size, 0, mem);
    i.push_u8(if size == 1 { 0xc6 } else { 0xc7 });
    modrm_mem(&mut i, 0, mem);
    match size {
        1 => i.push_u8(imm as u8),
        2 => i.push_u16(imm as u16),
        _ => i.push_i32(imm),
    }
    buf.emit_inst(i);
}

/// `movzx dst, src` where `src` is an 8- or 16-bit register.
#[inline]
pub fn movzx_rr(buf: &mut CodeBuffer, dst: Gp, src: Gp, from_size: u32) {
    let mut i = InstBuf::new();
    let force = from_size == 1 && needs_rex8(src.0);
    rex(&mut i, false, dst.hi(), false, src.hi(), force);
    i.push_u8(0x0f);
    i.push_u8(if from_size == 1 { 0xb6 } else { 0xb7 });
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

/// `movzx dst, <size> ptr [mem]` (zero-extending load, 8/16 bit).
#[inline]
pub fn movzx_rm(buf: &mut CodeBuffer, dst: Gp, mem: Mem, from_size: u32) {
    let mut i = InstBuf::new();
    let x = mem.index.is_some_and(|(idx, _)| idx.hi());
    rex(&mut i, false, dst.hi(), x, mem.base.hi(), false);
    i.push_u8(0x0f);
    i.push_u8(if from_size == 1 { 0xb6 } else { 0xb7 });
    modrm_mem(&mut i, dst.0, mem);
    buf.emit_inst(i);
}

#[inline]
fn movsx_opcode(i: &mut InstBuf, from_size: u32) {
    match from_size {
        1 => {
            i.push_u8(0x0f);
            i.push_u8(0xbe);
        }
        2 => {
            i.push_u8(0x0f);
            i.push_u8(0xbf);
        }
        4 => i.push_u8(0x63), // movsxd
        _ => panic!("invalid movsx source size"),
    }
}

/// `movsx dst, src` (sign extension from 8, 16 or 32 bits to `to_size`).
#[inline]
pub fn movsx_rr(buf: &mut CodeBuffer, to_size: u32, dst: Gp, src: Gp, from_size: u32) {
    let mut i = InstBuf::new();
    let force = from_size == 1 && needs_rex8(src.0);
    rex(&mut i, to_size == 8, dst.hi(), false, src.hi(), force);
    movsx_opcode(&mut i, from_size);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

/// `movsx dst, <size> ptr [mem]` (sign-extending load).
#[inline]
pub fn movsx_rm(buf: &mut CodeBuffer, to_size: u32, dst: Gp, mem: Mem, from_size: u32) {
    let mut i = InstBuf::new();
    let x = mem.index.is_some_and(|(idx, _)| idx.hi());
    rex(&mut i, to_size == 8, dst.hi(), x, mem.base.hi(), false);
    movsx_opcode(&mut i, from_size);
    modrm_mem(&mut i, dst.0, mem);
    buf.emit_inst(i);
}

/// `lea dst, [mem]`; a `size` of 4 keeps the low 32 bits of the address,
/// zero-extended.
#[inline]
pub fn lea(buf: &mut CodeBuffer, size: u32, dst: Gp, mem: Mem) {
    debug_assert!(matches!(size, 4 | 8));
    let mut i = InstBuf::new();
    rex_for_mem(&mut i, size, dst.0, mem);
    i.push_u8(0x8d);
    modrm_mem(&mut i, dst.0, mem);
    buf.emit_inst(i);
}

// --- ALU ------------------------------------------------------------------------

/// `op dst, src` (register-register ALU operation).
#[inline]
pub fn alu_rr(buf: &mut CodeBuffer, op: Alu, size: u32, dst: Gp, src: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, src.0, dst.0);
    let base = (op as u8) * 8;
    i.push_u8(if size == 1 { base } else { base + 1 });
    modrm_rr(&mut i, src.0, dst.0);
    buf.emit_inst(i);
}

/// `op dst, imm` (immediate ALU operation; chooses imm8 when possible).
#[inline]
pub fn alu_ri(buf: &mut CodeBuffer, op: Alu, size: u32, dst: Gp, imm: i32) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, 0, dst.0);
    if size == 1 {
        i.push_u8(0x80);
        modrm_rr(&mut i, op as u8, dst.0);
        i.push_u8(imm as u8);
    } else if (-128..=127).contains(&imm) {
        i.push_u8(0x83);
        modrm_rr(&mut i, op as u8, dst.0);
        i.push_u8(imm as u8);
    } else {
        i.push_u8(0x81);
        modrm_rr(&mut i, op as u8, dst.0);
        if size == 2 {
            i.push_u16(imm as u16);
        } else {
            i.push_i32(imm);
        }
    }
    buf.emit_inst(i);
}

/// `op dst, [mem]`.
#[inline]
pub fn alu_rm(buf: &mut CodeBuffer, op: Alu, size: u32, dst: Gp, mem: Mem) {
    let mut i = InstBuf::new();
    rex_for_mem(&mut i, size, dst.0, mem);
    let base = (op as u8) * 8;
    i.push_u8(if size == 1 { base + 2 } else { base + 3 });
    modrm_mem(&mut i, dst.0, mem);
    buf.emit_inst(i);
}

/// `test dst, src`.
#[inline]
pub fn test_rr(buf: &mut CodeBuffer, size: u32, dst: Gp, src: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, src.0, dst.0);
    i.push_u8(if size == 1 { 0x84 } else { 0x85 });
    modrm_rr(&mut i, src.0, dst.0);
    buf.emit_inst(i);
}

/// `imul dst, src` (two-operand signed multiply).
#[inline]
pub fn imul_rr(buf: &mut CodeBuffer, size: u32, dst: Gp, src: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, dst.0, src.0);
    i.push_u8(0x0f);
    i.push_u8(0xaf);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

/// `imul dst, src, imm32`.
#[inline]
pub fn imul_rri(buf: &mut CodeBuffer, size: u32, dst: Gp, src: Gp, imm: i32) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, dst.0, src.0);
    if (-128..=127).contains(&imm) {
        i.push_u8(0x6b);
        modrm_rr(&mut i, dst.0, src.0);
        i.push_u8(imm as u8);
    } else {
        i.push_u8(0x69);
        modrm_rr(&mut i, dst.0, src.0);
        i.push_i32(imm);
    }
    buf.emit_inst(i);
}

/// Single-operand `0xf6/0xf7` group instruction (`neg`, `mul`, ...).
#[inline]
fn grp3(buf: &mut CodeBuffer, size: u32, ext: u8, rm: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, 0, rm.0);
    i.push_u8(if size == 1 { 0xf6 } else { 0xf7 });
    modrm_rr(&mut i, ext, rm.0);
    buf.emit_inst(i);
}

/// `neg dst`.
#[inline]
pub fn neg(buf: &mut CodeBuffer, size: u32, dst: Gp) {
    grp3(buf, size, 3, dst);
}

/// `mul src` (unsigned widening multiply of rax by src into rdx:rax).
#[inline]
pub fn mul_unsigned(buf: &mut CodeBuffer, size: u32, src: Gp) {
    grp3(buf, size, 4, src);
}

/// `imul src` (signed widening multiply into rdx:rax).
#[inline]
pub fn imul_wide(buf: &mut CodeBuffer, size: u32, src: Gp) {
    grp3(buf, size, 5, src);
}

/// `div src` (unsigned divide of rdx:rax).
#[inline]
pub fn div(buf: &mut CodeBuffer, size: u32, src: Gp) {
    grp3(buf, size, 6, src);
}

/// `idiv src` (signed divide of rdx:rax).
#[inline]
pub fn idiv(buf: &mut CodeBuffer, size: u32, src: Gp) {
    grp3(buf, size, 7, src);
}

/// `cdq` (size 4) / `cqo` (size 8): sign-extend rax into rdx.
#[inline]
pub fn cqo(buf: &mut CodeBuffer, size: u32) {
    let mut i = InstBuf::new();
    if size == 8 {
        i.push_u8(0x48);
    }
    i.push_u8(0x99);
    buf.emit_inst(i);
}

/// Shift kinds for [`shift_ri`] / [`shift_cl`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Shift {
    Shl = 4,
    Shr = 5,
    Sar = 7,
    Rol = 0,
    Ror = 1,
}

/// `shl/shr/sar dst, imm`.
#[inline]
pub fn shift_ri(buf: &mut CodeBuffer, kind: Shift, size: u32, dst: Gp, imm: u8) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, 0, dst.0);
    if imm == 1 {
        i.push_u8(if size == 1 { 0xd0 } else { 0xd1 });
        modrm_rr(&mut i, kind as u8, dst.0);
    } else {
        i.push_u8(if size == 1 { 0xc0 } else { 0xc1 });
        modrm_rr(&mut i, kind as u8, dst.0);
        i.push_u8(imm);
    }
    buf.emit_inst(i);
}

/// `shl/shr/sar dst, cl`.
#[inline]
pub fn shift_cl(buf: &mut CodeBuffer, kind: Shift, size: u32, dst: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size, 0, dst.0);
    i.push_u8(if size == 1 { 0xd2 } else { 0xd3 });
    modrm_rr(&mut i, kind as u8, dst.0);
    buf.emit_inst(i);
}

/// `setcc dst` (8-bit destination).
#[inline]
pub fn setcc(buf: &mut CodeBuffer, cc: Cond, dst: Gp) {
    let mut i = InstBuf::new();
    let force = needs_rex8(dst.0);
    rex(&mut i, false, false, false, dst.hi(), force);
    i.push_u8(0x0f);
    i.push_u8(0x90 + cc as u8);
    modrm_rr(&mut i, 0, dst.0);
    buf.emit_inst(i);
}

/// `cmovcc dst, src`.
#[inline]
pub fn cmovcc(buf: &mut CodeBuffer, cc: Cond, size: u32, dst: Gp, src: Gp) {
    let mut i = InstBuf::new();
    rex_for_rm(&mut i, size.max(4), dst.0, src.0);
    i.push_u8(0x0f);
    i.push_u8(0x40 + cc as u8);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

// --- control flow -----------------------------------------------------------------

/// Commits a branch whose rel32 field starts at `i.len()` bytes into the
/// window. [`CodeBuffer::add_fixup`] encodes the displacement of an
/// already-bound label (a back-edge) at once.
#[inline]
fn emit_rel32_branch(buf: &mut CodeBuffer, mut i: InstBuf, label: Label) {
    let field_off = buf.text_offset() + i.len() as u64;
    i.push_u32(0);
    buf.emit_inst(i);
    buf.add_fixup(field_off, label, FixupKind::X64Rel32);
}

/// `jmp label` (rel32; encoded immediately for bound labels, fixed up
/// otherwise).
#[inline]
pub fn jmp_label(buf: &mut CodeBuffer, label: Label) {
    let mut i = InstBuf::new();
    i.push_u8(0xe9);
    emit_rel32_branch(buf, i, label);
}

/// `jcc label` (rel32; encoded immediately for bound labels, fixed up
/// otherwise).
#[inline]
pub fn jcc_label(buf: &mut CodeBuffer, cc: Cond, label: Label) {
    let mut i = InstBuf::new();
    i.push_u8(0x0f);
    i.push_u8(0x80 + cc as u8);
    emit_rel32_branch(buf, i, label);
}

/// `call sym` (rel32 with a PC-relative relocation).
#[inline]
pub fn call_sym(buf: &mut CodeBuffer, sym: SymbolId) {
    let mut i = InstBuf::new();
    i.push_u8(0xe8);
    let off = buf.text_offset() + 1;
    i.push_u32(0);
    buf.emit_inst(i);
    buf.add_reloc(Reloc {
        section: SectionKind::Text,
        offset: off,
        symbol: sym,
        kind: RelocKind::Pc32,
        addend: -4,
    });
}

/// `call reg` (indirect).
#[inline]
pub fn call_reg(buf: &mut CodeBuffer, reg: Gp) {
    let mut i = InstBuf::new();
    rex(&mut i, false, false, false, reg.hi(), false);
    i.push_u8(0xff);
    modrm_rr(&mut i, 2, reg.0);
    buf.emit_inst(i);
}

/// `ret`.
#[inline]
pub fn ret(buf: &mut CodeBuffer) {
    buf.emit_u8(0xc3);
}

/// `push reg`.
#[inline]
pub fn push_r(buf: &mut CodeBuffer, reg: Gp) {
    let mut i = InstBuf::new();
    rex(&mut i, false, false, false, reg.hi(), false);
    i.push_u8(0x50 + reg.lo());
    buf.emit_inst(i);
}

/// `pop reg`.
#[inline]
pub fn pop_r(buf: &mut CodeBuffer, reg: Gp) {
    let mut i = InstBuf::new();
    rex(&mut i, false, false, false, reg.hi(), false);
    i.push_u8(0x58 + reg.lo());
    buf.emit_inst(i);
}

/// Emits `len` bytes of (single-byte) NOPs with one resize.
#[inline]
pub fn nops(buf: &mut CodeBuffer, len: usize) {
    let text = buf.text_mut();
    let new_len = text.len() + len;
    text.resize(new_len, 0x90);
}

// --- SSE scalar floating point ------------------------------------------------------

#[inline]
fn sse_prefix(i: &mut InstBuf, prefix: u8, w: bool, r: bool, x: bool, b: bool) {
    if prefix != 0 {
        i.push_u8(prefix);
    }
    rex(i, w, r, x, b, false);
    i.push_u8(0x0f);
}

/// Scalar SSE op `xmm, xmm` with the given mandatory prefix and opcode
/// (e.g. `addsd` = prefix `0xF2`, opcode `0x58`).
#[inline]
pub fn sse_rr(buf: &mut CodeBuffer, prefix: u8, opcode: u8, dst: Xmm, src: Xmm) {
    let mut i = InstBuf::new();
    sse_prefix(&mut i, prefix, false, dst.hi(), false, src.hi());
    i.push_u8(opcode);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

/// Scalar SSE op `xmm, [mem]`.
#[inline]
pub fn sse_rm(buf: &mut CodeBuffer, prefix: u8, opcode: u8, dst: Xmm, mem: Mem) {
    let mut i = InstBuf::new();
    let x = mem.index.is_some_and(|(idx, _)| idx.hi());
    sse_prefix(&mut i, prefix, false, dst.hi(), x, mem.base.hi());
    i.push_u8(opcode);
    modrm_mem(&mut i, dst.0, mem);
    buf.emit_inst(i);
}

/// `movsd dst, [mem]` / `movss` when `size == 4`.
#[inline]
pub fn fp_load(buf: &mut CodeBuffer, size: u32, dst: Xmm, mem: Mem) {
    let prefix = if size == 4 { 0xf3 } else { 0xf2 };
    sse_rm(buf, prefix, 0x10, dst, mem);
}

/// `movsd [mem], src` / `movss` when `size == 4`.
#[inline]
pub fn fp_store(buf: &mut CodeBuffer, size: u32, mem: Mem, src: Xmm) {
    let mut i = InstBuf::new();
    let prefix = if size == 4 { 0xf3 } else { 0xf2 };
    let x = mem.index.is_some_and(|(idx, _)| idx.hi());
    sse_prefix(&mut i, prefix, false, src.hi(), x, mem.base.hi());
    i.push_u8(0x11);
    modrm_mem(&mut i, src.0, mem);
    buf.emit_inst(i);
}

/// `movsd/movss dst, src` (register move).
#[inline]
pub fn fp_mov_rr(buf: &mut CodeBuffer, size: u32, dst: Xmm, src: Xmm) {
    let prefix = if size == 4 { 0xf3 } else { 0xf2 };
    sse_rr(buf, prefix, 0x10, dst, src);
}

/// Scalar FP arithmetic: add/sub/mul/div/sqrt, selected by opcode
/// (0x58 add, 0x5c sub, 0x59 mul, 0x5e div, 0x51 sqrt).
#[inline]
pub fn fp_arith(buf: &mut CodeBuffer, size: u32, opcode: u8, dst: Xmm, src: Xmm) {
    let prefix = if size == 4 { 0xf3 } else { 0xf2 };
    sse_rr(buf, prefix, opcode, dst, src);
}

/// `ucomisd/ucomiss dst, src` (FP compare setting flags).
#[inline]
pub fn fp_ucomis(buf: &mut CodeBuffer, size: u32, dst: Xmm, src: Xmm) {
    let prefix = if size == 4 { 0x00 } else { 0x66 };
    sse_rr(buf, prefix, 0x2e, dst, src);
}

/// `xorps/xorpd dst, src` (used for FP zero and negation).
#[inline]
pub fn fp_xor(buf: &mut CodeBuffer, size: u32, dst: Xmm, src: Xmm) {
    let prefix = if size == 4 { 0x00 } else { 0x66 };
    sse_rr(buf, prefix, 0x57, dst, src);
}

/// `cvtsi2sd/cvtsi2ss dst, src` (integer to FP; `int_size` 4 or 8).
#[inline]
pub fn cvt_int_to_fp(buf: &mut CodeBuffer, fp_size: u32, int_size: u32, dst: Xmm, src: Gp) {
    let mut i = InstBuf::new();
    i.push_u8(if fp_size == 4 { 0xf3 } else { 0xf2 });
    rex(&mut i, int_size == 8, dst.hi(), false, src.hi(), false);
    i.push_u8(0x0f);
    i.push_u8(0x2a);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

/// `cvttsd2si/cvttss2si dst, src` (FP to integer, truncating).
#[inline]
pub fn cvt_fp_to_int(buf: &mut CodeBuffer, fp_size: u32, int_size: u32, dst: Gp, src: Xmm) {
    let mut i = InstBuf::new();
    i.push_u8(if fp_size == 4 { 0xf3 } else { 0xf2 });
    rex(&mut i, int_size == 8, dst.hi(), false, src.hi(), false);
    i.push_u8(0x0f);
    i.push_u8(0x2c);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

/// `cvtsd2ss` (`to_size` 4) or `cvtss2sd` (`to_size` 8).
#[inline]
pub fn cvt_fp_to_fp(buf: &mut CodeBuffer, to_size: u32, dst: Xmm, src: Xmm) {
    let prefix = if to_size == 4 { 0xf2 } else { 0xf3 };
    sse_rr(buf, prefix, 0x5a, dst, src);
}

/// `movq xmm, gp` (raw 64-bit bit move).
#[inline]
pub fn movq_xr(buf: &mut CodeBuffer, dst: Xmm, src: Gp) {
    let mut i = InstBuf::new();
    i.push_u8(0x66);
    rex(&mut i, true, dst.hi(), false, src.hi(), false);
    i.push_u8(0x0f);
    i.push_u8(0x6e);
    modrm_rr(&mut i, dst.0, src.0);
    buf.emit_inst(i);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut CodeBuffer)) -> Vec<u8> {
        let mut buf = CodeBuffer::new();
        f(&mut buf);
        buf.text().to_vec()
    }

    #[test]
    fn mov_and_alu_rr() {
        assert_eq!(
            enc(|b| mov_rr(b, 8, Gp::RAX, Gp::RBX)),
            vec![0x48, 0x89, 0xd8]
        );
        assert_eq!(enc(|b| mov_rr(b, 4, Gp::RAX, Gp::RBX)), vec![0x89, 0xd8]);
        assert_eq!(
            enc(|b| alu_rr(b, Alu::Add, 8, Gp::RAX, Gp::RCX)),
            vec![0x48, 0x01, 0xc8]
        );
        assert_eq!(
            enc(|b| alu_rr(b, Alu::Sub, 4, Gp::RDX, Gp::RSI)),
            vec![0x29, 0xf2]
        );
        assert_eq!(
            enc(|b| alu_rr(b, Alu::Cmp, 8, Gp::RAX, Gp::RCX)),
            vec![0x48, 0x39, 0xc8]
        );
        assert_eq!(
            enc(|b| alu_rr(b, Alu::Xor, 8, Gp::R8, Gp::R9)),
            vec![0x4d, 0x31, 0xc8]
        );
    }

    #[test]
    fn mov_imm_forms() {
        assert_eq!(enc(|b| mov_ri(b, 4, Gp::RAX, 42)), vec![0xb8, 42, 0, 0, 0]);
        assert_eq!(
            enc(|b| mov_ri(b, 8, Gp::RAX, 0x1_2345_6789)),
            vec![0x48, 0xb8, 0x89, 0x67, 0x45, 0x23, 0x01, 0, 0, 0]
        );
        // small positive 64-bit constants use the 32-bit zero-extending form
        assert_eq!(enc(|b| mov_ri(b, 8, Gp::RCX, 7)), vec![0xb9, 7, 0, 0, 0]);
        // negative needs sign-extended form
        assert_eq!(
            enc(|b| mov_ri(b, 8, Gp::RAX, (-1i64) as u64)),
            vec![0x48, 0xc7, 0xc0, 0xff, 0xff, 0xff, 0xff]
        );
    }

    #[test]
    fn loads_and_stores() {
        assert_eq!(
            enc(|b| mov_rm(b, 8, Gp::RAX, Mem::base_disp(Gp::RBP, -8))),
            vec![0x48, 0x8b, 0x45, 0xf8]
        );
        assert_eq!(
            enc(|b| mov_mr(b, 8, Mem::base_disp(Gp::RBP, 16), Gp::RDI)),
            vec![0x48, 0x89, 0x7d, 0x10]
        );
        assert_eq!(
            enc(|b| mov_rm(b, 4, Gp::RCX, Mem::base(Gp::RAX))),
            vec![0x8b, 0x08]
        );
        // rsp base requires SIB
        assert_eq!(
            enc(|b| mov_mr(b, 8, Mem::base_disp(Gp::RSP, 8), Gp::RAX)),
            vec![0x48, 0x89, 0x44, 0x24, 0x08]
        );
        // scaled index
        assert_eq!(
            enc(|b| mov_rm(b, 8, Gp::RAX, Mem::sib(Gp::RDI, Gp::RSI, 8, 0))),
            vec![0x48, 0x8b, 0x04, 0xf7]
        );
        // large displacement
        assert_eq!(
            enc(|b| mov_rm(b, 8, Gp::RAX, Mem::base_disp(Gp::RBP, -0x1000))),
            vec![0x48, 0x8b, 0x85, 0x00, 0xf0, 0xff, 0xff]
        );
    }

    #[test]
    fn lea_and_stack_addressing() {
        assert_eq!(
            enc(|b| lea(b, 8, Gp::RAX, Mem::base_disp(Gp::RBP, -16))),
            vec![0x48, 0x8d, 0x45, 0xf0]
        );
        assert_eq!(
            enc(|b| lea(b, 8, Gp::RDX, Mem::sib(Gp::RAX, Gp::RCX, 4, 3))),
            vec![0x48, 0x8d, 0x54, 0x88, 0x03]
        );
        // lea eax, [rcx + 5] ; lea r9d, [r8 + r10*1]
        assert_eq!(
            enc(|b| lea(b, 4, Gp::RAX, Mem::base_disp(Gp::RCX, 5))),
            vec![0x8d, 0x41, 0x05]
        );
        assert_eq!(
            enc(|b| lea(b, 4, Gp::R9, Mem::sib(Gp::R8, Gp::R10, 1, 0))),
            vec![0x47, 0x8d, 0x0c, 0x10]
        );
    }

    #[test]
    fn imm_alu_choose_width() {
        assert_eq!(
            enc(|b| alu_ri(b, Alu::Add, 8, Gp::RSP, 8)),
            vec![0x48, 0x83, 0xc4, 0x08]
        );
        assert_eq!(
            enc(|b| alu_ri(b, Alu::Sub, 8, Gp::RSP, 0x200)),
            vec![0x48, 0x81, 0xec, 0x00, 0x02, 0x00, 0x00]
        );
        assert_eq!(
            enc(|b| alu_ri(b, Alu::Cmp, 4, Gp::RAX, 1)),
            vec![0x83, 0xf8, 0x01]
        );
    }

    #[test]
    fn mul_div_shift() {
        assert_eq!(
            enc(|b| imul_rr(b, 8, Gp::RAX, Gp::RCX)),
            vec![0x48, 0x0f, 0xaf, 0xc1]
        );
        assert_eq!(enc(|b| idiv(b, 8, Gp::RCX)), vec![0x48, 0xf7, 0xf9]);
        assert_eq!(enc(|b| div(b, 4, Gp::RSI)), vec![0xf7, 0xf6]);
        assert_eq!(enc(|b| cqo(b, 8)), vec![0x48, 0x99]);
        assert_eq!(enc(|b| cqo(b, 4)), vec![0x99]);
        assert_eq!(
            enc(|b| shift_cl(b, Shift::Shl, 8, Gp::RAX)),
            vec![0x48, 0xd3, 0xe0]
        );
        assert_eq!(
            enc(|b| shift_ri(b, Shift::Sar, 8, Gp::RDX, 3)),
            vec![0x48, 0xc1, 0xfa, 0x03]
        );
        assert_eq!(
            enc(|b| shift_ri(b, Shift::Shl, 4, Gp::RAX, 1)),
            vec![0xd1, 0xe0]
        );
    }

    #[test]
    fn setcc_and_cmov() {
        assert_eq!(enc(|b| setcc(b, Cond::E, Gp::RAX)), vec![0x0f, 0x94, 0xc0]);
        // sil needs a REX prefix
        assert_eq!(
            enc(|b| setcc(b, Cond::NE, Gp::RSI)),
            vec![0x40, 0x0f, 0x95, 0xc6]
        );
        assert_eq!(
            enc(|b| movzx_rr(b, Gp::RAX, Gp::RAX, 1)),
            vec![0x0f, 0xb6, 0xc0]
        );
        assert_eq!(
            enc(|b| cmovcc(b, Cond::L, 8, Gp::RAX, Gp::RCX)),
            vec![0x48, 0x0f, 0x4c, 0xc1]
        );
    }

    #[test]
    fn extensions() {
        assert_eq!(
            enc(|b| movsx_rr(b, 8, Gp::RAX, Gp::RCX, 4)),
            vec![0x48, 0x63, 0xc1]
        );
        assert_eq!(
            enc(|b| movsx_rr(b, 8, Gp::RAX, Gp::RCX, 1)),
            vec![0x48, 0x0f, 0xbe, 0xc1]
        );
        assert_eq!(
            enc(|b| movzx_rr(b, Gp::RAX, Gp::RCX, 2)),
            vec![0x0f, 0xb7, 0xc1]
        );
    }

    #[test]
    fn control_flow_and_fixups() {
        let mut buf = CodeBuffer::new();
        let l = buf.new_label();
        jcc_label(&mut buf, Cond::E, l);
        jmp_label(&mut buf, l);
        buf.bind_label(l);
        ret(&mut buf);
        buf.resolve_fixups().unwrap();
        let text = buf.text().to_vec();
        assert_eq!(&text[0..2], &[0x0f, 0x84]);
        // je displacement: target 11, end of field 6 -> 5
        assert_eq!(i32::from_le_bytes(text[2..6].try_into().unwrap()), 5);
        assert_eq!(text[6], 0xe9);
        assert_eq!(i32::from_le_bytes(text[7..11].try_into().unwrap()), 0);
        assert_eq!(text[11], 0xc3);
    }

    #[test]
    fn push_pop_ret_call() {
        assert_eq!(enc(|b| push_r(b, Gp::RBP)), vec![0x55]);
        assert_eq!(enc(|b| push_r(b, Gp::R15)), vec![0x41, 0x57]);
        assert_eq!(enc(|b| pop_r(b, Gp::RBP)), vec![0x5d]);
        assert_eq!(enc(ret), vec![0xc3]);
        assert_eq!(enc(|b| call_reg(b, Gp::R11)), vec![0x41, 0xff, 0xd3]);
    }

    #[test]
    fn sse_encodings() {
        assert_eq!(
            enc(|b| fp_arith(b, 8, 0x58, Xmm(0), Xmm(1))),
            vec![0xf2, 0x0f, 0x58, 0xc1]
        );
        assert_eq!(
            enc(|b| fp_arith(b, 4, 0x59, Xmm(2), Xmm(3))),
            vec![0xf3, 0x0f, 0x59, 0xd3]
        );
        assert_eq!(
            enc(|b| fp_load(b, 8, Xmm(0), Mem::base_disp(Gp::RBP, -8))),
            vec![0xf2, 0x0f, 0x10, 0x45, 0xf8]
        );
        assert_eq!(
            enc(|b| fp_store(b, 8, Mem::base_disp(Gp::RBP, -8), Xmm(0))),
            vec![0xf2, 0x0f, 0x11, 0x45, 0xf8]
        );
        assert_eq!(
            enc(|b| fp_ucomis(b, 8, Xmm(0), Xmm(1))),
            vec![0x66, 0x0f, 0x2e, 0xc1]
        );
        assert_eq!(
            enc(|b| fp_ucomis(b, 4, Xmm(0), Xmm(1))),
            vec![0x0f, 0x2e, 0xc1]
        );
        assert_eq!(
            enc(|b| cvt_int_to_fp(b, 8, 8, Xmm(0), Gp::RAX)),
            vec![0xf2, 0x48, 0x0f, 0x2a, 0xc0]
        );
        assert_eq!(
            enc(|b| cvt_fp_to_int(b, 8, 8, Gp::RAX, Xmm(0))),
            vec![0xf2, 0x48, 0x0f, 0x2c, 0xc0]
        );
        assert_eq!(
            enc(|b| movq_xr(b, Xmm(0), Gp::RAX)),
            vec![0x66, 0x48, 0x0f, 0x6e, 0xc0]
        );
        assert_eq!(
            enc(|b| fp_xor(b, 8, Xmm(1), Xmm(1))),
            vec![0x66, 0x0f, 0x57, 0xc9]
        );
        assert_eq!(
            enc(|b| cvt_fp_to_fp(b, 8, Xmm(0), Xmm(1))),
            vec![0xf3, 0x0f, 0x5a, 0xc1]
        );
    }

    #[test]
    fn cond_invert_roundtrip() {
        for cc in [
            Cond::O,
            Cond::NO,
            Cond::B,
            Cond::AE,
            Cond::E,
            Cond::NE,
            Cond::BE,
            Cond::A,
            Cond::S,
            Cond::NS,
            Cond::P,
            Cond::NP,
            Cond::L,
            Cond::GE,
            Cond::LE,
            Cond::G,
        ] {
            assert_eq!(cc.invert().invert(), cc);
        }
    }

    #[test]
    fn mov_mi_store_immediate() {
        assert_eq!(
            enc(|b| mov_mi(b, 8, Mem::base_disp(Gp::RBP, -8), 5)),
            vec![0x48, 0xc7, 0x45, 0xf8, 0x05, 0x00, 0x00, 0x00]
        );
        assert_eq!(
            enc(|b| mov_mi(b, 4, Mem::base(Gp::RAX), -1)),
            vec![0xc7, 0x00, 0xff, 0xff, 0xff, 0xff]
        );
    }

    #[test]
    fn byte_ops_use_rex_for_high_low_regs() {
        // mov dil, al needs REX
        assert_eq!(
            enc(|b| mov_rr(b, 1, Gp::RDI, Gp::RAX)),
            vec![0x40, 0x88, 0xc7]
        );
        // mov cl, al does not
        assert_eq!(enc(|b| mov_rr(b, 1, Gp::RCX, Gp::RAX)), vec![0x88, 0xc1]);
    }
}
