//! Differential golden test for the instruction encoders.
//!
//! The catalogue below invokes every public encoder function of
//! `tpde_enc::x64` and `tpde_enc::a64` across a spread of operand shapes
//! (sizes, low/high registers, addressing modes, immediate widths, forward
//! and backward branches). The resulting text bytes are compared against
//! checked-in golden files captured from the seed byte-at-a-time encoders,
//! proving that the batched-write emission layer produces byte-identical
//! machine code.
//!
//! Regenerate the goldens (only when intentionally changing encodings) with
//! `BLESS_GOLDEN=1 cargo test -p tpde-enc --test golden_emission`.

use tpde_core::codebuf::{CodeBuffer, FixupKind, SymbolBinding};
use tpde_enc::{a64, x64};
use x64::{Alu, Cond, Gp, Mem, Shift, Xmm};

fn x64_catalogue(buf: &mut CodeBuffer) {
    let regs = [
        Gp::RAX,
        Gp::RCX,
        Gp::RSI,
        Gp::RDI,
        Gp::RSP,
        Gp::RBP,
        Gp::R8,
        Gp::R13,
        Gp::R15,
    ];
    let mems = [
        Mem::base(Gp::RAX),
        Mem::base(Gp::RSP),
        Mem::base(Gp::RBP),
        Mem::base(Gp::R13),
        Mem::base_disp(Gp::RBP, -8),
        Mem::base_disp(Gp::RSP, 16),
        Mem::base_disp(Gp::RAX, -0x1000),
        Mem::base_disp(Gp::R12, 0x7fff_0000),
        Mem::sib(Gp::RDI, Gp::RSI, 8, 0),
        Mem::sib(Gp::RAX, Gp::RCX, 4, 3),
        Mem::sib(Gp::R12, Gp::R9, 2, 0x100),
        Mem::sib(Gp::RBP, Gp::R15, 1, -64),
    ];
    let sizes = [1u32, 2, 4, 8];
    let conds = [
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
    ];
    let alus = [
        Alu::Add,
        Alu::Or,
        Alu::Adc,
        Alu::Sbb,
        Alu::And,
        Alu::Sub,
        Alu::Xor,
        Alu::Cmp,
    ];

    // moves
    for &size in &sizes {
        for (i, &dst) in regs.iter().enumerate() {
            let src = regs[(i + 3) % regs.len()];
            x64::mov_rr(buf, size, dst, src);
        }
    }
    for &imm in &[
        0u64,
        42,
        0x7fff_ffff,
        0x8000_0000,
        (-1i64) as u64,
        0x1234_5678_9abc_def0,
    ] {
        for &size in &[4u32, 8] {
            x64::mov_ri(buf, size, Gp::RAX, imm);
            x64::mov_ri(buf, size, Gp::R9, imm);
        }
    }
    for &size in &sizes {
        for &mem in &mems {
            x64::mov_rm(buf, size, Gp::RDX, mem);
            x64::mov_rm(buf, size, Gp::R10, mem);
            x64::mov_mr(buf, size, mem, Gp::RDX);
            x64::mov_mr(buf, size, mem, Gp::R10);
            x64::mov_mi(buf, size, mem, -2);
        }
    }
    for &from in &[1u32, 2] {
        x64::movzx_rr(buf, Gp::RAX, Gp::RSI, from);
        x64::movzx_rr(buf, Gp::R9, Gp::RDI, from);
        x64::movzx_rm(buf, Gp::RCX, mems[4], from);
        x64::movzx_rm(buf, Gp::R11, mems[8], from);
    }
    for &to in &[4u32, 8] {
        for &from in &[1u32, 2, 4] {
            x64::movsx_rr(buf, to, Gp::RAX, Gp::RSI, from);
            x64::movsx_rm(buf, to, Gp::R9, mems[5], from);
        }
    }
    for &mem in &mems {
        x64::lea(buf, 8, Gp::RAX, mem);
        x64::lea(buf, 8, Gp::R14, mem);
    }

    // ALU
    for &op in &alus {
        for &size in &sizes {
            x64::alu_rr(buf, op, size, Gp::RAX, Gp::RCX);
            x64::alu_rr(buf, op, size, Gp::R8, Gp::R9);
            x64::alu_ri(buf, op, size, Gp::RDX, 7);
            x64::alu_ri(buf, op, size, Gp::RDX, 0x200);
            x64::alu_ri(buf, op, size, Gp::R12, -1);
            x64::alu_rm(buf, op, size, Gp::RSI, mems[4]);
        }
    }
    for &size in &sizes {
        x64::test_rr(buf, size, Gp::RAX, Gp::RBX);
        x64::imul_rr(buf, size, Gp::RAX, Gp::RCX);
        x64::imul_rri(buf, size, Gp::RAX, Gp::RCX, 10);
        x64::imul_rri(buf, size, Gp::R8, Gp::RCX, 1000);
        x64::neg(buf, size, Gp::RDI);
        x64::mul_unsigned(buf, size, Gp::RCX);
        x64::imul_wide(buf, size, Gp::RCX);
        x64::div(buf, size, Gp::RSI);
        x64::idiv(buf, size, Gp::R9);
    }
    x64::cqo(buf, 4);
    x64::cqo(buf, 8);
    for kind in [Shift::Shl, Shift::Shr, Shift::Sar, Shift::Rol, Shift::Ror] {
        for &size in &sizes {
            x64::shift_ri(buf, kind, size, Gp::RAX, 1);
            x64::shift_ri(buf, kind, size, Gp::R10, 13);
            x64::shift_cl(buf, kind, size, Gp::RDX);
        }
    }
    for &cc in &conds {
        x64::setcc(buf, cc, Gp::RAX);
        x64::setcc(buf, cc, Gp::RSI);
        x64::setcc(buf, cc, Gp::R9);
        x64::cmovcc(buf, cc, 4, Gp::RAX, Gp::RCX);
        x64::cmovcc(buf, cc, 8, Gp::R8, Gp::R15);
    }

    // control flow: forward and backward branches
    let back = buf.new_label();
    buf.bind_label(back);
    x64::nops(buf, 3);
    let fwd = buf.new_label();
    x64::jmp_label(buf, fwd);
    x64::jmp_label(buf, back);
    for &cc in &conds {
        x64::jcc_label(buf, cc, fwd);
        x64::jcc_label(buf, cc, back);
    }
    buf.bind_label(fwd);
    let sym = buf.declare_symbol("ext_fn", SymbolBinding::Global, true);
    x64::call_sym(buf, sym);
    x64::call_reg(buf, Gp::RAX);
    x64::call_reg(buf, Gp::R11);
    x64::ret(buf);
    for &r in &regs {
        if r != Gp::RSP {
            x64::push_r(buf, r);
            x64::pop_r(buf, r);
        }
    }
    x64::nops(buf, 5);

    // SSE scalar floating point
    let xs = [Xmm(0), Xmm(1), Xmm(7), Xmm(8), Xmm(15)];
    for &size in &[4u32, 8] {
        for (i, &dst) in xs.iter().enumerate() {
            let src = xs[(i + 2) % xs.len()];
            x64::fp_mov_rr(buf, size, dst, src);
            x64::fp_ucomis(buf, size, dst, src);
            x64::fp_xor(buf, size, dst, src);
            x64::cvt_fp_to_fp(buf, if size == 4 { 8 } else { 4 }, dst, src);
            for &opc in &[0x58u8, 0x5c, 0x59, 0x5e, 0x51] {
                x64::fp_arith(buf, size, opc, dst, src);
            }
        }
        for &mem in &mems {
            x64::fp_load(buf, size, Xmm(3), mem);
            x64::fp_load(buf, size, Xmm(12), mem);
            x64::fp_store(buf, size, mem, Xmm(3));
            x64::fp_store(buf, size, mem, Xmm(12));
            x64::sse_rm(buf, 0xf2, 0x58, Xmm(9), mem);
        }
        x64::sse_rr(buf, 0x66, 0x2e, Xmm(2), Xmm(11));
        for &int_size in &[4u32, 8] {
            x64::cvt_int_to_fp(buf, size, int_size, Xmm(0), Gp::RAX);
            x64::cvt_int_to_fp(buf, size, int_size, Xmm(9), Gp::R10);
            x64::cvt_fp_to_int(buf, size, int_size, Gp::RAX, Xmm(0));
            x64::cvt_fp_to_int(buf, size, int_size, Gp::R10, Xmm(9));
        }
    }
    x64::movq_xr(buf, Xmm(0), Gp::RAX);
    x64::movq_xr(buf, Xmm(9), Gp::R10);

    buf.resolve_fixups().expect("all labels bound");
}

fn a64_catalogue(buf: &mut CodeBuffer) {
    use a64::{Cond, FpOp, ShiftOp, FP, LR, SP, ZR};
    let conds = [
        Cond::Eq,
        Cond::Ne,
        Cond::Hs,
        Cond::Lo,
        Cond::Mi,
        Cond::Pl,
        Cond::Vs,
        Cond::Vc,
        Cond::Hi,
        Cond::Ls,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Al,
    ];
    for &is64 in &[false, true] {
        for &(rd, rn, rm) in &[(0u8, 1u8, 2u8), (3, 29, 15), (19, 28, 9)] {
            a64::mov_rr(buf, is64, rd, rm);
            a64::add_rr(buf, is64, rd, rn, rm);
            a64::sub_rr(buf, is64, rd, rn, rm);
            a64::subs_rr(buf, is64, rd, rn, rm);
            a64::cmp_rr(buf, is64, rn, rm);
            a64::and_rr(buf, is64, rd, rn, rm);
            a64::orr_rr(buf, is64, rd, rn, rm);
            a64::eor_rr(buf, is64, rd, rn, rm);
            a64::madd(buf, is64, rd, rn, rm, 7);
            a64::msub(buf, is64, rd, rn, rm, 7);
            a64::mul(buf, is64, rd, rn, rm);
            a64::sdiv(buf, is64, rd, rn, rm);
            a64::udiv(buf, is64, rd, rn, rm);
            for op in [ShiftOp::Lsl, ShiftOp::Lsr, ShiftOp::Asr] {
                a64::shift_rr(buf, is64, op, rd, rn, rm);
            }
        }
        for &imm in &[0u32, 1, 32, 4095] {
            a64::add_imm(buf, is64, 0, 1, imm);
            a64::sub_imm(buf, is64, 0, 1, imm);
            a64::cmp_imm(buf, is64, 2, imm);
        }
        // A 32-bit move shifted by 32 or 48 is unallocated.
        for hw in 0..if is64 { 4 } else { 2 } {
            a64::movz(buf, is64, 5, 0xbeef, hw);
        }
        for &sh in &[1u8, 4, 17] {
            a64::lsl_imm(buf, is64, 0, 1, sh);
            a64::lsr_imm(buf, is64, 0, 1, sh);
            a64::asr_imm(buf, is64, 0, 1, sh);
        }
        a64::ubfm(buf, is64, 0, 1, 3, 9);
        a64::sbfm(buf, is64, 0, 1, 3, 9);
        for &cc in &conds {
            a64::csel(buf, is64, 0, 1, 2, cc);
            a64::cset(buf, is64, 0, cc);
        }
    }
    a64::mov_sp(buf, 0, SP);
    a64::mov_sp(buf, SP, 0);
    a64::sub_sp_reg(buf, 9);
    for &v in &[
        0u64,
        42,
        0xffff_0000,
        0x0001_0000_0000_002a,
        0x1234_5678_9abc_def0,
        u64::MAX,
    ] {
        a64::mov_imm64(buf, 3, v);
    }
    for &(rd, rn) in &[(0u8, 1u8), (19, 28)] {
        for &fs in &[1u32, 2, 4, 8] {
            a64::sxt(buf, fs, rd, rn);
            a64::uxt(buf, fs, rd, rn);
        }
    }

    // loads & stores: scaled, unscaled, fp, sign-extending, pairs
    for &size in &[1u32, 2, 4, 8] {
        for &off in &[0i32, 8, 16, 255, 256, 4088, -8, -255] {
            a64::ldr(buf, size, 0, SP, off);
            a64::str(buf, size, 0, FP, off);
            if size <= 4 {
                a64::ldrs(buf, size, 1, FP, off);
            }
        }
    }
    for &size in &[4u32, 8] {
        for &off in &[0i32, 8, 255, -8] {
            a64::ldr_fp(buf, size, 0, SP, off);
            a64::str_fp(buf, size, 0, FP, off);
        }
    }
    a64::stp_pre(buf, FP, LR, SP, -16);
    a64::ldp_post(buf, FP, LR, SP, 16);

    // branches forward and backward
    let back = buf.new_label();
    buf.bind_label(back);
    a64::nop(buf);
    let fwd = buf.new_label();
    a64::b_label(buf, fwd);
    a64::b_label(buf, back);
    for &cc in &conds {
        a64::bcond_label(buf, cc, fwd);
        a64::bcond_label(buf, cc, back);
    }
    for &is64 in &[false, true] {
        for &nz in &[false, true] {
            a64::cbz_label(buf, is64, nz, 3, fwd);
            a64::cbz_label(buf, is64, nz, 3, back);
        }
    }
    buf.bind_label(fwd);
    let sym = buf.declare_symbol("callee", SymbolBinding::Global, true);
    a64::bl_sym(buf, sym);
    a64::blr(buf, 9);
    a64::br(buf, 10);
    a64::ret(buf);
    a64::nop(buf);

    // scalar floating point
    for &size in &[4u32, 8] {
        for &(rd, rn, rm) in &[(0u8, 1u8, 2u8), (15, 30, 7)] {
            a64::fmov_rr(buf, size, rd, rn);
            for op in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div] {
                a64::fp_arith(buf, size, op, rd, rn, rm);
            }
            a64::fneg(buf, size, rd, rn);
            a64::fcmp(buf, size, rn, rm);
        }
        for &i64_ in &[false, true] {
            a64::scvtf(buf, size, i64_, 0, 1);
            a64::fcvtzs(buf, size, i64_, 0, 1);
        }
        a64::fcvt(buf, size, 0, 1);
        a64::fmov_from_gp(buf, size, 0, 1);
    }
    let _ = ZR;

    buf.resolve_fixups().expect("all labels bound");
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + bytes.len() / 16);
    for (i, b) in bytes.iter().enumerate() {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
        if i % 32 == 31 {
            s.push('\n');
        }
    }
    if !s.ends_with('\n') {
        s.push('\n');
    }
    s
}

fn check_golden(name: &str, text: &[u8]) {
    let path = format!("{}/tests/{name}", env!("CARGO_MANIFEST_DIR"));
    let hex = to_hex(text);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &hex).expect("write golden");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).expect("golden file missing; run with BLESS_GOLDEN=1");
    assert_eq!(
        hex, expected,
        "{name}: emitted bytes differ from the seed encoders"
    );
}

#[test]
fn x64_matches_seed_bytes() {
    let mut buf = CodeBuffer::new();
    x64_catalogue(&mut buf);
    check_golden("golden_x64.hex", buf.text());
}

#[test]
fn a64_matches_seed_bytes() {
    let mut buf = CodeBuffer::new();
    a64_catalogue(&mut buf);
    check_golden("golden_a64.hex", buf.text());
}

// ---- fixup edge cases -------------------------------------------------------

/// A forward conditional branch whose target lands exactly on the ±1 MiB
/// branch19 boundary must resolve; one word further must error.
#[test]
fn a64_branch19_boundary() {
    // In range: displacement of exactly (1 << 18) - 1 words forward.
    let mut buf = CodeBuffer::new();
    let l = buf.new_label();
    a64::bcond_label(&mut buf, a64::Cond::Eq, l);
    for _ in 0..(1 << 18) - 2 {
        a64::nop(&mut buf);
    }
    buf.bind_label(l);
    a64::ret(&mut buf);
    buf.resolve_fixups().expect("boundary displacement fits");
    let insn = u32::from_le_bytes(buf.text()[0..4].try_into().unwrap());
    assert_eq!((insn >> 5) & 0x7ffff, (1 << 18) - 1);

    // Out of range: one word further.
    let mut buf = CodeBuffer::new();
    let l = buf.new_label();
    a64::bcond_label(&mut buf, a64::Cond::Eq, l);
    for _ in 0..(1 << 18) - 1 {
        a64::nop(&mut buf);
    }
    buf.bind_label(l);
    a64::ret(&mut buf);
    assert!(buf.resolve_fixups().is_err(), "1 MiB + 4 must overflow");
}

/// Backward branches to bound labels must produce exactly the same bytes as
/// the label + fixup + resolve path.
#[test]
fn back_branch_immediate_equals_fixup_resolution() {
    // x86-64: jmp/jcc to an already-bound label.
    let mut direct = CodeBuffer::new();
    let l = direct.new_label();
    direct.bind_label(l);
    x64::nops(&mut direct, 2);
    x64::jmp_label(&mut direct, l);
    x64::jcc_label(&mut direct, Cond::NE, l);
    direct.resolve_fixups().unwrap();

    let mut via_fixup = CodeBuffer::new();
    via_fixup.emit_u8(0x90);
    via_fixup.emit_u8(0x90);
    via_fixup.emit_u8(0xe9);
    let off = via_fixup.text_offset();
    via_fixup.emit_u32(0);
    let l2 = via_fixup.new_label();
    via_fixup.add_fixup(off, l2, FixupKind::X64Rel32);
    via_fixup.emit_u8(0x0f);
    via_fixup.emit_u8(0x80 + Cond::NE as u8);
    let off = via_fixup.text_offset();
    via_fixup.emit_u32(0);
    via_fixup.add_fixup(off, l2, FixupKind::X64Rel32);
    // bind retroactively at offset 0 by resolving against a label bound there
    let mut reference = CodeBuffer::new();
    let l3 = reference.new_label();
    reference.bind_label(l3);
    reference.emit_u8(0x90);
    reference.emit_u8(0x90);
    reference.emit_u8(0xe9);
    let off = reference.text_offset();
    reference.emit_u32(0);
    reference.add_fixup(off, l3, FixupKind::X64Rel32);
    reference.emit_u8(0x0f);
    reference.emit_u8(0x80 + Cond::NE as u8);
    let off = reference.text_offset();
    reference.emit_u32(0);
    reference.add_fixup(off, l3, FixupKind::X64Rel32);
    reference.resolve_fixups().unwrap();
    assert_eq!(direct.text(), reference.text());
    let _ = via_fixup;

    // AArch64: b / b.cond / cbz to an already-bound label.
    let mut direct = CodeBuffer::new();
    let l = direct.new_label();
    direct.bind_label(l);
    a64::nop(&mut direct);
    a64::b_label(&mut direct, l);
    a64::bcond_label(&mut direct, a64::Cond::Lt, l);
    a64::cbz_label(&mut direct, true, false, 5, l);
    direct.resolve_fixups().unwrap();

    let mut reference = CodeBuffer::new();
    let l = reference.new_label();
    reference.bind_label(l);
    reference.emit_u32(0xd503_201f);
    let off = reference.text_offset();
    reference.emit_u32(0x1400_0000);
    reference.add_fixup(off, l, FixupKind::A64Branch26);
    let off = reference.text_offset();
    reference.emit_u32(0x5400_0000 | a64::Cond::Lt as u32);
    reference.add_fixup(off, l, FixupKind::A64Branch19);
    let off = reference.text_offset();
    reference.emit_u32((1 << 31) | 0x3400_0000 | 5);
    reference.add_fixup(off, l, FixupKind::A64Branch19);
    reference.resolve_fixups().unwrap();
    assert_eq!(direct.text(), reference.text());
}
