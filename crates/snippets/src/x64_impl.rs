//! Snippet encoders for x86-64.
//!
//! These perform the operand-dependent decisions the paper's generated
//! snippet encoders make: folding immediates into instructions, using memory
//! operands for spilled values and frame-relative ones for stack variables,
//! reusing a dying operand's register for the result, satisfying
//! fixed-register constraints (division, shifts), and strength-reducing
//! multiplication and division by constants.

use crate::magic::{signed_magic, unsigned_magic};
use crate::ops::{AsmAddr, AsmOperand, BinOp, FBinOp, FCmp, ICmp, ShiftKind};
use crate::{ResultPart, SnippetEmitter};
use tpde_core::adapter::{BlockRef, IrAdapter};
use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::FuncCodeGen;
use tpde_core::error::Result;
use tpde_core::regs::{Reg, RegBank, RegSet};
use tpde_core::target::Target;
use tpde_enc::x64::{self, Alu, Cond, Gp, Mem, Shift, Xmm};
use tpde_enc::X64Target;

type Cg<'a, 'b, A> = &'a mut FuncCodeGen<'b, A, X64Target>;

fn gp(i: u8) -> Reg {
    Reg::new(RegBank::GP, i)
}

fn op_as_reg<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    op: &AsmOperand,
    bank: RegBank,
    size: u32,
) -> Result<Reg> {
    match op {
        AsmOperand::Val(p) => cg.val_as_reg(p),
        AsmOperand::Imm(v) => {
            let r = cg.alloc_scratch(bank)?;
            cg.target.emit_const(cg.buf, bank, size.max(4), r, *v);
            Ok(r)
        }
    }
}

fn op_as_reg_in<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    op: &AsmOperand,
    bank: RegBank,
    size: u32,
    allowed: RegSet,
) -> Result<Reg> {
    match op {
        AsmOperand::Val(p) => cg.val_as_reg_in(p, allowed),
        AsmOperand::Imm(v) => {
            let r = cg.alloc_scratch_in(bank, allowed)?;
            cg.target.emit_const(cg.buf, bank, size.max(4), r, *v);
            Ok(r)
        }
    }
}

/// Memory location of an operand if it is a spilled value (no register).
fn op_mem<A: IrAdapter>(cg: Cg<'_, '_, A>, op: &AsmOperand) -> Option<Mem> {
    match op {
        AsmOperand::Val(p) => cg.val_mem_loc(p).map(|off| Mem::base_disp(Gp::RBP, off)),
        AsmOperand::Imm(_) => None,
    }
}

/// The memory operand of `addr`: frame-relative for the address of a
/// static stack variable, otherwise through the base address in a register;
/// an index goes in a register too.
fn addr_mem<A: IrAdapter>(cg: Cg<'_, '_, A>, addr: &AsmAddr) -> Result<Mem> {
    let frame_disp = match &addr.base {
        AsmOperand::Val(p) => cg
            .val_stack_addr(p)
            .and_then(|off| off.checked_add(addr.disp)),
        AsmOperand::Imm(_) => None,
    };
    let (base, disp) = match frame_disp {
        Some(disp) => (Gp::RBP, disp),
        None => (
            Gp::from(op_as_reg(cg, &addr.base, RegBank::GP, 8)?),
            addr.disp,
        ),
    };
    let index = match &addr.index {
        Some((i, scale)) => Some((Gp::from(op_as_reg(cg, i, RegBank::GP, 8)?), *scale)),
        None => None,
    };
    Ok(Mem { base, index, disp })
}

/// Allocates the result register, reusing the operand's register if this is
/// its last use, or materializing immediates directly.
fn result_from<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    res: ResultPart,
    op: &AsmOperand,
    bank: RegBank,
    size: u32,
) -> Result<Reg> {
    match op {
        AsmOperand::Val(p) if !p.is_const => cg.result_reuse(res.0, res.1, p),
        _ => {
            let dst = cg.result_reg(res.0, res.1)?;
            let v = op.as_imm().unwrap_or(0);
            cg.target.emit_const(cg.buf, bank, size.max(4), dst, v);
            Ok(dst)
        }
    }
}

/// `dst = lhs op rhs` as one non-destructive instruction when `lhs` is in a
/// register and lives on, so that [`result_from`] would copy it first:
/// `lea` for an add or subtract of an immediate and for an add of a
/// register, three-operand `imul` for a multiply by an immediate. Returns
/// `false`, having emitted nothing, for every other shape.
fn bin_non_destructive<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    op: BinOp,
    osize: u32,
    res: ResultPart,
    lhs: &AsmOperand,
    rhs: &AsmOperand,
) -> Result<bool> {
    let AsmOperand::Val(p) = lhs else {
        return Ok(false);
    };
    if p.is_const || cg.val_cur_reg(p).is_none() || cg.val_is_last_use(p) {
        return Ok(false);
    }
    let imm = rhs.as_imm32(osize);
    match (op, imm) {
        (BinOp::Add | BinOp::Mul, Some(_)) => {}
        (BinOp::Sub, Some(imm)) if imm != i32::MIN => {}
        (BinOp::Add, None) if op_mem(cg, rhs).is_none() => {}
        _ => return Ok(false),
    }
    let src = Gp::from(cg.val_as_reg(p)?);
    let mem = match (op, imm) {
        (BinOp::Mul, Some(imm)) => {
            let dst = Gp::from(cg.result_reg(res.0, res.1)?);
            x64::imul_rri(cg.buf, osize, dst, src, imm);
            return Ok(true);
        }
        (BinOp::Add, Some(imm)) => Mem::base_disp(src, imm),
        (BinOp::Sub, Some(imm)) => Mem::base_disp(src, -imm),
        _ => Mem::sib(src, Gp::from(op_as_reg(cg, rhs, RegBank::GP, osize)?), 1, 0),
    };
    let dst = Gp::from(cg.result_reg(res.0, res.1)?);
    x64::lea(cg.buf, osize, dst, mem);
    Ok(true)
}

/// The constant bits of an operand as a `size`-byte value, if it is one.
fn const_bits(op: &AsmOperand, size: u32) -> Option<u64> {
    let v = op.as_imm()?;
    Some(if size >= 8 {
        v
    } else {
        v & ((1 << (size * 8)) - 1)
    })
}

/// `x / d` or `x % d` for a constant `d` of a 32- or 64-bit operation,
/// without a `div`: shift and mask for powers of two, multiply-high by a
/// magic number otherwise. Returns `false`, having emitted nothing, for the
/// divisors whose `div`/`idiv` behaviour (traps included) must stay: 0 and
/// signed -1.
fn divrem_by_const<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    signed: bool,
    rem: bool,
    size: u32,
    res: ResultPart,
    lhs: &AsmOperand,
    d: u64,
) -> Result<bool> {
    let bits = size * 8;
    let ds = ((d << (64 - bits)) as i64) >> (64 - bits); // sign-extended
    let ad = if signed { ds.unsigned_abs() } else { d };
    if d == 0 || (signed && ds == -1) {
        return Ok(false);
    }
    if ad.is_power_of_two() {
        let k = ad.trailing_zeros() as u8;
        if !signed || k == 0 {
            let dst = Gp::from(result_from(cg, res, lhs, RegBank::GP, size)?);
            match (rem, k) {
                (false, 0) => {}
                (false, _) => x64::shift_ri(cg.buf, Shift::Shr, size, dst, k),
                (true, _) => mask_low_bits(cg.buf, size, dst, k),
            }
            return Ok(true);
        }
        // bias = x < 0 ? 2^k - 1 : 0, so that the shift rounds to zero
        let x = Gp::from(op_as_reg(cg, lhs, RegBank::GP, size)?);
        let bias = Gp::from(cg.alloc_scratch(RegBank::GP)?);
        x64::mov_rr(cg.buf, size, bias, x);
        if k > 1 {
            x64::shift_ri(cg.buf, Shift::Sar, size, bias, bits as u8 - 1);
        }
        x64::shift_ri(cg.buf, Shift::Shr, size, bias, bits as u8 - k);
        if rem {
            // x - ((x + bias) & -2^k)
            x64::alu_rr(cg.buf, Alu::Add, size, bias, x);
            clear_low_bits(cg.buf, size, bias, k);
            let dst = Gp::from(result_from(cg, res, lhs, RegBank::GP, size)?);
            x64::alu_rr(cg.buf, Alu::Sub, size, dst, bias);
        } else {
            let dst = Gp::from(result_from(cg, res, lhs, RegBank::GP, size)?);
            x64::alu_rr(cg.buf, Alu::Add, size, dst, bias);
            x64::shift_ri(cg.buf, Shift::Sar, size, dst, k);
            if ds < 0 {
                x64::neg(cg.buf, size, dst);
            }
        }
        return Ok(true);
    }

    // the dividend stays intact outside rax/rdx, which the multiply takes
    let (rax, rdx) = (gp(0), gp(2));
    let allowed = cg.allocatable_set(RegBank::GP, &[rax, rdx]);
    let x = Gp::from(op_as_reg_in(cg, lhs, RegBank::GP, size, allowed)?);
    cg.alloc_scratch_in(RegBank::GP, RegSet::from_regs([rax]))?;
    cg.alloc_scratch_in(RegBank::GP, RegSet::from_regs([rdx]))?;
    let q = if signed {
        let mg = signed_magic(ds, bits);
        x64::mov_ri(
            cg.buf,
            size,
            Gp::RAX,
            mg.m as u64 & (u64::MAX >> (64 - bits)),
        );
        x64::imul_wide(cg.buf, size, x);
        if ds > 0 && mg.m < 0 {
            x64::alu_rr(cg.buf, Alu::Add, size, Gp::RDX, x);
        } else if ds < 0 && mg.m > 0 {
            x64::alu_rr(cg.buf, Alu::Sub, size, Gp::RDX, x);
        }
        if mg.shift > 0 {
            x64::shift_ri(cg.buf, Shift::Sar, size, Gp::RDX, mg.shift as u8);
        }
        // round towards zero: add one to a negative quotient
        x64::mov_rr(cg.buf, size, Gp::RAX, Gp::RDX);
        x64::shift_ri(cg.buf, Shift::Shr, size, Gp::RAX, bits as u8 - 1);
        x64::alu_rr(cg.buf, Alu::Add, size, Gp::RDX, Gp::RAX);
        Gp::RDX
    } else {
        let mg = unsigned_magic(d, bits);
        x64::mov_ri(cg.buf, size, Gp::RAX, mg.m);
        x64::mul_unsigned(cg.buf, size, x);
        if mg.add {
            // (t + ((x - t) >> 1)) >> (shift - 1), t = mulhi in rdx
            x64::mov_rr(cg.buf, size, Gp::RAX, x);
            x64::alu_rr(cg.buf, Alu::Sub, size, Gp::RAX, Gp::RDX);
            x64::shift_ri(cg.buf, Shift::Shr, size, Gp::RAX, 1);
            x64::alu_rr(cg.buf, Alu::Add, size, Gp::RAX, Gp::RDX);
            if mg.shift > 1 {
                x64::shift_ri(cg.buf, Shift::Shr, size, Gp::RAX, mg.shift as u8 - 1);
            }
            Gp::RAX
        } else {
            if mg.shift > 0 {
                x64::shift_ri(cg.buf, Shift::Shr, size, Gp::RDX, mg.shift as u8);
            }
            Gp::RDX
        }
    };
    if !rem {
        cg.take_reg_for_result(res.0, res.1, gp(q.0))?;
        return Ok(true);
    }
    // x - q*d, in the other one of rax/rdx
    let r = if q == Gp::RAX { Gp::RDX } else { Gp::RAX };
    match d {
        3 | 5 | 9 => x64::lea(cg.buf, 8, q, Mem::sib(q, q, d as u8 - 1, 0)),
        _ => match i32::try_from(ds) {
            Ok(imm) => x64::imul_rri(cg.buf, size, q, q, imm),
            Err(_) => {
                x64::mov_ri(cg.buf, size, r, d);
                x64::imul_rr(cg.buf, size, q, r);
            }
        },
    }
    x64::mov_rr(cg.buf, size, r, x);
    x64::alu_rr(cg.buf, Alu::Sub, size, r, q);
    cg.take_reg_for_result(res.0, res.1, gp(r.0))?;
    Ok(true)
}

/// `dst &= 2^k - 1` for a `size`-byte value.
fn mask_low_bits(buf: &mut CodeBuffer, size: u32, dst: Gp, k: u8) {
    match k {
        0..=31 => x64::alu_ri(buf, Alu::And, size, dst, ((1u32 << k) - 1) as i32),
        32 => x64::mov_rr(buf, 4, dst, dst),
        _ => {
            x64::shift_ri(buf, Shift::Shl, size, dst, 64 - k);
            x64::shift_ri(buf, Shift::Shr, size, dst, 64 - k);
        }
    }
}

/// `dst &= -2^k` for a `size`-byte value.
fn clear_low_bits(buf: &mut CodeBuffer, size: u32, dst: Gp, k: u8) {
    if k <= 31 {
        x64::alu_ri(buf, Alu::And, size, dst, (u32::MAX << k) as i32);
    } else {
        x64::shift_ri(buf, Shift::Shr, size, dst, k);
        x64::shift_ri(buf, Shift::Shl, size, dst, k);
    }
}

fn icmp_cond(cc: ICmp) -> Cond {
    match cc {
        ICmp::Eq => Cond::E,
        ICmp::Ne => Cond::NE,
        ICmp::Slt => Cond::L,
        ICmp::Sle => Cond::LE,
        ICmp::Sgt => Cond::G,
        ICmp::Sge => Cond::GE,
        ICmp::Ult => Cond::B,
        ICmp::Ule => Cond::BE,
        ICmp::Ugt => Cond::A,
        ICmp::Uge => Cond::AE,
    }
}

fn fcmp_cond(cc: FCmp) -> Cond {
    match cc {
        FCmp::Oeq => Cond::E,
        FCmp::One => Cond::NE,
        FCmp::Olt => Cond::B,
        FCmp::Ole => Cond::BE,
        FCmp::Ogt => Cond::A,
        FCmp::Oge => Cond::AE,
    }
}

/// Emits a comparison of `lhs` and `rhs`, returning the condition to test
/// (which may differ from `cc` if the operands were swapped).
fn emit_icmp<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    mut cc: ICmp,
    size: u32,
    lhs: &AsmOperand,
    rhs: &AsmOperand,
) -> Result<Cond> {
    let (lhs, rhs) = if lhs.as_imm().is_some() && rhs.as_imm().is_none() {
        cc = cc.swapped();
        (rhs, lhs)
    } else {
        (lhs, rhs)
    };
    let lreg = Gp::from(op_as_reg(cg, lhs, RegBank::GP, size)?);
    if let Some(imm) = rhs.as_imm32(size) {
        x64::alu_ri(cg.buf, Alu::Cmp, size, lreg, imm);
    } else if let Some(mem) = op_mem(cg, rhs) {
        x64::alu_rm(cg.buf, Alu::Cmp, size, lreg, mem);
    } else {
        let rreg = Gp::from(op_as_reg(cg, rhs, RegBank::GP, size)?);
        x64::alu_rr(cg.buf, Alu::Cmp, size, lreg, rreg);
    }
    Ok(icmp_cond(cc))
}

/// Ends a block with a branch to `if_true` on `cond` and to `if_false`
/// otherwise (the callers have turned a branch whose two targets are the
/// same block into a jump, without a compare), as one `jcc` and a fall-through where the layout allows:
/// when `if_true` is the next block the condition is inverted.
fn cond_branch<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    cond: Cond,
    if_true: BlockRef,
    if_false: BlockRef,
) -> Result<()> {
    cg.spill_before_branch()?;
    let (cond, taken, other) = if cg.is_next_block(if_true) && !cg.is_next_block(if_false) {
        (cond.invert(), if_false, if_true)
    } else {
        (cond, if_true, if_false)
    };
    let label = cg.branch_target(taken)?;
    x64::jcc_label(cg.buf, cond, label);
    cg.terminator_fallthrough(other)
}

impl SnippetEmitter for X64Target {
    const INDEXED_ADDR: bool = true;
    const LAZY_STACK_LOADS: bool = true;

    fn enc_bin<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        op: BinOp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let osize = size.max(4);
        // prefer the constant on the right for commutative operations
        let (lhs, rhs) = if op.commutative() && lhs.as_imm().is_some() && rhs.as_imm().is_none() {
            (rhs, lhs)
        } else {
            (lhs, rhs)
        };
        if let Some(d) = const_bits(rhs, size).filter(|d| op == BinOp::Mul && d.is_power_of_two()) {
            let dst = Gp::from(result_from(cg, res, lhs, RegBank::GP, osize)?);
            if d > 1 {
                x64::shift_ri(cg.buf, Shift::Shl, osize, dst, d.trailing_zeros() as u8);
            }
            return Ok(());
        }
        if bin_non_destructive(cg, op, osize, res, lhs, rhs)? {
            return Ok(());
        }
        // make sure the rhs is loaded before the result possibly reuses lhs
        let rhs_reg = if rhs.as_imm32(osize).is_none() && op_mem(cg, rhs).is_none() {
            Some(op_as_reg(cg, rhs, RegBank::GP, osize)?)
        } else {
            None
        };
        let dst = Gp::from(result_from(cg, res, lhs, RegBank::GP, osize)?);
        match op {
            BinOp::Mul => {
                if let Some(imm) = rhs.as_imm32(osize) {
                    x64::imul_rri(cg.buf, osize, dst, dst, imm);
                } else if let Some(r) = rhs_reg {
                    x64::imul_rr(cg.buf, osize, dst, Gp::from(r));
                } else {
                    let r = op_as_reg(cg, rhs, RegBank::GP, osize)?;
                    x64::imul_rr(cg.buf, osize, dst, Gp::from(r));
                }
            }
            _ => {
                let alu = match op {
                    BinOp::Add => Alu::Add,
                    BinOp::Sub => Alu::Sub,
                    BinOp::And => Alu::And,
                    BinOp::Or => Alu::Or,
                    BinOp::Xor => Alu::Xor,
                    BinOp::Mul => unreachable!(),
                };
                if let Some(imm) = rhs.as_imm32(osize) {
                    x64::alu_ri(cg.buf, alu, osize, dst, imm);
                } else if let Some(mem) = op_mem(cg, rhs) {
                    x64::alu_rm(cg.buf, alu, osize, dst, mem);
                } else if let Some(r) = rhs_reg {
                    x64::alu_rr(cg.buf, alu, osize, dst, Gp::from(r));
                } else {
                    let r = op_as_reg(cg, rhs, RegBank::GP, osize)?;
                    x64::alu_rr(cg.buf, alu, osize, dst, Gp::from(r));
                }
            }
        }
        Ok(())
    }

    fn enc_divrem<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        signed: bool,
        rem: bool,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        if let Some(d) = const_bits(rhs, size).filter(|_| size >= 4) {
            if divrem_by_const(cg, signed, rem, size, res, lhs, d)? {
                return Ok(());
            }
        }
        let osize = size.max(4);
        let rax = gp(0);
        let rdx = gp(2);
        // divisor anywhere but rax/rdx
        let allowed = cg.allocatable_set(RegBank::GP, &[rax, rdx]);
        let rhs_reg = op_as_reg_in(cg, rhs, RegBank::GP, osize, allowed)?;
        // dividend in rax; keep a memory copy if the value lives on
        if let AsmOperand::Val(p) = lhs {
            cg.ensure_spilled(p)?;
        }
        let lhs_reg = op_as_reg_in(cg, lhs, RegBank::GP, osize, RegSet::from_regs([rax]))?;
        debug_assert_eq!(lhs_reg, rax);
        // rdx is clobbered by the division
        let _rdx_scratch = cg.alloc_scratch_in(RegBank::GP, RegSet::from_regs([rdx]))?;
        if signed {
            x64::cqo(cg.buf, osize);
            x64::idiv(cg.buf, osize, Gp::from(rhs_reg));
        } else {
            x64::alu_rr(cg.buf, Alu::Xor, 4, Gp::RDX, Gp::RDX);
            x64::div(cg.buf, osize, Gp::from(rhs_reg));
        }
        // rax/rdx now hold quotient/remainder; detach the dividend value
        cg.forget_reg(rax);
        let out = if rem { rdx } else { rax };
        cg.take_reg_for_result(res.0, res.1, out)
    }

    fn enc_shift<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        kind: ShiftKind,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let osize = size.max(4);
        let skind = match kind {
            ShiftKind::Shl => Shift::Shl,
            ShiftKind::LShr => Shift::Shr,
            ShiftKind::AShr => Shift::Sar,
        };
        if let Some(imm) = rhs.as_imm() {
            let dst = Gp::from(result_from(cg, res, lhs, RegBank::GP, osize)?);
            x64::shift_ri(
                cg.buf,
                skind,
                osize,
                dst,
                (imm as u8) & (osize as u8 * 8 - 1),
            );
            return Ok(());
        }
        let rcx = gp(1);
        let amt = op_as_reg_in(cg, rhs, RegBank::GP, osize, RegSet::from_regs([rcx]))?;
        debug_assert_eq!(amt, rcx);
        // make sure the result register is not rcx
        let dst = match lhs {
            AsmOperand::Val(p) if !p.is_const && cg.val_cur_reg(p) != Some(rcx) => {
                cg.result_reuse(res.0, res.1, p)?
            }
            _ => {
                let dst = cg.result_reg(res.0, res.1)?;
                let src = op_as_reg(cg, lhs, RegBank::GP, osize)?;
                cg.target.emit_mov_rr(cg.buf, RegBank::GP, 8, dst, src);
                dst
            }
        };
        x64::shift_cl(cg.buf, skind, osize, Gp::from(dst));
        Ok(())
    }

    fn enc_icmp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        cc: ICmp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let cond = emit_icmp(cg, cc, size, lhs, rhs)?;
        let dst = Gp::from(cg.result_reg(res.0, res.1)?);
        x64::setcc(cg.buf, cond, dst);
        x64::movzx_rr(cg.buf, dst, dst, 1);
        Ok(())
    }

    fn enc_icmp_branch<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        cc: ICmp,
        size: u32,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
        if_true: BlockRef,
        if_false: BlockRef,
    ) -> Result<()> {
        if if_true == if_false {
            return Self::enc_jump(cg, if_true);
        }
        let cond = emit_icmp(cg, cc, size, lhs, rhs)?;
        cond_branch(cg, cond, if_true, if_false)
    }

    fn enc_branch_nonzero<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        val: &AsmOperand,
        branch_if_zero: bool,
        if_true: BlockRef,
        if_false: BlockRef,
    ) -> Result<()> {
        if if_true == if_false {
            return Self::enc_jump(cg, if_true);
        }
        let reg = Gp::from(op_as_reg(cg, val, RegBank::GP, size)?);
        x64::test_rr(cg.buf, size.max(4), reg, reg);
        let cond = if branch_if_zero { Cond::E } else { Cond::NE };
        cond_branch(cg, cond, if_true, if_false)
    }

    fn enc_load<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        mem_size: u32,
        sign_extend: bool,
        fp: bool,
        res: ResultPart,
        addr: &AsmAddr,
    ) -> Result<()> {
        let mem = addr_mem(cg, addr)?;
        if fp {
            let dst = Xmm::from(cg.result_reg(res.0, res.1)?);
            x64::fp_load(cg.buf, mem_size, dst, mem);
        } else {
            let dst = Gp::from(cg.result_reg(res.0, res.1)?);
            match (mem_size, sign_extend) {
                (8, _) => x64::mov_rm(cg.buf, 8, dst, mem),
                (4, false) => x64::mov_rm(cg.buf, 4, dst, mem),
                (4, true) => x64::movsx_rm(cg.buf, 8, dst, mem, 4),
                (s, false) => x64::movzx_rm(cg.buf, dst, mem, s),
                (s, true) => x64::movsx_rm(cg.buf, 8, dst, mem, s),
            }
        }
        Ok(())
    }

    fn enc_addr<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        res: ResultPart,
        addr: &AsmAddr,
    ) -> Result<()> {
        let mem = addr_mem(cg, addr)?;
        let dst = Gp::from(cg.result_reg(res.0, res.1)?);
        x64::lea(cg.buf, 8, dst, mem);
        Ok(())
    }

    fn enc_store<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        mem_size: u32,
        fp: bool,
        addr: &AsmAddr,
        value: &AsmOperand,
    ) -> Result<()> {
        let mem = addr_mem(cg, addr)?;
        if fp {
            let src = Xmm::from(op_as_reg(cg, value, RegBank::FP, mem_size)?);
            x64::fp_store(cg.buf, mem_size, mem, src);
        } else if let Some(imm) = value.as_imm32(mem_size) {
            x64::mov_mi(cg.buf, mem_size, mem, imm);
        } else {
            let src = Gp::from(op_as_reg(cg, value, RegBank::GP, mem_size)?);
            x64::mov_mr(cg.buf, mem_size, mem, src);
        }
        Ok(())
    }

    fn enc_ext<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        signed: bool,
        from_size: u32,
        to_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = Gp::from(op_as_reg(cg, src, RegBank::GP, from_size)?);
        let dst = Gp::from(cg.result_reg(res.0, res.1)?);
        if to_size <= from_size {
            // truncation: move, a 32-bit move clears the upper bits
            x64::mov_rr(cg.buf, to_size.max(4), dst, sreg);
        } else if signed {
            x64::movsx_rr(cg.buf, to_size, dst, sreg, from_size);
        } else if from_size == 4 {
            x64::mov_rr(cg.buf, 4, dst, sreg);
        } else {
            x64::movzx_rr(cg.buf, dst, sreg, from_size);
        }
        Ok(())
    }

    fn enc_select<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        res: ResultPart,
        cond: &AsmOperand,
        tval: &AsmOperand,
        fval: &AsmOperand,
    ) -> Result<()> {
        let osize = size.max(4);
        let creg = Gp::from(op_as_reg(cg, cond, RegBank::GP, 1)?);
        let freg = op_as_reg(cg, fval, RegBank::GP, osize)?;
        let dst = Gp::from(result_from(cg, res, tval, RegBank::GP, osize)?);
        x64::test_rr(cg.buf, 4, creg, creg);
        x64::cmovcc(cg.buf, Cond::E, osize, dst, Gp::from(freg));
        Ok(())
    }

    fn enc_fbin<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        op: FBinOp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let opcode = match op {
            FBinOp::Add => 0x58,
            FBinOp::Sub => 0x5c,
            FBinOp::Mul => 0x59,
            FBinOp::Div => 0x5e,
        };
        let rhs_mem = op_mem(cg, rhs);
        let rhs_reg = if rhs_mem.is_none() {
            Some(op_as_reg(cg, rhs, RegBank::FP, size)?)
        } else {
            None
        };
        let dst = match lhs {
            AsmOperand::Val(p) if !p.is_const => Xmm::from(cg.result_reuse(res.0, res.1, p)?),
            _ => {
                let dst = cg.result_reg(res.0, res.1)?;
                let v = lhs.as_imm().unwrap_or(0);
                cg.target.emit_const(cg.buf, RegBank::FP, size, dst, v);
                Xmm::from(dst)
            }
        };
        if let Some(mem) = rhs_mem {
            x64::sse_rm(
                cg.buf,
                if size == 4 { 0xf3 } else { 0xf2 },
                opcode,
                dst,
                mem,
            );
        } else {
            x64::fp_arith(cg.buf, size, opcode, dst, Xmm::from(rhs_reg.unwrap()));
        }
        Ok(())
    }

    fn enc_fcmp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        cc: FCmp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let lreg = Xmm::from(op_as_reg(cg, lhs, RegBank::FP, size)?);
        let rreg = Xmm::from(op_as_reg(cg, rhs, RegBank::FP, size)?);
        x64::fp_ucomis(cg.buf, size, lreg, rreg);
        let dst = Gp::from(cg.result_reg(res.0, res.1)?);
        x64::setcc(cg.buf, fcmp_cond(cc), dst);
        x64::movzx_rr(cg.buf, dst, dst, 1);
        Ok(())
    }

    fn enc_fneg<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sign_bit = if size == 4 { 1u64 << 31 } else { 1u64 << 63 };
        let dst = match src {
            AsmOperand::Val(p) if !p.is_const => Xmm::from(cg.result_reuse(res.0, res.1, p)?),
            _ => {
                let dst = cg.result_reg(res.0, res.1)?;
                cg.target
                    .emit_const(cg.buf, RegBank::FP, size, dst, src.as_imm().unwrap_or(0));
                Xmm::from(dst)
            }
        };
        let mask = cg.alloc_scratch(RegBank::FP)?;
        cg.target
            .emit_const(cg.buf, RegBank::FP, size, mask, sign_bit);
        x64::fp_xor(cg.buf, size, dst, Xmm::from(mask));
        Ok(())
    }

    fn enc_int_to_fp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        int_size: u32,
        fp_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = Gp::from(op_as_reg(cg, src, RegBank::GP, int_size)?);
        let dst = Xmm::from(cg.result_reg(res.0, res.1)?);
        x64::cvt_int_to_fp(cg.buf, fp_size, int_size.max(4), dst, sreg);
        Ok(())
    }

    fn enc_fp_to_int<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        fp_size: u32,
        int_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = Xmm::from(op_as_reg(cg, src, RegBank::FP, fp_size)?);
        let dst = Gp::from(cg.result_reg(res.0, res.1)?);
        x64::cvt_fp_to_int(cg.buf, fp_size, int_size.max(4), dst, sreg);
        Ok(())
    }

    fn enc_fp_convert<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        _from_size: u32,
        to_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = Xmm::from(op_as_reg(cg, src, RegBank::FP, 8)?);
        let dst = Xmm::from(cg.result_reg(res.0, res.1)?);
        x64::cvt_fp_to_fp(cg.buf, to_size, dst, sreg);
        Ok(())
    }
}
