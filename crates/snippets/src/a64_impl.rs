//! Snippet encoders for AArch64.
//!
//! The AArch64 sequences are simpler than their x86-64 counterparts because
//! the ISA is three-operand and load/store based: operands are brought into
//! registers (folding small immediates into `add`/`sub`/`cmp` and shift
//! amounts), and there are no fixed-register constraints to satisfy.

use crate::ops::{AsmAddr, AsmOperand, BinOp, FBinOp, FCmp, ICmp, ShiftKind};
use crate::{ResultPart, SnippetEmitter};
use tpde_core::adapter::{BlockRef, IrAdapter};
use tpde_core::codegen::FuncCodeGen;
use tpde_core::error::{Error, Result};
use tpde_core::regs::RegBank;
use tpde_core::target::Target;
use tpde_enc::a64::{self, Cond, FpOp, ShiftOp};
use tpde_enc::A64Target;

type Cg<'a, 'b, A> = &'a mut FuncCodeGen<'b, A, A64Target>;

fn op_as_reg<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    op: &AsmOperand,
    bank: RegBank,
    size: u32,
) -> Result<u8> {
    match op {
        AsmOperand::Val(p) => Ok(cg.val_as_reg(p)?.index()),
        AsmOperand::Imm(v) => {
            let r = cg.alloc_scratch(bank)?;
            cg.target.emit_const(cg.buf, bank, size, r, *v);
            Ok(r.index())
        }
    }
}

/// The base register and offset of an address without an index (this
/// target does not set [`SnippetEmitter::INDEXED_ADDR`]).
fn addr_base<A: IrAdapter>(cg: Cg<'_, '_, A>, addr: &AsmAddr) -> Result<(u8, i32)> {
    if addr.index.is_some() {
        return Err(Error::Unsupported(
            "indexed memory operand on AArch64".into(),
        ));
    }
    Ok((op_as_reg(cg, &addr.base, RegBank::GP, 8)?, addr.disp))
}

fn result_reg<A: IrAdapter>(cg: Cg<'_, '_, A>, res: ResultPart) -> Result<u8> {
    Ok(cg.result_reg(res.0, res.1)?.index())
}

fn icmp_cond(cc: ICmp) -> Cond {
    match cc {
        ICmp::Eq => Cond::Eq,
        ICmp::Ne => Cond::Ne,
        ICmp::Slt => Cond::Lt,
        ICmp::Sle => Cond::Le,
        ICmp::Sgt => Cond::Gt,
        ICmp::Sge => Cond::Ge,
        ICmp::Ult => Cond::Lo,
        ICmp::Ule => Cond::Ls,
        ICmp::Ugt => Cond::Hi,
        ICmp::Uge => Cond::Hs,
    }
}

fn fcmp_cond(cc: FCmp) -> Cond {
    match cc {
        FCmp::Oeq => Cond::Eq,
        FCmp::One => Cond::Ne,
        FCmp::Olt => Cond::Mi,
        FCmp::Ole => Cond::Ls,
        FCmp::Ogt => Cond::Gt,
        FCmp::Oge => Cond::Ge,
    }
}

fn signed_pred(cc: ICmp) -> bool {
    matches!(cc, ICmp::Slt | ICmp::Sle | ICmp::Sgt | ICmp::Sge)
}

/// Emits the comparison and returns the condition code to branch/set on.
fn emit_icmp<A: IrAdapter>(
    cg: Cg<'_, '_, A>,
    cc: ICmp,
    size: u32,
    lhs: &AsmOperand,
    rhs: &AsmOperand,
) -> Result<Cond> {
    let is64 = size == 8;
    let mut lreg = op_as_reg(cg, lhs, RegBank::GP, size)?;
    // sub-word comparisons must normalize the upper bits first
    if size < 4 {
        let t = cg.alloc_scratch(RegBank::GP)?.index();
        if signed_pred(cc) {
            a64::sxt(cg.buf, size, t, lreg);
        } else {
            a64::uxt(cg.buf, size, t, lreg);
        }
        lreg = t;
    }
    if let Some(imm) = rhs.as_imm() {
        if size >= 4 && imm < 4096 {
            a64::cmp_imm(cg.buf, is64, lreg, imm as u32);
            return Ok(icmp_cond(cc));
        }
    }
    let mut rreg = op_as_reg(cg, rhs, RegBank::GP, size)?;
    if size < 4 {
        let t = cg.alloc_scratch(RegBank::GP)?.index();
        if signed_pred(cc) {
            a64::sxt(cg.buf, size, t, rreg);
        } else {
            a64::uxt(cg.buf, size, t, rreg);
        }
        rreg = t;
    }
    a64::cmp_rr(cg.buf, is64, lreg, rreg);
    Ok(icmp_cond(cc))
}

impl SnippetEmitter for A64Target {
    fn enc_bin<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        op: BinOp,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let is64 = size == 8;
        let (lhs, rhs) = if op.commutative() && lhs.as_imm().is_some() && rhs.as_imm().is_none() {
            (rhs, lhs)
        } else {
            (lhs, rhs)
        };
        let lreg = op_as_reg(cg, lhs, RegBank::GP, size)?;
        // small immediates fold into add/sub
        if let (Some(imm), BinOp::Add | BinOp::Sub) = (rhs.as_imm(), op) {
            if imm < 4096 {
                let dst = result_reg(cg, res)?;
                match op {
                    BinOp::Add => a64::add_imm(cg.buf, is64, dst, lreg, imm as u32),
                    _ => a64::sub_imm(cg.buf, is64, dst, lreg, imm as u32),
                }
                return Ok(());
            }
        }
        let rreg = op_as_reg(cg, rhs, RegBank::GP, size)?;
        let dst = result_reg(cg, res)?;
        match op {
            BinOp::Add => a64::add_rr(cg.buf, is64, dst, lreg, rreg),
            BinOp::Sub => a64::sub_rr(cg.buf, is64, dst, lreg, rreg),
            BinOp::And => a64::and_rr(cg.buf, is64, dst, lreg, rreg),
            BinOp::Or => a64::orr_rr(cg.buf, is64, dst, lreg, rreg),
            BinOp::Xor => a64::eor_rr(cg.buf, is64, dst, lreg, rreg),
            BinOp::Mul => a64::mul(cg.buf, is64, dst, lreg, rreg),
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
        let is64 = size == 8;
        let lreg = op_as_reg(cg, lhs, RegBank::GP, size)?;
        let rreg = op_as_reg(cg, rhs, RegBank::GP, size)?;
        if rem {
            let q = cg.alloc_scratch(RegBank::GP)?.index();
            if signed {
                a64::sdiv(cg.buf, is64, q, lreg, rreg);
            } else {
                a64::udiv(cg.buf, is64, q, lreg, rreg);
            }
            let dst = result_reg(cg, res)?;
            a64::msub(cg.buf, is64, dst, q, rreg, lreg);
        } else {
            let dst = result_reg(cg, res)?;
            if signed {
                a64::sdiv(cg.buf, is64, dst, lreg, rreg);
            } else {
                a64::udiv(cg.buf, is64, dst, lreg, rreg);
            }
        }
        Ok(())
    }

    fn enc_shift<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        kind: ShiftKind,
        size: u32,
        res: ResultPart,
        lhs: &AsmOperand,
        rhs: &AsmOperand,
    ) -> Result<()> {
        let is64 = size == 8;
        let lreg = op_as_reg(cg, lhs, RegBank::GP, size)?;
        if let Some(imm) = rhs.as_imm() {
            let dst = result_reg(cg, res)?;
            let sh = (imm as u8) & if is64 { 63 } else { 31 };
            match kind {
                ShiftKind::Shl => a64::lsl_imm(cg.buf, is64, dst, lreg, sh),
                ShiftKind::LShr => a64::lsr_imm(cg.buf, is64, dst, lreg, sh),
                ShiftKind::AShr => a64::asr_imm(cg.buf, is64, dst, lreg, sh),
            }
            return Ok(());
        }
        let rreg = op_as_reg(cg, rhs, RegBank::GP, size)?;
        let dst = result_reg(cg, res)?;
        let op = match kind {
            ShiftKind::Shl => ShiftOp::Lsl,
            ShiftKind::LShr => ShiftOp::Lsr,
            ShiftKind::AShr => ShiftOp::Asr,
        };
        a64::shift_rr(cg.buf, is64, op, dst, lreg, rreg);
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
        let dst = result_reg(cg, res)?;
        a64::cset(cg.buf, true, dst, cond);
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
        let cond = emit_icmp(cg, cc, size, lhs, rhs)?;
        cg.spill_before_branch()?;
        let taken = cg.branch_target(if_true)?;
        a64::bcond_label(cg.buf, cond, taken);
        cg.terminator_fallthrough(if_false)
    }

    fn enc_branch_nonzero<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        val: &AsmOperand,
        branch_if_zero: bool,
        if_true: BlockRef,
        if_false: BlockRef,
    ) -> Result<()> {
        let reg = op_as_reg(cg, val, RegBank::GP, size)?;
        cg.spill_before_branch()?;
        let taken = cg.branch_target(if_true)?;
        a64::cbz_label(cg.buf, size == 8, !branch_if_zero, reg, taken);
        cg.terminator_fallthrough(if_false)
    }

    fn enc_load<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        mem_size: u32,
        sign_extend: bool,
        fp: bool,
        res: ResultPart,
        addr: &AsmAddr,
    ) -> Result<()> {
        let (base, offset) = addr_base(cg, addr)?;
        let dst = result_reg(cg, res)?;
        if fp {
            a64::ldr_fp(cg.buf, mem_size, dst, base, offset);
        } else if sign_extend && mem_size < 8 {
            a64::ldrs(cg.buf, mem_size, dst, base, offset);
        } else {
            a64::ldr(cg.buf, mem_size, dst, base, offset);
        }
        Ok(())
    }

    fn enc_store<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        mem_size: u32,
        fp: bool,
        addr: &AsmAddr,
        value: &AsmOperand,
    ) -> Result<()> {
        let (base, offset) = addr_base(cg, addr)?;
        if fp {
            let src = op_as_reg(cg, value, RegBank::FP, mem_size)?;
            a64::str_fp(cg.buf, mem_size, src, base, offset);
        } else {
            let src = op_as_reg(cg, value, RegBank::GP, mem_size)?;
            a64::str(cg.buf, mem_size, src, base, offset);
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
        let sreg = op_as_reg(cg, src, RegBank::GP, from_size)?;
        let dst = result_reg(cg, res)?;
        if to_size <= from_size {
            a64::mov_rr(cg.buf, to_size == 8, dst, sreg);
        } else if signed {
            a64::sxt(cg.buf, from_size, dst, sreg);
        } else {
            a64::uxt(cg.buf, from_size.min(4), dst, sreg);
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
        let is64 = size == 8;
        let creg = op_as_reg(cg, cond, RegBank::GP, 1)?;
        let treg = op_as_reg(cg, tval, RegBank::GP, size)?;
        let freg = op_as_reg(cg, fval, RegBank::GP, size)?;
        let dst = result_reg(cg, res)?;
        a64::cmp_imm(cg.buf, false, creg, 0);
        a64::csel(cg.buf, is64, dst, treg, freg, Cond::Ne);
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
        let lreg = op_as_reg(cg, lhs, RegBank::FP, size)?;
        let rreg = op_as_reg(cg, rhs, RegBank::FP, size)?;
        let dst = result_reg(cg, res)?;
        let fop = match op {
            FBinOp::Add => FpOp::Add,
            FBinOp::Sub => FpOp::Sub,
            FBinOp::Mul => FpOp::Mul,
            FBinOp::Div => FpOp::Div,
        };
        a64::fp_arith(cg.buf, size, fop, dst, lreg, rreg);
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
        let lreg = op_as_reg(cg, lhs, RegBank::FP, size)?;
        let rreg = op_as_reg(cg, rhs, RegBank::FP, size)?;
        a64::fcmp(cg.buf, size, lreg, rreg);
        let dst = result_reg(cg, res)?;
        a64::cset(cg.buf, true, dst, fcmp_cond(cc));
        Ok(())
    }

    fn enc_fneg<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = op_as_reg(cg, src, RegBank::FP, size)?;
        let dst = result_reg(cg, res)?;
        a64::fneg(cg.buf, size, dst, sreg);
        Ok(())
    }

    fn enc_int_to_fp<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        int_size: u32,
        fp_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = op_as_reg(cg, src, RegBank::GP, int_size)?;
        let dst = result_reg(cg, res)?;
        a64::scvtf(cg.buf, fp_size, int_size == 8, dst, sreg);
        Ok(())
    }

    fn enc_fp_to_int<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        fp_size: u32,
        int_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = op_as_reg(cg, src, RegBank::FP, fp_size)?;
        let dst = result_reg(cg, res)?;
        a64::fcvtzs(cg.buf, fp_size, int_size == 8, dst, sreg);
        Ok(())
    }

    fn enc_fp_convert<A: IrAdapter>(
        cg: &mut FuncCodeGen<'_, A, Self>,
        _from_size: u32,
        to_size: u32,
        res: ResultPart,
        src: &AsmOperand,
    ) -> Result<()> {
        let sreg = op_as_reg(cg, src, RegBank::FP, 8)?;
        let dst = result_reg(cg, res)?;
        a64::fcvt(cg.buf, to_size, dst, sreg);
        Ok(())
    }
}
