//! Baseline back-ends the paper compares against, both x86-64 only (the
//! paper's copy-and-patch comparator is also x86-64 only).
//!
//! * [`compile_copy_patch`] — a copy-and-patch-style compiler: one pass, no
//!   liveness, every value lives in a stack slot and is moved through fixed
//!   registers, exactly the behaviour the paper attributes to template-based
//!   compilation (fast compile times, large and slow code).
//! * [`compile_baseline`] — a conventional multi-pass back-end standing in
//!   for LLVM -O0: it materializes a separate machine-level IR and runs a
//!   per-function analysis pass over hash-map-keyed data structures before
//!   it encodes, which is the structural cost the paper attributes to
//!   LLVM's pipeline.
//!
//! Both emit through the same function emitter, so they produce the same
//! bytes and differ only in what they do before emitting. Neither passes
//! arguments on the stack: a call or a function with more than 6 integer
//! or 8 floating-point arguments is [`Error::Unsupported`].

use crate::backend::{compile, ServiceBackendKind};
use crate::ir::{BinOp, FBinOp, Function, ICmp, Inst, Module, ShiftKind, Type, Value, ValueDef};
use std::collections::HashMap;
use tpde_core::codebuf::{CodeBuffer, Label, SectionKind, SymbolBinding, SymbolId};
use tpde_core::codegen::{CompileOptions, CompileStats, CompiledModule};
use tpde_core::error::{Error, Result};
use tpde_enc::x64::{self, Alu, Cond, Gp, Mem, Shift, Xmm};

const TMP0: Gp = Gp::RAX;
const TMP1: Gp = Gp::RCX;
const TMP2: Gp = Gp::RDX;
const FTMP0: Xmm = Xmm(0);
const FTMP1: Xmm = Xmm(1);

/// Where a value lives during baseline/copy-patch compilation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Loc {
    /// Stack slot at `[rbp + off]`.
    Slot(i32),
    /// Constant.
    Const(u64),
    /// Address of a stack variable at `[rbp + off]`.
    StackAddr(i32),
}

struct FuncCtx {
    loc: HashMap<Value, Loc>,
    frame_size: i32,
    block_labels: Vec<Label>,
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

fn fcmp_cond(cc: crate::ir::FCmp) -> Cond {
    use crate::ir::FCmp;
    match cc {
        FCmp::Oeq => Cond::E,
        FCmp::One => Cond::NE,
        FCmp::Olt => Cond::B,
        FCmp::Ole => Cond::BE,
        FCmp::Ogt => Cond::A,
        FCmp::Oge => Cond::AE,
    }
}

impl FuncCtx {
    /// Builds the slot assignment for every value of the function.
    fn new(f: &Function) -> FuncCtx {
        let mut loc = HashMap::new();
        // stack variables first
        let mut stack_var_offsets = Vec::new();
        let mut var_off = 0i32;
        for (size, align) in &f.stack_slots {
            let a = (*align).max(8) as i32;
            var_off -= ((*size as i32 + a - 1) / a) * a;
            var_off &= !(a - 1);
            stack_var_offsets.push(var_off);
        }
        let mut off = var_off;
        for (vi, info) in f.values.iter().enumerate() {
            let v = Value(vi as u32);
            match &info.def {
                ValueDef::Const(c) => {
                    loc.insert(v, Loc::Const(*c));
                }
                ValueDef::StackSlot(idx) => {
                    loc.insert(v, Loc::StackAddr(stack_var_offsets[*idx as usize]));
                }
                _ => {
                    off -= 8;
                    loc.insert(v, Loc::Slot(off));
                }
            }
        }
        let frame_size = ((-off + 15) & !15) + 32;
        FuncCtx {
            loc,
            frame_size,
            block_labels: Vec::new(),
        }
    }

    fn load_gp(&self, buf: &mut CodeBuffer, dst: Gp, v: Value) {
        match self.loc[&v] {
            Loc::Slot(off) => x64::mov_rm(buf, 8, dst, Mem::base_disp(Gp::RBP, off)),
            Loc::Const(c) => x64::mov_ri(buf, 8, dst, c),
            Loc::StackAddr(off) => x64::lea(buf, 8, dst, Mem::base_disp(Gp::RBP, off)),
        }
    }

    fn load_fp(&self, buf: &mut CodeBuffer, dst: Xmm, v: Value, size: u32) {
        match self.loc[&v] {
            Loc::Slot(off) => x64::fp_load(buf, size, dst, Mem::base_disp(Gp::RBP, off)),
            Loc::Const(c) => {
                x64::mov_ri(buf, 8, Gp::R11, c);
                x64::movq_xr(buf, dst, Gp::R11);
            }
            Loc::StackAddr(_) => unreachable!("stack address used as float"),
        }
    }

    fn store_gp(&self, buf: &mut CodeBuffer, v: Value, src: Gp) {
        if let Loc::Slot(off) = self.loc[&v] {
            x64::mov_mr(buf, 8, Mem::base_disp(Gp::RBP, off), src);
        }
    }

    fn store_fp(&self, buf: &mut CodeBuffer, v: Value, src: Xmm, size: u32) {
        if let Loc::Slot(off) = self.loc[&v] {
            x64::fp_store(buf, size, Mem::base_disp(Gp::RBP, off), src);
        }
    }
}

/// Emits the code for one instruction of `block` with all operands coming
/// from and going to stack slots (shared by the copy-and-patch back-end and
/// the emission pass of the multi-pass baseline). A branch also emits the
/// phi moves of its edges.
#[allow(clippy::too_many_lines)]
fn emit_inst(
    module: &Module,
    f: &Function,
    ctx: &FuncCtx,
    buf: &mut CodeBuffer,
    block: u32,
    inst: &Inst,
) -> Result<()> {
    match inst {
        Inst::Bin {
            op,
            ty,
            res,
            lhs,
            rhs,
        } => {
            let size = ty.size().max(4);
            ctx.load_gp(buf, TMP0, *lhs);
            ctx.load_gp(buf, TMP1, *rhs);
            match op {
                BinOp::Add => x64::alu_rr(buf, Alu::Add, size, TMP0, TMP1),
                BinOp::Sub => x64::alu_rr(buf, Alu::Sub, size, TMP0, TMP1),
                BinOp::And => x64::alu_rr(buf, Alu::And, size, TMP0, TMP1),
                BinOp::Or => x64::alu_rr(buf, Alu::Or, size, TMP0, TMP1),
                BinOp::Xor => x64::alu_rr(buf, Alu::Xor, size, TMP0, TMP1),
                BinOp::Mul => x64::imul_rr(buf, size, TMP0, TMP1),
            }
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::Div {
            signed,
            rem,
            ty,
            res,
            lhs,
            rhs,
        } => {
            let size = ty.size().max(4);
            ctx.load_gp(buf, TMP0, *lhs);
            ctx.load_gp(buf, TMP1, *rhs);
            if *signed {
                x64::cqo(buf, size);
                x64::idiv(buf, size, TMP1);
            } else {
                x64::alu_rr(buf, Alu::Xor, 4, TMP2, TMP2);
                x64::div(buf, size, TMP1);
            }
            ctx.store_gp(buf, *res, if *rem { TMP2 } else { TMP0 });
        }
        Inst::Shift {
            kind,
            ty,
            res,
            lhs,
            rhs,
        } => {
            let size = ty.size().max(4);
            ctx.load_gp(buf, TMP0, *lhs);
            ctx.load_gp(buf, TMP1, *rhs);
            let k = match kind {
                ShiftKind::Shl => Shift::Shl,
                ShiftKind::LShr => Shift::Shr,
                ShiftKind::AShr => Shift::Sar,
            };
            x64::shift_cl(buf, k, size, TMP0);
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::Icmp {
            cc,
            ty,
            res,
            lhs,
            rhs,
        } => {
            ctx.load_gp(buf, TMP0, *lhs);
            ctx.load_gp(buf, TMP1, *rhs);
            x64::alu_rr(buf, Alu::Cmp, ty.size().max(4), TMP0, TMP1);
            x64::setcc(buf, icmp_cond(*cc), TMP0);
            x64::movzx_rr(buf, TMP0, TMP0, 1);
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::Fbin {
            op,
            ty,
            res,
            lhs,
            rhs,
        } => {
            let size = ty.size();
            ctx.load_fp(buf, FTMP0, *lhs, size);
            ctx.load_fp(buf, FTMP1, *rhs, size);
            let opc = match op {
                FBinOp::Add => 0x58,
                FBinOp::Sub => 0x5c,
                FBinOp::Mul => 0x59,
                FBinOp::Div => 0x5e,
            };
            x64::fp_arith(buf, size, opc, FTMP0, FTMP1);
            ctx.store_fp(buf, *res, FTMP0, size);
        }
        Inst::Fcmp {
            cc,
            ty,
            res,
            lhs,
            rhs,
        } => {
            let size = ty.size();
            ctx.load_fp(buf, FTMP0, *lhs, size);
            ctx.load_fp(buf, FTMP1, *rhs, size);
            x64::fp_ucomis(buf, size, FTMP0, FTMP1);
            x64::setcc(buf, fcmp_cond(*cc), TMP0);
            x64::movzx_rr(buf, TMP0, TMP0, 1);
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::Fneg { ty, res, v } => {
            let size = ty.size();
            ctx.load_fp(buf, FTMP0, *v, size);
            let sign = if size == 4 { 1u64 << 31 } else { 1u64 << 63 };
            x64::mov_ri(buf, 8, Gp::R11, sign);
            x64::movq_xr(buf, FTMP1, Gp::R11);
            x64::fp_xor(buf, size, FTMP0, FTMP1);
            ctx.store_fp(buf, *res, FTMP0, size);
        }
        Inst::Load { ty, res, addr, off } => {
            ctx.load_gp(buf, TMP1, *addr);
            let mem = Mem::base_disp(TMP1, *off);
            if ty.is_fp() {
                x64::fp_load(buf, ty.size(), FTMP0, mem);
                ctx.store_fp(buf, *res, FTMP0, ty.size());
            } else {
                match ty.size() {
                    8 => x64::mov_rm(buf, 8, TMP0, mem),
                    4 => x64::mov_rm(buf, 4, TMP0, mem),
                    s => x64::movzx_rm(buf, TMP0, mem, s),
                }
                ctx.store_gp(buf, *res, TMP0);
            }
        }
        Inst::Store {
            ty,
            addr,
            off,
            value,
        } => {
            ctx.load_gp(buf, TMP1, *addr);
            let mem = Mem::base_disp(TMP1, *off);
            if ty.is_fp() {
                ctx.load_fp(buf, FTMP0, *value, ty.size());
                x64::fp_store(buf, ty.size(), mem, FTMP0);
            } else {
                ctx.load_gp(buf, TMP0, *value);
                x64::mov_mr(buf, ty.size(), mem, TMP0);
            }
        }
        Inst::Gep {
            res,
            base,
            index,
            scale,
            off,
        } => {
            // An immediate that does not fit a sign-extended i32 goes
            // through a register.
            ctx.load_gp(buf, TMP0, *base);
            if let Some(i) = index {
                ctx.load_gp(buf, TMP1, *i);
                match i32::try_from(*scale) {
                    Ok(scale) => x64::imul_rri(buf, 8, TMP1, TMP1, scale),
                    Err(_) => {
                        x64::mov_ri(buf, 8, TMP2, *scale as u64);
                        x64::imul_rr(buf, 8, TMP1, TMP2);
                    }
                }
                x64::alu_rr(buf, Alu::Add, 8, TMP0, TMP1);
            }
            match i32::try_from(*off) {
                Ok(0) => {}
                Ok(off) => x64::alu_ri(buf, Alu::Add, 8, TMP0, off),
                Err(_) => {
                    x64::mov_ri(buf, 8, TMP1, *off as u64);
                    x64::alu_rr(buf, Alu::Add, 8, TMP0, TMP1);
                }
            }
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::Cast {
            signed,
            from,
            to,
            res,
            v,
        } => {
            ctx.load_gp(buf, TMP0, *v);
            if to.size() > from.size() {
                if *signed {
                    x64::movsx_rr(buf, 8, TMP0, TMP0, from.size());
                } else if from.size() < 4 {
                    x64::movzx_rr(buf, TMP0, TMP0, from.size());
                } else {
                    x64::mov_rr(buf, 4, TMP0, TMP0);
                }
            } else {
                x64::mov_rr(buf, to.size().max(4), TMP0, TMP0);
            }
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::IntToFp { from, to, res, v } => {
            ctx.load_gp(buf, TMP0, *v);
            x64::cvt_int_to_fp(buf, to.size(), from.size().max(4), FTMP0, TMP0);
            ctx.store_fp(buf, *res, FTMP0, to.size());
        }
        Inst::FpToInt { from, to, res, v } => {
            ctx.load_fp(buf, FTMP0, *v, from.size());
            x64::cvt_fp_to_int(buf, from.size(), to.size().max(4), TMP0, FTMP0);
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::FpConvert { to, res, v, .. } => {
            ctx.load_fp(buf, FTMP0, *v, if to.size() == 4 { 8 } else { 4 });
            x64::cvt_fp_to_fp(buf, to.size(), FTMP0, FTMP0);
            ctx.store_fp(buf, *res, FTMP0, to.size());
        }
        Inst::Select {
            ty,
            res,
            cond,
            tval,
            fval,
        } => {
            ctx.load_gp(buf, TMP2, *cond);
            ctx.load_gp(buf, TMP0, *tval);
            ctx.load_gp(buf, TMP1, *fval);
            x64::test_rr(buf, 4, TMP2, TMP2);
            x64::cmovcc(buf, Cond::E, ty.size().max(4), TMP0, TMP1);
            ctx.store_gp(buf, *res, TMP0);
        }
        Inst::Call {
            callee,
            res,
            ret_ty,
            args,
        } => {
            let mut regs = ArgRegs::default();
            for a in args {
                match regs.next(f.value_type(*a).is_fp())? {
                    ArgReg::Gp(r) => ctx.load_gp(buf, r, *a),
                    ArgReg::Fp(r) => ctx.load_fp(buf, r, *a, 8),
                }
            }
            let callee_f = &module.funcs[callee.0 as usize];
            let binding = if callee_f.internal {
                SymbolBinding::Local
            } else {
                SymbolBinding::Global
            };
            let sym = buf.declare_symbol(&callee_f.name, binding, true);
            x64::call_sym(buf, sym);
            if let Some(r) = res {
                if *ret_ty != Type::Void {
                    if ret_ty.is_fp() {
                        ctx.store_fp(buf, *r, Xmm(0), ret_ty.size());
                    } else {
                        ctx.store_gp(buf, *r, Gp::RAX);
                    }
                }
            }
        }
        Inst::Br { target } => {
            emit_phi_moves(f, ctx, buf, block, target.0);
            x64::jmp_label(buf, ctx.block_labels[target.0 as usize]);
        }
        Inst::CondBr {
            cond,
            if_true,
            if_false,
        } => emit_cond_br(f, ctx, buf, block, *cond, if_true.0, if_false.0),
        Inst::Ret { value } => {
            if let Some(v) = value {
                if f.value_type(*v).is_fp() {
                    ctx.load_fp(buf, Xmm(0), *v, 8);
                } else {
                    ctx.load_gp(buf, Gp::RAX, *v);
                }
            }
            x64::mov_rr(buf, 8, Gp::RSP, Gp::RBP);
            x64::pop_r(buf, Gp::RBP);
            x64::ret(buf);
        }
    }
    Ok(())
}

/// Emits the moves of the edge `pred -> succ` into `succ`'s phis. When one
/// of them reads a phi of `succ` (phis that swap on a back edge), every
/// source is pushed before any phi is written, so each reads the old value.
fn emit_phi_moves(f: &Function, ctx: &FuncCtx, buf: &mut CodeBuffer, pred: u32, succ: u32) {
    let phis = &f.blocks[succ as usize].phis;
    let sources = |phi| edge_sources(phi, pred);
    let reads_phi = |v: Value| phis.iter().any(|q| q.res == v);
    if phis.iter().any(|p| sources(p).any(reads_phi)) {
        for v in phis.iter().flat_map(sources) {
            ctx.load_gp(buf, TMP0, v);
            x64::push_r(buf, TMP0);
        }
        for phi in phis.iter().rev() {
            for _ in sources(phi) {
                x64::pop_r(buf, TMP0);
                ctx.store_gp(buf, phi.res, TMP0);
            }
        }
        return;
    }
    for phi in phis {
        for (b, v) in &phi.incoming {
            if b.0 == pred {
                if phi.ty.is_fp() {
                    ctx.load_fp(buf, FTMP0, *v, phi.ty.size());
                    ctx.store_fp(buf, phi.res, FTMP0, phi.ty.size());
                } else {
                    ctx.load_gp(buf, TMP0, *v);
                    ctx.store_gp(buf, phi.res, TMP0);
                }
            }
        }
    }
}

/// What flows into `phi` along the edge from block `pred`.
fn edge_sources(phi: &crate::ir::Phi, pred: u32) -> impl Iterator<Item = Value> + '_ {
    let edge = phi.incoming.iter().filter(move |(b, _)| b.0 == pred);
    edge.map(|&(_, v)| v)
}

/// The register an argument travels in under the SysV ABI.
enum ArgReg {
    Gp(Gp),
    Fp(Xmm),
}

/// Hands out the SysV argument registers in order.
#[derive(Default)]
struct ArgRegs {
    gp: usize,
    fp: u8,
}

impl ArgRegs {
    const GP: [Gp; 6] = [Gp::RDI, Gp::RSI, Gp::RDX, Gp::RCX, Gp::R8, Gp::R9];
    const FP: u8 = 8;

    /// The register of the next floating-point (`fp`) or integer argument,
    /// or [`Error::Unsupported`] once that bank's registers are used up.
    fn next(&mut self, fp: bool) -> Result<ArgReg> {
        if fp && self.fp < Self::FP {
            self.fp += 1;
            Ok(ArgReg::Fp(Xmm(self.fp - 1)))
        } else if !fp && self.gp < Self::GP.len() {
            self.gp += 1;
            Ok(ArgReg::Gp(Self::GP[self.gp - 1]))
        } else {
            Err(Error::Unsupported(
                "stack-passed arguments in the baseline back-ends".into(),
            ))
        }
    }
}

/// The baselines' one function emitter: frame setup, argument spills, then
/// `insts` — `(block index, instruction)` in layout order — with each
/// block's label bound before its first instruction.
fn emit_function<'i>(
    module: &Module,
    f: &Function,
    mut ctx: FuncCtx,
    buf: &mut CodeBuffer,
    insts: impl Iterator<Item = (u32, &'i Inst)>,
) -> Result<()> {
    ctx.block_labels = f.blocks.iter().map(|_| buf.new_label()).collect();
    x64::push_r(buf, Gp::RBP);
    x64::mov_rr(buf, 8, Gp::RBP, Gp::RSP);
    x64::alu_ri(buf, Alu::Sub, 8, Gp::RSP, ctx.frame_size);
    let mut regs = ArgRegs::default();
    for (i, ty) in f.params.iter().enumerate() {
        let v = Value(i as u32);
        match regs.next(ty.is_fp())? {
            ArgReg::Gp(r) => ctx.store_gp(buf, v, r),
            ArgReg::Fp(r) => ctx.store_fp(buf, v, r, 8),
        }
    }
    let mut cur_block = u32::MAX;
    for (block, inst) in insts {
        if block != cur_block {
            cur_block = block;
            buf.bind_label(ctx.block_labels[block as usize]);
        }
        emit_inst(module, f, &ctx, buf, block, inst)?;
    }
    Ok(())
}

/// A conditional branch whose phi moves run on their own edge only: the
/// false edge's after the conditional jump, the true edge's, if any, in a
/// block of their own behind the branch. A move before the branch would
/// also write a phi the other successor may read (a one-block loop's
/// exit reads the phi its back edge writes).
fn emit_cond_br(
    f: &Function,
    ctx: &FuncCtx,
    buf: &mut CodeBuffer,
    block: u32,
    cond: Value,
    if_true: u32,
    if_false: u32,
) {
    let true_moves = f.blocks[if_true as usize]
        .phis
        .iter()
        .any(|phi| phi.incoming.iter().any(|(b, _)| b.0 == block));
    let taken = if true_moves {
        buf.new_label()
    } else {
        ctx.block_labels[if_true as usize]
    };
    ctx.load_gp(buf, TMP0, cond);
    x64::test_rr(buf, 4, TMP0, TMP0);
    x64::jcc_label(buf, Cond::NE, taken);
    emit_phi_moves(f, ctx, buf, block, if_false);
    x64::jmp_label(buf, ctx.block_labels[if_false as usize]);
    if true_moves {
        buf.bind_label(taken);
        emit_phi_moves(f, ctx, buf, block, if_true);
        x64::jmp_label(buf, ctx.block_labels[if_true as usize]);
    }
}

/// The copy-and-patch per-function compiler: the emitter straight over the
/// IR (single pass, no analysis, everything through the stack).
pub(crate) fn compile_function_stacky(
    module: &Module,
    f: &Function,
    buf: &mut CodeBuffer,
) -> Result<()> {
    let insts = f.blocks.iter().enumerate();
    let insts = insts.flat_map(|(bi, b)| b.insts.iter().map(move |i| (bi as u32, i)));
    emit_function(module, f, FuncCtx::new(f), buf, insts)
}

/// A "machine instruction" of the baseline's intermediate representation;
/// deliberately a heap-heavy clone of the IR instruction, mirroring the cost
/// of materializing LLVM Machine IR.
struct MachInst {
    inst: Inst,
    block: u32,
    /// Operand locations resolved during "instruction selection". Never
    /// read: building them is the cost being modelled.
    #[allow(dead_code)]
    operand_locs: Vec<Loc>,
}

/// The multi-pass baseline's per-function compiler: two analysis passes,
/// then the emitter over the machine-level copy.
pub(crate) fn compile_function_baseline(
    module: &Module,
    f: &Function,
    buf: &mut CodeBuffer,
) -> Result<()> {
    // Pass 1: value bookkeeping (use counts), hash-map keyed.
    let mut use_counts: HashMap<Value, u32> = HashMap::new();
    for b in &f.blocks {
        for phi in &b.phis {
            for (_, v) in &phi.incoming {
                *use_counts.entry(*v).or_default() += 1;
            }
        }
        for inst in &b.insts {
            for v in inst.operands() {
                *use_counts.entry(v).or_default() += 1;
            }
        }
    }

    // Pass 2: "instruction selection" — materialize a machine-level copy
    // of every instruction with resolved operand locations.
    let ctx = FuncCtx::new(f);
    let mut mir: Vec<MachInst> = Vec::with_capacity(f.inst_count());
    for (bi, b) in f.blocks.iter().enumerate() {
        for inst in &b.insts {
            let operand_locs = inst.operands().iter().map(|v| ctx.loc[v]).collect();
            mir.push(MachInst {
                inst: inst.clone(),
                block: bi as u32,
                operand_locs,
            });
        }
    }

    // Pass 3: emission.
    emit_function(module, f, ctx, buf, mir.iter().map(|m| (m.block, &m.inst)))
}

/// The baselines' per-function unit: compiles function `f` with `emit`
/// into `buf` under its predeclared symbol `SymbolId(f)` and resolves its
/// fixups. Skips a declaration (returns `Ok(false)`).
pub(crate) fn compile_func(
    module: &Module,
    f: u32,
    emit: fn(&Module, &Function, &mut CodeBuffer) -> Result<()>,
    buf: &mut CodeBuffer,
    stats: &mut CompileStats,
) -> Result<bool> {
    let func = &module.funcs[f as usize];
    if func.is_decl {
        return Ok(false);
    }
    let (sym, start) = (SymbolId(f), buf.text_offset());
    buf.define_symbol(sym, SectionKind::Text, start, 0);
    emit(module, func, buf)?;
    buf.set_symbol_size(sym, buf.text_offset() - start);
    buf.finish_func_fixups()?;
    stats.funcs += 1;
    stats.insts += func.inst_count();
    Ok(true)
}

/// Compiles a module with the copy-and-patch baseline:
/// [`compile`] with [`ServiceBackendKind::CopyPatch`].
pub fn compile_copy_patch(module: &Module) -> Result<CompiledModule> {
    compile(
        module,
        ServiceBackendKind::CopyPatch,
        &CompileOptions::default(),
    )
}

/// Compiles a module with the multi-pass baseline:
/// [`compile`] with [`ServiceBackendKind::BaselineO0`]. The optimization
/// level is ignored; the parameter is kept for existing callers.
pub fn compile_baseline(module: &Module, _opt_level: u32) -> Result<CompiledModule> {
    compile(
        module,
        ServiceBackendKind::BaselineO0,
        &CompileOptions::default(),
    )
}
