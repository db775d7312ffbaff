//! The AArch64 (AAPCS64) implementation of the framework's [`Target`] trait.

use crate::a64;
use tpde_core::callconv::{aapcs_a64, CallConv};
use tpde_core::codebuf::{CodeBuffer, Label, SymbolId};
use tpde_core::error::Result;
use tpde_core::regs::{Reg, RegBank, RegSet};
use tpde_core::target::{FrameState, Target, TargetArch};

/// Callee-saved GP registers the prologue saves and the epilogue restores
/// when used, in slot order with [`FP_SAVE_ORDER`] after them (slot `i` is
/// stored at `[x29 - 8*(i+1)]`). x29 and x30 are saved by the `stp`.
const GP_SAVE_ORDER: [u8; 10] = [19, 20, 21, 22, 23, 24, 25, 26, 27, 28];
/// Callee-saved FP registers (low 64 bits are callee-saved per AAPCS64).
const FP_SAVE_ORDER: [u8; 8] = [8, 9, 10, 11, 12, 13, 14, 15];
/// Internal scratch register used for address computations that do not fit
/// an immediate offset. Distinct from the framework-visible scratch (x16).
const ADDR_SCRATCH: u8 = 17;

/// AArch64 AAPCS64 target.
#[derive(Debug)]
pub struct A64Target {
    cc: CallConv,
    gp: Vec<Reg>,
    fp: Vec<Reg>,
    fixed_gp: Vec<Reg>,
    fixed_fp: Vec<Reg>,
}

impl Default for A64Target {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl A64Target {
    /// Creates the target with its default register configuration.
    #[inline]
    pub fn new() -> A64Target {
        let mut gp: Vec<Reg> = (0..16).map(|i| Reg::new(RegBank::GP, i)).collect();
        gp.extend((19..29).map(|i| Reg::new(RegBank::GP, i)));
        // x16/x17 are scratch, x18 is the platform register, x29/x30 fp/lr.
        gp.retain(|r| ![16, 17, 18].contains(&r.index()));
        let fp: Vec<Reg> = (0..31).map(|i| Reg::new(RegBank::FP, i)).collect();
        let fixed_gp = (25..29).map(|i| Reg::new(RegBank::GP, i)).collect();
        let fixed_fp = (12..16).map(|i| Reg::new(RegBank::FP, i)).collect();
        A64Target {
            cc: aapcs_a64(),
            gp,
            fp,
            fixed_gp,
            fixed_fp,
        }
    }

    #[inline]
    fn save_slot_off(idx: usize) -> i32 {
        -(8 * (idx as i32 + 1))
    }

    /// Stores/loads relative to the frame pointer, falling back to an
    /// address computation in `x17` when the offset does not fit.
    #[inline]
    fn frame_mem_access(
        &self,
        buf: &mut CodeBuffer,
        bank: RegBank,
        size: u32,
        off: i32,
        reg: Reg,
        is_store: bool,
    ) {
        let fits = (-256..256).contains(&off) || (off >= 0 && off < 4096 * size as i32);
        let (base, off) = if fits {
            (a64::FP, off)
        } else {
            // x17 = fp + off
            if off < 0 && -off < 4096 {
                a64::sub_imm(buf, true, ADDR_SCRATCH, a64::FP, (-off) as u32);
            } else if (0..4096).contains(&off) {
                a64::add_imm(buf, true, ADDR_SCRATCH, a64::FP, off as u32);
            } else {
                a64::mov_imm64(buf, ADDR_SCRATCH, off as i64 as u64);
                a64::add_rr(buf, true, ADDR_SCRATCH, a64::FP, ADDR_SCRATCH);
            }
            (ADDR_SCRATCH, 0)
        };
        match (bank, is_store) {
            (RegBank::GP, true) => a64::str(buf, size, reg.index(), base, off),
            (RegBank::GP, false) => a64::ldr(buf, size, reg.index(), base, off),
            (RegBank::FP, true) => a64::str_fp(buf, size, reg.index(), base, off),
            (RegBank::FP, false) => a64::ldr_fp(buf, size, reg.index(), base, off),
        }
    }
}

impl Target for A64Target {
    #[inline]
    fn arch(&self) -> TargetArch {
        TargetArch::Aarch64
    }

    #[inline]
    fn call_conv(&self) -> &CallConv {
        &self.cc
    }

    #[inline]
    fn allocatable_regs(&self, bank: RegBank) -> &[Reg] {
        match bank {
            RegBank::GP => &self.gp,
            RegBank::FP => &self.fp,
        }
    }

    #[inline]
    fn fixed_reg_candidates(&self, bank: RegBank) -> &[Reg] {
        match bank {
            RegBank::GP => &self.fixed_gp,
            RegBank::FP => &self.fixed_fp,
        }
    }

    #[inline]
    fn scratch_gp(&self) -> Reg {
        Reg::new(RegBank::GP, 16)
    }

    #[inline]
    fn scratch_fp(&self) -> Reg {
        Reg::new(RegBank::FP, 31)
    }

    #[inline]
    fn callee_save_area_size(&self) -> u32 {
        ((GP_SAVE_ORDER.len() + FP_SAVE_ORDER.len()) as u32) * 8
    }

    /// Emits `stp x29, x30, [sp, #-16]! ; mov x29, sp`.
    /// [`Target::finish_func`] inserts the frame allocation and the saves
    /// after it.
    #[inline]
    fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState) {
        frame.reset();
        a64::stp_pre(buf, a64::FP, a64::LR, a64::SP, -16);
        a64::mov_sp(buf, a64::FP, a64::SP);
        frame.frame_size_patch = buf.text_offset();
    }

    /// Branches to the function's one epilogue, or falls into it when the
    /// return is the function's last code.
    #[inline]
    fn emit_ret(&self, buf: &mut CodeBuffer, frame: &mut FrameState, at_end: bool) {
        let epilogue = *frame.epilogue.get_or_insert_with(|| buf.new_label());
        if !at_end {
            a64::b_label(buf, epilogue);
        }
    }

    /// Emits the epilogue (if any return reaches it) with exactly the used
    /// registers' restores, then inserts `sub sp, sp, size` and their saves
    /// into the prologue.
    #[inline]
    fn finish_func(
        &self,
        buf: &mut CodeBuffer,
        frame: &FrameState,
        frame_size: u32,
        used_callee_saved: RegSet,
    ) -> Result<()> {
        let used = || {
            GP_SAVE_ORDER
                .iter()
                .map(|&i| Reg::new(RegBank::GP, i))
                .chain(FP_SAVE_ORDER.iter().map(|&i| Reg::new(RegBank::FP, i)))
                .enumerate()
                .filter(|&(_, reg)| used_callee_saved.contains(reg))
                .map(|(idx, reg)| (Self::save_slot_off(idx), reg))
        };
        if let Some(epilogue) = frame.epilogue {
            buf.bind_label(epilogue);
            for (off, reg) in used() {
                self.frame_mem_access(buf, reg.bank(), 8, off, reg, false);
            }
            // mov sp, x29 ; ldp x29, x30, [sp], #16 ; ret
            a64::mov_sp(buf, a64::SP, a64::FP);
            a64::ldp_post(buf, a64::FP, a64::LR, a64::SP, 16);
            a64::ret(buf);
        }
        let size = (frame_size + 15) & !15;
        assert!(size < 65536, "frame larger than 64 KiB not supported");
        buf.insert_text_with(frame.frame_size_patch, |buf| {
            if size < 4096 {
                a64::sub_imm(buf, true, a64::SP, a64::SP, size);
            } else {
                a64::movz(buf, true, 16, size as u16, 0);
                a64::sub_sp_reg(buf, 16);
            }
            for (off, reg) in used() {
                self.frame_mem_access(buf, reg.bank(), 8, off, reg, true);
            }
        })
    }

    #[inline]
    fn emit_mov_rr(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, src: Reg) {
        match bank {
            RegBank::GP => a64::mov_rr(
                buf,
                size > 4 || size == 0 || size >= 8,
                dst.index(),
                src.index(),
            ),
            RegBank::FP => a64::fmov_rr(buf, size, dst.index(), src.index()),
        }
    }

    #[inline]
    fn emit_frame_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: i32, src: Reg) {
        self.frame_mem_access(buf, bank, size, off, src, true);
    }

    #[inline]
    fn emit_frame_load(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, off: i32) {
        self.frame_mem_access(buf, bank, size, off, dst, false);
    }

    #[inline]
    fn emit_frame_addr(&self, buf: &mut CodeBuffer, dst: Reg, off: i32) {
        if off < 0 && -off < 4096 {
            a64::sub_imm(buf, true, dst.index(), a64::FP, (-off) as u32);
        } else if (0..4096).contains(&off) {
            a64::add_imm(buf, true, dst.index(), a64::FP, off as u32);
        } else {
            a64::mov_imm64(buf, dst.index(), off as i64 as u64);
            a64::add_rr(buf, true, dst.index(), a64::FP, dst.index());
        }
    }

    #[inline]
    fn emit_const(&self, buf: &mut CodeBuffer, bank: RegBank, _size: u32, dst: Reg, value: u64) {
        match bank {
            RegBank::GP => a64::mov_imm64(buf, dst.index(), value),
            RegBank::FP => {
                let scratch = self.scratch_gp();
                a64::mov_imm64(buf, scratch.index(), value);
                a64::fmov_from_gp(buf, 8, dst.index(), scratch.index());
            }
        }
    }

    #[inline]
    fn emit_jump(&self, buf: &mut CodeBuffer, label: Label) {
        a64::b_label(buf, label);
    }

    #[inline]
    fn emit_call_sym(&self, buf: &mut CodeBuffer, sym: SymbolId) {
        a64::bl_sym(buf, sym);
    }

    #[inline]
    fn emit_call_reg(&self, buf: &mut CodeBuffer, reg: Reg) {
        a64::blr(buf, reg.index());
    }

    #[inline]
    fn emit_sp_adjust(&self, buf: &mut CodeBuffer, delta: i32) {
        if delta < 0 {
            a64::sub_imm(buf, true, a64::SP, a64::SP, (-delta) as u32);
        } else if delta > 0 {
            a64::add_imm(buf, true, a64::SP, a64::SP, delta as u32);
        }
    }

    #[inline]
    fn emit_sp_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: u32, src: Reg) {
        match bank {
            RegBank::GP => a64::str(buf, size, src.index(), a64::SP, off as i32),
            RegBank::FP => a64::str_fp(buf, size, src.index(), a64::SP, off as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prologue_epilogue_patch() {
        let t = A64Target::new();
        let mut buf = CodeBuffer::new();
        let mut frame = FrameState::default();
        t.emit_prologue(&mut buf, &mut frame);
        // a body whose loop branches back to its first instruction, with an
        // early return and a return at the end
        let head = buf.new_label();
        buf.bind_label(head);
        a64::add_imm(&mut buf, true, 0, 0, 1);
        t.emit_ret(&mut buf, &mut frame, false);
        a64::b_label(&mut buf, head);
        t.emit_ret(&mut buf, &mut frame, true);
        let mut used = RegSet::empty();
        used.insert(Reg::new(RegBank::GP, 19));
        used.insert(Reg::new(RegBank::FP, 8));
        t.finish_func(&mut buf, &frame, 56, used).unwrap();
        buf.finish_func_fixups().unwrap();
        // the words and mnemonics agree with `llvm-mc-14 --disassemble`
        let want = [
            0xa9bf7bfd, // stp x29, x30, [sp, #-16]!
            0x910003fd, // mov x29, sp
            0xd10103ff, // sub sp, sp, #64 (56 rounded up to 16)
            0xf81f83b3, // stur x19, [x29, #-8]
            0xfc1a83a8, // stur d8, [x29, #-88]
            0x91000400, // head: add x0, x0, #1
            0x14000002, // b epilogue (early return)
            0x17fffffe, // b head: moved with the body
            0xf85f83b3, // epilogue: ldur x19, [x29, #-8]
            0xfc5a83a8, // ldur d8, [x29, #-88]
            0x910003bf, // mov sp, x29
            0xa8c17bfd, // ldp x29, x30, [sp], #16
            0xd65f03c0, // ret
        ];
        assert_eq!(buf.text(), want.map(u32::to_le_bytes).concat());
    }

    #[test]
    fn a_function_without_return_gets_no_epilogue() {
        let t = A64Target::new();
        let mut buf = CodeBuffer::new();
        let mut frame = FrameState::default();
        t.emit_prologue(&mut buf, &mut frame);
        a64::add_imm(&mut buf, true, 0, 0, 1);
        t.finish_func(&mut buf, &frame, 5000, RegSet::empty())
            .unwrap();
        let want = [
            0xa9bf7bfd, // stp x29, x30, [sp, #-16]!
            0x910003fd, // mov x29, sp
            0xd2827210, // mov x16, #5008 (5000 rounded up to 16)
            0xcb3063ff, // sub sp, sp, x16
            0x91000400, // add x0, x0, #1
        ];
        assert_eq!(buf.text(), want.map(u32::to_le_bytes).concat());
    }

    #[test]
    fn reserved_registers_not_allocatable() {
        let t = A64Target::new();
        let gp = t.allocatable_regs(RegBank::GP);
        for bad in [16u8, 17, 18, 29, 30, 31] {
            assert!(
                !gp.iter().any(|r| r.index() == bad),
                "x{bad} must not be allocatable"
            );
        }
        assert_eq!(t.callee_save_area_size(), 144);
    }

    #[test]
    fn frame_access_far_offsets_use_scratch() {
        let t = A64Target::new();
        let mut buf = CodeBuffer::new();
        t.emit_frame_store(&mut buf, RegBank::GP, 8, -1000, Reg::new(RegBank::GP, 0));
        // must emit more than one instruction (address computation + store)
        assert!(buf.text().len() >= 8);
        let mut buf2 = CodeBuffer::new();
        t.emit_frame_load(&mut buf2, RegBank::GP, 8, Reg::new(RegBank::GP, 0), -8);
        assert_eq!(buf2.text().len(), 4);
    }

    #[test]
    fn const_materialization() {
        let t = A64Target::new();
        let mut buf = CodeBuffer::new();
        t.emit_const(
            &mut buf,
            RegBank::GP,
            8,
            Reg::new(RegBank::GP, 0),
            0x1234_5678_9abc_def0,
        );
        assert_eq!(buf.text().len(), 16); // movz + 3x movk
        let mut buf = CodeBuffer::new();
        t.emit_const(
            &mut buf,
            RegBank::FP,
            8,
            Reg::new(RegBank::FP, 0),
            0x3ff0000000000000,
        );
        assert!(buf.text().len() >= 8);
    }
}
