//! The AArch64 (AAPCS64) implementation of the framework's [`Target`] trait.

use crate::a64;
use tpde_core::callconv::{aapcs_a64, CallConv};
use tpde_core::codebuf::{CodeBuffer, Label, SymbolId};
use tpde_core::error::Result;
use tpde_core::regs::{Reg, RegBank, RegSet};
use tpde_core::target::{FrameState, Target, TargetArch};

/// Callee-saved GP registers handled by the save/restore patch areas.
const GP_SAVE_ORDER: [u8; 10] = [19, 20, 21, 22, 23, 24, 25, 26, 27, 28];
/// Callee-saved FP registers (low 64 bits are callee-saved per AAPCS64).
const FP_SAVE_ORDER: [u8; 8] = [8, 9, 10, 11, 12, 13, 14, 15];
/// Every save/restore instruction is one 4-byte A64 instruction.
const SAVE_INSN_LEN: usize = 4;
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
    fn total_save_slots() -> usize {
        GP_SAVE_ORDER.len() + FP_SAVE_ORDER.len()
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
        (Self::total_save_slots() as u32) * 8
    }

    #[inline]
    fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState) {
        frame.reset();
        a64::stp_pre(buf, a64::FP, a64::LR, a64::SP, -16);
        a64::mov_sp(buf, a64::FP, a64::SP);
        // movz x16, #framesize (patched) ; sub sp, sp, x16
        frame.frame_size_patch = buf.text_offset();
        a64::movz(buf, true, 16, 0, 0);
        a64::sub_sp_reg(buf, 16);
        let save_area = buf.text_offset();
        for _ in 0..Self::total_save_slots() {
            a64::nop(buf);
        }
        frame.save_area = Some((save_area, (Self::total_save_slots() * SAVE_INSN_LEN) as u64));
    }

    #[inline]
    fn emit_ret(&self, buf: &mut CodeBuffer, frame: &mut FrameState, _at_end: bool) {
        let restore_area = buf.text_offset();
        for _ in 0..Self::total_save_slots() {
            a64::nop(buf);
        }
        frame.restore_areas.push((
            restore_area,
            (Self::total_save_slots() * SAVE_INSN_LEN) as u64,
        ));
        a64::mov_sp(buf, a64::SP, a64::FP);
        a64::ldp_post(buf, a64::FP, a64::LR, a64::SP, 16);
        a64::ret(buf);
    }

    #[inline]
    fn finish_func(
        &self,
        buf: &mut CodeBuffer,
        frame: &FrameState,
        frame_size: u32,
        used_callee_saved: RegSet,
    ) -> Result<()> {
        let size = (frame_size + 15) & !15;
        assert!(size < 65536, "frame larger than 64 KiB not supported");
        // patch the imm16 of the movz (bits 5..21)
        let word = crate::a64::movz_word(true, 16, size as u16, 0);
        buf.patch_text(frame.frame_size_patch, &word.to_le_bytes());
        let mut patch_area = |start: u64, is_save: bool| {
            buf.patch_text_with(start, |buf| {
                for (idx, reg) in GP_SAVE_ORDER
                    .iter()
                    .map(|&i| Reg::new(RegBank::GP, i))
                    .chain(FP_SAVE_ORDER.iter().map(|&i| Reg::new(RegBank::FP, i)))
                    .enumerate()
                {
                    if !used_callee_saved.contains(reg) {
                        continue;
                    }
                    let off = Self::save_slot_off(idx);
                    match (reg.bank(), is_save) {
                        (RegBank::GP, true) => a64::str(buf, 8, reg.index(), a64::FP, off),
                        (RegBank::GP, false) => a64::ldr(buf, 8, reg.index(), a64::FP, off),
                        (RegBank::FP, true) => a64::str_fp(buf, 8, reg.index(), a64::FP, off),
                        (RegBank::FP, false) => a64::ldr_fp(buf, 8, reg.index(), a64::FP, off),
                    }
                }
            });
        };
        if let Some((start, _)) = frame.save_area {
            patch_area(start, true);
        }
        for &(start, _) in &frame.restore_areas {
            patch_area(start, false);
        }
        Ok(())
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
        a64::nop(&mut buf);
        t.emit_ret(&mut buf, &mut frame, true);
        let mut used = RegSet::empty();
        used.insert(Reg::new(RegBank::GP, 19));
        used.insert(Reg::new(RegBank::FP, 8));
        t.finish_func(&mut buf, &frame, 64, used).unwrap();
        let w0 = u32::from_le_bytes(buf.text()[0..4].try_into().unwrap());
        assert_eq!(w0, 0xa9bf7bfd); // stp x29, x30, [sp, #-16]!
                                    // movz x16, #64 patched in
        let w2 = u32::from_le_bytes(buf.text()[8..12].try_into().unwrap());
        assert_eq!(w2, 0xd2800810);
        // save area: first instruction saves x19 at [x29, #-8] (stur form)
        let w4 = u32::from_le_bytes(buf.text()[16..20].try_into().unwrap());
        let mut tmp = CodeBuffer::new();
        a64::str(&mut tmp, 8, 19, a64::FP, -8);
        assert_eq!(w4, u32::from_le_bytes(tmp.text()[0..4].try_into().unwrap()));
        // ends with ret
        let last = u32::from_le_bytes(buf.text()[buf.text().len() - 4..].try_into().unwrap());
        assert_eq!(last, 0xd65f03c0);
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
