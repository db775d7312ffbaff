//! The x86-64 (System V) implementation of the framework's [`Target`] trait.

use crate::x64::{self, Alu, Gp, Mem, Xmm};
use tpde_core::callconv::{sysv_x64, CallConv};
use tpde_core::codebuf::{CodeBuffer, InstBuf, Label, SymbolId};
use tpde_core::regs::{Reg, RegBank, RegSet};
use tpde_core::target::{FrameState, Target, TargetArch};

/// Callee-saved registers handled by the prologue/epilogue patch areas, in
/// slot order (slot `i` is stored at `[rbp - 8*(i+1)]`). `rbp` itself is
/// saved by `push rbp`.
const SAVE_ORDER: [u8; 5] = [3, 12, 13, 14, 15]; // rbx, r12..r15

/// Bytes of one save/restore instruction (`mov [rbp+disp8], reg`).
const SAVE_INSN_LEN: usize = 4;

/// x86-64 System V target.
#[derive(Debug)]
pub struct X64Target {
    cc: CallConv,
    gp: Vec<Reg>,
    fp: Vec<Reg>,
    fixed_gp: Vec<Reg>,
    fixed_fp: Vec<Reg>,
}

impl Default for X64Target {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl X64Target {
    /// Creates the target with its default register configuration.
    #[inline]
    pub fn new() -> X64Target {
        let gp_order = [
            0u8, 1, 2, 6, 7, 8, 9, 10, // caller-saved first: rax rcx rdx rsi rdi r8 r9 r10
            3, 12, 13, 14, 15, // then callee-saved: rbx r12 r13 r14 r15
        ];
        let gp = gp_order.iter().map(|&i| Reg::new(RegBank::GP, i)).collect();
        let fp = (0..15).map(|i| Reg::new(RegBank::FP, i)).collect();
        let fixed_gp = [12u8, 13, 14, 15]
            .iter()
            .map(|&i| Reg::new(RegBank::GP, i))
            .collect();
        X64Target {
            cc: sysv_x64(),
            gp,
            fp,
            fixed_gp,
            fixed_fp: Vec::new(),
        }
    }

    #[inline]
    fn save_slot_off(idx: usize) -> i32 {
        -(8 * (idx as i32 + 1))
    }
}

impl Target for X64Target {
    #[inline]
    fn arch(&self) -> TargetArch {
        TargetArch::X86_64
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
    fn frame_reg(&self) -> Reg {
        Reg::new(RegBank::GP, 5)
    }

    #[inline]
    fn scratch_gp(&self) -> Reg {
        Reg::new(RegBank::GP, 11)
    }

    #[inline]
    fn scratch_fp(&self) -> Reg {
        Reg::new(RegBank::FP, 15)
    }

    #[inline]
    fn callee_save_area_size(&self) -> u32 {
        (SAVE_ORDER.len() as u32) * 8
    }

    #[inline]
    fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState) {
        frame.reset();
        x64::push_r(buf, Gp::RBP);
        x64::mov_rr(buf, 8, Gp::RBP, Gp::RSP);
        // sub rsp, imm32 (patched)
        let mut i = InstBuf::new();
        i.push_u8(0x48);
        i.push_u8(0x81);
        i.push_u8(0xec);
        frame.frame_size_patch = buf.text_offset() + i.len() as u64;
        i.push_u32(0);
        buf.emit_inst(i);
        // reserved callee-save area (patched at finish)
        let save_area = buf.text_offset();
        x64::nops(buf, SAVE_ORDER.len() * SAVE_INSN_LEN);
        frame.save_area = Some((save_area, (SAVE_ORDER.len() * SAVE_INSN_LEN) as u64));
    }

    #[inline]
    fn emit_epilogue_and_ret(&self, buf: &mut CodeBuffer, frame: &mut FrameState) {
        let restore_area = buf.text_offset();
        x64::nops(buf, SAVE_ORDER.len() * SAVE_INSN_LEN);
        frame
            .restore_areas
            .push((restore_area, (SAVE_ORDER.len() * SAVE_INSN_LEN) as u64));
        // mov rsp, rbp ; pop rbp ; ret
        x64::mov_rr(buf, 8, Gp::RSP, Gp::RBP);
        x64::pop_r(buf, Gp::RBP);
        x64::ret(buf);
    }

    #[inline]
    fn finish_func(
        &self,
        buf: &mut CodeBuffer,
        frame: &FrameState,
        frame_size: u32,
        used_callee_saved: RegSet,
    ) {
        let size = (frame_size + 15) & !15;
        buf.patch_text(frame.frame_size_patch, &size.to_le_bytes());
        // saves/restores of the used-register subset, patched over the
        // nop-filled areas; a tail of two or more unused bytes is jumped
        // over rather than executed
        let mut patch_area = |start: u64, len: u64, is_save: bool| {
            buf.patch_text_with(start, |buf| {
                let begin = buf.text_offset();
                for (idx, &regno) in SAVE_ORDER.iter().enumerate() {
                    if !used_callee_saved.contains(Reg::new(RegBank::GP, regno)) {
                        continue;
                    }
                    let mem = Mem::base_disp(Gp::RBP, Self::save_slot_off(idx));
                    if is_save {
                        x64::mov_mr(buf, 8, mem, Gp(regno));
                    } else {
                        x64::mov_rm(buf, 8, Gp(regno), mem);
                    }
                }
                let tail = len - (buf.text_offset() - begin);
                if tail >= 2 {
                    x64::jmp_rel8(buf, (tail - 2) as i8);
                }
            });
        };
        if let Some((start, len)) = frame.save_area {
            patch_area(start, len, true);
        }
        for &(start, len) in &frame.restore_areas {
            patch_area(start, len, false);
        }
    }

    #[inline]
    fn emit_mov_rr(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, src: Reg) {
        match bank {
            RegBank::GP => x64::mov_rr(buf, size.max(4), Gp::from(dst), Gp::from(src)),
            RegBank::FP => x64::fp_mov_rr(buf, size, Xmm::from(dst), Xmm::from(src)),
        }
    }

    #[inline]
    fn emit_frame_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: i32, src: Reg) {
        let mem = Mem::base_disp(Gp::RBP, off);
        match bank {
            RegBank::GP => x64::mov_mr(buf, size, mem, Gp::from(src)),
            RegBank::FP => x64::fp_store(buf, size, mem, Xmm::from(src)),
        }
    }

    #[inline]
    fn emit_frame_load(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, off: i32) {
        let mem = Mem::base_disp(Gp::RBP, off);
        match bank {
            RegBank::GP => {
                if size < 4 {
                    x64::movzx_rm(buf, Gp::from(dst), mem, size);
                } else {
                    x64::mov_rm(buf, size, Gp::from(dst), mem);
                }
            }
            RegBank::FP => x64::fp_load(buf, size, Xmm::from(dst), mem),
        }
    }

    #[inline]
    fn emit_frame_addr(&self, buf: &mut CodeBuffer, dst: Reg, off: i32) {
        x64::lea(buf, Gp::from(dst), Mem::base_disp(Gp::RBP, off));
    }

    #[inline]
    fn emit_const(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, dst: Reg, value: u64) {
        match bank {
            RegBank::GP => x64::mov_ri(buf, size.max(4), Gp::from(dst), value),
            RegBank::FP => {
                let x = Xmm::from(dst);
                if value == 0 {
                    x64::fp_xor(buf, 8, x, x);
                } else {
                    let scratch = Gp::from(self.scratch_gp());
                    x64::mov_ri(buf, 8, scratch, value);
                    x64::movq_xr(buf, x, scratch);
                }
            }
        }
    }

    #[inline]
    fn emit_jump(&self, buf: &mut CodeBuffer, label: Label) {
        x64::jmp_label(buf, label);
    }

    #[inline]
    fn emit_call_sym(&self, buf: &mut CodeBuffer, sym: SymbolId) {
        x64::call_sym(buf, sym);
    }

    #[inline]
    fn emit_call_reg(&self, buf: &mut CodeBuffer, reg: Reg) {
        x64::call_reg(buf, Gp::from(reg));
    }

    #[inline]
    fn emit_sp_adjust(&self, buf: &mut CodeBuffer, delta: i32) {
        if delta < 0 {
            x64::alu_ri(buf, Alu::Sub, 8, Gp::RSP, -delta);
        } else if delta > 0 {
            x64::alu_ri(buf, Alu::Add, 8, Gp::RSP, delta);
        }
    }

    #[inline]
    fn emit_sp_store(&self, buf: &mut CodeBuffer, bank: RegBank, size: u32, off: u32, src: Reg) {
        let mem = Mem::base_disp(Gp::RSP, off as i32);
        match bank {
            RegBank::GP => x64::mov_mr(buf, size, mem, Gp::from(src)),
            RegBank::FP => x64::fp_store(buf, size, mem, Xmm::from(src)),
        }
    }

    #[inline]
    fn emit_vararg_fp_count(&self, buf: &mut CodeBuffer, count: u8) {
        x64::mov_ri(buf, 4, Gp::RAX, count as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prologue_epilogue_patching_roundtrip() {
        let t = X64Target::new();
        let mut buf = CodeBuffer::new();
        let mut frame = FrameState::default();
        t.emit_prologue(&mut buf, &mut frame);
        let body_start = buf.text_offset();
        x64::nops(&mut buf, 3);
        t.emit_epilogue_and_ret(&mut buf, &mut frame);
        let mut used = RegSet::empty();
        used.insert(Reg::new(RegBank::GP, 3)); // rbx
        used.insert(Reg::new(RegBank::GP, 12)); // r12
        t.finish_func(&mut buf, &frame, 40, used);
        let text = buf.text();
        // push rbp ; mov rbp, rsp
        assert_eq!(&text[0..4], &[0x55, 0x48, 0x89, 0xe5]);
        // sub rsp, 48 (40 rounded up to 16)
        assert_eq!(&text[4..7], &[0x48, 0x81, 0xec]);
        assert_eq!(u32::from_le_bytes(text[7..11].try_into().unwrap()), 48);
        // save area starts with mov [rbp-8], rbx
        assert_eq!(&text[11..15], &[0x48, 0x89, 0x5d, 0xf8]);
        // then mov [rbp-16], r12
        assert_eq!(&text[15..19], &[0x4c, 0x89, 0x65, 0xf0]);
        // the 12 unused save-area bytes are jumped over: jmp +10
        assert_eq!(&text[19..21], &[0xeb, 0x0a]);
        // function ends with ret
        assert_eq!(*text.last().unwrap(), 0xc3);
        let _ = body_start;
    }

    #[test]
    fn frame_loads_and_stores_select_encodings() {
        let t = X64Target::new();
        let mut buf = CodeBuffer::new();
        t.emit_frame_store(&mut buf, RegBank::GP, 8, -8, Reg::new(RegBank::GP, 0));
        t.emit_frame_load(&mut buf, RegBank::GP, 1, Reg::new(RegBank::GP, 1), -9);
        t.emit_frame_load(&mut buf, RegBank::FP, 8, Reg::new(RegBank::FP, 0), -24);
        t.emit_frame_addr(&mut buf, Reg::new(RegBank::GP, 0), -32);
        assert!(!buf.text().is_empty());
    }

    #[test]
    fn fp_constant_materialization() {
        let t = X64Target::new();
        let mut buf = CodeBuffer::new();
        t.emit_const(&mut buf, RegBank::FP, 8, Reg::new(RegBank::FP, 2), 0);
        // xorpd xmm2, xmm2
        assert_eq!(buf.text(), &[0x66, 0x0f, 0x57, 0xd2]);
        let mut buf = CodeBuffer::new();
        t.emit_const(
            &mut buf,
            RegBank::FP,
            8,
            Reg::new(RegBank::FP, 0),
            0x3ff0000000000000,
        );
        // movabs r11, imm ; movq xmm0, r11
        assert_eq!(buf.text()[0..2], [0x49, 0xbb]);
        assert_eq!(&buf.text()[10..], &[0x66, 0x49, 0x0f, 0x6e, 0xc3]);
    }

    #[test]
    fn allocatable_sets_exclude_reserved() {
        let t = X64Target::new();
        let gp = t.allocatable_regs(RegBank::GP);
        assert!(!gp.contains(&Reg::new(RegBank::GP, 4))); // rsp
        assert!(!gp.contains(&Reg::new(RegBank::GP, 5))); // rbp
        assert!(!gp.contains(&Reg::new(RegBank::GP, 11))); // scratch
        let fp = t.allocatable_regs(RegBank::FP);
        assert!(!fp.contains(&Reg::new(RegBank::FP, 15))); // scratch
        assert_eq!(t.callee_save_area_size(), 40);
    }
}
