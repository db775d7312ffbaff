//! The x86-64 (System V) implementation of the framework's [`Target`] trait.

use crate::x64::{self, Alu, Gp, Mem, Xmm};
use tpde_core::callconv::{sysv_x64, CallConv};
use tpde_core::codebuf::{CodeBuffer, Label, SymbolId};
use tpde_core::error::Result;
use tpde_core::regs::{Reg, RegBank, RegSet};
use tpde_core::target::{FrameState, Target, TargetArch};

/// Callee-saved registers the prologue saves and the epilogue restores when
/// used, in slot order (slot `i` is stored at `[rbp - 8*(i+1)]`). `rbp`
/// itself is saved by `push rbp`.
const SAVE_ORDER: [u8; 5] = [3, 12, 13, 14, 15]; // rbx, r12..r15

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
    const JOIN_PHI_REGS: bool = true;

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

    /// Emits `push rbp ; mov rbp, rsp`. [`Target::finish_func`] inserts the
    /// frame allocation and the saves after it.
    #[inline]
    fn emit_prologue(&self, buf: &mut CodeBuffer, frame: &mut FrameState) {
        frame.reset();
        x64::push_r(buf, Gp::RBP);
        x64::mov_rr(buf, 8, Gp::RBP, Gp::RSP);
        frame.frame_size_patch = buf.text_offset();
    }

    /// Jumps to the function's one epilogue, or falls into it when the
    /// return is the function's last code.
    #[inline]
    fn emit_ret(&self, buf: &mut CodeBuffer, frame: &mut FrameState, at_end: bool) {
        let epilogue = *frame.epilogue.get_or_insert_with(|| buf.new_label());
        if !at_end {
            x64::jmp_label(buf, epilogue);
        }
    }

    /// Emits the epilogue (if any return reaches it) with exactly the used
    /// registers' restores, then inserts `sub rsp, size` and their saves
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
            (0..SAVE_ORDER.len())
                .filter(|&idx| used_callee_saved.contains(Reg::new(RegBank::GP, SAVE_ORDER[idx])))
                .map(|idx| {
                    let slot = Mem::base_disp(Gp::RBP, Self::save_slot_off(idx));
                    (slot, Gp(SAVE_ORDER[idx]))
                })
        };
        if let Some(epilogue) = frame.epilogue {
            buf.bind_label(epilogue);
            for (mem, reg) in used() {
                x64::mov_rm(buf, 8, reg, mem);
            }
            // mov rsp, rbp ; pop rbp ; ret
            x64::mov_rr(buf, 8, Gp::RSP, Gp::RBP);
            x64::pop_r(buf, Gp::RBP);
            x64::ret(buf);
        }
        let size = (frame_size + 15) & !15;
        buf.insert_text_with(frame.frame_size_patch, |buf| {
            if size != 0 {
                x64::alu_ri(buf, Alu::Sub, 8, Gp::RSP, size as i32);
            }
            for (mem, reg) in used() {
                x64::mov_mr(buf, 8, mem, reg);
            }
        })
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
        x64::lea(buf, 8, Gp::from(dst), Mem::base_disp(Gp::RBP, off));
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
        // a body whose loop branches back to its first instruction, with an
        // early return and a return at the end
        let head = buf.new_label();
        buf.bind_label(head);
        x64::nops(&mut buf, 3);
        t.emit_ret(&mut buf, &mut frame, false);
        x64::jmp_label(&mut buf, head);
        t.emit_ret(&mut buf, &mut frame, true);
        let mut used = RegSet::empty();
        used.insert(Reg::new(RegBank::GP, 3)); // rbx
        used.insert(Reg::new(RegBank::GP, 12)); // r12
        t.finish_func(&mut buf, &frame, 40, used).unwrap();
        buf.finish_func_fixups().unwrap();
        #[rustfmt::skip]
        let want: &[u8] = &[
            0x55,                         // push rbp
            0x48, 0x89, 0xe5,             // mov rbp, rsp
            0x48, 0x83, 0xec, 0x30,       // sub rsp, 48 (40 rounded up to 16)
            0x48, 0x89, 0x5d, 0xf8,       // mov [rbp-8], rbx
            0x4c, 0x89, 0x65, 0xf0,       // mov [rbp-16], r12
            0x90, 0x90, 0x90,             // head: the body
            0xe9, 0x05, 0x00, 0x00, 0x00, // jmp epilogue (early return)
            0xe9, 0xf3, 0xff, 0xff, 0xff, // jmp head: moved with the body
            0x48, 0x8b, 0x5d, 0xf8,       // epilogue: mov rbx, [rbp-8]
            0x4c, 0x8b, 0x65, 0xf0,       // mov r12, [rbp-16]
            0x48, 0x89, 0xec,             // mov rsp, rbp
            0x5d,                         // pop rbp
            0xc3,                         // ret
        ];
        assert_eq!(buf.text(), want);
    }

    #[test]
    fn a_function_without_return_gets_no_epilogue() {
        let t = X64Target::new();
        let mut buf = CodeBuffer::new();
        let mut frame = FrameState::default();
        t.emit_prologue(&mut buf, &mut frame);
        x64::nops(&mut buf, 1);
        t.finish_func(&mut buf, &frame, 40, RegSet::empty())
            .unwrap();
        // push rbp ; mov rbp, rsp ; sub rsp, 48 ; nop
        assert_eq!(
            buf.text(),
            &[0x55, 0x48, 0x89, 0xe5, 0x48, 0x83, 0xec, 0x30, 0x90]
        );
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
