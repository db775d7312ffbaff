//! Calling-convention descriptions and argument assignment.
//!
//! The framework implements the two C calling conventions needed by the
//! back-ends: System V AMD64 and AAPCS64 (AArch64). A [`CallConv`] lists the
//! argument/return registers per bank and the caller/callee-saved sets;
//! its argument assignment maps a sequence of value parts to argument
//! locations the same way for incoming parameters (prologue) and outgoing
//! call arguments.

use crate::regs::{Reg, RegBank, RegSet};

/// Location assigned to one value part of an argument or return value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ArgLoc {
    /// Passed in a register.
    Reg(Reg),
    /// Passed on the stack at the given byte offset from the start of the
    /// outgoing argument area (i.e. from `sp` at the call site).
    Stack(u32),
}

/// A calling convention: argument/return registers and preserved registers.
#[derive(Clone, Debug)]
pub struct CallConv {
    /// General-purpose argument registers, in order.
    pub(crate) gp_args: Vec<Reg>,
    /// Floating-point argument registers, in order.
    pub(crate) fp_args: Vec<Reg>,
    /// General-purpose return registers, in order.
    pub(crate) gp_rets: Vec<Reg>,
    /// Floating-point return registers, in order.
    pub(crate) fp_rets: Vec<Reg>,
    /// Registers preserved across calls.
    pub(crate) callee_saved: RegSet,
    /// Registers clobbered by calls (complement of `callee_saved` within the
    /// allocatable set).
    pub(crate) caller_saved: RegSet,
    /// Required stack alignment at call sites, in bytes.
    pub(crate) stack_align: u32,
    /// Slot size for stack arguments, in bytes.
    pub(crate) stack_slot_size: u32,
}

impl CallConv {
    /// Assigns locations to a flat list of value parts `(bank, size)`:
    /// appends one [`ArgLoc`] per part to `locs` and returns the size of
    /// the outgoing stack argument area in bytes (unaligned). Callers on the
    /// hot path pass a reusable scratch buffer.
    ///
    /// Each part is assigned independently: multi-part values (e.g. 128-bit
    /// integers) therefore occupy consecutive registers when available, which
    /// matches both SysV and AAPCS64 for the types the back-ends support.
    pub(crate) fn assign_args_into(&self, parts: &[(RegBank, u32)], locs: &mut Vec<ArgLoc>) -> u32 {
        let mut next_gp = 0usize;
        let mut next_fp = 0usize;
        let mut stack_off = 0u32;
        for &(bank, size) in parts {
            let (regs, next) = match bank {
                RegBank::GP => (&self.gp_args, &mut next_gp),
                RegBank::FP => (&self.fp_args, &mut next_fp),
            };
            if *next < regs.len() {
                locs.push(ArgLoc::Reg(regs[*next]));
                *next += 1;
            } else {
                let slot = self.stack_slot_size.max(size.next_power_of_two());
                stack_off = (stack_off + slot - 1) & !(slot - 1);
                locs.push(ArgLoc::Stack(stack_off));
                stack_off += slot;
            }
        }
        stack_off
    }

    /// Assigns registers to return-value parts: appends one register per
    /// part to `out`. Returns `false` (leaving `out` in an unspecified
    /// state) if the parts do not fit in return registers; the back-ends
    /// handle such cases with an sret pointer instead.
    pub(crate) fn assign_rets_into(&self, parts: &[(RegBank, u32)], out: &mut Vec<Reg>) -> bool {
        let mut next_gp = 0usize;
        let mut next_fp = 0usize;
        for &(bank, _size) in parts {
            let (regs, next) = match bank {
                RegBank::GP => (&self.gp_rets, &mut next_gp),
                RegBank::FP => (&self.fp_rets, &mut next_fp),
            };
            if *next >= regs.len() {
                return false;
            }
            out.push(regs[*next]);
            *next += 1;
        }
        true
    }
}

/// x86-64 GP register numbers (architectural encoding order).
mod x64 {
    /// rax
    pub(crate) const RAX: u8 = 0;
    /// rcx
    pub(crate) const RCX: u8 = 1;
    /// rdx
    pub(crate) const RDX: u8 = 2;
    /// rbx
    pub(crate) const RBX: u8 = 3;
    /// rsp
    pub(crate) const RSP: u8 = 4;
    /// rbp
    pub(crate) const RBP: u8 = 5;
    /// rsi
    pub(crate) const RSI: u8 = 6;
    /// rdi
    pub(crate) const RDI: u8 = 7;
    /// r8
    pub(crate) const R8: u8 = 8;
    /// r9
    pub(crate) const R9: u8 = 9;
    /// r12
    pub(crate) const R12: u8 = 12;
    /// r13
    pub(crate) const R13: u8 = 13;
    /// r14
    pub(crate) const R14: u8 = 14;
    /// r15
    pub(crate) const R15: u8 = 15;
}

/// AArch64 register numbers.
mod a64 {
    /// Frame pointer x29.
    pub(crate) const FP: u8 = 29;
    /// Stack pointer / zero register number (31).
    pub(crate) const SP: u8 = 31;
}

fn gp(i: u8) -> Reg {
    Reg::new(RegBank::GP, i)
}
fn fp(i: u8) -> Reg {
    Reg::new(RegBank::FP, i)
}

/// The System V AMD64 calling convention.
pub fn sysv_x64() -> CallConv {
    use x64::*;
    let gp_args = vec![gp(RDI), gp(RSI), gp(RDX), gp(RCX), gp(R8), gp(R9)];
    let fp_args: Vec<Reg> = (0..8).map(fp).collect();
    let gp_rets = vec![gp(RAX), gp(RDX)];
    let fp_rets = vec![fp(0), fp(1)];
    let callee_saved: RegSet = [RBX, RBP, R12, R13, R14, R15]
        .iter()
        .map(|&i| gp(i))
        .collect();
    let mut caller_saved = RegSet::empty();
    for i in 0..16u8 {
        let r = gp(i);
        if !callee_saved.contains(r) && i != RSP {
            caller_saved.insert(r);
        }
    }
    for i in 0..16u8 {
        caller_saved.insert(fp(i));
    }
    CallConv {
        gp_args,
        fp_args,
        gp_rets,
        fp_rets,
        callee_saved,
        caller_saved,
        stack_align: 16,
        stack_slot_size: 8,
    }
}

/// The AAPCS64 (AArch64 procedure call standard) calling convention.
pub fn aapcs_a64() -> CallConv {
    use a64::*;
    let gp_args: Vec<Reg> = (0..8).map(gp).collect();
    let fp_args: Vec<Reg> = (0..8).map(fp).collect();
    let gp_rets: Vec<Reg> = (0..2).map(gp).collect();
    let fp_rets: Vec<Reg> = (0..2).map(fp).collect();
    let mut callee_saved = RegSet::empty();
    for i in 19..=28u8 {
        callee_saved.insert(gp(i));
    }
    callee_saved.insert(gp(FP));
    for i in 8..=15u8 {
        callee_saved.insert(fp(i));
    }
    let mut caller_saved = RegSet::empty();
    for i in 0..31u8 {
        let r = gp(i);
        if !callee_saved.contains(r) && i != SP {
            caller_saved.insert(r);
        }
    }
    for i in 0..32u8 {
        let r = fp(i);
        if !callee_saved.contains(r) {
            caller_saved.insert(r);
        }
    }
    CallConv {
        gp_args,
        fp_args,
        gp_rets,
        fp_rets,
        callee_saved,
        caller_saved,
        stack_align: 16,
        stack_slot_size: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The locations and stack bytes of `parts` as arguments.
    fn assign_args(cc: &CallConv, parts: &[(RegBank, u32)]) -> (Vec<ArgLoc>, u32) {
        let mut locs = Vec::new();
        let stack_bytes = cc.assign_args_into(parts, &mut locs);
        (locs, stack_bytes)
    }

    /// The registers of `parts` as return values, if they fit.
    fn assign_rets(cc: &CallConv, parts: &[(RegBank, u32)]) -> Option<Vec<Reg>> {
        let mut out = Vec::new();
        cc.assign_rets_into(parts, &mut out).then_some(out)
    }

    #[test]
    fn sysv_integer_args_in_order() {
        let cc = sysv_x64();
        let parts = vec![(RegBank::GP, 8); 3];
        let (locs, stack_bytes) = assign_args(&cc, &parts);
        assert_eq!(locs[0], ArgLoc::Reg(gp(x64::RDI)));
        assert_eq!(locs[1], ArgLoc::Reg(gp(x64::RSI)));
        assert_eq!(locs[2], ArgLoc::Reg(gp(x64::RDX)));
        assert_eq!(stack_bytes, 0);
    }

    #[test]
    fn sysv_overflow_goes_to_stack() {
        let cc = sysv_x64();
        let parts = vec![(RegBank::GP, 8); 8];
        let (locs, stack_bytes) = assign_args(&cc, &parts);
        assert_eq!(locs[6], ArgLoc::Stack(0));
        assert_eq!(locs[7], ArgLoc::Stack(8));
        assert_eq!(stack_bytes, 16);
    }

    #[test]
    fn fp_and_gp_args_use_separate_sequences() {
        let cc = sysv_x64();
        let parts = vec![
            (RegBank::GP, 8),
            (RegBank::FP, 8),
            (RegBank::GP, 8),
            (RegBank::FP, 8),
        ];
        let (locs, _) = assign_args(&cc, &parts);
        assert_eq!(locs[0], ArgLoc::Reg(gp(x64::RDI)));
        assert_eq!(locs[1], ArgLoc::Reg(fp(0)));
        assert_eq!(locs[2], ArgLoc::Reg(gp(x64::RSI)));
        assert_eq!(locs[3], ArgLoc::Reg(fp(1)));
    }

    #[test]
    fn i128_uses_two_consecutive_gp_regs() {
        let cc = sysv_x64();
        let parts = vec![(RegBank::GP, 8), (RegBank::GP, 8)];
        let (locs, _) = assign_args(&cc, &parts);
        assert_eq!(locs[0], ArgLoc::Reg(gp(x64::RDI)));
        assert_eq!(locs[1], ArgLoc::Reg(gp(x64::RSI)));
    }

    #[test]
    fn returns_fit_or_not() {
        let cc = sysv_x64();
        assert!(assign_rets(&cc, &[(RegBank::GP, 8), (RegBank::GP, 8)]).is_some());
        let three = [(RegBank::GP, 8), (RegBank::GP, 8), (RegBank::GP, 8)];
        assert!(assign_rets(&cc, &three).is_none());
        let r = assign_rets(&cc, &[(RegBank::FP, 8)]).unwrap();
        assert_eq!(r[0], fp(0));
    }

    #[test]
    fn aapcs_has_eight_gp_args_and_x19_callee_saved() {
        let cc = aapcs_a64();
        let parts = vec![(RegBank::GP, 8); 9];
        let (locs, _) = assign_args(&cc, &parts);
        assert_eq!(locs[7], ArgLoc::Reg(gp(7)));
        assert_eq!(locs[8], ArgLoc::Stack(0));
        assert!(cc.callee_saved.contains(gp(19)));
        assert!(!cc.callee_saved.contains(gp(0)));
        assert!(cc.caller_saved.contains(gp(0)));
    }

    #[test]
    fn callee_and_caller_saved_disjoint() {
        for cc in [sysv_x64(), aapcs_a64()] {
            assert!(cc.callee_saved.iter().all(|r| !cc.caller_saved.contains(r)));
        }
    }
}
