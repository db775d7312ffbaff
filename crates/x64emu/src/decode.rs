//! Instruction decoding and execution for the emitted x86-64 subset.

use crate::cpu::{EmuError, Machine};

#[derive(Debug, Clone, Copy)]
enum RmOperand {
    Reg(u8),
    Mem(u64),
}

struct ModRm {
    reg: u8,
    rm: RmOperand,
}

fn mask(size: u32) -> u64 {
    match size {
        1 => 0xff,
        2 => 0xffff,
        4 => 0xffff_ffff,
        _ => u64::MAX,
    }
}

fn sign_bit(v: u64, size: u32) -> bool {
    v >> (size * 8 - 1) & 1 != 0
}

fn sext(v: u64, size: u32) -> i64 {
    match size {
        1 => v as u8 as i8 as i64,
        2 => v as u16 as i16 as i64,
        4 => v as u32 as i32 as i64,
        _ => v as i64,
    }
}

fn parity(v: u64) -> bool {
    (v as u8).count_ones().is_multiple_of(2)
}

impl Machine {
    fn fetch8(&mut self, p: &mut u64) -> u8 {
        let b = self.mem.read_u8(*p);
        *p += 1;
        b
    }

    fn fetch32(&mut self, p: &mut u64) -> u32 {
        let v = self.mem.read(*p, 4) as u32;
        *p += 4;
        v
    }

    fn fetch64(&mut self, p: &mut u64) -> u64 {
        let v = self.mem.read(*p, 8);
        *p += 8;
        v
    }

    fn read_reg(&self, idx: u8, size: u32) -> u64 {
        self.regs[idx as usize] & mask(size)
    }

    fn write_reg(&mut self, idx: u8, size: u32, val: u64) {
        let i = idx as usize;
        match size {
            1 => self.regs[i] = (self.regs[i] & !0xff) | (val & 0xff),
            2 => self.regs[i] = (self.regs[i] & !0xffff) | (val & 0xffff),
            4 => self.regs[i] = val & 0xffff_ffff,
            _ => self.regs[i] = val,
        }
    }

    fn decode_modrm(&mut self, p: &mut u64, rex: u8) -> ModRm {
        let byte = self.fetch8(p);
        let md = byte >> 6;
        let mut reg = (byte >> 3) & 7;
        let mut rm = byte & 7;
        if rex & 4 != 0 {
            reg += 8;
        }
        if md == 3 {
            if rex & 1 != 0 {
                rm += 8;
            }
            return ModRm {
                reg,
                rm: RmOperand::Reg(rm),
            };
        }
        // memory operand
        let mut base: Option<u8> = None;
        let mut index: Option<(u8, u8)> = None;
        if rm == 4 {
            // SIB
            let sib = self.fetch8(p);
            let ss = sib >> 6;
            let mut idx = (sib >> 3) & 7;
            let mut b = sib & 7;
            if rex & 2 != 0 {
                idx += 8;
            }
            if rex & 1 != 0 {
                b += 8;
            }
            if idx != 4 {
                index = Some((idx, 1 << ss));
            }
            if !(md == 0 && (b & 7) == 5) {
                base = Some(b);
            }
        } else {
            let mut b = rm;
            if rex & 1 != 0 {
                b += 8;
            }
            if !(md == 0 && rm == 5) {
                base = Some(b);
            }
            // mod=00 rm=101 would be RIP-relative; not emitted by our encoders
        }
        let disp: i64 = match md {
            0 => {
                if base.is_none() {
                    self.fetch32(p) as i32 as i64
                } else {
                    0
                }
            }
            1 => self.fetch8(p) as i8 as i64,
            _ => self.fetch32(p) as i32 as i64,
        };
        let mut addr = disp as u64;
        if let Some(b) = base {
            addr = addr.wrapping_add(self.regs[b as usize]);
        }
        if let Some((i, scale)) = index {
            addr = addr.wrapping_add(self.regs[i as usize].wrapping_mul(scale as u64));
        }
        ModRm {
            reg,
            rm: RmOperand::Mem(addr),
        }
    }

    fn read_rm(&mut self, rm: RmOperand, size: u32) -> u64 {
        match rm {
            RmOperand::Reg(r) => self.read_reg(r, size),
            RmOperand::Mem(a) => {
                self.stats_mut().loads += 1;
                self.stats_mut().cycles += 1;
                self.mem.read(a, size)
            }
        }
    }

    fn write_rm(&mut self, rm: RmOperand, size: u32, val: u64) {
        match rm {
            RmOperand::Reg(r) => self.write_reg(r, size, val),
            RmOperand::Mem(a) => {
                self.stats_mut().stores += 1;
                self.stats_mut().cycles += 1;
                self.mem.write(a, size, val);
            }
        }
    }

    fn set_flags_logic(&mut self, res: u64, size: u32) {
        let res = res & mask(size);
        self.flags.cf = false;
        self.flags.of = false;
        self.flags.zf = res == 0;
        self.flags.sf = sign_bit(res, size);
        self.flags.pf = parity(res);
    }

    fn set_flags_add(&mut self, a: u64, b: u64, size: u32) -> u64 {
        let m = mask(size);
        let (a, b) = (a & m, b & m);
        let res = a.wrapping_add(b) & m;
        self.flags.cf = res < a;
        self.flags.zf = res == 0;
        self.flags.sf = sign_bit(res, size);
        self.flags.of =
            !(sign_bit(a, size) ^ sign_bit(b, size)) & (sign_bit(a, size) ^ sign_bit(res, size));
        self.flags.pf = parity(res);
        res
    }

    fn set_flags_sub(&mut self, a: u64, b: u64, size: u32) -> u64 {
        let m = mask(size);
        let (a, b) = (a & m, b & m);
        let res = a.wrapping_sub(b) & m;
        self.flags.cf = a < b;
        self.flags.zf = res == 0;
        self.flags.sf = sign_bit(res, size);
        self.flags.of =
            (sign_bit(a, size) ^ sign_bit(b, size)) & (sign_bit(a, size) ^ sign_bit(res, size));
        self.flags.pf = parity(res);
        res
    }

    fn alu(&mut self, op: u8, a: u64, b: u64, size: u32) -> (u64, bool) {
        // returns (result, writeback)
        match op {
            0 => (self.set_flags_add(a, b, size), true),
            1 => {
                let r = (a | b) & mask(size);
                self.set_flags_logic(r, size);
                (r, true)
            }
            2 => {
                let c = self.flags.cf as u64;
                let r = self.set_flags_add(a, b.wrapping_add(c), size);
                (r, true)
            }
            3 => {
                let c = self.flags.cf as u64;
                let r = self.set_flags_sub(a, b.wrapping_add(c), size);
                (r, true)
            }
            4 => {
                let r = (a & b) & mask(size);
                self.set_flags_logic(r, size);
                (r, true)
            }
            5 => (self.set_flags_sub(a, b, size), true),
            6 => {
                let r = (a ^ b) & mask(size);
                self.set_flags_logic(r, size);
                (r, true)
            }
            _ => (self.set_flags_sub(a, b, size), false), // cmp
        }
    }

    fn cond(&self, cc: u8) -> bool {
        let f = &self.flags;
        match cc {
            0x0 => f.of,
            0x1 => !f.of,
            0x2 => f.cf,
            0x3 => !f.cf,
            0x4 => f.zf,
            0x5 => !f.zf,
            0x6 => f.cf || f.zf,
            0x7 => !f.cf && !f.zf,
            0x8 => f.sf,
            0x9 => !f.sf,
            0xa => f.pf,
            0xb => !f.pf,
            0xc => f.sf != f.of,
            0xd => f.sf == f.of,
            0xe => f.zf || (f.sf != f.of),
            _ => !f.zf && (f.sf == f.of),
        }
    }

    fn xmm_f64(&self, idx: u8) -> f64 {
        f64::from_bits(self.xmm[idx as usize])
    }

    fn xmm_f32(&self, idx: u8) -> f32 {
        f32::from_bits(self.xmm[idx as usize] as u32)
    }

    fn read_rm_xmm(&mut self, rm: RmOperand, size: u32) -> u64 {
        match rm {
            RmOperand::Reg(r) => self.xmm[r as usize] & mask(size),
            RmOperand::Mem(a) => {
                self.stats_mut().loads += 1;
                self.stats_mut().cycles += 1;
                self.mem.read(a, size)
            }
        }
    }

    /// Decodes and executes one instruction.
    pub(crate) fn step(&mut self) -> Result<(), EmuError> {
        let start = self.rip;
        let mut p = self.rip;
        let mut has66 = false;
        let mut rep: u8 = 0;
        let mut rex: u8 = 0;
        loop {
            let b = self.mem.read_u8(p);
            match b {
                0x66 => has66 = true,
                0xf2 | 0xf3 => rep = b,
                0x40..=0x4f => rex = b,
                _ => break,
            }
            p += 1;
        }
        let w = rex & 8 != 0;
        let osize: u32 = if w {
            8
        } else if has66 {
            2
        } else {
            4
        };
        self.stats_mut().insts += 1;
        self.stats_mut().cycles += 1;
        let op = self.fetch8(&mut p);
        match op {
            0x90 => {} // nop
            0x50..=0x57 => {
                let r = (op - 0x50) + if rex & 1 != 0 { 8 } else { 0 };
                let v = self.regs[r as usize];
                self.push(v);
                self.stats_mut().stores += 1;
            }
            0x58..=0x5f => {
                let r = (op - 0x58) + if rex & 1 != 0 { 8 } else { 0 };
                let v = self.pop();
                self.regs[r as usize] = v;
                self.stats_mut().loads += 1;
            }
            // mov
            0x88 | 0x89 => {
                let size = if op == 0x88 { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                let v = self.read_reg(m.reg, size);
                self.write_rm(m.rm, size, v);
            }
            0x8a | 0x8b => {
                let size = if op == 0x8a { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                let v = self.read_rm(m.rm, size);
                self.write_reg(m.reg, size, v);
            }
            0x8d => {
                let m = self.decode_modrm(&mut p, rex);
                if let RmOperand::Mem(a) = m.rm {
                    self.write_reg(m.reg, osize, a);
                } else {
                    return Err(EmuError::Decode {
                        rip: start,
                        bytes: self.mem.read_bytes(start, 4),
                    });
                }
            }
            0x63 => {
                let m = self.decode_modrm(&mut p, rex);
                let v = self.read_rm(m.rm, 4);
                self.write_reg(m.reg, 8, v as u32 as i32 as i64 as u64);
            }
            0xb8..=0xbf => {
                let r = (op - 0xb8) + if rex & 1 != 0 { 8 } else { 0 };
                if w {
                    let v = self.fetch64(&mut p);
                    self.write_reg(r, 8, v);
                } else {
                    let v = self.fetch32(&mut p) as u64;
                    self.write_reg(r, 4, v);
                }
            }
            0xc6 | 0xc7 => {
                let size = if op == 0xc6 { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                let imm: u64 = match size {
                    1 => self.fetch8(&mut p) as u64,
                    2 => {
                        let v = self.mem.read(p, 2);
                        p += 2;
                        v
                    }
                    _ => sext(self.fetch32(&mut p) as u64, 4) as u64,
                };
                self.write_rm(m.rm, size, imm);
            }
            // ALU r/m forms
            b if b < 0x40 && (b & 7) <= 3 => {
                let aluop = b >> 3;
                let form = b & 3;
                let size = if form == 0 || form == 2 { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                match form {
                    0 | 1 => {
                        let a = self.read_rm(m.rm, size);
                        let bb = self.read_reg(m.reg, size);
                        let (r, wb) = self.alu(aluop, a, bb, size);
                        if wb {
                            self.write_rm(m.rm, size, r);
                        }
                    }
                    _ => {
                        let a = self.read_reg(m.reg, size);
                        let bb = self.read_rm(m.rm, size);
                        let (r, wb) = self.alu(aluop, a, bb, size);
                        if wb {
                            self.write_reg(m.reg, size, r);
                        }
                    }
                }
            }
            0x80 | 0x81 | 0x83 => {
                let size = if op == 0x80 { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                let imm: u64 = match op {
                    0x80 => self.fetch8(&mut p) as u64,
                    0x83 => sext(self.fetch8(&mut p) as u64, 1) as u64,
                    _ => {
                        if size == 2 {
                            let v = self.mem.read(p, 2);
                            p += 2;
                            v
                        } else {
                            sext(self.fetch32(&mut p) as u64, 4) as u64
                        }
                    }
                };
                let a = self.read_rm(m.rm, size);
                let (r, wb) = self.alu(m.reg & 7, a, imm, size);
                if wb {
                    self.write_rm(m.rm, size, r);
                }
            }
            0x84 | 0x85 => {
                let size = if op == 0x84 { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                let a = self.read_rm(m.rm, size);
                let b = self.read_reg(m.reg, size);
                self.set_flags_logic(a & b, size);
            }
            0xf6 | 0xf7 => {
                let size = if op == 0xf6 { 1 } else { osize };
                let m = self.decode_modrm(&mut p, rex);
                match m.reg & 7 {
                    0 => {
                        let a = self.read_rm(m.rm, size);
                        let imm = if size == 1 {
                            self.fetch8(&mut p) as u64
                        } else {
                            sext(self.fetch32(&mut p) as u64, 4) as u64
                        };
                        self.set_flags_logic(a & imm, size);
                    }
                    2 => {
                        let a = self.read_rm(m.rm, size);
                        self.write_rm(m.rm, size, !a);
                    }
                    3 => {
                        let a = self.read_rm(m.rm, size);
                        let r = self.set_flags_sub(0, a, size);
                        self.write_rm(m.rm, size, r);
                    }
                    4 | 5 => {
                        // widening multiply into rdx:rax
                        self.stats_mut().cycles += 2;
                        let a = self.read_reg(0, size);
                        let b = self.read_rm(m.rm, size);
                        let (lo, hi) = if m.reg & 7 == 4 {
                            let prod = (a as u128) * (b as u128);
                            (prod as u64, (prod >> 64) as u64)
                        } else {
                            let prod = (sext(a, size) as i128) * (sext(b, size) as i128);
                            (prod as u64, (prod >> 64) as u64)
                        };
                        if size == 8 {
                            self.regs[0] = lo;
                            self.regs[2] = hi;
                        } else {
                            let bits = size * 8;
                            self.write_reg(0, size, lo);
                            self.write_reg(2, size, if size == 8 { hi } else { lo >> bits });
                        }
                    }
                    6 | 7 => {
                        self.stats_mut().cycles += 19;
                        let divisor = self.read_rm(m.rm, size);
                        if divisor & mask(size) == 0 {
                            return Err(EmuError::Fault("division by zero".into()));
                        }
                        if m.reg & 7 == 6 {
                            let dividend = if size == 8 {
                                ((self.regs[2] as u128) << 64) | self.regs[0] as u128
                            } else {
                                (((self.read_reg(2, size)) as u128) << (size * 8))
                                    | self.read_reg(0, size) as u128
                            };
                            let q = dividend / (divisor & mask(size)) as u128;
                            let r = dividend % (divisor & mask(size)) as u128;
                            self.write_reg(0, size, q as u64);
                            self.write_reg(2, size, r as u64);
                        } else {
                            let dividend = if size == 8 {
                                (((self.regs[2] as u128) << 64) | self.regs[0] as u128) as i128
                            } else {
                                let lo = self.read_reg(0, size) as u128;
                                let hi = self.read_reg(2, size) as u128;
                                let v = (hi << (size * 8)) | lo;
                                // sign extend from 2*size*8 bits
                                let shift = 128 - 2 * size * 8;
                                ((v << shift) as i128) >> shift
                            };
                            let dv = sext(divisor, size) as i128;
                            let q = dividend.wrapping_div(dv);
                            let r = dividend.wrapping_rem(dv);
                            self.write_reg(0, size, q as u64);
                            self.write_reg(2, size, r as u64);
                        }
                    }
                    _ => {
                        return Err(EmuError::Decode {
                            rip: start,
                            bytes: self.mem.read_bytes(start, 4),
                        })
                    }
                }
            }
            0x69 | 0x6b => {
                self.stats_mut().cycles += 2;
                let m = self.decode_modrm(&mut p, rex);
                let a = self.read_rm(m.rm, osize);
                let imm = if op == 0x6b {
                    sext(self.fetch8(&mut p) as u64, 1)
                } else {
                    sext(self.fetch32(&mut p) as u64, 4)
                };
                let r = (sext(a, osize)).wrapping_mul(imm) as u64;
                self.write_reg(m.reg, osize, r);
            }
            0xc0 | 0xc1 | 0xd0 | 0xd1 | 0xd2 | 0xd3 => {
                let size = if op == 0xc0 || op == 0xd0 || op == 0xd2 {
                    1
                } else {
                    osize
                };
                let m = self.decode_modrm(&mut p, rex);
                let amt = match op {
                    0xc0 | 0xc1 => self.fetch8(&mut p) as u32,
                    0xd0 | 0xd1 => 1,
                    _ => (self.regs[1] & 0xff) as u32, // cl
                } % (size * 8).max(1);
                let a = self.read_rm(m.rm, size);
                let r = match m.reg & 7 {
                    4 => a.wrapping_shl(amt),
                    5 => (a & mask(size)).wrapping_shr(amt),
                    7 => (sext(a, size) >> amt) as u64,
                    0 => (a & mask(size)).rotate_left(amt), // approximation for rol within size
                    1 => (a & mask(size)).rotate_right(amt),
                    _ => {
                        return Err(EmuError::Decode {
                            rip: start,
                            bytes: self.mem.read_bytes(start, 4),
                        })
                    }
                } & mask(size);
                if amt != 0 {
                    self.set_flags_logic(r, size);
                }
                self.write_rm(m.rm, size, r);
            }
            0x98 => {
                // cwde / cdqe
                if w {
                    self.regs[0] = self.regs[0] as u32 as i32 as i64 as u64;
                } else {
                    self.write_reg(0, 4, self.regs[0] as u16 as i16 as i32 as u32 as u64);
                }
            }
            0x99 => {
                // cdq / cqo
                if w {
                    self.regs[2] = if (self.regs[0] as i64) < 0 {
                        u64::MAX
                    } else {
                        0
                    };
                } else {
                    let v = if (self.regs[0] as u32 as i32) < 0 {
                        0xffff_ffff
                    } else {
                        0
                    };
                    self.write_reg(2, 4, v);
                }
            }
            0xe8 => {
                let rel = self.fetch32(&mut p) as i32 as i64;
                self.push(p);
                self.stats_mut().stores += 1;
                self.stats_mut().calls += 1;
                self.stats_mut().cycles += 2;
                self.rip = (p as i64 + rel) as u64;
                return Ok(());
            }
            0xe9 => {
                let rel = self.fetch32(&mut p) as i32 as i64;
                self.stats_mut().branches += 1;
                self.rip = (p as i64 + rel) as u64;
                return Ok(());
            }
            0xeb => {
                let rel = self.fetch8(&mut p) as i8 as i64;
                self.stats_mut().branches += 1;
                self.rip = (p as i64 + rel) as u64;
                return Ok(());
            }
            0xc3 => {
                self.rip = self.pop();
                self.stats_mut().loads += 1;
                self.stats_mut().cycles += 1;
                return Ok(());
            }
            0xff => {
                let m = self.decode_modrm(&mut p, rex);
                match m.reg & 7 {
                    2 => {
                        let target = self.read_rm(m.rm, 8);
                        self.push(p);
                        self.stats_mut().stores += 1;
                        self.stats_mut().calls += 1;
                        self.stats_mut().cycles += 2;
                        self.rip = target;
                        return Ok(());
                    }
                    4 => {
                        let target = self.read_rm(m.rm, 8);
                        self.stats_mut().branches += 1;
                        self.rip = target;
                        return Ok(());
                    }
                    _ => {
                        return Err(EmuError::Decode {
                            rip: start,
                            bytes: self.mem.read_bytes(start, 4),
                        })
                    }
                }
            }
            0x0f => {
                let op2 = self.fetch8(&mut p);
                match op2 {
                    0x80..=0x8f => {
                        let rel = self.fetch32(&mut p) as i32 as i64;
                        self.stats_mut().branches += 1;
                        if self.cond(op2 & 0xf) {
                            self.rip = (p as i64 + rel) as u64;
                            return Ok(());
                        }
                    }
                    0x90..=0x9f => {
                        let m = self.decode_modrm(&mut p, rex);
                        let v = self.cond(op2 & 0xf) as u64;
                        self.write_rm(m.rm, 1, v);
                    }
                    0x40..=0x4f => {
                        let m = self.decode_modrm(&mut p, rex);
                        if self.cond(op2 & 0xf) {
                            let v = self.read_rm(m.rm, osize);
                            self.write_reg(m.reg, osize, v);
                        } else if let RmOperand::Mem(_) = m.rm {
                            self.stats_mut().loads += 1;
                        }
                    }
                    0xb6 | 0xb7 => {
                        let from = if op2 == 0xb6 { 1 } else { 2 };
                        let m = self.decode_modrm(&mut p, rex);
                        let v = self.read_rm(m.rm, from);
                        self.write_reg(m.reg, if w { 8 } else { 4 }, v & mask(from));
                    }
                    0xbe | 0xbf => {
                        let from = if op2 == 0xbe { 1 } else { 2 };
                        let m = self.decode_modrm(&mut p, rex);
                        let v = self.read_rm(m.rm, from);
                        self.write_reg(m.reg, if w { 8 } else { 4 }, sext(v, from) as u64);
                    }
                    0xaf => {
                        self.stats_mut().cycles += 2;
                        let m = self.decode_modrm(&mut p, rex);
                        let a = self.read_reg(m.reg, osize);
                        let b = self.read_rm(m.rm, osize);
                        let r = sext(a, osize).wrapping_mul(sext(b, osize)) as u64;
                        self.write_reg(m.reg, osize, r);
                    }
                    // ---- SSE scalar ----
                    0x10 | 0x11 | 0x2a | 0x2c | 0x2e | 0x51 | 0x57 | 0x58 | 0x59 | 0x5a | 0x5c
                    | 0x5e | 0x6e | 0x7e => {
                        self.sse_op(op2, &mut p, rex, rep, has66, w, start)?;
                    }
                    _ => {
                        return Err(EmuError::Decode {
                            rip: start,
                            bytes: self.mem.read_bytes(start, 4),
                        })
                    }
                }
            }
            _ => {
                return Err(EmuError::Decode {
                    rip: start,
                    bytes: self.mem.read_bytes(start, 4),
                })
            }
        }
        self.rip = p;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn sse_op(
        &mut self,
        op2: u8,
        p: &mut u64,
        rex: u8,
        rep: u8,
        has66: bool,
        w: bool,
        start: u64,
    ) -> Result<(), EmuError> {
        let is_f32 = rep == 0xf3;
        let fsize: u32 = if is_f32 { 4 } else { 8 };
        let m = self.decode_modrm(p, rex);
        self.stats_mut().cycles += 1;
        match op2 {
            0x10 => {
                // movsd/movss xmm, xmm/mem
                let v = self.read_rm_xmm(m.rm, fsize);
                if let RmOperand::Mem(_) = m.rm {
                    self.xmm[m.reg as usize] = v;
                } else {
                    // register move only replaces the low bits
                    let old = self.xmm[m.reg as usize];
                    self.xmm[m.reg as usize] = (old & !mask(fsize)) | v;
                }
            }
            0x11 => {
                let v = self.xmm[m.reg as usize] & mask(fsize);
                match m.rm {
                    RmOperand::Reg(r) => {
                        let old = self.xmm[r as usize];
                        self.xmm[r as usize] = (old & !mask(fsize)) | v;
                    }
                    RmOperand::Mem(a) => {
                        self.stats_mut().stores += 1;
                        self.mem.write(a, fsize, v);
                    }
                }
            }
            0x2a => {
                // cvtsi2sd/ss xmm, r/m
                let int_size = if w { 8 } else { 4 };
                let v = self.read_rm(m.rm, int_size);
                let i = sext(v, int_size);
                let bits = if is_f32 {
                    (i as f32).to_bits() as u64
                } else {
                    (i as f64).to_bits()
                };
                self.xmm[m.reg as usize] = bits;
            }
            0x2c => {
                // cvttsd2si/cvttss2si r, xmm
                let src = match m.rm {
                    RmOperand::Reg(r) => self.xmm[r as usize],
                    RmOperand::Mem(a) => self.mem.read(a, fsize),
                };
                let f = if is_f32 {
                    f32::from_bits(src as u32) as f64
                } else {
                    f64::from_bits(src)
                };
                let int_size = if w { 8 } else { 4 };
                let v = if int_size == 8 {
                    f as i64 as u64
                } else {
                    f as i32 as u32 as u64
                };
                self.write_reg(m.reg, int_size, v);
            }
            0x2e => {
                // ucomisd (66) / ucomiss (none)
                let dsize = if has66 { 8 } else { 4 };
                let a_bits = self.xmm[m.reg as usize];
                let b_bits = self.read_rm_xmm(m.rm, dsize);
                let (a, b) = if dsize == 8 {
                    (f64::from_bits(a_bits), f64::from_bits(b_bits))
                } else {
                    (
                        f32::from_bits(a_bits as u32) as f64,
                        f32::from_bits(b_bits as u32) as f64,
                    )
                };
                self.flags.of = false;
                self.flags.sf = false;
                if a.is_nan() || b.is_nan() {
                    self.flags.zf = true;
                    self.flags.pf = true;
                    self.flags.cf = true;
                } else {
                    self.flags.pf = false;
                    self.flags.zf = a == b;
                    self.flags.cf = a < b;
                }
            }
            0x51 | 0x58 | 0x59 | 0x5c | 0x5e => {
                self.stats_mut().cycles += if op2 == 0x5e { 14 } else { 2 };
                let b_bits = self.read_rm_xmm(m.rm, fsize);
                if is_f32 {
                    let a = self.xmm_f32(m.reg);
                    let b = f32::from_bits(b_bits as u32);
                    let r = match op2 {
                        0x51 => b.sqrt(),
                        0x58 => a + b,
                        0x59 => a * b,
                        0x5c => a - b,
                        _ => a / b,
                    };
                    let old = self.xmm[m.reg as usize];
                    self.xmm[m.reg as usize] = (old & !0xffff_ffff) | r.to_bits() as u64;
                } else {
                    let a = self.xmm_f64(m.reg);
                    let b = f64::from_bits(b_bits);
                    let r = match op2 {
                        0x51 => b.sqrt(),
                        0x58 => a + b,
                        0x59 => a * b,
                        0x5c => a - b,
                        _ => a / b,
                    };
                    self.xmm[m.reg as usize] = r.to_bits();
                }
            }
            0x57 => {
                // xorps/xorpd (only used to zero or negate; xor the low 64 bits)
                let b_bits = match m.rm {
                    RmOperand::Reg(r) => self.xmm[r as usize],
                    RmOperand::Mem(a) => self.mem.read(a, 8),
                };
                self.xmm[m.reg as usize] ^= b_bits;
            }
            0x5a => {
                // cvtsd2ss (f2) / cvtss2sd (f3)
                let b_bits = self.read_rm_xmm(m.rm, fsize);
                if rep == 0xf2 {
                    let v = f64::from_bits(b_bits) as f32;
                    let old = self.xmm[m.reg as usize];
                    self.xmm[m.reg as usize] = (old & !0xffff_ffff) | v.to_bits() as u64;
                } else {
                    let v = f32::from_bits(b_bits as u32) as f64;
                    self.xmm[m.reg as usize] = v.to_bits();
                }
            }
            0x6e => {
                // movq xmm, r/m64
                let v = self.read_rm(m.rm, if w { 8 } else { 4 });
                self.xmm[m.reg as usize] = v;
            }
            0x7e => {
                // movq r/m64, xmm
                let v = self.xmm[m.reg as usize];
                self.write_rm(m.rm, if w { 8 } else { 4 }, v);
            }
            _ => {
                return Err(EmuError::Decode {
                    rip: start,
                    bytes: self.mem.read_bytes(start, 4),
                })
            }
        }
        self.rip = *p;
        // the caller sets rip again, keep consistent by restoring p-based flow
        Ok(())
    }
}
