//! Output checks that do not trust the compiler under test: executing x86-64
//! code under the emulator against the hand-written Rust reference, and
//! re-parsing AArch64 ELF objects. AArch64 code is *not executed* — the repo
//! has no AArch64 emulator — which every report states as a known gap.

use crate::gen::Entry;
use tpde_core::codebuf::{CodeBuffer, SectionKind};
use tpde_core::jit::{link_in_memory, JitImage};
use tpde_x64emu::{register_default_hostcalls, Machine};

/// Where linked images are placed in the emulator's address space.
pub const IMAGE_BASE: u64 = 0x40_0000;

/// Deterministic totals of emulated execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EmuTotals {
    pub calls: u64,
    pub wrong: u64,
    pub insts: u64,
    pub cycles: u64,
    pub iterations: u64,
}

impl EmuTotals {
    pub fn add(&mut self, o: &EmuTotals) {
        self.calls += o.calls;
        self.wrong += o.wrong;
        self.insts += o.insts;
        self.cycles += o.cycles;
        self.iterations += o.iterations;
    }

    /// The report's line on what was executed.
    pub fn describe(&self) -> String {
        format!(
            "emulated {} entry points, {} insts, {} cycles, {} kernel iterations, {} wrong",
            self.calls, self.insts, self.cycles, self.iterations, self.wrong
        )
    }
}

/// Calls every entry of a linked image and compares the results with the
/// reference; a fault counts as a wrong result.
pub fn emulate(image: &JitImage, entries: &[Entry]) -> EmuTotals {
    let mut m = Machine::new();
    m.load_image(image);
    register_default_hostcalls(&mut m, image);
    let mut t = EmuTotals::default();
    for e in entries {
        t.calls += 1;
        t.iterations += e.iterations;
        let ok = image
            .symbol_addr(&e.symbol)
            .and_then(|addr| m.call(addr, &[e.input]).ok())
            .is_some_and(|ret| ret == e.expected);
        if !ok {
            t.wrong += 1;
        }
    }
    t.insts = m.stats().insts;
    t.cycles = m.stats().cycles;
    t
}

/// Links a buffer and emulates its entries; a link failure fails them all.
pub fn link_and_emulate(buf: &CodeBuffer, entries: &[Entry]) -> EmuTotals {
    match link_in_memory(buf, IMAGE_BASE, |_| None) {
        Ok(image) => emulate(&image, entries),
        Err(_) => EmuTotals {
            calls: entries.len() as u64,
            wrong: entries.len() as u64,
            ..EmuTotals::default()
        },
    }
}

fn u16_at(b: &[u8], off: usize) -> Option<u64> {
    Some(u16::from_le_bytes(b.get(off..off + 2)?.try_into().ok()?) as u64)
}

fn u32_at(b: &[u8], off: usize) -> Option<u64> {
    Some(u32::from_le_bytes(b.get(off..off + 4)?.try_into().ok()?) as u64)
}

fn u64_at(b: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(off..off + 8)?.try_into().ok()?))
}

/// Re-parses an ELF64 relocatable object for AArch64 with a reader that
/// shares nothing with `core::obj`: the header must be a little-endian
/// `ET_REL` for `EM_AARCH64`, the section table must lie inside the file,
/// `.text` must hold exactly the buffer's text bytes and `.symtab` at least
/// one entry per symbol of the buffer.
pub fn elf_reparses(elf: &[u8], buf: &CodeBuffer) -> bool {
    elf_check(elf, buf).is_some()
}

fn elf_check(elf: &[u8], buf: &CodeBuffer) -> Option<()> {
    const ET_REL: u64 = 1;
    const EM_AARCH64: u64 = 183;
    const SHT_SYMTAB: u64 = 2;
    if elf.get(..6)? != [0x7f, b'E', b'L', b'F', 2, 1] {
        return None;
    }
    if u16_at(elf, 16)? != ET_REL || u16_at(elf, 18)? != EM_AARCH64 {
        return None;
    }
    let shoff = u64_at(elf, 0x28)? as usize;
    let shentsize = u16_at(elf, 0x3a)? as usize;
    let shnum = u16_at(elf, 0x3c)? as usize;
    let shstrndx = u16_at(elf, 0x3e)? as usize;
    if shentsize != 64 || shstrndx >= shnum {
        return None;
    }
    let header = |i: usize| elf.get(shoff + i * 64..shoff + (i + 1) * 64);
    let strtab = {
        let h = header(shstrndx)?;
        elf.get(u64_at(h, 0x18)? as usize..)?
            .get(..u64_at(h, 0x20)? as usize)?
    };
    let (mut text_ok, mut symbols) = (false, 0);
    for i in 0..shnum {
        let h = header(i)?;
        let name = strtab.get(u32_at(h, 0)? as usize..)?;
        let name = &name[..name.iter().position(|&c| c == 0)?];
        let (off, size) = (u64_at(h, 0x18)? as usize, u64_at(h, 0x20)? as usize);
        if name == b".text" {
            text_ok = elf.get(off..off + size)? == buf.section_data(SectionKind::Text);
        }
        if u32_at(h, 4)? == SHT_SYMTAB {
            elf.get(off..off + size)?;
            symbols = size / 24;
        }
    }
    (text_ok && symbols > buf.symbols().len()).then_some(())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use tpde_core::codegen::CompileOptions;
    use tpde_core::obj::{write_elf_object, ElfMachine};

    #[test]
    fn emulation_agrees_with_the_reference_and_catches_a_wrong_answer() {
        let spec = &gen::compile_specs("jit-branchy-o0", 1, 0.02)[0];
        let unit = gen::Unit::of(spec);
        let c = tpde_llvm::compile_x64(&unit.module, &CompileOptions::default()).unwrap();
        let t = link_and_emulate(&c.buf, &unit.entries);
        assert_eq!((t.calls, t.wrong), (1, 0));
        assert_eq!(t.iterations, spec.iterations());
        assert!(t.insts > t.iterations && t.cycles >= t.insts);
        let mut bad = unit.entries.clone();
        bad[0].expected ^= 1;
        assert_eq!(link_and_emulate(&c.buf, &bad).wrong, 1);
        bad[0].symbol = "missing".into();
        assert_eq!(link_and_emulate(&c.buf, &bad).wrong, 1);
    }

    #[test]
    fn elf_reader_accepts_the_object_and_rejects_damage() {
        let unit = gen::Unit::of(&gen::compile_specs("aot-calls-a64", 1, 0.02)[0]);
        let c = tpde_llvm::compile_a64(&unit.module, &CompileOptions::default()).unwrap();
        let elf = write_elf_object(&c.buf, ElfMachine::Aarch64).unwrap();
        assert!(elf_reparses(&elf, &c.buf));
        let x64 = write_elf_object(&c.buf, ElfMachine::X86_64);
        assert!(x64.is_err() || !elf_reparses(&x64.unwrap(), &c.buf));
        assert!(!elf_reparses(&elf[..elf.len() / 2], &c.buf));
        let mut flipped = elf.clone();
        let text = c.buf.section_data(SectionKind::Text);
        let at = elf.windows(text.len()).position(|w| w == text).unwrap();
        flipped[at + 8] ^= 0xff;
        assert!(!elf_reparses(&flipped, &c.buf));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 1.0);
    }
}
