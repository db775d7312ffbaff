//! In-memory (JIT) mapping of a compiled module.
//!
//! For JIT use the framework does not go through an object file: the
//! sections of the [`CodeBuffer`] are laid out at virtual addresses,
//! relocations are applied in place, and the result is a [`JitImage`] with a
//! symbol → address map. In this reproduction the image is executed by the
//! `tpde-x64emu` emulator rather than being mapped executable into the host
//! process, which keeps the test suite portable and deterministic.
//!
//! Layout and relocation application depend only on the buffer's section
//! bytes, symbol order and relocation list, so a buffer produced by the
//! parallel pipeline's deterministic merge ([`crate::parallel`]) maps to an
//! image identical to the single-threaded one.

use crate::codebuf::{CodeBuffer, RelocKind, SectionKind, SymbolId};
use crate::error::{Error, Result};
use std::collections::HashMap;

/// Base virtual address at which external (unresolved) symbols are placed.
/// Calls to these addresses are treated as host call-outs by the emulator.
/// The value is kept within ±2 GiB of the usual code base addresses so that
/// x86-64 `call rel32` instructions can reach it.
pub const EXTERNAL_CALLOUT_BASE: u64 = 0x7000_0000;

/// Exclusive upper bound of the call-out address region.
pub const EXTERNAL_CALLOUT_END: u64 = 0x7100_0000;

/// A module linked for in-memory execution.
#[derive(Debug, Clone)]
pub struct JitImage {
    /// Sections with their chosen virtual address and (relocated) contents.
    /// `.bss` appears with zero-filled contents.
    pub sections: Vec<(SectionKind, u64, Vec<u8>)>,
    /// Addresses of all defined symbols.
    pub symbols: HashMap<String, u64>,
    /// Synthetic call-out addresses assigned to unresolved external symbols.
    pub externals: HashMap<String, u64>,
}

impl JitImage {
    /// Address of a defined or external symbol, if present.
    pub fn symbol_addr(&self, name: &str) -> Option<u64> {
        self.symbols
            .get(name)
            .or_else(|| self.externals.get(name))
            .copied()
    }

    /// Virtual address and size of the text section.
    pub fn text_range(&self) -> (u64, u64) {
        for (kind, addr, data) in &self.sections {
            if *kind == SectionKind::Text {
                return (*addr, data.len() as u64);
            }
        }
        (0, 0)
    }

    /// Total number of bytes of machine code (`.text` size); the code-size
    /// metric used for Figure 7.
    pub fn text_size(&self) -> u64 {
        self.text_range().1
    }

    /// Deterministic content fingerprint of the image: section kinds,
    /// addresses and (relocated) bytes, plus the symbol and call-out maps in
    /// name order.
    ///
    /// Because in-memory linking depends only on the buffer's bytes, symbol
    /// order and relocations, two byte-identical [`CodeBuffer`]s — e.g. a
    /// compile-service cache hit and a fresh compile — map to images with
    /// equal fingerprints; the service tests use this to compare whole
    /// images cheaply. It is recomputed on every call, so it always
    /// reflects the current (public) fields.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::hash::StableHasher::new();
        for (kind, addr, data) in &self.sections {
            (*kind as u8).hash(&mut h);
            addr.hash(&mut h);
            data.hash(&mut h);
        }
        for map in [&self.symbols, &self.externals] {
            let mut entries: Vec<(&str, u64)> = map.iter().map(|(n, a)| (n.as_str(), *a)).collect();
            entries.sort_unstable();
            entries.hash(&mut h);
        }
        h.finish()
    }
}

fn align_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

/// Lays out all sections starting at `base`, applies relocations and returns
/// the linked image.
///
/// `resolve` is consulted for undefined symbols; symbols it does not resolve
/// are assigned synthetic call-out addresses (see [`EXTERNAL_CALLOUT_BASE`])
/// so that generated code can still be executed in the emulator, which
/// intercepts calls to that range.
///
/// # Errors
///
/// Returns an error if a relocation does not fit its field.
pub fn link_in_memory(
    buf: &CodeBuffer,
    base: u64,
    mut resolve: impl FnMut(&str) -> Option<u64>,
) -> Result<JitImage> {
    // Assign section addresses.
    let mut addr = align_up(base, 0x1000);
    let mut sec_addr: HashMap<SectionKind, u64> = HashMap::new();
    let mut sections = Vec::new();
    for kind in SectionKind::ALL {
        let size = buf.section_size(kind);
        addr = align_up(addr, 64);
        sec_addr.insert(kind, addr);
        let data = if kind == SectionKind::Bss {
            vec![0u8; size as usize]
        } else {
            buf.section_data(kind).to_vec()
        };
        sections.push((kind, addr, data));
        addr += size.max(1);
    }

    // Resolve symbols.
    let mut symbols = HashMap::new();
    let mut externals = HashMap::new();
    let mut sym_addr = vec![0u64; buf.symbols().len()];
    let mut next_external = EXTERNAL_CALLOUT_BASE;
    for (i, sym) in buf.symbols().iter().enumerate() {
        let name = buf.symbol_name(SymbolId(i as u32));
        let a = match sym.section {
            Some(kind) => {
                let a = sec_addr[&kind] + sym.offset;
                symbols.insert(name.to_string(), a);
                a
            }
            None => {
                if let Some(a) = resolve(name) {
                    externals.insert(name.to_string(), a);
                    a
                } else {
                    let a = next_external;
                    next_external += 16;
                    externals.insert(name.to_string(), a);
                    a
                }
            }
        };
        sym_addr[i] = a;
    }

    // Apply relocations.
    for reloc in buf.relocs() {
        let target = sym_addr[reloc.symbol.0 as usize] as i64 + reloc.addend;
        let (_, sec_base, data) = sections
            .iter_mut()
            .find(|(k, _, _)| *k == reloc.section)
            .expect("relocation against missing section");
        let place = *sec_base + reloc.offset;
        let off = reloc.offset as usize;
        match reloc.kind {
            RelocKind::Abs64 => {
                data[off..off + 8].copy_from_slice(&(target as u64).to_le_bytes());
            }
            RelocKind::Pc32 => {
                let disp = target - place as i64;
                let disp32 = i32::try_from(disp)
                    .map_err(|_| Error::Emit(format!("pc32 displacement {disp} overflows")))?;
                data[off..off + 4].copy_from_slice(&disp32.to_le_bytes());
            }
            RelocKind::Call26 => {
                let disp = target - place as i64;
                let words = disp >> 2;
                if !(-(1 << 25)..(1 << 25)).contains(&words) {
                    return Err(Error::Emit(format!("call26 displacement {disp} overflows")));
                }
                let mut insn = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
                insn |= (words as u32) & 0x03ff_ffff;
                data[off..off + 4].copy_from_slice(&insn.to_le_bytes());
            }
            RelocKind::AdrpPage => {
                let page_delta = ((target as u64 & !0xfff) as i64) - ((place & !0xfff) as i64);
                let pages = page_delta >> 12;
                let imm = pages as u32;
                let mut insn = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
                insn |= ((imm & 0x3) << 29) | (((imm >> 2) & 0x7ffff) << 5);
                data[off..off + 4].copy_from_slice(&insn.to_le_bytes());
            }
            RelocKind::AddLo12 => {
                let lo = (target as u64 & 0xfff) as u32;
                let mut insn = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
                insn |= lo << 10;
                data[off..off + 4].copy_from_slice(&insn.to_le_bytes());
            }
        }
    }

    Ok(JitImage {
        sections,
        symbols,
        externals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebuf::{Reloc, SymbolBinding};

    #[test]
    fn layout_and_symbol_resolution() {
        let mut buf = CodeBuffer::new();
        let f = buf.declare_symbol("f", SymbolBinding::Global, true);
        buf.emit_u8(0xc3);
        buf.define_symbol(f, SectionKind::Text, 0, 1);
        let g = buf.declare_symbol("g_data", SymbolBinding::Global, false);
        let off = buf.append(SectionKind::Data, &[0u8; 8]);
        buf.define_symbol(g, SectionKind::Data, off, 8);
        let image = link_in_memory(&buf, 0x10000, |_| None).unwrap();
        let fa = image.symbol_addr("f").unwrap();
        let ga = image.symbol_addr("g_data").unwrap();
        assert!(fa >= 0x10000);
        assert_ne!(fa, ga);
        assert_eq!(image.text_size(), 1);
    }

    #[test]
    fn abs64_and_pc32_relocations_apply() {
        let mut buf = CodeBuffer::new();
        let callee = buf.declare_symbol("callee", SymbolBinding::Global, true);
        // call rel32 at text offset 1
        buf.emit_u8(0xe8);
        let call_field = buf.text_offset();
        buf.emit_u32(0);
        buf.add_reloc(Reloc {
            section: SectionKind::Text,
            offset: call_field,
            symbol: callee,
            kind: RelocKind::Pc32,
            addend: -4,
        });
        // an 8-byte pointer to callee in .data
        let doff = buf.append(SectionKind::Data, &[0u8; 8]);
        buf.add_reloc(Reloc {
            section: SectionKind::Data,
            offset: doff,
            symbol: callee,
            kind: RelocKind::Abs64,
            addend: 0,
        });
        let image = link_in_memory(&buf, 0x40_0000, |name| {
            (name == "callee").then_some(0x50_0000)
        })
        .unwrap();
        // check data pointer
        let (_, _, data) = image
            .sections
            .iter()
            .find(|(k, _, _)| *k == SectionKind::Data)
            .unwrap();
        assert_eq!(
            u64::from_le_bytes(data[0..8].try_into().unwrap()),
            0x50_0000
        );
        // check call displacement: target - (place) - 4
        let (_, text_base, text) = image
            .sections
            .iter()
            .find(|(k, _, _)| *k == SectionKind::Text)
            .unwrap();
        let disp = i32::from_le_bytes(text[1..5].try_into().unwrap()) as i64;
        assert_eq!(text_base + 1 + disp as u64 + 4, 0x50_0000);
    }

    #[test]
    fn unresolved_externals_get_callout_addresses() {
        let mut buf = CodeBuffer::new();
        buf.declare_symbol("memset", SymbolBinding::Global, true);
        buf.declare_symbol("memcpy", SymbolBinding::Global, true);
        buf.emit_u8(0xc3);
        let image = link_in_memory(&buf, 0x10000, |_| None).unwrap();
        let a = image.symbol_addr("memset").unwrap();
        let b = image.symbol_addr("memcpy").unwrap();
        assert!(a >= EXTERNAL_CALLOUT_BASE);
        assert!(b >= EXTERNAL_CALLOUT_BASE);
        assert_ne!(a, b);
    }

    #[test]
    fn fingerprint_tracks_section_mutations() {
        let mut buf = CodeBuffer::new();
        let f = buf.declare_symbol("f", SymbolBinding::Global, true);
        buf.emit_u8(0x90);
        buf.emit_u8(0xc3);
        buf.define_symbol(f, SectionKind::Text, 0, 2);
        let mut image = link_in_memory(&buf, 0x10000, |_| None).unwrap();
        let before = image.fingerprint();
        assert_eq!(image.fingerprint(), before);
        let (_, _, text) = image
            .sections
            .iter_mut()
            .find(|(k, _, _)| *k == SectionKind::Text)
            .unwrap();
        text[0] ^= 0xff;
        assert_ne!(image.fingerprint(), before);
    }
}
