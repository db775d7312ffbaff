//! Minimal ELF64 relocatable object writer.
//!
//! The framework can emit the contents of a [`CodeBuffer`] as a relocatable
//! ELF object (`ET_REL`) for x86-64 or AArch64. Only the features the
//! back-ends need are implemented: the four standard sections, a symbol
//! table, and RELA relocation sections.
//!
//! Serialization is a pure function of the buffer's sections, symbol table
//! and relocation list, in their stored order. Since the parallel
//! pipeline's shard merge ([`crate::parallel`]) reproduces all three
//! byte-for-byte, objects written from a merged buffer are identical to the
//! single-threaded output (pinned by `crates/llvm/tests/parallel.rs`).

use crate::codebuf::{CodeBuffer, RelocKind, SectionKind, SymbolBinding};
use crate::error::{Error, Result};

/// Target machine for the ELF header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ElfMachine {
    /// EM_X86_64
    X86_64,
    /// EM_AARCH64
    Aarch64,
}

impl ElfMachine {
    fn e_machine(self) -> u16 {
        match self {
            ElfMachine::X86_64 => 62,
            ElfMachine::Aarch64 => 183,
        }
    }

    fn reloc_type(self, kind: RelocKind) -> Result<u32> {
        match (self, kind) {
            (ElfMachine::X86_64, RelocKind::Abs64) => Ok(1), // R_X86_64_64
            (ElfMachine::X86_64, RelocKind::Pc32) => Ok(2),  // R_X86_64_PC32
            (ElfMachine::Aarch64, RelocKind::Abs64) => Ok(257), // R_AARCH64_ABS64
            (ElfMachine::Aarch64, RelocKind::Pc32) => Ok(261), // R_AARCH64_PREL32
            (ElfMachine::Aarch64, RelocKind::Call26) => Ok(283), // R_AARCH64_CALL26
            (ElfMachine::Aarch64, RelocKind::AdrpPage) => Ok(275), // R_AARCH64_ADR_PREL_PG_HI21
            (ElfMachine::Aarch64, RelocKind::AddLo12) => Ok(277), // R_AARCH64_ADD_ABS_LO12_NC
            (m, k) => Err(Error::Emit(format!(
                "relocation {k:?} unsupported for {m:?}"
            ))),
        }
    }
}

const SHT_PROGBITS: u32 = 1;
const SHT_SYMTAB: u32 = 2;
const SHT_STRTAB: u32 = 3;
const SHT_RELA: u32 = 4;
const SHT_NOBITS: u32 = 8;

const SHF_WRITE: u64 = 1;
const SHF_ALLOC: u64 = 2;
const SHF_EXECINSTR: u64 = 4;

struct SectionHeader {
    name_off: u32,
    sh_type: u32,
    flags: u64,
    offset: u64,
    size: u64,
    link: u32,
    info: u32,
    addralign: u64,
    entsize: u64,
}

struct StrTab {
    data: Vec<u8>,
}

impl StrTab {
    fn new() -> StrTab {
        StrTab { data: vec![0] }
    }
    fn add(&mut self, s: &str) -> u32 {
        let off = self.data.len() as u32;
        self.data.extend_from_slice(s.as_bytes());
        self.data.push(0);
        off
    }
}

fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes the code buffer into a relocatable ELF64 object image.
///
/// The resulting bytes can be written to a `.o` file and inspected with
/// standard binutils (`readelf`, `objdump`) or linked with a system linker.
///
/// # Errors
///
/// Returns an error if a relocation kind is not representable for the chosen
/// machine.
pub fn write_elf_object(buf: &CodeBuffer, machine: ElfMachine) -> Result<Vec<u8>> {
    // Layout:
    // [ehdr][section data...][symtab][strtab][shstrtab][rela sections...][section headers]
    let mut shstrtab = StrTab::new();
    let mut strtab = StrTab::new();

    // Symbol table: local symbols first, then globals (ELF requirement).
    // Index 0 is the null symbol; then section symbols for the 4 sections.
    let sec_order = SectionKind::ALL;

    #[derive(Clone)]
    struct ElfSym {
        name: u32,
        info: u8,
        shndx: u16,
        value: u64,
        size: u64,
    }

    let mut local_syms: Vec<ElfSym> = Vec::new();
    let mut global_syms: Vec<ElfSym> = Vec::new();
    // null symbol
    local_syms.push(ElfSym {
        name: 0,
        info: 0,
        shndx: 0,
        value: 0,
        size: 0,
    });
    // section symbols (STT_SECTION = 3, STB_LOCAL = 0); section header index
    // for section i is 1 + i (0 is the null section header).
    for (i, _k) in sec_order.iter().enumerate() {
        local_syms.push(ElfSym {
            name: 0,
            info: 3,
            shndx: (1 + i) as u16,
            value: 0,
            size: 0,
        });
    }

    // Map CodeBuffer SymbolId -> ELF symbol table index (assigned after we
    // know how many locals there are).
    let mut user_syms: Vec<(bool, ElfSym)> = Vec::new(); // (is_local, sym)
    for (i, sym) in buf.symbols().iter().enumerate() {
        let name = strtab.add(buf.symbol_name(crate::codebuf::SymbolId(i as u32)));
        let stype: u8 = if sym.is_func { 2 } else { 1 }; // FUNC / OBJECT
        let bind: u8 = match sym.binding {
            SymbolBinding::Local => 0,
            SymbolBinding::Global => 1,
            SymbolBinding::Weak => 2,
        };
        let (shndx, value) = match sym.section {
            Some(kind) => (
                (1 + sec_order.iter().position(|&s| s == kind).unwrap()) as u16,
                sym.offset,
            ),
            None => (0u16, 0u64),
        };
        // Undefined symbols must be global or weak for linking purposes.
        let info = if sym.section.is_none() && bind == 0 {
            (1 << 4) | stype
        } else {
            (bind << 4) | stype
        };
        let esym = ElfSym {
            name,
            info,
            shndx,
            value,
            size: sym.size,
        };
        user_syms.push((info >> 4 == 0, esym));
    }

    let mut symid_to_index = vec![0u32; buf.symbols().len()];
    // locals first
    for (i, (is_local, esym)) in user_syms.iter().enumerate() {
        if *is_local {
            symid_to_index[i] = local_syms.len() as u32;
            local_syms.push(esym.clone());
        }
    }
    let first_global = local_syms.len() as u32;
    for (i, (is_local, esym)) in user_syms.iter().enumerate() {
        if !*is_local {
            symid_to_index[i] = (local_syms.len() + global_syms.len()) as u32;
            global_syms.push(esym.clone());
        }
    }

    let mut symtab_data: Vec<u8> = Vec::new();
    for s in local_syms.iter().chain(global_syms.iter()) {
        write_u32(&mut symtab_data, s.name);
        symtab_data.push(s.info);
        symtab_data.push(0); // st_other
        write_u16(&mut symtab_data, s.shndx);
        write_u64(&mut symtab_data, s.value);
        write_u64(&mut symtab_data, s.size);
    }

    // Relocation sections, one per section that has relocations.
    let mut rela_data: Vec<(SectionKind, Vec<u8>)> = Vec::new();
    for &kind in &sec_order {
        let mut data = Vec::new();
        for reloc in buf.relocs().iter().filter(|r| r.section == kind) {
            let symidx = symid_to_index[reloc.symbol.0 as usize];
            // If the target symbol is defined locally we can still relocate
            // against the symbol itself; keep it simple.
            write_u64(&mut data, reloc.offset);
            let rtype = machine.reloc_type(reloc.kind)?;
            write_u64(&mut data, ((symidx as u64) << 32) | rtype as u64);
            write_u64(&mut data, reloc.addend as u64);
        }
        if !data.is_empty() {
            rela_data.push((kind, data));
        }
    }

    // Section header table: null, 4 progbits/nobits, symtab, strtab, shstrtab, rela...
    let mut headers: Vec<SectionHeader> = Vec::new();
    headers.push(SectionHeader {
        name_off: 0,
        sh_type: 0,
        flags: 0,
        offset: 0,
        size: 0,
        link: 0,
        info: 0,
        addralign: 0,
        entsize: 0,
    });

    let ehdr_size = 64u64;
    let mut data_blob: Vec<u8> = Vec::new();
    let mut sec_offsets = [0u64; 4];
    for (i, &kind) in sec_order.iter().enumerate() {
        // align to 16
        while !(ehdr_size as usize + data_blob.len()).is_multiple_of(16) {
            data_blob.push(0);
        }
        sec_offsets[i] = ehdr_size + data_blob.len() as u64;
        if kind != SectionKind::Bss {
            data_blob.extend_from_slice(buf.section_data(kind));
        }
        let (sh_type, flags) = match kind {
            SectionKind::Text => (SHT_PROGBITS, SHF_ALLOC | SHF_EXECINSTR),
            SectionKind::Data => (SHT_PROGBITS, SHF_ALLOC | SHF_WRITE),
            SectionKind::ROData => (SHT_PROGBITS, SHF_ALLOC),
            SectionKind::Bss => (SHT_NOBITS, SHF_ALLOC | SHF_WRITE),
        };
        headers.push(SectionHeader {
            name_off: shstrtab.add(kind.name()),
            sh_type,
            flags,
            offset: sec_offsets[i],
            size: buf.section_size(kind),
            link: 0,
            info: 0,
            addralign: 16,
            entsize: 0,
        });
    }

    // symtab
    while !(ehdr_size as usize + data_blob.len()).is_multiple_of(8) {
        data_blob.push(0);
    }
    let symtab_off = ehdr_size + data_blob.len() as u64;
    data_blob.extend_from_slice(&symtab_data);
    let symtab_shndx = headers.len() as u32;
    headers.push(SectionHeader {
        name_off: shstrtab.add(".symtab"),
        sh_type: SHT_SYMTAB,
        flags: 0,
        offset: symtab_off,
        size: symtab_data.len() as u64,
        link: symtab_shndx + 1, // strtab follows
        info: first_global,
        addralign: 8,
        entsize: 24,
    });

    // strtab
    let strtab_off = ehdr_size + data_blob.len() as u64;
    data_blob.extend_from_slice(&strtab.data);
    headers.push(SectionHeader {
        name_off: shstrtab.add(".strtab"),
        sh_type: SHT_STRTAB,
        flags: 0,
        offset: strtab_off,
        size: strtab.data.len() as u64,
        link: 0,
        info: 0,
        addralign: 1,
        entsize: 0,
    });

    // rela sections
    for (kind, data) in &rela_data {
        while !(ehdr_size as usize + data_blob.len()).is_multiple_of(8) {
            data_blob.push(0);
        }
        let off = ehdr_size + data_blob.len() as u64;
        data_blob.extend_from_slice(data);
        let target_shndx = 1 + sec_order.iter().position(|s| s == kind).unwrap() as u32;
        headers.push(SectionHeader {
            name_off: shstrtab.add(&format!(".rela{}", kind.name())),
            sh_type: SHT_RELA,
            flags: 0,
            offset: off,
            size: data.len() as u64,
            link: symtab_shndx,
            info: target_shndx,
            addralign: 8,
            entsize: 24,
        });
    }

    // An empty `.note.GNU-stack` section: the code needs no executable
    // stack, so the stack of a program linked from this object stays
    // non-executable.
    headers.push(SectionHeader {
        name_off: shstrtab.add(".note.GNU-stack"),
        sh_type: SHT_PROGBITS,
        flags: 0,
        offset: ehdr_size + data_blob.len() as u64,
        size: 0,
        link: 0,
        info: 0,
        addralign: 1,
        entsize: 0,
    });

    // shstrtab
    let shstrtab_name = shstrtab.add(".shstrtab");
    let shstrtab_off = ehdr_size + data_blob.len() as u64;
    let shstrtab_index = headers.len() as u16;
    // note: size computed after adding the name above
    let shstr_data = shstrtab.data.clone();
    data_blob.extend_from_slice(&shstr_data);
    headers.push(SectionHeader {
        name_off: shstrtab_name,
        sh_type: SHT_STRTAB,
        flags: 0,
        offset: shstrtab_off,
        size: shstr_data.len() as u64,
        link: 0,
        info: 0,
        addralign: 1,
        entsize: 0,
    });

    // section header table offset
    while !(ehdr_size as usize + data_blob.len()).is_multiple_of(8) {
        data_blob.push(0);
    }
    let shoff = ehdr_size + data_blob.len() as u64;

    // ELF header
    let mut out: Vec<u8> =
        Vec::with_capacity(ehdr_size as usize + data_blob.len() + headers.len() * 64);
    out.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]); // 64-bit, LE, SysV
    out.extend_from_slice(&[0; 8]);
    write_u16(&mut out, 1); // ET_REL
    write_u16(&mut out, machine.e_machine());
    write_u32(&mut out, 1); // EV_CURRENT
    write_u64(&mut out, 0); // entry
    write_u64(&mut out, 0); // phoff
    write_u64(&mut out, shoff);
    write_u32(&mut out, 0); // flags
    write_u16(&mut out, 64); // ehsize
    write_u16(&mut out, 0); // phentsize
    write_u16(&mut out, 0); // phnum
    write_u16(&mut out, 64); // shentsize
    write_u16(&mut out, headers.len() as u16);
    write_u16(&mut out, shstrtab_index);
    debug_assert_eq!(out.len(), 64);

    out.extend_from_slice(&data_blob);

    for h in &headers {
        write_u32(&mut out, h.name_off);
        write_u32(&mut out, h.sh_type);
        write_u64(&mut out, h.flags);
        write_u64(&mut out, 0); // addr
        write_u64(&mut out, h.offset);
        write_u64(&mut out, h.size);
        write_u32(&mut out, h.link);
        write_u32(&mut out, h.info);
        write_u64(&mut out, h.addralign);
        write_u64(&mut out, h.entsize);
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebuf::{Reloc, SymbolBinding};

    fn sample_buffer() -> CodeBuffer {
        let mut buf = CodeBuffer::new();
        let sym = buf.declare_symbol("main", SymbolBinding::Global, true);
        buf.emit_u8(0xc3); // ret
        buf.define_symbol(sym, SectionKind::Text, 0, 1);
        let ext = buf.declare_symbol("memcpy", SymbolBinding::Global, true);
        buf.emit_u8(0xe8);
        let off = buf.text_offset();
        buf.emit_u32(0);
        buf.add_reloc(Reloc {
            section: SectionKind::Text,
            offset: off,
            symbol: ext,
            kind: RelocKind::Pc32,
            addend: -4,
        });
        buf.append(SectionKind::ROData, &[1, 2, 3, 4]);
        buf.reserve_bss(64, 8);
        buf
    }

    #[test]
    fn elf_header_magic_and_machine() {
        let buf = sample_buffer();
        let elf = write_elf_object(&buf, ElfMachine::X86_64).unwrap();
        assert_eq!(&elf[0..4], &[0x7f, b'E', b'L', b'F']);
        assert_eq!(elf[4], 2); // 64-bit
        assert_eq!(u16::from_le_bytes([elf[16], elf[17]]), 1); // ET_REL
        assert_eq!(u16::from_le_bytes([elf[18], elf[19]]), 62); // x86-64
        let a64 = write_elf_object(&buf, ElfMachine::Aarch64).unwrap();
        assert_eq!(u16::from_le_bytes([a64[18], a64[19]]), 183);
    }

    #[test]
    fn section_headers_parse_back() {
        let buf = sample_buffer();
        let elf = write_elf_object(&buf, ElfMachine::X86_64).unwrap();
        let shoff = u64::from_le_bytes(elf[40..48].try_into().unwrap()) as usize;
        let shnum = u16::from_le_bytes(elf[60..62].try_into().unwrap()) as usize;
        // null + 4 sections + symtab + strtab + 1 rela + note + shstrtab = 10
        assert_eq!(shnum, 10);
        // every header must fit in the file
        assert!(shoff + shnum * 64 <= elf.len());
        // first non-null section is .text with our 6 bytes
        let text_size =
            u64::from_le_bytes(elf[shoff + 64 + 32..shoff + 64 + 40].try_into().unwrap());
        assert_eq!(text_size, buf.section_size(SectionKind::Text));
    }

    /// `(name, sh_type, sh_flags, sh_size)` of every section header.
    fn section_headers(elf: &[u8]) -> Vec<(String, u32, u64, u64)> {
        let u16_at = |at: usize| u16::from_le_bytes(elf[at..at + 2].try_into().unwrap());
        let u32_at = |at: usize| u32::from_le_bytes(elf[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(elf[at..at + 8].try_into().unwrap());
        let shoff = u64_at(40) as usize;
        let (shnum, shstrndx) = (u16_at(60) as usize, u16_at(62) as usize);
        let names = u64_at(shoff + shstrndx * 64 + 24) as usize;
        (0..shnum)
            .map(|i| {
                let h = shoff + i * 64;
                let name = &elf[names + u32_at(h) as usize..];
                let name = &name[..name.iter().position(|&c| c == 0).unwrap()];
                let name = String::from_utf8(name.to_vec()).unwrap();
                (name, u32_at(h + 4), u64_at(h + 8), u64_at(h + 32))
            })
            .collect()
    }

    #[test]
    fn stack_note_marks_the_stack_non_executable() {
        let buf = sample_buffer();
        for machine in [ElfMachine::X86_64, ElfMachine::Aarch64] {
            let elf = write_elf_object(&buf, machine).unwrap();
            let notes: Vec<_> = section_headers(&elf)
                .into_iter()
                .filter(|h| h.0 == ".note.GNU-stack")
                .collect();
            // an empty section without SHF_EXECINSTR asks for a
            // non-executable stack
            assert_eq!(
                notes,
                [(".note.GNU-stack".to_string(), SHT_PROGBITS, 0, 0)],
                "{machine:?}"
            );
        }
    }

    #[test]
    fn unsupported_reloc_for_machine_errors() {
        let mut buf = CodeBuffer::new();
        let s = buf.declare_symbol("x", SymbolBinding::Global, false);
        buf.emit_u32(0);
        buf.add_reloc(Reloc {
            section: SectionKind::Text,
            offset: 0,
            symbol: s,
            kind: RelocKind::Call26,
            addend: 0,
        });
        assert!(write_elf_object(&buf, ElfMachine::X86_64).is_err());
        assert!(write_elf_object(&buf, ElfMachine::Aarch64).is_ok());
    }
}
