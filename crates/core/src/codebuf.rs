//! Code buffer: sections, symbols, relocations, labels and fixups.
//!
//! All machine code and data generated by the framework ends up in a
//! [`CodeBuffer`]. Instructions are appended to the text section and are
//! never moved afterwards, with one exception: the tail of the function
//! being compiled moves when [`CodeBuffer::insert_text_with`] inserts code
//! before it (a prologue sized once the function is known). Forward
//! references (jumps to not-yet-emitted blocks) are handled through labels
//! and fixups that are resolved when the function is finished.
//!
//! # The reserve/commit emission contract
//!
//! Encoders do not push machine code a byte at a time. Instead they assemble
//! each instruction into an [`InstBuf`] — a fixed-size on-stack window large
//! enough for the longest x86-64 instruction — and commit it with a single
//! [`CodeBuffer::emit_inst`] call, which appends the whole instruction with
//! one bounds-checked copy into the text section's spare capacity. The
//! window writes compile down to stores into a 16-byte array (no heap
//! access, no per-byte `Vec` bookkeeping), so the cost of emitting an
//! instruction is one capacity check plus one small `memcpy`, regardless of
//! how many prefix/opcode/immediate bytes it has. `emit_u8`/`emit_u32` are
//! retained for one-off writes and tests.
//!
//! # The per-function fixup lifecycle
//!
//! Labels and fixups live in a `FixupPool` that is recycled per function
//! rather than growing for the lifetime of the module:
//!
//! 1. A reference to an **already-bound** label (a back-edge) is encoded
//!    immediately by [`CodeBuffer::add_fixup`] and kept in the pool, so an
//!    insertion can re-encode it.
//! 2. Forward references record a pending fixup in the pool.
//! 3. At function end the driver calls [`CodeBuffer::finish_func_fixups`],
//!    which resolves every pending fixup and then clears the pool (keeping
//!    its capacity), so the live fixup/label set never exceeds one
//!    function's worth.
//! 4. Drivers that compile many modules can move the pool between buffers
//!    with `CodeBuffer::adopt_fixup_pool`/`CodeBuffer::release_fixup_pool`
//!    so even the pool's backing allocation is reused across modules.
//!
//! [`CodeBuffer::resolve_fixups`] remains available for single-shot,
//! module-level resolution; on error it preserves every unresolved fixup so
//! the failure can be inspected or retried after binding the missing label.
//!
//! # Shards and the deterministic merge
//!
//! The parallel compilation pipeline ([`crate::parallel`]) gives every
//! worker thread its own *shard* `CodeBuffer` and later concatenates the
//! per-function extents of all shards, in function-index order, into one
//! merged buffer. Three pieces of machinery here support that:
//!
//! * `CodeBuffer::mark` captures the current end of every section plus the
//!   symbol and relocation counts; two marks bracket one function's output
//!   as a `ShardExtent`.
//! * `CodeBuffer::merge_from` appends one extent's section bytes to the
//!   merged buffer and rebases its relocations and symbol definitions to the
//!   merged offsets.
//! * A `SymbolRemap` translates shard-local [`SymbolId`]s to merged ids.
//!   Shard buffers keep a *declaration log*
//!   (`CodeBuffer::enable_declare_log`) recording every
//!   [`CodeBuffer::declare_symbol`] call, repeats included; the merge
//!   replays each extent's slice of the log in order, so the merged symbol
//!   table is *identical* to the one single-threaded compilation produces —
//!   for any declaration pattern, regardless of which worker compiled which
//!   function first. Without a log, symbols referenced by relocations are
//!   interned on demand in relocation order, which also matches sequential
//!   output as long as compilers declare symbols at their first use.
//!
//! The merge is byte-exact as long as each function's bytes are
//! position-independent modulo fixups and relocations (relative branch
//! fixups resolved per function, relocations for cross-function
//! references). The two ways a function can bake base-dependent bytes —
//! [`FixupKind::AbsTextOff32`] fixups and section alignment whose padding
//! depends on the shard base (e.g. `reserve_bss(.., 8)` after another
//! function already grew `.bss`) — are both tracked with per-extent event
//! counters and rejected with an error rather than merged wrongly; all
//! validation runs before any mutation, so a failed merge leaves the
//! output buffer untouched. Note the rejection is conservative, not
//! scheduling-independent: an extent using alignment or absolute fixups is
//! accepted when its shard base happens to equal its merged base (always
//! true for the first such function of a worker), so a back-end relying on
//! either may compile fine at one worker count and be rejected at another.
//! Output is never silently wrong either way; back-ends that target
//! parallel compilation should simply avoid both constructs, as all
//! in-tree back-ends do.

use crate::error::{Error, Result};

/// Identifies one of the output sections.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable code (`.text`).
    Text,
    /// Writable initialized data (`.data`).
    Data,
    /// Read-only data (`.rodata`), e.g. constant-pool entries.
    ROData,
    /// Zero-initialized data (`.bss`); only its size is tracked.
    Bss,
}

impl SectionKind {
    /// All sections in emission order.
    pub const ALL: [SectionKind; 4] = [
        SectionKind::Text,
        SectionKind::Data,
        SectionKind::ROData,
        SectionKind::Bss,
    ];

    /// Conventional ELF section name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SectionKind::Text => ".text",
            SectionKind::Data => ".data",
            SectionKind::ROData => ".rodata",
            SectionKind::Bss => ".bss",
        }
    }

    fn index(self) -> usize {
        match self {
            SectionKind::Text => 0,
            SectionKind::Data => 1,
            SectionKind::ROData => 2,
            SectionKind::Bss => 3,
        }
    }

    /// Stable single-byte code used by the on-disk artifact format
    /// ([`crate::diskcache`]). Must never change for existing variants;
    /// new sections get new codes and a format-version bump.
    pub(crate) fn code(self) -> u8 {
        self.index() as u8
    }

    /// Inverse of [`SectionKind::code`]; `None` for unknown codes.
    pub(crate) fn from_code(code: u8) -> Option<SectionKind> {
        SectionKind::ALL.get(code as usize).copied()
    }
}

/// Handle for a defined or external symbol.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

/// Symbol binding, mirroring [`crate::adapter::Linkage`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SymbolBinding {
    /// Global symbol.
    Global,
    /// Local symbol.
    Local,
    /// Weak symbol.
    Weak,
}

impl SymbolBinding {
    /// Stable single-byte code used by the on-disk artifact format
    /// ([`crate::diskcache`]). Must never change for existing variants.
    pub(crate) fn code(self) -> u8 {
        match self {
            SymbolBinding::Global => 0,
            SymbolBinding::Local => 1,
            SymbolBinding::Weak => 2,
        }
    }

    /// Inverse of [`SymbolBinding::code`]; `None` for unknown codes.
    pub(crate) fn from_code(code: u8) -> Option<SymbolBinding> {
        match code {
            0 => Some(SymbolBinding::Global),
            1 => Some(SymbolBinding::Local),
            2 => Some(SymbolBinding::Weak),
            _ => None,
        }
    }
}

/// A symbol in the output: either defined in one of our sections or external.
///
/// The name is stored in the buffer's shared name arena; use
/// [`CodeBuffer::symbol_name`] to read it.
#[derive(Clone, Debug)]
pub struct Symbol {
    /// Byte range of the name within the buffer's name arena.
    name_start: u32,
    name_end: u32,
    /// Section the symbol is defined in, `None` for undefined/external.
    pub section: Option<SectionKind>,
    /// Offset within the section.
    pub(crate) offset: u64,
    /// Size in bytes (0 if unknown).
    pub(crate) size: u64,
    /// Binding.
    pub binding: SymbolBinding,
    /// Whether the symbol names a function (vs. a data object).
    pub is_func: bool,
}

/// Relocation kinds supported by the object writer and the JIT mapper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RelocKind {
    /// Absolute 64-bit address (`R_X86_64_64` / `R_AARCH64_ABS64`).
    Abs64,
    /// 32-bit PC-relative, as used by x86-64 call/jmp/RIP-addressing
    /// (`R_X86_64_PC32`/`PLT32`); addend is typically -4.
    Pc32,
    /// AArch64 26-bit branch (`R_AARCH64_CALL26`).
    Call26,
    /// AArch64 ADRP+ADD pair low 12 bits; paired with `AdrpPage`.
    AddLo12,
    /// AArch64 ADRP page (21-bit PC-relative page address).
    AdrpPage,
}

impl RelocKind {
    /// Stable single-byte code used by the on-disk artifact format
    /// ([`crate::diskcache`]). Must never change for existing variants.
    pub(crate) fn code(self) -> u8 {
        match self {
            RelocKind::Abs64 => 0,
            RelocKind::Pc32 => 1,
            RelocKind::Call26 => 2,
            RelocKind::AddLo12 => 3,
            RelocKind::AdrpPage => 4,
        }
    }

    /// Inverse of [`RelocKind::code`]; `None` for unknown codes.
    pub(crate) fn from_code(code: u8) -> Option<RelocKind> {
        match code {
            0 => Some(RelocKind::Abs64),
            1 => Some(RelocKind::Pc32),
            2 => Some(RelocKind::Call26),
            3 => Some(RelocKind::AddLo12),
            4 => Some(RelocKind::AdrpPage),
            _ => None,
        }
    }

    /// Width in bytes of the patched field — what a relocation of this kind
    /// overwrites at its offset. Used by bounds validation
    /// ([`crate::codegen::CompiledModule::validate`]).
    pub(crate) fn field_len(self) -> u64 {
        match self {
            RelocKind::Abs64 => 8,
            _ => 4,
        }
    }
}

/// A relocation record against a symbol.
#[derive(Clone, Debug)]
pub struct Reloc {
    /// Section the relocation applies to.
    pub section: SectionKind,
    /// Offset within the section where the patched field lives.
    pub offset: u64,
    /// Target symbol.
    pub symbol: SymbolId,
    /// Relocation kind.
    pub kind: RelocKind,
    /// Constant addend.
    pub addend: i64,
}

/// A label within the text section. Labels are created unbound, can be
/// referenced by fixups (branches), and are bound to an offset exactly once.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// How a fixup patches the instruction bytes once the label offset is known.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FixupKind {
    /// x86-64: 32-bit signed displacement relative to the end of the field
    /// (the next instruction). The field is at `offset..offset+4`.
    X64Rel32,
    /// AArch64: 26-bit branch immediate (B/BL), word-scaled.
    A64Branch26,
    /// AArch64: 19-bit conditional-branch immediate (B.cond/CBZ), word-scaled.
    A64Branch19,
    /// A raw 32-bit offset from the start of the text section (used in
    /// jump tables stored in rodata is not supported; this is for tests).
    AbsTextOff32,
}

#[derive(Clone, Debug)]
struct Fixup {
    offset: u64,
    label: Label,
    kind: FixupKind,
}

/// Label and fixup storage, recycled per function (see the module docs).
///
/// Owned by the [`CodeBuffer`] by default; compile drivers that reuse
/// working memory across modules (e.g. [`crate::codegen::CompileSession`])
/// hold one and move it into each module's buffer.
#[derive(Debug, Default)]
pub(crate) struct FixupPool {
    labels: Vec<Option<u64>>,
    /// Pending references to labels not bound yet.
    fixups: Vec<Fixup>,
    /// References to labels that were already bound, encoded at once and
    /// kept so [`CodeBuffer::insert_text_with`] can re-encode them.
    bound_refs: Vec<Fixup>,
    /// Text symbols defined since the pool was last cleared: the current
    /// function's, which an insertion moves.
    text_syms: Vec<SymbolId>,
}

impl FixupPool {
    /// Drops all labels and fixups but keeps the backing allocations.
    pub(crate) fn clear(&mut self) {
        self.labels.clear();
        self.fixups.clear();
        self.bound_refs.clear();
        self.text_syms.clear();
    }
}

/// Applies one fixup to the text bytes. `target` is the bound label offset.
fn apply_fixup(text: &mut [u8], f: &Fixup, target: u64) -> Result<()> {
    match f.kind {
        FixupKind::X64Rel32 => {
            let field_end = f.offset + 4;
            let disp = target as i64 - field_end as i64;
            let disp32 = i32::try_from(disp)
                .map_err(|_| Error::Fixup(format!("rel32 displacement {disp} overflows")))?;
            text[f.offset as usize..f.offset as usize + 4].copy_from_slice(&disp32.to_le_bytes());
        }
        FixupKind::A64Branch26 => {
            let imm = branch26_imm(f.offset, target)?;
            let off = f.offset as usize;
            let insn = u32::from_le_bytes(text[off..off + 4].try_into().unwrap());
            let insn = (insn & !0x03ff_ffff) | imm;
            text[off..off + 4].copy_from_slice(&insn.to_le_bytes());
        }
        FixupKind::A64Branch19 => {
            let imm = branch19_imm(f.offset, target)?;
            let off = f.offset as usize;
            let insn = u32::from_le_bytes(text[off..off + 4].try_into().unwrap());
            let insn = (insn & !(0x7ffff << 5)) | (imm << 5);
            text[off..off + 4].copy_from_slice(&insn.to_le_bytes());
        }
        FixupKind::AbsTextOff32 => {
            let off = f.offset as usize;
            text[off..off + 4].copy_from_slice(&(target as u32).to_le_bytes());
        }
    }
    Ok(())
}

/// Word-scaled 26-bit branch immediate for a branch at `from` to `target`.
///
/// # Errors
///
/// Returns an error if the displacement is unencodable.
pub(crate) fn branch26_imm(from: u64, target: u64) -> Result<u32> {
    let delta = target as i64 - from as i64;
    let words = delta >> 2;
    if !(-(1 << 25)..(1 << 25)).contains(&words) || delta & 3 != 0 {
        return Err(Error::Fixup(format!(
            "branch26 displacement {delta} invalid"
        )));
    }
    Ok((words as u32) & 0x03ff_ffff)
}

/// Word-scaled 19-bit branch immediate for a branch at `from` to `target`.
///
/// # Errors
///
/// Returns an error if the displacement is unencodable.
pub(crate) fn branch19_imm(from: u64, target: u64) -> Result<u32> {
    let delta = target as i64 - from as i64;
    let words = delta >> 2;
    if !(-(1 << 18)..(1 << 18)).contains(&words) || delta & 3 != 0 {
        return Err(Error::Fixup(format!(
            "branch19 displacement {delta} invalid"
        )));
    }
    Ok((words as u32) & 0x7ffff)
}

/// Fixed-size on-stack assembly window for one instruction (or one short
/// instruction sequence), committed to the text section with a single
/// [`CodeBuffer::emit_inst`] call.
///
/// The capacity of 16 bytes covers the longest x86-64 instruction (15
/// bytes) and up to four AArch64 instruction words. Pushing past the
/// capacity panics in debug builds (it indicates an encoder bug, not a
/// data-dependent condition).
#[derive(Copy, Clone, Debug)]
pub struct InstBuf {
    bytes: [u8; 16],
    len: u8,
}

impl Default for InstBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl InstBuf {
    /// Creates an empty window.
    #[inline]
    pub fn new() -> InstBuf {
        InstBuf {
            bytes: [0; 16],
            len: 0,
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The assembled bytes.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Appends one byte.
    #[inline]
    pub fn push_u8(&mut self, b: u8) {
        self.bytes[self.len as usize] = b;
        self.len += 1;
    }

    /// Appends a little-endian 16-bit word.
    #[inline]
    pub fn push_u16(&mut self, w: u16) {
        let at = self.len as usize;
        self.bytes[at..at + 2].copy_from_slice(&w.to_le_bytes());
        self.len += 2;
    }

    /// Appends a little-endian 32-bit word.
    #[inline]
    pub fn push_u32(&mut self, w: u32) {
        let at = self.len as usize;
        self.bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
        self.len += 4;
    }

    /// Appends a little-endian 64-bit word.
    #[inline]
    pub fn push_u64(&mut self, q: u64) {
        let at = self.len as usize;
        self.bytes[at..at + 8].copy_from_slice(&q.to_le_bytes());
        self.len += 8;
    }

    /// Appends a little-endian signed 32-bit word.
    #[inline]
    pub fn push_i32(&mut self, v: i32) {
        self.push_u32(v as u32);
    }
}

/// Sentinel for an empty slot in the symbol-name hash index.
const NAME_SLOT_EMPTY: u32 = u32::MAX;

/// The code buffer: all sections of the module being compiled, plus label and
/// fixup machinery for the text section.
#[derive(Debug, Default)]
pub struct CodeBuffer {
    sections: [Vec<u8>; 3],
    bss_size: u64,
    symbols: Vec<Symbol>,
    /// Single arena holding every symbol name back to back.
    names: String,
    /// Open-addressing hash index over `symbols`, keyed by name. Slots hold
    /// symbol indices; [`NAME_SLOT_EMPTY`] marks a free slot. Lookups probe
    /// linearly and compare names in the arena, so declaring a symbol costs
    /// at most one arena copy and zero `String` allocations.
    name_slots: Vec<u32>,
    relocs: Vec<Reloc>,
    /// Index of the current function's first relocation: the relocation
    /// count when the fixup pool was last recycled or installed.
    func_relocs: usize,
    pool: FixupPool,
    /// Count of `align`/`reserve_bss` calls with alignment > 1, per section.
    /// [`CodeBuffer::merge_from`] uses the per-extent delta to detect (and
    /// reject) function output whose padding depends on the section base.
    align_events: [u32; 4],
    /// Count of [`FixupKind::AbsTextOff32`] fixups ever recorded. The fixup
    /// pool itself is recycled per function, so this monotone counter is
    /// what lets [`CodeBuffer::merge_from`] detect (and reject) extents
    /// whose bytes bake in shard-absolute text offsets.
    abs_fixup_events: u32,
    /// Optional log of every `declare_symbol` call (including repeats of
    /// already-interned names), enabled on shard buffers so the merge can
    /// replay declarations in their exact emission order. `None` (the
    /// default) costs nothing.
    declare_log: Option<Vec<u32>>,
}

impl CodeBuffer {
    /// Creates an empty code buffer.
    pub fn new() -> CodeBuffer {
        CodeBuffer::default()
    }

    // ---- sections ---------------------------------------------------------

    /// Current size of a section in bytes.
    pub fn section_size(&self, kind: SectionKind) -> u64 {
        match kind {
            SectionKind::Bss => self.bss_size,
            _ => self.sections[kind.index()].len() as u64,
        }
    }

    /// Read-only view of a section's contents (empty for `.bss`).
    pub fn section_data(&self, kind: SectionKind) -> &[u8] {
        match kind {
            SectionKind::Bss => &[],
            _ => &self.sections[kind.index()],
        }
    }

    /// Appends bytes to a section and returns the offset they were placed at.
    ///
    /// # Panics
    ///
    /// Panics if called for [`SectionKind::Bss`]; use
    /// [`CodeBuffer::reserve_bss`] instead.
    pub fn append(&mut self, kind: SectionKind, bytes: &[u8]) -> u64 {
        assert!(kind != SectionKind::Bss, "cannot append bytes to .bss");
        let sec = &mut self.sections[kind.index()];
        let off = sec.len() as u64;
        sec.extend_from_slice(bytes);
        off
    }

    /// Pads a section with zero bytes up to the given alignment and returns
    /// the aligned offset.
    pub(crate) fn align(&mut self, kind: SectionKind, align: u64) -> u64 {
        assert!(align.is_power_of_two());
        if align > 1 {
            self.align_events[kind.index()] += 1;
        }
        if kind == SectionKind::Bss {
            self.bss_size = (self.bss_size + align - 1) & !(align - 1);
            return self.bss_size;
        }
        let sec = &mut self.sections[kind.index()];
        let aligned = (sec.len() + align as usize - 1) & !(align as usize - 1);
        sec.resize(aligned, 0);
        aligned as u64
    }

    /// Reserves zero-initialized space in `.bss`, returning its offset.
    pub fn reserve_bss(&mut self, size: u64, align: u64) -> u64 {
        self.align(SectionKind::Bss, align.max(1));
        let off = self.bss_size;
        self.bss_size += size;
        off
    }

    // ---- text emission ----------------------------------------------------

    /// Current offset in the text section (where the next byte will go).
    #[inline]
    pub fn text_offset(&self) -> u64 {
        self.sections[0].len() as u64
    }

    /// Mutable access to the raw text section. Encoders append here.
    #[inline]
    pub fn text_mut(&mut self) -> &mut Vec<u8> {
        &mut self.sections[0]
    }

    /// Read-only access to the text section bytes.
    #[inline]
    pub fn text(&self) -> &[u8] {
        &self.sections[0]
    }

    /// Commits one assembled instruction window to the text section with a
    /// single bounds-checked copy. This is the fast path every encoder uses;
    /// see the module docs for the reserve/commit contract.
    #[inline]
    pub fn emit_inst(&mut self, inst: InstBuf) {
        self.sections[0].extend_from_slice(inst.as_slice());
    }

    /// Appends raw bytes to the text section in one copy.
    #[inline]
    pub fn emit_slice(&mut self, bytes: &[u8]) {
        self.sections[0].extend_from_slice(bytes);
    }

    /// Appends a single byte to the text section.
    #[inline]
    pub fn emit_u8(&mut self, b: u8) {
        self.sections[0].push(b);
    }

    /// Appends a little-endian 32-bit word to the text section.
    #[inline]
    pub fn emit_u32(&mut self, w: u32) {
        self.sections[0].extend_from_slice(&w.to_le_bytes());
    }

    // ---- symbols & relocations ---------------------------------------------

    /// Adds (or returns the existing) symbol with the given name.
    ///
    /// The name is copied once into the buffer's name arena; repeated
    /// declarations perform a hash lookup with no allocation at all. A later
    /// definition via [`CodeBuffer::define_symbol`] upgrades an undefined
    /// symbol created here.
    pub fn declare_symbol(
        &mut self,
        name: &str,
        binding: SymbolBinding,
        is_func: bool,
    ) -> SymbolId {
        let hash = name_hash(name);
        let id = if let Some(id) = self.name_lookup(name, hash) {
            id
        } else {
            let id = SymbolId(self.symbols.len() as u32);
            let name_start = self.names.len() as u32;
            self.names.push_str(name);
            self.symbols.push(Symbol {
                name_start,
                name_end: self.names.len() as u32,
                section: None,
                offset: 0,
                size: 0,
                binding,
                is_func,
            });
            self.name_insert(hash, id.0);
            id
        };
        if let Some(log) = &mut self.declare_log {
            log.push(id.0);
        }
        id
    }

    /// Enables the declaration log (see the module docs on merging): every
    /// subsequent [`CodeBuffer::declare_symbol`] call is recorded, repeats
    /// included, so [`CodeBuffer::merge_from`] can replay a function's
    /// declarations in their exact order. The parallel pipeline enables this
    /// on every shard buffer; it is off by default.
    pub(crate) fn enable_declare_log(&mut self) {
        if self.declare_log.is_none() {
            self.declare_log = Some(Vec::new());
        }
    }

    /// Name of a symbol.
    pub fn symbol_name(&self, id: SymbolId) -> &str {
        let sym = &self.symbols[id.0 as usize];
        &self.names[sym.name_start as usize..sym.name_end as usize]
    }

    fn name_of(&self, index: u32) -> &str {
        let sym = &self.symbols[index as usize];
        &self.names[sym.name_start as usize..sym.name_end as usize]
    }

    fn name_lookup(&self, name: &str, hash: u64) -> Option<SymbolId> {
        if self.name_slots.is_empty() {
            return None;
        }
        let mask = self.name_slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.name_slots[slot];
            if entry == NAME_SLOT_EMPTY {
                return None;
            }
            if self.name_of(entry) == name {
                return Some(SymbolId(entry));
            }
            slot = (slot + 1) & mask;
        }
    }

    fn name_insert(&mut self, hash: u64, index: u32) {
        // grow at 50% load (the table starts empty)
        if (self.symbols.len() + 1) * 2 > self.name_slots.len() {
            // the rebuild re-indexes every symbol, including the one at
            // `index` (already pushed by declare_symbol), so we are done
            self.name_rebuild((self.name_slots.len() * 2).max(16));
            return;
        }
        let mask = self.name_slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.name_slots[slot] != NAME_SLOT_EMPTY {
            slot = (slot + 1) & mask;
        }
        self.name_slots[slot] = index;
    }

    fn name_rebuild(&mut self, new_size: usize) {
        debug_assert!(new_size.is_power_of_two());
        let mut slots = std::mem::take(&mut self.name_slots);
        slots.clear();
        slots.resize(new_size, NAME_SLOT_EMPTY);
        let mask = new_size - 1;
        for i in 0..self.symbols.len() as u32 {
            let hash = name_hash(self.name_of(i));
            let mut slot = hash as usize & mask;
            while slots[slot] != NAME_SLOT_EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = i;
        }
        self.name_slots = slots;
    }

    /// Marks a symbol as defined at the given section offset.
    pub fn define_symbol(&mut self, id: SymbolId, section: SectionKind, offset: u64, size: u64) {
        let sym = &mut self.symbols[id.0 as usize];
        sym.section = Some(section);
        sym.offset = offset;
        sym.size = size;
        if section == SectionKind::Text {
            self.pool.text_syms.push(id);
        }
    }

    /// Updates the recorded size of a symbol (e.g. once a function is done).
    pub fn set_symbol_size(&mut self, id: SymbolId, size: u64) {
        self.symbols[id.0 as usize].size = size;
    }

    /// Looks up a symbol by name.
    #[cfg(test)]
    pub(crate) fn symbol_by_name(&self, name: &str) -> Option<SymbolId> {
        self.name_lookup(name, name_hash(name))
    }

    /// Read-only access to a symbol.
    pub(crate) fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// All symbols in id order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Records a relocation.
    pub fn add_reloc(&mut self, reloc: Reloc) {
        self.relocs.push(reloc);
    }

    /// All recorded relocations.
    pub fn relocs(&self) -> &[Reloc] {
        &self.relocs
    }

    // ---- labels & fixups ----------------------------------------------------

    /// Creates a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.pool.labels.len() as u32);
        self.pool.labels.push(None);
        l
    }

    /// Binds a label to the current text offset.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind_label(&mut self, label: Label) {
        let slot = &mut self.pool.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.sections[0].len() as u64);
    }

    /// Records that the field at `offset` in the text section refers to
    /// `label`. A field referring to an already-bound label (a back-edge) is
    /// encoded now; any other is patched once the label is bound, by
    /// [`CodeBuffer::resolve_fixups`]. A back-edge whose displacement does
    /// not fit stays pending, so resolution reports it.
    pub fn add_fixup(&mut self, offset: u64, label: Label, kind: FixupKind) {
        if kind == FixupKind::AbsTextOff32 {
            self.abs_fixup_events += 1;
        }
        let f = Fixup {
            offset,
            label,
            kind,
        };
        match self.pool.labels[label.0 as usize] {
            Some(target) if apply_fixup(&mut self.sections[0], &f, target).is_ok() => {
                self.pool.bound_refs.push(f)
            }
            _ => self.pool.fixups.push(f),
        }
    }

    /// Inserts the bytes `emit` appends to the text section at `at`, a text
    /// offset inside the current function (the code emitted since the fixup
    /// pool was last recycled or installed). Everything at or after `at`
    /// moves up by the inserted length: the text, bound labels, pending
    /// fixups, and the current function's text relocations and symbols.
    /// References that were encoded already are re-encoded. The cost is
    /// linear in the current function's bytes and records, not the module's.
    ///
    /// `emit` must append plain instruction bytes only: no labels, fixups,
    /// relocations or symbols.
    ///
    /// # Errors
    ///
    /// Returns an error if a re-encoded reference no longer fits its field.
    /// The text has moved by then, so the function must be discarded.
    pub fn insert_text_with(&mut self, at: u64, emit: impl FnOnce(&mut CodeBuffer)) -> Result<()> {
        let end = self.text_offset();
        debug_assert!(at <= end, "insertion past the end of the text");
        let records = |b: &CodeBuffer| {
            let p = &b.pool;
            p.fixups.len() + p.bound_refs.len() + p.text_syms.len() + b.relocs.len()
        };
        let before = records(self);
        emit(self);
        debug_assert_eq!(
            before,
            records(self),
            "inserted code must not record fixups, relocations or symbols"
        );
        let n = self.text_offset() - end;
        if n == 0 {
            return Ok(());
        }
        self.sections[0][at as usize..].rotate_right(n as usize);
        let moved = |off: &mut u64| {
            if *off >= at {
                *off += n;
            }
        };
        let pool = &mut self.pool;
        pool.labels.iter_mut().flatten().for_each(moved);
        pool.fixups.iter_mut().for_each(|f| moved(&mut f.offset));
        pool.bound_refs
            .iter_mut()
            .for_each(|f| moved(&mut f.offset));
        for r in &mut self.relocs[self.func_relocs..] {
            if r.section == SectionKind::Text {
                moved(&mut r.offset);
            }
        }
        for &id in &pool.text_syms {
            moved(&mut self.symbols[id.0 as usize].offset);
        }
        for f in &pool.bound_refs {
            let target = pool.labels[f.label.0 as usize].expect("bound reference to a bound label");
            apply_fixup(&mut self.sections[0], f, target)?;
        }
        Ok(())
    }

    /// Resolves all pending fixups. Must be called after all labels used by
    /// fixups have been bound (typically once per function, via
    /// [`CodeBuffer::finish_func_fixups`], or once per module).
    ///
    /// On success the fixup list is emptied (capacity retained). On error,
    /// every fixup that was not applied — including the failing one — is
    /// preserved, so the caller can bind the missing label and retry.
    ///
    /// # Errors
    ///
    /// Returns an error if a referenced label is unbound or a displacement
    /// does not fit its encoding.
    pub fn resolve_fixups(&mut self) -> Result<()> {
        let text = &mut self.sections[0];
        let pool = &mut self.pool;
        for (i, f) in pool.fixups.iter().enumerate() {
            let step = pool.labels[f.label.0 as usize]
                .ok_or_else(|| Error::Fixup(format!("label {:?} unbound", f.label)))
                .and_then(|target| apply_fixup(text, f, target));
            if let Err(e) = step {
                // keep the unapplied suffix (failing fixup first)
                pool.fixups.drain(..i);
                return Err(e);
            }
        }
        pool.fixups.clear();
        Ok(())
    }

    /// Per-function fixup finalization: resolves every pending fixup and
    /// recycles the label/fixup pool so its memory is reused by the next
    /// function. Call once per function, after its last byte was emitted; any
    /// label created before this call is invalid afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeBuffer::resolve_fixups`] errors; in that case the
    /// pool keeps the failing fixup and everything recorded after it (the
    /// successfully applied prefix is dropped), and the labels stay intact.
    pub fn finish_func_fixups(&mut self) -> Result<()> {
        self.resolve_fixups()?;
        self.pool.clear();
        self.func_relocs = self.relocs.len();
        Ok(())
    }

    /// Installs a (typically recycled) fixup pool, returning the previous
    /// one. The installed pool is cleared first; use this together with
    /// [`CodeBuffer::release_fixup_pool`] to reuse the pool's allocations
    /// across modules.
    pub(crate) fn adopt_fixup_pool(&mut self, mut pool: FixupPool) -> FixupPool {
        pool.clear();
        self.func_relocs = self.relocs.len();
        std::mem::replace(&mut self.pool, pool)
    }

    /// Takes the fixup pool out of the buffer (cleared, capacity retained),
    /// leaving an empty default pool behind.
    pub(crate) fn release_fixup_pool(&mut self) -> FixupPool {
        let mut pool = std::mem::take(&mut self.pool);
        pool.clear();
        self.func_relocs = self.relocs.len();
        pool
    }

    /// Number of unresolved fixups (0 after a successful
    /// [`CodeBuffer::resolve_fixups`]).
    #[cfg(test)]
    pub(crate) fn pending_fixups(&self) -> usize {
        self.pool.fixups.len()
    }

    // ---- shard marks & deterministic merge ---------------------------------

    /// Captures the current end of every section plus the symbol and
    /// relocation counts. Two marks bracket the output of one compilation
    /// unit (a function) as a [`ShardExtent`].
    pub(crate) fn mark(&self) -> BufMark {
        BufMark {
            text: self.sections[0].len() as u64,
            data: self.sections[1].len() as u64,
            rodata: self.sections[2].len() as u64,
            bss: self.bss_size,
            syms: self.symbols.len() as u32,
            relocs: self.relocs.len() as u32,
            aligns: self.align_events,
            abs_fixups: self.abs_fixup_events,
            declares: self.declare_log.as_ref().map_or(0, |l| l.len() as u32),
        }
    }

    /// Translates a shard-local symbol to this (merged) buffer, interning it
    /// by name on first sight.
    fn map_shard_symbol(
        &mut self,
        shard: &CodeBuffer,
        sid: SymbolId,
        map: &mut SymbolRemap,
    ) -> SymbolId {
        if let Some(id) = map.map[sid.0 as usize] {
            return id;
        }
        let sym = shard.symbol(sid);
        let id = self.declare_symbol(shard.symbol_name(sid), sym.binding, sym.is_func);
        map.map[sid.0 as usize] = Some(id);
        id
    }

    /// Appends one function extent of a shard buffer to this buffer,
    /// rebasing its relocations and symbol definitions to the merged
    /// offsets. Returns the text offset the extent was placed at.
    ///
    /// If the shard keeps a declaration log, the extent's declarations are
    /// replayed through `map` in their exact emission order; otherwise
    /// relocation targets are interned on demand in relocation order, which
    /// reproduces the single-threaded symbol-table order when back-ends
    /// declare symbols at first use (see the module docs). Definitions of
    /// extent-local symbols are rebased.
    ///
    /// All self-containment checks run *before* any mutation, so on `Err`
    /// this buffer is left exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns an error — without modifying the buffer — if the extent is
    /// not self-contained: a relocation or symbol definition points outside
    /// its own section ranges, it used base-dependent section alignment at
    /// a shifted merge base, or it recorded an absolute-text-offset fixup
    /// ([`FixupKind::AbsTextOff32`]) whose baked-in offsets a rebase would
    /// invalidate.
    pub(crate) fn merge_from(
        &mut self,
        shard: &CodeBuffer,
        ext: &ShardExtent,
        map: &mut SymbolRemap,
    ) -> Result<u64> {
        let (s, e) = (&ext.start, &ext.end);
        let bases = [
            self.sections[0].len() as u64,
            self.sections[1].len() as u64,
            self.sections[2].len() as u64,
            self.bss_size,
        ];

        // ---- validation (read-only; the buffer is untouched on error) ----
        // Alignment padding and absolute-text-offset fixups are computed
        // from the base the function saw in its shard; if the extent used
        // either and its merged base differs from its shard base, the baked
        // bytes would be wrong — reject instead of silently diverging from
        // sequential output. (Plain appends are base-independent and merge
        // freely.)
        for (i, &base) in bases.iter().enumerate() {
            if e.aligns[i] > s.aligns[i] && base != s.section(i) {
                return Err(Error::Emit(format!(
                    "function aligned {} from a shard-dependent base; \
                     cannot rebase deterministically",
                    SectionKind::ALL[i].name()
                )));
            }
        }
        if e.abs_fixups > s.abs_fixups && bases[0] != s.text {
            return Err(Error::Emit(
                "function baked absolute text offsets (AbsTextOff32 fixups); \
                 cannot rebase deterministically"
                    .into(),
            ));
        }
        for r in shard.relocs[s.relocs as usize..e.relocs as usize].iter() {
            let si = r.section.index();
            if si >= 3 {
                return Err(Error::Emit("cannot merge a relocation against .bss".into()));
            }
            let (lo, hi) = (s.section(si), e.section(si));
            if r.offset < lo || r.offset >= hi {
                return Err(Error::Emit(format!(
                    "relocation at {}+{} outside its function extent",
                    r.section.name(),
                    r.offset
                )));
            }
        }
        for sid in s.syms..e.syms {
            let sym = shard.symbol(SymbolId(sid));
            if let Some(kind) = sym.section {
                let (lo, hi) = (s.section(kind.index()), e.section(kind.index()));
                if sym.offset < lo || sym.offset > hi {
                    return Err(Error::Emit(format!(
                        "symbol {:?} defined outside its declaring extent",
                        shard.symbol_name(SymbolId(sid))
                    )));
                }
            }
        }

        // ---- mutation (infallible from here on) ----
        for i in 0..3 {
            let (lo, hi) = (s.section(i) as usize, e.section(i) as usize);
            self.sections[i].extend_from_slice(&shard.sections[i][lo..hi]);
        }
        self.bss_size += e.bss - s.bss;
        map.map.resize(shard.symbols.len(), None);

        // If the shard kept a declaration log, replay this extent's
        // declarations in their exact emission order — this reproduces the
        // single-threaded symbol table for every declaration pattern,
        // including symbols that are declared but never relocated against
        // and names first interned by a function the worker compiled
        // earlier.
        if let Some(log) = &shard.declare_log {
            for &sid in &log[s.declares as usize..e.declares as usize] {
                self.map_shard_symbol(shard, SymbolId(sid), map);
            }
        }

        // Relocations: on-demand symbol interning in relocation order (the
        // ordering fallback when no declaration log is present).
        for r in shard.relocs[s.relocs as usize..e.relocs as usize].iter() {
            let si = r.section.index();
            let lo = s.section(si);
            let symbol = self.map_shard_symbol(shard, r.symbol, map);
            self.relocs.push(Reloc {
                section: r.section,
                offset: r.offset - lo + bases[si],
                symbol,
                kind: r.kind,
                addend: r.addend,
            });
        }

        // Leftover symbols declared during the extent, plus definitions of
        // extent-local symbols (e.g. data objects emitted by the function).
        for sid in s.syms..e.syms {
            let id = self.map_shard_symbol(shard, SymbolId(sid), map);
            let sym = shard.symbol(SymbolId(sid));
            if let Some(kind) = sym.section {
                let lo = s.section(kind.index());
                self.define_symbol(id, kind, sym.offset - lo + bases[kind.index()], sym.size);
            }
        }
        Ok(bases[0])
    }
}

/// A snapshot of a [`CodeBuffer`]'s section/symbol/relocation extents; see
/// [`CodeBuffer::mark`].
#[derive(Copy, Clone, Debug)]
pub(crate) struct BufMark {
    text: u64,
    data: u64,
    rodata: u64,
    bss: u64,
    syms: u32,
    relocs: u32,
    aligns: [u32; 4],
    abs_fixups: u32,
    declares: u32,
}

impl BufMark {
    /// Section end (text/data/rodata/bss) by section index.
    fn section(&self, idx: usize) -> u64 {
        match idx {
            0 => self.text,
            1 => self.data,
            2 => self.rodata,
            _ => self.bss,
        }
    }
}

/// The output of one compilation unit within a shard buffer, bracketed by
/// two [`BufMark`]s.
#[derive(Copy, Clone, Debug)]
pub(crate) struct ShardExtent {
    /// State of the shard buffer before the unit was compiled.
    pub(crate) start: BufMark,
    /// State of the shard buffer after the unit was compiled.
    pub(crate) end: BufMark,
}

impl ShardExtent {
    /// Number of text bytes the unit emitted.
    pub(crate) fn text_len(&self) -> u64 {
        self.end.text - self.start.text
    }
}

/// Panics with a labeled message unless two buffers are identical in every
/// observable field: all section bytes and sizes, the full symbol table
/// (names, definitions, sizes, bindings, kinds) and every relocation.
///
/// This is the single source of truth for "byte-identical output" used by
/// the parallel-pipeline, service and disk-cache determinism tests;
/// keeping it here means a future [`CodeBuffer`] field only
/// needs to be added to the comparison once.
pub fn assert_identical(a: &CodeBuffer, b: &CodeBuffer, what: &str) {
    for kind in SectionKind::ALL {
        assert_eq!(
            a.section_data(kind),
            b.section_data(kind),
            "{what}: {kind:?} bytes differ"
        );
        assert_eq!(
            a.section_size(kind),
            b.section_size(kind),
            "{what}: {kind:?} size differs"
        );
    }
    assert_eq!(a.symbols().len(), b.symbols().len(), "{what}: symbol count");
    for i in 0..a.symbols().len() as u32 {
        let id = SymbolId(i);
        let (sa, sb) = (a.symbol(id), b.symbol(id));
        assert_eq!(a.symbol_name(id), b.symbol_name(id), "{what}: symbol {i}");
        assert_eq!(sa.section, sb.section, "{what}: symbol {i} section");
        assert_eq!(sa.offset, sb.offset, "{what}: symbol {i} offset");
        assert_eq!(sa.size, sb.size, "{what}: symbol {i} size");
        assert_eq!(sa.binding, sb.binding, "{what}: symbol {i} binding");
        assert_eq!(sa.is_func, sb.is_func, "{what}: symbol {i} kind");
    }
    assert_eq!(a.relocs().len(), b.relocs().len(), "{what}: reloc count");
    for (i, (ra, rb)) in a.relocs().iter().zip(b.relocs()).enumerate() {
        assert_eq!(ra.section, rb.section, "{what}: reloc {i} section");
        assert_eq!(ra.offset, rb.offset, "{what}: reloc {i} offset");
        assert_eq!(ra.symbol, rb.symbol, "{what}: reloc {i} symbol");
        assert_eq!(ra.kind, rb.kind, "{what}: reloc {i} kind");
        assert_eq!(ra.addend, rb.addend, "{what}: reloc {i} addend");
    }
}

/// Shard-local [`SymbolId`] → merged [`SymbolId`] translation table used by
/// [`CodeBuffer::merge_from`]. One remap per shard buffer, shared across all
/// of that shard's extents.
#[derive(Debug, Default)]
pub(crate) struct SymbolRemap {
    map: Vec<Option<SymbolId>>,
}

impl SymbolRemap {
    /// A remap whose first `n` symbols translate to themselves — used when
    /// every shard and the merged buffer pre-declare the same `n` module
    /// symbols in the same order.
    pub(crate) fn identity(n: u32) -> SymbolRemap {
        SymbolRemap {
            map: (0..n).map(|i| Some(SymbolId(i))).collect(),
        }
    }
}

/// Hash of a symbol name for the interning table. Ids are assigned in
/// declaration order, so the hash never shows in the output.
#[inline]
fn name_hash(name: &str) -> u64 {
    crate::hash::StableHasher::hash_bytes(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_align_sections() {
        let mut buf = CodeBuffer::new();
        assert_eq!(buf.append(SectionKind::Data, &[1, 2, 3]), 0);
        assert_eq!(buf.align(SectionKind::Data, 8), 8);
        assert_eq!(buf.append(SectionKind::Data, &[4]), 8);
        assert_eq!(buf.section_size(SectionKind::Data), 9);
        assert_eq!(buf.section_data(SectionKind::Data)[..3], [1, 2, 3]);
        // already aligned: no padding added
        assert_eq!(buf.align(SectionKind::Data, 1), 9);
        assert_eq!(buf.align(SectionKind::Data, 16), 16);
        assert_eq!(&buf.section_data(SectionKind::Data)[9..], &[0; 7]);
    }

    #[test]
    fn bss_reservation() {
        let mut buf = CodeBuffer::new();
        assert_eq!(buf.reserve_bss(5, 1), 0);
        assert_eq!(buf.reserve_bss(8, 8), 8);
        assert_eq!(buf.section_size(SectionKind::Bss), 16);
        assert!(buf.section_data(SectionKind::Bss).is_empty());
    }

    #[test]
    fn symbols_declare_define_lookup() {
        let mut buf = CodeBuffer::new();
        let a = buf.declare_symbol("foo", SymbolBinding::Global, true);
        let b = buf.declare_symbol("foo", SymbolBinding::Global, true);
        assert_eq!(a, b);
        buf.define_symbol(a, SectionKind::Text, 16, 32);
        assert_eq!(buf.symbol(a).offset, 16);
        assert_eq!(buf.symbol_name(a), "foo");
        assert_eq!(buf.symbol_by_name("foo"), Some(a));
        assert_eq!(buf.symbol_by_name("bar"), None);
    }

    #[test]
    fn symbol_interning_scales_past_table_growth() {
        let mut buf = CodeBuffer::new();
        let mut ids = Vec::new();
        for i in 0..300 {
            ids.push(buf.declare_symbol(&format!("sym_{i}"), SymbolBinding::Local, true));
        }
        for (i, &id) in ids.iter().enumerate() {
            let name = format!("sym_{i}");
            assert_eq!(buf.symbol_by_name(&name), Some(id));
            assert_eq!(buf.declare_symbol(&name, SymbolBinding::Local, true), id);
            assert_eq!(buf.symbol_name(id), name);
        }
        assert_eq!(buf.symbols().len(), 300);
        assert_eq!(buf.symbol_by_name("sym_300"), None);
        // every symbol occupies exactly one slot (growth rebuilds must not
        // double-insert the symbol that triggered them)
        let occupied = buf
            .name_slots
            .iter()
            .filter(|&&s| s != NAME_SLOT_EMPTY)
            .count();
        assert_eq!(occupied, buf.symbols().len());
    }

    #[test]
    fn inst_buf_batched_writes() {
        let mut i = InstBuf::new();
        assert!(i.is_empty());
        i.push_u8(0x48);
        i.push_u16(0x0102);
        i.push_u32(0xdead_beef);
        i.push_u64(0x1122_3344_5566_7788);
        assert_eq!(i.len(), 15);
        let mut buf = CodeBuffer::new();
        buf.emit_inst(i);
        assert_eq!(
            buf.text(),
            &[
                0x48, 0x02, 0x01, 0xef, 0xbe, 0xad, 0xde, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22,
                0x11
            ]
        );
        buf.emit_slice(&[1, 2]);
        assert_eq!(buf.text_offset(), 17);
    }

    #[test]
    fn x64_rel32_fixup_resolves() {
        let mut buf = CodeBuffer::new();
        // Fake a jmp rel32: opcode byte + 4 byte displacement.
        buf.emit_u8(0xe9);
        let field = buf.text_offset();
        buf.emit_u32(0);
        let label = buf.new_label();
        buf.add_fixup(field, label, FixupKind::X64Rel32);
        // some padding, then the target
        buf.emit_u8(0x90);
        buf.emit_u8(0x90);
        buf.bind_label(label);
        buf.resolve_fixups().unwrap();
        let disp = i32::from_le_bytes(buf.text()[1..5].try_into().unwrap());
        // target = 7, field end = 5 -> disp = 2
        assert_eq!(disp, 2);
        assert_eq!(buf.pending_fixups(), 0);
    }

    #[test]
    fn a64_branch26_fixup_resolves() {
        let mut buf = CodeBuffer::new();
        let branch_off = buf.text_offset();
        buf.emit_u32(0x1400_0000); // B with zero imm
        buf.emit_u32(0xd503_201f); // NOP
        let label = buf.new_label();
        buf.bind_label(label);
        buf.emit_u32(0xd65f_03c0); // RET
        buf.add_fixup(branch_off, label, FixupKind::A64Branch26);
        buf.resolve_fixups().unwrap();
        let insn = u32::from_le_bytes(buf.text()[0..4].try_into().unwrap());
        assert_eq!(insn & 0x03ff_ffff, 2); // 8 bytes ahead = 2 words
    }

    #[test]
    fn unbound_label_errors() {
        let mut buf = CodeBuffer::new();
        buf.emit_u32(0);
        let l = buf.new_label();
        buf.add_fixup(0, l, FixupKind::X64Rel32);
        assert!(buf.resolve_fixups().is_err());
    }

    #[test]
    fn failed_resolution_preserves_unresolved_fixups() {
        let mut buf = CodeBuffer::new();
        // resolved fixup, then an unbound one, then another resolvable one
        buf.emit_u8(0xe9);
        let f1 = buf.text_offset();
        buf.emit_u32(0);
        let bound = buf.new_label();
        buf.add_fixup(f1, bound, FixupKind::X64Rel32);
        buf.emit_u8(0xe9);
        let f2 = buf.text_offset();
        buf.emit_u32(0);
        let unbound = buf.new_label();
        buf.add_fixup(f2, unbound, FixupKind::X64Rel32);
        let f3 = buf.text_offset();
        buf.emit_u32(0);
        buf.add_fixup(f3, bound, FixupKind::AbsTextOff32);
        buf.bind_label(bound);

        assert!(buf.resolve_fixups().is_err());
        // the unbound fixup and everything after it survive the failure
        assert_eq!(buf.pending_fixups(), 2);
        // a retry after the error must NOT silently succeed
        assert!(buf.resolve_fixups().is_err());
        assert_eq!(buf.pending_fixups(), 2);
        // ...until the label is actually bound
        buf.bind_label(unbound);
        buf.resolve_fixups().unwrap();
        assert_eq!(buf.pending_fixups(), 0);
        let disp = i32::from_le_bytes(buf.text()[f2 as usize..f2 as usize + 4].try_into().unwrap());
        assert_eq!(disp as u64, buf.text_offset() - (f2 + 4));
    }

    #[test]
    fn finish_func_recycles_labels() {
        let mut buf = CodeBuffer::new();
        let l = buf.new_label();
        buf.emit_u8(0xe9);
        let field = buf.text_offset();
        buf.emit_u32(0);
        buf.add_fixup(field, l, FixupKind::X64Rel32);
        buf.bind_label(l);
        buf.finish_func_fixups().unwrap();
        // labels are recycled: the next function starts at label 0 again
        let l2 = buf.new_label();
        assert_eq!(l2, Label(0));
        buf.bind_label(l2);
        buf.finish_func_fixups().unwrap();
    }

    #[test]
    fn fixup_pool_moves_between_buffers() {
        let mut a = CodeBuffer::new();
        let l = a.new_label();
        a.bind_label(l);
        a.finish_func_fixups().unwrap();
        let pool = a.release_fixup_pool();
        let mut b = CodeBuffer::new();
        b.adopt_fixup_pool(pool);
        let l = b.new_label();
        assert_eq!(l, Label(0));
        b.bind_label(l);
        assert_eq!(b.pool.labels[l.0 as usize], Some(0));
    }

    /// Seeded property test of [`CodeBuffer::insert_text_with`]: a function
    /// of random filler, forward and back branches, label bindings,
    /// `call`-style relocations and text symbols, after an earlier function;
    /// code inserted at a random instruction boundary. Every branch must
    /// land on the instruction its label was bound before, every relocation
    /// must point at its own field, and the earlier function must not move.
    /// x86-64 uses `jmp rel32` and `Pc32`; AArch64 uses 4-byte words, `b`
    /// and `b.ne` with `A64Branch26`/`A64Branch19` fixups, and `Call26`.
    fn check_insertion(a64: bool) {
        use crate::rng::Xoshiro256;
        let call_kind = if a64 {
            RelocKind::Call26
        } else {
            RelocKind::Pc32
        };
        // the word of a64 instruction `inst` (its first byte's offset)
        let word =
            |text: &[u8], inst: usize| u32::from_le_bytes(text[inst..inst + 4].try_into().unwrap());
        for seed in 0..300 {
            let mut rng = Xoshiro256::new(seed);
            let mut buf = CodeBuffer::new();
            // an earlier, finished function with a relocation and a symbol
            let prev = buf.declare_symbol("prev", SymbolBinding::Global, true);
            buf.define_symbol(prev, SectionKind::Text, 0, 0);
            buf.emit_slice(&[0xcc; 8]);
            buf.add_reloc(Reloc {
                section: SectionKind::Text,
                offset: 4,
                symbol: prev,
                kind: call_kind,
                addend: 0,
            });
            buf.finish_func_fixups().unwrap();
            let prev_text = buf.text().to_vec();

            let start = buf.text_offset();
            let func = buf.declare_symbol("f", SymbolBinding::Global, true);
            buf.define_symbol(func, SectionKind::Text, start, 0);
            let mut starts = vec![start]; // instruction boundaries
            let mut labels: Vec<(Label, Option<u64>)> = Vec::new();
            // (field, label index): the rel32 field, or the a64 instruction
            let mut branches: Vec<(u64, usize)> = Vec::new();
            let mut relocs: Vec<(usize, u32)> = Vec::new(); // (reloc index, marker)
            let mut syms: Vec<(SymbolId, u64)> = vec![(func, start)];
            for step in 0..40u32 {
                match rng.below(5) {
                    0 if a64 => {
                        for _ in 0..1 + rng.below(6) {
                            buf.emit_u32(0xd503_201f); // nop
                        }
                    }
                    0 => buf.emit_slice(&vec![0x90; 1 + rng.below(6) as usize]),
                    1 => {
                        let l = buf.new_label();
                        let bound = rng.chance(1, 2).then(|| {
                            buf.bind_label(l);
                            buf.text_offset()
                        });
                        labels.push((l, bound));
                        continue;
                    }
                    2 if !labels.is_empty() => {
                        let li = rng.below(labels.len() as u64) as usize;
                        let (insn, kind) = match (a64, rng.chance(1, 2)) {
                            (true, true) => (Some(0x1400_0000), FixupKind::A64Branch26), // b
                            (true, false) => (Some(0x5400_0001), FixupKind::A64Branch19), // b.ne
                            (false, _) => (None, FixupKind::X64Rel32),
                        };
                        let field = match insn {
                            Some(w) => {
                                let at = buf.text_offset();
                                buf.emit_u32(w);
                                at
                            }
                            None => {
                                buf.emit_u8(0xe9);
                                let at = buf.text_offset();
                                buf.emit_u32(0);
                                at
                            }
                        };
                        buf.add_fixup(field, labels[li].0, kind);
                        branches.push((field, li));
                    }
                    3 => {
                        // a64: `bl` with the step as its (relocated) immediate
                        let marker = if a64 {
                            0x9400_0000 | step
                        } else {
                            0x5eed_0000 | step
                        };
                        if !a64 {
                            buf.emit_u8(0xe8);
                        }
                        relocs.push((buf.relocs().len(), marker));
                        buf.add_reloc(Reloc {
                            section: SectionKind::Text,
                            offset: buf.text_offset(),
                            symbol: func,
                            kind: call_kind,
                            addend: if a64 { 0 } else { -4 },
                        });
                        buf.emit_u32(marker);
                    }
                    _ => {
                        let name = format!("s{step}");
                        let id = buf.declare_symbol(&name, SymbolBinding::Local, false);
                        buf.define_symbol(id, SectionKind::Text, buf.text_offset(), 0);
                        syms.push((id, buf.text_offset()));
                        continue;
                    }
                }
                starts.push(buf.text_offset());
            }

            let at = *rng.pick(&starts);
            let n = if a64 {
                4 * (1 + rng.below(6))
            } else {
                1 + rng.below(24)
            };
            let moved = |off: u64| if off >= at { off + n } else { off };
            buf.insert_text_with(at, |b| b.emit_slice(&vec![0xab; n as usize]))
                .unwrap();
            // labels left unbound are bound after the insertion, at the end
            for (l, bound) in &mut labels {
                match bound {
                    Some(off) => *off = moved(*off),
                    None => {
                        buf.bind_label(*l);
                        *bound = Some(buf.text_offset());
                    }
                }
            }
            buf.finish_func_fixups().unwrap();

            let text = buf.text();
            assert_eq!(&text[..prev_text.len()], &prev_text[..], "seed {seed}");
            assert_eq!(buf.relocs()[0].offset, 4, "seed {seed}");
            assert_eq!(
                &text[at as usize..(at + n) as usize],
                &vec![0xab; n as usize][..]
            );
            for &(field, li) in &branches {
                let field = moved(field) as usize;
                let target = if a64 {
                    let w = word(text, field);
                    // sign-extended, word-scaled immediate of b or b.ne
                    let words = match w >> 24 {
                        0x14..=0x17 => ((w << 6) as i32) >> 6,
                        0x54 => {
                            assert_eq!(w & 0x1f, 1, "seed {seed}: b.ne at {field}");
                            ((w << 8) as i32) >> 13
                        }
                        _ => panic!("seed {seed}: {w:#010x} at {field} is no branch"),
                    };
                    (field as i64 + 4 * words as i64) as u64
                } else {
                    assert_eq!(text[field - 1], 0xe9, "seed {seed}");
                    let disp = i32::from_le_bytes(text[field..field + 4].try_into().unwrap());
                    (field as i64 + 4 + disp as i64) as u64
                };
                assert_eq!(Some(target), labels[li].1, "seed {seed}: branch at {field}");
            }
            for &(ri, marker) in &relocs {
                let off = buf.relocs()[ri].offset as usize;
                if !a64 {
                    assert_eq!(text[off - 1], 0xe8, "seed {seed}");
                }
                assert_eq!(word(text, off), marker, "seed {seed}: relocation {ri}");
            }
            for &(id, off) in &syms {
                assert_eq!(buf.symbol(id).offset, moved(off), "seed {seed}");
            }
        }
    }

    #[test]
    fn insertion_keeps_every_reference_on_its_instruction() {
        check_insertion(false);
    }

    #[test]
    fn a64_insertion_keeps_every_reference_on_its_instruction() {
        check_insertion(true);
    }

    /// Emits one fake "function" into a shard: `code` bytes, one call-style
    /// relocation per callee name (declared at use), and returns its extent.
    fn shard_func(buf: &mut CodeBuffer, code: &[u8], callees: &[&str]) -> ShardExtent {
        let start = buf.mark();
        buf.emit_slice(code);
        for name in callees {
            let sym = buf.declare_symbol(name, SymbolBinding::Global, true);
            let off = buf.text_offset();
            buf.emit_u32(0);
            buf.add_reloc(Reloc {
                section: SectionKind::Text,
                offset: off,
                symbol: sym,
                kind: RelocKind::Pc32,
                addend: -4,
            });
        }
        ShardExtent {
            start,
            end: buf.mark(),
        }
    }

    fn predeclare_funcs(buf: &mut CodeBuffer, names: &[&str]) {
        for n in names {
            buf.declare_symbol(n, SymbolBinding::Global, true);
        }
    }

    #[test]
    fn merge_remaps_cross_shard_symbols_deterministically() {
        let funcs = ["f0", "f1", "f2"];
        // Shard A compiles f2 FIRST, then f0 — so "ext" is first interned in
        // f2's extent even though f0 (earlier in function order) also uses
        // it. Shard B compiles f1, which calls f0 (cross-shard reference).
        let mut a = CodeBuffer::new();
        predeclare_funcs(&mut a, &funcs);
        let ext_f2 = shard_func(&mut a, &[0x22], &["ext"]);
        let ext_f0 = shard_func(&mut a, &[0x00, 0x01], &["ext", "helper"]);
        let mut b = CodeBuffer::new();
        predeclare_funcs(&mut b, &funcs);
        let ext_f1 = shard_func(&mut b, &[0x11], &["f0"]);

        let mut merged = CodeBuffer::new();
        predeclare_funcs(&mut merged, &funcs);
        let mut map_a = SymbolRemap::identity(3);
        let mut map_b = SymbolRemap::identity(3);
        // merge in function-index order: f0 (A), f1 (B), f2 (A)
        let off0 = merged.merge_from(&a, &ext_f0, &mut map_a).unwrap();
        merged.define_symbol(SymbolId(0), SectionKind::Text, off0, ext_f0.text_len());
        let off1 = merged.merge_from(&b, &ext_f1, &mut map_b).unwrap();
        merged.define_symbol(SymbolId(1), SectionKind::Text, off1, ext_f1.text_len());
        let off2 = merged.merge_from(&a, &ext_f2, &mut map_a).unwrap();
        merged.define_symbol(SymbolId(2), SectionKind::Text, off2, ext_f2.text_len());

        // Text is the function bytes concatenated in function order.
        assert_eq!(off0, 0);
        assert_eq!(off1, ext_f0.text_len());
        assert_eq!(off2, off1 + ext_f1.text_len());
        assert_eq!(merged.text()[0..2], [0x00, 0x01]);
        assert_eq!(merged.text()[ext_f0.text_len() as usize], 0x11);
        assert_eq!(merged.text()[off2 as usize], 0x22);

        // Symbol table order matches the single-threaded order: the three
        // pre-declared functions, then "ext" and "helper" in the order f0
        // (the earliest function using them) would have declared them — NOT
        // the order shard A interned them in.
        let names: Vec<&str> = (0..merged.symbols().len() as u32)
            .map(|i| merged.symbol_name(SymbolId(i)))
            .collect();
        assert_eq!(names, ["f0", "f1", "f2", "ext", "helper"]);

        // Relocations were rebased and remapped: f1's call references the
        // merged f0 symbol, f2's call references the merged "ext" symbol.
        let relocs = merged.relocs();
        assert_eq!(relocs.len(), 4);
        assert_eq!(relocs[0].offset, 2); // f0 -> ext
        assert_eq!(merged.symbol_name(relocs[0].symbol), "ext");
        assert_eq!(relocs[1].offset, 6); // f0 -> helper
        assert_eq!(merged.symbol_name(relocs[1].symbol), "helper");
        assert_eq!(relocs[2].offset, off1 + 1); // f1 -> f0
        assert_eq!(relocs[2].symbol, SymbolId(0));
        assert_eq!(relocs[3].offset, off2 + 1); // f2 -> ext
        assert_eq!(merged.symbol_name(relocs[3].symbol), "ext");

        // Function symbols are defined at their merged offsets with sizes.
        assert_eq!(merged.symbol(SymbolId(0)).offset, off0);
        assert_eq!(merged.symbol(SymbolId(0)).size, ext_f0.text_len());
        assert_eq!(merged.symbol(SymbolId(1)).offset, off1);
        assert_eq!(merged.symbol(SymbolId(2)).offset, off2);
        // "ext"/"helper" stay undefined.
        assert!(merged.symbol_by_name("ext").is_some());
        assert!(merged
            .symbol(merged.symbol_by_name("ext").unwrap())
            .section
            .is_none());
    }

    #[test]
    fn merge_rebases_data_sections_and_defined_extent_symbols() {
        let mut shard = CodeBuffer::new();
        shard.declare_symbol("f0", SymbolBinding::Global, true);
        let start = shard.mark();
        shard.emit_slice(&[0xAA, 0xBB]);
        let dsym = shard.declare_symbol("blob", SymbolBinding::Local, false);
        let doff = shard.append(SectionKind::ROData, &[9, 8, 7]);
        shard.define_symbol(dsym, SectionKind::ROData, doff, 3);
        shard.reserve_bss(16, 8);
        let ext = ShardExtent {
            start,
            end: shard.mark(),
        };

        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        merged.append(SectionKind::ROData, &[0; 5]); // pre-existing rodata
        let mut map = SymbolRemap::identity(1);
        let off = merged.merge_from(&shard, &ext, &mut map).unwrap();
        assert_eq!(off, 0);
        assert_eq!(
            merged.section_data(SectionKind::ROData),
            &[0, 0, 0, 0, 0, 9, 8, 7]
        );
        assert_eq!(merged.section_size(SectionKind::Bss), 16);
        let blob = merged.symbol_by_name("blob").unwrap();
        assert_eq!(merged.symbol(blob).section, Some(SectionKind::ROData));
        assert_eq!(merged.symbol(blob).offset, 5);
        assert_eq!(merged.symbol(blob).size, 3);
    }

    /// Emits one fake function that declares-and-defines a rodata blob (no
    /// relocation against it) BEFORE declaring a relocated external.
    fn blob_then_ext_func(shard: &mut CodeBuffer) -> ShardExtent {
        let start = shard.mark();
        shard.emit_u8(0xAA);
        let blob = shard.declare_symbol("blob", SymbolBinding::Local, false);
        let doff = shard.append(SectionKind::ROData, &[1, 2, 3]);
        shard.define_symbol(blob, SectionKind::ROData, doff, 3);
        let ext = shard.declare_symbol("ext", SymbolBinding::Global, true);
        let off = shard.text_offset();
        shard.emit_u32(0);
        shard.add_reloc(Reloc {
            section: SectionKind::Text,
            offset: off,
            symbol: ext,
            kind: RelocKind::Pc32,
            addend: -4,
        });
        ShardExtent {
            start,
            end: shard.mark(),
        }
    }

    #[test]
    fn declare_log_reproduces_order_of_unreferenced_symbols() {
        // With the declaration log (as the parallel driver sets up shard
        // buffers), the merged symbol table preserves the exact declaration
        // order even for symbols never referenced by a relocation.
        let mut shard = CodeBuffer::new();
        shard.enable_declare_log();
        shard.declare_symbol("f0", SymbolBinding::Global, true);
        let ext = blob_then_ext_func(&mut shard);
        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        let mut map = SymbolRemap::identity(1);
        merged.merge_from(&shard, &ext, &mut map).unwrap();
        let names: Vec<&str> = (0..merged.symbols().len() as u32)
            .map(|i| merged.symbol_name(SymbolId(i)))
            .collect();
        assert_eq!(names, ["f0", "blob", "ext"]);

        // Without a log the fallback interns relocation targets first, so
        // the unreferenced blob lands after ext (documented limitation).
        let mut shard = CodeBuffer::new();
        shard.declare_symbol("f0", SymbolBinding::Global, true);
        let ext = blob_then_ext_func(&mut shard);
        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        let mut map = SymbolRemap::identity(1);
        merged.merge_from(&shard, &ext, &mut map).unwrap();
        let names: Vec<&str> = (0..merged.symbols().len() as u32)
            .map(|i| merged.symbol_name(SymbolId(i)))
            .collect();
        assert_eq!(names, ["f0", "ext", "blob"]);
    }

    #[test]
    fn merge_rejects_base_dependent_alignment() {
        // The extent aligns .bss to 8 from shard base 0; merging it onto a
        // buffer whose .bss is already at 4 would bake in wrong padding, so
        // the merge must refuse rather than silently diverge.
        let mut shard = CodeBuffer::new();
        shard.declare_symbol("f0", SymbolBinding::Global, true);
        let start = shard.mark();
        shard.emit_u8(0x90);
        shard.reserve_bss(16, 8);
        let ext = ShardExtent {
            start,
            end: shard.mark(),
        };
        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        merged.reserve_bss(4, 1);
        let mut map = SymbolRemap::identity(1);
        assert!(merged.merge_from(&shard, &ext, &mut map).is_err());

        // With matching bases the same extent merges fine.
        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        let mut map = SymbolRemap::identity(1);
        merged.merge_from(&shard, &ext, &mut map).unwrap();
        assert_eq!(merged.section_size(SectionKind::Bss), 16);
    }

    #[test]
    fn merge_rejects_out_of_extent_relocations_without_mutating() {
        let mut shard = CodeBuffer::new();
        let sym = shard.declare_symbol("x", SymbolBinding::Global, true);
        shard.emit_u32(0);
        let start = shard.mark(); // reloc below points BEFORE this mark
        shard.emit_u32(0);
        shard.add_reloc(Reloc {
            section: SectionKind::Text,
            offset: 0,
            symbol: sym,
            kind: RelocKind::Pc32,
            addend: -4,
        });
        let ext = ShardExtent {
            start,
            end: shard.mark(),
        };
        let mut merged = CodeBuffer::new();
        merged.emit_u8(0x90);
        let mut map = SymbolRemap::default();
        assert!(merged.merge_from(&shard, &ext, &mut map).is_err());
        // validation runs before mutation: the buffer is untouched on error
        assert_eq!(merged.text(), &[0x90]);
        assert_eq!(merged.symbols().len(), 0);
        assert_eq!(merged.relocs().len(), 0);
    }

    #[test]
    fn merge_rejects_absolute_text_offset_fixups_at_shifted_base() {
        let mut shard = CodeBuffer::new();
        shard.declare_symbol("f0", SymbolBinding::Global, true);
        let start = shard.mark();
        let l = shard.new_label();
        let field = shard.text_offset();
        shard.emit_u32(0);
        shard.add_fixup(field, l, FixupKind::AbsTextOff32);
        shard.bind_label(l);
        shard.resolve_fixups().unwrap();
        let ext = ShardExtent {
            start,
            end: shard.mark(),
        };
        // base 0 == shard base: the baked offset is still valid, merge ok
        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        let mut map = SymbolRemap::identity(1);
        merged.merge_from(&shard, &ext, &mut map).unwrap();
        // shifted base: the baked absolute offset would be wrong — rejected
        let mut merged = CodeBuffer::new();
        merged.declare_symbol("f0", SymbolBinding::Global, true);
        merged.emit_u8(0x90);
        let mut map = SymbolRemap::identity(1);
        assert!(merged.merge_from(&shard, &ext, &mut map).is_err());
        assert_eq!(merged.text(), &[0x90]);
    }
}
