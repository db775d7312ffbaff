//! Persistent cross-process code cache: an on-disk artifact store for
//! zero-compile warm restarts.
//!
//! The in-memory module cache of [`crate::service::CompileService`] answers
//! repeat requests at memory speed but dies with the process. This module
//! adds the tier below it: compiled modules are serialized into a
//! relocation-safe flat binary format and written to a cache directory, so a
//! *restarted* service — or a second service process on the same host —
//! answers a previously-compiled request straight from disk without invoking
//! any backend compile path.
//!
//! # Artifact format
//!
//! One artifact file per cache key, `<key:016x>.tpdeart`, little-endian
//! throughout. A fixed 64-byte header is followed by a single hash-covered
//! payload; every variable-length chunk inside the payload is padded to an
//! 8-byte boundary (part of format 3, so the fixed-size symbol/relocation
//! records that follow start 8-byte aligned in the file):
//!
//! ```text
//! offset  size  field
//! ------  ----  -------------------------------------------------------
//! 0x00    8     magic "TPDEART\0"
//! 0x08    4     format version (bumped on any layout change)
//! 0x0c    4     flags (0)
//! 0x10    8     cache key the artifact was stored under
//! 0x18    8     payload length (must equal file length - 64)
//! 0x20    8     `StableHasher` checksum of the entire payload
//! 0x28    8     .bss size
//! 0x30    4     symbol count
//! 0x34    4     relocation count
//! 0x38    4     name-arena length
//! 0x3c    4     reserved (0)
//! ------  ----  payload ------------------------------------------------
//!         8+n   .text   (u64 length + bytes, padded to 8)
//!         8+n   .data   (u64 length + bytes, padded to 8)
//!         8+n   .rodata (u64 length + bytes, padded to 8)
//!         n     symbol name arena (UTF-8, padded to 8)
//!         32*s  symbol records   (name start/end u32, offset u64,
//!               size u64, section u8, binding u8, is_func u8, pad)
//!         24*r  relocation records (offset u64, addend i64, symbol u32,
//!               section u8, kind u8, pad)
//!         48    compile stats (6 x u64)
//! ```
//!
//! A load reads the whole file into memory and decodes it in one checked
//! pass. Symbol names are stored in declaration order, so replaying them
//! through [`CodeBuffer::declare_symbol`] reproduces the original symbol
//! table — ids, interned arena and all — and the materialized module is
//! **byte-identical** to the one that was stored
//! ([`crate::codebuf::assert_identical`] is the contract, pinned by the
//! round-trip tests and re-asserted per request across a real process
//! restart by `disk_store_answers_a_second_process` in
//! `crates/llvm/tests/service.rs`).
//!
//! # Keying
//!
//! Artifacts are keyed by the same deterministic request hash the in-memory
//! cache uses ([`crate::service::ServiceBackend::request_key`]), combined
//! with the [`FORMAT_VERSION`] stored in the header. The key is a
//! [`crate::hash::StableHasher`] value over an encoding the backend spells
//! out field by field (for the LLVM-IR backend: the pinned artifact tag,
//! the compile options as flag bits, and the module's packed content
//! encoding) — nothing `derive(Hash)` produces enters it, so it means the
//! same to every build, host and pointer width. A key or version mismatch
//! is a miss, never a wrong answer; a **hit is trusted on the 64-bit key
//! alone** — the payload checksum guards the bytes against corruption, not
//! the key against collisions, which is why the hasher has to avalanche.
//! Format version 2 changed both the key derivation and the checksum;
//! version-1 directories degrade to misses.
//!
//! The key names the *request*, not the compiler that answered it, so the
//! version also stands for the emitted code: **a change to the bytes the
//! compiler emits for an unchanged request bumps [`FORMAT_VERSION`]**, even
//! when the layout and the keys stay as they are. Otherwise a restarted
//! service would serve, under a valid checksum, code the current compiler
//! no longer emits — breaking the byte-identical-to-a-fresh-compile
//! contract above. Version 3 is such a bump (fewer spill stores on both
//! targets; frame-relative stack-variable operands, direct reloads and
//! jumped-over callee-save padding on x86-64); version-2 artifacts are
//! misses and get unlinked on first touch. So are version 4 (exact-size
//! x86-64 frames, division by constants without `div`) and version 5
//! (x86-64 address arithmetic folded into operands: a GEP into the
//! scaled-index memory operand of the access after it, `lea` and
//! three-operand `imul` instead of a copy and a two-operand instruction)
//! and version 6 (x86-64 loads from a non-escaping stack variable left in
//! the variable until their uses read it, so no spill store; one `lea` for
//! an indexed GEP that is not folded; no compare for a branch whose two
//! targets are one block; 64-bit GEP immediates in the baselines).
//!
//! # Crash safety and corruption
//!
//! Writers serialize to a process/thread-unique temp file, `fsync` it, and
//! atomically `rename` it into place (then `fsync` the directory), so a
//! concurrent reader sees either no artifact or a complete one — a crash
//! mid-store leaves at most a stale `.tmp` file. Loads verify before they
//! trust: the header is bounds-checked, the payload hash is recomputed over
//! the bytes read, every record field is range-checked, and the materialized
//! module must pass [`CompiledModule::validate`]. A truncated file, a
//! flipped byte, a stale format version or a key mismatch all degrade to a
//! cache miss (the corrupt file is unlinked so the next store can heal it).
//! Transient I/O errors (`EINTR`/`EAGAIN`) are *retried* with capped
//! backoff before any such verdict — a signal-interrupted read must not
//! unlink a perfectly good artifact — and counted in
//! [`DiskCache::io_retries`]. All I/O paths carry [`crate::faultpoint`]
//! probes (`disk.read`, `disk.short_read`, `disk.rename`, `disk.flock`) so
//! the fault-injection harness can exercise exactly these degradations
//! deterministically.
//!
//! # Concurrency
//!
//! Multiple service processes share one cache directory. Artifact files are
//! immutable once renamed into place, and a load reads a file through one
//! open handle that a concurrent unlink does not disturb, so readers never
//! lock. The only shared mutable state is the LRU index (`index.tpde`: `key
//! tick` lines driving eviction, the last line of a key counts) and the byte
//! ledger (a 16-byte record, magic + running artifact total, at the start of
//! `index.lock`), both updated under an exclusive [`File::lock`] on
//! `index.lock`. Hits and stores do O(1) work there: a hit appends one line
//! with a process-monotonic wall-clock tick; a store appends one line and
//! adds its artifact's bytes to the ledger — no directory scan, no index
//! rewrite. The full *reconcile* (scan the directory, evict
//! least-recently-used artifacts down to `max_bytes`, rewrite the index with
//! one line per live artifact, rewrite the ledger with the true total) runs
//! at open, when ledger plus new bytes would exceed `max_bytes`, when the
//! index is past both 1 MiB and twice its size after this handle's last
//! compaction, when the ledger record is missing or foreign, and after this
//! handle failed to take the lock. The ledger may over-count (a key stored
//! by two processes at once, a corrupt artifact unlinked by a load): that
//! only brings the next reconcile forward. It may under-count by the bytes
//! whose ledger update was lost (a crash between rename and update, an older
//! binary sharing the directory) until the next open reconciles, so the size
//! bound is best-effort, as recency is; with an exact ledger, eviction
//! decisions are those of a scan per store. Artifact *presence* is the
//! source of truth, so a lost or stale index only resets recency, never
//! correctness. Stores of a key that already has an artifact skip the write
//! entirely — determinism guarantees the bytes would be identical.

use crate::codebuf::{CodeBuffer, Reloc, RelocKind, SectionKind, SymbolBinding, SymbolId};
use crate::codegen::{CompileStats, CompiledModule};
use crate::faultpoint::{self, sites, IoFault};
use crate::hash::StableHasher;
use crate::timing::PassTimings;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Magic bytes at the start of every artifact file.
pub const MAGIC: [u8; 8] = *b"TPDEART\0";

/// Version of the artifact layout and of the code it holds; any change to
/// the format above or to the bytes the compiler emits bumps this, and an
/// artifact with a different version is a cache miss.
pub const FORMAT_VERSION: u32 = 6;

const HEADER_LEN: usize = 64;
const SYM_RECORD: usize = 32;
const RELOC_RECORD: usize = 24;
const STATS_LEN: usize = 48;
/// Section code of an undefined (external) symbol.
const SECTION_NONE: u8 = 0xff;
/// Smallest index size that triggers a compaction (hits and stores append
/// to it); above it, the index compacts once it doubles its compacted size.
const INDEX_COMPACT_BYTES: u64 = 1 << 20;
/// Magic of the byte-ledger record at offset 0 of `index.lock`.
const LEDGER_MAGIC: [u8; 8] = *b"TPDELDG\0";

// --------------------------------------------------------------------------
// Transient-error retry
// --------------------------------------------------------------------------

/// Attempts per I/O operation before a transient error is given up on.
const IO_ATTEMPTS: u32 = 4;
/// Initial retry backoff; doubles per retry, capped at [`IO_BACKOFF_MAX`].
const IO_BACKOFF: Duration = Duration::from_micros(50);
const IO_BACKOFF_MAX: Duration = Duration::from_millis(2);

/// Whether an I/O error is transient (`EINTR`/`EAGAIN`-like): the operation
/// may well succeed if simply repeated, so treating it as corruption — and
/// unlinking a perfectly good artifact — would be wrong.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
    ) || matches!(e.raw_os_error(), Some(4) | Some(11)) // EINTR, EAGAIN
}

/// Runs `f`, retrying transient failures up to [`IO_ATTEMPTS`] times with
/// capped exponential backoff. Each retry bumps `retries` (surfaced as
/// [`crate::timing::ServiceStats::disk_retries`]). The final error — still
/// transient after exhaustion, or non-transient on first sight — is
/// returned to the caller, who decides between "miss" and "corrupt".
fn retry_io<T>(retries: &AtomicU64, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut backoff = IO_BACKOFF;
    for attempt in 1.. {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < IO_ATTEMPTS => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(IO_BACKOFF_MAX);
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("retry loop always returns")
}

// --------------------------------------------------------------------------
// Serialization
// --------------------------------------------------------------------------

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Serializes a compiled module into the artifact format under `key`.
///
/// The timings of the module are deliberately not stored: they describe one
/// past compile, not the module, and are excluded from the byte-identity
/// contract (`assert_identical` compares sections, symbols and relocations).
pub fn serialize_module(key: u64, module: &CompiledModule) -> Vec<u8> {
    let buf = &module.buf;
    let nsyms = buf.symbols().len();

    // The header is filled in last, over the finished payload.
    let mut out = vec![0u8; HEADER_LEN];
    for kind in [SectionKind::Text, SectionKind::Data, SectionKind::ROData] {
        let data = buf.section_data(kind);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(data);
        pad8(&mut out);
    }
    // The name arena in declaration order; record offsets are relative to
    // it, not to the buffer's internal one.
    let names_off = out.len();
    for i in 0..nsyms as u32 {
        out.extend_from_slice(buf.symbol_name(SymbolId(i)).as_bytes());
    }
    let names_len = (out.len() - names_off) as u32;
    pad8(&mut out);
    let mut start = 0u32;
    for (i, sym) in buf.symbols().iter().enumerate() {
        let end = start + buf.symbol_name(SymbolId(i as u32)).len() as u32;
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&end.to_le_bytes());
        out.extend_from_slice(&sym.offset.to_le_bytes());
        out.extend_from_slice(&sym.size.to_le_bytes());
        out.push(sym.section.map_or(SECTION_NONE, SectionKind::code));
        out.push(sym.binding.code());
        out.push(sym.is_func as u8);
        out.extend_from_slice(&[0u8; 5]);
        start = end;
    }
    for reloc in buf.relocs() {
        out.extend_from_slice(&reloc.offset.to_le_bytes());
        out.extend_from_slice(&reloc.addend.to_le_bytes());
        out.extend_from_slice(&reloc.symbol.0.to_le_bytes());
        out.push(reloc.section.code());
        out.push(reloc.kind.code());
        out.extend_from_slice(&[0u8; 2]);
    }
    let s = &module.stats;
    for v in [s.funcs, s.blocks, s.insts, s.spills, s.reloads, s.moves] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }

    let (header, payload) = out.split_at_mut(HEADER_LEN);
    let mut put = |off: usize, bytes: &[u8]| header[off..off + bytes.len()].copy_from_slice(bytes);
    put(0x00, &MAGIC);
    put(0x08, &FORMAT_VERSION.to_le_bytes());
    put(0x10, &key.to_le_bytes());
    put(0x18, &(payload.len() as u64).to_le_bytes());
    put(0x20, &StableHasher::hash_bytes(payload).to_le_bytes());
    put(0x28, &buf.section_size(SectionKind::Bss).to_le_bytes());
    put(0x30, &(nsyms as u32).to_le_bytes());
    put(0x34, &(buf.relocs().len() as u32).to_le_bytes());
    put(0x38, &names_len.to_le_bytes());
    out
}

// --------------------------------------------------------------------------
// Decoding: one checked pass from file bytes to a module
// --------------------------------------------------------------------------

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Verifies the artifact bytes `b` stored under `key` and materializes them
/// into a [`CompiledModule`] byte-identical to the module that was stored,
/// by replaying the symbol declarations, section bytes and relocations
/// through the public [`CodeBuffer`] API. Timings start at zero (they
/// describe a compile, and no compile happened).
///
/// `None` means corrupt or mismatched: a bad header, key or hash, a chunk
/// walk that does not end exactly at the end of the file, any record field
/// out of range (name bounds, binding, `is_func`, section, relocation symbol
/// and kind codes, duplicate names), or a module that fails
/// [`CompiledModule::validate`]. The records are input from outside the
/// program, so they are checked even where `validate` would also catch them.
fn decode(b: &[u8], key: u64) -> Option<CompiledModule> {
    if b.len() < HEADER_LEN
        || b[..8] != MAGIC
        || rd_u32(b, 0x08) != FORMAT_VERSION
        || rd_u64(b, 0x10) != key
    {
        return None;
    }
    if rd_u64(b, 0x18) != (b.len() - HEADER_LEN) as u64 {
        return None; // truncated (or trailing garbage)
    }
    if StableHasher::hash_bytes(&b[HEADER_LEN..]) != rd_u64(b, 0x20) {
        return None;
    }
    let bss_size = rd_u64(b, 0x28);
    let nsyms = rd_u32(b, 0x30);
    let nrelocs = rd_u32(b, 0x34);
    let names_len = rd_u32(b, 0x38) as u64;

    // Walk the payload chunks with overflow-checked arithmetic (a corrupt
    // length field must not wrap the cursor); all offsets are file-relative.
    let align8 = |n: u64| n.checked_add(7).map(|n| n & !7);
    let file_len = b.len() as u64;
    let mut cursor = HEADER_LEN as u64;
    let mut sections: [&[u8]; 3] = [&[]; 3];
    for data in sections.iter_mut() {
        if cursor + 8 > file_len {
            return None;
        }
        let len = rd_u64(b, cursor as usize);
        let end = (cursor + 8).checked_add(len)?;
        if end > file_len {
            return None;
        }
        *data = &b[(cursor + 8) as usize..end as usize];
        cursor = align8(end)?;
    }
    let names_off = cursor as usize;
    cursor = align8(cursor.checked_add(names_len)?)?;
    let syms_off = cursor as usize;
    cursor = cursor.checked_add(nsyms as u64 * SYM_RECORD as u64)?;
    let relocs_off = cursor as usize;
    cursor = cursor.checked_add(nrelocs as u64 * RELOC_RECORD as u64)?;
    let stats_off = cursor as usize;
    if cursor.checked_add(STATS_LEN as u64)? != file_len {
        return None;
    }

    let names = std::str::from_utf8(&b[names_off..names_off + names_len as usize]).ok()?;
    let mut buf = CodeBuffer::new();
    for (i, rec) in (0..).zip(b[syms_off..relocs_off].chunks_exact(SYM_RECORD)) {
        // `get` is `None` for a reversed range, an end past the arena and a
        // bound off a char boundary.
        let name = names.get(rd_u32(rec, 0) as usize..rd_u32(rec, 4) as usize)?;
        let section = match rec[24] {
            SECTION_NONE => None,
            code => Some(SectionKind::from_code(code)?),
        };
        let binding = SymbolBinding::from_code(rec[25])?;
        let is_func = match rec[26] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let id = buf.declare_symbol(name, binding, is_func);
        if id.0 != i {
            return None; // duplicate name
        }
        let size = rd_u64(rec, 16);
        match section {
            Some(kind) => buf.define_symbol(id, kind, rd_u64(rec, 8), size),
            None => buf.set_symbol_size(id, size),
        }
    }
    for (kind, data) in [SectionKind::Text, SectionKind::Data, SectionKind::ROData]
        .into_iter()
        .zip(sections)
    {
        buf.append(kind, data);
    }
    if bss_size > 0 {
        buf.reserve_bss(bss_size, 1);
    }
    for rec in b[relocs_off..stats_off].chunks_exact(RELOC_RECORD) {
        let symbol = rd_u32(rec, 16);
        if symbol >= nsyms {
            return None;
        }
        buf.add_reloc(Reloc {
            offset: rd_u64(rec, 0),
            addend: rd_u64(rec, 8) as i64,
            symbol: SymbolId(symbol),
            section: SectionKind::from_code(rec[20])?,
            kind: RelocKind::from_code(rec[21])?,
        });
    }
    let stat = |i: usize| rd_u64(b, stats_off + 8 * i) as usize;
    let module = CompiledModule {
        buf,
        stats: CompileStats {
            funcs: stat(0),
            blocks: stat(1),
            insts: stat(2),
            spills: stat(3),
            reloads: stat(4),
            moves: stat(5),
        },
        timings: PassTimings::new(),
    };
    module.validate().ok()?;
    Some(module)
}

// --------------------------------------------------------------------------
// The store: crash-safe writes, locked LRU index, size-bounded eviction
// --------------------------------------------------------------------------

/// Configuration of a [`DiskCache`].
#[derive(Clone, Debug)]
pub struct DiskCacheConfig {
    /// Cache directory (created on open; shared between processes).
    pub dir: PathBuf,
    /// Size bound in bytes over all artifacts; least-recently-used
    /// artifacts are evicted when the total exceeds it. 0 means unbounded.
    pub max_bytes: u64,
}

impl DiskCacheConfig {
    /// A config for `dir` with the default 256 MiB size bound.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCacheConfig {
        DiskCacheConfig {
            dir: dir.into(),
            max_bytes: 256 << 20,
        }
    }
}

/// Exclusive inter-process lock over the cache index: [`File::lock`] on
/// `index.lock`, released when the file closes. On Linux that is
/// `flock(2)`, which locks the open file description, so two handles opened
/// by threads of one process exclude each other just like two processes do.
struct IndexLock(File);

impl IndexLock {
    fn acquire(dir: &Path, retries: &AtomicU64) -> Option<IndexLock> {
        let file = retry_io(retries, || {
            if let Some(fault) = faultpoint::trip(sites::DISK_FLOCK, 0) {
                return Err(fault.to_io_error());
            }
            File::options()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(dir.join("index.lock"))
        })
        .ok()?;
        file.lock().ok()?;
        Some(IndexLock(file))
    }

    /// The byte ledger (the first 16 bytes of the held lock file); `None`
    /// if the record is missing, short or has the wrong magic.
    fn ledger(&self) -> Option<u64> {
        let mut file = &self.0;
        let mut rec = [0u8; 16];
        file.seek(SeekFrom::Start(0)).ok()?;
        file.read_exact(&mut rec).ok()?;
        (rec[..8] == LEDGER_MAGIC).then(|| rd_u64(&rec, 8))
    }

    /// Overwrites the ledger record; `false` if that failed.
    fn set_ledger(&self, total: u64) -> bool {
        let mut file = &self.0;
        let mut rec = [0u8; 16];
        rec[..8].copy_from_slice(&LEDGER_MAGIC);
        rec[8..].copy_from_slice(&total.to_le_bytes());
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.write_all(&rec))
            .is_ok()
    }
}

/// Disambiguates temp-file names between threads of one process (the pid in
/// the name disambiguates between processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The last recency tick handed out in this process (see [`DiskCache::tick`]).
static LAST_TICK: AtomicU64 = AtomicU64::new(0);

/// The persistent artifact store; see the module docs.
///
/// All methods take `&self` and are safe to call from multiple threads and
/// multiple processes sharing one directory.
pub struct DiskCache {
    cfg: DiskCacheConfig,
    /// Transient I/O errors absorbed by retrying (reads, renames, lock-file
    /// opens); surfaced as [`crate::timing::ServiceStats::disk_retries`].
    retries: AtomicU64,
    /// Set when this handle failed to take the index lock (its bytes may be
    /// missing from the ledger): the next locked update reconciles.
    dirty: AtomicBool,
    /// Index size past which the next update compacts it: twice the size
    /// of the last compaction this handle did, at least
    /// [`INDEX_COMPACT_BYTES`].
    compact_at: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns the error of the directory creation.
    pub fn open(cfg: DiskCacheConfig) -> io::Result<DiskCache> {
        fs::create_dir_all(&cfg.dir)?;
        let cache = DiskCache {
            cfg,
            retries: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            compact_at: AtomicU64::new(INDEX_COMPACT_BYTES),
        };
        cache.with_index_lock(|lock| cache.reconcile(lock, None));
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Transient I/O errors absorbed by retrying since this handle opened.
    pub fn io_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn artifact_path(&self, key: u64) -> PathBuf {
        self.cfg.dir.join(format!("{key:016x}.tpdeart"))
    }

    /// Whether an artifact is stored under `key` (no verification).
    pub fn contains(&self, key: u64) -> bool {
        self.artifact_path(key).exists()
    }

    /// Stores a module under `key`: serialize → unique temp file → `fsync`
    /// → atomic rename, then, under the index lock, append the key's
    /// recency line and add the artifact's bytes to the ledger (or
    /// reconcile, see the module docs). Returns `false` (without writing)
    /// if an artifact for `key` already exists — byte-determinism makes the
    /// existing one interchangeable.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error; the temp file is cleaned up.
    pub fn store(&self, key: u64, module: &CompiledModule) -> io::Result<bool> {
        let path = self.artifact_path(key);
        let fresh = !path.exists();
        let mut added = 0;
        if fresh {
            let bytes = serialize_module(key, module);
            added = bytes.len() as u64;
            let tmp = self.cfg.dir.join(format!(
                ".{key:016x}.{}-{}.tmp",
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let result = (|| {
                let mut f = File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.sync_all()?;
                drop(f);
                retry_io(&self.retries, || {
                    if let Some(fault) = faultpoint::trip(sites::DISK_RENAME, 0) {
                        return Err(fault.to_io_error());
                    }
                    fs::rename(&tmp, &path)
                })
            })();
            if let Err(e) = result {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
            // Make the rename itself durable.
            if let Ok(d) = File::open(&self.cfg.dir) {
                let _ = d.sync_all();
            }
        }
        self.with_index_lock(|lock| self.update(lock, key, Some(added)));
        Ok(fresh)
    }

    /// Loads and materializes the module stored under `key`, verifying the
    /// whole artifact and [`CompiledModule::validate`] on the way; `None` is
    /// a miss. An absent artifact, or one whose read still fails
    /// transiently after the retries (injected via [`sites::DISK_READ`] or
    /// real `EINTR`/`EAGAIN`), stays in place; any other read error and a
    /// corrupt or structurally invalid artifact are unlinked, so a later
    /// store heals them. A hit bumps the key's LRU recency with one
    /// appended index line: it adds no bytes, so the budget alone never
    /// makes it reconcile.
    pub fn load(&self, key: u64) -> Option<CompiledModule> {
        let path = self.artifact_path(key);
        let read = retry_io(&self.retries, || {
            if let Some(fault) = faultpoint::trip(sites::DISK_READ, 0) {
                return Err(fault.to_io_error());
            }
            let mut bytes = fs::read(&path)?;
            match faultpoint::trip(sites::DISK_SHORT_READ, 0) {
                Some(IoFault::Short) => bytes.truncate(bytes.len() / 2),
                Some(fault) => return Err(fault.to_io_error()),
                None => {}
            }
            Ok(bytes)
        });
        let module = match read {
            Ok(bytes) => decode(&bytes, key),
            Err(e) if e.kind() == io::ErrorKind::NotFound || is_transient(&e) => return None,
            Err(_) => None,
        };
        match module {
            Some(module) => {
                self.with_index_lock(|lock| self.update(lock, key, None));
                Some(module)
            }
            None => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Number of artifacts currently stored.
    pub fn artifact_count(&self) -> usize {
        self.scan().len()
    }

    /// Total size in bytes of all stored artifacts.
    pub fn total_bytes(&self) -> u64 {
        self.scan().iter().map(|(_, size)| size).sum()
    }

    /// Scans the directory for `(key, size)` of every artifact. Presence on
    /// disk is the source of truth; the index only adds recency.
    fn scan(&self) -> Vec<(u64, u64)> {
        let Ok(dir) = fs::read_dir(&self.cfg.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_suffix(".tpdeart") else {
                continue;
            };
            let Ok(key) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            out.push((key, meta.len()));
        }
        out
    }

    fn index_path(&self) -> PathBuf {
        self.cfg.dir.join("index.tpde")
    }

    /// Reads the recency index (`key tick` per line); a missing or corrupt
    /// index is simply empty — recency resets, correctness is unaffected.
    fn read_index(&self) -> HashMap<u64, u64> {
        let Ok(text) = fs::read_to_string(self.index_path()) else {
            return HashMap::new();
        };
        let mut map = HashMap::new();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if let (Some(k), Some(t)) = (it.next(), it.next()) {
                if let (Ok(k), Ok(t)) = (u64::from_str_radix(k, 16), t.parse()) {
                    map.insert(k, t);
                }
            }
        }
        map
    }

    /// Rewrites the index from `ticks` (temp file + rename); returns the
    /// length of the text it wrote.
    fn write_index(&self, ticks: &HashMap<u64, u64>) -> u64 {
        let mut lines: Vec<(u64, u64)> = ticks.iter().map(|(&k, &t)| (k, t)).collect();
        lines.sort_unstable();
        let mut text = String::new();
        for (k, t) in lines {
            text.push_str(&format!("{k:016x} {t}\n"));
        }
        let len = text.len() as u64;
        let tmp = self.cfg.dir.join(format!(
            ".index.{}-{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, text).is_ok() && fs::rename(&tmp, self.index_path()).is_err() {
            let _ = fs::remove_file(&tmp);
        }
        len
    }

    /// Runs `f` holding the exclusive index lock. If the lock cannot be
    /// taken, `f` is skipped and this handle marked dirty, so its next
    /// locked update reconciles — recency and the size bound are
    /// best-effort properties, artifact correctness never depends on them.
    fn with_index_lock(&self, f: impl FnOnce(&IndexLock)) {
        match IndexLock::acquire(&self.cfg.dir, &self.retries) {
            Some(lock) => f(&lock),
            None => self.dirty.store(true, Ordering::Relaxed),
        }
    }

    /// A recency tick from the wall clock, so a bump needs no read of the
    /// index and ticks of different processes interleave sensibly — but
    /// strictly above every earlier tick of this process, so a clock that
    /// steps back cannot rank a fresh store or hit below older lines.
    fn tick() -> u64 {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        if LAST_TICK.fetch_max(now, Ordering::Relaxed) < now {
            now
        } else {
            LAST_TICK.fetch_add(1, Ordering::Relaxed) + 1
        }
    }

    /// Under the index lock: bump `key`'s recency by appending one line (the
    /// last line per key wins when the index is read) and, for a store of
    /// `stored` new bytes, add them to the ledger. Reconciles instead when
    /// this handle missed the lock earlier or the index is due for
    /// compaction, and for a store also when the ledger record is
    /// unreadable or the store would pass `max_bytes`. A hit adds no bytes,
    /// so it does not read the ledger.
    fn update(&self, lock: &IndexLock, key: u64, stored: Option<u64>) {
        let line = format!("{key:016x} {}\n", Self::tick());
        let index_len = File::options()
            .create(true)
            .append(true)
            .open(self.index_path())
            .and_then(|mut index| {
                index.write_all(line.as_bytes())?;
                index.metadata()
            })
            .map_or(u64::MAX, |m| m.len());
        let due = self.dirty.swap(false, Ordering::Relaxed)
            || index_len > self.compact_at.load(Ordering::Relaxed);
        let fits = |&total: &u64| self.cfg.max_bytes == 0 || total <= self.cfg.max_bytes;
        match stored {
            _ if due => self.reconcile(lock, stored.map(|_| key)),
            None => {}
            Some(added) => match lock.ledger().map(|t| t.saturating_add(added)).filter(fits) {
                Some(total) => {
                    if added > 0 && !lock.set_ledger(total) {
                        self.dirty.store(true, Ordering::Relaxed);
                    }
                }
                None => self.reconcile(lock, Some(key)),
            },
        }
    }

    /// Under the index lock: scan the directory, evict least-recently-used
    /// artifacts (never `stored` itself; equal ticks by key, so the order
    /// does not depend on `readdir`) until the total respects
    /// [`DiskCacheConfig::max_bytes`], rewrite the index with one line per
    /// live artifact and the ledger with the true total. Failures are
    /// swallowed.
    fn reconcile(&self, lock: &IndexLock, stored: Option<u64>) {
        let mut ticks = self.read_index();
        let mut entries = self.scan();
        // Forget recency of artifacts that no longer exist.
        let live: std::collections::HashSet<u64> = entries.iter().map(|&(k, _)| k).collect();
        ticks.retain(|k, _| live.contains(k));
        let mut total: u64 = entries.iter().map(|(_, size)| size).sum();
        if self.cfg.max_bytes > 0 && total > self.cfg.max_bytes {
            entries.sort_unstable_by_key(|&(k, _)| (ticks.get(&k).copied().unwrap_or(0), k));
            for (k, size) in entries {
                if total <= self.cfg.max_bytes {
                    break;
                }
                if Some(k) == stored {
                    continue;
                }
                if fs::remove_file(self.artifact_path(k)).is_ok() {
                    total -= size;
                    ticks.remove(&k);
                }
            }
        }
        let index_len = self.write_index(&ticks);
        self.compact_at
            .store((2 * index_len).max(INDEX_COMPACT_BYTES), Ordering::Relaxed);
        if !lock.set_ledger(total) {
            self.dirty.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::DiskCache;

    #[test]
    fn ticks_strictly_increase() {
        let mut last = DiskCache::tick();
        for _ in 0..10_000 {
            let next = DiskCache::tick();
            assert!(next > last, "tick went from {last} to {next}");
            last = next;
        }
    }
}
