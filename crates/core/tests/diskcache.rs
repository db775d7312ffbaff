//! Round-trip and corruption-handling tests of the persistent artifact
//! store: every way an artifact can be damaged must degrade to a cache miss
//! (fall back to compile), never to a wrong answer.

use std::fs;
use std::path::{Path, PathBuf};
use tpde_core::codebuf::{
    assert_identical, CodeBuffer, Reloc, RelocKind, SectionKind, SymbolBinding,
};
use tpde_core::codegen::{CompileStats, CompiledModule};
use tpde_core::diskcache::{DiskCache, DiskCacheConfig};
use tpde_core::jit::link_in_memory;
use tpde_core::timing::PassTimings;

/// A fresh, empty temp directory unique to `tag`.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpde-diskcache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cache(dir: &Path) -> DiskCache {
    DiskCache::open(DiskCacheConfig::new(dir)).unwrap()
}

/// A module exercising every serialized feature: all three byte-carrying
/// sections, a `.bss` reservation, defined/undefined symbols of every
/// binding, function and data symbols, and several relocation kinds.
fn sample_module() -> CompiledModule {
    let mut buf = CodeBuffer::new();
    let f = buf.declare_symbol("func", SymbolBinding::Global, true);
    let helper = buf.declare_symbol("helper.local", SymbolBinding::Local, true);
    let weak = buf.declare_symbol("weak_data", SymbolBinding::Weak, false);
    let external = buf.declare_symbol("memset", SymbolBinding::Global, true);
    buf.emit_slice(&[0x55, 0x48, 0x89, 0xe5, 0xe8, 0, 0, 0, 0, 0xc3]);
    buf.define_symbol(f, SectionKind::Text, 0, 10);
    buf.add_reloc(Reloc {
        section: SectionKind::Text,
        offset: 5,
        symbol: external,
        kind: RelocKind::Pc32,
        addend: -4,
    });
    buf.emit_u8(0xc3);
    buf.define_symbol(helper, SectionKind::Text, 10, 1);
    let doff = buf.append(SectionKind::Data, &[1, 2, 3, 4, 5, 6, 7, 8]);
    buf.define_symbol(weak, SectionKind::Data, doff, 8);
    buf.add_reloc(Reloc {
        section: SectionKind::Data,
        offset: doff,
        symbol: f,
        kind: RelocKind::Abs64,
        addend: 0,
    });
    buf.append(SectionKind::ROData, b"constant pool bytes");
    buf.reserve_bss(64, 1);
    buf.set_symbol_size(external, 0);
    CompiledModule {
        buf,
        stats: CompileStats {
            funcs: 2,
            blocks: 3,
            insts: 11,
            spills: 1,
            reloads: 2,
            moves: 4,
        },
        timings: PassTimings::new(),
    }
}

/// Path of the single artifact in `dir`.
fn artifact_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "tpdeart"))
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one artifact in {dir:?}");
    files.pop().unwrap()
}

#[test]
fn round_trip_is_byte_identical() {
    let dir = temp_dir("roundtrip");
    let store = cache(&dir);
    let module = sample_module();
    assert!(store.store(7, &module).unwrap());
    assert!(store.contains(7));
    // A repeated store of the same key skips the write.
    assert!(!store.store(7, &module).unwrap());

    let loaded = store.load(7).expect("artifact should load");
    assert_identical(&module.buf, &loaded.buf, "disk round trip");
    assert_eq!(module.stats.funcs, loaded.stats.funcs);
    assert_eq!(module.stats.insts, loaded.stats.insts);
    assert_eq!(module.stats.moves, loaded.stats.moves);
    loaded.validate().unwrap();

    // A second cache instance over the same directory (a stand-in for a
    // second process) sees the artifact too.
    let other = cache(&dir);
    let again = other.load(7).expect("shared store");
    assert_identical(&module.buf, &again.buf, "second cache instance");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mmap_view_links_identically_to_the_buffer() {
    let dir = temp_dir("linkview");
    let store = cache(&dir);
    let module = sample_module();
    store.store(9, &module).unwrap();
    let artifact = store.open_artifact(9).expect("verified artifact");
    #[cfg(unix)]
    assert!(artifact.is_mapped(), "unix should serve artifacts by mmap");
    // Zero-copy link straight off the mapping vs. a link of the original
    // buffer: identical images.
    let from_disk = link_in_memory(&artifact, 0x40_0000, |_| None).unwrap();
    let from_buf = link_in_memory(&module.buf, 0x40_0000, |_| None).unwrap();
    assert_eq!(from_disk.fingerprint(), from_buf.fingerprint());
    assert_eq!(from_disk.text_size(), from_buf.text_size());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_artifact_is_a_miss() {
    let dir = temp_dir("truncated");
    let store = cache(&dir);
    let module = sample_module();
    store.store(1, &module).unwrap();
    let path = artifact_file(&dir);
    let len = fs::metadata(&path).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 2)
        .unwrap();
    assert!(store.load(1).is_none(), "truncated artifact must miss");
    assert!(!path.exists(), "corrupt artifact should be unlinked");
    // The store heals: the next store rewrites, the next load hits.
    assert!(store.store(1, &module).unwrap());
    assert_identical(&module.buf, &store.load(1).unwrap().buf, "healed");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_section_byte_is_a_miss() {
    let dir = temp_dir("bitflip");
    let store = cache(&dir);
    store.store(2, &sample_module()).unwrap();
    let path = artifact_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    // Flip one bit inside the payload (first .text byte lives at 64 + 8).
    bytes[64 + 8] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert!(store.load(2).is_none(), "hash must catch a flipped byte");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_format_version_is_a_miss() {
    let dir = temp_dir("version");
    let store = cache(&dir);
    store.store(3, &sample_module()).unwrap();
    let path = artifact_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0x08] = bytes[0x08].wrapping_add(1); // format version field
    fs::write(&path, &bytes).unwrap();
    assert!(store.load(3).is_none(), "future/stale version must miss");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stored_hash_mismatch_is_a_miss() {
    let dir = temp_dir("hash");
    let store = cache(&dir);
    store.store(4, &sample_module()).unwrap();
    let path = artifact_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0x20] ^= 0xff; // stored payload hash
    fs::write(&path, &bytes).unwrap();
    assert!(store.load(4).is_none());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn key_mismatch_is_a_miss() {
    let dir = temp_dir("key");
    let store = cache(&dir);
    store.store(5, &sample_module()).unwrap();
    // Masquerade the artifact as key 6: the header still says 5.
    let path = artifact_file(&dir);
    fs::rename(&path, dir.join(format!("{:016x}.tpdeart", 6u64))).unwrap();
    assert!(store.load(6).is_none(), "header key must match the request");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hash_consistent_but_invalid_module_is_a_miss() {
    let dir = temp_dir("invalid");
    let store = cache(&dir);
    // A well-formed, correctly hashed artifact whose module is structurally
    // bogus: a relocation field reaching past the end of .text. Every
    // byte-level check passes; CompiledModule::validate must reject it.
    let mut module = sample_module();
    module.buf.add_reloc(Reloc {
        section: SectionKind::Text,
        offset: 9, // text is 11 bytes; an 8-byte Abs64 field would end at 17
        symbol: tpde_core::codebuf::SymbolId(0),
        kind: RelocKind::Abs64,
        addend: 0,
    });
    store.store(8, &module).unwrap();
    assert!(module.validate().is_err());
    assert!(store.load(8).is_none(), "validate() must gate every load");
    assert!(!store.contains(8), "invalid artifact should be unlinked");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn eviction_respects_the_size_bound_and_recency() {
    let dir = temp_dir("evict");
    let module = sample_module();
    let one_size = tpde_core::diskcache::serialize_module(0, &module).len() as u64;
    let store = DiskCache::open(DiskCacheConfig {
        dir: dir.clone(),
        max_bytes: 2 * one_size, // room for two artifacts
    })
    .unwrap();
    store.store(1, &module).unwrap();
    store.store(2, &module).unwrap();
    store.load(1).unwrap(); // refresh 1; 2 is now least recently used
    store.store(3, &module).unwrap(); // must evict 2
    assert!(store.contains(1), "recently used artifact survives");
    assert!(!store.contains(2), "LRU artifact is evicted");
    assert!(store.contains(3), "just-stored artifact survives");
    assert!(store.total_bytes() <= 2 * one_size);
    assert_eq!(store.artifact_count(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_thousand_hits_cost_one_index_line_each_and_keep_lru_exact() {
    let dir = temp_dir("hits");
    let module = sample_module();
    let one_size = tpde_core::diskcache::serialize_module(0, &module).len() as u64;
    let store = DiskCache::open(DiskCacheConfig {
        dir: dir.clone(),
        max_bytes: 2 * one_size,
    })
    .unwrap();
    store.store(1, &module).unwrap();
    store.store(2, &module).unwrap();
    for _ in 0..1000 {
        store.load(1).unwrap();
    }
    // A hit appends; it neither scans nor rewrites.
    let index = || fs::read_to_string(dir.join("index.tpde")).unwrap();
    assert_eq!(index().lines().count(), 2 + 1000);
    store.store(3, &module).unwrap(); // over the bound: evicts and compacts
    assert!(store.contains(1), "the artifact hit 1000 times survives");
    assert!(!store.contains(2), "the never-loaded artifact is evicted");
    assert!(store.contains(3));
    let mut keys: Vec<String> = index()
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    keys.sort();
    assert_eq!(keys, [format!("{:016x}", 1), format!("{:016x}", 3)]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lost_index_resets_recency_not_correctness() {
    let dir = temp_dir("lostindex");
    let store = cache(&dir);
    let module = sample_module();
    store.store(11, &module).unwrap();
    fs::remove_file(dir.join("index.tpde")).unwrap();
    // Artifact presence is the source of truth: loads still hit, stores
    // still dedup, and the index is rebuilt as a side effect.
    assert_identical(&module.buf, &store.load(11).unwrap().buf, "no index");
    assert!(!store.store(11, &module).unwrap());
    assert!(dir.join("index.tpde").exists(), "index rebuilt");
    let _ = fs::remove_dir_all(&dir);
}
