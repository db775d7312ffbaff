//! Round-trip and corruption-handling tests of the persistent artifact
//! store: every way an artifact can be damaged must degrade to a cache miss
//! (fall back to compile), never to a wrong answer.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use tpde_core::codebuf::{
    assert_identical, CodeBuffer, Reloc, RelocKind, SectionKind, SymbolBinding,
};
use tpde_core::codegen::{CompileStats, CompiledModule};
use tpde_core::diskcache::{serialize_module, DiskCache, DiskCacheConfig};
use tpde_core::hash::StableHasher;
use tpde_core::rng::Xoshiro256;
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
fn previous_format_version_is_a_miss_and_unlinked() {
    // An artifact written by the previous format carries a valid checksum
    // but may hold code the current compiler no longer emits.
    let dir = temp_dir("prev-version");
    let store = cache(&dir);
    store.store(3, &sample_module()).unwrap();
    let path = artifact_file(&dir);
    let mut bytes = fs::read(&path).unwrap();
    bytes[0x08..0x0c].copy_from_slice(&2u32.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert!(store.load(3).is_none(), "a version-2 artifact must miss");
    assert!(!path.exists(), "a version-2 artifact is unlinked");
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

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// File offsets of the name arena, the first symbol record and the first
/// relocation record of a serialized artifact (see the format table in the
/// `diskcache` module docs).
fn record_offsets(bytes: &[u8]) -> (usize, usize, usize) {
    let align8 = |n: usize| (n + 7) & !7;
    let mut cursor = 64;
    for _ in 0..3 {
        cursor = align8(cursor + 8 + rd_u64(bytes, cursor) as usize);
    }
    let names = cursor;
    let syms = align8(names + rd_u32(bytes, 0x38) as usize);
    let relocs = syms + 32 * rd_u32(bytes, 0x30) as usize;
    (names, syms, relocs)
}

#[test]
fn hash_consistent_forged_records_are_misses() {
    // Each case forges one record field of a correct artifact and re-seals
    // the payload hash, so only the decoder's record checks stand between
    // the forged bytes and a hit.
    let dir = temp_dir("forged");
    let store = cache(&dir);
    let clean = serialize_module(0, &sample_module());
    let (names, syms, relocs) = record_offsets(&clean);
    let names_len = rd_u32(&clean, 0x38);
    let nsyms = rd_u32(&clean, 0x30);
    let sym = move |i: usize| syms + 32 * i;
    let reloc = move |i: usize| relocs + 24 * i;
    let put_u32 = |b: &mut Vec<u8>, off: usize, v: u32| {
        b[off..off + 4].copy_from_slice(&v.to_le_bytes());
    };
    type Forge = Box<dyn Fn(&mut Vec<u8>)>;
    let cases: Vec<(&str, Forge)> = vec![
        (
            "name end past the arena",
            Box::new(move |b| put_u32(b, sym(3) + 4, names_len + 1)),
        ),
        (
            "name start after its end",
            Box::new(move |b| {
                let end = rd_u32(b, sym(1) + 4);
                put_u32(b, sym(1), end + 1);
            }),
        ),
        ("non-UTF-8 arena byte", Box::new(move |b| b[names] = 0xff)),
        ("unknown binding", Box::new(move |b| b[sym(0) + 25] = 0x7f)),
        ("is_func = 2", Box::new(move |b| b[sym(0) + 26] = 2)),
        (
            "unknown symbol section",
            Box::new(move |b| b[sym(0) + 24] = 0x7e),
        ),
        (
            "duplicate name",
            Box::new(move |b| {
                let (start, end) = (rd_u32(b, sym(0)), rd_u32(b, sym(0) + 4));
                put_u32(b, sym(1), start);
                put_u32(b, sym(1) + 4, end);
            }),
        ),
        (
            "reloc symbol >= nsyms",
            Box::new(move |b| put_u32(b, reloc(0) + 16, nsyms)),
        ),
        (
            "unknown reloc section",
            Box::new(move |b| b[reloc(0) + 20] = 0x7e),
        ),
        (
            "unknown reloc kind",
            Box::new(move |b| b[reloc(0) + 21] = 0x7e),
        ),
    ];
    for (key, (what, forge)) in (100u64..).zip(cases) {
        let mut bytes = serialize_module(key, &sample_module());
        forge(&mut bytes);
        let hash = StableHasher::hash_bytes(&bytes[64..]);
        bytes[0x20..0x28].copy_from_slice(&hash.to_le_bytes());
        let path = dir.join(format!("{key:016x}.tpdeart"));
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none(), "{what}: forged record must miss");
        assert!(!path.exists(), "{what}: forged artifact should be unlinked");
    }
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

/// A cache over `dir` bounded to `max_bytes`.
fn bounded(dir: &Path, max_bytes: u64) -> DiskCache {
    DiskCache::open(DiskCacheConfig {
        dir: dir.to_path_buf(),
        max_bytes,
    })
    .unwrap()
}

fn index_lines(dir: &Path) -> Vec<String> {
    let text = fs::read_to_string(dir.join("index.tpde")).unwrap();
    text.lines().map(str::to_string).collect()
}

#[cfg(unix)]
#[test]
fn stores_below_budget_only_append_and_an_overflow_compacts() {
    use std::os::unix::fs::MetadataExt;
    let dir = temp_dir("append");
    let module = sample_module();
    let one_size = serialize_module(0, &module).len() as u64;
    let store = bounded(&dir, 1000 * one_size);
    let inode = || fs::metadata(dir.join("index.tpde")).unwrap().ino();
    let before = inode();
    for key in 0..1000 {
        assert!(store.store(key, &module).unwrap());
    }
    // No store below the budget rewrote the index: same file, one line each.
    assert_eq!(inode(), before);
    assert_eq!(index_lines(&dir).len(), 1000);
    store.store(1000, &module).unwrap(); // over the budget: reconcile
    assert_ne!(inode(), before, "the overflow rewrites the index");
    assert_eq!(index_lines(&dir).len(), 1000);
    assert!(!store.contains(0), "the oldest artifact is evicted");
    assert!(store.contains(1000));
    assert_eq!(store.total_bytes(), 1000 * one_size);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn after_a_lost_index_the_lowest_key_is_evicted_first() {
    let module = sample_module();
    let one_size = serialize_module(0, &module).len() as u64;
    let orders: [[u64; 8]; 3] = [
        [8, 7, 6, 5, 4, 3, 2, 1],
        [5, 2, 8, 1, 7, 3, 6, 4],
        [1, 2, 3, 4, 5, 6, 7, 8],
    ];
    for order in orders {
        let dir = temp_dir("tiebreak");
        let store = bounded(&dir, 8 * one_size);
        for key in order {
            store.store(key, &module).unwrap();
        }
        fs::remove_file(dir.join("index.tpde")).unwrap();
        // Every old artifact now has the same (absent) recency; the key,
        // not `readdir` order, decides which goes first.
        for (evicted, newcomer) in [(1, 0x100), (2, 0x101)] {
            store.store(newcomer, &module).unwrap();
            let live: Vec<u64> = (evicted + 1..=8).chain(0x100..=newcomer).collect();
            let found: Vec<u64> = (1..=8)
                .chain(0x100..=0x101)
                .filter(|&k| store.contains(k))
                .collect();
            assert_eq!(found, live, "order {order:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `sample_module` padded by `key`-dependent `.rodata`, so artifact sizes
/// differ between keys.
fn module_for(key: u64) -> CompiledModule {
    let mut module = sample_module();
    module
        .buf
        .append(SectionKind::ROData, &vec![0xa5; 64 * (key % 4) as usize]);
    module
}

/// The eviction policy of a directory scan per store: every live artifact
/// with its size and recency (0 = not in the index), least-recent first
/// with ties by key, never the artifact just stored.
struct Model {
    max_bytes: u64,
    live: BTreeMap<u64, (u64, u64)>,
    clock: u64,
}

impl Model {
    fn bump(&mut self, key: u64) {
        self.clock += 1;
        self.live.get_mut(&key).unwrap().1 = self.clock;
    }

    fn store(&mut self, key: u64, size: u64) {
        self.live.entry(key).or_insert((size, 0));
        self.bump(key);
        let mut total: u64 = self.live.values().map(|&(size, _)| size).sum();
        let mut order: Vec<(u64, u64, u64)> = self
            .live
            .iter()
            .filter(|&(&k, _)| k != key)
            .map(|(&k, &(size, tick))| (tick, k, size))
            .collect();
        order.sort_unstable();
        for (_, k, size) in order {
            if total <= self.max_bytes {
                break;
            }
            self.live.remove(&k);
            total -= size;
        }
    }

    fn load(&mut self, key: u64) -> bool {
        let hit = self.live.contains_key(&key);
        if hit {
            self.bump(key);
        }
        hit
    }
}

#[test]
fn ledger_matches_a_scan_per_store_model_under_random_operations() {
    const KEYS: u64 = 12;
    let dir = temp_dir("model");
    let modules: Vec<CompiledModule> = (0..KEYS).map(module_for).collect();
    let size = |key: u64| serialize_module(key, &modules[key as usize]).len() as u64;
    let max_bytes = 5 * size(0);
    let handles = [bounded(&dir, max_bytes), bounded(&dir, max_bytes)];
    let mut model = Model {
        max_bytes,
        live: BTreeMap::new(),
        clock: 0,
    };
    let mut rng = Xoshiro256::new(0x1ED6_E500);
    for step in 0..2000 {
        let store = &handles[rng.below(2) as usize];
        let key = rng.below(KEYS);
        let op = rng.below(100);
        match op {
            0..=44 => {
                let fresh = store.store(key, &modules[key as usize]).unwrap();
                assert_eq!(fresh, !model.live.contains_key(&key), "step {step}");
                model.store(key, size(key));
                assert!(store.total_bytes() <= max_bytes, "step {step}");
            }
            45..=79 => {
                let hit = store.load(key).is_some();
                assert_eq!(hit, model.load(key), "step {step}: load {key}");
            }
            80..=87 => {
                // Unlinked behind the cache's back: the ledger over-counts.
                let _ = fs::remove_file(dir.join(format!("{key:016x}.tpdeart")));
                model.live.remove(&key);
            }
            88..=93 => {
                let _ = fs::remove_file(dir.join("index.tpde"));
                model.live.values_mut().for_each(|(_, tick)| *tick = 0);
            }
            _ => {
                // A missing, short or foreign ledger record.
                let junk: Vec<u8> = (0..rng.below(24)).map(|_| rng.below(256) as u8).collect();
                fs::write(dir.join("index.lock"), junk).unwrap();
            }
        }
        let live: Vec<u64> = (0..KEYS).filter(|&k| store.contains(k)).collect();
        let expect: Vec<u64> = model.live.keys().copied().collect();
        assert_eq!(live, expect, "step {step} (op {op}, key {key})");
    }
    let _ = fs::remove_dir_all(&dir);
}
