//! Tiered-execution suite: tier-0 instrumentation (entry counters and
//! patchable call slots) must execute correctly under the x64 decoder, the
//! call-slot patch API must be atomic and idempotent, tiered compiles must
//! stay deterministic across the sequential, sharded and service pipelines,
//! and every tier-1 recompiled function must be byte-identical to a direct
//! one-shot tier-1 compile.

use std::sync::Arc;
use tpde_core::codebuf::{assert_identical, CodeBuffer, SectionKind, SymbolId};
use tpde_core::codegen::CompileOptions;
use tpde_core::jit::{link_in_memory, JitImage};
use tpde_core::service::{Request, ServiceConfig, TieringController};
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{
    compile_baseline, compile_copy_patch, compile_copy_patch_tiered,
    compile_copy_patch_tiered_parallel, compile_service, compile_x64_tier0,
    compile_x64_tier0_parallel, ModuleRequest, ServiceBackendKind,
};
use tpde_x64emu::{register_default_hostcalls, Machine};

/// The call-heavy workload, scaled down for test speed: 18 kernels plus
/// `bench_main`, which calls every kernel exactly once per invocation.
fn call_workload() -> (Workload, Module) {
    let base = spec_workloads()
        .into_iter()
        .find(|w| w.name == "620.omnetpp")
        .expect("call-heavy workload");
    let w = Workload { input: 500, ..base };
    let module = build_workload(&w, IrStyle::O0);
    (w, module)
}

/// Links a tier-0 buffer, loads it into a fresh machine and returns both.
fn boot(buf: &tpde_core::codebuf::CodeBuffer) -> (Machine, JitImage) {
    let image = link_in_memory(buf, 0x40_0000, |_| None).expect("link");
    let mut m = Machine::new();
    m.load_image(&image);
    register_default_hostcalls(&mut m, &image);
    (m, image)
}

/// Reads the tier-0 entry counter of function `f` from guest memory (the
/// executing machine increments its own copy of the counter table).
fn counter(m: &Machine, image: &JitImage, f: u32) -> u64 {
    m.mem.read(image.tier_counter_addr(f).expect("counter"), 8)
}

#[test]
fn tier0_copy_patch_counts_entries_and_computes_correctly() {
    let (w, module) = call_workload();
    let buf = compile_copy_patch_tiered(&module).unwrap().buf;
    let (mut m, image) = boot(&buf);
    let nfuncs = module.funcs.len();
    assert_eq!(image.tier_func_count(), Some(nfuncs));
    let main = image.symbol_addr("bench_main").unwrap();
    for run in 1..=3u64 {
        assert_eq!(m.call(main, &[w.input]).unwrap(), expected_result(&w));
        // bench_main calls every kernel once, and is entered once itself.
        for f in 0..nfuncs as u32 {
            assert_eq!(counter(&m, &image, f), run, "function {f} after {run} runs");
        }
    }
}

#[test]
fn tier0_tpde_counts_entries_and_computes_correctly() {
    let (w, module) = call_workload();
    let buf = compile_x64_tier0(&module, &CompileOptions::default())
        .unwrap()
        .buf;
    let (mut m, image) = boot(&buf);
    let nfuncs = module.funcs.len();
    assert_eq!(image.tier_func_count(), Some(nfuncs));
    let main = image.symbol_addr("bench_main").unwrap();
    for run in 1..=2u64 {
        assert_eq!(m.call(main, &[w.input]).unwrap(), expected_result(&w));
        for f in 0..nfuncs as u32 {
            assert_eq!(counter(&m, &image, f), run, "function {f} after {run} runs");
        }
    }
}

#[test]
fn untiered_compiles_carry_no_tier_tables() {
    let (_, module) = call_workload();
    for buf in [
        compile_copy_patch(&module).unwrap().buf,
        compile_baseline(&module, 1).unwrap().buf,
    ] {
        let image = link_in_memory(&buf, 0x40_0000, |_| None).unwrap();
        assert_eq!(image.tier_func_count(), None);
        assert!(image.call_slot_addr(0).is_none());
    }
}

#[test]
fn patched_slot_routes_to_tier1_and_unpatched_stubs_stay_tier0() {
    let (w, module) = call_workload();
    let expected = expected_result(&w);
    let t0 = compile_copy_patch_tiered(&module).unwrap().buf;
    let t1 = compile_baseline(&module, 1).unwrap().buf;
    let (mut m, mut image) = boot(&t0);
    let tier1 = link_in_memory(&t1, 0x80_0000, |_| None).unwrap();
    m.load_image(&tier1);
    register_default_hostcalls(&mut m, &tier1);
    let main = image.symbol_addr("bench_main").unwrap();

    // Before any patch, every slot holds its own tier-0 entry.
    for (f, func) in module.funcs.iter().enumerate() {
        assert_eq!(
            image.call_slot_target(f as u32),
            image.symbol_addr(&func.name),
            "unpatched slot of {}",
            func.name
        );
    }
    assert_eq!(m.call(main, &[w.input]).unwrap(), expected);

    // Patch kernel 0 to its tier-1 compile and run again: the result is
    // unchanged, the call decodes through the patched slot into tier-1 code
    // (which has no counter, so kernel 0's counter freezes), while the
    // unpatched stubs keep reaching the instrumented tier-0 bodies.
    let k0_tier1 = tier1.symbol_addr(&module.funcs[0].name).unwrap();
    assert!(m.apply_call_patch(&mut image, 0, k0_tier1).unwrap());
    assert_eq!(image.call_slot_target(0), Some(k0_tier1));
    assert_eq!(m.call(main, &[w.input]).unwrap(), expected);
    assert_eq!(counter(&m, &image, 0), 1, "patched kernel left tier 0");
    for f in 1..module.funcs.len() as u32 {
        assert_eq!(counter(&m, &image, f), 2, "unpatched function {f}");
    }

    // Double-patching with the same target is a no-op.
    assert!(!m.apply_call_patch(&mut image, 0, k0_tier1).unwrap());
    assert_eq!(image.call_slot_target(0), Some(k0_tier1));
    assert_eq!(m.call(main, &[w.input]).unwrap(), expected);

    // Out-of-range indices are a patch error, not a crash.
    assert!(m
        .apply_call_patch(&mut image, module.funcs.len() as u32, 0x1234)
        .is_err());
}

#[test]
fn patching_invalidates_the_image_fingerprint() {
    let (_, module) = call_workload();
    let buf = compile_copy_patch_tiered(&module).unwrap().buf;
    let mut image = link_in_memory(&buf, 0x40_0000, |_| None).unwrap();
    let original = image.fingerprint();
    let old_target = image.call_slot_target(0).unwrap();

    assert!(image.patch_call_slot(0, 0x80_1234).unwrap());
    let patched = image.fingerprint();
    assert_ne!(
        original, patched,
        "fingerprint must track the patched bytes"
    );

    // An idempotent re-patch writes nothing and keeps the fingerprint.
    assert!(!image.patch_call_slot(0, 0x80_1234).unwrap());
    assert_eq!(image.fingerprint(), patched);

    // Restoring the original target restores the original content hash.
    assert!(image.patch_call_slot(0, old_target).unwrap());
    assert_eq!(image.fingerprint(), original);
}

#[test]
fn tiered_compiles_are_deterministic_across_pipelines() {
    let (_, module) = call_workload();
    let opts = CompileOptions::default();
    let module = Arc::new(module);

    let seq_cp = compile_copy_patch_tiered(&module).unwrap().buf;
    let par_cp = compile_copy_patch_tiered_parallel(&module, 4).unwrap().buf;
    assert_identical(&seq_cp, &par_cp, "tiered copy-patch sharded");

    let seq_tpde = compile_x64_tier0(&module, &opts).unwrap().buf;
    let par_tpde = compile_x64_tier0_parallel(&module, &opts, 4).unwrap().buf;
    assert_identical(&seq_tpde, &par_tpde, "tiered TPDE sharded");

    // Service responses — batched (high threshold) and sharded (low
    // threshold) — must match the one-shot compiles byte for byte.
    for shard_threshold in [1000, 16] {
        let svc = compile_service(ServiceConfig {
            workers: 4,
            shard_threshold,
            cache_capacity: 0,
            disk_cache: None,
            ..ServiceConfig::default()
        });
        let got = svc
            .compile(Request::new(ModuleRequest::new(
                Arc::clone(&module),
                ServiceBackendKind::CopyPatchTier0,
            )))
            .module
            .unwrap();
        assert_identical(
            &seq_cp,
            &got.buf,
            &format!("service tiered copy-patch threshold={shard_threshold}"),
        );
        let got = svc
            .compile(Request::new(ModuleRequest::new(
                Arc::clone(&module),
                ServiceBackendKind::TpdeX64Tier0,
            )))
            .module
            .unwrap();
        assert_identical(
            &seq_tpde,
            &got.buf,
            &format!("service tiered TPDE threshold={shard_threshold}"),
        );
    }
}

/// The text bytes of a named function in a compiled buffer.
fn func_bytes<'a>(buf: &'a CodeBuffer, name: &str) -> &'a [u8] {
    let sym = buf
        .symbols()
        .iter()
        .enumerate()
        .find(|(i, s)| {
            s.section == Some(SectionKind::Text) && buf.symbol_name(SymbolId(*i as u32)) == name
        })
        .map(|(_, s)| s)
        .unwrap_or_else(|| panic!("no text symbol {name}"));
    assert!(sym.size > 0, "{name} has no recorded size");
    &buf.section_data(SectionKind::Text)[sym.offset as usize..(sym.offset + sym.size) as usize]
}

#[test]
fn tier1_recompiles_are_byte_identical_per_function() {
    let (_, module) = call_workload();
    let one_shot = compile_baseline(&module, 1).unwrap().buf;
    let module = Arc::new(module);
    let svc = compile_service(ServiceConfig {
        workers: 2,
        shard_threshold: 16,
        cache_capacity: 4,
        disk_cache: None,
        ..ServiceConfig::default()
    });
    let recompiled = svc
        .compile(Request::new(ModuleRequest::new(
            Arc::clone(&module),
            ServiceBackendKind::BaselineO1,
        )))
        .module
        .unwrap();
    assert_identical(&one_shot, &recompiled.buf, "tier-1 recompile whole module");
    for func in &module.funcs {
        assert_eq!(
            func_bytes(&one_shot, &func.name),
            func_bytes(&recompiled.buf, &func.name),
            "tier-1 bytes of {}",
            func.name
        );
    }
}

#[test]
fn controller_driven_promotion_reaches_tier1_steady_state() {
    let (w, module) = call_workload();
    let expected = expected_result(&w);
    let nfuncs = module.funcs.len();
    let t0 = compile_copy_patch_tiered(&module).unwrap().buf;
    let t1 = compile_baseline(&module, 1).unwrap().buf;

    let (mut m, mut image) = boot(&t0);
    let tier1 = link_in_memory(&t1, 0x80_0000, |_| None).unwrap();
    m.load_image(&tier1);
    register_default_hostcalls(&mut m, &tier1);
    let mut entry = image.symbol_addr("bench_main").unwrap();

    let mut controller = TieringController::new(nfuncs, 2);
    let mut iters = 0;
    while !controller.all_promoted() {
        iters += 1;
        assert!(iters <= 8, "promotion did not converge");
        assert_eq!(m.call(entry, &[w.input]).unwrap(), expected);
        let counters: Vec<u64> = (0..nfuncs as u32).map(|f| counter(&m, &image, f)).collect();
        controller
            .poll(
                |f| counters[f as usize],
                |f| {
                    let target = tier1.symbol_addr(&module.funcs[f as usize].name).unwrap();
                    m.apply_call_patch(&mut image, f, target)
                        .map(|_| ())
                        .map_err(|e| tpde_core::error::Error::Emit(e.to_string()))
                },
            )
            .unwrap();
        if controller.is_promoted(nfuncs as u32 - 1) {
            entry = tier1.symbol_addr("bench_main").unwrap();
        }
    }
    assert_eq!(controller.promotions(), nfuncs as u64);

    // Steady state runs pure tier-1 code: the same cycle count as a
    // tier-1-only machine, and no tier-0 counter moves any more.
    let before: Vec<u64> = (0..nfuncs as u32).map(|f| counter(&m, &image, f)).collect();
    m.reset_stats();
    assert_eq!(m.call(entry, &[w.input]).unwrap(), expected);
    let tiered_cycles = m.stats().cycles;
    let after: Vec<u64> = (0..nfuncs as u32).map(|f| counter(&m, &image, f)).collect();
    assert_eq!(before, after, "steady state must not touch tier-0 counters");

    let (mut t1m, t1_image) = boot(&t1);
    let t1_main = t1_image.symbol_addr("bench_main").unwrap();
    assert_eq!(t1m.call(t1_main, &[w.input]).unwrap(), expected);
    t1m.reset_stats();
    assert_eq!(t1m.call(t1_main, &[w.input]).unwrap(), expected);
    assert_eq!(
        tiered_cycles,
        t1m.stats().cycles,
        "tiered steady state must match tier-1-only execution"
    );

    // And the instrumented tier-0 machine is strictly slower.
    let (mut t0m, t0_image) = boot(&t0);
    let t0_main = t0_image.symbol_addr("bench_main").unwrap();
    assert_eq!(t0m.call(t0_main, &[w.input]).unwrap(), expected);
    t0m.reset_stats();
    assert_eq!(t0m.call(t0_main, &[w.input]).unwrap(), expected);
    assert!(
        tiered_cycles < t0m.stats().cycles,
        "tier-1 steady state must beat instrumented tier-0"
    );
}
