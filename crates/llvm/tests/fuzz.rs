//! Differential-fuzzing integration tests: the emulator-executed half of
//! the harness (the generator/mutator/minimizer unit tests live in
//! `tpde_llvm::fuzz`). Everything here is seeded and deterministic.
//!
//! The long campaign is `#[ignore]`d; run it with
//! `cargo test --release -p tpde-llvm --test fuzz -- --ignored`, sized by
//! `TPDE_FUZZ_MODULES` (default 200) and seeded by `TPDE_FUZZ_SEED`
//! (decimal or `0x` hex, default `0xC60_2026`; always printed).

use std::path::Path;
use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::CompileOptions;
use tpde_core::jit::link_in_memory;
use tpde_llvm::fuzz::{
    gen_module, inject_miscompile, minimize, run_fuzz, FuzzConfig, FuzzFailure, ALL_KINDS,
    EXEC_KINDS,
};
use tpde_llvm::ir::Module;
use tpde_x64emu::{register_default_hostcalls, Machine};

/// Runs `bench_main(input)` from a compiled buffer under an instruction
/// budget, so candidates the minimizer breaks into infinite loops fail
/// with a timeout instead of hanging the test.
fn exec_budgeted(buf: &CodeBuffer, input: u64, max_insts: u64) -> Result<u64, String> {
    let image = link_in_memory(buf, 0x40_0000, |_| None).map_err(|e| e.to_string())?;
    let mut m = Machine::new();
    m.max_insts = max_insts;
    m.load_image(&image);
    register_default_hostcalls(&mut m, &image);
    let addr = image
        .symbol_addr("bench_main")
        .ok_or_else(|| "no bench_main symbol".to_string())?;
    m.call(addr, &[input]).map_err(|e| format!("{e:?}"))
}

/// A short but complete campaign: every module through every backend kind
/// (service vs one-shot byte identity, which is the whole AArch64 check),
/// emulator-equal results across the executable x86-64 kinds, and one
/// verifier-rejected mutant per module.
#[test]
fn fuzz_campaign_quick() {
    let cfg = FuzzConfig {
        modules: 30,
        seed: 0xC60_2026,
        mutants_per_module: 1,
        workers: 2,
    };
    let rep = run_fuzz(&cfg, &|b, i| exec_budgeted(b, i, 100_000_000));
    assert!(rep.ok(), "{}\n{:#?}", rep.summary(), rep.failures);
    assert_eq!(rep.modules, cfg.modules);
    assert_eq!(rep.mutants, cfg.modules * cfg.mutants_per_module);
    // Every mutant was shed at admission with a typed error — no panic
    // containment, no watchdog respawn involved.
    assert_eq!(rep.rejected_invalid as usize, rep.mutants);
    assert_eq!(rep.panics_backend, 0);
    assert_eq!(rep.workers_respawned, 0);
    assert_eq!(rep.compared, cfg.modules * ALL_KINDS.len());
    assert_eq!(rep.executed, cfg.modules * EXEC_KINDS.len());
}

/// Reads a campaign parameter from the environment: decimal or `0x` hex.
fn env_u64(name: &str, default: u64) -> u64 {
    let Ok(v) = std::env::var(name) else {
        return default;
    };
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|e| panic!("{name}={v}: {e}"))
}

/// Writes a failure as a reproducer file under `dir`. A result mismatch is
/// first shrunk while any two executable kinds still disagree, so the
/// reproducer is a few instructions instead of a whole module.
fn write_reproducer(dir: &Path, index: usize, f: &FuzzFailure) {
    let mut ir = f.ir.clone();
    if f.kind == "result mismatch" {
        let input = f.seed & 0x3F;
        let mut differs = |m: &Module| -> bool {
            let mut first = None;
            for kind in EXEC_KINDS {
                let Ok(c) = tpde_llvm::compile(m, kind, &CompileOptions::default()) else {
                    return false;
                };
                let Ok(r) = exec_budgeted(&c.buf, input, 200_000) else {
                    return false;
                };
                match first {
                    None => first = Some(r),
                    Some(r0) if r0 != r => return true,
                    Some(_) => {}
                }
            }
            false
        };
        let small = minimize(&gen_module(f.seed), &mut differs, 400);
        if differs(&small) {
            ir = small.dump();
        }
    }
    let path = dir.join(format!("fuzz_{index:03}_{:016x}.txt", f.seed));
    let text = format!(
        "seed: {:#x}\nkind: {}\ndetail: {}\n\n{ir}\n",
        f.seed, f.kind, f.detail
    );
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

/// The differential campaign CI runs on every push (200 modules, fixed
/// seed) and nightly (5000 modules, time-derived seed). Every failure is
/// written to `fuzz_failures/` at the repository root as a
/// seed-reproducible test case before the test fails.
#[test]
#[ignore = "long campaign; run with --ignored"]
fn fuzz_campaign() {
    let cfg = FuzzConfig {
        modules: env_u64("TPDE_FUZZ_MODULES", 200) as usize,
        seed: env_u64("TPDE_FUZZ_SEED", 0xC60_2026),
        mutants_per_module: 1,
        workers: 3,
    };
    println!(
        "fuzz campaign: {} modules, seed {:#x} (rerun with TPDE_FUZZ_SEED={:#x})",
        cfg.modules, cfg.seed, cfg.seed
    );
    let rep = run_fuzz(&cfg, &|b, i| exec_budgeted(b, i, 100_000_000));
    println!("{}", rep.summary());
    if !rep.failures.is_empty() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz_failures");
        std::fs::create_dir_all(&dir).expect("create fuzz_failures/");
        for (i, f) in rep.failures.iter().enumerate() {
            println!("FAILURE seed {:#x}: {} ({})", f.seed, f.kind, f.detail);
            write_reproducer(&dir, i, f);
        }
    }
    assert!(
        rep.ok(),
        "{}, {} backend panics, {} respawns; reproducers in fuzz_failures/",
        rep.summary(),
        rep.panics_backend,
        rep.workers_respawned
    );
}

/// An intentionally planted single-instruction miscompile (first integer
/// `Add` flipped to `Sub`, standing in for a backend bug) must be caught
/// by the differential check and shrink to a handful of instructions.
#[test]
fn injected_miscompile_is_caught_and_minimized() {
    let opts = CompileOptions::default();
    let input = 5u64;
    // "Failing" = the planted bug changes the executed result relative to
    // the O0 baseline compiling the unmodified module.
    let mut differs = |m: &Module| -> bool {
        let Some(bad) = inject_miscompile(m) else {
            return false;
        };
        let good = match tpde_llvm::compile_baseline(m, 0) {
            Ok(c) => c.buf,
            Err(_) => return false,
        };
        let buggy = match tpde_llvm::compile_x64(&bad, &opts) {
            Ok(c) => c.buf,
            Err(_) => return false,
        };
        // A tight budget: generated loops run a handful of iterations, and
        // candidates the minimizer breaks into infinite loops must time out
        // quickly rather than stall the shrink.
        match (
            exec_budgeted(&good, input, 200_000),
            exec_budgeted(&buggy, input, 200_000),
        ) {
            (Ok(a), Ok(b)) => a != b,
            _ => false,
        }
    };

    // Seed 4, not 2: since the generator grew indexed GEPs and live-operand
    // arithmetic, seed 2's planted `Add` ends up as a loop increment, and
    // the greedy minimizer cannot shrink a failure that needs the loop
    // below 15 instructions.
    let m = gen_module(4);
    assert!(differs(&m), "seed must make the planted bug observable");
    let small = minimize(&m, &mut differs, 800);
    assert!(differs(&small), "shrinking must preserve the failure");
    assert!(
        small.inst_count() <= 10,
        "minimized to {} instructions, want <= 10:\n{}",
        small.inst_count(),
        small.dump()
    );
}
