//! Differential-fuzzing integration tests: the emulator-executed half of
//! the harness (the generator/mutator/minimizer unit tests live in
//! `tpde_llvm::fuzz`). Everything here is seeded and deterministic.

use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::CompileOptions;
use tpde_core::jit::link_in_memory;
use tpde_llvm::fuzz::{
    gen_module, inject_miscompile, minimize, run_fuzz, FuzzConfig, ALL_KINDS, EXEC_KINDS,
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

    let m = gen_module(2);
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
