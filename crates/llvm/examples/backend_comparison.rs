//! Compares the x86-64 back-ends (TPDE, LLVM-O0-like baseline,
//! copy-and-patch) on one SPEC-like workload: compile time, code size and
//! emulated run time.
//!
//! Run with: `cargo run --release -p tpde-llvm --example backend_comparison`

use std::time::Instant;
use tpde_core::codebuf::SectionKind;
use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_core::error::Result;
use tpde_core::jit::link_in_memory;
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile_baseline, compile_copy_patch, compile_x64};
use tpde_x64emu::run_function;

type CompileFn = fn(&Module) -> Result<CompiledModule>;

fn main() {
    let w = Workload {
        input: 20_000,
        ..spec_workloads()[6].clone()
    }; // 631.deepsjeng-like
    let module = build_workload(&w, IrStyle::O0);
    let expected = expected_result(&w);
    println!(
        "workload {} ({} IR instructions)",
        w.name,
        module.inst_count()
    );

    let backends: [(&str, CompileFn); 3] = [
        ("TpdeX64", |m| compile_x64(m, &CompileOptions::default())),
        ("BaselineO0", |m| compile_baseline(m, 0)),
        ("CopyPatch", compile_copy_patch),
    ];
    for (name, compile) in backends {
        let t = Instant::now();
        let compiled = compile(&module).unwrap();
        let compile_time = t.elapsed();
        let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
        let (ret, stats) = run_function(&image, "bench_main", &[w.input]).unwrap();
        println!(
            "{:<14} compile {:>8.3} ms   text {:>7} B   cycles {:>12}   correct: {}",
            name,
            1000.0 * compile_time.as_secs_f64(),
            compiled.buf.section_size(SectionKind::Text),
            stats.cycles,
            ret == expected
        );
    }
}
