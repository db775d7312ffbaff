//! Determinism suite for the function-sharded parallel pipeline: for every
//! workload kind, both IR styles and 1/2/4/8 workers, the parallel output —
//! text bytes, symbol table, relocations and the serialized ELF object —
//! must be byte-identical to single-threaded compilation, and the generated
//! code must still execute correctly.

use tpde_core::codebuf::assert_identical;
use tpde_core::codegen::CompileOptions;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_core::parallel::WorkerPool;
use tpde_llvm::backend::compile_with_pool;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{
    compile_a64, compile_a64_parallel, compile_baseline, compile_baseline_parallel,
    compile_copy_patch, compile_copy_patch_parallel, compile_x64, compile_x64_parallel,
};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn small(w: &Workload) -> Workload {
    Workload {
        input: w.input.min(500),
        ..w.clone()
    }
}

#[test]
fn tpde_x64_parallel_is_byte_identical_for_all_workloads() {
    let opts = CompileOptions::default();
    for w in spec_workloads() {
        let w = small(&w);
        for style in [IrStyle::O0, IrStyle::O1] {
            let module = build_workload(&w, style);
            let seq = compile_x64(&module, &opts).expect("sequential compile");
            for threads in WORKERS {
                let what = format!("{} {:?} x64 threads={threads}", w.name, style);
                let par = compile_x64_parallel(&module, &opts, threads).expect(&what);
                assert_identical(&seq.buf, &par.buf, &what);
                // The serialized relocatable object is byte-identical too.
                assert_eq!(
                    write_elf_object(&seq.buf, ElfMachine::X86_64).unwrap(),
                    write_elf_object(&par.buf, ElfMachine::X86_64).unwrap(),
                    "{what}: ELF object differs"
                );
                // Event counters are worker-order-independent sums.
                assert_eq!(seq.stats.funcs, par.stats.funcs, "{what}");
                assert_eq!(seq.stats.blocks, par.stats.blocks, "{what}");
                assert_eq!(seq.stats.insts, par.stats.insts, "{what}");
                assert_eq!(seq.stats.spills, par.stats.spills, "{what}");
                assert_eq!(seq.stats.reloads, par.stats.reloads, "{what}");
                assert_eq!(seq.stats.moves, par.stats.moves, "{what}");
            }
        }
    }
}

#[test]
fn tpde_a64_parallel_is_byte_identical() {
    let opts = CompileOptions::default();
    for w in spec_workloads().iter().step_by(2) {
        let w = small(w);
        for style in [IrStyle::O0, IrStyle::O1] {
            let module = build_workload(&w, style);
            let seq = compile_a64(&module, &opts).expect("sequential compile");
            for threads in [2, 8] {
                let what = format!("{} {:?} a64 threads={threads}", w.name, style);
                let par = compile_a64_parallel(&module, &opts, threads).expect(&what);
                assert_identical(&seq.buf, &par.buf, &what);
                assert_eq!(
                    write_elf_object(&seq.buf, ElfMachine::Aarch64).unwrap(),
                    write_elf_object(&par.buf, ElfMachine::Aarch64).unwrap(),
                    "{what}: ELF object differs"
                );
            }
        }
    }
}

#[test]
fn baseline_backends_parallel_are_byte_identical() {
    for w in spec_workloads().iter().take(3) {
        let w = small(w);
        let module = build_workload(&w, IrStyle::O0);
        let seq_cp = compile_copy_patch(&module).unwrap();
        let seq_o0 = compile_baseline(&module, 0).unwrap();
        let seq_o1 = compile_baseline(&module, 1).unwrap();
        for threads in WORKERS {
            let par = compile_copy_patch_parallel(&module, threads).unwrap();
            assert_identical(&seq_cp.buf, &par.buf, "copy-patch");
            assert_eq!(seq_cp.insts, par.insts);
            let par = compile_baseline_parallel(&module, 0, threads).unwrap();
            assert_identical(&seq_o0.buf, &par.buf, "baseline O0");
            let par = compile_baseline_parallel(&module, 1, threads).unwrap();
            assert_identical(&seq_o1.buf, &par.buf, "baseline O1");
        }
    }
}

/// A module where `first` calls `third` — a *forward* reference to a
/// function defined later in the module — plus an external declaration.
/// This is the shape that distinguishes upfront symbol declaration from
/// lazy at-call-site declaration, so it pins that sequential and parallel
/// compilers produce the same symbol-table order even then.
fn forward_call_module() -> tpde_llvm::ir::Module {
    use tpde_llvm::ir::{BinOp, FuncId, FunctionBuilder, Module, Type};
    let mut m = Module::new();
    // function ids are dense indices in add order: first=0, second=1, third=2
    let mut b = FunctionBuilder::new("first", &[Type::I64], Type::I64);
    let r = b.call(FuncId(2), Type::I64, vec![b.arg(0)]);
    b.ret(Some(r));
    m.add_function(b.build());
    let mut b = FunctionBuilder::new("second", &[Type::I64], Type::I64);
    let two = b.iconst(Type::I64, 2);
    let r = b.bin(BinOp::Mul, Type::I64, b.arg(0), two);
    b.ret(Some(r));
    m.add_function(b.build());
    let mut b = FunctionBuilder::new("third", &[Type::I64], Type::I64);
    let one = b.iconst(Type::I64, 1);
    let r = b.bin(BinOp::Add, Type::I64, b.arg(0), one);
    b.ret(Some(r));
    m.add_function(b.build());
    m.declare("external_helper", vec![Type::I64], Type::I64);
    m
}

#[test]
fn forward_calls_keep_sequential_and_parallel_identical() {
    let m = forward_call_module();
    let opts = CompileOptions::default();
    let seq = compile_x64(&m, &opts).unwrap();
    let seq_cp = compile_copy_patch(&m).unwrap();
    let seq_o0 = compile_baseline(&m, 0).unwrap();
    for threads in WORKERS {
        let par = compile_x64_parallel(&m, &opts, threads).unwrap();
        assert_identical(&seq.buf, &par.buf, "tpde forward call");
        let par = compile_copy_patch_parallel(&m, threads).unwrap();
        assert_identical(&seq_cp.buf, &par.buf, "copy-patch forward call");
        let par = compile_baseline_parallel(&m, 0, threads).unwrap();
        assert_identical(&seq_o0.buf, &par.buf, "baseline forward call");
    }
}

#[test]
fn parallel_output_executes_correctly() {
    let w = small(&spec_workloads()[6]);
    let module = build_workload(&w, IrStyle::O0);
    let compiled = compile_x64_parallel(&module, &CompileOptions::default(), 4).unwrap();
    let image = tpde_core::jit::link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
    let (ret, _) = tpde_x64emu::run_function(&image, "bench_main", &[w.input]).unwrap();
    assert_eq!(ret, expected_result(&w));
}

#[test]
fn worker_pool_reuse_across_modules_stays_identical() {
    let opts = CompileOptions::default();
    let mut pool = WorkerPool::new();
    // Compile several different modules through the same pool; reused worker
    // sessions must not leak state between modules.
    for w in spec_workloads().iter().take(4) {
        let w = small(w);
        for style in [IrStyle::O0, IrStyle::O1] {
            let module = build_workload(&w, style);
            let seq = compile_x64(&module, &opts).unwrap();
            let par = compile_with_pool(&module, tpde_enc::X64Target::new(), &opts, 3, &mut pool)
                .unwrap();
            let what = format!("pooled {} {:?}", w.name, style);
            assert_identical(&seq.buf, &par.buf, &what);
        }
    }
    assert!(pool.sessions() > 0, "sessions returned to the pool");
}

#[test]
fn worker_pool_serves_heterogeneous_targets_without_rebuild() {
    let opts = CompileOptions::default();
    let mut pool = WorkerPool::new();
    // One pool, alternating targets: prepare_session resets the
    // register file per compile, so sessions warmed by one target must
    // produce byte-identical output when reused for the other.
    for w in spec_workloads().iter().take(3) {
        let w = small(w);
        let module = build_workload(&w, IrStyle::O1);
        let seq_x64 = compile_x64(&module, &opts).unwrap();
        let seq_a64 = compile_a64(&module, &opts).unwrap();
        for _ in 0..2 {
            let par = compile_with_pool(&module, tpde_enc::X64Target::new(), &opts, 3, &mut pool)
                .unwrap();
            assert_identical(&seq_x64.buf, &par.buf, &format!("{} x64 pooled", w.name));
            let par = compile_with_pool(&module, tpde_enc::A64Target::new(), &opts, 3, &mut pool)
                .unwrap();
            assert_identical(&seq_a64.buf, &par.buf, &format!("{} a64 pooled", w.name));
        }
    }
    assert!(pool.sessions() > 0, "sessions returned to the pool");
}
