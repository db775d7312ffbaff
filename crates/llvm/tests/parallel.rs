//! Determinism suite for the function-sharded parallel pipeline: for every
//! backend kind, workload kind, both IR styles and 1/2/4/8 workers, the
//! parallel output — text bytes, symbol table, relocations and the
//! serialized ELF object — must be byte-identical to sequential
//! compilation, and the generated code must still execute correctly.

use tpde_core::codebuf::assert_identical;
use tpde_core::codegen::CompileOptions;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_llvm::fuzz::ALL_KINDS;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile, compile_parallel, compile_x64_parallel, ServiceBackendKind};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn small(w: &Workload) -> Workload {
    Workload {
        input: w.input.min(500),
        ..w.clone()
    }
}

/// Checks every workload, both IR styles and every worker count for each
/// of `kinds`: `compile_parallel` must match `compile` byte for byte.
fn assert_parallel_identical(kinds: &[ServiceBackendKind]) {
    let opts = CompileOptions::default();
    for w in spec_workloads() {
        let w = small(&w);
        for style in [IrStyle::O0, IrStyle::O1] {
            let module = build_workload(&w, style);
            for &kind in kinds {
                let machine = if kind == ServiceBackendKind::TpdeA64 {
                    ElfMachine::Aarch64
                } else {
                    ElfMachine::X86_64
                };
                let seq = compile(&module, kind, &opts).expect("sequential compile");
                let seq_elf = write_elf_object(&seq.buf, machine).unwrap();
                for threads in WORKERS {
                    let what = format!("{} {style:?} {kind:?} threads={threads}", w.name);
                    let par = compile_parallel(&module, kind, &opts, threads).expect(&what);
                    assert_identical(&seq.buf, &par.buf, &what);
                    // The serialized relocatable object is byte-identical too.
                    let par_elf = write_elf_object(&par.buf, machine).unwrap();
                    assert_eq!(seq_elf, par_elf, "{what}: ELF object differs");
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
}

#[test]
fn tpde_x64_parallel_is_byte_identical_for_all_workloads() {
    assert_parallel_identical(&[ServiceBackendKind::TpdeX64]);
}

#[test]
fn tpde_a64_parallel_is_byte_identical() {
    assert_parallel_identical(&[ServiceBackendKind::TpdeA64]);
}

#[test]
fn baseline_backends_parallel_are_byte_identical() {
    assert_parallel_identical(&[
        ServiceBackendKind::BaselineO0,
        ServiceBackendKind::CopyPatch,
    ]);
}

/// The three tests above together cover every kind the crate compiles.
#[test]
fn parallel_tests_cover_every_kind() {
    let covered = [
        ServiceBackendKind::TpdeX64,
        ServiceBackendKind::TpdeA64,
        ServiceBackendKind::BaselineO0,
        ServiceBackendKind::CopyPatch,
    ];
    for kind in ALL_KINDS {
        assert!(
            covered.contains(&kind),
            "{kind:?} has no parallel determinism test"
        );
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
    for kind in ALL_KINDS {
        let seq = compile(&m, kind, &opts).unwrap();
        for threads in WORKERS {
            let par = compile_parallel(&m, kind, &opts, threads).unwrap();
            assert_identical(&seq.buf, &par.buf, &format!("{kind:?} forward call"));
        }
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
