//! End-to-end correctness: every back-end must produce code that computes
//! the same checksums as the Rust reference implementation of the workloads.

use tpde_core::codegen::CompileOptions;
use tpde_core::jit::link_in_memory;
use tpde_llvm::fuzz::EXEC_KINDS;
use tpde_llvm::ir::{BinOp, FunctionBuilder, ICmp, Module, Type};
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle, Workload};
use tpde_llvm::{compile_a64, compile_baseline, compile_copy_patch, compile_x64};
use tpde_x64emu::run_function;

fn run_buf(buf: &tpde_core::codebuf::CodeBuffer, func: &str, args: &[u64]) -> u64 {
    let image = link_in_memory(buf, 0x40_0000, |_| None).unwrap();
    let (ret, _) = run_function(&image, func, args).expect("execution");
    ret
}

#[test]
fn simple_function_all_backends_agree() {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("calc", &[Type::I64, Type::I64], Type::I64);
    let sum = b.bin(BinOp::Add, Type::I64, b.arg(0), b.arg(1));
    let c = b.iconst(Type::I64, 10);
    let prod = b.bin(BinOp::Mul, Type::I64, sum, c);
    let cond = b.icmp(ICmp::Ult, Type::I64, prod, b.arg(0));
    let sel = b.select(Type::I64, cond, b.arg(0), prod);
    b.ret(Some(sel));
    m.add_function(b.build());

    let expected = (7u64 + 5) * 10; // 120; not < 7 so select picks prod
    let tpde = compile_x64(&m, &CompileOptions::default()).unwrap();
    assert_eq!(run_buf(&tpde.buf, "calc", &[7, 5]), expected);
    let cp = compile_copy_patch(&m).unwrap();
    assert_eq!(run_buf(&cp.buf, "calc", &[7, 5]), expected);
    let base = compile_baseline(&m, 0).unwrap();
    assert_eq!(run_buf(&base.buf, "calc", &[7, 5]), expected);
    let a64 = compile_a64(&m, &CompileOptions::default()).unwrap();
    assert!(a64.text_size() > 0);
}

/// A phi whose incoming values are stack-slot addresses: the edge moves
/// must compute `frame pointer + offset`, not move a constant.
#[test]
fn phi_of_stack_addresses_selects_the_right_slot() {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("pick", &[Type::I64], Type::I64);
    let (s1, s2) = (b.alloca(8, 8), b.alloca(8, 8));
    let (c41, c42) = (b.iconst(Type::I64, 41), b.iconst(Type::I64, 42));
    b.store(Type::I64, s1, 0, c41);
    b.store(Type::I64, s2, 0, c42);
    // A join before the branch empties the registers, so on neither edge
    // is a slot address still in one.
    let (mid, b1, b2, join) = (
        b.create_block(),
        b.create_block(),
        b.create_block(),
        b.create_block(),
    );
    b.cond_br(b.arg(0), mid, mid);
    b.switch_to(mid);
    b.cond_br(b.arg(0), b1, b2);
    b.switch_to(b1);
    b.br(join);
    b.switch_to(b2);
    b.br(join);
    b.switch_to(join);
    let p = b.phi(Type::Ptr);
    b.phi_add_incoming(p, b1, s1);
    b.phi_add_incoming(p, b2, s2);
    let v = b.load(Type::I64, p, 0);
    b.ret(Some(v));
    m.add_function(b.build());

    let opts = CompileOptions::default();
    for (arg, expected) in [(1, 41), (0, 42)] {
        let base = compile_baseline(&m, 0).unwrap();
        assert_eq!(run_buf(&base.buf, "pick", &[arg]), expected);
        let tpde = compile_x64(&m, &opts).unwrap();
        assert_eq!(run_buf(&tpde.buf, "pick", &[arg]), expected);
    }

    // AArch64 output is never executed: check that each incoming edge
    // computes its slot's address into the scratch register,
    // `sub x16, x29, #offset`, with a different offset per edge.
    let a64 = compile_a64(&m, &opts).unwrap();
    let offsets: Vec<u32> = a64
        .buf
        .text()
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .filter(|w| w & 0xffc0_03ff == 0xd100_03b0)
        .map(|w| (w >> 10) & 0xfff)
        .collect();
    assert_eq!(offsets.len(), 2, "one frame-address move per edge");
    assert_ne!(offsets[0], offsets[1]);
}

/// GEP immediates that do not fit in 32 bits: `slot + 2^31` (as an offset,
/// or as index 1 times scale 2^31) and then `- 2^31 + 8` is `slot + 8`,
/// and a value stored through that address loads back from `slot + 8`.
#[test]
fn gep_immediates_beyond_32_bits_are_not_truncated() {
    for by_scale in [false, true] {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Type::I64);
        let slot = b.alloca(16, 8);
        let zero = b.iconst(Type::I64, 0);
        b.store(Type::I64, slot, 8, zero);
        let far = if by_scale {
            b.gep(slot, Some(b.arg(1)), 0x8000_0000, 0)
        } else {
            b.gep(slot, None, 0, 0x8000_0000)
        };
        let back = b.gep(far, None, 0, -0x8000_0000 + 8);
        b.store(Type::I64, back, 0, b.arg(0));
        let v = b.load(Type::I64, slot, 8);
        b.ret(Some(v));
        m.add_function(b.build());

        let args = [42, 1];
        let base = compile_baseline(&m, 0).unwrap();
        assert_eq!(
            run_buf(&base.buf, "f", &args),
            42,
            "BaselineO0, by_scale={by_scale}"
        );
        let cp = compile_copy_patch(&m).unwrap();
        assert_eq!(
            run_buf(&cp.buf, "f", &args),
            42,
            "CopyPatch, by_scale={by_scale}"
        );
        let tpde = compile_x64(&m, &CompileOptions::default()).unwrap();
        assert_eq!(
            run_buf(&tpde.buf, "f", &args),
            42,
            "TpdeX64, by_scale={by_scale}"
        );
    }
}

/// A loop whose latch block is numbered before its header: the phi is used
/// in the latch and written by the back edge's move at the latch's end, so
/// it must stay assigned until there.
#[test]
fn loop_with_latch_numbered_before_header_terminates() {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("count", &[Type::I64], Type::I64);
    let (latch, header, exit) = (b.create_block(), b.create_block(), b.create_block());
    let (zero, one) = (b.iconst(Type::I64, 0), b.iconst(Type::I64, 1));
    let entry = b.current_block();
    b.br(header);
    b.switch_to(header);
    let i = b.phi(Type::I64);
    b.br(latch);
    b.switch_to(latch);
    let next = b.bin(BinOp::Add, Type::I64, i, one);
    let again = b.icmp(ICmp::Ult, Type::I64, next, b.arg(0));
    b.cond_br(again, header, exit);
    b.phi_add_incoming(i, entry, zero);
    b.phi_add_incoming(i, latch, next);
    b.switch_to(exit);
    b.ret(Some(next));
    m.add_function(b.build());

    let compiled = compile_x64(&m, &CompileOptions::default()).unwrap();
    let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
    let mut machine = tpde_x64emu::Machine::new();
    machine.max_insts = 10_000; // a miscompiled loop never exits
    machine.load_image(&image);
    let ret = machine.call(image.symbol_addr("count").unwrap(), &[10]);
    assert_eq!(ret.ok(), Some(10));
}

/// `f(n)`: a one-block loop whose phis `p` and `q` swap on the back edge
/// (`p <- q`, `q <- p`) while `acc = acc * 10 + p`, so `f(4)` = 1212; a
/// back edge that copies the phis one by one gives 1222.
#[test]
fn phis_that_swap_on_a_back_edge_swap_under_every_kind() {
    let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
    let entry = b.current_block();
    let (head, exit) = (b.create_block(), b.create_block());
    let (zero, one, two, ten) = (
        b.iconst(Type::I64, 0),
        b.iconst(Type::I64, 1),
        b.iconst(Type::I64, 2),
        b.iconst(Type::I64, 10),
    );
    b.br(head);
    b.switch_to(head);
    let (p, q, i, acc) = (
        b.phi(Type::I64),
        b.phi(Type::I64),
        b.phi(Type::I64),
        b.phi(Type::I64),
    );
    let scaled = b.bin(BinOp::Mul, Type::I64, acc, ten);
    let acc1 = b.bin(BinOp::Add, Type::I64, scaled, p);
    let i1 = b.bin(BinOp::Add, Type::I64, i, one);
    let more = b.icmp(ICmp::Ult, Type::I64, i1, b.arg(0));
    b.cond_br(more, head, exit);
    for (phi, init, next) in [(p, one, q), (q, two, p), (i, zero, i1), (acc, zero, acc1)] {
        b.phi_add_incoming(phi, entry, init);
        b.phi_add_incoming(phi, head, next);
    }
    b.switch_to(exit);
    b.ret(Some(acc1));
    let mut m = Module::new();
    m.add_function(b.build());
    for kind in EXEC_KINDS {
        let c = tpde_llvm::compile(&m, kind, &CompileOptions::default()).unwrap();
        assert_eq!(run_buf(&c.buf, "f", &[4]), 1212, "{kind:?}");
        assert_eq!(run_buf(&c.buf, "f", &[1]), 1, "{kind:?}");
    }
}

fn check_workload(w: &Workload, style: IrStyle) {
    let module = build_workload(w, style);
    let expected = expected_result(w);

    let tpde = compile_x64(&module, &CompileOptions::default()).unwrap();
    let got = run_buf(&tpde.buf, "bench_main", &[w.input]);
    assert_eq!(
        got, expected,
        "TPDE x86-64 wrong for {} ({:?}, input {})",
        w.name, style, w.input
    );

    let cp = compile_copy_patch(&module).unwrap();
    let got = run_buf(&cp.buf, "bench_main", &[w.input]);
    assert_eq!(
        got, expected,
        "copy-and-patch wrong for {} ({:?}, input {})",
        w.name, style, w.input
    );

    let base = compile_baseline(&module, 0).unwrap();
    let got = run_buf(&base.buf, "bench_main", &[w.input]);
    assert_eq!(
        got, expected,
        "baseline wrong for {} ({:?}, input {})",
        w.name, style, w.input
    );

    // AArch64: compile-only (no emulator or CPU here runs AArch64 code)
    let a64 = compile_a64(&module, &CompileOptions::default()).unwrap();
    assert!(a64.text_size() > 0, "empty AArch64 code for {}", w.name);
}

/// Edge-case iteration counts (zero and one included) for a single
/// function of the loop, branchy, memory and call-heavy kernels.
#[test]
fn workloads_are_correct_at_small_inputs() {
    for input in [0, 1, 2, 3, 10, 100] {
        for idx in [6, 0, 2, 3] {
            let w = Workload {
                input,
                funcs: 1,
                ..spec_workloads()[idx].clone()
            };
            check_workload(&w, IrStyle::O0);
            check_workload(&w, IrStyle::O1);
        }
    }
}

#[test]
fn workload_intloop_is_correct_in_both_styles() {
    let w = Workload {
        input: 2_000,
        ..spec_workloads()[6].clone()
    };
    check_workload(&w, IrStyle::O0);
    check_workload(&w, IrStyle::O1);
}

#[test]
fn workload_branchy_is_correct() {
    let w = Workload {
        input: 2_000,
        funcs: 4,
        ..spec_workloads()[0].clone()
    };
    check_workload(&w, IrStyle::O0);
    check_workload(&w, IrStyle::O1);
}

#[test]
fn workload_memory_is_correct() {
    let w = Workload {
        input: 2_000,
        funcs: 2,
        ..spec_workloads()[2].clone()
    };
    check_workload(&w, IrStyle::O0);
}

#[test]
fn workload_callheavy_is_correct() {
    let w = Workload {
        input: 2_000,
        funcs: 4,
        ..spec_workloads()[3].clone()
    };
    check_workload(&w, IrStyle::O0);
    check_workload(&w, IrStyle::O1);
}

#[test]
fn workload_fp_is_correct() {
    let w = Workload {
        input: 2_000,
        funcs: 2,
        ..spec_workloads()[7].clone()
    };
    check_workload(&w, IrStyle::O0);
}

#[test]
fn tpde_code_is_smaller_than_copy_patch() {
    let w = Workload {
        input: 100,
        funcs: 3,
        ..spec_workloads()[0].clone()
    };
    let module = build_workload(&w, IrStyle::O0);
    let tpde = compile_x64(&module, &CompileOptions::default()).unwrap();
    let cp = compile_copy_patch(&module).unwrap();
    assert!(
        tpde.text_size() < cp.buf.section_size(tpde_core::codebuf::SectionKind::Text),
        "TPDE code should be smaller than copy-and-patch code"
    );
}
