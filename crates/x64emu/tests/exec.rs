//! End-to-end tests: encode small functions with `tpde-enc`, link them with
//! the core JIT mapper and execute them in the emulator.

use tpde_core::codebuf::{CodeBuffer, SectionKind, SymbolBinding};
use tpde_core::jit::link_in_memory;
use tpde_enc::x64::{self, Alu, Cond, Gp, Mem, Shift, Xmm};
use tpde_x64emu::{run_function, Machine};

fn build_and_run(
    name: &str,
    args: &[u64],
    emit: impl FnOnce(&mut CodeBuffer),
) -> (u64, tpde_x64emu::EmuStats) {
    let mut buf = CodeBuffer::new();
    let sym = buf.declare_symbol(name, SymbolBinding::Global, true);
    let start = buf.text_offset();
    emit(&mut buf);
    buf.define_symbol(sym, SectionKind::Text, start, buf.text_offset() - start);
    buf.resolve_fixups().unwrap();
    let image = link_in_memory(&buf, 0x40_0000, |_| None).unwrap();
    run_function(&image, name, args).expect("execution")
}

#[test]
fn add_two_arguments() {
    let (ret, stats) = build_and_run("add2", &[40, 2], |b| {
        x64::mov_rr(b, 8, Gp::RAX, Gp::RDI);
        x64::alu_rr(b, Alu::Add, 8, Gp::RAX, Gp::RSI);
        x64::ret(b);
    });
    assert_eq!(ret, 42);
    assert_eq!(stats.insts, 3);
}

#[test]
fn lea_computes_scaled_index_addresses_at_both_widths() {
    // lea rax, [rdi + rsi*8 - 3]: all 64 bits, wrapping
    let (ret, _) = build_and_run("lea64", &[u64::MAX - 1, 2], |b| {
        x64::lea(b, 8, Gp::RAX, Mem::sib(Gp::RDI, Gp::RSI, 8, -3));
        x64::ret(b);
    });
    assert_eq!(ret, (u64::MAX - 1).wrapping_add(16).wrapping_sub(3));
    // lea eax, [rdi + rsi + 2]: the low 32 bits, zero-extended
    let (ret, _) = build_and_run("lea32", &[0xffff_ffff, 0x1_0000_0000], |b| {
        x64::mov_ri(b, 8, Gp::RAX, u64::MAX);
        x64::lea(b, 4, Gp::RAX, Mem::sib(Gp::RDI, Gp::RSI, 1, 2));
        x64::ret(b);
    });
    assert_eq!(ret, 1);
}

#[test]
fn loop_sums_first_n_integers() {
    // sum = 0; for (i = 0; i != n; i++) sum += i; return sum
    let (ret, stats) = build_and_run("sum", &[100], |b| {
        x64::mov_ri(b, 8, Gp::RAX, 0); // sum
        x64::mov_ri(b, 8, Gp::RCX, 0); // i
        let head = b.new_label();
        let exit = b.new_label();
        b.bind_label(head);
        x64::alu_rr(b, Alu::Cmp, 8, Gp::RCX, Gp::RDI);
        x64::jcc_label(b, Cond::E, exit);
        x64::alu_rr(b, Alu::Add, 8, Gp::RAX, Gp::RCX);
        x64::alu_ri(b, Alu::Add, 8, Gp::RCX, 1);
        x64::jmp_label(b, head);
        b.bind_label(exit);
        x64::ret(b);
    });
    assert_eq!(ret, 4950);
    assert!(stats.branches >= 100);
}

#[test]
fn memory_store_load_and_stack() {
    let (ret, stats) = build_and_run("mem", &[7], |b| {
        // prologue
        x64::push_r(b, Gp::RBP);
        x64::mov_rr(b, 8, Gp::RBP, Gp::RSP);
        x64::alu_ri(b, Alu::Sub, 8, Gp::RSP, 32);
        // [rbp-8] = rdi * 3
        x64::imul_rri(b, 8, Gp::RAX, Gp::RDI, 3);
        x64::mov_mr(b, 8, Mem::base_disp(Gp::RBP, -8), Gp::RAX);
        // rax = [rbp-8] + 1
        x64::mov_rm(b, 8, Gp::RAX, Mem::base_disp(Gp::RBP, -8));
        x64::alu_ri(b, Alu::Add, 8, Gp::RAX, 1);
        // epilogue
        x64::mov_rr(b, 8, Gp::RSP, Gp::RBP);
        x64::pop_r(b, Gp::RBP);
        x64::ret(b);
    });
    assert_eq!(ret, 22);
    assert!(stats.loads >= 1 && stats.stores >= 1);
}

#[test]
fn signed_division_and_remainder() {
    let (ret, _) = build_and_run("divmod", &[(-100i64) as u64, 7], |b| {
        x64::mov_rr(b, 8, Gp::RAX, Gp::RDI);
        x64::cqo(b, 8);
        x64::idiv(b, 8, Gp::RSI);
        // return quotient*1000 + |remainder|
        x64::imul_rri(b, 8, Gp::RAX, Gp::RAX, 1000);
        x64::mov_rr(b, 8, Gp::RCX, Gp::RDX);
        x64::neg(b, 8, Gp::RCX);
        x64::alu_rr(b, Alu::Add, 8, Gp::RAX, Gp::RCX);
        x64::ret(b);
    });
    // -100 / 7 = -14 rem -2  ->  -14*1000 + 2 = -13998
    assert_eq!(ret as i64, -13998);
}

#[test]
fn unsigned_comparison_and_setcc() {
    let (ret, _) = build_and_run("below", &[3, 9], |b| {
        x64::alu_rr(b, Alu::Cmp, 8, Gp::RDI, Gp::RSI);
        x64::setcc(b, Cond::B, Gp::RAX);
        x64::movzx_rr(b, Gp::RAX, Gp::RAX, 1);
        x64::ret(b);
    });
    assert_eq!(ret, 1);
}

#[test]
fn shifts_and_partial_sizes() {
    let (ret, _) = build_and_run("shift", &[0xff00, 4], |b| {
        x64::mov_rr(b, 8, Gp::RAX, Gp::RDI);
        x64::mov_rr(b, 8, Gp::RCX, Gp::RSI);
        x64::shift_cl(b, Shift::Shr, 8, Gp::RAX);
        x64::shift_ri(b, Shift::Shl, 8, Gp::RAX, 1);
        x64::ret(b);
    });
    assert_eq!(ret, 0x1fe0);
}

#[test]
fn floating_point_arithmetic() {
    // computes (a + b) * a / b with a=6.0, b=1.5 -> 30.0, returns as int
    let (ret, _) = build_and_run("fp", &[], |b| {
        x64::mov_ri(b, 8, Gp::RAX, 6.0f64.to_bits());
        x64::movq_xr(b, Xmm(0), Gp::RAX);
        x64::mov_ri(b, 8, Gp::RAX, 1.5f64.to_bits());
        x64::movq_xr(b, Xmm(1), Gp::RAX);
        x64::fp_mov_rr(b, 8, Xmm(2), Xmm(0));
        x64::fp_arith(b, 8, 0x58, Xmm(2), Xmm(1)); // add -> 7.5
        x64::fp_arith(b, 8, 0x59, Xmm(2), Xmm(0)); // mul -> 45
        x64::fp_arith(b, 8, 0x5e, Xmm(2), Xmm(1)); // div -> 30
        x64::cvt_fp_to_int(b, 8, 8, Gp::RAX, Xmm(2));
        x64::ret(b);
    });
    assert_eq!(ret, 30);
}

#[test]
fn fp_compare_drives_branch() {
    let (ret, _) = build_and_run("fcmp", &[], |b| {
        x64::mov_ri(b, 8, Gp::RAX, 2.5f64.to_bits());
        x64::movq_xr(b, Xmm(0), Gp::RAX);
        x64::mov_ri(b, 8, Gp::RAX, 7.0f64.to_bits());
        x64::movq_xr(b, Xmm(1), Gp::RAX);
        x64::fp_ucomis(b, 8, Xmm(0), Xmm(1));
        x64::setcc(b, Cond::B, Gp::RAX); // 2.5 < 7.0 -> 1
        x64::movzx_rr(b, Gp::RAX, Gp::RAX, 1);
        x64::ret(b);
    });
    assert_eq!(ret, 1);
}

#[test]
fn call_between_generated_functions() {
    let mut buf = CodeBuffer::new();
    let callee = buf.declare_symbol("callee", SymbolBinding::Global, true);
    let caller = buf.declare_symbol("caller", SymbolBinding::Global, true);
    // callee: return rdi * 2
    let c0 = buf.text_offset();
    x64::mov_rr(&mut buf, 8, Gp::RAX, Gp::RDI);
    x64::alu_rr(&mut buf, Alu::Add, 8, Gp::RAX, Gp::RDI);
    x64::ret(&mut buf);
    buf.define_symbol(callee, SectionKind::Text, c0, buf.text_offset() - c0);
    // caller: return callee(rdi) + 1
    let c1 = buf.text_offset();
    buf.define_symbol(caller, SectionKind::Text, c1, 0);
    x64::push_r(&mut buf, Gp::RBP);
    x64::call_sym(&mut buf, callee);
    x64::alu_ri(&mut buf, Alu::Add, 8, Gp::RAX, 1);
    x64::pop_r(&mut buf, Gp::RBP);
    x64::ret(&mut buf);
    buf.resolve_fixups().unwrap();
    let image = link_in_memory(&buf, 0x40_0000, |_| None).unwrap();
    let (ret, stats) = run_function(&image, "caller", &[20]).unwrap();
    assert_eq!(ret, 41);
    assert!(stats.calls >= 1);
}

#[test]
fn external_memcpy_hostcall() {
    let mut buf = CodeBuffer::new();
    let memcpy = buf.declare_symbol("memcpy", SymbolBinding::Global, true);
    let f = buf.declare_symbol("copy8", SymbolBinding::Global, true);
    let c0 = buf.text_offset();
    buf.define_symbol(f, SectionKind::Text, c0, 0);
    // memcpy(rdi, rsi, 8); return *(u64*)rdi
    x64::push_r(&mut buf, Gp::RBP);
    x64::mov_rr(&mut buf, 8, Gp::RBP, Gp::RDI);
    x64::mov_ri(&mut buf, 8, Gp::RDX, 8);
    x64::call_sym(&mut buf, memcpy);
    x64::mov_rm(&mut buf, 8, Gp::RAX, Mem::base(Gp::RBP));
    x64::pop_r(&mut buf, Gp::RBP);
    x64::ret(&mut buf);
    buf.resolve_fixups().unwrap();
    let image = link_in_memory(&buf, 0x40_0000, |_| None).unwrap();

    let mut m = Machine::new();
    m.load_image(&image);
    // register default host calls
    // (run_function does this internally; do it manually here to pre-fill memory)
    let src = 0x5000_0000u64;
    let dst = 0x5100_0000u64;
    m.mem.write(src, 8, 0xdeadbeefcafebabe);
    // use the public helper for registration by re-creating through run_function-like path
    // simpler: run with run_function after writing memory is not possible, so register here
    tpde_x64emu_test_register(&mut m, &image);
    let addr = image.symbol_addr("copy8").unwrap();
    let ret = m.call(addr, &[dst, src]).unwrap();
    assert_eq!(ret, 0xdeadbeefcafebabe);
}

// Small shim because the hostcall registration helper is crate-private; the
// public `run_function` covers the common path, tests that need memory
// pre-population register the same functions through the public API surface.
fn tpde_x64emu_test_register(m: &mut Machine, image: &tpde_core::jit::JitImage) {
    use std::rc::Rc;
    if let Some(addr) = image.externals.get("memcpy") {
        m.register_host_fn(
            *addr,
            Rc::new(|m: &mut Machine| {
                let (dst, src, n) = (m.arg(0), m.arg(1), m.arg(2));
                let bytes = m.mem.read_bytes(src, n as usize);
                m.mem.write_bytes(dst, &bytes);
                m.set_ret(dst);
                Ok(())
            }),
        );
    }
}

#[test]
fn stats_track_spill_like_memory_traffic() {
    // identical computation, once in registers, once through the stack: the
    // stack version must report more loads/stores and more cycles.
    let (r1, s1) = build_and_run("regs", &[5, 6], |b| {
        x64::mov_rr(b, 8, Gp::RAX, Gp::RDI);
        x64::alu_rr(b, Alu::Add, 8, Gp::RAX, Gp::RSI);
        x64::ret(b);
    });
    let (r2, s2) = build_and_run("stack", &[5, 6], |b| {
        x64::push_r(b, Gp::RBP);
        x64::mov_rr(b, 8, Gp::RBP, Gp::RSP);
        x64::alu_ri(b, Alu::Sub, 8, Gp::RSP, 16);
        x64::mov_mr(b, 8, Mem::base_disp(Gp::RBP, -8), Gp::RDI);
        x64::mov_mr(b, 8, Mem::base_disp(Gp::RBP, -16), Gp::RSI);
        x64::mov_rm(b, 8, Gp::RAX, Mem::base_disp(Gp::RBP, -8));
        x64::alu_rm(b, Alu::Add, 8, Gp::RAX, Mem::base_disp(Gp::RBP, -16));
        x64::mov_rr(b, 8, Gp::RSP, Gp::RBP);
        x64::pop_r(b, Gp::RBP);
        x64::ret(b);
    });
    assert_eq!(r1, 11);
    assert_eq!(r2, 11);
    assert!(s2.cycles > s1.cycles);
    assert!(s2.loads > s1.loads);
    assert!(s2.stores > s1.stores);
}

/// Reference semantics for one ALU operation.
type AluRef = fn(u64, u64) -> u64;

#[test]
fn alu_rr_round_trips_through_decoder_for_all_encodings() {
    // Every (operation, size, register pair) combination must decode and
    // execute to the architectural result, including extended registers
    // (REX.R/REX.B) and 8-bit spl/sil access (forced REX).
    let cases: [(Alu, AluRef); 5] = [
        (Alu::Add, |a, b| a.wrapping_add(b)),
        (Alu::Sub, |a, b| a.wrapping_sub(b)),
        (Alu::And, |a, b| a & b),
        (Alu::Or, |a, b| a | b),
        (Alu::Xor, |a, b| a ^ b),
    ];
    let regs = [Gp::RAX, Gp::RSI, Gp::R8, Gp::R15];
    let (a, b) = (0x1234_5678_9abc_def0u64, 0x0fed_cba9_8765_4321u64);
    for (op, reference) in cases {
        for size in [1u32, 2, 4, 8] {
            for dst in regs {
                for src in regs {
                    if dst == src {
                        continue;
                    }
                    let (ret, _) = build_and_run("rt", &[a, b], |buf| {
                        // src first: when dst is RSI the second mov clobbers it
                        x64::mov_rr(buf, 8, src, Gp::RSI);
                        x64::mov_rr(buf, 8, dst, Gp::RDI);
                        x64::alu_rr(buf, op, size, dst, src);
                        x64::mov_rr(buf, 8, Gp::RAX, dst);
                        x64::ret(buf);
                    });
                    let mask = match size {
                        1 => 0xff,
                        2 => 0xffff,
                        4 => 0xffff_ffff,
                        _ => u64::MAX,
                    };
                    // sub-64-bit ALU ops leave the upper destination bits
                    // unchanged, except 32-bit ops which zero-extend
                    let full = reference(a, b);
                    let expected = match size {
                        4 => full & mask,
                        8 => full,
                        _ => (a & !mask) | (full & mask),
                    };
                    assert_eq!(
                        ret, expected,
                        "{op:?} size {size} {dst:?},{src:?} round-trip mismatch"
                    );
                }
            }
        }
    }
}
