//! SPEC-like synthetic workload generator.
//!
//! The paper evaluates on SPECint 2017 compiled by Clang at `-O0` and `-O1`.
//! We cannot redistribute SPEC, so this module generates nine synthetic
//! modules named after the SPEC benchmarks whose *structure* mirrors the
//! relevant characteristics: loop-heavy integer code, branchy code,
//! pointer-chasing/memory-bound code, call-heavy code and floating-point
//! kernels. Every module exposes a `bench_main(n)` entry point that returns
//! a checksum so all back-ends can be validated against the Rust reference
//! implementation in [`expected_result`].
//!
//! Each workload can be generated in two styles:
//!
//! * **O0 style** — local variables live in stack slots (`alloca`), values
//!   are loaded/stored around every operation and there are almost no phis;
//!   this mirrors Clang `-O0` output.
//! * **O1 style** — values are kept in SSA form with phis for loop-carried
//!   variables, mirroring optimized IR.

use crate::ir::{BinOp, Block, FBinOp, FunctionBuilder, ICmp, Module, ShiftKind, Type};

/// IR style, mirroring the paper's unoptimized/optimized input IR.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IrStyle {
    /// Stack-allocated locals, very few phis (Clang -O0-like).
    O0,
    /// SSA form with phis (optimized, -O1-like).
    O1,
}

/// Description of one workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// SPEC-like benchmark name (e.g. `600.perl`).
    pub name: &'static str,
    /// Kernel family used for generation.
    pub kind: WorkloadKind,
    /// Number of cloned "hot" functions (controls module size).
    pub funcs: u32,
    /// Input parameter passed to `bench_main`.
    pub input: u64,
}

/// The kernel families the workloads are drawn from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Loop-heavy integer arithmetic (hashing / mixing).
    IntLoop,
    /// Branch-heavy state machine.
    Branchy,
    /// Array/pointer memory traffic.
    Memory,
    /// Many small functions calling each other.
    CallHeavy,
    /// Floating-point stencil/reduction kernel.
    FpKernel,
}

/// The nine SPECint-2017-like workloads used by the tests and `benchmark/`.
pub fn spec_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "600.perl",
            kind: WorkloadKind::Branchy,
            funcs: 14,
            input: 40_000,
        },
        Workload {
            name: "602.gcc",
            kind: WorkloadKind::Branchy,
            funcs: 22,
            input: 60_000,
        },
        Workload {
            name: "605.mcf",
            kind: WorkloadKind::Memory,
            funcs: 8,
            input: 30_000,
        },
        Workload {
            name: "620.omnetpp",
            kind: WorkloadKind::CallHeavy,
            funcs: 18,
            input: 25_000,
        },
        Workload {
            name: "623.xalanc",
            kind: WorkloadKind::CallHeavy,
            funcs: 24,
            input: 25_000,
        },
        Workload {
            name: "625.x264",
            kind: WorkloadKind::IntLoop,
            funcs: 12,
            input: 50_000,
        },
        Workload {
            name: "631.deepsjeng",
            kind: WorkloadKind::IntLoop,
            funcs: 10,
            input: 50_000,
        },
        Workload {
            name: "641.leela",
            kind: WorkloadKind::FpKernel,
            funcs: 10,
            input: 20_000,
        },
        Workload {
            name: "657.xz",
            kind: WorkloadKind::Memory,
            funcs: 9,
            input: 40_000,
        },
    ]
}

/// Builds the module for a workload in the given IR style.
pub fn build_workload(w: &Workload, style: IrStyle) -> Module {
    let mut m = Module::new();
    let mut kernel_ids = Vec::new();
    for i in 0..w.funcs {
        let name = format!("kernel_{}_{i}", kind_name(w.kind));
        let f = match (w.kind, style) {
            (WorkloadKind::IntLoop, IrStyle::O0) => int_loop_o0(&name, i),
            (WorkloadKind::IntLoop, IrStyle::O1) => int_loop_o1(&name, i),
            (WorkloadKind::Branchy, IrStyle::O0) => branchy_o0(&name, i),
            (WorkloadKind::Branchy, IrStyle::O1) => branchy_o1(&name, i),
            (WorkloadKind::Memory, _) => memory_kernel(&name, i, style),
            (WorkloadKind::CallHeavy, _) => int_loop_small(&name, i, style),
            (WorkloadKind::FpKernel, _) => fp_kernel(&name, i, style),
        };
        kernel_ids.push(m.add_function(f));
    }
    // bench_main(n): calls every kernel and mixes the results.
    let mut b = FunctionBuilder::new("bench_main", &[Type::I64], Type::I64);
    let mut acc = b.iconst(Type::I64, 0);
    for (i, k) in kernel_ids.iter().enumerate() {
        let arg = if matches!(w.kind, WorkloadKind::FpKernel) {
            // FP kernels take the iteration count scaled down
            b.arg(0)
        } else {
            let c = b.iconst(Type::I64, i as i64 + 1);
            b.bin(BinOp::Add, Type::I64, b.arg(0), c)
        };
        let r = b.call(*k, Type::I64, vec![arg]);
        let mixed = b.bin(BinOp::Xor, Type::I64, acc, r);
        let c3 = b.iconst(Type::I64, 3);
        let rot = b.shift(ShiftKind::Shl, Type::I64, mixed, c3);
        let __c1 = b.iconst(Type::I64, 61);
        let hi = b.shift(ShiftKind::LShr, Type::I64, mixed, __c1);
        acc = b.bin(BinOp::Or, Type::I64, rot, hi);
    }
    b.ret(Some(acc));
    m.add_function(b.build());
    m
}

fn kind_name(k: WorkloadKind) -> &'static str {
    match k {
        WorkloadKind::IntLoop => "intloop",
        WorkloadKind::Branchy => "branchy",
        WorkloadKind::Memory => "memory",
        WorkloadKind::CallHeavy => "call",
        WorkloadKind::FpKernel => "fp",
    }
}

// ---- reference implementations (ground truth) ---------------------------------

fn ref_int_loop(seed: u32, n: u64) -> u64 {
    let mut h: u64 = 0x9e37_79b9 ^ seed as u64;
    let mut i: u64 = 0;
    while i != n {
        h = h.wrapping_add(i);
        h ^= h.wrapping_mul(2654435761) >> 13;
        h = h.wrapping_add(h << 7);
        i += 1;
    }
    h
}

fn ref_int_loop_small(seed: u32, n: u64) -> u64 {
    let mut h: u64 = seed as u64 + 1;
    let mut i: u64 = 0;
    while i != n % 1024 {
        h = h.wrapping_mul(31).wrapping_add(i ^ (seed as u64));
        i += 1;
    }
    h
}

fn ref_branchy(seed: u32, n: u64) -> u64 {
    let mut state: u64 = seed as u64 + 1;
    let mut acc: u64 = 0;
    let mut i: u64 = 0;
    while i != n {
        let sel = state % 5;
        if sel == 0 {
            acc = acc.wrapping_add(state >> 3);
        } else if sel == 1 {
            acc ^= state.wrapping_mul(7);
        } else if sel == 2 {
            acc = acc.wrapping_sub(i);
        } else if sel == 3 {
            acc = acc.wrapping_add(i.wrapping_mul(state & 0xff));
        } else {
            acc = acc.rotate_left(1);
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        i += 1;
    }
    acc
}

fn ref_memory(seed: u32, n: u64) -> u64 {
    const LEN: usize = 4096;
    let mut arr = [0u64; LEN];
    for (i, v) in arr.iter_mut().enumerate() {
        *v = (i as u64).wrapping_mul(seed as u64 + 13) & 0xffff;
    }
    let mut acc: u64 = 0;
    let mut idx: u64 = seed as u64 % LEN as u64;
    let mut i = 0u64;
    while i != n {
        let v = arr[idx as usize];
        acc = acc.wrapping_add(v ^ i);
        arr[(i % LEN as u64) as usize] = acc & 0xffff;
        idx = (idx + v + 1) % LEN as u64;
        i += 1;
    }
    acc
}

fn ref_fp(seed: u32, n: u64) -> u64 {
    let mut x = 1.0f64 + seed as f64 * 0.25;
    let mut sum = 0.0f64;
    let mut i = 0u64;
    while i != n {
        x = x * 1.000001 + 0.5;
        let y = x / 3.0 - (i as f64) * 0.125;
        sum += y * y * 0.001;
        if sum > 1.0e12 {
            sum *= 0.5;
        }
        i += 1;
    }
    sum as u64
}

/// Rust reference value of `bench_main(input)` for a workload; used to check
/// that every back-end generates correct code.
pub fn expected_result(w: &Workload) -> u64 {
    let mut acc: u64 = 0;
    for i in 0..w.funcs {
        let r = match w.kind {
            WorkloadKind::IntLoop => ref_int_loop(i, w.input + i as u64 + 1),
            WorkloadKind::Branchy => ref_branchy(i, w.input + i as u64 + 1),
            WorkloadKind::Memory => ref_memory(i, w.input + i as u64 + 1),
            WorkloadKind::CallHeavy => ref_int_loop_small(i, w.input + i as u64 + 1),
            WorkloadKind::FpKernel => ref_fp(i, w.input),
        };
        let mixed = acc ^ r;
        acc = mixed.rotate_left(3);
    }
    acc
}

// ---- IR kernels -------------------------------------------------------------

/// O1-style integer hash loop with a phi-carried accumulator.
fn int_loop_o1(name: &str, seed: u32) -> crate::ir::Function {
    let mut b = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let entry = b.current_block();
    let head = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    let init = b.iconst(Type::I64, 0x9e37_79b9 ^ seed as i64);
    let zero = b.iconst(Type::I64, 0);
    b.br(head);
    b.switch_to(head);
    let h = b.phi(Type::I64);
    let i = b.phi(Type::I64);
    let done = b.icmp(ICmp::Eq, Type::I64, i, b.arg(0));
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let h1 = b.bin(BinOp::Add, Type::I64, h, i);
    let c = b.iconst(Type::I64, 2654435761);
    let m = b.bin(BinOp::Mul, Type::I64, h1, c);
    let __c2 = b.iconst(Type::I64, 13);
    let s = b.shift(ShiftKind::LShr, Type::I64, m, __c2);
    let h2 = b.bin(BinOp::Xor, Type::I64, h1, s);
    let __c3 = b.iconst(Type::I64, 7);
    let sh = b.shift(ShiftKind::Shl, Type::I64, h2, __c3);
    let h3 = b.bin(BinOp::Add, Type::I64, h2, sh);
    let one = b.iconst(Type::I64, 1);
    let i1 = b.bin(BinOp::Add, Type::I64, i, one);
    b.br(head);
    let body_end = b.current_block();
    b.phi_add_incoming(h, entry, init);
    b.phi_add_incoming(h, body_end, h3);
    b.phi_add_incoming(i, entry, zero);
    b.phi_add_incoming(i, body_end, i1);
    b.switch_to(exit);
    b.ret(Some(h));
    b.build()
}

/// O0-style version: `h` and `i` live in stack slots.
fn int_loop_o0(name: &str, seed: u32) -> crate::ir::Function {
    let mut b = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let h_slot = b.alloca(8, 8);
    let i_slot = b.alloca(8, 8);
    let head = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    let init = b.iconst(Type::I64, 0x9e37_79b9 ^ seed as i64);
    let zero = b.iconst(Type::I64, 0);
    b.store(Type::I64, h_slot, 0, init);
    b.store(Type::I64, i_slot, 0, zero);
    b.br(head);
    b.switch_to(head);
    let i = b.load(Type::I64, i_slot, 0);
    let done = b.icmp(ICmp::Eq, Type::I64, i, b.arg(0));
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let h = b.load(Type::I64, h_slot, 0);
    let i2 = b.load(Type::I64, i_slot, 0);
    let h1 = b.bin(BinOp::Add, Type::I64, h, i2);
    let c = b.iconst(Type::I64, 2654435761);
    let m = b.bin(BinOp::Mul, Type::I64, h1, c);
    let __c4 = b.iconst(Type::I64, 13);
    let s = b.shift(ShiftKind::LShr, Type::I64, m, __c4);
    let h2 = b.bin(BinOp::Xor, Type::I64, h1, s);
    let __c5 = b.iconst(Type::I64, 7);
    let sh = b.shift(ShiftKind::Shl, Type::I64, h2, __c5);
    let h3 = b.bin(BinOp::Add, Type::I64, h2, sh);
    b.store(Type::I64, h_slot, 0, h3);
    let one = b.iconst(Type::I64, 1);
    let i3 = b.bin(BinOp::Add, Type::I64, i2, one);
    b.store(Type::I64, i_slot, 0, i3);
    b.br(head);
    b.switch_to(exit);
    let hr = b.load(Type::I64, h_slot, 0);
    b.ret(Some(hr));
    b.build()
}

/// Small hash loop used by the call-heavy workloads.
fn int_loop_small(name: &str, seed: u32, style: IrStyle) -> crate::ir::Function {
    let mut b = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let n_mod = {
        let c = b.iconst(Type::I64, 1024);
        b.div(false, true, Type::I64, b.arg(0), c)
    };
    match style {
        IrStyle::O1 => {
            let entry = b.current_block();
            let head = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            let one = b.iconst(Type::I64, 1);
            let __c6 = b.iconst(Type::I64, seed as i64);
            let init = b.bin(BinOp::Add, Type::I64, __c6, one);
            let zero = b.iconst(Type::I64, 0);
            b.br(head);
            b.switch_to(head);
            let h = b.phi(Type::I64);
            let i = b.phi(Type::I64);
            let done = b.icmp(ICmp::Eq, Type::I64, i, n_mod);
            b.cond_br(done, exit, body);
            b.switch_to(body);
            let c31 = b.iconst(Type::I64, 31);
            let hm = b.bin(BinOp::Mul, Type::I64, h, c31);
            let seedc = b.iconst(Type::I64, seed as i64);
            let ix = b.bin(BinOp::Xor, Type::I64, i, seedc);
            let h1 = b.bin(BinOp::Add, Type::I64, hm, ix);
            let i1 = b.bin(BinOp::Add, Type::I64, i, one);
            b.br(head);
            let bend = b.current_block();
            b.phi_add_incoming(h, entry, init);
            b.phi_add_incoming(h, bend, h1);
            b.phi_add_incoming(i, entry, zero);
            b.phi_add_incoming(i, bend, i1);
            b.switch_to(exit);
            b.ret(Some(h));
        }
        IrStyle::O0 => {
            let h_slot = b.alloca(8, 8);
            let i_slot = b.alloca(8, 8);
            let one = b.iconst(Type::I64, 1);
            let __c7 = b.iconst(Type::I64, seed as i64);
            let init = b.bin(BinOp::Add, Type::I64, __c7, one);
            b.store(Type::I64, h_slot, 0, init);
            let __c8 = b.iconst(Type::I64, 0);
            b.store(Type::I64, i_slot, 0, __c8);
            let head = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            b.br(head);
            b.switch_to(head);
            let i = b.load(Type::I64, i_slot, 0);
            let done = b.icmp(ICmp::Eq, Type::I64, i, n_mod);
            b.cond_br(done, exit, body);
            b.switch_to(body);
            let h = b.load(Type::I64, h_slot, 0);
            let i2 = b.load(Type::I64, i_slot, 0);
            let c31 = b.iconst(Type::I64, 31);
            let hm = b.bin(BinOp::Mul, Type::I64, h, c31);
            let seedc = b.iconst(Type::I64, seed as i64);
            let ix = b.bin(BinOp::Xor, Type::I64, i2, seedc);
            let h1 = b.bin(BinOp::Add, Type::I64, hm, ix);
            b.store(Type::I64, h_slot, 0, h1);
            let i3 = b.bin(BinOp::Add, Type::I64, i2, one);
            b.store(Type::I64, i_slot, 0, i3);
            b.br(head);
            b.switch_to(exit);
            let hr = b.load(Type::I64, h_slot, 0);
            b.ret(Some(hr));
        }
    }
    b.build()
}

/// Branch-heavy LCG-driven state machine (perl/gcc-like control flow).
fn branchy_o1(name: &str, seed: u32) -> crate::ir::Function {
    branchy_impl(name, seed, IrStyle::O1)
}

fn branchy_o0(name: &str, seed: u32) -> crate::ir::Function {
    branchy_impl(name, seed, IrStyle::O0)
}

fn branchy_impl(name: &str, seed: u32, style: IrStyle) -> crate::ir::Function {
    let mut b = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    // locals: state, acc, i  (slots in O0, phis in O1)
    let use_slots = style == IrStyle::O0;
    let state_slot = if use_slots {
        Some(b.alloca(8, 8))
    } else {
        None
    };
    let acc_slot = if use_slots {
        Some(b.alloca(8, 8))
    } else {
        None
    };
    let i_slot = if use_slots {
        Some(b.alloca(8, 8))
    } else {
        None
    };
    let entry = b.current_block();
    let head = b.create_block();
    let dispatch: Vec<Block> = (0..5).map(|_| b.create_block()).collect();
    let join = b.create_block();
    let exit = b.create_block();

    let one = b.iconst(Type::I64, 1);
    let __c9 = b.iconst(Type::I64, seed as i64);
    let init_state = b.bin(BinOp::Add, Type::I64, __c9, one);
    let zero = b.iconst(Type::I64, 0);
    if use_slots {
        b.store(Type::I64, state_slot.unwrap(), 0, init_state);
        b.store(Type::I64, acc_slot.unwrap(), 0, zero);
        b.store(Type::I64, i_slot.unwrap(), 0, zero);
    }
    b.br(head);

    b.switch_to(head);
    let (state, acc, i) = if use_slots {
        (
            b.load(Type::I64, state_slot.unwrap(), 0),
            b.load(Type::I64, acc_slot.unwrap(), 0),
            b.load(Type::I64, i_slot.unwrap(), 0),
        )
    } else {
        (b.phi(Type::I64), b.phi(Type::I64), b.phi(Type::I64))
    };
    let done = b.icmp(ICmp::Eq, Type::I64, i, b.arg(0));
    let sel_block = b.create_block();
    b.cond_br(done, exit, sel_block);
    b.switch_to(sel_block);
    let five = b.iconst(Type::I64, 5);
    let sel = b.div(false, true, Type::I64, state, five);
    // chain of compares (like a switch lowered to branches)
    let mut cur = b.current_block();
    for (k, target) in dispatch.iter().enumerate() {
        b.switch_to(cur);
        let kc = b.iconst(Type::I64, k as i64);
        let is_k = b.icmp(ICmp::Eq, Type::I64, sel, kc);
        if k + 1 < dispatch.len() {
            let next = b.create_block();
            b.cond_br(is_k, *target, next);
            cur = next;
        } else {
            b.cond_br(is_k, *target, dispatch[4]);
        }
    }
    // dispatch targets compute the new acc
    let mut acc_variants = Vec::new();
    for (k, blk) in dispatch.iter().enumerate() {
        b.switch_to(*blk);
        let new_acc = match k {
            0 => {
                let __c10 = b.iconst(Type::I64, 3);
                let s3 = b.shift(ShiftKind::LShr, Type::I64, state, __c10);
                b.bin(BinOp::Add, Type::I64, acc, s3)
            }
            1 => {
                let __c11 = b.iconst(Type::I64, 7);
                let s7 = b.bin(BinOp::Mul, Type::I64, state, __c11);
                b.bin(BinOp::Xor, Type::I64, acc, s7)
            }
            2 => b.bin(BinOp::Sub, Type::I64, acc, i),
            3 => {
                let __c12 = b.iconst(Type::I64, 0xff);
                let masked = b.bin(BinOp::And, Type::I64, state, __c12);
                let prod = b.bin(BinOp::Mul, Type::I64, i, masked);
                b.bin(BinOp::Add, Type::I64, acc, prod)
            }
            _ => {
                let __c13 = b.iconst(Type::I64, 63);
                let hi = b.shift(ShiftKind::LShr, Type::I64, acc, __c13);
                let __c14 = b.iconst(Type::I64, 1);
                let lo = b.shift(ShiftKind::Shl, Type::I64, acc, __c14);
                b.bin(BinOp::Or, Type::I64, lo, hi)
            }
        };
        acc_variants.push((b.current_block(), new_acc));
        b.br(join);
    }
    b.switch_to(join);
    let acc_next = if use_slots {
        // in O0 style every variant stored to the slot; emulate by a phi-free
        // merge: store in each dispatch block instead
        let merged = b.phi(Type::I64);
        for (blk, v) in &acc_variants {
            b.phi_add_incoming(merged, *blk, *v);
        }
        merged
    } else {
        let merged = b.phi(Type::I64);
        for (blk, v) in &acc_variants {
            b.phi_add_incoming(merged, *blk, *v);
        }
        merged
    };
    let mul = b.iconst(Type::I64, 6364136223846793005);
    let inc = b.iconst(Type::I64, 1442695040888963407);
    let sm = b.bin(BinOp::Mul, Type::I64, state, mul);
    let state_next = b.bin(BinOp::Add, Type::I64, sm, inc);
    let i_next = b.bin(BinOp::Add, Type::I64, i, one);
    if use_slots {
        b.store(Type::I64, state_slot.unwrap(), 0, state_next);
        b.store(Type::I64, acc_slot.unwrap(), 0, acc_next);
        b.store(Type::I64, i_slot.unwrap(), 0, i_next);
    }
    b.br(head);
    let join_end = b.current_block();
    if !use_slots {
        b.phi_add_incoming(state, entry, init_state);
        b.phi_add_incoming(state, join_end, state_next);
        b.phi_add_incoming(acc, entry, zero);
        b.phi_add_incoming(acc, join_end, acc_next);
        b.phi_add_incoming(i, entry, zero);
        b.phi_add_incoming(i, join_end, i_next);
    }
    b.switch_to(exit);
    let result = if use_slots {
        b.load(Type::I64, acc_slot.unwrap(), 0)
    } else {
        acc
    };
    b.ret(Some(result));
    b.build()
}

/// Array walking kernel with data-dependent indices (mcf/xz-like).
fn memory_kernel(name: &str, seed: u32, style: IrStyle) -> crate::ir::Function {
    let _ = style; // the kernel is memory-bound either way; locals are slots
    let mut b = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    const LEN: i64 = 4096;
    let arr = b.alloca((LEN * 8) as u32, 8);
    let acc_slot = b.alloca(8, 8);
    let idx_slot = b.alloca(8, 8);
    let i_slot = b.alloca(8, 8);

    // init loop
    let init_head = b.create_block();
    let init_body = b.create_block();
    let main_entry = b.create_block();
    let zero = b.iconst(Type::I64, 0);
    b.store(Type::I64, i_slot, 0, zero);
    b.br(init_head);
    b.switch_to(init_head);
    let i = b.load(Type::I64, i_slot, 0);
    let len = b.iconst(Type::I64, LEN);
    let done = b.icmp(ICmp::Eq, Type::I64, i, len);
    b.cond_br(done, main_entry, init_body);
    b.switch_to(init_body);
    let i2 = b.load(Type::I64, i_slot, 0);
    let seedc = b.iconst(Type::I64, seed as i64 + 13);
    let v = b.bin(BinOp::Mul, Type::I64, i2, seedc);
    let mask = b.iconst(Type::I64, 0xffff);
    let vm = b.bin(BinOp::And, Type::I64, v, mask);
    let slot = b.gep(arr, Some(i2), 8, 0);
    b.store(Type::I64, slot, 0, vm);
    let one = b.iconst(Type::I64, 1);
    let i3 = b.bin(BinOp::Add, Type::I64, i2, one);
    b.store(Type::I64, i_slot, 0, i3);
    b.br(init_head);

    // main loop
    b.switch_to(main_entry);
    b.store(Type::I64, acc_slot, 0, zero);
    let seed_mod = b.iconst(Type::I64, (seed as i64) % LEN);
    b.store(Type::I64, idx_slot, 0, seed_mod);
    b.store(Type::I64, i_slot, 0, zero);
    let head = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    b.br(head);
    b.switch_to(head);
    let i = b.load(Type::I64, i_slot, 0);
    let done = b.icmp(ICmp::Eq, Type::I64, i, b.arg(0));
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let i2 = b.load(Type::I64, i_slot, 0);
    let idx = b.load(Type::I64, idx_slot, 0);
    let slot = b.gep(arr, Some(idx), 8, 0);
    let v = b.load(Type::I64, slot, 0);
    let acc = b.load(Type::I64, acc_slot, 0);
    let vx = b.bin(BinOp::Xor, Type::I64, v, i2);
    let acc1 = b.bin(BinOp::Add, Type::I64, acc, vx);
    b.store(Type::I64, acc_slot, 0, acc1);
    let lenc = b.iconst(Type::I64, LEN);
    let imod = b.div(false, true, Type::I64, i2, lenc);
    let wslot = b.gep(arr, Some(imod), 8, 0);
    let accm = b.bin(BinOp::And, Type::I64, acc1, mask);
    b.store(Type::I64, wslot, 0, accm);
    let idx1 = b.bin(BinOp::Add, Type::I64, idx, v);
    let one = b.iconst(Type::I64, 1);
    let idx2 = b.bin(BinOp::Add, Type::I64, idx1, one);
    let idx3 = b.div(false, true, Type::I64, idx2, lenc);
    b.store(Type::I64, idx_slot, 0, idx3);
    let i3 = b.bin(BinOp::Add, Type::I64, i2, one);
    b.store(Type::I64, i_slot, 0, i3);
    b.br(head);
    b.switch_to(exit);
    let result = b.load(Type::I64, acc_slot, 0);
    b.ret(Some(result));
    b.build()
}

/// Floating-point reduction kernel (leela-like numeric code).
fn fp_kernel(name: &str, seed: u32, style: IrStyle) -> crate::ir::Function {
    let _ = style;
    let mut b = FunctionBuilder::new(name, &[Type::I64], Type::I64);
    let x_slot = b.alloca(8, 8);
    let sum_slot = b.alloca(8, 8);
    let i_slot = b.alloca(8, 8);
    let x0 = b.fconst(1.0 + seed as f64 * 0.25);
    let zero_f = b.fconst(0.0);
    let zero = b.iconst(Type::I64, 0);
    b.store(Type::F64, x_slot, 0, x0);
    b.store(Type::F64, sum_slot, 0, zero_f);
    b.store(Type::I64, i_slot, 0, zero);
    let head = b.create_block();
    let body = b.create_block();
    let clamp = b.create_block();
    let cont = b.create_block();
    let exit = b.create_block();
    b.br(head);
    b.switch_to(head);
    let i = b.load(Type::I64, i_slot, 0);
    let done = b.icmp(ICmp::Eq, Type::I64, i, b.arg(0));
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let x = b.load(Type::F64, x_slot, 0);
    let c1 = b.fconst(1.000001);
    let half = b.fconst(0.5);
    let xm = b.fbin(FBinOp::Mul, Type::F64, x, c1);
    let x1 = b.fbin(FBinOp::Add, Type::F64, xm, half);
    b.store(Type::F64, x_slot, 0, x1);
    let three = b.fconst(3.0);
    let xd = b.fbin(FBinOp::Div, Type::F64, x1, three);
    let i2 = b.load(Type::I64, i_slot, 0);
    let fi = b.int_to_fp(Type::I64, Type::F64, i2);
    let c0125 = b.fconst(0.125);
    let fi2 = b.fbin(FBinOp::Mul, Type::F64, fi, c0125);
    let y = b.fbin(FBinOp::Sub, Type::F64, xd, fi2);
    let y2 = b.fbin(FBinOp::Mul, Type::F64, y, y);
    let c0001 = b.fconst(0.001);
    let contrib = b.fbin(FBinOp::Mul, Type::F64, y2, c0001);
    let sum = b.load(Type::F64, sum_slot, 0);
    let sum1 = b.fbin(FBinOp::Add, Type::F64, sum, contrib);
    b.store(Type::F64, sum_slot, 0, sum1);
    let limit = b.fconst(1.0e12);
    let too_big = b.fcmp(crate::ir::FCmp::Ogt, Type::F64, sum1, limit);
    b.cond_br(too_big, clamp, cont);
    b.switch_to(clamp);
    let sum2 = b.load(Type::F64, sum_slot, 0);
    let halfc = b.fconst(0.5);
    let sum3 = b.fbin(FBinOp::Mul, Type::F64, sum2, halfc);
    b.store(Type::F64, sum_slot, 0, sum3);
    b.br(cont);
    b.switch_to(cont);
    let one = b.iconst(Type::I64, 1);
    let i3 = b.bin(BinOp::Add, Type::I64, i, one);
    b.store(Type::I64, i_slot, 0, i3);
    b.br(head);
    b.switch_to(exit);
    let fsum = b.load(Type::F64, sum_slot, 0);
    let ret = b.fp_to_int(Type::F64, Type::I64, fsum);
    b.ret(Some(ret));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_in_both_styles() {
        for w in spec_workloads() {
            for style in [IrStyle::O0, IrStyle::O1] {
                let m = build_workload(&w, style);
                assert!(m.func_by_name("bench_main").is_some(), "{}", w.name);
                assert!(m.inst_count() > 50, "{} too small", w.name);
                // every block ends with a terminator
                for f in &m.funcs {
                    for blk in &f.blocks {
                        assert!(blk.insts.last().map(|i| i.is_terminator()).unwrap_or(false));
                    }
                }
            }
        }
    }

    #[test]
    fn all_workloads_pass_the_verifier() {
        // The verifier now gates service admission, so a false rejection
        // here would make every benchmark module uncompilable.
        let mut v = tpde_core::verify::Verifier::new();
        for w in spec_workloads() {
            for style in [IrStyle::O0, IrStyle::O1] {
                let m = build_workload(&w, style);
                let mut a = crate::adapter::LlvmAdapter::new(&m);
                let r = v.verify_module(&mut a);
                assert!(r.is_ok(), "{} ({style:?}): {:?}", w.name, r);
            }
        }
    }

    #[test]
    fn o1_style_has_phis_o0_mostly_not() {
        let w = &spec_workloads()[5]; // int loop
        let o0 = build_workload(w, IrStyle::O0);
        let o1 = build_workload(w, IrStyle::O1);
        let phis = |m: &Module| -> usize {
            m.funcs
                .iter()
                .map(|f| f.blocks.iter().map(|b| b.phis.len()).sum::<usize>())
                .sum()
        };
        assert!(phis(&o1) > phis(&o0));
    }
}
