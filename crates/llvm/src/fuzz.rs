//! Differential fuzzing over randomly generated IR modules.
//!
//! This module is the adversarial half of the correctness backstop (the
//! constructive half is [`tpde_core::verify`]): a seeded, deterministic
//! random-IR generator whose output is fed to every
//! [`ServiceBackendKind`], a mutation mode that corrupts valid modules to
//! drive the verifier's rejection classes, and a greedy test-case
//! minimizer that shrinks a failing module while a caller-supplied
//! predicate keeps failing.
//!
//! The split between this crate and its callers is deliberate:
//! everything here is *execution-agnostic* (generation, mutation, byte
//! identity between the service, [`compile`] and [`compile_parallel`],
//! shrinking against an opaque predicate). Actually *running* the
//! compiled x86-64 code requires the emulator crate, which depends on
//! this one for its tests — so the execution-differential harness is
//! injected as a closure (`ExecFn`) by the integration tests in
//! `tests/fuzz.rs`, whose `#[ignore]`d `fuzz_campaign` is the long
//! campaign.
//!
//! Reproducing a failure is always two numbers: the run seed selects the
//! per-module seeds, and every [`FuzzFailure`] records the per-module
//! seed so `gen_module(seed)` (plus the recorded mutation seed, if any)
//! rebuilds the exact input. The IR dump of the (minimized) module is
//! embedded in the failure for offline triage.

use std::sync::Arc;

use tpde_core::codebuf::{CodeBuffer, SectionKind};
use tpde_core::codegen::CompileOptions;
use tpde_core::error::Error;
use tpde_core::rng::Xoshiro256;
use tpde_core::service::{Request, ServiceConfig};
use tpde_core::verify::{Verifier, VerifyError};

use crate::adapter::LlvmAdapter;
use crate::backend::{
    compile, compile_parallel, compile_service, ModuleRequest, ServiceBackendKind,
};
use crate::ir::{
    BinOp, FBinOp, FuncId, Function, FunctionBuilder, ICmp, Inst, Module, ShiftKind, Type, Value,
    ValueDef,
};

/// Executes the `bench_main` symbol of a compiled buffer with one `u64`
/// argument and returns the result, or a human-readable error. Supplied
/// by callers that can link against the emulator; see the module docs.
pub(crate) type ExecFn<'a> = &'a dyn Fn(&CodeBuffer, u64) -> std::result::Result<u64, String>;

/// All service backend kinds, in a fixed order.
pub const ALL_KINDS: [ServiceBackendKind; 3] = [
    ServiceBackendKind::TpdeX64,
    ServiceBackendKind::TpdeA64,
    ServiceBackendKind::BaselineO0,
];

/// The x86-64 kinds, whose output the emulator can execute directly; the
/// AArch64 kind is checked by byte identity only.
pub const EXEC_KINDS: [ServiceBackendKind; 2] =
    [ServiceBackendKind::TpdeX64, ServiceBackendKind::BaselineO0];

/// Non-panicking twin of [`tpde_core::codebuf::assert_identical`]:
/// `true` iff every section of `a` and `b` is byte-identical.
pub fn buffers_equal(a: &CodeBuffer, b: &CodeBuffer) -> bool {
    SectionKind::ALL
        .iter()
        .all(|&k| a.section_data(k) == b.section_data(k))
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Builds a random, well-formed, deterministic module from a seed.
///
/// The module has 1–3 internal "kernel" functions (arity 0–4, all-`i64`
/// signatures), an exported `bench_main(i64) -> i64` that calls every
/// kernel and folds the results, and last a variable kernel `vars(i64)`,
/// which `bench_main` calls at its end: an O0-style function over 2–7
/// `i64` and `i32` variables, whose loops count in them and call the
/// kernels between two loads of one. The variable kernel draws from a
/// random stream of its own, so the other kernels are the same as in a
/// module without it. Generation follows a strict dominance
/// discipline (values cross control flow only through phis or out of a
/// block that dominates every later one, memory is loaded only from
/// offsets unconditionally stored earlier or from the address just stored
/// to, or from 4- or 8-byte O0-style variables stored in the entry block,
/// divisors are forced odd, shift amounts are masked to 0–63, loops have
/// constant trip counts), so the result both passes [`tpde_core::verify`]
/// and computes the same value on every correct backend.
pub fn gen_module(seed: u64) -> Module {
    let mut rng = Xoshiro256::new(seed);
    let mut m = Module::new();
    let nkernels = 1 + rng.below(3) as usize;
    let mut kernels: Vec<(FuncId, usize)> = Vec::new();
    for k in 0..nkernels {
        let arity = rng.below(5) as usize;
        let f = gen_kernel(&mut rng, &format!("kernel{k}"), arity, &kernels, false);
        let id = m.add_function(f);
        kernels.push((id, arity));
    }
    let vars = FuncId(nkernels as u32 + 1);
    m.add_function(gen_bench_main(&mut rng, &kernels, vars));
    let mut rng = Xoshiro256::new(seed ^ VAR_KERNEL_SALT);
    m.add_function(gen_kernel(&mut rng, "vars", 1, &kernels, true));
    m
}

/// Mixed into a module's seed for the random stream of its variable kernel.
const VAR_KERNEL_SALT: u64 = 0xA0C5_57EA_3000_0000;

/// Generation context for one function body.
struct GenCtx {
    /// Whether this is the module's variable kernel (see [`gen_module`]).
    var_kernel: bool,
    /// `i64` values legal to use from the current insertion point onwards
    /// (defined in a block that dominates everything generated later).
    pool: Vec<Value>,
    /// The 64-byte scratch slot address.
    slot: Value,
    /// Slot offsets that have been stored unconditionally.
    stored: Vec<i32>,
    /// O0-style scalar variables and their type: stack slots that are
    /// only ever loaded and stored whole, each stored in the entry block
    /// first. A kernel has two `i64` ones, the variable kernel 2–7 of type
    /// `i64` or `i32`, at times more than the callee-saved registers a
    /// back-end can keep them in.
    vars: Vec<(Value, Type)>,
    /// A scalar variable whose address escapes, and a second pointer to
    /// it (a GEP of it, or its address stored to and loaded back from
    /// another variable).
    escaped: (Value, Value),
}

impl GenCtx {
    fn pick(&self, rng: &mut Xoshiro256) -> Value {
        self.pool[rng.below(self.pool.len() as u64) as usize]
    }
}

const BIN_OPS: [BinOp; 6] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Mul,
];
const SHIFT_KINDS: [ShiftKind; 3] = [ShiftKind::Shl, ShiftKind::LShr, ShiftKind::AShr];
const ICMP_CCS: [ICmp; 10] = [
    ICmp::Eq,
    ICmp::Ne,
    ICmp::Slt,
    ICmp::Sle,
    ICmp::Sgt,
    ICmp::Sge,
    ICmp::Ult,
    ICmp::Ule,
    ICmp::Ugt,
    ICmp::Uge,
];

/// Emits one random straight-line op and returns its `i64` result.
/// `register_stores` is false inside conditional arms and loop bodies,
/// where a store must not unlock later loads (the later load would read
/// memory that is only written on one path — frame garbage on the other,
/// which legitimately differs between backends).
fn rand_op(
    b: &mut FunctionBuilder,
    rng: &mut Xoshiro256,
    cx: &mut GenCtx,
    callees: &[(FuncId, usize)],
    register_stores: bool,
) -> Value {
    match rng.below(12) {
        0 => {
            let op = *rng.pick(&BIN_OPS);
            let (l, r) = (cx.pick(rng), cx.pick(rng));
            b.bin(op, Type::I64, l, r)
        }
        1 => {
            let kind = *rng.pick(&SHIFT_KINDS);
            let amt = b.iconst(Type::I64, rng.below(64) as i64);
            let l = cx.pick(rng);
            b.shift(kind, Type::I64, l, amt)
        }
        2 => {
            // Unsigned div/rem with a forced-odd divisor: no div-by-zero,
            // no INT_MIN / -1 overflow. A constant divisor stays a
            // constant, so the x86-64 back-end's multiply-high path is
            // compared with the baselines' real `div`.
            let d = cx.pick(rng);
            let rhs = match b.const_bits(d) {
                Some(c) => b.iconst(Type::I64, (c | 1) as i64),
                None => {
                    let one = b.iconst(Type::I64, 1);
                    b.bin(BinOp::Or, Type::I64, d, one)
                }
            };
            let l = cx.pick(rng);
            b.div(false, rng.chance(1, 2), Type::I64, l, rhs)
        }
        3 => {
            let cc = *rng.pick(&ICMP_CCS);
            let (l, r) = (cx.pick(rng), cx.pick(rng));
            let c = b.icmp(cc, Type::I64, l, r);
            let (t, f) = (cx.pick(rng), cx.pick(rng));
            b.select(Type::I64, c, t, f)
        }
        4 => {
            // Store-then-load through the scratch slot, optionally via a GEP
            // so address arithmetic is exercised without leaking the (frame-
            // layout-dependent) address value into the result.
            let off = (rng.below(8) * 8) as i32;
            let v = cx.pick(rng);
            if rng.chance(1, 2) {
                let addr = b.gep(cx.slot, None, 0, off as i64);
                b.store(Type::I64, addr, 0, v);
                if register_stores {
                    cx.stored.push(off);
                }
                b.load(Type::I64, addr, 0)
            } else {
                b.store(Type::I64, cx.slot, off, v);
                if register_stores {
                    cx.stored.push(off);
                }
                b.load(Type::I64, cx.slot, off)
            }
        }
        5 => {
            // i64 -> i32 -> i64 narrow/widen chain; wrap-around is
            // deterministic so any sign choice is fine.
            let v = cx.pick(rng);
            let t = b.cast(false, Type::I64, Type::I32, v);
            let op = *rng.pick(&BIN_OPS);
            let w = cx.pick(rng);
            let t2 = b.cast(false, Type::I64, Type::I32, w);
            let r = b.bin(op, Type::I32, t, t2);
            b.cast(rng.chance(1, 2), Type::I32, Type::I64, r)
        }
        6 => {
            let f = rand_f64(b, rng, cx);
            b.fp_to_int(Type::F64, Type::I64, f)
        }
        7 => indexed_roundtrip(b, rng, cx),
        10 => var_access(b, rng, cx),
        8 => {
            // Add, subtract or multiply by an immediate, or add of a value,
            // whose left operand stays live: the x86-64 back-end emits a
            // `lea` or a three-operand `imul` for it instead of a copy and
            // a two-operand instruction. The xor is that operand's next use.
            let l = cx.pick(rng);
            let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
            let imm = *rng.pick(&LIVE_OPERAND_IMMS);
            if rng.chance(1, 3) {
                let t = b.cast(false, Type::I64, Type::I32, l);
                let c = b.iconst(Type::I32, imm as i32 as i64);
                let r = b.bin(op, Type::I32, t, c);
                let x = b.bin(BinOp::Xor, Type::I32, r, t);
                return b.cast(rng.chance(1, 2), Type::I32, Type::I64, x);
            }
            let r = if rng.chance(1, 4) {
                let rv = cx.pick(rng);
                b.bin(BinOp::Add, Type::I64, l, rv)
            } else {
                let c = b.iconst(Type::I64, imm);
                b.bin(op, Type::I64, l, c)
            };
            b.bin(BinOp::Xor, Type::I64, r, l)
        }
        _ => {
            if !callees.is_empty() && rng.chance(1, 2) {
                let (id, arity) = *rng.pick(callees);
                let args = (0..arity).map(|_| cx.pick(rng)).collect();
                b.call(id, Type::I64, args)
            } else if !cx.stored.is_empty() {
                let off = *rng.pick(&cx.stored);
                b.load(Type::I64, cx.slot, off)
            } else {
                let (l, r) = (cx.pick(rng), cx.pick(rng));
                b.bin(BinOp::Add, Type::I64, l, r)
            }
        }
    }
}

/// Immediates for the live-operand arithmetic of [`rand_op`]: small and
/// large, the edges of a sign-extended 32-bit immediate (`-i32::MIN` does
/// not fit one), a power of two and one that needs 64 bits.
const LIVE_OPERAND_IMMS: [i64; 9] = [
    1,
    -1,
    3,
    100,
    -4096,
    8,
    0x7fff_ffff,
    -0x8000_0000,
    0x1_0000_0001,
];

/// Stores a value through an indexed GEP into the scratch slot and loads
/// it back through another. The index is masked (or a constant) so that
/// the 8-byte access stays inside the slot, and its scale is 1, 2, 4 or 8,
/// which the x86-64 back-end folds into the access's memory operand, or
/// 16, which it does not. Two variants keep the GEP out of the access:
/// a GEP with two uses, and one whose access is not the next instruction.
/// The indexed store clobbers bytes at registered offsets, but only with
/// defined values, so later loads stay deterministic.
fn indexed_roundtrip(b: &mut FunctionBuilder, rng: &mut Xoshiro256, cx: &mut GenCtx) -> Value {
    let scale = *rng.pick(&[1u32, 2, 4, 8, 16]);
    // largest index with index*scale + 8 <= 64
    let max_index = [31u64, 15, 7, 7, 3][scale.trailing_zeros() as usize];
    let reach = max_index * scale as u64;
    let off = 8 * rng.below((56 - reach) / 8 + 1) as i64;
    // split the offset between the GEP and the access
    let access_off = if rng.chance(1, 2) { off as i32 } else { 0 };
    let gep_off = off - access_off as i64;
    let index = if rng.chance(1, 4) {
        b.iconst(Type::I64, rng.below(max_index + 1) as i64)
    } else {
        let mask = b.iconst(Type::I64, max_index as i64);
        let v = cx.pick(rng);
        b.bin(BinOp::And, Type::I64, v, mask)
    };
    // the slot's address in a register instead of frame-relative
    let base = if rng.chance(1, 4) {
        b.gep(cx.slot, None, 0, 0)
    } else {
        cx.slot
    };
    let v = cx.pick(rng);
    let addr = b.gep(base, Some(index), scale, gep_off);
    match rng.below(3) {
        0 => b.store(Type::I64, addr, access_off, v),
        1 => {
            b.store(Type::I64, addr, access_off, v);
            return b.load(Type::I64, addr, access_off);
        }
        _ => {
            let w = b.bin(BinOp::Add, Type::I64, v, index);
            b.store(Type::I64, addr, access_off, w);
        }
    }
    let addr = b.gep(base, Some(index), scale, gep_off);
    b.load(Type::I64, addr, access_off)
}

/// Loads and stores of the scalar variables, in the shapes a back-end that
/// leaves a load in its variable until the uses (`LAZY_STACK_LOADS`) must
/// get right: a plain load, whose value the pool carries into later
/// blocks, diamonds and loops; a load, a store to the same variable and
/// then a use of the loaded value; a value stored back to the variable it
/// was loaded from; and a load, a store through the escaped variable's
/// other pointer, and a use of the old value next to a fresh load. A
/// variable always holds a defined value, so a store may sit anywhere,
/// conditional arms included.
fn var_access(b: &mut FunctionBuilder, rng: &mut Xoshiro256, cx: &mut GenCtx) -> Value {
    let (var, ty) = *rng.pick(&cx.vars);
    match rng.below(4) {
        0 => {
            let x = b.load(ty, var, 0);
            widen(b, rng, ty, x)
        }
        1 => {
            let x = b.load(ty, var, 0);
            let y = cx.pick(rng);
            let y = narrow(b, ty, y);
            b.store(ty, var, 0, y);
            let x = widen(b, rng, ty, x);
            let op = *rng.pick(&BIN_OPS);
            let z = cx.pick(rng);
            let r = b.bin(op, Type::I64, x, z);
            b.bin(BinOp::Xor, Type::I64, r, x)
        }
        2 => {
            let x = b.load(ty, var, 0);
            b.store(ty, var, 0, x);
            widen(b, rng, ty, x)
        }
        _ => {
            let (slot, ptr) = cx.escaped;
            let x = b.load(Type::I64, slot, 0);
            let y = cx.pick(rng);
            b.store(Type::I64, ptr, 0, y);
            let fresh = b.load(Type::I64, slot, 0);
            let r = b.bin(BinOp::Sub, Type::I64, x, fresh);
            b.bin(BinOp::Add, Type::I64, r, x)
        }
    }
}

/// `v`, of type `ty` (`i64` or `i32`), as an `i64`: an `i32` is zero- or
/// sign-extended.
fn widen(b: &mut FunctionBuilder, rng: &mut Xoshiro256, ty: Type, v: Value) -> Value {
    match ty {
        Type::I32 => b.cast(rng.chance(1, 2), Type::I32, Type::I64, v),
        _ => v,
    }
}

/// The `i64` `v` as a value of type `ty` (`i64` or `i32`).
fn narrow(b: &mut FunctionBuilder, ty: Type, v: Value) -> Value {
    match ty {
        Type::I32 => b.cast(false, Type::I64, Type::I32, v),
        _ => v,
    }
}

/// Emits a run of 2–5 straight-line ops into the current block.
fn straight_segment(
    b: &mut FunctionBuilder,
    rng: &mut Xoshiro256,
    cx: &mut GenCtx,
    callees: &[(FuncId, usize)],
) {
    for _ in 0..2 + rng.below(4) {
        let v = rand_op(b, rng, cx, callees, true);
        cx.pool.push(v);
    }
}

/// A bounded `f64`: a pool value masked to 16 bits, converted, and added
/// to, subtracted from or multiplied by a multiple of 0.5, so that every
/// step is exact and converting it back is well defined.
fn rand_f64(b: &mut FunctionBuilder, rng: &mut Xoshiro256, cx: &mut GenCtx) -> Value {
    let mask = b.iconst(Type::I64, 0xFFFF);
    let v = cx.pick(rng);
    let small = b.bin(BinOp::And, Type::I64, v, mask);
    let f = b.int_to_fp(Type::I64, Type::F64, small);
    let op = *rng.pick(&[FBinOp::Add, FBinOp::Sub, FBinOp::Mul]);
    let k = b.fconst((1 + rng.below(7)) as f64 * 0.5);
    b.fbin(op, Type::F64, f, k)
}

/// Emits a join of 2–5 arms whose values meet in phis; only values
/// computed at the join, and sometimes the first phi, join the pool.
///
/// Two arms branch on one compare; more go through a chain of compares of
/// a pool value modulo the arm count (a switch lowered to branches, as in
/// Branchy). Each arm brings one or two `i64` values and sometimes an
/// `f64`; two `i64` values may arrive crossed, a register swap for a
/// back-end whose join phis arrive in registers. One arm may also read a
/// value computed before the branch that nothing else reads, so it is
/// live into one successor only. The join consumes its phis at once: the
/// first instruction is an unsigned division, a shift by a variable
/// amount (these need `rax`, `rdx` or `rcx` on x86-64), a call or a plain
/// operation.
fn join_segment(
    b: &mut FunctionBuilder,
    rng: &mut Xoshiro256,
    cx: &mut GenCtx,
    callees: &[(FuncId, usize)],
) {
    let narms = if rng.chance(1, 2) {
        2
    } else {
        3 + rng.below(3) as usize
    };
    let (two, fp) = (rng.chance(1, 2), rng.chance(1, 3));
    let only = rng.chance(1, 2).then(|| {
        (
            rng.below(narms as u64) as usize,
            rand_op(b, rng, cx, callees, true),
        )
    });
    // the join's operands, computed before the branch so that the
    // division or the shift is the join's first instruction
    let d = cx.pick(rng);
    let one = b.iconst(Type::I64, 1);
    let odd = b.bin(BinOp::Or, Type::I64, d, one);
    let a = cx.pick(rng);
    let mask = b.iconst(Type::I64, 63);
    let amount = b.bin(BinOp::And, Type::I64, a, mask);

    let arms: Vec<_> = (0..narms).map(|_| b.create_block()).collect();
    let join = b.create_block();
    if narms == 2 {
        let cc = *rng.pick(&ICMP_CCS);
        let (l, r) = (cx.pick(rng), cx.pick(rng));
        let cond = b.icmp(cc, Type::I64, l, r);
        b.cond_br(cond, arms[0], arms[1]);
    } else {
        let n = b.iconst(Type::I64, narms as i64);
        let v = cx.pick(rng);
        let sel = b.div(false, true, Type::I64, v, n);
        for k in 0..narms - 1 {
            let kc = b.iconst(Type::I64, k as i64);
            let is_k = b.icmp(ICmp::Eq, Type::I64, sel, kc);
            let next = if k + 2 < narms {
                b.create_block()
            } else {
                arms[narms - 1]
            };
            b.cond_br(is_k, arms[k], next);
            b.switch_to(next);
        }
    }
    let mut incoming = Vec::new();
    for (k, &arm) in arms.iter().enumerate() {
        b.switch_to(arm);
        let mut x = rand_op(b, rng, cx, callees, false);
        if let Some((_, v)) = only.filter(|&(o, _)| o == k) {
            x = b.bin(BinOp::Add, Type::I64, x, v);
        }
        let y = if two {
            rand_op(b, rng, cx, callees, false)
        } else {
            x
        };
        let (x, y) = if rng.chance(1, 2) { (y, x) } else { (x, y) };
        let f = fp.then(|| rand_f64(b, rng, cx));
        b.br(join);
        incoming.push((arm, x, y, f));
    }
    b.switch_to(join);
    let p = b.phi(Type::I64);
    let q = two.then(|| b.phi(Type::I64));
    let pf = fp.then(|| b.phi(Type::F64));
    for &(arm, x, y, f) in &incoming {
        b.phi_add_incoming(p, arm, x);
        if let Some(q) = q {
            b.phi_add_incoming(q, arm, y);
        }
        if let (Some(pf), Some(f)) = (pf, f) {
            b.phi_add_incoming(pf, arm, f);
        }
    }
    let mut r = match rng.below(4) {
        0 => b.div(false, rng.chance(1, 2), Type::I64, p, odd),
        1 => {
            let kind = *rng.pick(&SHIFT_KINDS);
            b.shift(kind, Type::I64, p, amount)
        }
        2 if !callees.is_empty() => {
            let (id, arity) = *rng.pick(callees);
            let args = (0..arity)
                .map(|i| if i == 0 { p } else { cx.pick(rng) })
                .collect();
            let c = b.call(id, Type::I64, args);
            b.bin(BinOp::Xor, Type::I64, c, p)
        }
        _ => {
            let op = *rng.pick(&BIN_OPS);
            let o = cx.pick(rng);
            b.bin(op, Type::I64, p, o)
        }
    };
    if let Some(q) = q {
        let op = *rng.pick(&BIN_OPS);
        r = b.bin(op, Type::I64, r, q);
    }
    if let Some(pf) = pf {
        let i = b.fp_to_int(Type::F64, Type::I64, pf);
        r = b.bin(BinOp::Add, Type::I64, r, i);
    }
    cx.pool.push(r);
    if rng.chance(1, 3) {
        cx.pool.push(p);
    }
}

/// Emits a counted loop (constant trip count 2–8) accumulating into a
/// phi; the accumulator phi joins the pool after the exit (the header
/// dominates the exit, so that is legal everywhere downstream). A third
/// of the loops are one block that branches back to itself at its end.
/// In the variable kernel, variables live next to the loop phis: half the
/// loops count in one (loaded, added to and stored back every iteration,
/// loaded after the loop), and a third call a kernel in the body, between
/// a load of a variable and a second load of it.
fn loop_segment(
    b: &mut FunctionBuilder,
    rng: &mut Xoshiro256,
    cx: &mut GenCtx,
    callees: &[(FuncId, usize)],
) {
    let trip = b.iconst(Type::I64, (2 + rng.below(7)) as i64);
    let zero = b.iconst(Type::I64, 0);
    let one = b.iconst(Type::I64, 1);
    let init = cx.pick(rng);
    // Half the loops store to a variable in the body, while a load of it
    // from before the loop is used after the loop.
    let vars = &cx.vars;
    let var_store = rng.chance(1, 2).then(|| *rng.pick(vars));
    let var_store = var_store.map(|(var, ty)| {
        let x = b.load(ty, var, 0);
        ((var, ty), widen(b, rng, ty, x))
    });
    let var_kernel = cx.var_kernel;
    let counter = (var_kernel && rng.chance(1, 2)).then(|| *rng.pick(vars));
    let call = (var_kernel && !callees.is_empty() && rng.chance(1, 3))
        .then(|| (*rng.pick(callees), *rng.pick(vars), cx.pick(rng)));
    let one_block = rng.chance(1, 3);
    let pre = b.current_block();
    let hdr = b.create_block();
    let exit = b.create_block();
    b.br(hdr);
    b.switch_to(hdr);
    let i = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    b.phi_add_incoming(i, pre, zero);
    b.phi_add_incoming(acc, pre, init);
    let body = if one_block {
        hdr
    } else {
        let body = b.create_block();
        let c = b.icmp(ICmp::Ult, Type::I64, i, trip);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        body
    };
    // The body may only use loop-invariant pool values plus i/acc; its
    // temporaries never escape except through the back-edge phis.
    let mixer = cx.pick(rng);
    let op = *rng.pick(&BIN_OPS);
    let mut a = b.bin(op, Type::I64, acc, mixer);
    if rng.chance(1, 2) {
        let op2 = *rng.pick(&[BinOp::Add, BinOp::Xor]);
        a = b.bin(op2, Type::I64, a, i);
    }
    if let Some(((id, arity), (var, ty), arg)) = call {
        let x = b.load(ty, var, 0);
        let before = widen(b, rng, ty, x);
        let args = (0..arity).map(|k| if k == 0 { a } else { arg }).collect();
        let c = b.call(id, Type::I64, args);
        let y = b.load(ty, var, 0);
        let after = widen(b, rng, ty, y);
        let mixed = b.bin(BinOp::Xor, Type::I64, c, before);
        let mixed = b.bin(BinOp::Add, Type::I64, mixed, after);
        a = b.bin(BinOp::Add, Type::I64, a, mixed);
    }
    if let Some((var, ty)) = counter {
        let x = b.load(ty, var, 0);
        let step = narrow(b, ty, i);
        let x1 = b.bin(BinOp::Add, ty, x, step);
        b.store(ty, var, 0, x1);
    }
    let inext = b.bin(BinOp::Add, Type::I64, i, one);
    if let Some(((var, ty), _)) = var_store {
        let v = narrow(b, ty, a);
        b.store(ty, var, 0, v);
    }
    b.phi_add_incoming(i, body, inext);
    b.phi_add_incoming(acc, body, a);
    if one_block {
        let c = b.icmp(ICmp::Ult, Type::I64, inext, trip);
        b.cond_br(c, hdr, exit);
    } else {
        b.br(hdr);
    }
    b.switch_to(exit);
    cx.pool.push(acc);
    if let Some((_, before)) = var_store {
        cx.pool.push(before);
    }
    if let Some((var, ty)) = counter {
        let x = b.load(ty, var, 0);
        let x = widen(b, rng, ty, x);
        cx.pool.push(x);
    }
    // A one-block body dominates the exit: its last value may live on.
    if one_block && rng.chance(1, 2) {
        cx.pool.push(a);
    }
}

fn gen_kernel(
    rng: &mut Xoshiro256,
    name: &str,
    arity: usize,
    callees: &[(FuncId, usize)],
    var_kernel: bool,
) -> Function {
    let params = vec![Type::I64; arity];
    let mut b = FunctionBuilder::new(name, &params, Type::I64);
    b.set_internal();
    let mut pool: Vec<Value> = (0..arity).map(|i| b.arg(i)).collect();
    for _ in 0..2 {
        pool.push(b.iconst(Type::I64, (rng.next_u64() & 0xFFFF) as i64));
    }
    let slot = b.alloca(64, 8);
    let mut vars = Vec::new();
    for _ in 0..if var_kernel { 2 + rng.below(6) } else { 2 } {
        let ty = if var_kernel && rng.chance(1, 3) {
            Type::I32
        } else {
            Type::I64
        };
        let var = b.alloca(ty.size(), ty.size());
        let init = pool[rng.below(pool.len() as u64) as usize];
        let init = narrow(&mut b, ty, init);
        b.store(ty, var, 0, init);
        vars.push((var, ty));
    }
    let esc = b.alloca(8, 8);
    b.store(
        Type::I64,
        esc,
        0,
        pool[rng.below(pool.len() as u64) as usize],
    );
    let esc_ptr = if rng.chance(1, 2) {
        b.gep(esc, None, 0, 0)
    } else {
        let holder = b.alloca(8, 8);
        b.store(Type::Ptr, holder, 0, esc);
        b.load(Type::Ptr, holder, 0)
    };
    let mut cx = GenCtx {
        var_kernel,
        pool,
        slot,
        stored: Vec::new(),
        vars,
        escaped: (esc, esc_ptr),
    };
    for _ in 0..1 + rng.below(3) {
        match rng.below(3) {
            0 => straight_segment(&mut b, rng, &mut cx, callees),
            1 => join_segment(&mut b, rng, &mut cx, callees),
            _ => loop_segment(&mut b, rng, &mut cx, callees),
        }
    }
    if var_kernel {
        for _ in 0..2 + rng.below(3) {
            let v = var_access(&mut b, rng, &mut cx);
            cx.pool.push(v);
        }
        loop_segment(&mut b, rng, &mut cx, callees);
    }
    let mut r = *cx.pool.last().unwrap();
    // never `r ^ r`: a kernel that returns 0 hides its body from every check
    let others: Vec<Value> = cx.pool.iter().copied().filter(|&v| v != r).collect();
    let other = *rng.pick(&others);
    r = b.bin(BinOp::Xor, Type::I64, r, other);
    b.ret(Some(r));
    b.build()
}

fn gen_bench_main(rng: &mut Xoshiro256, kernels: &[(FuncId, usize)], vars: FuncId) -> Function {
    let mut b = FunctionBuilder::new("bench_main", &[Type::I64], Type::I64);
    let x = b.arg(0);
    let salt = b.iconst(Type::I64, (rng.next_u64() & 0xFFF) as i64);
    // A guaranteed integer Add so miscompile injection always has a target
    // even after heavy minimization.
    let mut acc = b.bin(BinOp::Add, Type::I64, x, salt);
    for &(id, arity) in kernels {
        let args = (0..arity)
            .map(|a| if a % 2 == 0 { x } else { acc })
            .collect();
        let r = b.call(id, Type::I64, args);
        acc = b.bin(BinOp::Xor, Type::I64, acc, r);
    }
    let r = b.call(vars, Type::I64, vec![x]);
    acc = b.bin(BinOp::Xor, Type::I64, acc, r);
    b.ret(Some(acc));
    b.build()
}

// ---------------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------------

/// A class of IR corruption applied by [`mutate_module`], chosen to map
/// 1:1 onto a [`VerifyError`] rejection class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// An instruction operand rewritten to a value id past the table.
    OperandOutOfRange,
    /// The terminator of one block removed.
    DroppedTerminator,
    /// A call handed one argument too many.
    CallArityMismatch,
    /// An early operand rewritten to a value defined later in layout.
    UseBeforeDef,
}

/// `true` iff the verifier rejected a [`Corruption`] with the matching
/// error class.
pub(crate) fn corruption_matches(c: Corruption, e: &VerifyError) -> bool {
    matches!(
        (c, e),
        (
            Corruption::OperandOutOfRange,
            VerifyError::ValueOutOfRange { .. }
        ) | (
            Corruption::DroppedTerminator,
            VerifyError::MissingTerminator { .. }
        ) | (
            Corruption::CallArityMismatch,
            VerifyError::CallArityMismatch { .. }
        ) | (Corruption::UseBeforeDef, VerifyError::UseBeforeDef { .. })
    )
}

/// Corrupts a well-formed module in one [`Corruption`] class chosen by
/// `seed`, returning the mutant and the class the verifier must report.
/// Falls back through the classes if the preferred one has no applicable
/// site (e.g. no call instruction in the module).
pub fn mutate_module(m: &Module, seed: u64) -> (Module, Corruption) {
    let mut rng = Xoshiro256::new(seed);
    let start = rng.below(4) as usize;
    for i in 0..4 {
        let c = [
            Corruption::OperandOutOfRange,
            Corruption::DroppedTerminator,
            Corruption::CallArityMismatch,
            Corruption::UseBeforeDef,
        ][(start + i) % 4];
        let mut out = m.clone();
        if apply_corruption(&mut out, &mut rng, c) {
            return (out, c);
        }
    }
    unreachable!("a generated module always has a corruptible site");
}

fn apply_corruption(m: &mut Module, rng: &mut Xoshiro256, c: Corruption) -> bool {
    let bodies: Vec<usize> = (0..m.funcs.len())
        .filter(|&i| !m.funcs[i].is_decl)
        .collect();
    if bodies.is_empty() {
        return false;
    }
    match c {
        Corruption::OperandOutOfRange => {
            let fi = *rng.pick(&bodies);
            let f = &mut m.funcs[fi];
            let bogus = Value(f.values.len() as u32 + 7);
            for blk in &mut f.blocks {
                for inst in &mut blk.insts {
                    let mut done = false;
                    inst.visit_operands_mut(|v| {
                        if !done {
                            *v = bogus;
                            done = true;
                        }
                    });
                    if done {
                        return true;
                    }
                }
            }
            false
        }
        Corruption::DroppedTerminator => {
            let fi = *rng.pick(&bodies);
            let f = &mut m.funcs[fi];
            let bi = rng.below(f.blocks.len() as u64) as usize;
            f.blocks[bi].insts.pop().is_some()
        }
        Corruption::CallArityMismatch => {
            for &fi in &bodies {
                let f = &mut m.funcs[fi];
                let has_values = !f.values.is_empty();
                for blk in &mut f.blocks {
                    for inst in &mut blk.insts {
                        if let Inst::Call { args, .. } = inst {
                            let extra = args
                                .first()
                                .copied()
                                .or_else(|| has_values.then_some(Value(0)));
                            if let Some(v) = extra {
                                args.push(v);
                                return true;
                            }
                        }
                    }
                }
            }
            false
        }
        Corruption::UseBeforeDef => {
            for &fi in &bodies {
                let f = &mut m.funcs[fi];
                // A definition from a non-entry block (always after the
                // entry in layout), or failing that a later entry-block
                // instruction.
                let mut target: Option<(usize, usize, Value)> = None;
                for (bi, blk) in f.blocks.iter().enumerate() {
                    for (ii, inst) in blk.insts.iter().enumerate() {
                        if let Some(r) = inst.result() {
                            target = Some((bi, ii, r));
                        }
                    }
                }
                let Some((dbi, dii, res)) = target else {
                    continue;
                };
                // First entry-block instruction with operands strictly
                // before the definition site.
                for (ii, inst) in f.blocks[0].insts.iter_mut().enumerate() {
                    if dbi == 0 && ii >= dii {
                        break;
                    }
                    let mut done = false;
                    inst.visit_operands_mut(|v| {
                        if !done {
                            *v = res;
                            done = true;
                        }
                    });
                    if done {
                        return true;
                    }
                }
            }
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

/// Greedily shrinks `m` while `fails` keeps returning `true`, evaluating
/// at most `max_evals` candidates.
///
/// The predicate fully defines "interesting": for a differential failure
/// it is typically "some pair of backends disagrees on the result";
/// hand it a low emulator instruction budget so candidates that loop
/// forever count as not-failing instead of hanging the shrink. Reduction
/// passes, repeated to a fixpoint: drop uncalled functions (with
/// [`FuncId`] remapping), collapse conditional branches and prune
/// unreachable blocks, break loops by sending a back edge to the loop's
/// exit, merge a block into its only predecessor, delete instructions (rewriting their result to
/// constant zero), delete phis the same way or in favour of a sibling
/// phi, delete instructions by
/// forwarding one of their operands to their uses. Candidates stay
/// verifier-clean by construction, but shrinking — like any fuzzing
/// reducer — may change program semantics; only the predicate is
/// preserved.
pub fn minimize(m: &Module, fails: &mut dyn FnMut(&Module) -> bool, max_evals: usize) -> Module {
    let mut cur = m.clone();
    let mut evals = 0usize;
    loop {
        let mut changed = false;

        // Pass A: drop functions nothing calls, highest index first.
        let mut fi = cur.funcs.len();
        while fi > 0 {
            fi -= 1;
            if evals >= max_evals {
                return cur;
            }
            if let Some(cand) = remove_func(&cur, fi) {
                evals += 1;
                if fails(&cand) {
                    cur = cand;
                    changed = true;
                }
            }
        }

        // Pass B: collapse conditional branches to one arm.
        'outer: for fi in 0..cur.funcs.len() {
            for bi in 0..cur.funcs[fi].blocks.len() {
                let (t, e) = match cur.funcs[fi].blocks[bi].insts.last() {
                    Some(&Inst::CondBr {
                        if_true, if_false, ..
                    }) => (if_true, if_false),
                    _ => continue,
                };
                for arm in [t, e] {
                    if evals >= max_evals {
                        return cur;
                    }
                    let mut cand = cur.clone();
                    *cand.funcs[fi].blocks[bi].insts.last_mut().unwrap() = Inst::Br { target: arm };
                    prune_unreachable(&mut cand.funcs[fi]);
                    evals += 1;
                    if fails(&cand) {
                        cur = cand;
                        changed = true;
                        continue 'outer; // block indices shifted; restart func scan
                    }
                }
            }
        }

        // Pass B2: reshape the CFG. A jump back to a block laid out
        // earlier (a back edge, for the generator's loops) is sent to that
        // block's other successor, its exit, or else the loop runs its body
        // exactly once; a block joins its only predecessor when that
        // predecessor jumps to it unconditionally.
        'outer: for fi in 0..cur.funcs.len() {
            for bi in 0..cur.funcs[fi].blocks.len() {
                for k in 0..3 {
                    let f = &cur.funcs[fi];
                    let cand = match k {
                        0 | 1 => break_loop(f, bi, k == 1),
                        _ => merge_into_pred(f, bi),
                    };
                    let Some(cand) = cand else {
                        continue;
                    };
                    if evals >= max_evals {
                        return cur;
                    }
                    let mut cand_m = cur.clone();
                    cand_m.funcs[fi] = cand;
                    evals += 1;
                    if fails(&cand_m) {
                        cur = cand_m;
                        changed = true;
                        continue 'outer; // block indices shifted; restart func scan
                    }
                }
            }
        }

        // Pass C: delete non-terminator instructions; a deleted result
        // becomes the constant 0 of its type so uses stay well-formed. A
        // store to a stack slot stays while a load reads the slot, so that
        // no load is left reading memory nothing wrote, where back-ends
        // differ without a bug.
        for fi in 0..cur.funcs.len() {
            for bi in 0..cur.funcs[fi].blocks.len() {
                let mut ii = 0;
                while ii + 1 < cur.funcs[fi].blocks[bi].insts.len() {
                    if evals >= max_evals {
                        return cur;
                    }
                    if stores_to_a_read_slot(&cur.funcs[fi], &cur.funcs[fi].blocks[bi].insts[ii]) {
                        ii += 1;
                        continue;
                    }
                    let mut cand = cur.clone();
                    let removed = cand.funcs[fi].blocks[bi].insts.remove(ii);
                    if let Some(r) = removed.result() {
                        cand.funcs[fi].values[r.0 as usize].def = ValueDef::Const(0);
                    }
                    evals += 1;
                    if fails(&cand) {
                        cur = cand;
                        changed = true;
                    } else {
                        ii += 1;
                    }
                }
            }
        }

        // Pass D: delete phis the same way, or by reading another phi of
        // the block in their place.
        for fi in 0..cur.funcs.len() {
            for bi in 0..cur.funcs[fi].blocks.len() {
                let mut pi = 0;
                while pi < cur.funcs[fi].blocks[bi].phis.len() {
                    let mut kept = true;
                    for with in 0..cur.funcs[fi].blocks[bi].phis.len() {
                        if evals >= max_evals {
                            return cur;
                        }
                        let mut cand = cur.clone();
                        let f = &mut cand.funcs[fi];
                        let phi = f.blocks[bi].phis.remove(pi);
                        if with == pi {
                            f.values[phi.res.0 as usize].def = ValueDef::Const(0);
                        } else {
                            let other = &cur.funcs[fi].blocks[bi].phis[with];
                            if other.ty != phi.ty {
                                continue;
                            }
                            replace_uses(f, (phi.res, other.res));
                        }
                        evals += 1;
                        if fails(&cand) {
                            cur = cand;
                            changed = true;
                            kept = false;
                            break;
                        }
                    }
                    if kept {
                        pi += 1;
                    }
                }
            }
        }

        // Pass E: delete an instruction by forwarding one of its operands
        // of the same type to its uses (`x = y op z` becomes `y`), where
        // a zero in its place would lose the failure.
        for fi in 0..cur.funcs.len() {
            for bi in 0..cur.funcs[fi].blocks.len() {
                let mut ii = 0;
                while ii + 1 < cur.funcs[fi].blocks[bi].insts.len() {
                    let mut kept = true;
                    for k in 0.. {
                        let Some(cand) = forward_operand(&cur.funcs[fi], bi, ii, k) else {
                            break;
                        };
                        if evals >= max_evals {
                            return cur;
                        }
                        let mut cand_m = cur.clone();
                        cand_m.funcs[fi] = cand;
                        evals += 1;
                        if fails(&cand_m) {
                            cur = cand_m;
                            changed = true;
                            kept = false;
                            break;
                        }
                    }
                    if kept {
                        ii += 1;
                    }
                }
            }
        }

        if !changed {
            return cur;
        }
    }
}

/// The stack slot `addr` points into, through any chain of GEPs.
fn slot_of(f: &Function, mut addr: Value) -> Option<Value> {
    loop {
        if let ValueDef::StackSlot(_) = f.values.get(addr.0 as usize)?.def {
            return Some(addr);
        }
        let defs = f.blocks.iter().flat_map(|b| &b.insts);
        addr = defs.into_iter().find_map(|i| match *i {
            Inst::Gep { res, base, .. } if res == addr => Some(base),
            _ => None,
        })?;
    }
}

/// Whether `inst` stores to a stack slot that a load of `f` reads.
fn stores_to_a_read_slot(f: &Function, inst: &Inst) -> bool {
    let Inst::Store { addr, .. } = *inst else {
        return false;
    };
    let Some(slot) = slot_of(f, addr) else {
        return false;
    };
    f.blocks.iter().flat_map(|b| &b.insts).any(|i| match *i {
        Inst::Load { addr, .. } => slot_of(f, addr) == Some(slot),
        _ => false,
    })
}

/// Rewrites every use of a value `from_to.0` in `f` to `from_to.1`.
fn replace_uses(f: &mut Function, (from, to): (Value, Value)) {
    for blk in &mut f.blocks {
        for p in &mut blk.phis {
            for (_, v) in &mut p.incoming {
                if *v == from {
                    *v = to;
                }
            }
        }
        for inst in &mut blk.insts {
            inst.visit_operands_mut(|v| {
                if *v == from {
                    *v = to;
                }
            });
        }
    }
}

/// `f` with block `x` appended to its only predecessor `p`, which ends in
/// `br x`: `x`'s phis (one incoming value each) become that value, and
/// `x`'s successors see `p` as the predecessor instead. `None` if `x` has
/// another predecessor or is the entry.
fn merge_into_pred(f: &Function, x: usize) -> Option<Function> {
    let xb = crate::ir::Block(x as u32);
    let mut preds = Vec::new();
    for (bi, blk) in f.blocks.iter().enumerate() {
        if let Some(t) = blk.insts.last() {
            t.visit_successors(|s| {
                if s == xb {
                    preds.push(bi);
                }
            });
        }
    }
    let [p] = preds[..] else {
        return None;
    };
    if x == 0 || p == x || !matches!(f.blocks[p].insts.last(), Some(Inst::Br { .. })) {
        return None;
    }
    let pb = crate::ir::Block(p as u32);
    let mut out = f.clone();
    let moved = std::mem::take(&mut out.blocks[x]);
    out.blocks[p].insts.pop();
    out.blocks[p].insts.extend(moved.insts);
    out.blocks[x].insts.push(Inst::Br { target: xb });
    for phi in moved.phis {
        replace_uses(&mut out, (phi.res, phi.incoming.first()?.1));
    }
    for blk in &mut out.blocks {
        for phi in &mut blk.phis {
            for (b, _) in &mut phi.incoming {
                if *b == xb {
                    *b = pb;
                }
            }
        }
    }
    prune_unreachable(&mut out);
    Some(out)
}

/// `f` without instruction `ii` of block `bi`, every use of its result
/// reading the instruction's `k`-th operand of the result's type instead.
/// `None` if there is no such operand.
fn forward_operand(f: &Function, bi: usize, ii: usize, k: usize) -> Option<Function> {
    let inst = &f.blocks[bi].insts[ii];
    let res = inst.result()?;
    let ty = f.values[res.0 as usize].ty;
    let mut ops = Vec::new();
    inst.visit_operands(|v| {
        if v != res && f.values.get(v.0 as usize).is_some_and(|i| i.ty == ty) && !ops.contains(&v) {
            ops.push(v);
        }
    });
    let with = *ops.get(k)?;
    let mut out = f.clone();
    out.blocks[bi].insts.remove(ii);
    replace_uses(&mut out, (res, with));
    Some(out)
}

/// `f` with block `bi`'s back edge redirected to the loop's exit: `bi`
/// ends in `br h` for an `h` laid out before it whose conditional branch
/// leaves to a block `e` without phis, and `bi` now ends in `br e`. `h`'s
/// phis lose their incoming value from `bi`. With `once`, `bi` must be
/// `h`'s other successor, `h` then always branches to it, and outside `h`
/// and `bi` a phi of `h` reads the value `bi` passed it: the body runs
/// exactly once. `None` if `bi` is not such a block.
fn break_loop(f: &Function, bi: usize, once: bool) -> Option<Function> {
    let Some(&Inst::Br { target: h }) = f.blocks[bi].insts.last() else {
        return None;
    };
    if h.0 as usize >= bi {
        return None;
    }
    let Some(&Inst::CondBr {
        if_true, if_false, ..
    }) = f.blocks[h.0 as usize].insts.last()
    else {
        return None;
    };
    let exit = [if_true, if_false]
        .into_iter()
        .find(|&e| e != h && e.0 as usize != bi && f.blocks[e.0 as usize].phis.is_empty())?;
    let body = crate::ir::Block(bi as u32);
    if once && ![if_true, if_false].contains(&body) {
        return None;
    }
    let mut out = f.clone();
    *out.blocks[bi].insts.last_mut().unwrap() = Inst::Br { target: exit };
    let mut back = Vec::new();
    for p in &mut out.blocks[h.0 as usize].phis {
        back.extend(
            p.incoming
                .iter()
                .find(|&&(b, _)| b == body)
                .map(|&(_, v)| (p.res, v)),
        );
        p.incoming.retain(|&(b, _)| b != body);
    }
    if once {
        *out.blocks[h.0 as usize].insts.last_mut().unwrap() = Inst::Br { target: body };
        let inside = [h.0 as usize, bi];
        for (bj, blk) in out.blocks.iter_mut().enumerate() {
            if inside.contains(&bj) {
                continue;
            }
            for &(phi, v) in &back {
                for p in &mut blk.phis {
                    for (_, u) in &mut p.incoming {
                        if *u == phi {
                            *u = v;
                        }
                    }
                }
                for inst in &mut blk.insts {
                    inst.visit_operands_mut(|u| {
                        if *u == phi {
                            *u = v;
                        }
                    });
                }
            }
        }
    }
    prune_unreachable(&mut out);
    Some(out)
}

/// Rebuilds `m` without function `idx`, remapping call targets; `None`
/// if some other function still calls it.
fn remove_func(m: &Module, idx: usize) -> Option<Module> {
    for (fi, f) in m.funcs.iter().enumerate() {
        if fi == idx {
            continue;
        }
        for blk in &f.blocks {
            for inst in &blk.insts {
                if let Inst::Call { callee, .. } = inst {
                    if callee.0 as usize == idx {
                        return None;
                    }
                }
            }
        }
    }
    let mut out = Module::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        if fi == idx {
            continue;
        }
        let mut nf = f.clone();
        for blk in &mut nf.blocks {
            for inst in &mut blk.insts {
                if let Inst::Call { callee, .. } = inst {
                    if callee.0 as usize > idx {
                        callee.0 -= 1;
                    }
                }
            }
        }
        out.add_function(nf);
    }
    Some(out)
}

/// Removes blocks unreachable from the entry, remapping block ids in
/// branches and phi incomings. Phis left with no incoming edge become
/// constant zero.
fn prune_unreachable(f: &mut Function) {
    let n = f.blocks.len();
    let mut reach = vec![false; n];
    let mut stack = vec![0usize];
    reach[0] = true;
    while let Some(b) = stack.pop() {
        if let Some(t) = f.blocks[b].insts.last() {
            t.visit_successors(|s| {
                if !reach[s.0 as usize] {
                    reach[s.0 as usize] = true;
                    stack.push(s.0 as usize);
                }
            });
        }
    }
    if reach.iter().all(|&r| r) {
        return;
    }
    let mut map = vec![u32::MAX; n];
    let mut blocks = Vec::new();
    for i in 0..n {
        if reach[i] {
            map[i] = blocks.len() as u32;
            blocks.push(f.blocks[i].clone());
        }
    }
    let mut orphaned = Vec::new();
    for blk in &mut blocks {
        blk.phis.retain_mut(|p| {
            p.incoming.retain(|(b, _)| reach[b.0 as usize]);
            for (b, _) in &mut p.incoming {
                b.0 = map[b.0 as usize];
            }
            if p.incoming.is_empty() {
                orphaned.push(p.res);
                false
            } else {
                true
            }
        });
        if let Some(t) = blk.insts.last_mut() {
            match t {
                Inst::Br { target } => target.0 = map[target.0 as usize],
                Inst::CondBr {
                    if_true, if_false, ..
                } => {
                    if_true.0 = map[if_true.0 as usize];
                    if_false.0 = map[if_false.0 as usize];
                }
                _ => {}
            }
        }
    }
    for v in orphaned {
        f.values[v.0 as usize].def = ValueDef::Const(0);
    }
    f.blocks = blocks;
}

/// Flips the integer `Add` that defines `res` in function `func` to `Sub`
/// — a stand-in for a single-instruction backend bug, used to prove the
/// harness catches and minimizes real miscompiles. Function names and
/// value ids survive [`minimize`], so the site stays the same while a
/// module shrinks. `None` if `m` has no such `Add`.
pub fn inject_miscompile(m: &Module, func: &str, res: Value) -> Option<Module> {
    let mut out = m.clone();
    let f = out.funcs.iter_mut().find(|f| f.name == func)?;
    for blk in &mut f.blocks {
        for inst in &mut blk.insts {
            if let Inst::Bin { op, res: r, .. } = inst {
                if *r == res && *op == BinOp::Add {
                    *op = BinOp::Sub;
                    return Some(out);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Configuration for one [`run_fuzz`] campaign.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Number of well-formed modules to generate and cross-check.
    pub modules: usize,
    /// Campaign seed; per-module and per-mutant seeds derive from it.
    pub seed: u64,
    /// Invalid mutants derived from each module.
    pub mutants_per_module: usize,
    /// Worker threads of the embedded compile service.
    pub workers: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            modules: 50,
            seed: 0x5EED_CAFE,
            mutants_per_module: 1,
            workers: 2,
        }
    }
}

/// One failure found by [`run_fuzz`]; `seed` + (for mutants) the seed
/// recorded in `detail` reproduce the input via [`gen_module`] /
/// [`mutate_module`].
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The per-module generator seed.
    pub seed: u64,
    /// Failure class, e.g. `"result mismatch"`.
    pub kind: String,
    /// Human-readable specifics (backend kind, values, mutation seed).
    pub detail: String,
    /// IR dump of the offending module.
    pub ir: String,
}

/// Aggregate result of a [`run_fuzz`] campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Well-formed modules generated.
    pub modules: usize,
    /// Total instructions across generated modules.
    pub(crate) total_insts: usize,
    /// Invalid mutants generated.
    pub mutants: usize,
    /// Emulator executions performed.
    pub executed: usize,
    /// Modules compiled through all three paths and compared (one per
    /// module and kind).
    pub compared: usize,
    /// Service admission rejections (must equal `mutants` on a clean run).
    pub rejected_invalid: u64,
    /// Backend panics on verified input (must be 0).
    pub panics_backend: u64,
    /// Watchdog respawns (must be 0).
    pub workers_respawned: u64,
    /// Everything that went wrong; empty on a clean run.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` iff the campaign found nothing.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.panics_backend == 0 && self.workers_respawned == 0
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} modules ({} insts), {} mutants rejected, {} execs, {} byte comparisons, {} failures",
            self.modules, self.total_insts, self.mutants, self.executed, self.compared,
            self.failures.len()
        )
    }
}

/// Runs a differential fuzzing campaign.
///
/// Every generated module must pass the verifier, compile byte-identically
/// through the service, [`compile`] and [`compile_parallel`] at two threads
/// for every kind in [`ALL_KINDS`] (this is the whole AArch64 check — no
/// AArch64 emulator exists), and produce the same executed result for
/// every kind in [`EXEC_KINDS`]. Every mutant must be rejected by the verifier with the
/// matching [`VerifyError`] class and by the service with
/// [`Error::InvalidIr`], without a panic or worker respawn.
pub fn run_fuzz(cfg: &FuzzConfig, exec: ExecFn<'_>) -> FuzzReport {
    let svc = compile_service(ServiceConfig {
        workers: cfg.workers.max(1),
        cache_capacity: 32,
        ..ServiceConfig::default()
    });
    let mut rng = Xoshiro256::new(cfg.seed);
    let mut verifier = Verifier::new();
    let mut rep = FuzzReport::default();
    let opts = CompileOptions::default();

    for _ in 0..cfg.modules {
        let mseed = rng.next_u64();
        let m = gen_module(mseed);
        rep.modules += 1;
        rep.total_insts += m.inst_count();

        if let Err(e) = verifier.verify_module(&mut LlvmAdapter::new(&m)) {
            rep.failures.push(FuzzFailure {
                seed: mseed,
                kind: "generator produced invalid IR".into(),
                detail: e.to_string(),
                ir: m.dump(),
            });
            continue;
        }

        let arc = Arc::new(m);
        let input = mseed & 0x3F;
        let mut reference: Option<(ServiceBackendKind, u64)> = None;
        for kind in ALL_KINDS {
            let resp = svc.compile(Request::new(ModuleRequest::new(Arc::clone(&arc), kind)));
            let served = match resp.module {
                Ok(c) => c,
                Err(e) => {
                    rep.failures.push(FuzzFailure {
                        seed: mseed,
                        kind: "service compile failed".into(),
                        detail: format!("{kind:?}: {e}"),
                        ir: arc.dump(),
                    });
                    continue;
                }
            };
            let (one, par) = match (
                compile(&arc, kind, &opts),
                compile_parallel(&arc, kind, &opts, 2),
            ) {
                (Ok(one), Ok(par)) => (one.buf, par.buf),
                (Err(e), _) | (_, Err(e)) => {
                    rep.failures.push(FuzzFailure {
                        seed: mseed,
                        kind: "direct compile failed".into(),
                        detail: format!("{kind:?}: {e}"),
                        ir: arc.dump(),
                    });
                    continue;
                }
            };
            rep.compared += 1;
            for (path, buf) in [("service", &served.buf), ("compile_parallel", &par)] {
                if !buffers_equal(buf, &one) {
                    rep.failures.push(FuzzFailure {
                        seed: mseed,
                        kind: format!("{path}/compile bytes differ"),
                        detail: format!("{kind:?}"),
                        ir: arc.dump(),
                    });
                }
            }
            if EXEC_KINDS.contains(&kind) {
                match exec(&one, input) {
                    Ok(r) => {
                        rep.executed += 1;
                        match reference {
                            None => reference = Some((kind, r)),
                            Some((k0, r0)) if r0 != r => rep.failures.push(FuzzFailure {
                                seed: mseed,
                                kind: "result mismatch".into(),
                                detail: format!(
                                    "{k0:?} returned {r0:#x}, {kind:?} returned {r:#x} (input {input:#x})"
                                ),
                                ir: arc.dump(),
                            }),
                            Some(_) => {}
                        }
                    }
                    Err(e) => rep.failures.push(FuzzFailure {
                        seed: mseed,
                        kind: "execution failed".into(),
                        detail: format!("{kind:?}: {e}"),
                        ir: arc.dump(),
                    }),
                }
            }
        }

        for _ in 0..cfg.mutants_per_module {
            let mutseed = rng.next_u64();
            let (bad, class) = mutate_module(&arc, mutseed);
            rep.mutants += 1;
            match verifier.verify_module(&mut LlvmAdapter::new(&bad)) {
                Err(e) if corruption_matches(class, &e) => {}
                Err(e) => rep.failures.push(FuzzFailure {
                    seed: mseed,
                    kind: "wrong rejection class".into(),
                    detail: format!("mutation seed {mutseed:#x}, {class:?} rejected as {e}"),
                    ir: bad.dump(),
                }),
                Ok(()) => rep.failures.push(FuzzFailure {
                    seed: mseed,
                    kind: "mutant passed the verifier".into(),
                    detail: format!("mutation seed {mutseed:#x}, {class:?}"),
                    ir: bad.dump(),
                }),
            }
            let resp = svc.compile(Request::new(ModuleRequest::new(
                Arc::new(bad),
                ServiceBackendKind::TpdeX64,
            )));
            match resp.module {
                Err(Error::InvalidIr(_)) => {}
                other => rep.failures.push(FuzzFailure {
                    seed: mseed,
                    kind: "service accepted a mutant".into(),
                    detail: format!(
                        "mutation seed {mutseed:#x}, {class:?}: {:?}",
                        other.map(|c| c.text_size())
                    ),
                    ir: String::new(),
                }),
            }
        }
    }

    let stats = svc.stats();
    rep.rejected_invalid = stats.rejected_invalid;
    rep.panics_backend = stats.panics_backend;
    rep.workers_respawned = stats.workers_respawned;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let a = gen_module(seed);
            let b = gen_module(seed);
            assert_eq!(a.content_hash(), b.content_hash(), "seed {seed}");
            assert_eq!(a.dump(), b.dump(), "seed {seed}");
        }
        assert_ne!(gen_module(1).content_hash(), gen_module(2).content_hash());
    }

    #[test]
    fn generated_modules_pass_the_verifier() {
        let mut v = Verifier::new();
        let mut rng = Xoshiro256::new(7);
        for _ in 0..64 {
            let seed = rng.next_u64();
            let m = gen_module(seed);
            let r = v.verify_module(&mut LlvmAdapter::new(&m));
            assert!(r.is_ok(), "seed {seed:#x}: {:?}\n{}", r, m.dump());
        }
    }

    #[test]
    fn mutants_are_rejected_with_the_matching_class() {
        let mut v = Verifier::new();
        let mut rng = Xoshiro256::new(9);
        for _ in 0..64 {
            let (mseed, cseed) = (rng.next_u64(), rng.next_u64());
            let m = gen_module(mseed);
            let (bad, class) = mutate_module(&m, cseed);
            match v.verify_module(&mut LlvmAdapter::new(&bad)) {
                Err(e) => assert!(
                    corruption_matches(class, &e),
                    "seeds {mseed:#x}/{cseed:#x}: {class:?} rejected as {e}"
                ),
                Ok(()) => panic!(
                    "seeds {mseed:#x}/{cseed:#x}: {class:?} mutant passed\n{}",
                    bad.dump()
                ),
            }
        }
    }

    #[test]
    fn minimizer_shrinks_against_a_structural_predicate() {
        let m = gen_module(0xFEED);
        let before = m.inst_count();
        // "Interesting" = still contains an integer Mul anywhere.
        let has_mul = |m: &Module| {
            m.funcs.iter().any(|f| {
                f.blocks.iter().any(|b| {
                    b.insts
                        .iter()
                        .any(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
                })
            })
        };
        if !has_mul(&m) {
            return; // seed happens to have no Mul; nothing to shrink against
        }
        let small = minimize(&m, &mut |c| has_mul(c), 2000);
        assert!(has_mul(&small));
        assert!(small.inst_count() <= before);
        // The shrunken module must still be well-formed.
        assert!(Verifier::new()
            .verify_module(&mut LlvmAdapter::new(&small))
            .is_ok());
        // And meaningfully smaller: one Mul + its ret at the limit.
        assert!(
            small.inst_count() <= 8,
            "only shrank to {} insts:\n{}",
            small.inst_count(),
            small.dump()
        );
    }

    #[test]
    fn miscompile_injection_flips_one_add() {
        let m = gen_module(3);
        let main = m.funcs.iter().find(|f| f.name == "bench_main").unwrap();
        let add = main.blocks[0].insts.iter().find_map(|i| match *i {
            Inst::Bin {
                op: BinOp::Add,
                res,
                ..
            } => Some(res),
            _ => None,
        });
        let add = add.expect("bench_main always holds an Add");
        let bad = inject_miscompile(&m, "bench_main", add).unwrap();
        assert_ne!(m.content_hash(), bad.content_hash());
        assert!(inject_miscompile(&m, "bench_main", Value(u32::MAX)).is_none());
        // Still valid IR — the bug is semantic, not structural.
        assert!(Verifier::new()
            .verify_module(&mut LlvmAdapter::new(&bad))
            .is_ok());
    }
}
