//! The persisted keys, pinned, and the quality the caches rely on.
//!
//! `StableHasher`, `Module::content_hash` and `request_key` name artifacts on
//! disk that outlive the binary that wrote them, and a cache hit is trusted
//! on the 64-bit key alone. So the values are fixed here, to the bit, and the
//! key is shown to separate near-identical modules.
//!
//! **Changing any of the constants below requires bumping
//! `diskcache::FORMAT_VERSION`.** So does a change to the bytes the compiler
//! emits, although no constant here moves: the keys name the request, and
//! an artifact stored under one must hold what the current compiler emits
//! for it.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;
use tpde_core::hash::StableHasher;
use tpde_core::service::ServiceBackend;
use tpde_llvm::backend::LlvmServiceBackend;
use tpde_llvm::fuzz::gen_module;
use tpde_llvm::ir::{
    BinOp, Block, FBinOp, FCmp, FuncId, FunctionBuilder, ICmp, Inst, Module, ShiftKind, Type,
    Value, ValueDef, ValueInfo,
};
use tpde_llvm::{ModuleRequest, ServiceBackendKind};

fn hash_with(feed: impl FnOnce(&mut StableHasher)) -> u64 {
    let mut h = StableHasher::new();
    feed(&mut h);
    h.finish()
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    StableHasher::hash_bytes(bytes)
}

/// A declaration, an internal loop kernel over a stack slot and an FP
/// `main` calling both: every instruction variant, a phi, every `ValueDef`.
fn three_function_module() -> Module {
    let mut m = Module::new();
    let ext = m.declare("ext_sink", vec![Type::I64, Type::Ptr], Type::Void);

    let mut b = FunctionBuilder::new("kernel", &[Type::I64, Type::I32], Type::I64);
    b.set_internal();
    let slot = b.alloca(64, 16);
    let (head, body, exit) = (b.create_block(), b.create_block(), b.create_block());
    let zero = b.iconst(Type::I64, 0);
    let wide = b.cast(true, Type::I32, Type::I64, b.arg(1));
    b.store(Type::I64, slot, 8, wide);
    b.br(head);
    b.switch_to(head);
    let i = b.phi(Type::I64);
    let acc = b.phi(Type::I64);
    let more = b.icmp(ICmp::Ult, Type::I64, i, b.arg(0));
    b.cond_br(more, body, exit);
    b.switch_to(body);
    let addr = b.gep(slot, Some(i), 8, -16);
    let x = b.load(Type::I64, addr, 24);
    let three = b.iconst(Type::I64, 3);
    let q = b.div(false, true, Type::I64, x, three);
    let s = b.shift(ShiftKind::AShr, Type::I64, q, three);
    let sum = b.bin(BinOp::Xor, Type::I64, acc, s);
    let one = b.iconst(Type::I64, 1);
    let next = b.bin(BinOp::Add, Type::I64, i, one);
    b.br(head);
    b.switch_to(exit);
    b.call_void(ext, vec![acc, slot]);
    b.ret(Some(acc));
    b.phi_add_incoming(i, Block(0), zero);
    b.phi_add_incoming(i, body, next);
    b.phi_add_incoming(acc, Block(0), zero);
    b.phi_add_incoming(acc, body, sum);
    let kernel = m.add_function(b.build());

    let mut b = FunctionBuilder::new("bench_main", &[Type::I64], Type::I64);
    let seven = b.iconst(Type::I32, 7);
    let r = b.call(kernel, Type::I64, vec![b.arg(0), seven]);
    let f = b.int_to_fp(Type::I64, Type::F64, r);
    let half = b.fconst(0.5);
    let g = b.fbin(FBinOp::Mul, Type::F64, f, half);
    let lt = b.fcmp(FCmp::Olt, Type::F64, f, g);
    let t = b.fp_to_int(Type::F64, Type::I64, g);
    let pick = b.select(Type::I64, lt, t, r);
    b.ret(Some(pick));
    // The builder has no `fneg` or `fp_convert`: spliced in before the `ret`.
    let mut main = b.build();
    let n = main.values.len() as u32;
    for ty in [Type::F64, Type::F32] {
        main.values.push(ValueInfo {
            ty,
            def: ValueDef::Inst,
        });
    }
    let ret = main.blocks[0].insts.pop().expect("the ret");
    main.blocks[0].insts.extend([
        Inst::Fneg {
            ty: Type::F64,
            res: Value(n),
            v: g,
        },
        Inst::FpConvert {
            from: Type::F64,
            to: Type::F32,
            res: Value(n + 1),
            v: Value(n),
        },
        ret,
    ]);
    m.add_function(main);
    m
}

// Changing any of these requires bumping `diskcache::FORMAT_VERSION`.
#[test]
fn hasher_values_are_pinned() {
    let kib4: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    assert_eq!(hash_bytes(&[]), 0xac9d_d0e8_0859_5954, "empty");
    assert_eq!(hash_bytes(&[0x5a]), 0x36d9_36d3_e5fd_4fc8, "1 byte");
    assert_eq!(hash_bytes(b"tpde-rs"), 0x6f19_8d96_456c_758c, "7 bytes");
    assert_eq!(hash_bytes(b"TPDEART\0"), 0x6504_01ea_728c_6226, "8 bytes");
    assert_eq!(hash_bytes(&kib4), 0xc1c8_5bf1_e5e1_2d99, "4 KiB");
    let ints = hash_with(|h| {
        h.write_u32(0xdead_beef);
        h.write_u64(0x0123_4567_89ab_cdef);
        h.write_usize(42);
    });
    assert_eq!(ints, 0x589e_f13a_2ddc_984b, "u32, u64, usize");
}

// Changing any of these requires bumping `diskcache::FORMAT_VERSION`.
#[test]
fn module_and_request_keys_are_pinned() {
    let m = Arc::new(three_function_module());
    assert_eq!(m.content_hash(), 0x2de2_dc99_dae3_77b5, "content_hash");
    let key = |kind| {
        LlvmServiceBackend
            .request_key(&ModuleRequest::new(Arc::clone(&m), kind))
            .expect("module requests are cacheable")
    };
    assert_eq!(
        key(ServiceBackendKind::TpdeX64),
        0x5caa_cd81_6a09_1e33,
        "TpdeX64"
    );
    assert_eq!(
        key(ServiceBackendKind::TpdeA64),
        0xadf7_d5be_408f_cd6d,
        "TpdeA64"
    );
    assert_eq!(
        key(ServiceBackendKind::BaselineO0),
        0xd97d_c07a_bb64_2fb6,
        "BaselineO0"
    );
}

#[test]
fn keys_do_not_depend_on_pointer_width() {
    for v in [0u64, 1, 42, u32::MAX as u64] {
        assert_eq!(
            hash_with(|h| h.write_usize(v as usize)),
            hash_with(|h| h.write_u64(v)),
            "usize vs u64 of {v}"
        );
    }
    assert_eq!(
        hash_with(|h| h.write_isize(-3)),
        hash_with(|h| h.write_i64(-3))
    );
}

/// Every single-field edit of `m` the issue names, each a distinct module.
fn single_field_edits(m: &Module) -> Vec<(&'static str, Module)> {
    let mut out = Vec::new();
    let mut edit = |what, f: &dyn Fn(&mut Module) -> bool| {
        let mut e = m.clone();
        if f(&mut e) {
            out.push((what, e));
        }
    };
    // The last function is `bench_main`: always a body with instructions.
    let last = m.funcs.len() - 1;
    edit("operand id", &|m| {
        let f = &mut m.funcs[last];
        let other = Value(f.values.len() as u32 - 1);
        let mut done = false;
        for inst in f.blocks.iter_mut().flat_map(|b| &mut b.insts) {
            inst.visit_operands_mut(|v| {
                if !done && *v != other {
                    *v = other;
                    done = true;
                }
            });
        }
        done
    });
    edit("type", &|m| {
        let v = &mut m.funcs[last].values[0];
        v.ty = if v.ty == Type::I32 {
            Type::I64
        } else {
            Type::I32
        };
        true
    });
    edit("constant", &|m| {
        for v in &mut m.funcs[last].values {
            if let ValueDef::Const(bits) = &mut v.def {
                *bits ^= 1;
                return true;
            }
        }
        false
    });
    edit("branch target", &|m| {
        let f = &mut m.funcs[last];
        let nblocks = f.blocks.len() as u32;
        let insts = f.blocks.iter_mut().flat_map(|b| &mut b.insts);
        for inst in insts {
            if let Inst::Br { target } = inst {
                target.0 = (target.0 + 1) % nblocks.max(2);
                return true;
            }
        }
        false
    });
    edit("adjacent instructions swapped", &|m| {
        for b in &mut m.funcs[last].blocks {
            for i in 1..b.insts.len() {
                if b.insts[i - 1] != b.insts[i] {
                    b.insts.swap(i - 1, i);
                    return true;
                }
            }
        }
        false
    });
    edit("function renamed", &|m| {
        m.funcs[0].name.push('x');
        true
    });
    edit("internal flipped", &|m| {
        m.funcs[0].internal ^= true;
        true
    });
    edit("stack slot resized", &|m| {
        let mut slots = m.funcs.iter_mut().flat_map(|f| &mut f.stack_slots);
        slots.next().map(|s| s.0 += 8).is_some()
    });
    out
}

#[test]
fn near_identical_modules_get_distinct_keys() {
    let mut seen: HashMap<u64, String> = HashMap::new();
    let mut claim = |hash: u64, who: String| {
        if let Some(other) = seen.insert(hash, who.clone()) {
            panic!("{who} and {other} share content hash {hash:#018x}");
        }
    };
    let mut edits = 0;
    for seed in 0..1500u64 {
        let m = gen_module(seed);
        claim(m.content_hash(), format!("seed {seed}"));
        if seed < 50 {
            for (what, e) in single_field_edits(&m) {
                claim(e.content_hash(), format!("seed {seed} with {what}"));
                edits += 1;
            }
        }
    }
    assert!(edits >= 50 * 6, "only {edits} edits applied");
}

#[test]
fn one_input_bit_flips_half_the_output_bits() {
    // Over byte slices of every tail length and the four-lane path, and over
    // word writes: the mean number of flipped output bits per flipped input
    // bit must sit around 32.
    let mut flips = 0u64;
    let mut trials = 0u64;
    for len in [1usize, 7, 8, 9, 31, 32, 33, 100] {
        let base: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
        let h0 = hash_bytes(&base);
        for bit in 0..len * 8 {
            let mut b = base.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            flips += (h0 ^ hash_bytes(&b)).count_ones() as u64;
            trials += 1;
        }
    }
    let words = [0u64, 1, 0x8000_0000_0000_0000, 0x0123_4567_89ab_cdef];
    let feed = |ws: &[u64]| hash_with(|h| ws.iter().for_each(|&w| h.write_u64(w)));
    let h0 = feed(&words);
    for bit in 0..words.len() * 64 {
        let mut w = words;
        w[bit / 64] ^= 1 << (bit % 64);
        flips += (h0 ^ feed(&w)).count_ones() as u64;
        trials += 1;
    }
    let mean = flips as f64 / trials as f64;
    assert!((24.0..=40.0).contains(&mean), "mean flipped bits {mean:.1}");
}

#[test]
fn module_edit_flips_half_the_key_bits() {
    // The same through the packed IR encoding: one flipped constant bit.
    let (mut flips, mut trials) = (0u64, 0u64);
    for seed in 0..50u64 {
        let m = gen_module(seed);
        let h0 = m.content_hash();
        for bit in [0, 1, 17, 31, 32, 63] {
            let mut e = m.clone();
            let c = e
                .funcs
                .iter_mut()
                .flat_map(|f| &mut f.values)
                .find_map(|v| match &mut v.def {
                    ValueDef::Const(bits) => Some(bits),
                    _ => None,
                });
            let Some(c) = c else { continue };
            *c ^= 1 << bit;
            flips += (h0 ^ e.content_hash()).count_ones() as u64;
            trials += 1;
        }
    }
    let mean = flips as f64 / trials as f64;
    assert!(trials >= 200, "only {trials} trials");
    assert!((24.0..=40.0).contains(&mean), "mean flipped bits {mean:.1}");
}

#[test]
fn callee_and_function_order_are_part_of_the_key() {
    let m = three_function_module();
    let h0 = m.content_hash();
    let mut swapped = m.clone();
    swapped.funcs.swap(0, 1);
    assert_ne!(h0, swapped.content_hash(), "function order");
    let mut retarget = m.clone();
    for inst in retarget.funcs[2]
        .blocks
        .iter_mut()
        .flat_map(|b| &mut b.insts)
    {
        if let Inst::Call { callee, .. } = inst {
            *callee = FuncId(0);
        }
    }
    assert_ne!(h0, retarget.content_hash(), "call target");
}
