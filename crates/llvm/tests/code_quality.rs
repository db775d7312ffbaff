//! Code quality, held by tests rather than only by a benchmark run.
//!
//! The ratchet compiles the nine `spec_workloads()` in both IR styles for
//! both targets and asserts that `.text` size, spill stores and reloads are
//! no worse than the recorded values. A change that makes any of them
//! better should lower the table in the same commit; one that makes them
//! worse must be a deliberate trade, re-recorded here with its reason.
//!
//! The snippet tests pin what the x86-64 encoders emit for a stack
//! variable (frame-relative operands, no address materialization), for a
//! GEP folded into the access after it (`[rbp + index*scale + disp]`) and
//! the one `lea` of each GEP that is not, for arithmetic on an operand that
//! lives on (`lea`, three-operand `imul`), for a conditional branch to the
//! next block (one inverted `jcc`) and for loads from stack variables that
//! stay in the variable until their uses (no spill stores at a loop head,
//! the old value read out before a store, and the cases that load at the
//! definition instead); the `Lazy` shapes also run under `x64emu`.

use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_core::jit::link_in_memory;
use tpde_enc::x64::{self, Gp, Mem};
use tpde_llvm::ir::{BinOp, FunctionBuilder, ICmp, Module, Type};
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle};
use tpde_llvm::{compile_a64, compile_x64};
use tpde_x64emu::run_function;

/// `(workload, style, target, text bytes, spills, reloads)`.
type Row = (&'static str, &'static str, &'static str, u64, usize, usize);

const RECORDED: &[Row] = &[
    ("600.perl", "O0", "x64", 5074, 112, 194),
    ("600.perl", "O0", "a64", 8348, 154, 222),
    ("600.perl", "O1", "x64", 4836, 112, 40),
    ("600.perl", "O1", "a64", 6556, 112, 54),
    ("602.gcc", "O0", "x64", 7970, 176, 306),
    ("602.gcc", "O0", "a64", 13020, 242, 350),
    ("602.gcc", "O1", "x64", 7596, 176, 64),
    ("602.gcc", "O1", "a64", 10204, 176, 86),
    ("605.mcf", "O0", "x64", 2465, 16, 14),
    ("605.mcf", "O0", "a64", 5836, 16, 22),
    ("605.mcf", "O1", "x64", 2465, 16, 14),
    ("605.mcf", "O1", "a64", 5836, 16, 22),
    ("620.omnetpp", "O0", "x64", 2580, 36, 34),
    ("620.omnetpp", "O0", "a64", 6220, 36, 52),
    ("620.omnetpp", "O1", "x64", 2544, 36, 34),
    ("620.omnetpp", "O1", "a64", 5500, 36, 52),
    ("623.xalanc", "O0", "x64", 3438, 48, 46),
    ("623.xalanc", "O0", "a64", 8236, 48, 70),
    ("623.xalanc", "O1", "x64", 3390, 48, 46),
    ("623.xalanc", "O1", "a64", 7276, 48, 70),
    ("625.x264", "O0", "x64", 1806, 24, 22),
    ("625.x264", "O0", "a64", 4204, 24, 34),
    ("625.x264", "O1", "x64", 1770, 24, 22),
    ("625.x264", "O1", "a64", 3676, 24, 34),
    ("631.deepsjeng", "O0", "x64", 1506, 20, 18),
    ("631.deepsjeng", "O0", "a64", 3532, 20, 28),
    ("631.deepsjeng", "O1", "x64", 1476, 20, 18),
    ("631.deepsjeng", "O1", "a64", 3092, 20, 28),
    ("641.leela", "O0", "x64", 3276, 20, 28),
    ("641.leela", "O0", "a64", 5052, 30, 38),
    ("641.leela", "O1", "x64", 3276, 20, 28),
    ("641.leela", "O1", "a64", 5052, 30, 38),
    ("657.xz", "O0", "x64", 2772, 18, 16),
    ("657.xz", "O0", "a64", 6544, 18, 25),
    ("657.xz", "O1", "x64", 2772, 18, 16),
    ("657.xz", "O1", "a64", 6544, 18, 25),
];

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    for w in spec_workloads() {
        for (style, sname) in [(IrStyle::O0, "O0"), (IrStyle::O1, "O1")] {
            let module = build_workload(&w, style);
            let opts = CompileOptions::default();
            let targets: [(&str, CompiledModule); 2] = [
                ("x64", compile_x64(&module, &opts).unwrap()),
                ("a64", compile_a64(&module, &opts).unwrap()),
            ];
            for (tname, m) in targets {
                rows.push((
                    w.name,
                    sname,
                    tname,
                    m.text_size(),
                    m.stats.spills,
                    m.stats.reloads,
                ));
            }
        }
    }
    rows
}

#[test]
fn code_size_spills_and_reloads_do_not_regress() {
    let rows = measure();
    for r in &rows {
        println!("    {r:?},");
    }
    assert_eq!(
        rows.len(),
        RECORDED.len(),
        "one recorded row per workload, style and target"
    );
    let mut worse = Vec::new();
    for (got, want) in rows.iter().zip(RECORDED) {
        assert_eq!((got.0, got.1, got.2), (want.0, want.1, want.2), "row order");
        if got.3 > want.3 || got.4 > want.4 || got.5 > want.5 {
            worse.push(format!(
                "{} {} {}: text {} (recorded {}), spills {} ({}), reloads {} ({})",
                got.0, got.1, got.2, got.3, want.3, got.4, want.4, got.5, want.5
            ));
        }
    }
    assert!(
        worse.is_empty(),
        "emitted code got worse than recorded:\n{}\nIf this is a deliberate trade, \
         re-record RECORDED in crates/llvm/tests/code_quality.rs (the rows above \
         are printed with --nocapture) and say why in the commit.",
        worse.join("\n")
    );
}

/// `f(x)`: a 16-byte stack variable; stores `x` to it — through a GEP by
/// `x` if `gep` — and returns what it loads back from there.
fn stack_roundtrip(gep: bool) -> Vec<u8> {
    let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
    let x = b.arg(0);
    let slot = b.alloca(16, 8);
    let addr = if gep {
        b.gep(slot, Some(x), 8, 0)
    } else {
        slot
    };
    b.store(Type::I64, addr, 0, x);
    let v = b.load(Type::I64, addr, 0);
    b.ret(Some(v));
    let mut m = Module::new();
    m.add_function(b.build());
    let compiled = compile_x64(&m, &CompileOptions::default()).unwrap();
    compiled.buf.text().to_vec()
}

fn encode(emit: impl FnOnce(&mut CodeBuffer)) -> Vec<u8> {
    let mut buf = CodeBuffer::new();
    emit(&mut buf);
    buf.text().to_vec()
}

fn contains(text: &[u8], inst: &[u8]) -> bool {
    text.windows(inst.len()).any(|w| w == inst)
}

/// The frame displacements `d` some register is loaded with `lea r, [rbp+d]`.
fn frame_leas(text: &[u8]) -> Vec<i32> {
    (-128..0)
        .filter(|&d| {
            (0..16).any(|r| {
                contains(
                    text,
                    &encode(|b| x64::lea(b, 8, Gp(r), Mem::base_disp(Gp::RBP, d))),
                )
            })
        })
        .collect()
}

/// Whether `x` (in `rdi`) is stored to `[rbp+d]` and some register loaded
/// from there.
fn frame_roundtrip_at(text: &[u8], d: i32) -> bool {
    let mem = Mem::base_disp(Gp::RBP, d);
    contains(text, &encode(|b| x64::mov_mr(b, 8, mem, Gp::RDI)))
        && (0..16).any(|r| contains(text, &encode(|b| x64::mov_rm(b, 8, Gp(r), mem))))
}

#[test]
fn static_stack_variable_is_addressed_frame_relative() {
    let text = stack_roundtrip(false);
    assert_eq!(
        frame_leas(&text),
        Vec::<i32>::new(),
        "no lea of the slot address"
    );
    assert!(
        (-128..0).any(|d| frame_roundtrip_at(&text, d)),
        "store and load address the slot as [rbp+disp]"
    );
}

#[test]
fn gep_derived_address_goes_through_a_base_register() {
    let text = stack_roundtrip(true);
    assert_eq!(frame_leas(&text), Vec::<i32>::new(), "{text:02x?}");
    // `x` arrives in rdi: one `lea r, [rbp + rdi*8 + slot]`
    let leas = frame_indexed_leas(&text);
    assert_eq!(leas.len(), 1, "the GEP is one lea: {text:02x?}");
    let (_, index, scale, disp) = leas[0];
    assert_eq!((index, scale), (Gp::RDI.0, 8));
    assert!(
        !frame_roundtrip_at(&text, disp),
        "the access goes through the computed address, not [rbp+disp]"
    );
}

/// `f(x)`: `if x < 10` branches to a block laid out next, which goes on to
/// the block the false edge reaches; both edges carry no phi moves.
fn branch_to_next_block() -> Vec<u8> {
    let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
    let x = b.arg(0);
    let ten = b.iconst(Type::I64, 10);
    let c = b.icmp(ICmp::Ult, Type::I64, x, ten);
    let (then, join) = (b.create_block(), b.create_block());
    b.cond_br(c, then, join);
    b.switch_to(then);
    b.br(join);
    b.switch_to(join);
    b.ret(Some(x));
    let mut m = Module::new();
    m.add_function(b.build());
    let compiled = compile_x64(&m, &CompileOptions::default()).unwrap();
    compiled.buf.text().to_vec()
}

#[test]
fn a_branch_whose_taken_target_is_next_is_inverted() {
    let text = branch_to_next_block();
    // jb then ; jmp join  becomes  jae join (0f 83), falling into `then`
    assert!(contains(&text, &[0x0f, 0x83]), "{text:02x?}");
    let jccs = text
        .windows(2)
        .filter(|w| w[0] == 0x0f && w[1] & 0xf0 == 0x80);
    assert_eq!(jccs.count(), 1, "one conditional jump: {text:02x?}");
    assert!(!text.contains(&0xe9), "no unconditional jump: {text:02x?}");
}

fn compile_text(b: FunctionBuilder, opts: &CompileOptions) -> Vec<u8> {
    let mut m = Module::new();
    m.add_function(b.build());
    compile_x64(&m, opts).unwrap().buf.text().to_vec()
}

/// How `indexed_store` uses its GEP.
#[derive(Copy, Clone)]
enum GepUse {
    /// The store right after the GEP is its only use.
    Store,
    /// The store is followed by a load through the same GEP.
    StoreAndLoad,
    /// An unrelated instruction sits between the GEP and the store.
    NotAdjacent,
}

/// `f(x, i)`: stores `x` (or `x ^ i`) to element `i` (of size `scale`) of
/// a 64-byte stack array at offset 8, through a GEP used as `how` says,
/// and returns `x + 1`.
fn indexed_store(scale: u32, how: GepUse, opts: &CompileOptions) -> Vec<u8> {
    let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Type::I64);
    let (x, i) = (b.arg(0), b.arg(1));
    let slot = b.alloca(64, 8);
    let addr = b.gep(slot, Some(i), scale, 8);
    let one = b.iconst(Type::I64, 1);
    match how {
        GepUse::Store => b.store(Type::I64, addr, 0, x),
        GepUse::StoreAndLoad => {
            b.store(Type::I64, addr, 0, x);
            b.load(Type::I64, addr, 0);
        }
        GepUse::NotAdjacent => {
            let y = b.bin(BinOp::Xor, Type::I64, x, i);
            b.store(Type::I64, addr, 0, y);
        }
    }
    let r = b.bin(BinOp::Add, Type::I64, x, one);
    b.ret(Some(r));
    compile_text(b, opts)
}

/// The `(destination, index register, scale, disp)` of every
/// `lea r, [rbp + index*scale + disp]` in `text`, for frame displacements
/// -128..0.
fn frame_indexed_leas(text: &[u8]) -> Vec<(u8, u8, u8, i32)> {
    let mut found = Vec::new();
    for index in (0..16).filter(|&r| r != Gp::RSP.0) {
        for scale in [1, 2, 4, 8] {
            for disp in -128..0 {
                let mem = Mem::sib(Gp::RBP, Gp(index), scale, disp);
                for dst in 0..16 {
                    if contains(text, &encode(|b| x64::lea(b, 8, Gp(dst), mem))) {
                        found.push((dst, index, scale, disp));
                    }
                }
            }
        }
    }
    found
}

/// The `(index register, scale, disp)` of every `mov [rbp + r*s + disp], r'`
/// in `text`, for frame displacements -128..0.
fn frame_indexed_stores(text: &[u8]) -> Vec<(u8, u8, i32)> {
    let mut found = Vec::new();
    for index in (0..16).filter(|&r| r != Gp::RSP.0) {
        for scale in [1, 2, 4, 8] {
            for disp in -128..0 {
                let mem = Mem::sib(Gp::RBP, Gp(index), scale, disp);
                if (0..16).any(|r| contains(text, &encode(|b| x64::mov_mr(b, 8, mem, Gp(r))))) {
                    found.push((index, scale, disp));
                }
            }
        }
    }
    found
}

#[test]
fn gep_into_a_stack_array_folds_into_the_store() {
    let text = indexed_store(8, GepUse::Store, &CompileOptions::default());
    let stores = frame_indexed_stores(&text);
    // `i` arrives in rsi; the GEP's +8 is in the displacement
    assert_eq!(stores.len(), 1, "{text:02x?}");
    let (index, scale, disp) = stores[0];
    assert_eq!((index, scale), (Gp::RSI.0, 8));
    let mem = Mem::sib(Gp::RBP, Gp::RSI, 8, disp);
    assert!(contains(
        &text,
        &encode(|b| x64::mov_mr(b, 8, mem, Gp::RDI))
    ));
    assert_eq!(frame_leas(&text), Vec::<i32>::new(), "no lea of the slot");
}

/// The GEP is one `lea r, [rbp + rsi*8 + disp]` (`i` arrives in rsi, the
/// GEP's +8 is in `disp`), and `r` is the base of the store.
fn gep_is_one_indexed_lea(text: &[u8]) {
    assert_eq!(frame_indexed_stores(text), Vec::new(), "{text:02x?}");
    assert_eq!(frame_leas(text), Vec::<i32>::new(), "{text:02x?}");
    let leas = frame_indexed_leas(text);
    assert_eq!(leas.len(), 1, "the GEP computes the address: {text:02x?}");
    let (dst, index, scale, _) = leas[0];
    assert_eq!((index, scale), (Gp::RSI.0, 8));
    let through = |src| encode(|b| x64::mov_mr(b, 8, Mem::base_disp(Gp(dst), 0), src));
    assert!(
        (0..16).any(|r| contains(text, &through(Gp(r)))),
        "the store goes through the lea's result: {text:02x?}"
    );
    let shl = |r| encode(|b| x64::shift_ri(b, x64::Shift::Shl, 8, Gp(r), 3));
    assert!(!(0..16).any(|r| contains(text, &shl(r))), "{text:02x?}");
}

#[test]
fn a_gep_with_two_uses_is_not_folded() {
    let text = indexed_store(8, GepUse::StoreAndLoad, &CompileOptions::default());
    gep_is_one_indexed_lea(&text);
    // lea rax, [rbp + rsi*8 - 96]; mov [rax], rdi; mov rcx, [rax]
    let lea = encode(|b| x64::lea(b, 8, Gp::RAX, Mem::sib(Gp::RBP, Gp::RSI, 8, -96)));
    assert!(contains(&text, &lea), "{text:02x?}");
}

#[test]
fn a_scale_the_addressing_mode_lacks_is_not_folded() {
    let text = indexed_store(16, GepUse::Store, &CompileOptions::default());
    assert_eq!(frame_indexed_stores(&text), Vec::new(), "{text:02x?}");
    assert_eq!(frame_leas(&text).len(), 1, "the GEP computes the address");
}

#[test]
fn a_gep_whose_access_is_not_next_is_not_folded() {
    let text = indexed_store(8, GepUse::NotAdjacent, &CompileOptions::default());
    gep_is_one_indexed_lea(&text);
}

#[test]
fn without_fusion_a_gep_is_not_folded() {
    let opts = CompileOptions {
        fusion: false,
        ..CompileOptions::default()
    };
    let text = indexed_store(8, GepUse::Store, &opts);
    gep_is_one_indexed_lea(&text);
}

/// `f(x, y) = (x op rhs) ^ x`, where `rhs` is `y` or the constant `imm`:
/// `x` lives on after the operation.
fn op_on_live_operand(op: BinOp, imm: Option<i64>) -> Vec<u8> {
    let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Type::I64);
    let x = b.arg(0);
    let rhs = match imm {
        Some(v) => b.iconst(Type::I64, v),
        None => b.arg(1),
    };
    let r = b.bin(op, Type::I64, x, rhs);
    let r = b.bin(BinOp::Xor, Type::I64, r, x);
    b.ret(Some(r));
    compile_text(b, &CompileOptions::default())
}

/// Whether some register is written by `emit(dst)` in `text`, and `x` (in
/// `rdi`) is never copied to another register.
fn one_instruction_no_copy(text: &[u8], emit: impl Fn(&mut CodeBuffer, Gp)) -> bool {
    let copies = (0..16).any(|r| contains(text, &encode(|b| x64::mov_rr(b, 8, Gp(r), Gp::RDI))));
    !copies && (0..16).any(|r| contains(text, &encode(|b| emit(b, Gp(r)))))
}

#[test]
fn add_and_sub_of_an_immediate_on_a_live_operand_are_one_lea() {
    let add = op_on_live_operand(BinOp::Add, Some(40));
    assert!(
        one_instruction_no_copy(&add, |b, dst| x64::lea(
            b,
            8,
            dst,
            Mem::base_disp(Gp::RDI, 40)
        )),
        "{add:02x?}"
    );
    let sub = op_on_live_operand(BinOp::Sub, Some(40));
    assert!(
        one_instruction_no_copy(&sub, |b, dst| x64::lea(
            b,
            8,
            dst,
            Mem::base_disp(Gp::RDI, -40)
        )),
        "{sub:02x?}"
    );
}

#[test]
fn add_of_a_register_on_a_live_operand_is_one_lea() {
    let text = op_on_live_operand(BinOp::Add, None);
    assert!(
        one_instruction_no_copy(&text, |b, dst| x64::lea(
            b,
            8,
            dst,
            Mem::sib(Gp::RDI, Gp::RSI, 1, 0)
        )),
        "{text:02x?}"
    );
}

#[test]
fn multiply_by_an_immediate_on_a_live_operand_is_three_operand_imul() {
    let text = op_on_live_operand(BinOp::Mul, Some(7));
    assert!(
        one_instruction_no_copy(&text, |b, dst| x64::imul_rri(b, 8, dst, Gp::RDI, 7)),
        "{text:02x?}"
    );
}

/// O0-style functions `f(n)` over 8-byte stack variables that are only
/// loaded and stored whole, the shapes x86-64's lazy stack loads
/// (`SnippetEmitter::LAZY_STACK_LOADS`) must get right.
#[derive(Copy, Clone, Debug)]
enum Lazy {
    /// A counted loop whose head loads three variables and whose body
    /// stores them back: `s = n, a = 0; 10 times { a += s; s *= 3 }`,
    /// returns `a`.
    LoopHead,
    /// `x = load A; store A, 100; x - load A` in one block.
    ClobberBeforeStore,
    /// `x = load A` in the entry, a store to `A` on one arm of a diamond,
    /// `x + 1` at the join: the store sits inside `x`'s live range.
    MidRangeStore,
    /// `x = load A; store (gep A), 1000; x + 1`: `A`'s address escapes.
    Escaped,
    /// `x = load A; store A, x; x + 1`.
    StoreBack,
}

impl Lazy {
    const ALL: [Lazy; 5] = [
        Lazy::LoopHead,
        Lazy::ClobberBeforeStore,
        Lazy::MidRangeStore,
        Lazy::Escaped,
        Lazy::StoreBack,
    ];

    fn module(self) -> Module {
        let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
        let n = b.arg(0);
        let var = b.alloca(8, 8);
        b.store(Type::I64, var, 0, n);
        let r = match self {
            Lazy::LoopHead => {
                let (acc, i) = (b.alloca(8, 8), b.alloca(8, 8));
                let zero = b.iconst(Type::I64, 0);
                b.store(Type::I64, acc, 0, zero);
                b.store(Type::I64, i, 0, zero);
                let (head, body, exit) = (b.create_block(), b.create_block(), b.create_block());
                b.br(head);
                b.switch_to(head);
                let (vs, va, vi) = (
                    b.load(Type::I64, var, 0),
                    b.load(Type::I64, acc, 0),
                    b.load(Type::I64, i, 0),
                );
                let ten = b.iconst(Type::I64, 10);
                let done = b.icmp(ICmp::Eq, Type::I64, vi, ten);
                b.cond_br(done, exit, body);
                b.switch_to(body);
                let three = b.iconst(Type::I64, 3);
                let ns = b.bin(BinOp::Mul, Type::I64, vs, three);
                let na = b.bin(BinOp::Add, Type::I64, va, vs);
                let one = b.iconst(Type::I64, 1);
                let ni = b.bin(BinOp::Add, Type::I64, vi, one);
                b.store(Type::I64, var, 0, ns);
                b.store(Type::I64, acc, 0, na);
                b.store(Type::I64, i, 0, ni);
                b.br(head);
                b.switch_to(exit);
                b.load(Type::I64, acc, 0)
            }
            Lazy::ClobberBeforeStore => {
                let x = b.load(Type::I64, var, 0);
                let hundred = b.iconst(Type::I64, 100);
                b.store(Type::I64, var, 0, hundred);
                let z = b.load(Type::I64, var, 0);
                b.bin(BinOp::Sub, Type::I64, x, z)
            }
            Lazy::MidRangeStore => {
                let x = b.load(Type::I64, var, 0);
                let hundred = b.iconst(Type::I64, 100);
                let small = b.icmp(ICmp::Ult, Type::I64, n, hundred);
                let (arm, join) = (b.create_block(), b.create_block());
                b.cond_br(small, arm, join);
                b.switch_to(arm);
                let big = b.iconst(Type::I64, 1000);
                b.store(Type::I64, var, 0, big);
                b.br(join);
                b.switch_to(join);
                let one = b.iconst(Type::I64, 1);
                b.bin(BinOp::Add, Type::I64, x, one)
            }
            Lazy::Escaped => {
                let ptr = b.gep(var, None, 0, 0);
                let x = b.load(Type::I64, var, 0);
                let big = b.iconst(Type::I64, 1000);
                b.store(Type::I64, ptr, 0, big);
                let one = b.iconst(Type::I64, 1);
                b.bin(BinOp::Add, Type::I64, x, one)
            }
            Lazy::StoreBack => {
                let x = b.load(Type::I64, var, 0);
                b.store(Type::I64, var, 0, x);
                let one = b.iconst(Type::I64, 1);
                b.bin(BinOp::Add, Type::I64, x, one)
            }
        };
        b.ret(Some(r));
        let mut m = Module::new();
        m.add_function(b.build());
        m
    }

    /// What `f(n)` returns.
    fn expected(self, n: u64) -> u64 {
        match self {
            Lazy::LoopHead => {
                let (mut s, mut a) = (n, 0u64);
                for _ in 0..10 {
                    a = a.wrapping_add(s);
                    s = s.wrapping_mul(3);
                }
                a
            }
            Lazy::ClobberBeforeStore => n.wrapping_sub(100),
            Lazy::MidRangeStore | Lazy::Escaped | Lazy::StoreBack => n.wrapping_add(1),
        }
    }

    fn compile(self) -> CompiledModule {
        compile_x64(&self.module(), &CompileOptions::default()).unwrap()
    }
}

/// The offset in `text` of the first instruction `emit` encodes for some
/// register `r`.
fn find(text: &[u8], emit: impl Fn(&mut CodeBuffer, Gp)) -> Option<usize> {
    (0..16)
        .filter_map(|r| {
            let inst = encode(|b| emit(b, Gp(r)));
            text.windows(inst.len()).position(|w| w == inst)
        })
        .min()
}

/// The frame displacements -128..0 that `text` stores 8 bytes to, from a
/// register or as the immediate 0.
fn frame_stores(text: &[u8]) -> Vec<i32> {
    (-128..0)
        .filter(|&d| {
            let mem = Mem::base_disp(Gp::RBP, d);
            contains(text, &encode(|b| x64::mov_mi(b, 8, mem, 0)))
                || find(text, |b, r| x64::mov_mr(b, 8, mem, r)).is_some()
        })
        .collect()
}

/// The displacement of the first stack variable of a [`Lazy`] function:
/// where `n` (in rdi) is stored first.
fn var_disp(text: &[u8]) -> i32 {
    (-128..0)
        .find(|&d| {
            contains(
                text,
                &encode(|b| x64::mov_mr(b, 8, Mem::base_disp(Gp::RBP, d), Gp::RDI)),
            )
        })
        .expect("n is stored to its variable")
}

#[test]
fn lazy_stack_loads_compute_the_right_results() {
    for shape in Lazy::ALL {
        let compiled = shape.compile();
        let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
        for n in [7, 0, u64::MAX] {
            let (got, _) = run_function(&image, "f", &[n]).expect("execution");
            assert_eq!(got, shape.expected(n), "{shape:?}({n})");
        }
    }
}

#[test]
fn a_loop_head_loads_nothing_and_spills_nothing() {
    let m = Lazy::LoopHead.compile();
    let text = m.buf.text();
    assert_eq!(m.stats.spills, 0, "{text:02x?}");
    assert_eq!(
        frame_stores(text).len(),
        3,
        "only the three variables are written: {text:02x?}"
    );
}

#[test]
fn a_store_reads_the_old_value_out_of_its_home_first() {
    let text = Lazy::ClobberBeforeStore.compile().buf.text().to_vec();
    let mem = Mem::base_disp(Gp::RBP, var_disp(&text));
    let load = find(&text, |b, r| x64::mov_rm(b, 8, r, mem)).expect("x is loaded");
    let store = encode(|b| x64::mov_mi(b, 8, mem, 100));
    let store = text.windows(store.len()).position(|w| w == store);
    assert!(store.is_some_and(|s| load < s), "{text:02x?}");
}

#[test]
fn a_store_inside_the_live_range_keeps_the_load_at_its_definition() {
    let text = Lazy::MidRangeStore.compile().buf.text().to_vec();
    let mem = Mem::base_disp(Gp::RBP, var_disp(&text));
    let load = find(&text, |b, r| x64::mov_rm(b, 8, r, mem)).expect("x is loaded");
    let jcc = text
        .windows(2)
        .position(|w| w[0] == 0x0f && w[1] & 0xf0 == 0x80);
    assert!(
        jcc.is_some_and(|j| load < j),
        "loaded before the branch: {text:02x?}"
    );
}

#[test]
fn an_escaped_variable_is_loaded_at_the_load() {
    let text = Lazy::Escaped.compile().buf.text().to_vec();
    let mem = Mem::base_disp(Gp::RBP, var_disp(&text));
    let load = find(&text, |b, r| x64::mov_rm(b, 8, r, mem)).expect("x is loaded");
    let store = find(&text, |b, r| x64::mov_mi(b, 8, Mem::base_disp(r, 0), 1000));
    assert!(store.is_some_and(|s| load < s), "{text:02x?}");
}

#[test]
fn storing_a_value_back_to_its_home_emits_nothing() {
    let text = Lazy::StoreBack.compile().buf.text().to_vec();
    assert_eq!(frame_stores(&text), [var_disp(&text)], "{text:02x?}");
}
