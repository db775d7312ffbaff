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
//! definition instead), and around branches and joins (no store before a
//! branch for a value only the fall-through successor reads, the store
//! kept for one the taken successor reads and before a back edge, a
//! five-arm join whose phi arrives in a register, the phis that keep their
//! slot, and an operation on two constants as one `mov`), for stack
//! variables that live in callee-saved registers (a loop with no frame
//! access, one `mov` out of the register before a store, an escaped
//! variable that stays in the frame, a variable live across a call) and
//! for a commutative operation done in its dying right operand's register;
//! the `Lazy` and `Flow` shapes also run under `x64emu`.

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
    ("600.perl", "O0", "x64", 4282, 28, 13),
    ("600.perl", "O0", "a64", 6072, 140, 222),
    ("600.perl", "O1", "x64", 4296, 28, 13),
    ("600.perl", "O1", "a64", 4616, 98, 54),
    ("602.gcc", "O0", "x64", 6722, 44, 21),
    ("602.gcc", "O0", "a64", 9528, 220, 350),
    ("602.gcc", "O1", "x64", 6744, 44, 21),
    ("602.gcc", "O1", "a64", 7240, 154, 86),
    ("605.mcf", "O0", "x64", 1967, 16, 7),
    ("605.mcf", "O0", "a64", 4536, 16, 22),
    ("605.mcf", "O1", "x64", 1967, 16, 7),
    ("605.mcf", "O1", "a64", 4536, 16, 22),
    ("620.omnetpp", "O0", "x64", 2442, 36, 17),
    ("620.omnetpp", "O0", "a64", 3408, 36, 52),
    ("620.omnetpp", "O1", "x64", 2424, 36, 17),
    ("620.omnetpp", "O1", "a64", 2976, 36, 52),
    ("623.xalanc", "O0", "x64", 3252, 48, 23),
    ("623.xalanc", "O0", "a64", 4536, 48, 70),
    ("623.xalanc", "O1", "x64", 3228, 48, 23),
    ("623.xalanc", "O1", "a64", 3960, 48, 70),
    ("625.x264", "O0", "x64", 1740, 24, 11),
    ("625.x264", "O0", "a64", 2280, 24, 34),
    ("625.x264", "O1", "x64", 1740, 24, 11),
    ("625.x264", "O1", "a64", 1944, 24, 34),
    ("631.deepsjeng", "O0", "x64", 1452, 20, 9),
    ("631.deepsjeng", "O0", "a64", 1904, 20, 28),
    ("631.deepsjeng", "O1", "x64", 1452, 20, 9),
    ("631.deepsjeng", "O1", "a64", 1624, 20, 28),
    ("641.leela", "O0", "x64", 3172, 20, 9),
    ("641.leela", "O0", "a64", 3424, 30, 38),
    ("641.leela", "O1", "x64", 3172, 20, 9),
    ("641.leela", "O1", "a64", 3424, 30, 38),
    ("657.xz", "O0", "x64", 2211, 18, 8),
    ("657.xz", "O0", "a64", 5100, 18, 25),
    ("657.xz", "O1", "x64", 2211, 18, 8),
    ("657.xz", "O1", "a64", 5100, 18, 25),
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

/// `f(x, y) = (x op rhs) ^ x`, where `rhs` is the constant `imm`, or `y`,
/// and then the result is also xored with `y`: `x`, and `y` as `rhs`, live
/// on after the operation.
fn op_on_live_operand(op: BinOp, imm: Option<i64>) -> Vec<u8> {
    let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Type::I64);
    let x = b.arg(0);
    let rhs = match imm {
        Some(v) => b.iconst(Type::I64, v),
        None => b.arg(1),
    };
    let r = b.bin(op, Type::I64, x, rhs);
    let mut r = b.bin(BinOp::Xor, Type::I64, r, x);
    if imm.is_none() {
        r = b.bin(BinOp::Xor, Type::I64, r, rhs);
    }
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
fn a_commutative_op_works_in_the_register_of_its_dying_right_operand() {
    // f(x, y) = (x op (y >> 1)) ^ x: `y >> 1` dies in a register, `x`
    // (in rdi) lives on
    for op in [BinOp::Add, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Mul] {
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Type::I64);
        let (x, y) = (b.arg(0), b.arg(1));
        let one = b.iconst(Type::I64, 1);
        let half = b.shift(tpde_llvm::ir::ShiftKind::LShr, Type::I64, y, one);
        let r = b.bin(op, Type::I64, x, half);
        let r = b.bin(BinOp::Xor, Type::I64, r, x);
        b.ret(Some(r));
        let text = compile_text(b, &CompileOptions::default());
        let alu = match op {
            BinOp::Add => Some(x64::Alu::Add),
            BinOp::And => Some(x64::Alu::And),
            BinOp::Or => Some(x64::Alu::Or),
            BinOp::Xor => Some(x64::Alu::Xor),
            _ => None,
        };
        let into_rhs = one_instruction_no_copy(&text, |b, dst| match alu {
            Some(alu) => x64::alu_rr(b, alu, 8, dst, Gp::RDI),
            None => x64::imul_rr(b, 8, dst, Gp::RDI),
        });
        assert!(into_rhs, "{op:?}: {text:02x?}");
    }
}

#[test]
fn multiply_by_an_immediate_on_a_live_operand_is_three_operand_imul() {
    let text = op_on_live_operand(BinOp::Mul, Some(7));
    assert!(
        one_instruction_no_copy(&text, |b, dst| x64::imul_rri(b, 8, dst, Gp::RDI, 7)),
        "{text:02x?}"
    );
}

/// O0-style functions `f(n)` over stack variables of which only the first
/// 8 bytes are loaded and stored, the shapes x86-64's lazy stack loads
/// (`SnippetEmitter::LAZY_STACK_LOADS`) must get right. With [`WIDE`]
/// variables the loads wait in the frame; with [`SCALAR`] ones, which are
/// accessed whole, a variable that does not escape lives in a callee-saved
/// register instead and its loads wait there.
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
    /// `c = g(n)` with `g(v) = 2v + 1` between the store of `n` to `A` and
    /// `x = load A`; returns `x + c`.
    AcrossCall,
}

/// A variable of 16 bytes, accessed in its first 8: it stays in the frame.
const WIDE: u32 = 16;
/// A variable of 8 bytes, accessed whole: it may live in a register.
const SCALAR: u32 = 8;

impl Lazy {
    const ALL: [Lazy; 6] = [
        Lazy::LoopHead,
        Lazy::ClobberBeforeStore,
        Lazy::MidRangeStore,
        Lazy::Escaped,
        Lazy::StoreBack,
        Lazy::AcrossCall,
    ];

    /// The shape over variables of `width` bytes.
    fn module(self, width: u32) -> Module {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new("g", &[Type::I64], Type::I64);
        let (two, one) = (g.iconst(Type::I64, 2), g.iconst(Type::I64, 1));
        let d = g.bin(BinOp::Mul, Type::I64, g.arg(0), two);
        let r = g.bin(BinOp::Add, Type::I64, d, one);
        g.ret(Some(r));
        let g = m.add_function(g.build());

        let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
        let n = b.arg(0);
        let var = b.alloca(width, 8);
        b.store(Type::I64, var, 0, n);
        let r = match self {
            Lazy::LoopHead => {
                let (acc, i) = (b.alloca(width, 8), b.alloca(width, 8));
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
            Lazy::AcrossCall => {
                let c = b.call(g, Type::I64, vec![n]);
                let x = b.load(Type::I64, var, 0);
                b.bin(BinOp::Add, Type::I64, x, c)
            }
        };
        b.ret(Some(r));
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
            Lazy::AcrossCall => n.wrapping_mul(3).wrapping_add(1),
        }
    }

    fn compile(self, width: u32) -> CompiledModule {
        compile_x64(&self.module(width), &CompileOptions::default()).unwrap()
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
    for (shape, width) in Lazy::ALL.into_iter().flat_map(|s| [(s, WIDE), (s, SCALAR)]) {
        let compiled = shape.compile(width);
        let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
        for n in [7, 0, u64::MAX] {
            let (got, _) = run_function(&image, "f", &[n]).expect("execution");
            assert_eq!(got, shape.expected(n), "{shape:?}/{width}({n})");
        }
    }
}

#[test]
fn a_loop_head_loads_nothing_and_spills_nothing() {
    let m = Lazy::LoopHead.compile(WIDE);
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
    let text = Lazy::ClobberBeforeStore.compile(WIDE).buf.text().to_vec();
    let mem = Mem::base_disp(Gp::RBP, var_disp(&text));
    let load = find(&text, |b, r| x64::mov_rm(b, 8, r, mem)).expect("x is loaded");
    let store = encode(|b| x64::mov_mi(b, 8, mem, 100));
    let store = text.windows(store.len()).position(|w| w == store);
    assert!(store.is_some_and(|s| load < s), "{text:02x?}");
}

#[test]
fn a_store_inside_the_live_range_keeps_the_load_at_its_definition() {
    let text = Lazy::MidRangeStore.compile(WIDE).buf.text().to_vec();
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
    let text = Lazy::Escaped.compile(WIDE).buf.text().to_vec();
    let mem = Mem::base_disp(Gp::RBP, var_disp(&text));
    let load = find(&text, |b, r| x64::mov_rm(b, 8, r, mem)).expect("x is loaded");
    let store = find(&text, |b, r| x64::mov_mi(b, 8, Mem::base_disp(r, 0), 1000));
    assert!(store.is_some_and(|s| load < s), "{text:02x?}");
}

#[test]
fn storing_a_value_back_to_its_home_emits_nothing() {
    let text = Lazy::StoreBack.compile(WIDE).buf.text().to_vec();
    assert_eq!(frame_stores(&text), [var_disp(&text)], "{text:02x?}");
}

/// The callee-save slot `[rbp - 8(i+1)]` of `SAVE[i]`: the prologue saves
/// a used callee-saved register there and the epilogue restores it.
const SAVE: [Gp; 5] = [Gp::RBX, Gp(12), Gp(13), Gp(14), Gp(15)];

/// The callee-saved registers `text` saves in its prologue.
fn saved_regs(text: &[u8]) -> Vec<Gp> {
    let slot = |i: usize| Mem::base_disp(Gp::RBP, -8 * (i as i32 + 1));
    (0..SAVE.len())
        .filter(|&i| contains(text, &encode(|b| x64::mov_mr(b, 8, slot(i), SAVE[i]))))
        .map(|i| SAVE[i])
        .collect()
}

/// Whether every frame access in `text` is a save or restore of a
/// callee-saved register.
fn frame_holds_only_saves(text: &[u8]) -> bool {
    let n = saved_regs(text).len() as i32;
    let saves: Vec<i32> = (1..=n).rev().map(|i| -8 * i).collect();
    frame_stores(text) == saves && frame_loads(text) == saves
}

#[test]
fn a_loop_over_register_variables_touches_no_frame_slot() {
    let m = Lazy::LoopHead.compile(SCALAR);
    let text = m.buf.text();
    assert_eq!((m.stats.spills, m.stats.reloads), (0, 0), "{text:02x?}");
    assert_eq!(saved_regs(text), SAVE[..3], "{text:02x?}");
    assert!(frame_holds_only_saves(text), "{text:02x?}");
}

#[test]
fn a_value_read_after_a_store_to_its_register_costs_one_mov() {
    let m = Lazy::ClobberBeforeStore.compile(SCALAR);
    let text = m.buf.text();
    assert_eq!(saved_regs(text), [Gp::RBX], "{text:02x?}");
    assert!(frame_holds_only_saves(text), "{text:02x?}");
    // `n` goes to rbx, `x` stays there until the store moves it out
    let set = encode(|b| x64::mov_rr(b, 8, Gp::RBX, Gp::RDI));
    let out = find(text, |b, r| x64::mov_rr(b, 8, r, Gp::RBX)).expect("x moves out");
    let store = encode(|b| x64::mov_ri(b, 8, Gp::RBX, 100));
    let store = text.windows(store.len()).position(|w| w == store);
    assert!(contains(text, &set), "{text:02x?}");
    assert!(store.is_some_and(|s| out < s), "{text:02x?}");
    let copies =
        (0..16).filter(|&r| contains(text, &encode(|b| x64::mov_rr(b, 8, Gp(r), Gp::RBX))));
    assert_eq!(copies.count(), 1, "one mov out of rbx: {text:02x?}");
}

#[test]
fn an_escaped_variable_stays_in_the_frame() {
    let text = Lazy::Escaped.compile(SCALAR).buf.text().to_vec();
    assert_eq!(saved_regs(&text), [], "{text:02x?}");
    let mem = Mem::base_disp(Gp::RBP, var_disp(&text));
    assert!(
        find(&text, |b, r| x64::mov_rm(b, 8, r, mem)).is_some(),
        "{text:02x?}"
    );
}

#[test]
fn a_variable_live_across_a_call_keeps_its_register() {
    let m = Lazy::AcrossCall.compile(SCALAR);
    let text = m.buf.text();
    assert_eq!(saved_regs(text), [Gp::RBX], "{text:02x?}");
    assert!(frame_holds_only_saves(text), "{text:02x?}");
    assert_eq!((m.stats.spills, m.stats.reloads), (0, 0), "{text:02x?}");
    let set = encode(|b| x64::mov_rr(b, 8, Gp::RBX, Gp::RDI));
    assert!(contains(text, &set), "{text:02x?}");
}

/// O1-style functions `f(n)` around conditional branches and joins, the
/// shapes of the stores before a branch that only values read past it
/// get, of the join phis that arrive in a register
/// (`Target::JOIN_PHI_REGS`, x86-64 only) and of an operation on two
/// constants.
#[derive(Copy, Clone, Debug)]
enum Flow {
    /// `v = n * 3`; `n < 10` branches to an arm that brings 7 to the
    /// join, else the next block brings `v + 1`: only the fall-through
    /// successor reads `v`.
    SkipTaken,
    /// As `SkipTaken`, but the taken arm brings `v + 2`.
    ReadTaken,
    /// A one-block loop counts `i` up to `n` (at least once) and computes
    /// `d = i * 5`; the exit, laid out next, returns `d + 1`. `i` is a
    /// loop-header phi, and the back edge does not read `d`.
    BackEdge,
    /// `n % 5` picks one of five arms through a chain of compares; arm `k`
    /// brings `n * (k + 2)` to the join, which returns `phi + 1`.
    FiveArms,
    /// `FiveArms`, but the join goes on to a block that returns
    /// `(phi + 1) + phi`: the phi lives past its join.
    PastJoin,
    /// `(0 + 1) + n`.
    ConstPair,
}

impl Flow {
    const ALL: [Flow; 6] = [
        Flow::SkipTaken,
        Flow::ReadTaken,
        Flow::BackEdge,
        Flow::FiveArms,
        Flow::PastJoin,
        Flow::ConstPair,
    ];

    fn module(self) -> Module {
        let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
        let n = b.arg(0);
        let r = match self {
            Flow::SkipTaken | Flow::ReadTaken => {
                let three = b.iconst(Type::I64, 3);
                let v = b.bin(BinOp::Mul, Type::I64, n, three);
                let ten = b.iconst(Type::I64, 10);
                let small = b.icmp(ICmp::Ult, Type::I64, n, ten);
                let (taken, next, join) = (b.create_block(), b.create_block(), b.create_block());
                b.cond_br(small, taken, next);
                b.switch_to(taken);
                let t = if matches!(self, Flow::ReadTaken) {
                    let two = b.iconst(Type::I64, 2);
                    b.bin(BinOp::Add, Type::I64, v, two)
                } else {
                    b.iconst(Type::I64, 7)
                };
                b.br(join);
                b.switch_to(next);
                let one = b.iconst(Type::I64, 1);
                let w = b.bin(BinOp::Add, Type::I64, v, one);
                b.br(join);
                b.switch_to(join);
                let phi = b.phi(Type::I64);
                b.phi_add_incoming(phi, taken, t);
                b.phi_add_incoming(phi, next, w);
                phi
            }
            Flow::BackEdge => {
                let entry = b.current_block();
                let (head, exit) = (b.create_block(), b.create_block());
                b.br(head);
                b.switch_to(head);
                let i = b.phi(Type::I64);
                let one = b.iconst(Type::I64, 1);
                let i2 = b.bin(BinOp::Add, Type::I64, i, one);
                let five = b.iconst(Type::I64, 5);
                let d = b.bin(BinOp::Mul, Type::I64, i2, five);
                let more = b.icmp(ICmp::Ult, Type::I64, i2, n);
                b.cond_br(more, head, exit);
                let zero = b.iconst(Type::I64, 0);
                b.phi_add_incoming(i, entry, zero);
                b.phi_add_incoming(i, head, i2);
                b.switch_to(exit);
                b.bin(BinOp::Add, Type::I64, d, one)
            }
            Flow::FiveArms | Flow::PastJoin => {
                let five = b.iconst(Type::I64, 5);
                let sel = b.div(false, true, Type::I64, n, five);
                let arms: Vec<_> = (0..5).map(|_| b.create_block()).collect();
                let join = b.create_block();
                for (k, &arm) in arms.iter().enumerate().take(4) {
                    let kc = b.iconst(Type::I64, k as i64);
                    let is_k = b.icmp(ICmp::Eq, Type::I64, sel, kc);
                    let next = if k < 3 { b.create_block() } else { arms[4] };
                    b.cond_br(is_k, arm, next);
                    b.switch_to(next);
                }
                b.switch_to(join);
                let phi = b.phi(Type::I64);
                for (k, &arm) in arms.iter().enumerate() {
                    b.switch_to(arm);
                    let m = b.iconst(Type::I64, k as i64 + 2);
                    let v = b.bin(BinOp::Mul, Type::I64, n, m);
                    b.br(join);
                    b.phi_add_incoming(phi, arm, v);
                }
                b.switch_to(join);
                let one = b.iconst(Type::I64, 1);
                let r = b.bin(BinOp::Add, Type::I64, phi, one);
                if matches!(self, Flow::PastJoin) {
                    let tail = b.create_block();
                    b.br(tail);
                    b.switch_to(tail);
                    b.bin(BinOp::Add, Type::I64, r, phi)
                } else {
                    r
                }
            }
            Flow::ConstPair => {
                let (zero, one) = (b.iconst(Type::I64, 0), b.iconst(Type::I64, 1));
                let c = b.bin(BinOp::Add, Type::I64, zero, one);
                b.bin(BinOp::Add, Type::I64, c, n)
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
            Flow::SkipTaken if n < 10 => 7,
            Flow::ReadTaken if n < 10 => n.wrapping_mul(3).wrapping_add(2),
            Flow::SkipTaken | Flow::ReadTaken => n.wrapping_mul(3).wrapping_add(1),
            Flow::BackEdge => n.max(1) * 5 + 1,
            Flow::FiveArms => n.wrapping_mul(n % 5 + 2).wrapping_add(1),
            Flow::PastJoin => n.wrapping_mul(n % 5 + 2).wrapping_mul(2).wrapping_add(1),
            Flow::ConstPair => n.wrapping_add(1),
        }
    }

    fn compile(self) -> CompiledModule {
        compile_x64(&self.module(), &CompileOptions::default()).unwrap()
    }
}

/// The frame displacements -128..0 that `text` loads 8 bytes from.
fn frame_loads(text: &[u8]) -> Vec<i32> {
    (-128..0)
        .filter(|&d| {
            find(text, |b, r| {
                x64::mov_rm(b, 8, r, Mem::base_disp(Gp::RBP, d))
            })
            .is_some()
        })
        .collect()
}

#[test]
fn branches_and_joins_compute_the_right_results() {
    for shape in Flow::ALL {
        let compiled = shape.compile();
        let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
        // 0, 1, 7, 13 and 19 reach each of the five arms.
        for n in [0, 1, 7, 13, 19] {
            let (got, _) = run_function(&image, "f", &[n]).expect("execution");
            assert_eq!(got, shape.expected(n), "{shape:?}({n})");
        }
    }
}

#[test]
fn no_store_before_a_branch_whose_taken_successor_does_not_read_the_value() {
    let m = Flow::SkipTaken.compile();
    let text = m.buf.text();
    assert_eq!(m.stats.spills, 0, "{text:02x?}");
    assert_eq!(frame_stores(text), Vec::<i32>::new(), "{text:02x?}");
}

#[test]
fn the_store_stays_when_the_taken_successor_reads_the_value() {
    let text = Flow::ReadTaken.compile().buf.text().to_vec();
    let jcc = text
        .windows(2)
        .position(|w| w[0] == 0x0f && w[1] & 0xf0 == 0x80)
        .expect("a conditional jump");
    let stores = frame_stores(&text);
    assert_eq!(stores.len(), 1, "v is stored once: {text:02x?}");
    let mem = Mem::base_disp(Gp::RBP, stores[0]);
    let store = find(&text, |b, r| x64::mov_mr(b, 8, mem, r));
    assert!(
        store.is_some_and(|s| s < jcc),
        "before the jcc: {text:02x?}"
    );
}

#[test]
fn a_back_edge_keeps_the_stores_and_a_loop_header_phi_its_slot() {
    // `n`, read in the loop, is stored on entry; the header phi `i` has a
    // slot, which the header loads, since one of its in-edges is a back
    // edge; `d` is stored before the back edge though only the exit reads
    // it.
    let text = Flow::BackEdge.compile().buf.text().to_vec();
    assert_eq!(frame_stores(&text).len(), 3, "{text:02x?}");
    assert_eq!(frame_loads(&text).len(), 1, "{text:02x?}");
}

#[test]
fn a_five_arm_join_phi_arrives_in_a_register() {
    let m = Flow::FiveArms.compile();
    let text = m.buf.text();
    // `n` (in rdi) is read in every arm, so it is stored once, before the
    // first branch, and loaded in the arms; the phi never touches memory.
    assert_eq!(frame_stores(text).len(), 1, "{text:02x?}");
    assert_eq!(frame_loads(text), frame_stores(text), "{text:02x?}");
    assert_eq!(m.stats.spills, 1, "{text:02x?}");

    let past = Flow::PastJoin.compile();
    let past_text = past.buf.text();
    assert_eq!(
        frame_stores(past_text).len(),
        2,
        "a phi live past its join has a slot: {past_text:02x?}"
    );
    assert_eq!(past.stats.spills, m.stats.spills + 5, "one store per arm");
    assert_eq!(
        past.stats.reloads,
        m.stats.reloads + 1,
        "one load at the join"
    );

    let a64 = compile_a64(&Flow::FiveArms.module(), &CompileOptions::default()).unwrap();
    let a64_past = compile_a64(&Flow::PastJoin.module(), &CompileOptions::default()).unwrap();
    assert_eq!(
        (a64.stats.spills, a64.stats.reloads),
        (a64_past.stats.spills, a64_past.stats.reloads),
        "on AArch64 every join phi keeps its slot"
    );
}

#[test]
fn an_operation_on_two_constants_is_one_mov() {
    let text = Flow::ConstPair.compile().buf.text().to_vec();
    assert!(
        find(&text, |b, r| x64::mov_ri(b, 4, r, 1)).is_some(),
        "{text:02x?}"
    );
    assert!(
        find(&text, |b, r| x64::mov_ri(b, 4, r, 0)).is_none(),
        "no 0 is materialized: {text:02x?}"
    );
}
