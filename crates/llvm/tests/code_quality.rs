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
//! each case that keeps it out, for arithmetic on an operand that lives on
//! (`lea`, three-operand `imul`) and for a conditional branch to the next
//! block (one inverted `jcc`).

use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_enc::x64::{self, Gp, Mem};
use tpde_llvm::ir::{BinOp, FunctionBuilder, ICmp, Module, Type};
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle};
use tpde_llvm::{compile_a64, compile_x64};

/// `(workload, style, target, text bytes, spills, reloads)`.
type Row = (&'static str, &'static str, &'static str, u64, usize, usize);

const RECORDED: &[Row] = &[
    ("600.perl", "O0", "x64", 5480, 154, 208),
    ("600.perl", "O0", "a64", 8348, 154, 222),
    ("600.perl", "O1", "x64", 4976, 112, 40),
    ("600.perl", "O1", "a64", 6556, 112, 54),
    ("602.gcc", "O0", "x64", 8608, 242, 328),
    ("602.gcc", "O0", "a64", 13020, 242, 350),
    ("602.gcc", "O1", "x64", 7816, 176, 64),
    ("602.gcc", "O1", "a64", 10204, 176, 86),
    ("605.mcf", "O0", "x64", 2521, 16, 14),
    ("605.mcf", "O0", "a64", 5836, 16, 22),
    ("605.mcf", "O1", "x64", 2521, 16, 14),
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
    ("641.leela", "O0", "x64", 3316, 30, 28),
    ("641.leela", "O0", "a64", 5052, 30, 38),
    ("641.leela", "O1", "x64", 3316, 30, 28),
    ("641.leela", "O1", "a64", 5052, 30, 38),
    ("657.xz", "O0", "x64", 2835, 18, 16),
    ("657.xz", "O0", "a64", 6544, 18, 25),
    ("657.xz", "O1", "x64", 2835, 18, 16),
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
    let leas = frame_leas(&text);
    assert_eq!(leas.len(), 1, "the GEP materializes the slot address once");
    assert!(
        !frame_roundtrip_at(&text, leas[0]),
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

#[test]
fn a_gep_with_two_uses_is_not_folded() {
    let text = indexed_store(8, GepUse::StoreAndLoad, &CompileOptions::default());
    assert_eq!(frame_indexed_stores(&text), Vec::new(), "{text:02x?}");
    assert_eq!(frame_leas(&text).len(), 1, "the GEP computes the address");
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
    assert_eq!(frame_indexed_stores(&text), Vec::new(), "{text:02x?}");
    assert_eq!(frame_leas(&text).len(), 1, "the GEP computes the address");
}

#[test]
fn without_fusion_a_gep_is_not_folded() {
    let opts = CompileOptions {
        fusion: false,
        ..CompileOptions::default()
    };
    let text = indexed_store(8, GepUse::Store, &opts);
    assert_eq!(frame_indexed_stores(&text), Vec::new(), "{text:02x?}");
    assert_eq!(frame_leas(&text).len(), 1, "the GEP computes the address");
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
