//! An LLVM-IR-like SSA intermediate representation.
//!
//! This is the stand-in for LLVM-IR in the reproduction: a strict-SSA,
//! typed, phi-based IR with the constructs that Clang-generated baseline
//! code uses (integer/float arithmetic, comparisons, loads/stores, static
//! allocas, calls, branches, phis, select, conversions). Values are numbered
//! densely per function at construction time, which is exactly what the TPDE
//! IR adapter needs.

use std::collections::HashMap;
use std::hash::Hasher;
use tpde_core::hash::StableHasher;

/// Value types. The discriminants are part of the persisted content key
/// ([`Module::content_hash`]): a new variant gets a new number, none is ever
/// changed or reused.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Type {
    Void = 0,
    I1 = 1,
    I8 = 2,
    I16 = 3,
    I32 = 4,
    I64 = 5,
    Ptr = 6,
    F32 = 7,
    F64 = 8,
}

impl Type {
    /// Size of the type in bytes (0 for void).
    pub(crate) fn size(self) -> u32 {
        match self {
            Type::Void => 0,
            Type::I1 | Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::Ptr | Type::F64 => 8,
        }
    }

    /// Whether the type lives in the floating-point register bank.
    pub(crate) fn is_fp(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }
}

/// A value id (dense per function).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

/// A basic-block id (dense per function).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Block(pub u32);

/// A function id (dense per module).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Integer binary operations.
pub use tpde_snippets::BinOp;
/// Floating point binary operations.
pub use tpde_snippets::FBinOp;
/// Floating point comparison predicates.
pub use tpde_snippets::FCmp;
/// Integer comparison predicates.
pub use tpde_snippets::ICmp;
/// Shift kinds.
pub use tpde_snippets::ShiftKind;

// --------------------------------------------------------------------------
// The content key: an explicit, packed encoding of the IR
// --------------------------------------------------------------------------
//
// [`Module::content_hash`] names artifacts on disk that outlive the binary,
// so the bytes it hashes are defined here and not by `derive(Hash)` (whose
// stream std does not promise to keep). Every instruction, phi and value
// starts with a [`head`] word; further ids go two to a word ([`pair`]),
// 64-bit constants and offsets get a word of their own, `Option` ids are a
// flag bit in the head plus the id or 0. All variable-length lists are
// preceded by their length, so the word stream is prefix-free. Type and
// operation codes are the enums' explicit discriminants, variant tags the
// literals below; none is ever changed or reused. Every `match` below names
// all fields: a new field or variant must fail to compile here rather than
// be left out of the key. Changing any of this requires bumping
// `tpde_core::diskcache::FORMAT_VERSION`.

/// Variant tag, operation (or flag bits), two type bytes and one id.
#[inline(always)]
fn head(tag: u64, op: u64, ty: u64, ty2: u64, id: u32) -> u64 {
    tag | op << 8 | ty << 16 | ty2 << 24 | (id as u64) << 32
}

#[inline(always)]
fn pair(lo: u32, hi: u32) -> u64 {
    lo as u64 | (hi as u64) << 32
}

/// A value list, two ids to a word (the caller has written its length).
fn write_values(h: &mut StableHasher, values: &[Value]) {
    for two in values.chunks(2) {
        h.write_u64(pair(two[0].0, two.get(1).map_or(0, |v| v.0)));
    }
}

/// An instruction. Every value-producing instruction stores its result id.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    /// Integer binary operation.
    Bin {
        op: BinOp,
        ty: Type,
        res: Value,
        lhs: Value,
        rhs: Value,
    },
    /// Integer division / remainder.
    Div {
        signed: bool,
        rem: bool,
        ty: Type,
        res: Value,
        lhs: Value,
        rhs: Value,
    },
    /// Shift.
    Shift {
        kind: ShiftKind,
        ty: Type,
        res: Value,
        lhs: Value,
        rhs: Value,
    },
    /// Integer comparison (result is `i1`).
    Icmp {
        cc: ICmp,
        ty: Type,
        res: Value,
        lhs: Value,
        rhs: Value,
    },
    /// FP binary operation.
    Fbin {
        op: FBinOp,
        ty: Type,
        res: Value,
        lhs: Value,
        rhs: Value,
    },
    /// FP comparison (result is `i1`).
    Fcmp {
        cc: FCmp,
        ty: Type,
        res: Value,
        lhs: Value,
        rhs: Value,
    },
    /// FP negation.
    Fneg { ty: Type, res: Value, v: Value },
    /// Load `ty` from `[addr + off]`.
    Load {
        ty: Type,
        res: Value,
        addr: Value,
        off: i32,
    },
    /// Store `value` (of type `ty`) to `[addr + off]`.
    Store {
        ty: Type,
        addr: Value,
        off: i32,
        value: Value,
    },
    /// Pointer arithmetic: `res = base + index * scale + off` (a simplified GEP).
    Gep {
        res: Value,
        base: Value,
        index: Option<Value>,
        scale: u32,
        off: i64,
    },
    /// Integer extension / truncation.
    Cast {
        signed: bool,
        from: Type,
        to: Type,
        res: Value,
        v: Value,
    },
    /// Signed int -> FP.
    IntToFp {
        from: Type,
        to: Type,
        res: Value,
        v: Value,
    },
    /// FP -> signed int.
    FpToInt {
        from: Type,
        to: Type,
        res: Value,
        v: Value,
    },
    /// f32 <-> f64.
    FpConvert {
        from: Type,
        to: Type,
        res: Value,
        v: Value,
    },
    /// Select.
    Select {
        ty: Type,
        res: Value,
        cond: Value,
        tval: Value,
        fval: Value,
    },
    /// Direct call. `res` is `None` for void calls.
    Call {
        callee: FuncId,
        res: Option<Value>,
        ret_ty: Type,
        args: Vec<Value>,
    },
    /// Unconditional branch.
    Br { target: Block },
    /// Conditional branch on an `i1`/integer value.
    CondBr {
        cond: Value,
        if_true: Block,
        if_false: Block,
    },
    /// Return.
    Ret { value: Option<Value> },
}

impl Inst {
    /// Feeds the instruction's words of the content key (see [`head`]).
    #[inline]
    fn hash_into(&self, h: &mut StableHasher) {
        match self {
            Inst::Bin {
                op,
                ty,
                res,
                lhs,
                rhs,
            } => {
                h.write_u64(head(0, *op as u64, *ty as u64, 0, res.0));
                h.write_u64(pair(lhs.0, rhs.0));
            }
            Inst::Div {
                signed,
                rem,
                ty,
                res,
                lhs,
                rhs,
            } => {
                let flags = *signed as u64 | (*rem as u64) << 1;
                h.write_u64(head(1, flags, *ty as u64, 0, res.0));
                h.write_u64(pair(lhs.0, rhs.0));
            }
            Inst::Shift {
                kind,
                ty,
                res,
                lhs,
                rhs,
            } => {
                h.write_u64(head(2, *kind as u64, *ty as u64, 0, res.0));
                h.write_u64(pair(lhs.0, rhs.0));
            }
            Inst::Icmp {
                cc,
                ty,
                res,
                lhs,
                rhs,
            } => {
                h.write_u64(head(3, *cc as u64, *ty as u64, 0, res.0));
                h.write_u64(pair(lhs.0, rhs.0));
            }
            Inst::Fbin {
                op,
                ty,
                res,
                lhs,
                rhs,
            } => {
                h.write_u64(head(4, *op as u64, *ty as u64, 0, res.0));
                h.write_u64(pair(lhs.0, rhs.0));
            }
            Inst::Fcmp {
                cc,
                ty,
                res,
                lhs,
                rhs,
            } => {
                h.write_u64(head(5, *cc as u64, *ty as u64, 0, res.0));
                h.write_u64(pair(lhs.0, rhs.0));
            }
            Inst::Fneg { ty, res, v } => {
                h.write_u64(head(6, 0, *ty as u64, 0, res.0));
                h.write_u64(v.0 as u64);
            }
            Inst::Load { ty, res, addr, off } => {
                h.write_u64(head(7, 0, *ty as u64, 0, res.0));
                h.write_u64(pair(addr.0, *off as u32));
            }
            Inst::Store {
                ty,
                addr,
                off,
                value,
            } => {
                h.write_u64(head(8, 0, *ty as u64, 0, addr.0));
                h.write_u64(pair(value.0, *off as u32));
            }
            Inst::Gep {
                res,
                base,
                index,
                scale,
                off,
            } => {
                h.write_u64(head(9, index.is_some() as u64, 0, 0, res.0));
                h.write_u64(pair(base.0, index.map_or(0, |i| i.0)));
                h.write_u64(*scale as u64);
                h.write_u64(*off as u64);
            }
            Inst::Cast {
                signed,
                from,
                to,
                res,
                v,
            } => {
                h.write_u64(head(10, *signed as u64, *from as u64, *to as u64, res.0));
                h.write_u64(v.0 as u64);
            }
            Inst::IntToFp { from, to, res, v } => {
                h.write_u64(head(11, 0, *from as u64, *to as u64, res.0));
                h.write_u64(v.0 as u64);
            }
            Inst::FpToInt { from, to, res, v } => {
                h.write_u64(head(12, 0, *from as u64, *to as u64, res.0));
                h.write_u64(v.0 as u64);
            }
            Inst::FpConvert { from, to, res, v } => {
                h.write_u64(head(13, 0, *from as u64, *to as u64, res.0));
                h.write_u64(v.0 as u64);
            }
            Inst::Select {
                ty,
                res,
                cond,
                tval,
                fval,
            } => {
                h.write_u64(head(14, 0, *ty as u64, 0, res.0));
                h.write_u64(pair(cond.0, tval.0));
                h.write_u64(fval.0 as u64);
            }
            Inst::Call {
                callee,
                res,
                ret_ty,
                args,
            } => {
                h.write_u64(head(15, res.is_some() as u64, *ret_ty as u64, 0, callee.0));
                h.write_u64(pair(res.map_or(0, |r| r.0), args.len() as u32));
                write_values(h, args);
            }
            Inst::Br { target } => h.write_u64(head(16, 0, 0, 0, target.0)),
            Inst::CondBr {
                cond,
                if_true,
                if_false,
            } => {
                h.write_u64(head(17, 0, 0, 0, cond.0));
                h.write_u64(pair(if_true.0, if_false.0));
            }
            Inst::Ret { value } => {
                let v = value.map_or(0, |v| v.0);
                h.write_u64(head(18, value.is_some() as u64, 0, 0, v));
            }
        }
    }

    /// The result value defined by this instruction, if any.
    #[inline]
    pub(crate) fn result(&self) -> Option<Value> {
        match self {
            Inst::Bin { res, .. }
            | Inst::Div { res, .. }
            | Inst::Shift { res, .. }
            | Inst::Icmp { res, .. }
            | Inst::Fbin { res, .. }
            | Inst::Fcmp { res, .. }
            | Inst::Fneg { res, .. }
            | Inst::Load { res, .. }
            | Inst::Gep { res, .. }
            | Inst::Cast { res, .. }
            | Inst::IntToFp { res, .. }
            | Inst::FpToInt { res, .. }
            | Inst::FpConvert { res, .. }
            | Inst::Select { res, .. } => Some(*res),
            Inst::Call { res, .. } => *res,
            _ => None,
        }
    }

    /// Calls `f` for every operand value read by this instruction, in
    /// order. Allocation-free variant of [`Inst::operands`] for hot paths
    /// (the adapter's per-function indexing).
    #[inline]
    pub(crate) fn visit_operands(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Bin { lhs, rhs, .. }
            | Inst::Div { lhs, rhs, .. }
            | Inst::Shift { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fbin { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Fneg { v, .. }
            | Inst::Cast { v, .. }
            | Inst::IntToFp { v, .. }
            | Inst::FpToInt { v, .. }
            | Inst::FpConvert { v, .. } => f(*v),
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { addr, value, .. } => {
                f(*addr);
                f(*value);
            }
            Inst::Gep { base, index, .. } => {
                f(*base);
                if let Some(i) = index {
                    f(*i);
                }
            }
            Inst::Select {
                cond, tval, fval, ..
            } => {
                f(*cond);
                f(*tval);
                f(*fval);
            }
            Inst::Call { args, .. } => args.iter().for_each(|a| f(*a)),
            Inst::CondBr { cond, .. } => f(*cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
            Inst::Br { .. } => {}
        }
    }

    /// Calls `f` with a mutable reference to every operand value read by
    /// this instruction, in the same order as `Inst::visit_operands`.
    /// Used by IR-rewriting tools (the fuzzer's mutator and the test-case
    /// minimizer) to redirect uses without matching on every variant.
    pub fn visit_operands_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            Inst::Bin { lhs, rhs, .. }
            | Inst::Div { lhs, rhs, .. }
            | Inst::Shift { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fbin { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Fneg { v, .. }
            | Inst::Cast { v, .. }
            | Inst::IntToFp { v, .. }
            | Inst::FpToInt { v, .. }
            | Inst::FpConvert { v, .. } => f(v),
            Inst::Load { addr, .. } => f(addr),
            Inst::Store { addr, value, .. } => {
                f(addr);
                f(value);
            }
            Inst::Gep { base, index, .. } => {
                f(base);
                if let Some(i) = index {
                    f(i);
                }
            }
            Inst::Select {
                cond, tval, fval, ..
            } => {
                f(cond);
                f(tval);
                f(fval);
            }
            Inst::Call { args, .. } => args.iter_mut().for_each(f),
            Inst::CondBr { cond, .. } => f(cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Inst::Br { .. } => {}
        }
    }

    /// Calls `f` for every successor block if this is a terminator.
    #[inline]
    pub(crate) fn visit_successors(&self, mut f: impl FnMut(Block)) {
        match self {
            Inst::Br { target } => f(*target),
            Inst::CondBr {
                if_true, if_false, ..
            } => {
                f(*if_true);
                f(*if_false);
            }
            _ => {}
        }
    }

    /// The operand values read by this instruction.
    /// Convenience wrapper over [`Inst::visit_operands`] (the single source
    /// of truth for the operand list).
    pub(crate) fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.visit_operands(|v| out.push(v));
        out
    }

    /// Whether this is a terminator instruction.
    pub(crate) fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. }
        )
    }
}

/// A phi node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Phi {
    /// The value defined by the phi.
    pub(crate) res: Value,
    /// The phi's type.
    pub(crate) ty: Type,
    /// Incoming `(block, value)` pairs.
    pub(crate) incoming: Vec<(Block, Value)>,
}

/// One basic block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockData {
    /// Phi nodes at the start of the block.
    pub(crate) phis: Vec<Phi>,
    /// Instructions, ending with a terminator.
    pub insts: Vec<Inst>,
}

/// How a value is defined (used for type/constant queries).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// Function argument `n`.
    Arg(u32),
    /// An integer/FP constant with the given bit pattern.
    Const(u64),
    /// Result of an instruction or phi.
    Inst,
    /// Address of the static stack slot with the given index.
    StackSlot(u32),
}

/// Per-value metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueInfo {
    /// The value's type.
    pub ty: Type,
    /// How the value is defined.
    pub def: ValueDef,
}

/// A function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub(crate) params: Vec<Type>,
    /// Return type.
    pub(crate) ret: Type,
    /// Whether this is only a declaration (external function).
    pub is_decl: bool,
    /// Whether the symbol is internal to the module.
    pub internal: bool,
    /// Static stack variables: `(size, align)`.
    pub stack_slots: Vec<(u32, u32)>,
    /// Values of the stack-slot addresses, same order as `stack_slots`.
    pub(crate) stack_slot_values: Vec<Value>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BlockData>,
    /// Per-value metadata, indexed by value id.
    pub values: Vec<ValueInfo>,
}

impl Function {
    /// Feeds the function into the content key: name, signature word,
    /// parameter types (eight to a word), stack slots, then per block its
    /// phis and instructions, then the value table.
    fn hash_into(&self, h: &mut StableHasher) {
        let Function {
            name,
            params,
            ret,
            is_decl,
            internal,
            stack_slots,
            stack_slot_values,
            blocks,
            values,
        } = self;
        h.write(name.as_bytes());
        let flags = *is_decl as u64 | (*internal as u64) << 1;
        h.write_u64(head(0, flags, *ret as u64, 0, params.len() as u32));
        for eight in params.chunks(8) {
            h.write_u64(eight.iter().rev().fold(0, |w, t| w << 8 | *t as u64));
        }
        h.write_u64(pair(
            stack_slots.len() as u32,
            stack_slot_values.len() as u32,
        ));
        for &(size, align) in stack_slots {
            h.write_u64(pair(size, align));
        }
        write_values(h, stack_slot_values);
        h.write_u64(pair(blocks.len() as u32, values.len() as u32));
        for BlockData { phis, insts } in blocks {
            h.write_u64(pair(phis.len() as u32, insts.len() as u32));
            for Phi { res, ty, incoming } in phis {
                h.write_u64(head(0, 0, *ty as u64, 0, res.0));
                h.write_u64(incoming.len() as u64);
                for &(block, value) in incoming {
                    h.write_u64(pair(block.0, value.0));
                }
            }
            for inst in insts {
                inst.hash_into(h);
            }
        }
        for ValueInfo { ty, def } in values {
            match def {
                ValueDef::Arg(n) => h.write_u64(head(0, 0, *ty as u64, 0, *n)),
                ValueDef::Const(bits) => {
                    h.write_u64(head(1, 0, *ty as u64, 0, 0));
                    h.write_u64(*bits);
                }
                ValueDef::Inst => h.write_u64(head(2, 0, *ty as u64, 0, 0)),
                ValueDef::StackSlot(slot) => h.write_u64(head(3, 0, *ty as u64, 0, *slot)),
            }
        }
    }

    /// Number of values in the function.
    pub(crate) fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Type of a value.
    pub(crate) fn value_type(&self, v: Value) -> Type {
        self.values[v.0 as usize].ty
    }

    /// Total number of instructions (for statistics).
    pub(crate) fn inst_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.insts.len() + b.phis.len())
            .sum()
    }

    /// Writes a human-readable listing of the function (used by the fuzzer
    /// to print reproducible `(seed, shrunken IR)` artifacts).
    fn dump(&self, out: &mut String) {
        use std::fmt::Write;
        let params = self
            .params
            .iter()
            .map(|t| format!("{t:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        if self.is_decl {
            let _ = writeln!(out, "declare @{}({}) -> {:?}", self.name, params, self.ret);
            return;
        }
        let _ = writeln!(out, "func @{}({}) -> {:?} {{", self.name, params, self.ret);
        for (i, v) in self.values.iter().enumerate() {
            match v.def {
                ValueDef::Const(bits) => {
                    let _ = writeln!(out, "  v{i} = const.{:?} {:#x}", v.ty, bits);
                }
                ValueDef::StackSlot(s) => {
                    let (size, align) = self.stack_slots[s as usize];
                    let _ = writeln!(out, "  v{i} = slot{s} (size {size}, align {align})");
                }
                _ => {}
            }
        }
        for (bi, block) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "b{bi}:");
            for phi in &block.phis {
                let inc = phi
                    .incoming
                    .iter()
                    .map(|(b, v)| format!("[b{}, v{}]", b.0, v.0))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "  v{} = phi.{:?} {}", phi.res.0, phi.ty, inc);
            }
            for inst in &block.insts {
                let _ = writeln!(out, "  {inst:?}");
            }
        }
        let _ = writeln!(out, "}}");
    }
}

/// A module: a set of functions.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// All functions (definitions and declarations).
    pub funcs: Vec<Function>,
    name_map: HashMap<String, FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Adds a function and returns its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.name_map.insert(f.name.clone(), id);
        self.funcs.push(f);
        id
    }

    /// Declares an external function.
    pub fn declare(&mut self, name: &str, params: Vec<Type>, ret: Type) -> FuncId {
        if let Some(id) = self.name_map.get(name) {
            return *id;
        }
        self.add_function(Function {
            name: name.to_string(),
            params,
            ret,
            is_decl: true,
            internal: false,
            stack_slots: Vec::new(),
            stack_slot_values: Vec::new(),
            blocks: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.name_map.get(name).copied()
    }

    /// Total number of instructions in the module.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }

    /// Human-readable listing of the whole module — the format of the
    /// fuzzer's `(seed, shrunken IR)` reproduction artifacts.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for f in &self.funcs {
            f.dump(&mut out);
        }
        out
    }

    /// Deterministic content hash of the module: every function with its
    /// name, signature, linkage, stack slots, blocks, phis, instructions and
    /// value metadata, in the packed encoding of `Function::hash_into`.
    /// Two modules with equal hashes compile to the same machine code (for
    /// a given back-end and options), which is what the compile-service
    /// module cache and the on-disk artifact names key on. Computed afresh
    /// on every call: the fields are public and a stale memo would be a
    /// wrong-code bug.
    pub fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.funcs.len() as u64);
        for f in &self.funcs {
            f.hash_into(&mut h);
        }
        h.finish()
    }
}

/// Builder for one function. Mirrors (a small part of) LLVM's `IRBuilder`.
pub struct FunctionBuilder {
    func: Function,
    cur_block: Block,
    const_cache: HashMap<(u64, u8), Value>,
}

impl FunctionBuilder {
    /// Starts building a function with the given signature. The entry block
    /// is created automatically; arguments get the first value ids.
    pub fn new(name: &str, params: &[Type], ret: Type) -> FunctionBuilder {
        let mut values = Vec::new();
        for (i, p) in params.iter().enumerate() {
            values.push(ValueInfo {
                ty: *p,
                def: ValueDef::Arg(i as u32),
            });
        }
        FunctionBuilder {
            func: Function {
                name: name.to_string(),
                params: params.to_vec(),
                ret,
                is_decl: false,
                internal: false,
                stack_slots: Vec::new(),
                stack_slot_values: Vec::new(),
                blocks: vec![BlockData::default()],
                values,
            },
            cur_block: Block(0),
            const_cache: HashMap::new(),
        }
    }

    /// Marks the function as module-internal.
    pub fn set_internal(&mut self) {
        self.func.internal = true;
    }

    /// The `n`-th argument value.
    pub fn arg(&self, n: usize) -> Value {
        Value(n as u32)
    }

    fn new_value(&mut self, ty: Type, def: ValueDef) -> Value {
        let v = Value(self.func.values.len() as u32);
        self.func.values.push(ValueInfo { ty, def });
        v
    }

    /// Creates a new basic block.
    pub fn create_block(&mut self) -> Block {
        let b = Block(self.func.blocks.len() as u32);
        self.func.blocks.push(BlockData::default());
        b
    }

    /// Switches the insertion point to `block`.
    pub fn switch_to(&mut self, block: Block) {
        self.cur_block = block;
    }

    /// The current insertion block.
    pub fn current_block(&self) -> Block {
        self.cur_block
    }

    /// An integer constant of the given type.
    pub fn iconst(&mut self, ty: Type, v: i64) -> Value {
        let bits = v as u64
            & match ty.size() {
                1 => 0xff,
                2 => 0xffff,
                4 => 0xffff_ffff,
                _ => u64::MAX,
            };
        let key = (bits, ty.size() as u8 | if ty.is_fp() { 0x80 } else { 0 });
        if let Some(v) = self.const_cache.get(&key) {
            return *v;
        }
        let val = self.new_value(ty, ValueDef::Const(bits));
        self.const_cache.insert(key, val);
        val
    }

    /// The bit pattern of `v` if it is a constant.
    pub(crate) fn const_bits(&self, v: Value) -> Option<u64> {
        match self.func.values[v.0 as usize].def {
            ValueDef::Const(bits) => Some(bits),
            _ => None,
        }
    }

    /// An `f64` constant.
    pub fn fconst(&mut self, v: f64) -> Value {
        let bits = v.to_bits();
        let key = (bits, 8u8 | 0x80);
        if let Some(v) = self.const_cache.get(&key) {
            return *v;
        }
        let val = self.new_value(Type::F64, ValueDef::Const(bits));
        self.const_cache.insert(key, val);
        val
    }

    /// A static stack slot (LLVM `alloca` in the entry block); the returned
    /// value is its address.
    pub fn alloca(&mut self, size: u32, align: u32) -> Value {
        let idx = self.func.stack_slots.len() as u32;
        self.func.stack_slots.push((size, align));
        let v = self.new_value(Type::Ptr, ValueDef::StackSlot(idx));
        self.func.stack_slot_values.push(v);
        v
    }

    /// A phi node in the current block (incoming edges added later).
    pub fn phi(&mut self, ty: Type) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.func.blocks[self.cur_block.0 as usize].phis.push(Phi {
            res,
            ty,
            incoming: Vec::new(),
        });
        res
    }

    /// Adds an incoming edge to a phi created with [`FunctionBuilder::phi`].
    pub fn phi_add_incoming(&mut self, phi: Value, block: Block, value: Value) {
        for b in &mut self.func.blocks {
            for p in &mut b.phis {
                if p.res == phi {
                    p.incoming.push((block, value));
                    return;
                }
            }
        }
        panic!("phi value not found");
    }

    fn push(&mut self, inst: Inst) {
        self.func.blocks[self.cur_block.0 as usize].insts.push(inst);
    }

    /// Integer binary operation.
    pub fn bin(&mut self, op: BinOp, ty: Type, lhs: Value, rhs: Value) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.push(Inst::Bin {
            op,
            ty,
            res,
            lhs,
            rhs,
        });
        res
    }

    /// Integer division / remainder.
    pub fn div(&mut self, signed: bool, rem: bool, ty: Type, lhs: Value, rhs: Value) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.push(Inst::Div {
            signed,
            rem,
            ty,
            res,
            lhs,
            rhs,
        });
        res
    }

    /// Shift.
    pub fn shift(&mut self, kind: ShiftKind, ty: Type, lhs: Value, rhs: Value) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.push(Inst::Shift {
            kind,
            ty,
            res,
            lhs,
            rhs,
        });
        res
    }

    /// Integer comparison.
    pub fn icmp(&mut self, cc: ICmp, ty: Type, lhs: Value, rhs: Value) -> Value {
        let res = self.new_value(Type::I1, ValueDef::Inst);
        self.push(Inst::Icmp {
            cc,
            ty,
            res,
            lhs,
            rhs,
        });
        res
    }

    /// FP binary operation.
    pub fn fbin(&mut self, op: FBinOp, ty: Type, lhs: Value, rhs: Value) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.push(Inst::Fbin {
            op,
            ty,
            res,
            lhs,
            rhs,
        });
        res
    }

    /// FP comparison.
    pub fn fcmp(&mut self, cc: FCmp, ty: Type, lhs: Value, rhs: Value) -> Value {
        let res = self.new_value(Type::I1, ValueDef::Inst);
        self.push(Inst::Fcmp {
            cc,
            ty,
            res,
            lhs,
            rhs,
        });
        res
    }

    /// Load.
    pub fn load(&mut self, ty: Type, addr: Value, off: i32) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.push(Inst::Load { ty, res, addr, off });
        res
    }

    /// Store.
    pub fn store(&mut self, ty: Type, addr: Value, off: i32, value: Value) {
        self.push(Inst::Store {
            ty,
            addr,
            off,
            value,
        });
    }

    /// Pointer arithmetic (simplified GEP).
    pub fn gep(&mut self, base: Value, index: Option<Value>, scale: u32, off: i64) -> Value {
        let res = self.new_value(Type::Ptr, ValueDef::Inst);
        self.push(Inst::Gep {
            res,
            base,
            index,
            scale,
            off,
        });
        res
    }

    /// Integer cast (extension or truncation).
    pub fn cast(&mut self, signed: bool, from: Type, to: Type, v: Value) -> Value {
        let res = self.new_value(to, ValueDef::Inst);
        self.push(Inst::Cast {
            signed,
            from,
            to,
            res,
            v,
        });
        res
    }

    /// Signed integer to FP conversion.
    pub fn int_to_fp(&mut self, from: Type, to: Type, v: Value) -> Value {
        let res = self.new_value(to, ValueDef::Inst);
        self.push(Inst::IntToFp { from, to, res, v });
        res
    }

    /// FP to signed integer conversion.
    pub fn fp_to_int(&mut self, from: Type, to: Type, v: Value) -> Value {
        let res = self.new_value(to, ValueDef::Inst);
        self.push(Inst::FpToInt { from, to, res, v });
        res
    }

    /// Select.
    pub fn select(&mut self, ty: Type, cond: Value, tval: Value, fval: Value) -> Value {
        let res = self.new_value(ty, ValueDef::Inst);
        self.push(Inst::Select {
            ty,
            res,
            cond,
            tval,
            fval,
        });
        res
    }

    /// Call returning a value.
    pub fn call(&mut self, callee: FuncId, ret_ty: Type, args: Vec<Value>) -> Value {
        let res = self.new_value(ret_ty, ValueDef::Inst);
        self.push(Inst::Call {
            callee,
            res: Some(res),
            ret_ty,
            args,
        });
        res
    }

    /// Void call.
    pub fn call_void(&mut self, callee: FuncId, args: Vec<Value>) {
        self.push(Inst::Call {
            callee,
            res: None,
            ret_ty: Type::Void,
            args,
        });
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: Block) {
        self.push(Inst::Br { target });
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Value, if_true: Block, if_false: Block) {
        self.push(Inst::CondBr {
            cond,
            if_true,
            if_false,
        });
    }

    /// Return a value.
    pub fn ret(&mut self, value: Option<Value>) {
        self.push(Inst::Ret { value });
    }

    /// Finishes the function.
    pub fn build(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_dense_values() {
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64], Type::I64);
        let s = b.bin(BinOp::Add, Type::I64, b.arg(0), b.arg(1));
        b.ret(Some(s));
        let f = b.build();
        assert_eq!(f.value_count(), 3);
        assert_eq!(f.value_type(Value(2)), Type::I64);
        assert_eq!(f.blocks.len(), 1);
        assert!(f.blocks[0].insts[1].is_terminator());
    }

    #[test]
    fn constants_are_cached() {
        let mut b = FunctionBuilder::new("f", &[], Type::I32);
        let a = b.iconst(Type::I32, 7);
        let c = b.iconst(Type::I32, 7);
        assert_eq!(a, c);
        let d = b.iconst(Type::I64, 7);
        assert_ne!(a, d);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("foo", &[], Type::Void);
        b.ret(None);
        let id = m.add_function(b.build());
        assert_eq!(m.func_by_name("foo"), Some(id));
        let ext = m.declare("memcpy", vec![Type::Ptr, Type::Ptr, Type::I64], Type::Ptr);
        assert!(m.funcs[ext.0 as usize].is_decl);
    }
}
