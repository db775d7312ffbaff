//! Operand and operation descriptions shared by all snippet encoders.

use tpde_core::codegen::ValuePartRef;

/// An operand of a snippet encoder: either a handle to an IR value part
/// (which may currently live in a register, in a stack slot or be an IR
/// constant) or an immediate produced by the instruction compiler itself.
#[derive(Clone, Debug)]
pub enum AsmOperand {
    /// A framework value-part handle.
    Val(ValuePartRef),
    /// An immediate produced during instruction selection.
    Imm(u64),
}

impl AsmOperand {
    /// The constant bits if the operand is an immediate or an IR constant.
    pub(crate) fn as_imm(&self) -> Option<u64> {
        match self {
            AsmOperand::Imm(v) => Some(*v),
            AsmOperand::Val(p) if p.is_const => Some(p.const_val),
            _ => None,
        }
    }

    /// Whether the immediate fits a sign-extended 32-bit field (given the
    /// operation size).
    pub(crate) fn as_imm32(&self, size: u32) -> Option<i32> {
        let v = self.as_imm()?;
        let v = match size {
            1 => v as u8 as i8 as i64,
            2 => v as u16 as i16 as i64,
            4 => v as u32 as i32 as i64,
            _ => v as i64,
        };
        i32::try_from(v).ok()
    }
}

/// A memory address `[base + index*scale + disp]`, the one address form of
/// [`SnippetEmitter::enc_load`](crate::SnippetEmitter::enc_load) and
/// [`SnippetEmitter::enc_store`](crate::SnippetEmitter::enc_store).
#[derive(Clone, Debug)]
pub struct AsmAddr {
    /// The base address.
    pub base: AsmOperand,
    /// An index value and its scale (1, 2, 4 or 8). Only targets with
    /// [`SnippetEmitter::INDEXED_ADDR`](crate::SnippetEmitter::INDEXED_ADDR)
    /// accept one.
    pub index: Option<(AsmOperand, u8)>,
    /// Constant displacement.
    pub disp: i32,
}

impl AsmAddr {
    /// `[base + disp]`
    pub fn base_disp(base: AsmOperand, disp: i32) -> AsmAddr {
        AsmAddr {
            base,
            index: None,
            disp,
        }
    }
}

impl From<ValuePartRef> for AsmOperand {
    fn from(p: ValuePartRef) -> AsmOperand {
        AsmOperand::Val(p)
    }
}

impl From<u64> for AsmOperand {
    fn from(v: u64) -> AsmOperand {
        AsmOperand::Imm(v)
    }
}

// The discriminants of the operation enums below are part of the persisted
// IR content key (`tpde_llvm::ir::Module::content_hash`): a new variant gets
// a new number, none is ever changed or reused.

/// Integer binary operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Mul = 5,
}

impl BinOp {
    /// Whether the operation is commutative (so constant operands can be
    /// moved to the right-hand side).
    pub(crate) fn commutative(self) -> bool {
        !matches!(self, BinOp::Sub)
    }

    /// `lhs op rhs` on 64-bit words, wrapping; the low bytes are the result
    /// of every narrower operation.
    pub(crate) fn fold(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Mul => lhs.wrapping_mul(rhs),
        }
    }
}

/// Shift kinds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ShiftKind {
    Shl = 0,
    LShr = 1,
    AShr = 2,
}

/// Integer comparison predicates (LLVM `icmp` naming).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ICmp {
    Eq = 0,
    Ne = 1,
    Slt = 2,
    Sle = 3,
    Sgt = 4,
    Sge = 5,
    Ult = 6,
    Ule = 7,
    Ugt = 8,
    Uge = 9,
}

impl ICmp {
    /// The predicate with the operands swapped.
    pub(crate) fn swapped(self) -> ICmp {
        match self {
            ICmp::Eq => ICmp::Eq,
            ICmp::Ne => ICmp::Ne,
            ICmp::Slt => ICmp::Sgt,
            ICmp::Sle => ICmp::Sge,
            ICmp::Sgt => ICmp::Slt,
            ICmp::Sge => ICmp::Sle,
            ICmp::Ult => ICmp::Ugt,
            ICmp::Ule => ICmp::Uge,
            ICmp::Ugt => ICmp::Ult,
            ICmp::Uge => ICmp::Ule,
        }
    }
}

/// Floating-point binary operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FBinOp {
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
}

/// Floating-point comparison predicates (ordered comparisons only).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FCmp {
    Oeq = 0,
    One = 1,
    Olt = 2,
    Ole = 3,
    Ogt = 4,
    Oge = 5,
}
