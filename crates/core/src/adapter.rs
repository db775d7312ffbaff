//! The IR adapter interface: the only way the framework accesses an IR.
//!
//! Per the paper, the adapter exposes all information the framework needs in
//! a canonical form: the list of functions, basic blocks and their
//! successors, phi nodes, instructions and their operands, and for every
//! value the number of *parts*, each part's size and preferred register bank.
//!
//! ## Reference types
//!
//! The paper recommends that adapters use a single integer as reference type.
//! This implementation takes that recommendation one step further and fixes
//! the reference types to dense `u32` indices ([`ValueRef`], [`BlockRef`],
//! [`InstRef`], [`FuncRef`]): the adapter must number values, blocks and
//! instructions of the current function contiguously starting at 0, with
//! block 0 being the entry block. This replaces the paper's per-block 64-bit
//! auxiliary storage and per-value numbering requirement — the framework
//! simply keeps its own arrays indexed by these numbers, which is equivalent
//! and keeps the adapter trait small.
//!
//! ## Implementing an adapter without allocating
//!
//! The adapter sits on the hottest path of the compiler: `inst_operands` and
//! `inst_results` are called for every instruction, `block_insts`,
//! `block_succs` and `block_phis` for every block — first by the analysis
//! pass and then again by the code generator. A heap allocation per query
//! would dominate the compile time of a single-pass back-end (§2 of the
//! paper), so every collection-valued query returns a **borrowed slice**
//! (`&[T]`) instead of a fresh `Vec`, and names are returned as `&str`.
//!
//! The recommended implementation strategy, used by all adapters in this
//! workspace, is to *pre-index* the current function in
//! [`IrAdapter::switch_func`]:
//!
//! 1. Walk the function once and append the data of every query into flat
//!    tables owned by the adapter (one `Vec<ValueRef>` holding all operand
//!    lists back to back, one `Vec<BlockRef>` holding all successor lists,
//!    and so on), recording a `(start, len)` range per instruction / block /
//!    phi in a dense side table.
//! 2. Answer each query by slicing the flat table:
//!    `&self.operands[range.0..range.1]`.
//! 3. `clear()` (never drop) the tables at the start of the next
//!    `switch_func`, so their capacity is reused and the steady-state compile
//!    loop performs **zero** allocations per function once the tables have
//!    grown to the largest function of the module.
//!
//! If the source IR already stores a list contiguously (e.g. phi incoming
//! edges), the adapter can skip the copy and slice the IR's own storage
//! directly. Repeated queries for the same reference must return the same
//! contents until the next `switch_func`/`finalize_func`; the framework is
//! free to hold a returned slice across unrelated queries on the same
//! adapter.

use crate::regs::RegBank;

/// Reference to an IR value of the current function (dense index).
///
/// Arguments, phis, instruction results, stack variables and constants are
/// all values. Indices must be unique per function and `< value_count()`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValueRef(pub u32);

/// Reference to a basic block of the current function (dense index).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockRef(pub u32);

/// Reference to an instruction of the current function (dense index).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct InstRef(pub u32);

/// Reference to a function of the module (dense index).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FuncRef(pub u32);

impl ValueRef {
    /// The dense index as a `usize` for array indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl BlockRef {
    /// The dense index as a `usize` for array indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl InstRef {
    /// The dense index as a `usize` for array indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl FuncRef {
    /// The dense index as a `usize` for array indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Symbol linkage of a function or global.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Linkage {
    /// Visible outside the object (global symbol).
    External,
    /// Local to the object.
    Internal,
    /// Weak definition (e.g. inline functions).
    Weak,
}

/// Description of a fixed-size stack variable (e.g. an LLVM static `alloca`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StackVarDesc {
    /// The IR value that refers to the variable's address.
    pub value: ValueRef,
    /// Size of the variable in bytes.
    pub size: u32,
    /// Required alignment in bytes (power of two).
    pub align: u32,
}

/// One incoming edge of a phi node: the value flowing in from a predecessor.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhiIncoming {
    /// The predecessor block.
    pub block: BlockRef,
    /// The value that flows in along that edge.
    pub value: ValueRef,
}

/// Canonical access to an SSA IR, as required by the TPDE framework.
///
/// The adapter operates on a *current function*: the framework calls
/// [`IrAdapter::switch_func`] before querying any per-function information
/// and calls [`IrAdapter::finalize_func`] when it is done with the function.
///
/// All collection-valued queries return borrowed slices that must stay
/// stable (same contents) until the next `switch_func`/`finalize_func`; see
/// the [module docs](self) for the recommended pre-indexing strategy that
/// makes them allocation-free.
pub trait IrAdapter {
    // ---- module-level -----------------------------------------------------

    /// Number of functions in the module (defined functions and external
    /// declarations). All of them end up in the symbol table; function
    /// indices are dense (`0..func_count()`).
    fn func_count(&self) -> usize;

    /// Symbol name of a function.
    fn func_name(&self, func: FuncRef) -> &str;

    /// Linkage of a function.
    fn func_linkage(&self, func: FuncRef) -> Linkage;

    /// Whether the function has a body that must be compiled.
    fn func_is_definition(&self, func: FuncRef) -> bool;

    /// Number of instructions in the whole module if that is cheap to tell,
    /// else 0. Only used to size the text section up front.
    fn module_inst_count(&self) -> usize {
        0
    }

    // ---- current function -------------------------------------------------

    /// Makes `func` the current function. Called once per defined function
    /// before any of the per-function queries below. Adapters typically
    /// build their dense index tables here (reusing buffers from the
    /// previous function).
    fn switch_func(&mut self, func: FuncRef);

    /// Releases per-function data computed in [`IrAdapter::switch_func`].
    fn finalize_func(&mut self) {}

    /// Upper bound (exclusive) of value indices used by the current function.
    fn value_count(&self) -> usize;

    /// Upper bound (exclusive) of instruction indices used by the current
    /// function. The framework sizes dense per-instruction side tables
    /// (e.g. the fusion bitmap) with this.
    fn inst_count(&self) -> usize;

    /// The function arguments, in ABI order.
    fn args(&self) -> &[ValueRef];

    /// Fixed-size stack variables of the current function. The framework
    /// allocates these in the frame during prologue generation; their value
    /// is the address and is marked trivially recomputable.
    fn static_stack_vars(&self) -> &[StackVarDesc] {
        &[]
    }

    /// How many loads and stores access the static stack variable at index
    /// `var` of [`IrAdapter::static_stack_vars`] if it may live in a
    /// general-purpose register instead of the frame: its address is used
    /// only as the address of those loads and stores, each of which reads
    /// or writes the whole 4- or 8-byte variable as an integer or pointer,
    /// and no access through any stack variable's address leaves its
    /// variable. 0 (the default) keeps the variable in memory.
    fn stack_var_accesses(&self, var: usize) -> u32 {
        let _ = var;
        0
    }

    /// Number of basic blocks of the current function. Block indices are
    /// dense (`0..block_count()`) and block 0 is the entry block.
    fn block_count(&self) -> usize;

    /// Successors of a block, in terminator order.
    fn block_succs(&self, block: BlockRef) -> &[BlockRef];

    /// Phi nodes at the start of a block.
    fn block_phis(&self, block: BlockRef) -> &[ValueRef] {
        let _ = block;
        &[]
    }

    /// Instructions of a block in program order, excluding phi nodes,
    /// including the terminator.
    fn block_insts(&self, block: BlockRef) -> &[InstRef];

    /// Incoming edges of a phi node.
    fn phi_incoming(&self, phi: ValueRef) -> &[PhiIncoming];

    // ---- instructions -----------------------------------------------------

    /// Operand values of an instruction (only those the framework should
    /// track uses for; e.g. immediate operands folded by the instruction
    /// compiler may be omitted).
    fn inst_operands(&self, inst: InstRef) -> &[ValueRef];

    /// Result values defined by an instruction (usually zero or one).
    fn inst_results(&self, inst: InstRef) -> &[ValueRef];

    // ---- values -----------------------------------------------------------

    /// Number of parts a value consists of (e.g. 2 for a 128-bit integer).
    fn val_part_count(&self, val: ValueRef) -> u32;

    /// Size in bytes of one part of a value.
    fn val_part_size(&self, val: ValueRef, part: u32) -> u32;

    /// Preferred register bank of one part of a value.
    fn val_part_bank(&self, val: ValueRef, part: u32) -> RegBank;

    /// Whether the value is a constant usable directly as an operand.
    fn val_is_const(&self, val: ValueRef) -> bool {
        let _ = val;
        false
    }

    /// Raw bits of one part of a constant value (zero-extended to 64 bits).
    ///
    /// Only called when [`IrAdapter::val_is_const`] returned `true`.
    fn val_const_data(&self, val: ValueRef, part: u32) -> u64 {
        let _ = (val, part);
        0
    }

    // ---- verification support (optional) ----------------------------------
    //
    // The queries below exist only for the IR verifier ([`crate::verify`]).
    // They are *optional*: an adapter that cannot (or does not want to)
    // answer them returns `None`, and the verifier skips the corresponding
    // structural checks. Code generation never calls them.

    /// Whether `inst` is a block terminator (branch, return, unreachable).
    ///
    /// `None` means "unknown"; the verifier then skips terminator-placement
    /// checks for this adapter.
    fn inst_is_terminator(&self, inst: InstRef) -> Option<bool> {
        let _ = inst;
        None
    }

    /// If `inst` is a direct call, the callee and the number of arguments
    /// actually passed. `None` for non-calls, indirect calls, or adapters
    /// that do not track calls.
    fn inst_call_target(&self, inst: InstRef) -> Option<(FuncRef, usize)> {
        let _ = inst;
        None
    }

    /// Number of formal parameters of `func` (any function of the module,
    /// not just the current one). `None` if unknown; the verifier then
    /// skips call-arity checks against that callee.
    fn func_param_count(&self, func: FuncRef) -> Option<usize> {
        let _ = func;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refs_are_dense_indices() {
        assert_eq!(ValueRef(7).idx(), 7);
        assert_eq!(BlockRef(3).idx(), 3);
        assert_eq!(InstRef(0).idx(), 0);
        assert_eq!(FuncRef(2).idx(), 2);
    }
}
