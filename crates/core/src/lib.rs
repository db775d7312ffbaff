//! # tpde-core
//!
//! Core of the TPDE compiler back-end framework: a fast, adaptable,
//! single-pass code generator for SSA-form IRs.
//!
//! The framework is IR-agnostic. To compile an IR, a user provides:
//!
//! * an [`adapter::IrAdapter`] implementation, which exposes the IR data
//!   structures (functions, blocks, instructions, values) in a canonical way;
//! * *instruction compilers*, callbacks which generate machine code for a
//!   single IR instruction by calling back into the framework (operand
//!   handles, register allocation, scratch registers, instruction encoding).
//!
//! Compilation of a function happens in exactly two passes:
//!
//! 1. the [`analysis`] pass computes a loop forest, the block layout and
//!    coarse block-range liveness for every value;
//! 2. the [`codegen`] pass walks the blocks in layout order once and performs
//!    instruction selection, register allocation, spilling, phi handling and
//!    machine-code emission in a single sweep.
//!
//! Machine code is emitted into a [`codebuf::CodeBuffer`], which can then be
//! turned into an ELF relocatable object ([`obj`]) or mapped as an in-memory
//! JIT image ([`jit`]). On multi-core hosts a module's functions can be
//! compiled concurrently by the function-sharded [`parallel`] driver, whose
//! deterministic shard merge produces output byte-identical to the
//! sequential driver. Drivers serving a *stream* of modules (JIT-style
//! workloads) keep a persistent [`service::CompileService`], which pipelines
//! requests across a pool of long-lived workers and answers repeated
//! modules from a content-addressed cache, optionally backed by a
//! persistent on-disk artifact store ([`diskcache`]) that survives process
//! restarts and is shared between processes on one host.
//!
//! ```
//! // The `tpde-llvm` crate contains an LLVM-IR-like SSA IR with an adapter;
//! // see `crates/llvm/examples` for end-to-end usage.
//! use tpde_core::regs::{Reg, RegBank};
//! let r = Reg::new(RegBank::GP, 3);
//! assert_eq!(r.bank(), RegBank::GP);
//! assert_eq!(r.index(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod adapter;
pub mod analysis;
mod assignments;
mod bitset;
pub mod callconv;
pub mod codebuf;
pub mod codegen;
pub mod diskcache;
pub mod error;
pub mod faultpoint;
pub mod hash;
pub mod jit;
pub mod obj;
pub mod parallel;
mod regalloc;
pub mod regs;
pub mod rng;
pub mod service;
pub mod target;
#[cfg(test)]
mod test_ir;
pub mod timing;
pub mod verify;
