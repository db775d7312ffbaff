//! # tpde-llvm
//!
//! The LLVM-IR case study of the TPDE reproduction (paper §5): an
//! LLVM-IR-like SSA IR with a builder, the TPDE back-end for x86-64 and
//! AArch64 built on the framework and the snippet encoders, two baseline
//! back-ends (a multi-pass "LLVM -O0"-like pipeline and a
//! copy-and-patch-style compiler), and the SPEC-like workload generator used
//! by the benchmarks.
//!
//! Every back-end is one [`ServiceBackendKind`], and there is one way to
//! run each: [`compile`] on the calling thread, [`compile_parallel`] with
//! the functions sharded across threads, or a [`compile_service`] for a
//! stream of requests. All three give byte-identical output.
//!
//! ```
//! use tpde_llvm::ir::{FunctionBuilder, Module, Type, BinOp};
//! use tpde_llvm::ServiceBackendKind;
//! use tpde_core::codegen::CompileOptions;
//!
//! let mut m = Module::new();
//! let mut b = FunctionBuilder::new("add", &[Type::I64, Type::I64], Type::I64);
//! let sum = b.bin(BinOp::Add, Type::I64, b.arg(0), b.arg(1));
//! b.ret(Some(sum));
//! m.add_function(b.build());
//! let opts = CompileOptions::default();
//! let compiled = tpde_llvm::compile(&m, ServiceBackendKind::TpdeX64, &opts).unwrap();
//! assert!(compiled.text_size() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod adapter;
pub mod backend;
mod baselines;
pub mod fuzz;
pub mod ir;
pub mod workloads;

pub use backend::{
    compile, compile_a64, compile_parallel, compile_service, compile_x64, compile_x64_parallel,
    LlvmCompileService, ModuleRequest, ServiceBackendKind,
};
pub use baselines::{compile_baseline, compile_copy_patch};
