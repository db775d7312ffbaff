//! # tpde-x64emu
//!
//! A user-mode x86-64 emulator for the machine-code subset emitted by the
//! TPDE back-ends and baselines.
//!
//! The paper evaluates run-time performance on real hardware (SPEC CPU2017 on
//! a Xeon and an Apple M1). This reproduction instead executes the generated
//! code in this emulator, which decodes the actual machine-code bytes,
//! maintains architectural state (GP registers, SSE registers, flags, memory)
//! and reports deterministic dynamic execution statistics (instruction
//! counts, memory traffic, and a simple weighted cycle model). Relative
//! run-time differences between back-ends are driven by exactly the effects
//! the paper discusses — extra moves, spills and reloads — so the *shape* of
//! the run-time comparison is preserved while staying portable and
//! deterministic.
//!
//! Calls to unresolved external symbols (placed at
//! [`tpde_core::jit::EXTERNAL_CALLOUT_BASE`]) are dispatched to registered
//! host functions; a small libc subset (`malloc`, `memcpy`, `memset`, …) is
//! provided out of the box.
//!
//! ```
//! use tpde_core::codegen::CompileOptions;
//! use tpde_core::jit::link_in_memory;
//! use tpde_llvm::ir::{BinOp, FunctionBuilder, Module, Type};
//!
//! let mut m = Module::new();
//! let mut b = FunctionBuilder::new("double_it", &[Type::I64], Type::I64);
//! let two = b.iconst(Type::I64, 2);
//! let res = b.bin(BinOp::Mul, Type::I64, b.arg(0), two);
//! b.ret(Some(res));
//! m.add_function(b.build());
//!
//! let compiled = tpde_llvm::backend::compile_x64(&m, &CompileOptions::default()).unwrap();
//! let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
//! let (ret, stats) = tpde_x64emu::run_function(&image, "double_it", &[21]).unwrap();
//! assert_eq!(ret, 42);
//! assert!(stats.insts > 0);
//! ```

#![forbid(unsafe_code)]

mod cpu;
mod decode;
mod hostcalls;
mod memory;

pub use cpu::{EmuError, EmuStats, Machine, HOST_FN_NAMES};
pub use hostcalls::register_default_hostcalls;
pub use memory::Memory;

use tpde_core::jit::JitImage;

/// Convenience helper: creates a machine, loads `image`, registers the
/// default host calls and runs `symbol` with up to six integer arguments.
///
/// Returns the integer return value (`rax`) and the execution statistics.
///
/// # Errors
///
/// Returns an [`EmuError`] if the symbol is missing or execution faults.
pub fn run_function(
    image: &JitImage,
    symbol: &str,
    args: &[u64],
) -> Result<(u64, EmuStats), EmuError> {
    let mut m = Machine::new();
    m.load_image(image);
    hostcalls::register_default_hostcalls(&mut m, image);
    let addr = image
        .symbol_addr(symbol)
        .ok_or_else(|| EmuError::Fault(format!("unknown symbol {symbol}")))?;
    let ret = m.call(addr, args)?;
    Ok((ret, m.stats().clone()))
}
