//! # tpde-enc
//!
//! Instruction encoders for x86-64 and AArch64 plus the concrete
//! [`tpde_core::target::Target`] implementations used by the TPDE back-ends.
//!
//! The encoders emit raw machine-code bytes directly into a
//! [`tpde_core::codebuf::CodeBuffer`]; there is no intermediate
//! machine-instruction data structure (this is what makes the single-pass
//! design fast). Branch targets are expressed as labels and patched through
//! the code buffer's fixup machinery.
//!
//! ```
//! use tpde_core::codebuf::CodeBuffer;
//! use tpde_enc::x64::{self, Gp};
//!
//! let mut buf = CodeBuffer::new();
//! x64::alu_rr(&mut buf, x64::Alu::Add, 8, Gp::RAX, Gp::RCX);
//! x64::ret(&mut buf);
//! assert_eq!(buf.text(), &[0x48, 0x01, 0xc8, 0xc3]);
//! ```

#![forbid(unsafe_code)]

pub mod a64;
pub mod a64target;
pub mod x64;
pub mod x64target;

pub use a64target::A64Target;
pub use x64target::X64Target;
