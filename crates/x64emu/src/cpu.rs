//! Machine state, run loop and host-call dispatch.

use crate::memory::Memory;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use tpde_core::codebuf::SectionKind;
use tpde_core::jit::{JitImage, EXTERNAL_CALLOUT_BASE, EXTERNAL_CALLOUT_END};

/// Magic return address used to detect that the top-level call returned.
pub(crate) const RETURN_MAGIC: u64 = 0x0dea_d10c_0000_0000;
/// Base of the emulated stack.
const STACK_TOP: u64 = 0x7ffd_0000_0000;
/// Base of the emulated heap (grown by the `malloc` host call).
const HEAP_BASE: u64 = 0x6000_0000_0000;
/// Default instruction budget before execution is aborted.
const DEFAULT_MAX_INSTS: u64 = 2_000_000_000;

/// Errors produced during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// An instruction could not be decoded.
    Decode { rip: u64, bytes: Vec<u8> },
    /// A guest fault (e.g. division by zero, explicit trap, missing symbol).
    Fault(String),
    /// The instruction budget was exhausted.
    Timeout,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Decode { rip, bytes } => {
                write!(f, "cannot decode instruction at {rip:#x}: {bytes:02x?}")
            }
            EmuError::Fault(msg) => write!(f, "guest fault: {msg}"),
            EmuError::Timeout => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for EmuError {}

/// Dynamic execution statistics; the run-time metric of the benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmuStats {
    /// Executed instructions.
    pub insts: u64,
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Taken + not-taken branches.
    pub branches: u64,
    /// Calls (including host call-outs).
    pub calls: u64,
    /// Weighted cycle estimate (simple cost model: memory 2, mul 3, div 20,
    /// everything else 1).
    pub cycles: u64,
}

/// CPU flags tracked by the emulator.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flags {
    pub(crate) zf: bool,
    pub(crate) sf: bool,
    pub(crate) cf: bool,
    pub(crate) of: bool,
    pub(crate) pf: bool,
}

/// A registered host function: reads its arguments from the machine
/// (SysV registers / stack) and writes results to `rax`/`xmm0`.
pub(crate) type HostFn = Rc<dyn Fn(&mut Machine) -> Result<(), EmuError>>;

/// The emulated machine.
pub struct Machine {
    /// General-purpose registers, indexed by architectural number.
    pub(crate) regs: [u64; 16],
    /// SSE registers (low 64 bits only; the back-ends only use scalars).
    pub(crate) xmm: [u64; 16],
    /// Instruction pointer.
    pub(crate) rip: u64,
    pub(crate) flags: Flags,
    /// Guest memory.
    pub mem: Memory,
    stats: EmuStats,
    host_fns: HashMap<u64, HostFn>,
    pub(crate) heap_next: u64,
    /// Maximum number of instructions `Machine::run` will execute.
    pub max_insts: u64,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// Creates an empty machine.
    pub fn new() -> Machine {
        Machine {
            regs: [0; 16],
            xmm: [0; 16],
            rip: 0,
            flags: Flags::default(),
            mem: Memory::new(),
            stats: EmuStats::default(),
            host_fns: HashMap::new(),
            heap_next: HEAP_BASE,
            max_insts: DEFAULT_MAX_INSTS,
        }
    }

    /// Loads all sections of a linked image into guest memory.
    pub fn load_image(&mut self, image: &JitImage) {
        for (kind, addr, data) in &image.sections {
            if *kind == SectionKind::Bss {
                // memory is zero-initialized by construction
                continue;
            }
            self.mem.write_bytes(*addr, data);
        }
    }

    /// Registers a host function at a guest address (typically one of the
    /// image's external call-out addresses).
    pub fn register_host_fn(&mut self, addr: u64, f: HostFn) {
        self.host_fns.insert(addr, f);
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &EmuStats {
        &self.stats
    }

    /// Mutable access to the statistics (used by the decoder).
    pub(crate) fn stats_mut(&mut self) -> &mut EmuStats {
        &mut self.stats
    }

    /// Allocates `size` bytes of guest heap (bump allocation).
    pub(crate) fn heap_alloc(&mut self, size: u64, align: u64) -> u64 {
        let align = align.max(16);
        self.heap_next = (self.heap_next + align - 1) & !(align - 1);
        let addr = self.heap_next;
        self.heap_next += size.max(1);
        addr
    }

    /// Reads the `n`-th integer argument per the SysV calling convention
    /// (only register arguments are supported for host calls).
    pub fn arg(&self, n: usize) -> u64 {
        const ARGS: [usize; 6] = [7, 6, 2, 1, 8, 9]; // rdi rsi rdx rcx r8 r9
        self.regs[ARGS[n]]
    }

    /// Sets the integer return value (`rax`).
    pub fn set_ret(&mut self, v: u64) {
        self.regs[0] = v;
    }

    pub(crate) fn push(&mut self, v: u64) {
        self.regs[4] = self.regs[4].wrapping_sub(8);
        self.mem.write(self.regs[4], 8, v);
    }

    pub(crate) fn pop(&mut self) -> u64 {
        let v = self.mem.read(self.regs[4], 8);
        self.regs[4] = self.regs[4].wrapping_add(8);
        v
    }

    /// Calls the function at `addr` with up to six integer arguments and runs
    /// it to completion, returning `rax`.
    ///
    /// # Errors
    ///
    /// Propagates decode errors, guest faults and instruction-budget
    /// exhaustion.
    pub fn call(&mut self, addr: u64, args: &[u64]) -> Result<u64, EmuError> {
        assert!(args.len() <= 6, "host-side call supports at most 6 args");
        const ARGS: [usize; 6] = [7, 6, 2, 1, 8, 9];
        for (i, a) in args.iter().enumerate() {
            self.regs[ARGS[i]] = *a;
        }
        self.regs[4] = STACK_TOP - 4096; // rsp, 16-byte aligned
        self.push(RETURN_MAGIC);
        self.rip = addr;
        self.run()?;
        Ok(self.regs[0])
    }

    /// Runs until the outermost frame returns (to the magic return address).
    pub(crate) fn run(&mut self) -> Result<(), EmuError> {
        let budget = self.max_insts;
        let start = self.stats.insts;
        loop {
            if self.rip == RETURN_MAGIC {
                return Ok(());
            }
            if let Some(f) = self.host_fns.get(&self.rip).cloned() {
                f(self)?;
                self.stats.calls += 1;
                // simulate `ret`
                self.rip = self.pop();
                continue;
            }
            if (EXTERNAL_CALLOUT_BASE..EXTERNAL_CALLOUT_END).contains(&self.rip) {
                return Err(EmuError::Fault(format!(
                    "call to unregistered host function at {:#x}",
                    self.rip
                )));
            }
            self.step()?;
            if self.stats.insts - start > budget {
                return Err(EmuError::Timeout);
            }
        }
    }
}
