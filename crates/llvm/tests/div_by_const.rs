//! Division and remainder by a constant, proven against Rust rather than
//! against another back-end.
//!
//! x86-64 turns a constant divisor into shifts and masks (powers of two) or a
//! multiply-high by a magic number, and keeps `div`/`idiv` only for 0,
//! signed -1 and 8- and 16-bit operations. Each `f(x) = x op d` here is
//! compiled with `compile_x64`, run under `x64emu` and compared with Rust's
//! `wrapping_div`/`wrapping_rem`.

use tpde_core::codegen::CompileOptions;
use tpde_core::jit::link_in_memory;
use tpde_core::rng::Xoshiro256;
use tpde_llvm::compile_x64;
use tpde_llvm::ir::{FunctionBuilder, Module, Type};
use tpde_x64emu::Machine;

/// The divisors as 64-bit patterns; narrower types truncate them.
fn divisors(signed: bool) -> Vec<u64> {
    let mut ds: Vec<u64> = (1..=13).chain([25, 125, 641, 1000]).collect();
    ds.extend((0..64).map(|k| 1u64 << k));
    ds.extend([(1 << 32) - 1, u64::MAX - 1, u64::MAX]);
    if signed {
        ds.extend([-2i64, -3, -7, -4096, i64::MIN, i64::MIN + 1].map(|d| d as u64));
    }
    ds
}

/// One integer type under test: its IR type, width and signedness.
#[derive(Copy, Clone, Debug)]
struct Ty {
    ir: Type,
    bits: u32,
    signed: bool,
}

impl Ty {
    fn trunc(self, v: u64) -> u64 {
        if self.bits == 64 {
            v
        } else {
            v & ((1 << self.bits) - 1)
        }
    }

    fn sext(self, v: u64) -> i64 {
        ((v << (64 - self.bits)) as i64) >> (64 - self.bits)
    }

    /// Rust's answer, as a `bits`-wide pattern.
    fn expect(self, rem: bool, x: u64, d: u64) -> u64 {
        let r = match (self.bits, self.signed, rem) {
            (32, false, false) => (x as u32).wrapping_div(d as u32) as u64,
            (32, false, true) => (x as u32).wrapping_rem(d as u32) as u64,
            (32, true, false) => (x as i32).wrapping_div(d as i32) as u64,
            (32, true, true) => (x as i32).wrapping_rem(d as i32) as u64,
            (_, false, false) => x.wrapping_div(d),
            (_, false, true) => x.wrapping_rem(d),
            (_, true, false) => (x as i64).wrapping_div(d as i64) as u64,
            (_, true, true) => (x as i64).wrapping_rem(d as i64) as u64,
        };
        self.trunc(r)
    }

    fn dividends(self, d: u64, rng: &mut Xoshiro256) -> Vec<u64> {
        let (min, max) = if self.signed {
            (1 << (self.bits - 1), self.trunc(u64::MAX >> 1))
        } else {
            (0, self.trunc(u64::MAX))
        };
        let mut xs = vec![0, 1, d.wrapping_sub(1), d.wrapping_add(1), min, max];
        if self.signed {
            xs.extend([u64::MAX, self.sext(d).wrapping_neg() as u64]);
        }
        xs.extend((0..32).map(|_| rng.next_u64()));
        xs.into_iter().map(|x| self.trunc(x)).collect()
    }
}

#[test]
fn division_by_constants_matches_rust() {
    let ty = |ir, bits, signed| Ty { ir, bits, signed };
    let types = [
        ty(Type::I32, 32, false),
        ty(Type::I64, 64, false),
        ty(Type::I32, 32, true),
        ty(Type::I64, 64, true),
    ];
    let mut cases = Vec::new(); // (function name, type, rem, divisor)
    let mut m = Module::new();
    for ty in types {
        let mut ds: Vec<u64> = divisors(ty.signed)
            .into_iter()
            .map(|d| ty.trunc(d))
            .collect();
        ds.sort_unstable();
        ds.dedup();
        ds.retain(|&d| d != 0);
        for d in ds {
            for rem in [false, true] {
                let name = format!("f{}", cases.len());
                let mut b = FunctionBuilder::new(&name, &[ty.ir], ty.ir);
                let c = b.iconst(ty.ir, d as i64);
                let q = b.div(ty.signed, rem, ty.ir, b.arg(0), c);
                b.ret(Some(q));
                m.add_function(b.build());
                cases.push((name, ty, rem, d));
            }
        }
    }
    let compiled = compile_x64(&m, &CompileOptions::default()).unwrap();
    let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
    let mut machine = Machine::new();
    machine.load_image(&image);
    let mut rng = Xoshiro256::new(0xd1d);
    let mut failures = Vec::new();
    for (name, ty, rem, d) in &cases {
        let addr = image.symbol_addr(name).unwrap();
        for x in ty.dividends(*d, &mut rng) {
            // the upper half of a 32-bit argument register is undefined
            let arg = if ty.bits == 32 {
                x | 0xdead_beef << 32
            } else {
                x
            };
            let got = ty.trunc(machine.call(addr, &[arg]).unwrap());
            let want = ty.expect(*rem, x, *d);
            if got != want {
                let op = if *rem { "%" } else { "/" };
                failures.push(format!(
                    "{ty:?}: {x:#x} {op} {d:#x} = {got:#x}, want {want:#x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} wrong results, e.g.:\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
}

#[test]
fn constant_divisors_compile_without_div() {
    // `x % 5` and `x / 4096`: no `div` (f7 /6) or `idiv` (f7 /7) emitted
    for (d, rem) in [(5, true), (4096, false), (7, false), (-3i64, true)] {
        for signed in [false, true] {
            let mut m = Module::new();
            let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
            let c = b.iconst(Type::I64, d);
            let q = b.div(signed, rem, Type::I64, b.arg(0), c);
            b.ret(Some(q));
            m.add_function(b.build());
            let text = compile_x64(&m, &CompileOptions::default())
                .unwrap()
                .buf
                .text()
                .to_vec();
            let has_div = text
                .windows(3)
                .any(|w| w[0] & 0xf8 == 0x48 && w[1] == 0xf7 && matches!(w[2] >> 3 & 7, 6 | 7));
            assert!(!has_div, "d={d} signed={signed} rem={rem}: {text:02x?}");
        }
    }
}
