//! Seeded input generation: module populations, the merged large module and
//! the request schedules.
//!
//! The sizes below are constants of the benchmark, the same on every commit.
//! The seed draws each module's function count (stratified, so the size
//! distribution of a population hardly moves between seeds), its
//! `bench_main` input, a tag that makes its content hash unique to the seed,
//! the module order and the request schedule. The program under test only
//! ever sees the generated modules.

use std::sync::Arc;
use tpde_core::rng::Xoshiro256;
use tpde_llvm::ir::{FunctionBuilder, Inst, Module, Type};
use tpde_llvm::workloads::{build_workload, expected_result, IrStyle, Workload, WorkloadKind};
use tpde_llvm::ServiceBackendKind;

/// One group of like modules in a population.
struct Family {
    kind: WorkloadKind,
    style: IrStyle,
    modules: u32,
    /// Inclusive range of kernel functions per module.
    funcs: (u32, u32),
    backend: ServiceBackendKind,
}

/// `bench_main` inputs are drawn from this inclusive range: small, because
/// every kernel loop is later executed under the emulator (about 10 M
/// emulated instructions per second) to check the generated code.
const INPUT_RANGE: (u32, u32) = (16, 31);

/// `Branchy`, O0-style: about 250k IR instructions per repetition.
const JIT_BRANCHY_O0: &[Family] = &[Family {
    kind: WorkloadKind::Branchy,
    style: IrStyle::O0,
    modules: 176,
    funcs: (16, 44),
    backend: ServiceBackendKind::TpdeX64,
}];

/// Phi-carried integer loops dominate; the FP and memory kernels (which keep
/// their locals in stack slots in either style) ride along. The memory
/// family is kept small because each of its kernels initialises a
/// 4096-element array, which costs the emulator 70k instructions per call.
const JIT_LOOPS_O1: &[Family] = &[
    Family {
        kind: WorkloadKind::IntLoop,
        style: IrStyle::O1,
        modules: 160,
        funcs: (24, 60),
        backend: ServiceBackendKind::TpdeX64,
    },
    Family {
        kind: WorkloadKind::FpKernel,
        style: IrStyle::O1,
        modules: 64,
        funcs: (24, 56),
        backend: ServiceBackendKind::TpdeX64,
    },
    Family {
        kind: WorkloadKind::Memory,
        style: IrStyle::O1,
        modules: 8,
        funcs: (8, 16),
        backend: ServiceBackendKind::TpdeX64,
    },
];

const AOT_CALLS_A64: &[Family] = &[Family {
    kind: WorkloadKind::CallHeavy,
    style: IrStyle::O0,
    modules: 200,
    funcs: (24, 56),
    backend: ServiceBackendKind::TpdeA64,
}];

/// Parts of the one large module: `602.gcc` has 22 kernels, so about 205
/// parts of 14–30 make the ~4 500 functions.
const SHARD_LARGE: &[Family] = &[Family {
    kind: WorkloadKind::Branchy,
    style: IrStyle::O0,
    modules: 205,
    funcs: (14, 30),
    backend: ServiceBackendKind::TpdeX64,
}];

/// Distinct small modules of the service workloads.
const SVC_MODULES: u32 = 512;
const SVC_FUNCS: (u32, u32) = (8, 24);
const SVC_KINDS: [WorkloadKind; 5] = [
    WorkloadKind::Branchy,
    WorkloadKind::IntLoop,
    WorkloadKind::CallHeavy,
    WorkloadKind::FpKernel,
    WorkloadKind::Memory,
];

/// What one generated module is, apart from its IR.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub kind: WorkloadKind,
    pub style: IrStyle,
    pub funcs: u32,
    pub input: u64,
    pub tag: u64,
    /// Which compiler answers the module in the service workloads.
    pub backend: ServiceBackendKind,
}

impl Spec {
    fn workload(&self) -> Workload {
        Workload {
            name: "benchmark",
            kind: self.kind,
            funcs: self.funcs,
            input: self.input,
        }
    }

    /// The module: the kernels and `bench_main` of the workload generator
    /// plus a `tag` function returning the spec's tag, never called, which
    /// makes the content hash unique to the seed.
    pub fn build(&self) -> Module {
        let mut m = build_workload(&self.workload(), self.style);
        m.add_function(tag_function(self.tag));
        m
    }

    /// Value of `bench_main(input)` by the hand-written Rust reference,
    /// which shares no code with any compiler under test.
    pub fn expected(&self) -> u64 {
        expected_result(&self.workload())
    }

    /// Kernel loop iterations one `bench_main(input)` call executes, from
    /// the definition of the kernels.
    pub fn iterations(&self) -> u64 {
        (0..self.funcs as u64)
            .map(|i| {
                let n = self.input + i + 1;
                match self.kind {
                    WorkloadKind::IntLoop | WorkloadKind::Branchy => n,
                    WorkloadKind::Memory => 4096 + n,
                    WorkloadKind::CallHeavy => n % 1024,
                    WorkloadKind::FpKernel => self.input,
                }
            })
            .sum()
    }
}

fn tag_function(tag: u64) -> tpde_llvm::ir::Function {
    let mut b = FunctionBuilder::new("tag", &[], Type::I64);
    let c = b.iconst(Type::I64, tag as i64);
    b.ret(Some(c));
    b.build()
}

/// A function to call in a compiled module and what it must return.
#[derive(Clone, Debug)]
pub struct Entry {
    pub symbol: String,
    pub input: u64,
    pub expected: u64,
    pub iterations: u64,
}

/// One module handed to the program under test.
pub struct Unit {
    pub module: Arc<Module>,
    pub backend: ServiceBackendKind,
    /// IR instructions, counted on the IR, not by the compiler.
    pub insts: u64,
    pub entries: Vec<Entry>,
}

impl Unit {
    pub fn of(spec: &Spec) -> Unit {
        let module = spec.build();
        Unit {
            backend: spec.backend,
            insts: module.inst_count() as u64,
            entries: vec![Entry {
                symbol: "bench_main".into(),
                input: spec.input,
                expected: spec.expected(),
                iterations: spec.iterations(),
            }],
            module: Arc::new(module),
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Xoshiro256) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `count` function counts over `lo..=hi`, one drawn from each of `count`
/// equal strata of the range.
fn stratified(count: u32, (lo, hi): (u32, u32), rng: &mut Xoshiro256) -> Vec<u32> {
    let width = (hi - lo + 1) as f64;
    (0..count)
        .map(|k| {
            let u = rng.below(1 << 20) as f64 / (1u64 << 20) as f64;
            lo + (((k as f64 + u) / count as f64 * width) as u32).min(hi - lo)
        })
        .collect()
}

fn scaled(n: u32, scale: f64) -> u32 {
    ((n as f64 * scale).round() as u32).max(2)
}

/// `count` inputs, stratified like the function counts and then shuffled,
/// so that a module's input does not follow from its size.
fn draw_inputs(count: u32, rng: &mut Xoshiro256) -> Vec<u32> {
    let mut inputs = stratified(count, INPUT_RANGE, rng);
    shuffle(&mut inputs, rng);
    inputs
}

fn specs_of(families: &[Family], seed: u64, scale: f64) -> Vec<Spec> {
    let mut rng = Xoshiro256::new(seed);
    let tag_base = rng.next_u64() << 24;
    let mut specs = Vec::new();
    for fam in families {
        let modules = scaled(fam.modules, scale);
        let inputs = draw_inputs(modules, &mut rng);
        let funcs = stratified(modules, fam.funcs, &mut rng);
        for (funcs, input) in funcs.into_iter().zip(inputs) {
            specs.push(Spec {
                kind: fam.kind,
                style: fam.style,
                funcs,
                input: input as u64,
                tag: tag_base | specs.len() as u64,
                backend: fam.backend,
            });
        }
    }
    shuffle(&mut specs, &mut rng);
    specs
}

/// The module population of a compile workload, in the seed's order.
pub fn compile_specs(workload: &str, seed: u64, scale: f64) -> Vec<Spec> {
    let families = match workload {
        "jit-branchy-o0" => JIT_BRANCHY_O0,
        "jit-loops-o1" => JIT_LOOPS_O1,
        "aot-calls-a64" => AOT_CALLS_A64,
        "shard-large" => SHARD_LARGE,
        other => panic!("not a compile workload: {other}"),
    };
    specs_of(families, seed, scale)
}

/// The 512 distinct small modules of the service workloads: all five
/// families in both IR styles, 8–24 kernels, 75% answered by `TpdeX64` and
/// 25% by `TpdeA64`. The memory family is among the AArch64 quarter: that
/// code is never executed, and emulating its array initialisation for every
/// module would take longer than the measurement.
///
/// The modules are in stratum order (see [`popular`] for why); clients that
/// walk them take [`walk_order`].
pub fn service_specs(seed: u64, scale: f64) -> Vec<Spec> {
    let mut rng = Xoshiro256::new(seed ^ 0x5e7c_1ce5);
    let tag_base = rng.next_u64() << 24;
    let n = scaled(SVC_MODULES, scale);
    let funcs = stratified(n, SVC_FUNCS, &mut rng);
    // Per family, so that no family's share of the executed iterations
    // depends on which inputs it happened to draw.
    let inputs: Vec<Vec<u32>> = SVC_KINDS
        .iter()
        .map(|_| draw_inputs(n.div_ceil(5), &mut rng))
        .collect();
    (0..n)
        .map(|k| {
            // Kind, style and backend cycle with different periods, so the
            // combinations are equally frequent and every one of them spans
            // the function-count strata, which ascend with `k`.
            let kind = SVC_KINDS[(k % 5) as usize];
            let a64 = kind == WorkloadKind::Memory || matches!(k % 80, 0 | 21 | 42 | 63);
            Spec {
                kind,
                style: if (k / 5) % 2 == 0 {
                    IrStyle::O0
                } else {
                    IrStyle::O1
                },
                funcs: funcs[k as usize],
                input: inputs[(k % 5) as usize][(k / 5) as usize] as u64,
                tag: tag_base | k as u64,
                backend: if a64 {
                    ServiceBackendKind::TpdeA64
                } else {
                    ServiceBackendKind::TpdeX64
                },
            }
        })
        .collect()
}

/// The seed's order in which `svc-cold` clients walk `n` modules.
pub fn walk_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, &mut Xoshiro256::new(seed ^ 0x3a1c_0de5));
    order
}

/// The module at popularity rank `rank` of `n` (0 the most popular).
///
/// A constant of the workload, not a draw: under Zipf(1.1) the three most
/// popular modules receive a fifth of all requests, so if the seed chose
/// *which* family, size and backend they have, throughput and median
/// latency would differ by tens of per cent from seed to seed. The seed
/// draws what the modules contain and when they are requested; which
/// stratum is how popular is fixed, scattered by a multiplicative step.
pub fn popular(rank: usize, n: usize) -> usize {
    (rank * 197 + n / 2) % n
}

pub fn units(specs: &[Spec]) -> Vec<Unit> {
    specs.iter().map(Unit::of).collect()
}

/// All parts in one module, the shape of a large translation unit: part
/// `j`'s functions are renamed `p<j>_<name>` and its calls re-pointed, so the
/// merged module has one `p<j>_bench_main` per part to check.
pub fn merge(parts: &[Spec]) -> Unit {
    let mut merged = Module::new();
    let mut entries = Vec::new();
    for (j, spec) in parts.iter().enumerate() {
        let base = merged.funcs.len() as u32;
        let part = build_workload(&spec.workload(), spec.style);
        for mut f in part.funcs {
            f.name = format!("p{j}_{}", f.name);
            for inst in f.blocks.iter_mut().flat_map(|b| b.insts.iter_mut()) {
                if let Inst::Call { callee, .. } = inst {
                    callee.0 += base;
                }
            }
            merged.add_function(f);
        }
        entries.push(Entry {
            symbol: format!("p{j}_bench_main"),
            input: spec.input,
            expected: spec.expected(),
            iterations: spec.iterations(),
        });
    }
    merged.add_function(tag_function(parts.first().map_or(0, |s| s.tag)));
    Unit {
        backend: ServiceBackendKind::TpdeX64,
        insts: merged.inst_count() as u64,
        module: Arc::new(merged),
        entries,
    }
}

/// Zipf-distributed ranks `0..n` (rank 0 the most popular), exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Xoshiro256) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(specs: &[Spec]) -> Vec<u64> {
        specs.iter().map(|s| s.build().content_hash()).collect()
    }

    #[test]
    fn same_seed_same_modules_other_seed_other_modules() {
        let a = compile_specs("jit-loops-o1", 7, 0.05);
        let b = compile_specs("jit-loops-o1", 7, 0.05);
        let c = compile_specs("jit-loops-o1", 8, 0.05);
        assert_eq!(a, b);
        assert_eq!(hashes(&a), hashes(&b));
        assert_ne!(hashes(&a), hashes(&c));
        let s1 = service_specs(7, 0.1);
        assert_eq!(hashes(&s1), hashes(&service_specs(7, 0.1)));
        assert_ne!(hashes(&s1), hashes(&service_specs(8, 0.1)));
    }

    #[test]
    fn service_modules_are_distinct_and_mixed() {
        let specs = service_specs(1, 1.0);
        assert_eq!(specs.len(), 512);
        let mut h = hashes(&specs);
        h.sort_unstable();
        h.dedup();
        assert_eq!(h.len(), 512, "content hashes must be distinct");
        let a64 = specs
            .iter()
            .filter(|s| s.backend == ServiceBackendKind::TpdeA64)
            .count();
        assert_eq!(a64, 128, "25% AArch64");
        assert!(specs
            .iter()
            .all(|s| (8..=24).contains(&s.funcs) && (16..=31).contains(&s.input)));
        let mut ranks: Vec<usize> = (0..512).map(|r| popular(r, 512)).collect();
        ranks.sort_unstable();
        assert!(
            ranks.iter().copied().eq(0..512),
            "popularity is a permutation"
        );
        assert_ne!(walk_order(512, 1), walk_order(512, 2));
        for kind in SVC_KINDS {
            for style in [IrStyle::O0, IrStyle::O1] {
                let n = specs
                    .iter()
                    .filter(|s| s.kind == kind && s.style == style)
                    .count();
                assert!((50..=53).contains(&n), "{kind:?} {style:?}: {n}");
            }
        }
    }

    #[test]
    fn stratified_counts_cover_the_range_evenly() {
        let mut rng = Xoshiro256::new(3);
        let v = stratified(176, (16, 44), &mut rng);
        assert_eq!((v[0], v[175]), (16, 44));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let total: u32 = v.iter().sum();
        assert!((5200..=5360).contains(&total), "{total}");
    }

    #[test]
    fn schedules_repeat_for_a_seed() {
        let z = Zipf::new(512, 1.1);
        let draw = |seed| {
            let mut rng = Xoshiro256::new(seed);
            (0..64).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut rng = Xoshiro256::new(9);
        let top = (0..10_000).filter(|_| z.draw(&mut rng) < 128).count();
        assert!((7000..9000).contains(&top), "top quarter drew {top}");
    }

    #[test]
    fn merged_module_keeps_every_part_callable() {
        let parts = compile_specs("shard-large", 2, 0.02);
        let unit = merge(&parts);
        assert_eq!(unit.entries.len(), parts.len());
        let funcs: u32 = parts.iter().map(|s| s.funcs + 1).sum();
        assert_eq!(unit.module.funcs.len() as u32, funcs + 1);
        assert!(unit.module.func_by_name("p1_bench_main").is_some());
        let mut a = tpde_llvm::adapter::LlvmAdapter::new(&unit.module);
        assert!(tpde_core::verify::Verifier::new()
            .verify_module(&mut a)
            .is_ok());
    }
}
