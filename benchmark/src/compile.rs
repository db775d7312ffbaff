//! The four compile workloads: single caller, one-shot compiles, nothing
//! contending, so a faster layer saves at most its share of the time.
//!
//! | workload         | timed operation per module                         |
//! |------------------|----------------------------------------------------|
//! | `jit-branchy-o0` | `compile_x64` + `jit::link_in_memory`              |
//! | `jit-loops-o1`   | `compile_x64` + `jit::link_in_memory`              |
//! | `aot-calls-a64`  | `compile_a64` + `obj::write_elf_object`            |
//! | `shard-large`    | `compile_x64_parallel` of the one merged module    |
//!
//! A repetition is one pass over the population; every call starts from a
//! fresh session, as a one-shot caller pays it. Every output is compared,
//! outside the timed span, with the reference compile made in set-up (bytes
//! and counts: the determinism check), and after the window the code is
//! executed under the emulator against the Rust reference.

use crate::check::{self, EmuTotals, IMAGE_BASE};
use crate::gen::{self, Unit};
use crate::harness::{end_to_end_metrics, finish_trace, one_shot, timed_setups, traced_metrics};
use crate::harness::{Cfg, Outcome, SPAN_CAPACITY};
use crate::probes;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use std::time::Instant;
use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_core::jit::{link_in_memory, JitImage};
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_llvm::fuzz::buffers_equal;
use tpde_llvm::{compile_a64, compile_x64, compile_x64_parallel};

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Jit,
    Aot,
    Shard,
}

/// What the timed operation hands back besides the compiled module.
enum Product {
    Image(JitImage),
    Elf(Vec<u8>),
    Sharded,
}

struct Prepared {
    units: Vec<Unit>,
    /// One-shot sequential compiles: what every timed output must equal.
    refs: Vec<CompiledModule>,
}

fn path_of(workload: &str) -> Path {
    match workload {
        "aot-calls-a64" => Path::Aot,
        "shard-large" => Path::Shard,
        _ => Path::Jit,
    }
}

fn operation(
    path: Path,
    unit: &Unit,
    threads: usize,
    tr: &mut Tracer,
    op: u32,
) -> tpde_core::error::Result<(CompiledModule, Product)> {
    let opts = CompileOptions::default();
    let compiled = tr.span("compile", op, || match path {
        Path::Jit => compile_x64(&unit.module, &opts),
        Path::Aot => compile_a64(&unit.module, &opts),
        Path::Shard => compile_x64_parallel(&unit.module, &opts, threads),
    })?;
    let product = match path {
        Path::Jit => Product::Image(tr.span("link", op, || {
            link_in_memory(&compiled.buf, IMAGE_BASE, |_| None)
        })?),
        Path::Aot => Product::Elf(tr.span("elf", op, || {
            write_elf_object(&compiled.buf, ElfMachine::Aarch64)
        })?),
        Path::Shard => Product::Sharded,
    };
    Ok((compiled, product))
}

/// Everything before the timed window: IR generation, the reference
/// one-shot compiles and one warm-up pass of the timed operation.
fn set_up(cfg: &Cfg, path: Path) -> Prepared {
    let specs = gen::compile_specs(&cfg.workload, cfg.seed, cfg.scale);
    let units = match path {
        Path::Shard => vec![gen::merge(&specs)],
        _ => gen::units(&specs),
    };
    let refs = units
        .iter()
        .map(|u| one_shot(u).expect("generated IR compiles"))
        .collect();
    let mut off = Tracer::off();
    for u in &units {
        let _ = operation(path, u, cfg.threads, &mut off, 0);
    }
    Prepared { units, refs }
}

/// Bytes, counts, symbols and relocations all equal.
fn identical(a: &CompiledModule, b: &CompiledModule) -> bool {
    let counts = |c: &CompiledModule| {
        let s = &c.stats;
        let buf = &c.buf;
        [
            s.funcs,
            s.blocks,
            s.insts,
            s.spills,
            s.reloads,
            s.moves,
            buf.relocs().len(),
            buf.symbols().len(),
        ]
    };
    buffers_equal(&a.buf, &b.buf) && counts(a) == counts(b)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let path = path_of(&cfg.workload);
    let (prep, setup_s) = timed_setups(|| set_up(cfg, path));
    let Prepared { units, refs } = &prep;
    let rep_insts: f64 = units.iter().map(|u| u.insts as f64).sum();
    let mut tr = Tracer::new(cfg.trace, Instant::now(), SPAN_CAPACITY);
    let (mut attempted, mut failed) = (0u64, 0u64);

    // ---- timed window ----------------------------------------------------
    let mut rep_rates = Vec::new();
    let mut latencies_us = Vec::new();
    let mut last: Vec<Option<(CompiledModule, Product)>> = units.iter().map(|_| None).collect();
    let window = cfg.window();
    let start = Instant::now();
    while start.elapsed() < window || rep_rates.is_empty() {
        let mut rep_secs = 0.0;
        for (k, unit) in units.iter().enumerate() {
            let op = (rep_rates.len() * units.len() + k) as u32;
            let root = tr.begin("op", op);
            let t0 = Instant::now();
            let result = operation(path, unit, cfg.threads, &mut tr, op);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(root);
            rep_secs += dt;
            latencies_us.push(dt * 1e6);
            attempted += 1;
            match result {
                Ok(out) if identical(&out.0, &refs[k]) => last[k] = Some(out),
                _ => failed += 1,
            }
        }
        rep_rates.push(rep_insts / rep_secs / 1e6);
    }
    let peak_rss_mb = check::peak_rss_mb();
    let reps = rep_rates.len();
    let minsts_per_s = median(&mut rep_rates);
    let latency = Summary::of(&mut latencies_us);

    // ---- checks ----------------------------------------------------------
    let emu_start = Instant::now();
    let mut emu = EmuTotals::default();
    let mut elf_ok = 0u64;
    for ((unit, reference), out) in units.iter().zip(refs).zip(&last) {
        let Some((compiled, product)) = out else {
            continue; // already counted as failed
        };
        match product {
            Product::Image(image) => emu.add(&check::emulate(image, &unit.entries)),
            Product::Sharded => emu.add(&check::link_and_emulate(&compiled.buf, &unit.entries)),
            Product::Elf(elf) => {
                attempted += 1;
                if check::elf_reparses(elf, &reference.buf) {
                    elf_ok += 1;
                } else {
                    failed += 1;
                }
                // AArch64 code cannot be executed here. Running the x86-64
                // compile of the same IR still checks the generated modules
                // against the reference and keeps a run-time number on this
                // row; it says nothing about the AArch64 encoding.
                let x64 = compile_x64(&unit.module, &CompileOptions::default());
                match x64 {
                    Ok(c) => emu.add(&check::link_and_emulate(&c.buf, &unit.entries)),
                    Err(_) => failed += unit.entries.len() as u64,
                }
            }
        }
    }
    let emu_secs = emu_start.elapsed().as_secs_f64();
    attempted += emu.calls;
    failed += emu.wrong;

    let mut notes = vec![
        format!(
            "{} modules, {} IR insts per repetition, {} repetitions",
            units.len(),
            rep_insts,
            reps
        ),
        format!("latency_p50_us: {}", latency.describe("us")),
        emu.describe(),
    ];
    if path == Path::Aot {
        notes.push(format!(
            "known gap: AArch64 code is not executed; {elf_ok} ELF objects re-parsed, \
             run_cycles_per_iter is of the x86-64 compile of the same modules"
        ));
    }

    // ---- metrics ---------------------------------------------------------
    let (metrics, spans) = if cfg.trace {
        let mut m = traced_metrics(minsts_per_s, latency.p50, &emu, emu_secs);
        probes::compile_path(units, refs, cfg.probe_budget(0.16), &mut tr, &mut m);
        probes::encoders(cfg.probe_budget(0.06), &mut tr, &mut m);
        match path {
            Path::Jit => {
                probes::link(refs, cfg.probe_budget(0.04), &mut tr, &mut m);
                let budget = cfg.probe_budget(0.12);
                probes::baselines(units, minsts_per_s, budget, &mut tr, &mut m);
            }
            Path::Aot => probes::elf(refs, cfg.probe_budget(0.04), &mut tr, &mut m),
            Path::Shard => {
                let budget = cfg.probe_budget(0.16);
                probes::parallel(&units[0], cfg.threads, budget, &mut tr, &mut m);
            }
        }
        let spans = finish_trace(tr, &mut m, &mut notes);
        (m, spans)
    } else {
        let m = end_to_end_metrics(
            setup_s,
            minsts_per_s,
            latency.p50,
            peak_rss_mb,
            units,
            refs,
            &emu,
        );
        (m, Vec::new())
    };
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}
