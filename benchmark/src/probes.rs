//! Per-layer probes of a traced run: each times calls into one layer's
//! public functions from outside, on the workload's own modules, and records
//! one span per call. The metrics are sums over those spans.
//!
//! From outside, `core::codegen` is one lump with `regalloc`, `assignments`,
//! `callconv`, the `codebuf` fixups, `enc` and `snippets`: its time is the
//! warm-session compile minus the adapter and analysis replays. Spans inside
//! the program are a later change.

use crate::check::IMAGE_BASE;
use crate::gen::Unit;
use crate::harness::{passes_within, span_p50_us, span_total_ns, Metrics};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Duration;
use tpde_core::adapter::{FuncRef, IrAdapter};
use tpde_core::analysis::{Analysis, Analyzer};
use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::{CompileOptions, CompileSession, CompiledModule};
use tpde_core::diskcache::{serialize_module, DiskCache, DiskCacheConfig};
use tpde_core::jit::link_in_memory;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_core::timing::Phase;
use tpde_core::verify::Verifier;
use tpde_enc::{a64, x64, A64Target, X64Target};
use tpde_llvm::adapter::LlvmAdapter;
use tpde_llvm::backend::compile_with_session;
use tpde_llvm::{compile_baseline, compile_copy_patch, compile_x64, ServiceBackendKind};

fn total_insts(units: &[Unit]) -> f64 {
    units.iter().map(|u| u.insts as f64).sum()
}

/// `llvm::adapter`: `LlvmAdapter::new` + `switch_func` over every function.
fn adapter(units: &[Unit], budget: Duration, tr: &mut Tracer) -> u64 {
    passes_within(budget, || {
        for (k, u) in units.iter().enumerate() {
            tr.span("adapter", k as u32, || {
                let mut a = LlvmAdapter::new(&u.module);
                for f in (0..a.func_count() as u32).map(FuncRef) {
                    if a.func_is_definition(f) {
                        a.switch_func(f);
                        black_box(a.value_count());
                        a.finalize_func();
                    }
                }
            });
        }
    })
}

/// `core::analysis`: `Analyzer::analyze_into` per function; also counts
/// blocks and loops per function.
fn analysis(units: &[Unit], budget: Duration, tr: &mut Tracer, m: &mut Metrics) -> u64 {
    let mut analyzer = Analyzer::new();
    let mut out = Analysis::default();
    let (mut funcs, mut blocks, mut loops) = (0u64, 0u64, 0u64);
    let passes = passes_within(budget, || {
        (funcs, blocks, loops) = (0, 0, 0);
        for (k, u) in units.iter().enumerate() {
            let mut a = LlvmAdapter::new(&u.module);
            for f in (0..a.func_count() as u32).map(FuncRef) {
                if !a.func_is_definition(f) {
                    continue;
                }
                a.switch_func(f);
                tr.span("analysis", k as u32, || {
                    analyzer
                        .analyze_into(&a, &mut out)
                        .expect("generated IR analyses");
                });
                a.finalize_func();
                funcs += 1;
                blocks += out.layout.len() as u64;
                // Entry 0 of the loop forest is the pseudo root.
                loops += out.loops.len() as u64 - 1;
            }
        }
    });
    m.set("blocks_per_func", blocks as f64 / funcs as f64);
    m.set("loops_per_func", loops as f64 / funcs as f64);
    passes
}

/// Warm-session compile of every module for its own target.
fn compile_warm(units: &[Unit], budget: Duration, tr: &mut Tracer) -> (u64, f64) {
    let opts = CompileOptions::default();
    let mut session = CompileSession::new();
    let mut phase_ns = 0.0;
    let passes = passes_within(budget, || {
        phase_ns = 0.0;
        for (k, u) in units.iter().enumerate() {
            let c = tr.span("compile_warm", k as u32, || match u.backend {
                ServiceBackendKind::TpdeA64 => {
                    compile_with_session(&u.module, A64Target::new(), &opts, &mut session)
                }
                _ => compile_with_session(&u.module, X64Target::new(), &opts, &mut session),
            });
            let c = c.expect("generated IR compiles");
            phase_ns += c.timings.total(Phase::CodeGen).as_nanos() as f64;
        }
    });
    (passes, phase_ns)
}

/// The compile path layer by layer: adapter, analysis, and codegen as the
/// remainder of the warm compile; plus the exact counts of the reference
/// outputs.
pub fn compile_path(
    units: &[Unit],
    refs: &[CompiledModule],
    budget: Duration,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let insts = total_insts(units);
    let per_inst =
        |tr: &Tracer, name, passes: u64| span_total_ns(tr.spans(), name) / (passes as f64 * insts);
    let p = adapter(units, budget / 4, tr);
    let adapter_ns = per_inst(tr, "adapter", p);
    let p = analysis(units, budget / 4, tr, m);
    let analysis_ns = per_inst(tr, "analysis", p);
    let (p, phase_ns) = compile_warm(units, budget / 2, tr);
    let warm_ns = per_inst(tr, "compile_warm", p);
    m.set("adapter_ns_per_inst", adapter_ns);
    m.set("analysis_ns_per_inst", analysis_ns);
    m.set("codegen_ns_per_inst", warm_ns - adapter_ns - analysis_ns);
    m.set("codegen_phase_ns_per_inst", phase_ns / insts);

    let kinsts = refs.iter().map(|c| c.stats.insts as f64).sum::<f64>() / 1000.0;
    let sum = |f: &dyn Fn(&CompiledModule) -> usize| refs.iter().map(|c| f(c) as f64).sum::<f64>();
    m.set("spills_per_kinst", sum(&|c| c.stats.spills) / kinsts);
    m.set("reloads_per_kinst", sum(&|c| c.stats.reloads) / kinsts);
    m.set("moves_per_kinst", sum(&|c| c.stats.moves) / kinsts);
    m.set("relocs", sum(&|c| c.buf.relocs().len()));
    m.set("symbols", sum(&|c| c.buf.symbols().len()));
}

/// `core::jit`: `link_in_memory` of the reference outputs.
pub fn link(refs: &[CompiledModule], budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    let kb = refs.iter().map(|c| c.text_size() as f64).sum::<f64>() / 1024.0;
    let passes = passes_within(budget, || {
        for (k, c) in refs.iter().enumerate() {
            let image = tr.span("link_probe", k as u32, || {
                link_in_memory(&c.buf, IMAGE_BASE, |_| None)
            });
            black_box(image.expect("reference output links"));
        }
    });
    let us = span_total_ns(tr.spans(), "link_probe") / 1e3;
    m.set("link_us_per_kb", us / (passes as f64 * kb));
}

/// `core::obj`: `write_elf_object` of the reference outputs.
pub fn elf(refs: &[CompiledModule], budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    let mut bytes = 0.0;
    let passes = passes_within(budget, || {
        bytes = 0.0;
        for (k, c) in refs.iter().enumerate() {
            let obj = tr.span("elf_probe", k as u32, || {
                write_elf_object(&c.buf, ElfMachine::Aarch64)
            });
            bytes += obj.expect("reference output is representable").len() as f64;
        }
    });
    let secs = span_total_ns(tr.spans(), "elf_probe") / 1e9;
    m.set("elf_mb_per_s", passes as f64 * bytes / 1e6 / secs);
}

/// Blocks of the fixed instruction stream the encoder probes emit.
const ENC_BLOCKS: usize = 20_000;

fn encode_x64(buf: &mut CodeBuffer) -> u64 {
    use x64::{Alu, Cond, Gp, Mem, Shift};
    buf.text_mut().clear();
    for i in 0..ENC_BLOCKS {
        let head = buf.new_label();
        buf.bind_label(head);
        let slot = -(((i % 48) as i32 + 1) * 8);
        x64::mov_rm(buf, 8, Gp::RAX, Mem::base_disp(Gp::RBP, slot));
        x64::alu_ri(buf, Alu::Add, 8, Gp::RAX, 0x4321);
        x64::imul_rri(buf, 8, Gp::RCX, Gp::RAX, 31);
        x64::shift_ri(buf, Shift::Shl, 8, Gp::RCX, 5);
        x64::alu_rr(buf, Alu::Xor, 8, Gp::RAX, Gp::RCX);
        x64::mov_mr(buf, 8, Mem::sib(Gp::RBP, Gp::RCX, 8, -24), Gp::RAX);
        x64::mov_ri(buf, 8, Gp::RDX, 0x9e37_79b9_7f4a);
        x64::alu_rr(buf, Alu::Cmp, 8, Gp::RAX, Gp::RDX);
        if i % 3 == 2 {
            // A forward branch goes through the fixup pool, a backward
            // one is encoded at once.
            let skip = buf.new_label();
            x64::jcc_label(buf, Cond::E, skip);
            x64::nops(buf, 3);
            buf.bind_label(skip);
        }
        x64::jcc_label(buf, Cond::NE, head);
    }
    x64::ret(buf);
    buf.finish_func_fixups().expect("all labels bound");
    buf.text_offset()
}

fn encode_a64(buf: &mut CodeBuffer) -> u64 {
    buf.text_mut().clear();
    for i in 0..ENC_BLOCKS {
        let head = buf.new_label();
        buf.bind_label(head);
        let slot = ((i % 48) as i32 + 1) * 8;
        a64::ldr(buf, 8, 0, a64::FP, slot);
        a64::add_imm(buf, true, 0, 0, 0x321);
        a64::madd(buf, true, 1, 0, 2, 3);
        a64::lsl_imm(buf, true, 1, 1, 5);
        a64::add_rr(buf, true, 0, 0, 1);
        a64::str(buf, 8, 0, a64::FP, slot);
        a64::mov_imm64(buf, 4, 0x9e37_79b9_7f4a);
        a64::cmp_rr(buf, true, 0, 4);
        if i % 3 == 2 {
            let skip = buf.new_label();
            a64::bcond_label(buf, a64::Cond::Eq, skip);
            a64::nop(buf);
            buf.bind_label(skip);
        }
        a64::bcond_label(buf, a64::Cond::Ne, head);
    }
    a64::ret(buf);
    buf.finish_func_fixups().expect("all labels bound");
    buf.text_offset()
}

/// `enc`: a fixed instruction stream straight into a reused `CodeBuffer` —
/// an upper bound on what codegen can emit for that target.
pub fn encoders(budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    type Encode = fn(&mut CodeBuffer) -> u64;
    let targets: [(&'static str, &str, Encode); 2] = [
        ("enc_x64", "enc_x64_mb_per_s", encode_x64),
        ("enc_a64", "enc_a64_mb_per_s", encode_a64),
    ];
    for (span, metric, encode) in targets {
        let mut buf = CodeBuffer::new();
        let mut bytes = encode(&mut buf);
        let passes = passes_within(budget / 2, || {
            bytes = tr.span(span, 0, || black_box(encode(&mut buf)));
        });
        let secs = span_total_ns(tr.spans(), span) / 1e9;
        m.set(metric, passes as f64 * bytes as f64 / 1e6 / secs);
    }
}

/// `llvm::baselines` on the same inputs: the multi-pass O0-like pipeline and
/// the copy-and-patch compiler, and the paper's Fig. 5a ratio with its base
/// (`tpde_minsts_per_s`, the one-shot rate of the traced window). Reported,
/// never gated: the in-repo baseline is far cheaper than real LLVM -O0.
pub fn baselines(
    units: &[Unit],
    tpde_minsts_per_s: f64,
    budget: Duration,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let insts = total_insts(units);
    let mut rate = |span: &'static str, compile: &dyn Fn(&Unit)| {
        let passes = passes_within(budget / 2, || {
            for (k, u) in units.iter().enumerate() {
                tr.span(span, k as u32, || compile(u));
            }
        });
        passes as f64 * insts / 1e6 / (span_total_ns(tr.spans(), span) / 1e9)
    };
    let o0 = rate("baseline_o0", &|u| {
        black_box(compile_baseline(&u.module, 0).expect("baseline compiles"));
    });
    let cp = rate("copy_patch", &|u| {
        black_box(compile_copy_patch(&u.module).expect("copy-patch compiles"));
    });
    m.set("baseline_o0_minsts_per_s", o0);
    m.set("copy_patch_minsts_per_s", cp);
    m.set("speedup_vs_o0", tpde_minsts_per_s / o0);
}

/// `core::parallel` on the large module: the sharded driver at one thread
/// against the sequential compiler (what sharding costs before it pays) and
/// at `threads` threads against itself at one (what the merge and the
/// slowest shard leave of the ideal speed-up).
pub fn parallel(unit: &Unit, threads: usize, budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    let opts = CompileOptions::default();
    let module = &unit.module;
    passes_within(budget, || {
        tr.span("compile_seq", 0, || {
            black_box(compile_x64(module, &opts).expect("sequential compile"))
        });
        tr.span("compile_par_1", 0, || {
            black_box(tpde_llvm::compile_x64_parallel(module, &opts, 1).expect("1 thread"))
        });
        tr.span("compile_par_n", 0, || {
            black_box(tpde_llvm::compile_x64_parallel(module, &opts, threads).expect("n threads"))
        });
    });
    let p50 = |name| span_p50_us(tr.spans(), name);
    let (seq, t1, tn) = (
        p50("compile_seq"),
        p50("compile_par_1"),
        p50("compile_par_n"),
    );
    m.set("parallel_overhead", t1 / seq);
    m.set("parallel_efficiency", t1 / (threads as f64 * tn));
}

/// The content hash behind the service's request key, which every request
/// pays on the submitting thread, hit or miss.
pub fn content_hash(units: &[Unit], budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    let passes = passes_within(budget, || {
        for (k, u) in units.iter().enumerate() {
            tr.span("hash", k as u32, || black_box(u.module.content_hash()));
        }
    });
    let ns = span_total_ns(tr.spans(), "hash");
    m.set(
        "content_hash_ns_per_inst",
        ns / (passes as f64 * total_insts(units)),
    );
}

/// `core::verify` as the service's admission runs it on every miss: a fresh
/// verifier per call, on the submitting thread.
pub fn verify(units: &[Unit], budget: Duration, tr: &mut Tracer, m: &mut Metrics) {
    let passes = passes_within(budget, || {
        for (k, u) in units.iter().enumerate() {
            tr.span("verify", k as u32, || {
                let mut a = LlvmAdapter::new(&u.module);
                Verifier::new()
                    .verify_module(&mut a)
                    .expect("generated IR verifies");
            });
        }
    });
    let ns = span_total_ns(tr.spans(), "verify");
    m.set(
        "verify_ns_per_inst",
        ns / (passes as f64 * total_insts(units)),
    );
}

/// `core::diskcache`: serialise, store and load a sample of artifacts in a
/// scratch store under `dir` (removed afterwards).
pub fn diskcache(
    refs: &[CompiledModule],
    dir: &std::path::Path,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<()> {
    const SAMPLE: usize = 64;
    let sample = &refs[..refs.len().min(SAMPLE)];
    let _ = std::fs::remove_dir_all(dir);
    let cache = DiskCache::open(DiskCacheConfig::new(dir))?;
    let mut bytes = 0.0;
    for (k, c) in sample.iter().enumerate() {
        let key = 0x5eed_0000 + k as u64;
        bytes += tr
            .span("serialize", k as u32, || serialize_module(key, c))
            .len() as f64;
        tr.span("store", k as u32, || cache.store(key, c))?;
    }
    for k in 0..sample.len() {
        let loaded = tr.span("load", k as u32, || cache.load(0x5eed_0000 + k as u64));
        if loaded.is_none() {
            return Err(std::io::Error::other("stored artifact did not load"));
        }
    }
    std::fs::remove_dir_all(dir)?;
    let n = sample.len() as f64;
    let us = |name| span_total_ns(tr.spans(), name) / 1e3;
    m.set("artifact_store_us", us("store") / n);
    m.set("artifact_load_us", us("load") / n);
    m.set("serialize_mb_per_s", bytes / us("serialize"));
    m.set("artifact_bytes", bytes / n);
    Ok(())
}
