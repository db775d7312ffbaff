//! What every workload shares: the run configuration, the metric tables and
//! the outcome of one run.

use crate::check::EmuTotals;
use crate::gen::Unit;
use crate::trace::{self_times, Span, Tracer};
use std::time::{Duration, Instant};
use tpde_core::codegen::{CompileOptions, CompiledModule};
use tpde_llvm::{compile_a64, compile_x64, ServiceBackendKind};

/// The six workloads. The names are final: later issues cite them.
pub const WORKLOADS: [&str; 6] = [
    "jit-branchy-o0",
    "jit-loops-o1",
    "aot-calls-a64",
    "shard-large",
    "svc-cold",
    "svc-warm",
];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. `BENCHMARK.json` holds their direction and bound; a test
/// keeps the two lists equal.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("minsts_per_s", "Minst/s"),
    ("latency_p50_us", "us"),
    ("code_bytes_per_inst", "B/inst"),
    ("run_cycles_per_iter", "cycle/iter"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that are counts made by deterministic code: for one
/// seed they repeat exactly, so a later issue may claim on them as counts.
pub const EXACT: [&str; 2] = ["code_bytes_per_inst", "run_cycles_per_iter"];

/// Per-layer metrics `(name, unit)`, reported by every workload's traced
/// run; 0 where the layer is not on the workload's path.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("traced_minsts_per_s", "Minst/s"),
    ("traced_latency_p50_us", "us"),
    ("adapter_ns_per_inst", "ns/inst"),
    ("verify_ns_per_inst", "ns/inst"),
    ("analysis_ns_per_inst", "ns/inst"),
    ("codegen_ns_per_inst", "ns/inst"),
    ("codegen_phase_ns_per_inst", "ns/inst"),
    ("blocks_per_func", "count"),
    ("loops_per_func", "count"),
    ("spills_per_kinst", "1/kinst"),
    ("reloads_per_kinst", "1/kinst"),
    ("moves_per_kinst", "1/kinst"),
    ("relocs", "count"),
    ("symbols", "count"),
    ("enc_x64_mb_per_s", "MB/s"),
    ("enc_a64_mb_per_s", "MB/s"),
    ("link_us_per_kb", "us/KB"),
    ("elf_mb_per_s", "MB/s"),
    ("parallel_overhead", "ratio"),
    ("parallel_efficiency", "ratio"),
    ("artifact_store_us", "us"),
    ("artifact_load_us", "us"),
    ("serialize_mb_per_s", "MB/s"),
    ("artifact_bytes", "B"),
    ("req_per_s", "1/s"),
    ("submit_us", "us"),
    ("wait_us", "us"),
    ("queue_wait_p50_us", "us"),
    ("service_overhead_us", "us"),
    ("mem_hit_rate", "ratio"),
    ("disk_hit_rate", "ratio"),
    ("hit_latency_p50_us", "us"),
    ("miss_latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_samples", "count"),
    ("ring_fallbacks", "count"),
    ("coalesced", "count"),
    ("shed", "count"),
    ("content_hash_ns_per_inst", "ns/inst"),
    ("baseline_o0_minsts_per_s", "Minst/s"),
    ("copy_patch_minsts_per_s", "Minst/s"),
    ("speedup_vs_o0", "ratio"),
    ("emu_minsts_per_s", "Minst/s"),
    ("emu_insts", "count"),
    ("trace_spans", "count"),
];

/// Spans a traced run may record, buffer allocated up front: half for the
/// timed window, half for the probes. `svc-warm` answers more requests than
/// that (three spans each); the rest are counted as dropped, which keeps
/// the trace file under 100 MB.
pub const SPAN_CAPACITY: usize = 1 << 20;

#[derive(Clone, Debug)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Clients = workers = shard threads.
    pub threads: usize,
    /// Multiplies every population size; 1 except in smoke tests.
    pub scale: f64,
}

impl Cfg {
    /// Length of the timed window: the whole run with tracing off, half of
    /// it in a traced run, whose other half goes to the per-layer probes.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// Time one per-layer probe may take: `share` of the run's seconds.
    pub fn probe_budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Named values of one run, in table order.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: vec![0.0; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = value;
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, u, v))
    }
}

/// Result of one run of one workload.
pub struct Outcome {
    /// Operations attempted: timed compiles or requests plus every check.
    pub attempted: u64,
    /// Operations failed, refused, wrong-result or byte-mismatched.
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable detail: sample counts, tails, counts, known gaps.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// The one-shot compile a caller without a service makes: fresh session.
/// Set-up keeps one per module as the reference every timed output must
/// equal byte for byte.
pub fn one_shot(unit: &Unit) -> tpde_core::error::Result<CompiledModule> {
    let opts = CompileOptions::default();
    match unit.backend {
        ServiceBackendKind::TpdeA64 => compile_a64(&unit.module, &opts),
        _ => compile_x64(&unit.module, &opts),
    }
}

/// The end-to-end metrics, defined once for all six workloads.
pub fn end_to_end_metrics(
    setup_s: f64,
    minsts_per_s: f64,
    latency_p50_us: f64,
    peak_rss_mb: f64,
    units: &[Unit],
    refs: &[CompiledModule],
    emu: &EmuTotals,
) -> Metrics {
    let text_bytes: f64 = refs.iter().map(|c| c.text_size() as f64).sum();
    let insts: f64 = units.iter().map(|u| u.insts as f64).sum();
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", setup_s);
    m.set("minsts_per_s", minsts_per_s);
    m.set("latency_p50_us", latency_p50_us);
    m.set("code_bytes_per_inst", text_bytes / insts);
    m.set(
        "run_cycles_per_iter",
        emu.cycles as f64 / emu.iterations as f64,
    );
    m.set("peak_rss_mb", peak_rss_mb);
    m
}

/// The per-layer table with what every traced run has: the end-to-end
/// quantities of the traced window and the emulator's speed.
pub fn traced_metrics(
    minsts_per_s: f64,
    latency_p50_us: f64,
    emu: &EmuTotals,
    emu_secs: f64,
) -> Metrics {
    let mut m = Metrics::new(&PER_LAYER);
    m.set("traced_minsts_per_s", minsts_per_s);
    m.set("traced_latency_p50_us", latency_p50_us);
    m.set("emu_minsts_per_s", emu.insts as f64 / 1e6 / emu_secs);
    m.set("emu_insts", emu.insts as f64);
    m
}

/// Closes a traced run: span count, the self-time table, and the spans.
pub fn finish_trace(tr: Tracer, m: &mut Metrics, notes: &mut Vec<String>) -> Vec<Span> {
    m.set("trace_spans", tr.spans().len() as f64);
    notes.push(format!("{} spans dropped", tr.dropped));
    notes.extend(self_time_lines(tr.spans()));
    tr.into_spans()
}

/// Runs `set_up` several times and returns the last result with the median
/// of the times: one set-up is a single noisy sample of a sub-second
/// quantity, and a later change that moves work into set-up must show.
pub fn timed_setups<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    const SETUPS: usize = 5;
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&mut times),
    )
}

/// Repeats `pass` until `budget` is spent, at least once; returns the count.
pub fn passes_within(budget: Duration, mut pass: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    loop {
        pass();
        n += 1;
        if start.elapsed() >= budget {
            return n;
        }
    }
}

/// Total nanoseconds of all spans called `name`.
pub fn span_total_ns(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum()
}

/// Median microseconds of the spans called `name`.
pub fn span_p50_us(spans: &[Span], name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    crate::stats::median(&mut v)
}

/// The per-layer self-time table of a traced run, one line per span name.
fn self_time_lines(spans: &[Span]) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:<18} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, t) in self_times(spans) {
        lines.push(format!(
            "  {:<18} {:>9} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    lines
}
