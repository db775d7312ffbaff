//! Function-sharded parallel compilation.
//!
//! TPDE keeps all per-function compilation state self-contained: the
//! analysis scratch, assignment tables, register file and label/fixup pool
//! live in a [`crate::codegen::CompileSession`], and a function's machine
//! code never refers to another function except through symbols and
//! relocations. This module exploits that to scale module compilation
//! across cores:
//!
//! 1. [`compile_sharded`]'s shared atomic index queue hands out function
//!    indices to worker threads. Each worker owns a caller-defined state
//!    (for TPDE, a full session that
//!    [`crate::codegen::CodeGen::compile_func_pooled`] compiles with) plus
//!    a thread-local shard [`CodeBuffer`], and brackets each function's
//!    output with `CodeBuffer::mark`s.
//! 2. After all workers drain the queue, the shards are merged: every
//!    function extent is appended to the output buffer **in function-index
//!    order** via `CodeBuffer::merge_from`, which rebases relocations and
//!    remaps shard-local [`SymbolId`]s through a per-shard `SymbolRemap`.
//!
//! # Determinism contract
//!
//! The merged output — text bytes, symbol table and relocations, and
//! therefore the ELF object and JIT image derived from it — is
//! **byte-identical to single-threaded compilation**, for any worker count
//! and any scheduling, provided cross-function references go through
//! relocations (never absolute text offsets). Shard buffers keep a
//! declaration log (`CodeBuffer::enable_declare_log`) so the merge
//! replays each function's symbol declarations in their exact order, and
//! per-extent alignment-event counts let the merge *reject* function
//! output whose data/bss padding depends on the shard base instead of
//! merging it wrongly. All in-tree back-ends compile under this contract
//! (`tpde_llvm::compile_parallel` shards every backend kind through
//! [`compile_sharded`]); it is pinned by the determinism suite in
//! `crates/llvm/tests/parallel.rs`.

use crate::codebuf::{CodeBuffer, SectionKind, ShardExtent, SymbolId, SymbolRemap};
use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One worker's shard: its buffer and the extents of the functions it
/// compiled.
struct Shard {
    buf: CodeBuffer,
    records: Vec<(u32, ShardExtent)>,
}

/// Verifies the predeclare contract on a merged buffer: exactly one
/// uniquely named, undefined function symbol per function, in
/// function-index order (so function `i` ↔ `SymbolId(i)`).
fn check_predeclared_func_symbols(merged: &CodeBuffer, nfuncs: usize) -> Result<()> {
    if merged.symbols().len() != nfuncs {
        let n = merged.symbols().len();
        return Err(Error::Emit(format!(
            "parallel compilation requires one uniquely named symbol per \
             function ({n} declared for {nfuncs} functions)"
        )));
    }
    // The merge defines SymbolId(f) as function f's symbol, so the
    // predeclared prefix must really be the function symbols: undefined
    // function symbols, one per function, in function-index order.
    for i in 0..nfuncs as u32 {
        let sym = merged.symbol(SymbolId(i));
        if !sym.is_func || sym.section.is_some() {
            return Err(Error::Emit(format!(
                "predeclared symbol {i} ({:?}) is not an undefined \
                 function symbol; the function-index ↔ symbol-id \
                 correspondence would not hold",
                merged.symbol_name(SymbolId(i))
            )));
        }
    }
    Ok(())
}

/// Deterministic merge: appends every shard extent to `merged` in
/// function-index order, remapping shard-local symbols, and defines the
/// function symbols over the merged ranges. The result is independent of
/// how functions were distributed across the shards.
fn merge_shards(merged: &mut CodeBuffer, nfuncs: usize, shards: &[Shard]) -> Result<()> {
    let mut order: Vec<(u32, usize, usize)> = Vec::new();
    for (si, sh) in shards.iter().enumerate() {
        for (ri, &(f, _)) in sh.records.iter().enumerate() {
            order.push((f, si, ri));
        }
    }
    order.sort_unstable_by_key(|&(f, _, _)| f);
    let mut maps: Vec<SymbolRemap> = (0..shards.len())
        .map(|_| SymbolRemap::identity(nfuncs as u32))
        .collect();
    for (f, si, ri) in order {
        let (_, ext) = shards[si].records[ri];
        let off = merged.merge_from(&shards[si].buf, &ext, &mut maps[si])?;
        merged.define_symbol(SymbolId(f), SectionKind::Text, off, ext.text_len());
    }
    Ok(())
}

/// Compiles `nfuncs` function units across `states.len()` worker threads and
/// merges the shards deterministically. This is the IR-agnostic parallel
/// compile.
///
/// * `predeclare` is applied to every shard buffer *and* the merged buffer;
///   it must declare exactly one symbol per function, in function-index
///   order (so function `i` ↔ `SymbolId(i)` in every buffer), which
///   requires unique function names.
/// * `compile` compiles one function into the worker's shard buffer using
///   the worker's state `S`. It returns `Ok(true)` if it emitted the
///   function, or `Ok(false)` to skip it (e.g. an external declaration).
///   Emitted output must be self-contained (see the module docs).
///
/// Functions are handed out through a shared atomic index queue, so workers
/// steal whatever is left regardless of how unevenly function sizes are
/// distributed. The merge concatenates extents in function-index order, so
/// the output is independent of the scheduling.
///
/// # Errors
///
/// If any function fails to compile, the error of the failing function with
/// the lowest index among the reported failures is returned. The symbol
/// contract above is verified on the merged buffer and violations reported
/// as [`Error::Emit`], as is an empty `states` vector with `nfuncs > 0`
/// (nothing would ever compile). The worker states are handed back in
/// worker order even when compilation fails.
pub fn compile_sharded<S, P, F>(
    nfuncs: usize,
    states: Vec<S>,
    predeclare: P,
    compile: F,
) -> (Vec<S>, Result<CodeBuffer>)
where
    S: Send,
    P: Fn(&mut CodeBuffer) + Sync,
    F: Fn(&mut S, &mut CodeBuffer, u32) -> Result<bool> + Sync,
{
    if states.is_empty() && nfuncs > 0 {
        return (
            states,
            Err(Error::Emit(
                "parallel compilation needs at least one worker".into(),
            )),
        );
    }
    let mut merged = CodeBuffer::new();
    predeclare(&mut merged);
    if let Err(e) = check_predeclared_func_symbols(&merged, nfuncs) {
        return (states, Err(e));
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Each worker hands its state back unconditionally; a compile failure is
    // reported alongside it as (function index, error).
    type WorkerResult<S> = (S, std::result::Result<Shard, (u32, Error)>);
    let run_worker = |mut state: S| -> WorkerResult<S> {
        let mut buf = CodeBuffer::new();
        // Record declaration order so the merge can reproduce the sequential
        // symbol table exactly (see the codebuf module docs). Enabled before
        // predeclare so every shard logs the identical prefix.
        buf.enable_declare_log();
        predeclare(&mut buf);
        let mut records = Vec::new();
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= nfuncs {
                break;
            }
            let start = buf.mark();
            match compile(&mut state, &mut buf, i as u32) {
                Ok(true) => records.push((
                    i as u32,
                    ShardExtent {
                        start,
                        end: buf.mark(),
                    },
                )),
                Ok(false) => {}
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    return (state, Err((i as u32, e)));
                }
            }
        }
        (state, Ok(Shard { buf, records }))
    };

    let results: Vec<WorkerResult<S>> = if states.len() <= 1 {
        // Single worker: run inline, no thread spawn. The merge below still
        // runs, so the 1-worker path exercises the same machinery.
        states.into_iter().map(run_worker).collect()
    } else {
        std::thread::scope(|scope| {
            let run = &run_worker;
            let handles: Vec<_> = states
                .into_iter()
                .map(|st| scope.spawn(move || run(st)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("compile worker panicked"))
                .collect()
        })
    };

    let mut states = Vec::with_capacity(results.len());
    let mut shards = Vec::with_capacity(results.len());
    let mut first_err: Option<(u32, Error)> = None;
    for (state, r) in results {
        states.push(state);
        match r {
            Ok(s) => shards.push(s),
            Err((i, e)) => {
                if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return (states, Err(e));
    }

    // Deterministic merge: extents in function-index order.
    if let Err(e) = merge_shards(&mut merged, nfuncs, &shards) {
        return (states, Err(e));
    }
    (states, Ok(merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebuf::{assert_identical, Reloc, RelocKind, SymbolBinding};

    /// A synthetic "back-end": function `i` emits `i+1` marker bytes, a
    /// call-style relocation to function `(i+3) % n` and — for every third
    /// function — a relocation against a shared external declared at use.
    fn emit_fake_func(buf: &mut CodeBuffer, f: u32, nfuncs: usize) {
        for _ in 0..=f {
            buf.emit_u8(0x90 + (f as u8 & 0xf));
        }
        let callee = SymbolId((f as usize + 3) as u32 % nfuncs as u32);
        let off = buf.text_offset();
        buf.emit_u32(0);
        buf.add_reloc(Reloc {
            section: SectionKind::Text,
            offset: off,
            symbol: callee,
            kind: RelocKind::Pc32,
            addend: -4,
        });
        if f.is_multiple_of(3) {
            let ext = buf.declare_symbol("shared_ext", SymbolBinding::Global, true);
            let off = buf.text_offset();
            buf.emit_u32(0);
            buf.add_reloc(Reloc {
                section: SectionKind::Text,
                offset: off,
                symbol: ext,
                kind: RelocKind::Pc32,
                addend: -4,
            });
        }
    }

    fn run(nfuncs: usize, workers: usize) -> CodeBuffer {
        let predeclare = |buf: &mut CodeBuffer| {
            for i in 0..nfuncs {
                buf.declare_symbol(&format!("fn_{i}"), SymbolBinding::Global, true);
            }
        };
        let compile = |_: &mut (), buf: &mut CodeBuffer, f: u32| {
            emit_fake_func(buf, f, nfuncs);
            Ok(true)
        };
        let (_, buf) = compile_sharded(nfuncs, vec![(); workers], predeclare, compile);
        buf.unwrap()
    }

    #[test]
    fn sharded_output_is_worker_count_invariant() {
        let reference = run(13, 1);
        assert!(reference.section_size(SectionKind::Text) > 0);
        for workers in [2, 3, 4, 8] {
            let buf = run(13, workers);
            assert_identical(&reference, &buf, &format!("{workers} workers"));
        }
        // the shared external was interned exactly once, after the functions
        let ext = reference.symbol_by_name("shared_ext").unwrap();
        assert_eq!(ext, SymbolId(13));
    }

    #[test]
    fn skipped_functions_stay_undeclared_definitions() {
        let predeclare = |buf: &mut CodeBuffer| {
            for i in 0..4 {
                buf.declare_symbol(&format!("fn_{i}"), SymbolBinding::Global, true);
            }
        };
        let compile = |_: &mut (), buf: &mut CodeBuffer, f: u32| {
            if f == 2 {
                return Ok(false); // external declaration
            }
            buf.emit_u8(f as u8);
            Ok(true)
        };
        let (_, buf) = compile_sharded(4, vec![(); 2], predeclare, compile);
        let buf = buf.unwrap();
        assert_eq!(buf.text(), &[0, 1, 3]);
        assert!(buf.symbol(SymbolId(2)).section.is_none());
        assert_eq!(buf.symbol(SymbolId(3)).offset, 2);
    }

    #[test]
    fn compile_errors_propagate() {
        let predeclare = |buf: &mut CodeBuffer| {
            for i in 0..8 {
                buf.declare_symbol(&format!("fn_{i}"), SymbolBinding::Global, true);
            }
        };
        let compile = |_: &mut (), buf: &mut CodeBuffer, f: u32| {
            if f == 5 {
                return Err(Error::Unsupported("fn_5".into()));
            }
            buf.emit_u8(f as u8);
            Ok(true)
        };
        let (states, result) = compile_sharded(8, vec![(); 3], predeclare, compile);
        assert!(matches!(result.unwrap_err(), Error::Unsupported(_)));
        // worker states survive the failure
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn zero_workers_with_functions_is_an_error() {
        let predeclare = |buf: &mut CodeBuffer| {
            buf.declare_symbol("f", SymbolBinding::Global, true);
        };
        let compile = |_: &mut (), _: &mut CodeBuffer, _: u32| Ok(true);
        let (_, result) = compile_sharded(1, Vec::<()>::new(), predeclare, compile);
        assert!(result.is_err());
    }

    #[test]
    fn duplicate_function_names_are_rejected() {
        let predeclare = |buf: &mut CodeBuffer| {
            for _ in 0..3 {
                buf.declare_symbol("same", SymbolBinding::Global, true);
            }
        };
        let compile = |_: &mut (), _: &mut CodeBuffer, _: u32| Ok(true);
        let (_, result) = compile_sharded(3, vec![(); 2], predeclare, compile);
        assert!(result.is_err());
    }
}
