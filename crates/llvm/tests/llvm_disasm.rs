//! The emitted frames, checked by LLVM's disassembler rather than by our own
//! decoder.
//!
//! Ignored by default because it needs LLVM 14's `llvm-objdump`. The tool is
//! `$TPDE_LLVM_BIN/llvm-objdump` when `TPDE_LLVM_BIN` names a directory,
//! otherwise `llvm-objdump-14` on `PATH`. The test fails, rather than skips,
//! when the tool is missing, so a passing run always means LLVM ran:
//!
//! ```sh
//! cargo test --release -p tpde-llvm --test llvm_disasm -- --ignored
//! ```

use std::path::PathBuf;
use std::process::Command;
use tpde_core::codegen::CompileOptions;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle};
use tpde_llvm::{compile_a64, compile_x64};

fn objdump() -> PathBuf {
    match std::env::var_os("TPDE_LLVM_BIN") {
        Some(dir) => PathBuf::from(dir).join("llvm-objdump"),
        None => PathBuf::from("llvm-objdump-14"),
    }
}

/// `llvm-objdump -d` of an object file, Intel syntax on x86-64.
fn disassemble(obj: &[u8], name: &str, x64: bool) -> String {
    let file = format!("tpde-disasm-{}-{name}.o", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, obj).unwrap();
    let mut cmd = Command::new(objdump());
    cmd.arg("-d").arg("--no-show-raw-insn");
    if x64 {
        cmd.arg("--x86-asm-syntax=intel");
    }
    let out = cmd
        .arg(&path)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", objdump().display()));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&path);
    String::from_utf8(out.stdout).unwrap()
}

/// The instructions of each function: `(name, [mnemonic and operands])`.
fn functions(listing: &str) -> Vec<(String, Vec<String>)> {
    let mut funcs: Vec<(String, Vec<String>)> = Vec::new();
    for line in listing.lines() {
        if let Some(name) = line.strip_suffix(">:").and_then(|l| l.split_once(" <")) {
            funcs.push((name.1.to_string(), Vec::new()));
        } else if let (Some(f), Some((addr, inst))) = (funcs.last_mut(), line.split_once(':')) {
            if u64::from_str_radix(addr.trim(), 16).is_ok() {
                f.1.push(inst.split_whitespace().collect::<Vec<_>>().join(" "));
            }
        }
    }
    funcs
}

/// What a function's frame looks like on one target.
struct Frame {
    /// The first two instructions.
    prologue: [&'static str; 2],
    /// How the third instruction, the frame allocation, starts.
    alloc: &'static str,
    /// How the instructions of a frame allocation too large for `alloc`
    /// start.
    large_alloc: &'static [&'static str],
    /// The two instructions before the `ret`.
    epilogue: [&'static str; 2],
    /// `(register, slot)` of a callee-saved store (`save`) or load.
    save_slot: fn(&str, bool) -> Option<(String, String)>,
}

const X64_FRAME: Frame = Frame {
    prologue: ["push rbp", "mov rbp, rsp"],
    alloc: "sub rsp, ",
    large_alloc: &[],
    epilogue: ["mov rsp, rbp", "pop rbp"],
    save_slot: x64_save_slot,
};

const A64_FRAME: Frame = Frame {
    prologue: ["stp x29, x30, [sp, #-16]!", "mov x29, sp"],
    alloc: "sub sp, sp, #",
    large_alloc: &["mov x16, #", "sub sp, sp, x16"],
    epilogue: ["mov sp, x29", "ldp x29, x30, [sp], #16"],
    save_slot: a64_save_slot,
};

/// `mov qword ptr [rbp - k], reg` (`save`) or `mov reg, qword ptr [rbp - k]`
/// of rbx or r12–r15.
fn x64_save_slot(inst: &str, save: bool) -> Option<(String, String)> {
    let ops = inst.strip_prefix("mov ")?;
    let (a, b) = ops.split_once(", ")?;
    let (reg, mem) = if save { (b, a) } else { (a, b) };
    let slot = mem.strip_prefix("qword ptr [rbp - ")?.strip_suffix(']')?;
    ["rbx", "r12", "r13", "r14", "r15"]
        .contains(&reg)
        .then(|| (reg.to_string(), slot.to_string()))
}

/// `stur reg, [x29, #-k]` (`save`) or `ldur reg, [x29, #-k]` of x19–x28 or
/// d8–d15.
fn a64_save_slot(inst: &str, save: bool) -> Option<(String, String)> {
    let ops = inst.strip_prefix(if save { "stur " } else { "ldur " })?;
    let (reg, mem) = ops.split_once(", ")?;
    let slot = mem.strip_prefix("[x29, #-")?.strip_suffix(']')?;
    let callee_saved = match reg.split_at(1) {
        ("x", n) => n.parse().is_ok_and(|n: u8| (19..=28).contains(&n)),
        ("d", n) => n.parse().is_ok_and(|n: u8| (8..=15).contains(&n)),
        _ => false,
    };
    callee_saved.then(|| (reg.to_string(), slot.to_string()))
}

/// Checks one function's frame: the prologue allocates the frame, the saves
/// that follow are exactly the restores before its one `ret`, in the same
/// order. Returns the number of saved registers.
fn check_frame(frame: &Frame, what: &str, name: &str, insts: &[String]) -> usize {
    let at = |i: usize| insts.get(i).map_or("", String::as_str);
    assert_eq!([at(0), at(1)], frame.prologue, "{what} {name}: prologue");
    let body = if at(2).starts_with(frame.alloc) {
        3
    } else {
        let large = frame.large_alloc;
        let fits = (0..large.len()).all(|k| at(2 + k).starts_with(large[k]));
        assert!(!large.is_empty() && fits, "{what} {name}: {}", at(2));
        2 + large.len()
    };
    let saves: Vec<_> = insts[body..]
        .iter()
        .map_while(|i| (frame.save_slot)(i, true))
        .collect();
    let rets: Vec<usize> = (0..insts.len()).filter(|&i| at(i) == "ret").collect();
    assert_eq!(
        rets,
        [insts.len() - 1],
        "{what} {name}: one ret, at the end"
    );
    let ret = rets[0];
    assert_eq!(
        [at(ret - 2), at(ret - 1)],
        frame.epilogue,
        "{what} {name}: epilogue"
    );
    let mut restores: Vec<_> = insts[..ret - 2]
        .iter()
        .rev()
        .map_while(|i| (frame.save_slot)(i, false))
        .collect();
    restores.reverse();
    assert_eq!(saves, restores, "{what} {name}: saves vs restores");
    saves.len()
}

#[test]
#[ignore = "needs llvm-objdump (LLVM 14); see the module docs"]
fn workload_objects_disassemble_cleanly() {
    let (mut checked, mut saves) = (0, [0, 0]);
    for w in spec_workloads() {
        for (style, sname) in [(IrStyle::O0, "O0"), (IrStyle::O1, "O1")] {
            let module = build_workload(&w, style);
            let opts = CompileOptions::default();
            for x64 in [true, false] {
                let (compiled, machine, tname) = if x64 {
                    (compile_x64(&module, &opts), ElfMachine::X86_64, "x64")
                } else {
                    (compile_a64(&module, &opts), ElfMachine::Aarch64, "a64")
                };
                let what = format!("{} {sname} {tname}", w.name);
                let obj = write_elf_object(&compiled.unwrap().buf, machine).unwrap();
                let listing = disassemble(&obj, &what.replace(' ', "-"), x64);
                let funcs = functions(&listing);
                assert!(!funcs.is_empty(), "{what}: no functions in\n{listing}");
                let frame = if x64 { &X64_FRAME } else { &A64_FRAME };
                for (name, insts) in &funcs {
                    for inst in insts {
                        let bad = inst.starts_with("nop")
                            || if x64 {
                                inst.contains("(bad)")
                            } else {
                                inst.contains("<unknown>")
                            };
                        assert!(!bad, "{what} {name}: {inst}");
                    }
                    saves[usize::from(x64)] += check_frame(frame, &what, name, insts);
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 36);
    assert!(
        saves.iter().all(|&n| n > 0),
        "a target saved no callee-saved register: {saves:?}"
    );
}
