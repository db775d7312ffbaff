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

const CALLEE_SAVED: [&str; 5] = ["rbx", "r12", "r13", "r14", "r15"];

/// `(register, slot)` of a callee-saved store `mov qword ptr [rbp - k], reg`
/// (`save`) or load `mov reg, qword ptr [rbp - k]`.
fn save_slot(inst: &str, save: bool) -> Option<(String, String)> {
    let ops = inst.strip_prefix("mov ")?;
    let (a, b) = ops.split_once(", ")?;
    let (reg, mem) = if save { (b, a) } else { (a, b) };
    let slot = mem.strip_prefix("qword ptr [rbp - ")?.strip_suffix(']')?;
    CALLEE_SAVED
        .contains(&reg)
        .then(|| (reg.to_string(), slot.to_string()))
}

/// Checks one x86-64 function's frame: the saves that follow `sub rsp`
/// are exactly the restores before its one `ret`, in the same order.
/// Returns the number of saved registers.
fn check_x64_frame(what: &str, name: &str, insts: &[String]) -> usize {
    let at = |i: usize| insts.get(i).map_or("", String::as_str);
    assert_eq!(
        (at(0), at(1)),
        ("push rbp", "mov rbp, rsp"),
        "{what} {name}: prologue"
    );
    assert!(at(2).starts_with("sub rsp, "), "{what} {name}: {}", at(2));
    let saves: Vec<_> = insts[3..]
        .iter()
        .map_while(|i| save_slot(i, true))
        .collect();
    let rets: Vec<usize> = (0..insts.len()).filter(|&i| at(i) == "ret").collect();
    assert_eq!(
        rets,
        [insts.len() - 1],
        "{what} {name}: one ret, at the end"
    );
    let ret = rets[0];
    assert_eq!(
        (at(ret - 2), at(ret - 1)),
        ("mov rsp, rbp", "pop rbp"),
        "{what} {name}: epilogue"
    );
    let mut restores: Vec<_> = insts[..ret - 2]
        .iter()
        .rev()
        .map_while(|i| save_slot(i, false))
        .collect();
    restores.reverse();
    assert_eq!(saves, restores, "{what} {name}: saves vs restores");
    saves.len()
}

#[test]
#[ignore = "needs llvm-objdump (LLVM 14); see the module docs"]
fn workload_objects_disassemble_cleanly() {
    let (mut checked, mut saves) = (0, 0);
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
                for (name, insts) in &funcs {
                    for inst in insts {
                        let bad = if x64 {
                            inst.contains("(bad)") || inst.starts_with("nop")
                        } else {
                            inst.contains("<unknown>")
                        };
                        assert!(!bad, "{what} {name}: {inst}");
                    }
                    if x64 {
                        saves += check_x64_frame(&what, name, insts);
                    }
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 36);
    assert!(saves > 0, "no function saved a callee-saved register");
}
