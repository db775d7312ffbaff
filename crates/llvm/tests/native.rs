//! The workloads run on the host CPU, an oracle that shares no code with
//! this repository's emulator.
//!
//! Ignored by default because it needs an x86-64 host with a C compiler:
//! `$TPDE_CC` if set, otherwise `cc` on `PATH`. The test fails, rather than
//! skips, when the compiler is missing, so a passing run always means the
//! code ran:
//!
//! ```sh
//! cargo test --release -p tpde-llvm --test native -- --ignored
//! ```
//!
//! Each of the 18 workload modules (nine workloads × O0/O1) is compiled
//! by every x86-64 kind (TPDE, the O0-like baseline and copy-and-patch),
//! written as an ELF object and linked against `native_driver.c`. Each of
//! the 54 binaries must print the workload's `expected_result`, and its
//! `GNU_STACK` segment (`readelf -lW`) must not be executable.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tpde_core::codegen::CompileOptions;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle};
use tpde_llvm::{compile, ServiceBackendKind};

fn cc() -> String {
    std::env::var("TPDE_CC").unwrap_or_else(|_| "cc".to_string())
}

/// Runs `cmd` and returns its output, failing the test unless it succeeded.
fn run(cmd: &mut Command) -> Output {
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot run {cmd:?}: {e}"));
    assert!(
        out.status.success(),
        "{cmd:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The flags column of the `GNU_STACK` program header, e.g. `RW`.
fn gnu_stack_flags(binary: &Path) -> String {
    let out = run(Command::new("readelf").arg("-lW").arg(binary));
    let listing = String::from_utf8(out.stdout).unwrap();
    let line = listing
        .lines()
        .find(|l| l.trim_start().starts_with("GNU_STACK"))
        .unwrap_or_else(|| panic!("no GNU_STACK segment:\n{listing}"));
    // GNU_STACK offset vaddr paddr filesz memsz flags... align
    let fields: Vec<&str> = line.split_whitespace().collect();
    fields[6..fields.len() - 1].concat()
}

/// A scratch directory, removed with everything in it when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "needs an x86-64 host and a C compiler ($TPDE_CC or cc)"]
fn workloads_run_natively_with_a_non_executable_stack() {
    if !cfg!(target_arch = "x86_64") {
        panic!("needs an x86-64 host");
    }
    let tmp = TempDir(std::env::temp_dir().join(format!("tpde-native-{}", std::process::id())));
    let dir = &tmp.0;
    std::fs::create_dir_all(dir).unwrap();
    let driver_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/native_driver.c");
    let driver = dir.join("driver.o");
    run(Command::new(cc())
        .arg("-c")
        .arg(&driver_src)
        .arg("-o")
        .arg(&driver));
    let kinds = [
        ServiceBackendKind::TpdeX64,
        ServiceBackendKind::BaselineO0,
        ServiceBackendKind::CopyPatch,
    ];
    let mut checked = 0;
    for w in spec_workloads() {
        let want = expected_result(&w);
        for (style, sname) in [(IrStyle::O0, "O0"), (IrStyle::O1, "O1")] {
            let module = build_workload(&w, style);
            for kind in kinds {
                let name = format!("{}-{sname}-{kind:?}", w.name);
                let compiled = compile(&module, kind, &CompileOptions::default())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let obj = dir.join(format!("{name}.o"));
                std::fs::write(
                    &obj,
                    write_elf_object(&compiled.buf, ElfMachine::X86_64).unwrap(),
                )
                .unwrap();
                let binary: PathBuf = dir.join(&name);
                let link = run(Command::new(cc())
                    .arg(&driver)
                    .arg(&obj)
                    .arg("-o")
                    .arg(&binary));
                let warnings = String::from_utf8_lossy(&link.stderr);
                assert!(warnings.is_empty(), "{name}: linker warnings:\n{warnings}");
                let out = run(Command::new(&binary).arg(w.input.to_string()));
                let got = String::from_utf8(out.stdout).unwrap();
                assert_eq!(
                    got.trim(),
                    want.to_string(),
                    "{name}: bench_main({})",
                    w.input
                );
                assert_eq!(gnu_stack_flags(&binary), "RW", "{name}: stack flags");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 54);
}
