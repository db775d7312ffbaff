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
//!
//! The fuzz campaign's modules (`tpde_llvm::fuzz::gen_module`, with the
//! campaign's per-module seeds and inputs) are linked the same way after
//! the TPDE x86-64 back-end compiled them, and each `bench_main` must
//! return natively what it returns under `tpde_x64emu`: an oracle for the
//! register state handed across block boundaries that does not share the
//! emulator's decoder. `TPDE_FUZZ_MODULES` (default 100) and
//! `TPDE_FUZZ_SEED` (default the campaign's) size and seed it.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tpde_core::codebuf::CodeBuffer;
use tpde_core::codegen::CompileOptions;
use tpde_core::jit::link_in_memory;
use tpde_core::obj::{write_elf_object, ElfMachine};
use tpde_core::rng::Xoshiro256;
use tpde_llvm::fuzz::gen_module;
use tpde_llvm::workloads::{build_workload, expected_result, spec_workloads, IrStyle};
use tpde_llvm::{compile, ServiceBackendKind};
use tpde_x64emu::run_function;

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

/// A scratch directory holding the compiled driver, removed with
/// everything in it when dropped.
struct Native {
    dir: TempDir,
    driver: PathBuf,
}

impl Native {
    /// Compiles `native_driver.c` into a fresh scratch directory named
    /// after `test`.
    fn new(test: &str) -> Native {
        if !cfg!(target_arch = "x86_64") {
            panic!("needs an x86-64 host");
        }
        let name = format!("tpde-native-{test}-{}", std::process::id());
        let dir = TempDir(std::env::temp_dir().join(name));
        std::fs::create_dir_all(&dir.0).unwrap();
        let driver_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/native_driver.c");
        let driver = dir.0.join("driver.o");
        run(Command::new(cc())
            .arg("-c")
            .arg(&driver_src)
            .arg("-o")
            .arg(&driver));
        Native { dir, driver }
    }

    /// Writes `buf` as an ELF object and links it against the driver into
    /// the binary `name`, which must link without warnings.
    fn link(&self, name: &str, buf: &CodeBuffer) -> PathBuf {
        let obj = self.dir.0.join(format!("{name}.o"));
        std::fs::write(&obj, write_elf_object(buf, ElfMachine::X86_64).unwrap()).unwrap();
        let binary = self.dir.0.join(name);
        let link = run(Command::new(cc())
            .arg(&self.driver)
            .arg(&obj)
            .arg("-o")
            .arg(&binary));
        let warnings = String::from_utf8_lossy(&link.stderr);
        assert!(warnings.is_empty(), "{name}: linker warnings:\n{warnings}");
        binary
    }
}

/// What `binary` prints for `bench_main(input)`.
fn run_native(binary: &Path, input: u64) -> String {
    let out = run(Command::new(binary).arg(input.to_string()));
    String::from_utf8(out.stdout).unwrap().trim().to_string()
}

/// Reads a campaign parameter from the environment: decimal or `0x` hex.
fn env_u64(name: &str, default: u64) -> u64 {
    let Ok(v) = std::env::var(name) else {
        return default;
    };
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|e| panic!("{name}={v}: {e}"))
}

#[test]
#[ignore = "needs an x86-64 host and a C compiler ($TPDE_CC or cc)"]
fn workloads_run_natively_with_a_non_executable_stack() {
    let native = Native::new("workloads");
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
                let binary = native.link(&name, &compiled.buf);
                assert_eq!(
                    run_native(&binary, w.input),
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

#[test]
#[ignore = "needs an x86-64 host and a C compiler ($TPDE_CC or cc)"]
fn fuzz_modules_return_natively_what_they_return_emulated() {
    let native = Native::new("fuzz");
    let modules = env_u64("TPDE_FUZZ_MODULES", 100);
    let mut rng = Xoshiro256::new(env_u64("TPDE_FUZZ_SEED", 0xC60_2026));
    for _ in 0..modules {
        // the campaign's per-module seed and input
        let seed = rng.next_u64();
        let input = seed & 0x3F;
        let compiled = compile(
            &gen_module(seed),
            ServiceBackendKind::TpdeX64,
            &CompileOptions::default(),
        )
        .unwrap_or_else(|e| panic!("module {seed:#x}: {e}"));
        let image = link_in_memory(&compiled.buf, 0x40_0000, |_| None).unwrap();
        let (emulated, _) = run_function(&image, "bench_main", &[input])
            .unwrap_or_else(|e| panic!("module {seed:#x}: {e:?}"));
        let binary = native.link(&format!("fuzz-{seed:016x}"), &compiled.buf);
        assert_eq!(
            run_native(&binary, input),
            emulated.to_string(),
            "module {seed:#x}: bench_main({input}) natively and emulated"
        );
        std::fs::remove_file(&binary).unwrap();
    }
}
