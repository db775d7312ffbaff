//! Admission verification with per-thread warm state and a layout-only
//! analysis: same verdicts, same layout, as the cold full-analysis verifier.

use std::sync::Arc;
use tpde_core::adapter::{FuncRef, IrAdapter};
use tpde_core::analysis::{Analysis, Analyzer};
use tpde_core::error::Error;
use tpde_core::service::ServiceBackend;
use tpde_core::verify::Verifier;
use tpde_llvm::adapter::LlvmAdapter;
use tpde_llvm::backend::LlvmServiceBackend;
use tpde_llvm::fuzz::{gen_module, mutate_module, Corruption};
use tpde_llvm::ir::Module;
use tpde_llvm::workloads::{build_workload, spec_workloads, IrStyle};
use tpde_llvm::{ModuleRequest, ServiceBackendKind};

fn workload_modules() -> Vec<Module> {
    let styles = [IrStyle::O0, IrStyle::O1];
    let all = spec_workloads();
    let built = all
        .iter()
        .flat_map(|w| styles.map(|s| build_workload(w, s)));
    built.collect()
}

/// The service's admission verdict on this thread.
fn admit(m: &Arc<Module>) -> Result<(), String> {
    let req = ModuleRequest::new(Arc::clone(m), ServiceBackendKind::TpdeX64);
    LlvmServiceBackend.verify(&req).map_err(|e| match e {
        Error::InvalidIr(msg) => msg,
        other => panic!("admission answers InvalidIr, got {other:?}"),
    })
}

#[test]
fn warm_thread_state_never_masks_a_defect() {
    // Warm this thread on the largest workload module, so every table of the
    // thread-local holds marks far past the mutants' sizes.
    let largest = workload_modules()
        .into_iter()
        .max_by_key(Module::inst_count)
        .expect("workloads exist");
    assert_eq!(admit(&Arc::new(largest)), Ok(()));

    let mut per_class = [0usize; 4];
    for seed in 0..400u64 {
        let (bad, class) = mutate_module(&gen_module(seed), seed ^ 0x9e37_79b9);
        let cold = Verifier::new()
            .verify_module(&mut LlvmAdapter::new(&bad))
            .expect_err("mutants are malformed");
        let warm = admit(&Arc::new(bad)).expect_err("mutant admitted by the warm verifier");
        assert_eq!(warm, cold.to_string(), "seed {seed}, {class:?}");
        per_class[match class {
            Corruption::OperandOutOfRange => 0,
            Corruption::DroppedTerminator => 1,
            Corruption::CallArityMismatch => 2,
            Corruption::UseBeforeDef => 3,
        }] += 1;
        // And a well-formed module right after a rejected one still passes.
        assert_eq!(admit(&Arc::new(gen_module(seed))), Ok(()), "seed {seed}");
    }
    assert!(
        per_class.iter().all(|&n| n > 0),
        "classes hit: {per_class:?}"
    );
}

#[test]
fn layout_only_pass_equals_the_full_analysis() {
    // One analyzer and one output each, reused across every function, so
    // stale state from the previous function is part of what is compared.
    let (mut full_pass, mut full) = (Analyzer::new(), Analysis::default());
    let (mut layout_pass, mut layout) = (Analyzer::new(), Analysis::default());
    let mut funcs = 0;
    let fuzzed = (0..1500u64).map(gen_module);
    for (k, m) in workload_modules().into_iter().chain(fuzzed).enumerate() {
        let mut adapter = LlvmAdapter::new(&m);
        for f in 0..m.funcs.len() {
            if m.funcs[f].is_decl {
                continue;
            }
            adapter.switch_func(FuncRef(f as u32));
            full_pass.analyze_into(&adapter, &mut full).unwrap();
            layout_pass.layout_into(&adapter, &mut layout).unwrap();
            assert_eq!(layout.layout, full.layout, "module {k} f{f}");
            assert_eq!(layout.block_pos, full.block_pos, "module {k} f{f}");
            funcs += 1;
        }
    }
    assert!(funcs > 3000, "only {funcs} functions compared");
}
