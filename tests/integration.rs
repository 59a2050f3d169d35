//! Cross-crate integration: the full pipeline from assembly through
//! rewriting to kernel-supervised heterogeneous execution.

use chimera::{
    empty_patch_with, measure, prepare_process, run_variant, InputVersion, RewriterKind,
    SystemKind, TaskBinaries,
};
use chimera_emu::{run_binary, RunConfig};
use chimera_isa::ExtSet;
use chimera_workloads::blas::{gemv, Precision};
use chimera_workloads::hetero::matrix_task;
use chimera_workloads::speclike::{generate, GenOptions, SPEC_PROFILES};

fn gen_opts() -> GenOptions {
    GenOptions {
        size_scale: 1.0 / 512.0,
        work_scale: 0.4,
        seed: 99,
    }
}

#[test]
fn all_four_systems_produce_identical_results() {
    let task = TaskBinaries {
        base_version: Some(matrix_task(32, 3, false)),
        ext_version: Some(matrix_task(32, 3, true)),
    };
    let reference = run_binary(
        task.ext_version.as_ref().unwrap(),
        u64::MAX / 2,
        RunConfig::default(),
    )
    .unwrap()
    .exit_code;

    for system in [
        SystemKind::Fam,
        SystemKind::Melf,
        SystemKind::Safer,
        SystemKind::Chimera,
    ] {
        // Downgrading: extension input.
        let p = prepare_process(system, InputVersion::Ext, &task).unwrap();
        let on_ext = measure(&p, ExtSet::RV64GCV, u64::MAX / 2).unwrap();
        assert_eq!(on_ext.exit_code, reference, "{} on ext", system.name());
        if system != SystemKind::Fam {
            let on_base = measure(&p, ExtSet::RV64GC, u64::MAX / 2).unwrap();
            assert_eq!(on_base.exit_code, reference, "{} on base", system.name());
        }

        // Upgrading: base input.
        let p = prepare_process(system, InputVersion::Base, &task).unwrap();
        let on_base = measure(&p, ExtSet::RV64GC, u64::MAX / 2).unwrap();
        assert_eq!(on_base.exit_code, reference, "{} base-input", system.name());
        let on_ext = measure(&p, ExtSet::RV64GCV, u64::MAX / 2).unwrap();
        assert_eq!(on_ext.exit_code, reference, "{} upgraded", system.name());
    }
}

#[test]
fn chimera_upgrade_actually_accelerates() {
    let task = TaskBinaries {
        base_version: Some(matrix_task(64, 6, false)),
        ext_version: Some(matrix_task(64, 6, true)),
    };
    let p = prepare_process(SystemKind::Chimera, InputVersion::Base, &task).unwrap();
    let base = measure(&p, ExtSet::RV64GC, u64::MAX / 2).unwrap();
    let upgraded = measure(&p, ExtSet::RV64GCV, u64::MAX / 2).unwrap();
    assert_eq!(base.exit_code, upgraded.exit_code);
    assert!(
        upgraded.cycles < base.cycles,
        "upgrade must accelerate: {} vs {}",
        upgraded.cycles,
        base.cycles
    );
}

#[test]
fn all_rewriters_preserve_speclike_semantics() {
    // A small SPEC-like program through all four §6.2 rewriters (empty
    // patching on the vector core).
    let bin = generate(&SPEC_PROFILES[2], gen_opts()); // omnetpp-like.
    let native = run_binary(&bin, u64::MAX / 2, RunConfig::default()).unwrap();
    for rewriter in [
        RewriterKind::Chbp,
        RewriterKind::Strawman,
        RewriterKind::Armore,
        RewriterKind::Safer,
    ] {
        let variant = empty_patch_with(rewriter, &bin).unwrap();
        let m = run_variant(&variant, ExtSet::RV64GCV, u64::MAX / 2)
            .unwrap_or_else(|e| panic!("{}: {e}", rewriter.name()));
        assert_eq!(
            m.exit_code,
            native.exit_code,
            "{} changes semantics",
            rewriter.name()
        );
    }
}

fn overheads_for(bin: &chimera_obj::Binary) -> std::collections::HashMap<&'static str, f64> {
    let native = run_binary(bin, u64::MAX / 2, RunConfig::default()).unwrap();
    let base = native.stats.cycles as f64;
    let mut out = std::collections::HashMap::new();
    for rewriter in [
        RewriterKind::Chbp,
        RewriterKind::Strawman,
        RewriterKind::Armore,
        RewriterKind::Safer,
    ] {
        let variant = empty_patch_with(rewriter, bin).unwrap();
        let m = run_variant(&variant, ExtSet::RV64GCV, u64::MAX / 2).unwrap();
        assert_eq!(m.exit_code, native.exit_code, "{}", rewriter.name());
        out.insert(rewriter.name(), m.cycles as f64 / base - 1.0);
    }
    out
}

#[test]
fn rewriter_overhead_ordering_matches_fig13() {
    // Indirect-heavy program: CHBP beats the proactive-check and
    // trap-redirect baselines.
    let indirect = generate(&SPEC_PROFILES[0], gen_opts()); // perlbench-like.
    let o = overheads_for(&indirect);
    assert!(
        o["CHBP"] < o["Safer"],
        "CHBP {:.3} must beat Safer {:.3}",
        o["CHBP"],
        o["Safer"]
    );
    assert!(
        o["Safer"] < o["ARMore"],
        "Safer {:.3} must beat ARMore {:.3}",
        o["Safer"],
        o["ARMore"]
    );

    // Vector-dense program (larger scale so trampolines actually run hot):
    // SMILE trampolines beat trap-based entries.
    let dense = generate(
        &SPEC_PROFILES[4], // cactuBSSN-like.
        GenOptions {
            size_scale: 1.0 / 128.0,
            work_scale: 1.0,
            seed: 99,
        },
    );
    let o = overheads_for(&dense);
    assert!(
        o["CHBP"] <= o["Strawman"] + 1e-9,
        "CHBP {:.4} must not lose to the strawman {:.4}",
        o["CHBP"],
        o["Strawman"]
    );
}

#[test]
fn blas_kernels_through_chimera() {
    let v = gemv(16, 16, 0, 16, Precision::Double, true);
    let s = gemv(16, 16, 0, 16, Precision::Double, false);
    let reference = run_binary(&v, u64::MAX / 2, RunConfig::default())
        .unwrap()
        .exit_code;
    let task = TaskBinaries {
        base_version: Some(s),
        ext_version: Some(v),
    };
    let p = prepare_process(SystemKind::Chimera, InputVersion::Ext, &task).unwrap();
    let down = measure(&p, ExtSet::RV64GC, u64::MAX / 2).unwrap();
    assert_eq!(down.exit_code, reference);
}
