//! Ablation study of CHBP's design choices (the knobs DESIGN.md calls
//! out): basic-block batching, exit-position shifting, and SMILE vs
//! trap-based entry trampolines — each measured on a vector-dense
//! SPEC-like program.

use chimera_emu::{run_binary, RunConfig};
use chimera_isa::{Ext, ExtSet};
use chimera_kernel::{Process, RuntimeTables, Variant};
use chimera_rewrite::{chbp_rewrite, Mode, RewriteOptions};
use chimera_workloads::speclike::{generate, GenOptions, SPEC_PROFILES};

fn run(bin: &chimera_obj::Binary, opts: RewriteOptions) -> (f64, usize, usize) {
    let native = run_binary(bin, u64::MAX / 2, RunConfig::default()).expect("native");
    let rw = chbp_rewrite(bin, ExtSet::RV64GCV, opts).expect("rewrite");
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);
    let m = chimera::measure(&process, ExtSet::RV64GCV, u64::MAX / 2).expect("run");
    assert_eq!(m.exit_code, native.exit_code);
    (
        m.cycles as f64 / native.stats.cycles as f64 - 1.0,
        rw.stats.dead_reg_not_found_shift,
        rw.stats.dead_reg_not_found_traditional,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (size_scale, work_scale) = if quick {
        (1.0 / 512.0, 0.4)
    } else {
        (1.0 / 32.0, 1.5)
    };
    let bin = generate(
        &SPEC_PROFILES[4], // cactuBSSN-like: vector-dense.
        GenOptions {
            size_scale,
            work_scale,
            seed: 42,
        },
    );
    let base = RewriteOptions {
        mode: Mode::EmptyPatch(Ext::V),
        ..Default::default()
    };

    println!("== CHBP ablations (cactuBSSN-like, empty patching) ==");
    println!(
        "{:<34}{:>12}{:>22}",
        "configuration", "overhead", "no-dead (ours/trad)"
    );

    let configs: [(&str, RewriteOptions); 4] = [
        ("CHBP (batching + shifting)", base),
        (
            "no batching",
            RewriteOptions {
                batching: false,
                ..base
            },
        ),
        (
            "no exit-position shifting",
            RewriteOptions {
                exit_shifting: false,
                ..base
            },
        ),
        (
            "trap entries (strawman)",
            RewriteOptions {
                force_trap_entries: true,
                ..base
            },
        ),
    ];
    for (name, opts) in configs {
        let (ovh, ours, trad) = run(&bin, opts);
        println!(
            "{:<34}{:>11.1}%{:>22}",
            name,
            ovh * 100.0,
            format!("{ours}/{trad}")
        );
    }
}
