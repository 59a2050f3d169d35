//! SPEC-CPU2017-like synthetic programs for §6.2/§6.3 (Fig. 13, Tables 2
//! and 3).
//!
//! SPEC CPU2017 is proprietary; per DESIGN.md, each benchmark is replaced
//! by a deterministic generated program that reproduces the *aggregate
//! properties* the experiments depend on: code-section size, the share of
//! vector-extension instructions, and indirect-jump density — taken from
//! the paper's own Table 3 measurements. Programs terminate with a
//! checksum, so original-vs-rewritten runs are differentially testable
//! (the §6.3 correctness methodology).
//!
//! Generated code mixes: straight-line integer blocks (with compressed
//! encodings), vectorized inner loops (the RVV share), direct calls,
//! indirect calls through a function-pointer table in `.rodata` (what
//! drives Safer checks / ARMore redirects at runtime), and conditional
//! branches.

use chimera_isa::prng::Prng;
use chimera_obj::{assemble, AsmOptions, Binary};
use std::fmt::Write;

/// The static profile of one benchmark (Table 3 columns).
#[derive(Debug, Clone, Copy)]
pub struct BenchProfile {
    /// Benchmark name (paper's naming).
    pub name: &'static str,
    /// Paper-reported code size in MB (used to scale generation).
    pub code_mb: f64,
    /// Paper-reported share of extension instructions (fraction).
    pub ext_frac: f64,
    /// Relative indirect-call density (dimensionless knob; calibrated per
    /// benchmark family so Safer/ARMore trigger counts rank like Table 2).
    pub indirect_weight: u32,
    /// Relative dynamic work per run.
    pub work: u32,
}

/// The 17 SPEC CPU2017 rows of Fig. 13 / Table 3 (code sections > 1 MiB).
pub const SPEC_PROFILES: &[BenchProfile] = &[
    BenchProfile {
        name: "perlbench_r",
        code_mb: 1.52,
        ext_frac: 0.0058,
        indirect_weight: 10,
        work: 10,
    },
    BenchProfile {
        name: "gcc_r",
        code_mb: 6.88,
        ext_frac: 0.0044,
        indirect_weight: 6,
        work: 8,
    },
    BenchProfile {
        name: "omnetpp_r",
        code_mb: 1.14,
        ext_frac: 0.0095,
        indirect_weight: 8,
        work: 8,
    },
    BenchProfile {
        name: "xalancbmk_r",
        code_mb: 2.91,
        ext_frac: 0.0136,
        indirect_weight: 7,
        work: 8,
    },
    BenchProfile {
        name: "cactuBSSN_r",
        code_mb: 3.49,
        ext_frac: 0.0324,
        indirect_weight: 1,
        work: 8,
    },
    BenchProfile {
        name: "parest_r",
        code_mb: 2.0,
        ext_frac: 0.025,
        indirect_weight: 3,
        work: 8,
    },
    BenchProfile {
        name: "wrf_r",
        code_mb: 16.79,
        ext_frac: 0.0321,
        indirect_weight: 2,
        work: 6,
    },
    BenchProfile {
        name: "blender_r",
        code_mb: 7.31,
        ext_frac: 0.0151,
        indirect_weight: 4,
        work: 6,
    },
    BenchProfile {
        name: "cam4_r",
        code_mb: 4.29,
        ext_frac: 0.0337,
        indirect_weight: 2,
        work: 8,
    },
    BenchProfile {
        name: "imagick_r",
        code_mb: 1.41,
        ext_frac: 0.0163,
        indirect_weight: 5,
        work: 8,
    },
    BenchProfile {
        name: "perlbench_s",
        code_mb: 1.52,
        ext_frac: 0.0058,
        indirect_weight: 10,
        work: 10,
    },
    BenchProfile {
        name: "gcc_s",
        code_mb: 6.88,
        ext_frac: 0.0044,
        indirect_weight: 6,
        work: 8,
    },
    BenchProfile {
        name: "omnetpp_s",
        code_mb: 1.14,
        ext_frac: 0.0095,
        indirect_weight: 8,
        work: 8,
    },
    BenchProfile {
        name: "xalancbmk_s",
        code_mb: 2.91,
        ext_frac: 0.0136,
        indirect_weight: 7,
        work: 8,
    },
    BenchProfile {
        name: "cactuBSSN_s",
        code_mb: 3.49,
        ext_frac: 0.0324,
        indirect_weight: 1,
        work: 8,
    },
    BenchProfile {
        name: "wrf_s",
        code_mb: 16.78,
        ext_frac: 0.0320,
        indirect_weight: 2,
        work: 6,
    },
    BenchProfile {
        name: "cam4_s",
        code_mb: 4.47,
        ext_frac: 0.0327,
        indirect_weight: 2,
        work: 8,
    },
];

/// The real-world application rows of Tables 2–3.
pub const APP_PROFILES: &[BenchProfile] = &[
    BenchProfile {
        name: "Git",
        code_mb: 3.11,
        ext_frac: 0.027,
        indirect_weight: 4,
        work: 6,
    },
    BenchProfile {
        name: "Vim",
        code_mb: 2.91,
        ext_frac: 0.0231,
        indirect_weight: 4,
        work: 6,
    },
    BenchProfile {
        name: "CMake",
        code_mb: 7.60,
        ext_frac: 0.0332,
        indirect_weight: 6,
        work: 6,
    },
    BenchProfile {
        name: "CTest",
        code_mb: 8.50,
        ext_frac: 0.0330,
        indirect_weight: 6,
        work: 6,
    },
    BenchProfile {
        name: "Python",
        code_mb: 2.31,
        ext_frac: 0.0177,
        indirect_weight: 8,
        work: 6,
    },
    BenchProfile {
        name: "Libopenblas",
        code_mb: 6.72,
        ext_frac: 0.0059,
        indirect_weight: 2,
        work: 8,
    },
];

/// Generation options.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Scale factor on code size (1.0 = the paper's MB figure; tests use
    /// much smaller scales).
    pub size_scale: f64,
    /// Scale factor on dynamic work.
    pub work_scale: f64,
    /// RNG seed (generation is fully deterministic given profile + seed).
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            size_scale: 1.0 / 64.0,
            work_scale: 1.0,
            seed: 42,
        }
    }
}

/// Generates the synthetic program for a benchmark profile.
pub fn generate(profile: &BenchProfile, opts: GenOptions) -> Binary {
    let mut rng = Prng::new(opts.seed ^ hash_name(profile.name));
    let target_bytes = (profile.code_mb * 1024.0 * 1024.0 * opts.size_scale) as usize;
    // A generated function averages ~140 bytes (compressed encodings).
    let n_fns = (target_bytes / 140).clamp(4, 120_000);
    // Vector sites to hit the extension-instruction share: a vector loop
    // block is ~15 vector insts; solve sites so the share of vector
    // instructions over all instructions ≈ ext_frac.
    let approx_insts = target_bytes / 3; // Mixed 2/4-byte encodings.
    let vector_sites = ((approx_insts as f64 * profile.ext_frac) / 15.0) as usize;

    let mut src = String::new();
    writeln!(src, ".data").unwrap();
    writeln!(src, "varr:").unwrap();
    for i in 0..32 {
        writeln!(src, "    .dword {}", (i * 11 + 3) % 127).unwrap();
    }
    writeln!(src, "scratch: .zero 256").unwrap();
    writeln!(src, ".rodata").unwrap();
    writeln!(src, "fptab:").unwrap();
    for i in 0..n_fns {
        writeln!(src, "    .dword fn{i}").unwrap();
    }

    writeln!(src, ".text").unwrap();
    // Main: iterate the function table, mixing direct and indirect calls.
    let iters = ((profile.work as f64) * opts.work_scale).max(1.0) as usize;
    writeln!(
        src,
        "
_start:
    li s11, {iters}
    li s10, 0            # checksum
main_outer:
    li s9, 0             # function index
main_loop:
    li t0, {n_fns}
    bge s9, t0, main_next
    mv a0, s10
    mv a1, s9
"
    )
    .unwrap();
    // Mix of direct and indirect dispatch, decided statically per ratio.
    let indirect_ratio = profile.indirect_weight as f64 / 12.0;
    writeln!(
        src,
        "
    # Dispatch: indirect through the function-pointer table for a slice of
    # indices, direct otherwise.
    li t1, {threshold}
    blt s9, t1, dispatch_indirect
    call fn0
    j dispatched
dispatch_indirect:
    la t2, fptab
    slli t3, s9, 3
    add t2, t2, t3
    ld t4, 0(t2)
    jalr t4
dispatched:
    add s10, s10, a0
    addi s9, s9, 1
    j main_loop
main_next:
    addi s11, s11, -1
    bnez s11, main_outer
    mv a0, s10
    li a7, 93
    ecall
",
        threshold = ((n_fns as f64) * indirect_ratio) as usize,
    )
    .unwrap();

    // Functions. A slice of the vector functions are high-register-pressure
    // leaves (every caller-saved register live across the vector loop),
    // the compute-intensive case where traditional register liveness fails
    // to find an exit register and CHBP's exit-position shifting is needed
    // (§4.2 Challenge 2, Table 3).
    let mut vector_left = vector_sites;
    for i in 0..n_fns {
        let with_vector =
            vector_left > 0 && rng.chance((vector_sites as f64 / n_fns as f64).min(1.0));
        if with_vector {
            vector_left -= 1;
        }
        let pressure = if with_vector && rng.chance(0.4) {
            if rng.chance(0.05) {
                Pressure::Extreme
            } else {
                Pressure::High
            }
        } else {
            Pressure::None
        };
        emit_function(&mut src, i, n_fns, with_vector, pressure, &mut rng);
    }

    assemble(
        &src,
        AsmOptions {
            compress: true,
            profile: chimera_isa::ExtSet::RV64GCV,
        },
    )
    .expect("speclike program assembles")
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Register-pressure level of a generated function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pressure {
    /// Normal: plenty of dead temporaries at every point.
    None,
    /// Leaf function with every caller-saved register live across the
    /// vector loop; a register first *dies* shortly after the loop, so
    /// exit-position shifting succeeds where plain liveness fails.
    High,
    /// Like `High`, but registers are re-read round-robin for so long that
    /// shifting gives up too: the trap-based fallback case.
    Extreme,
}

/// Emits one function: arithmetic blocks with branches, an optional vector
/// loop, an optional call to a later function, returning a mixed checksum
/// in `a0`.
fn emit_function(
    src: &mut String,
    idx: usize,
    n_fns: usize,
    vector: bool,
    pressure: Pressure,
    rng: &mut Prng,
) {
    if pressure != Pressure::None {
        emit_pressure_leaf(src, idx, pressure, rng);
        return;
    }
    writeln!(src, "fn{idx}:").unwrap();
    writeln!(src, "    addi sp, sp, -16").unwrap();
    writeln!(src, "    sd ra, 8(sp)").unwrap();
    // a0 = checksum-in, a1 = index. Mix deterministically.
    let blocks = rng.range_usize(2, 6);
    for b in 0..blocks {
        let ops = rng.range_usize(4, 14);
        for _ in 0..ops {
            match rng.range_usize(0, 6) {
                0 => writeln!(src, "    addi a0, a0, {}", rng.range_i64(-512, 512)).unwrap(),
                1 => writeln!(src, "    xor a0, a0, a1").unwrap(),
                2 => writeln!(src, "    slli t0, a0, {}", rng.range_usize(1, 16)).unwrap(),
                3 => writeln!(src, "    add a0, a0, t0").unwrap(),
                4 => writeln!(src, "    srli t1, a0, {}", rng.range_usize(1, 8)).unwrap(),
                _ => writeln!(src, "    xor a0, a0, t1").unwrap(),
            }
        }
        // Conditional skip of the next block (taken on data parity).
        if b + 1 < blocks {
            writeln!(src, "    andi t2, a0, {}", 1 << rng.range_usize(0, 4)).unwrap();
            writeln!(src, "    beqz t2, fn{idx}_b{next}", next = b + 1).unwrap();
            writeln!(src, "    addi a0, a0, 1").unwrap();
            writeln!(src, "fn{idx}_b{next}:", next = b + 1).unwrap();
        }
    }
    if vector {
        // A vector kernel over the shared array: a realistic loop body
        // (~15 vector instructions per iteration, like an unrolled
        // autovectorized inner loop) reduced into the checksum.
        writeln!(
            src,
            "
    la t0, varr
    li t1, 32
    li t3, 0
fn{idx}_vloop:
    vsetvli t2, t1, e64, m1, ta, ma
    vle64.v v1, (t0)
    vmv.v.x v2, a0
    vmul.vv v3, v1, v2
    vadd.vv v6, v3, v1
    vxor.vv v7, v6, v2
    vmacc.vv v3, v6, v7
    vsub.vv v6, v3, v1
    vand.vv v7, v6, v2
    vor.vv v6, v7, v1
    vmul.vv v3, v6, v3
    vadd.vi v3, v3, 5
    vmv.v.i v4, 0
    vredsum.vs v5, v3, v4
    vmv.x.s t4, v5
    add t3, t3, t4
    sub t1, t1, t2
    slli t2, t2, 3
    add t0, t0, t2
    bnez t1, fn{idx}_vloop
    xor a0, a0, t3
"
        )
        .unwrap();
    }
    // Occasionally call a later function directly (bounded depth: only
    // functions with larger indices, so the call graph is a DAG).
    if idx + 1 < n_fns && rng.chance(0.25) {
        let callee = rng.range_usize(idx + 1, n_fns);
        writeln!(src, "    call fn{callee}").unwrap();
    }
    writeln!(src, "    ld ra, 8(sp)").unwrap();
    writeln!(src, "    addi sp, sp, 16").unwrap();
    writeln!(src, "    ret").unwrap();
}

/// A leaf function where every caller-saved register carries a live value
/// across its vector loop (see [`Pressure`]).
fn emit_pressure_leaf(src: &mut String, idx: usize, pressure: Pressure, rng: &mut Prng) {
    writeln!(src, "fn{idx}:").unwrap();
    // Load long-lived values into the registers the vector loop does not
    // use internally (t5, t6, a2..a7); a1 and ra are live anyway (argument
    // + leaf return address).
    for (i, r) in ["t5", "t6", "a2", "a3", "a4", "a5", "a6", "a7"]
        .iter()
        .enumerate()
    {
        writeln!(src, "    li {r}, {}", 17 + i * 13 + rng.range_usize(0, 8)).unwrap();
    }
    writeln!(
        src,
        "
    la t0, varr
    li t1, 32
    li t3, 0
fn{idx}_vloop:
    vsetvli t2, t1, e64, m1, ta, ma
    vle64.v v1, (t0)
    vmv.v.x v2, a0
    vmul.vv v3, v1, v2
    vmacc.vv v3, v1, v2
    vadd.vi v3, v3, 3
    vmv.v.i v4, 0
    vredsum.vs v5, v3, v4
    vmv.x.s t4, v5
    add t3, t3, t4
    sub t1, t1, t2
    slli t2, t2, 3
    add t0, t0, t2
    bnez t1, fn{idx}_vloop
"
    )
    .unwrap();
    // Post-loop: first *read* the loop temporaries (so they are live at
    // the natural exit position), then consume the pressure registers.
    let consume = [
        "t3", "t0", "t1", "t2", "t4", "a1", "t5", "t6", "a2", "a3", "a4", "a5", "a6", "a7",
    ];
    match pressure {
        Pressure::High => {
            for r in consume {
                writeln!(src, "    xor a0, a0, {r}").unwrap();
            }
            // The first *definition* after the loop: the point shifting
            // discovers (a def kills the old value, so the register is
            // dead just before it — §4.2's Figure 8).
            writeln!(src, "    slli t5, a0, 7").unwrap();
            writeln!(src, "    xor a0, a0, t5").unwrap();
        }
        Pressure::Extreme => {
            // Round-robin re-reads: no register dies for dozens of
            // instructions, beyond the shifting window.
            for round in 0..3 {
                for r in consume {
                    if round % 2 == 0 {
                        writeln!(src, "    xor a0, a0, {r}").unwrap();
                    } else {
                        writeln!(src, "    add a0, a0, {r}").unwrap();
                    }
                }
            }
        }
        Pressure::None => unreachable!(),
    }
    writeln!(src, "    ret").unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_emu::{run_binary, RunConfig};
    use chimera_isa::ExtSet;
    use chimera_rewrite::{chbp_rewrite, Mode, RewriteOptions};

    fn small(profile: &BenchProfile) -> Binary {
        generate(
            profile,
            GenOptions {
                size_scale: 1.0 / 512.0,
                work_scale: 0.4,
                seed: 7,
            },
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(&SPEC_PROFILES[0]);
        let b = small(&SPEC_PROFILES[0]);
        assert_eq!(
            a.section(".text").unwrap().data,
            b.section(".text").unwrap().data
        );
    }

    #[test]
    fn programs_run_and_terminate() {
        for p in &SPEC_PROFILES[..3] {
            let bin = small(p);
            let r = run_binary(&bin, 500_000_000, RunConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(r.stats.instret > 300, "{} did real work", p.name);
        }
    }

    #[test]
    fn downgrade_preserves_checksum() {
        // §6.3 methodology: translated binaries behave identically.
        let p = &SPEC_PROFILES[4]; // cactuBSSN_r: highest vector share.
        let bin = small(p);
        let native = run_binary(&bin, 500_000_000, RunConfig::default()).unwrap();
        assert!(native.stats.vector_insts > 0, "profile has vector code");
        let rw = chbp_rewrite(&bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
        let down = run_binary(&rw.binary, 2_000_000_000, RunConfig::on(ExtSet::RV64GC)).unwrap();
        assert_eq!(native.exit_code, down.exit_code, "{}", p.name);
        assert_eq!(down.stats.vector_insts, 0);
    }

    #[test]
    fn empty_patch_preserves_checksum_and_runs_with_trampolines() {
        let p = &SPEC_PROFILES[4];
        let bin = small(p);
        let native = run_binary(&bin, 500_000_000, RunConfig::default()).unwrap();
        let rw = chbp_rewrite(
            &bin,
            ExtSet::RV64GCV,
            RewriteOptions {
                mode: Mode::EmptyPatch(chimera_isa::Ext::V),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rw.stats.smile_trampolines > 0);
        let patched =
            run_binary(&rw.binary, 2_000_000_000, RunConfig::on(ExtSet::RV64GCV)).unwrap();
        assert_eq!(native.exit_code, patched.exit_code);
        // Empty patching overhead should be small (§6.2: ~5%).
        let overhead = patched.stats.cycles as f64 / native.stats.cycles as f64 - 1.0;
        assert!(
            overhead < 0.35,
            "{}: empty-patch overhead {:.1}% too high",
            p.name,
            overhead * 100.0
        );
    }

    #[test]
    fn indirect_calls_present() {
        let bin = small(&SPEC_PROFILES[0]); // perlbench: indirect-heavy.
        let r = run_binary(&bin, 500_000_000, RunConfig::default()).unwrap();
        assert!(r.stats.indirect_jumps > 10);
    }
}
