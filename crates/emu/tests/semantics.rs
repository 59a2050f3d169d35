//! Detailed ISA semantics: edge cases of the RV64 model that the rewriter
//! and translation templates depend on.

use chimera_emu::{run_binary, RunConfig};
use chimera_isa::ExtSet;
use chimera_obj::{assemble, AsmOptions};

fn exit_of(src: &str) -> i64 {
    let bin = assemble(src, AsmOptions::default()).expect("assembles");
    run_binary(&bin, 10_000_000, RunConfig::default())
        .expect("runs")
        .exit_code
}

#[test]
fn rotates_and_shifts() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 1
                ror t1, t0, t0      # rotate 1 right by 1 = 1<<63
                srli t1, t1, 60     # 8
                li t2, 0x10
                rol t3, t2, t0      # 0x20
                add a0, t1, t3      # 40
                rori t4, t0, 63     # 1 rot right 63 = 2
                add a0, a0, t4      # 42
                li a7, 93
                ecall
            "
        ),
        42
    );
}

#[test]
fn slt_family_signedness() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, -1
                li t1, 1
                slt t2, t0, t1      # -1 < 1 (signed) = 1
                sltu t3, t0, t1     # umax < 1 = 0
                slti t4, t0, 0      # 1
                sltiu t5, t0, -1    # umax < umax = 0... sltiu sext imm: equal -> 0
                slli t2, t2, 2      # 4
                slli t4, t4, 1      # 2
                add a0, t2, t4
                add a0, a0, t3
                add a0, a0, t5      # 6
                li a7, 93
                ecall
            "
        ),
        6
    );
}

#[test]
fn word_ops_sign_extend() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 0x7fffffff
                addiw t1, t0, 1     # wraps to -2^31, sign extended
                srai t1, t1, 31     # -1
                addi a0, t1, 43     # 42
                li a7, 93
                ecall
            "
        ),
        42
    );
}

#[test]
fn mulh_variants() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, -1
                li t1, 2
                mulh t2, t0, t1     # (-1 * 2) >> 64 = -1
                mulhu t3, t0, t1    # (2^64-1)*2 >> 64 = 1
                add a0, t2, t3      # 0
                addi a0, a0, 5
                li a7, 93
                ecall
            "
        ),
        5
    );
}

#[test]
fn fp_nan_comparisons_are_false() {
    assert_eq!(
        exit_of(
            "
            .data
            nanbits: .dword 0x7ff8000000000000
            .text
            _start:
                la t0, nanbits
                fld fa0, 0(t0)
                fmv.d.x fa1, zero
                feq.d t1, fa0, fa0    # NaN == NaN -> 0
                flt.d t2, fa0, fa1    # 0
                fle.d t3, fa1, fa1    # 1
                add a0, t1, t2
                add a0, a0, t3        # 1
                li a7, 93
                ecall
            "
        ),
        1
    );
}

#[test]
fn fcvt_saturates_like_hardware() {
    // NaN converts to the maximum value (RISC-V), not 0 (Rust `as`).
    assert_eq!(
        exit_of(
            "
            .data
            nanbits: .dword 0x7ff8000000000000
            .text
            _start:
                la t0, nanbits
                fld fa0, 0(t0)
                fcvt.w.d t1, fa0     # i32::MAX
                li t2, 0x7fffffff
                sub a0, t1, t2       # 0
                li a7, 93
                ecall
            "
        ),
        0
    );
}

#[test]
fn vector_e32_arithmetic() {
    assert_eq!(
        exit_of(
            "
            .data
            a: .word 100
               .word 200
               .word 300
               .word 400
               .word 500
               .word 600
               .word 700
               .word 800
            .text
            _start:
                li t0, 8
                vsetvli t1, t0, e32, m1, ta, ma
                la a0, a
                vle32.v v1, (a0)
                vadd.vi v2, v1, 1
                vmv.v.i v3, 0
                vredsum.vs v4, v2, v3
                vmv.x.s a0, v4       # 3600 + 8
                li a7, 93
                ecall
            "
        ),
        3608
    );
}

#[test]
fn vector_min_max_signed() {
    assert_eq!(
        exit_of(
            "
            .data
            a: .dword -5
               .dword 10
               .dword -20
               .dword 7
            .text
            _start:
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, a
                vle64.v v1, (a0)
                vmv.v.i v2, 0
                vmax.vv v3, v1, v2   # [0,10,0,7]
                vmin.vv v4, v1, v2   # [-5,0,-20,0]
                vmv.v.i v5, 0
                vredsum.vs v6, v3, v5   # 17
                vredsum.vs v7, v4, v5   # -25
                vmv.x.s t2, v6
                vmv.x.s t3, v7
                add a0, t2, t3       # -8
                neg a0, a0
                li a7, 93
                ecall
            "
        ),
        8
    );
}

#[test]
fn vector_partial_vl_keeps_tail() {
    // vl = 3 of 4 lanes: the 4th element must be untouched.
    assert_eq!(
        exit_of(
            "
            .data
            a: .dword 1
               .dword 1
               .dword 1
               .dword 99
            .text
            _start:
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                la a0, a
                vle64.v v1, (a0)
                li t0, 3
                vsetvli t1, t0, e64, m1, ta, ma
                vadd.vi v1, v1, 10   # only first 3 lanes
                li t0, 4
                vsetvli t1, t0, e64, m1, ta, ma
                vmv.v.i v2, 0
                vredsum.vs v3, v1, v2  # 11*3 + 99
                vmv.x.s a0, v3
                li a7, 93
                ecall
            "
        ),
        132
    );
}

#[test]
fn vsetvli_clamps_to_vlmax() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 1000
                vsetvli a0, t0, e64, m1, ta, ma   # VLMAX = 4
                li a7, 93
                ecall
            "
        ),
        4
    );
}

#[test]
fn sltiu_seqz_idiom() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 0
                seqz a0, t0       # 1
                li t1, 7
                snez t2, t1       # 1
                add a0, a0, t2    # 2
                li a7, 93
                ecall
            "
        ),
        2
    );
}

#[test]
fn c_extension_gating_is_encoding_level() {
    // The same canonical instruction passes on a no-C core when encoded
    // 4-byte, and traps when encoded compressed.
    // Immediates small enough for the c.addi form.
    let src = "
        _start:
            addi a0, a0, 21
            addi a0, a0, 21
            li a7, 93
            ecall
    ";
    let no_c = ExtSet::RV64GC.without(chimera_isa::Ext::C);
    let fat = assemble(src, AsmOptions::default()).unwrap();
    assert_eq!(
        run_binary(&fat, 1000, RunConfig::on(no_c))
            .unwrap()
            .exit_code,
        42
    );
    let slim = assemble(
        src,
        AsmOptions {
            compress: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(run_binary(&slim, 1000, RunConfig::on(no_c)).is_err());
}

#[test]
fn stack_discipline_roundtrip() {
    assert_eq!(
        exit_of(
            "
            _start:
                li t0, 21
                addi sp, sp, -32
                sd t0, 0(sp)
                sd t0, 8(sp)
                ld t1, 0(sp)
                ld t2, 8(sp)
                addi sp, sp, 32
                add a0, t1, t2
                li a7, 93
                ecall
            "
        ),
        42
    );
}

#[test]
fn megamorphic_jalr_stays_transparent_under_jump_cache_eviction() {
    // One indirect-jump site cycling through more distinct targets than
    // the direct-mapped jump cache has entries (2304 > 2048): every
    // dispatch evicts, the block-chaining fast path keeps mispredicting,
    // and the engine must still be bit-transparent to the reference
    // interpreter — with the cache counters reconciling exactly.
    use chimera_emu::ExecMode;
    use chimera_testutil::observe_mode;

    const TARGETS: usize = 2304;
    let mut src = String::from(".data\ntable:");
    for i in 0..TARGETS {
        src.push_str(&format!(" .dword t{i}\n"));
    }
    src.push_str(
        ".text\n_start:\n    li s2, 0\n    la s3, table\nloop:\n    slli t0, s2, 3\n    add t0, t0, s3\n    ld t1, 0(t0)\n    jalr t1\n    addi s2, s2, 1\n",
    );
    src.push_str(&format!("    li t2, {TARGETS}\n    blt s2, t2, loop\n"));
    src.push_str("    andi a0, a0, 255\n    li a7, 93\n    ecall\n");
    for i in 0..TARGETS {
        src.push_str(&format!("t{i}: addi a0, a0, {}\n    ret\n", i % 7 + 1));
    }
    let bin = assemble(&src, AsmOptions::default()).expect("assembles");

    let expected: i64 = ((0..TARGETS).map(|i| i % 7 + 1).sum::<usize>() & 255) as i64;
    let fuel = 10_000_000;
    let (reference, ref_stats) = observe_mode(&bin, ExtSet::RV64GC, ExecMode::Reference, fuel);
    assert_eq!(
        reference
            .result
            .as_ref()
            .expect("reference run exits")
            .exit_code,
        expected
    );
    assert_eq!(
        (ref_stats.hits, ref_stats.misses, ref_stats.blocks_built),
        (0, 0, 0)
    );

    let (interp, is) = observe_mode(&bin, ExtSet::RV64GC, ExecMode::Interpreter, fuel);
    let (engine, es) = observe_mode(&bin, ExtSet::RV64GC, ExecMode::Engine, fuel);
    assert_eq!(interp, reference, "cached interpreter transparent");
    assert_eq!(engine, reference, "micro-op engine transparent");

    // Counter reconciliation under sustained eviction: every cached
    // dispatch the interpreter counts as a hit is, on the engine side,
    // either a plain hit or a chained block transfer.
    assert_eq!(is.hits, es.hits + es.chained, "{is:?} vs {es:?}");
    assert_eq!(is.misses, es.misses, "{is:?} vs {es:?}");
    assert_eq!(is.blocks_built, es.blocks_built, "{is:?} vs {es:?}");
    // The workload actually engaged the cache and built blocks for the
    // target spread (each distinct target head is its own block).
    assert!(es.blocks_built >= TARGETS as u64, "{es:?}");
    assert!(es.hits + es.chained > 0, "{es:?}");
}
