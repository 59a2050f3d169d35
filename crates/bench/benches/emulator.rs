//! Micro-bench: host-side emulator throughput (instructions per second of
//! wall time) — the substrate's own speed, for context on harness runtimes.
//! Run with `cargo bench --features bench-harness --bench emulator`.
//!
//! Includes the decode-cache comparison: the same scalar loop with the
//! basic-block cache on vs off, with a cycle-accounting equality check
//! (the cache must change wall time only, never simulated results).

use chimera_bench::harness::{bench, report_throughput};
use chimera_emu::{run_binary, ExecMode, RunConfig};
use chimera_isa::ExtSet;
use chimera_obj::{assemble, AsmOptions};

fn main() {
    let bin = assemble(
        "
        _start:
            li t0, 20000
            li a0, 0
        loop:
            addi a0, a0, 3
            xor a0, a0, t0
            addi t0, t0, -1
            bnez t0, loop
            li a7, 93
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    let run = |mode| {
        let cfg = RunConfig {
            mode,
            ..RunConfig::on(ExtSet::RV64GCV)
        };
        run_binary(std::hint::black_box(&bin), u64::MAX / 2, cfg).unwrap()
    };
    let cached = run(ExecMode::Engine);
    let uncached = run(ExecMode::Reference);
    assert_eq!(
        cached, uncached,
        "decode cache must not change architectural results or cycle accounting"
    );
    let insts = cached.stats.instret;

    let t_on = bench("emulator/scalar_loop (cache on)", 50, 9, || {
        run(ExecMode::Engine)
    });
    report_throughput("  -> dynamic insts/s", insts, t_on);
    let t_off = bench("emulator/scalar_loop (cache off)", 50, 9, || {
        run(ExecMode::Reference)
    });
    report_throughput("  -> dynamic insts/s", insts, t_off);
    println!(
        "decode-cache speedup on scalar loop: {:.2}x",
        t_off.median_ns / t_on.median_ns
    );

    let vbin = assemble(
        "
        .data
        a: .dword 1
           .dword 2
           .dword 3
           .dword 4
        .text
        _start:
            li s0, 5000
            la a0, a
            li t0, 4
        loop:
            vsetvli t1, t0, e64, m1, ta, ma
            vle64.v v1, (a0)
            vadd.vv v2, v1, v1
            vse64.v v2, (a0)
            addi s0, s0, -1
            bnez s0, loop
            li a7, 93
            li a0, 0
            ecall
        ",
        AsmOptions::default(),
    )
    .unwrap();
    let vinsts = run_binary(&vbin, u64::MAX / 2, RunConfig::default())
        .unwrap()
        .stats
        .instret;
    let tv = bench("emulator_vector/vector_loop", 50, 9, || {
        run_binary(
            std::hint::black_box(&vbin),
            u64::MAX / 2,
            RunConfig::default(),
        )
        .unwrap()
    });
    report_throughput("  -> dynamic insts/s", vinsts, tv);
}
