//! Quickstart: take a vector binary, rewrite it with CHBP for a core
//! without the vector extension, and run it — transparently, with zero
//! fault-handling invocations on the normal path.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use chimera::{measure, prepare_process, InputVersion, SystemKind, TaskBinaries};
use chimera_emu::{run_binary, RunConfig};
use chimera_isa::ExtSet;
use chimera_obj::{assemble, AsmOptions};

fn main() {
    // A program using the RISC-V vector extension: sum of an element-wise
    // product of two arrays.
    let src = "
        .data
        a: .dword 3
           .dword 5
           .dword 7
           .dword 11
        b: .dword 2
           .dword 4
           .dword 6
           .dword 8
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            la a1, b
            vle64.v v1, (a0)
            vle64.v v2, (a1)
            vmul.vv v3, v1, v2
            vmv.v.i v4, 0
            vredsum.vs v5, v3, v4
            vmv.x.s a0, v5
            li a7, 93
            ecall
    ";
    let ext_binary = assemble(src, AsmOptions::default()).expect("assembles");
    println!(
        "original binary: {} bytes of RV64GCV code, entry {:#x}",
        ext_binary.code_size(),
        ext_binary.entry
    );

    // Native run on an extension core.
    let native = run_binary(&ext_binary, 1_000_000, RunConfig::default()).expect("native run");
    println!(
        "native on extension core : result {}, {} cycles, {} vector insts",
        native.exit_code, native.stats.cycles, native.stats.vector_insts
    );

    // Chimera: rewrite for base cores, run through the kernel runtime.
    let task = TaskBinaries {
        base_version: None,
        ext_version: Some(ext_binary),
    };
    let process =
        prepare_process(SystemKind::Chimera, InputVersion::Ext, &task).expect("rewriting succeeds");

    let m = measure(&process, ExtSet::RV64GC, 10_000_000).expect("downgraded run");
    println!(
        "rewritten on base core   : result {}, {} cycles, fault handling invoked {} times",
        m.exit_code,
        m.cycles,
        m.counters.total()
    );
    assert_eq!(m.exit_code, native.exit_code, "semantics preserved");
    assert_eq!(m.counters.total(), 0, "passive: no faults in normal runs");

    // The same process also still runs natively on extension cores.
    let on_ext = measure(&process, ExtSet::RV64GCV, 1_000_000).expect("ext view");
    println!(
        "same process on ext core : result {}, {} cycles",
        on_ext.exit_code, on_ext.cycles
    );
    println!("ok: one process, two MMViews, identical semantics");
}
