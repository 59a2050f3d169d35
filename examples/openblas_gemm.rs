//! OpenBLAS-style matrix kernels across heterogeneous cores (a miniature
//! of §6.4 / Fig. 14): dgemm running natively on extension cores,
//! downgraded on base cores, and as MELF's native scalar build.
//!
//! ```sh
//! cargo run --release --example openblas_gemm
//! ```

use chimera::{measure, prepare_process, InputVersion, SystemKind, TaskBinaries};
use chimera_emu::{run_binary, RunConfig};
use chimera_isa::ExtSet;
use chimera_workloads::blas::{gemm, Precision};

fn main() {
    let size = 12;
    println!("dgemm {size}x{size}x{size}, full matrix on one core:");

    let vector = gemm(size, size, size, 0, size, Precision::Double, true);
    let scalar = gemm(size, size, size, 0, size, Precision::Double, false);

    let native_ext =
        run_binary(&vector, u64::MAX / 2, RunConfig::default()).expect("vector native");
    let native_base =
        run_binary(&scalar, u64::MAX / 2, RunConfig::default()).expect("scalar native");
    assert_eq!(native_ext.exit_code, native_base.exit_code);
    println!(
        "  native RVV on ext core    : checksum {:>8}, {:>9} cycles",
        native_ext.exit_code, native_ext.stats.cycles
    );
    println!(
        "  native scalar (MELF base) : checksum {:>8}, {:>9} cycles ({:.2}x slower)",
        native_base.exit_code,
        native_base.stats.cycles,
        native_base.stats.cycles as f64 / native_ext.stats.cycles as f64
    );

    // Chimera: the vector binary rewritten for base cores.
    let task = TaskBinaries {
        base_version: Some(scalar),
        ext_version: Some(vector),
    };
    let chimera = prepare_process(SystemKind::Chimera, InputVersion::Ext, &task).unwrap();
    let down = measure(&chimera, ExtSet::RV64GC, u64::MAX / 2).expect("downgraded");
    assert_eq!(down.exit_code, native_ext.exit_code);
    println!(
        "  Chimera-rewritten on base : checksum {:>8}, {:>9} cycles ({:.2}x vs RVV), {} faults handled",
        down.exit_code,
        down.cycles,
        down.cycles as f64 / native_ext.stats.cycles as f64,
        down.counters.total()
    );

    // Acceleration ratios relative to "FAM Ext." (vector on ext core),
    // the Fig. 14 normalization.
    println!("\nacceleration ratio relative to FAM Ext. (higher is better):");
    let base = native_ext.stats.cycles as f64;
    println!("  FAM Ext. (vector, ext core) : 1.00");
    println!(
        "  FAM Base (scalar binary)    : {:.2}",
        base / native_base.stats.cycles as f64
    );
    println!(
        "  Chimera (rewritten, base)   : {:.2}",
        base / down.cycles as f64
    );
    println!(
        "  MELF ideal (native per core): 1.00 (ext) / {:.2} (base)",
        base / native_base.stats.cycles as f64
    );
    println!("\nok: all checksums identical — exact FP equality by construction");
}
