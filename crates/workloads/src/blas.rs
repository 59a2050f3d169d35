//! BLAS-like kernels for the §6.4 real-world evaluation: `dgemm`, `sgemm`,
//! `dgemv`, `sgemv`, each in an RVV (extension) and a scalar (base)
//! version, generated in our assembler.
//!
//! Matrix entries are small integers stored as floats, so every product
//! and sum is exactly representable: results are bit-identical between the
//! scalar and vector versions regardless of summation order, which makes
//! differential correctness checks exact.
//!
//! Threading model: the bench harness parallelizes over *row slices* (each
//! worker runs one instance computing `m / T` rows), matching how BLAS
//! partitions gemm/gemv; cross-thread synchronization is modelled by the
//! harness's barrier term.

use chimera_obj::{assemble, AsmOptions, Binary};
use std::fmt::Write;

/// Element precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// f64 (`dgemm`/`dgemv`).
    Double,
    /// f32 (`sgemm`/`sgemv`).
    Single,
}

impl Precision {
    fn elem_dir(self) -> &'static str {
        match self {
            Precision::Double => ".double",
            Precision::Single => ".float",
        }
    }

    fn bytes(self) -> usize {
        match self {
            Precision::Double => 8,
            Precision::Single => 4,
        }
    }

    fn sew(self) -> &'static str {
        match self {
            Precision::Double => "e64",
            Precision::Single => "e32",
        }
    }

    fn vle(self) -> &'static str {
        match self {
            Precision::Double => "vle64.v",
            Precision::Single => "vle32.v",
        }
    }

    fn vse(self) -> &'static str {
        match self {
            Precision::Double => "vse64.v",
            Precision::Single => "vse32.v",
        }
    }

    fn fl(self) -> &'static str {
        match self {
            Precision::Double => "fld",
            Precision::Single => "flw",
        }
    }

    fn fs(self) -> &'static str {
        match self {
            Precision::Double => "fsd",
            Precision::Single => "fsw",
        }
    }

    fn suf(self) -> &'static str {
        match self {
            Precision::Double => "d",
            Precision::Single => "s",
        }
    }
}

fn emit_matrix(out: &mut String, name: &str, rows: usize, cols: usize, p: Precision, seed: u64) {
    writeln!(out, "        {name}:").unwrap();
    for i in 0..rows * cols {
        let v = ((i as u64).wrapping_mul(31).wrapping_add(seed) % 7) as i64 - 3;
        writeln!(out, "            {} {}", p.elem_dir(), v).unwrap();
    }
}

/// Generates a GEMM task: `C = A(m×k) · B(k×n)`, rows `[r0, r1)`,
/// exiting with an integer checksum of the computed C slice.
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    r0: usize,
    r1: usize,
    p: Precision,
    vectorized: bool,
) -> Binary {
    assert!(r0 < r1 && r1 <= m);
    let eb = p.bytes();
    let mut src = String::new();
    writeln!(src, "        .data").unwrap();
    emit_matrix(&mut src, "ma", m, k, p, 1);
    emit_matrix(&mut src, "mb", k, n, p, 5);
    writeln!(src, "        mc: .zero {}", m * n * eb).unwrap();
    writeln!(src, "        .text").unwrap();

    let (sew, vle, vse, fl, suf) = (p.sew(), p.vle(), p.vse(), p.fl(), p.suf());
    let row_a = k * eb;
    let row_b = n * eb;
    let row_c = n * eb;

    if vectorized {
        // i over rows, j strip-mined by vsetvli, l inner with vfmacc.vf.
        writeln!(
            src,
            "
        _start:
            li s0, {r0}               # i
        i_loop:
            li t0, {r1}
            bge s0, t0, done
            la s1, mc
            li t1, {row_c}
            mul t2, s0, t1
            add s1, s1, t2            # &C[i][0]
            li s2, {n}                # remaining columns
            li s3, 0                  # j offset (bytes)
        j_loop:
            beqz s2, j_done
            vsetvli s4, s2, {sew}, m1, ta, ma
            vmv.v.i v3, 0
            li s5, 0                  # l
        l_loop:
            li t0, {k}
            bge s5, t0, l_done
            la t1, ma
            li t2, {row_a}
            mul t3, s0, t2
            add t1, t1, t3
            li t2, {eb}
            mul t3, s5, t2
            add t1, t1, t3            # &A[i][l]
            {fl} fa0, 0(t1)
            la t1, mb
            li t2, {row_b}
            mul t3, s5, t2
            add t1, t1, t3
            add t1, t1, s3            # &B[l][j]
            {vle} v1, (t1)
            vfmacc.vf v3, v1, fa0
            addi s5, s5, 1
            j l_loop
        l_done:
            add t1, s1, s3
            {vse} v3, (t1)
            sub s2, s2, s4
            li t2, {eb}
            mul t3, s4, t2
            add s3, s3, t3
            j j_loop
        j_done:
            addi s0, s0, 1
            j i_loop
        done:
        "
        )
        .unwrap();
    } else {
        writeln!(
            src,
            "
        _start:
            li s0, {r0}
        i_loop:
            li t0, {r1}
            bge s0, t0, done
            li s5, 0                  # l
        l_loop:
            li t0, {k}
            bge s5, t0, l_done
            la t1, ma
            li t2, {row_a}
            mul t3, s0, t2
            add t1, t1, t3
            li t2, {eb}
            mul t3, s5, t2
            add t1, t1, t3
            {fl} fa0, 0(t1)           # a = A[i][l]
            la s1, mb
            li t2, {row_b}
            mul t3, s5, t2
            add s1, s1, t3            # &B[l][0]
            la s2, mc
            li t2, {row_c}
            mul t3, s0, t2
            add s2, s2, t3            # &C[i][0]
            li s3, {n}                # j counter
        ax_loop:
            {fl} ft0, 0(s1)
            {fl} ft1, 0(s2)
            fmadd.{suf} ft1, ft0, fa0, ft1
            {fs} ft1, 0(s2)
            addi s1, s1, {eb}
            addi s2, s2, {eb}
            addi s3, s3, -1
            bnez s3, ax_loop
            addi s5, s5, 1
            j l_loop
        l_done:
            addi s0, s0, 1
            j i_loop
        done:
        ",
            fs = p.fs(),
        )
        .unwrap();
    }

    // Checksum the computed rows (scalar, identical in both versions).
    writeln!(
        src,
        "
            fmv.{wx}.x fa1, zero
            li s0, {r0}
        cs_i:
            li t0, {r1}
            bge s0, t0, cs_done
            la s1, mc
            li t1, {row_c}
            mul t2, s0, t1
            add s1, s1, t2
            li s2, {n}
        cs_j:
            {fl} ft0, 0(s1)
            fadd.{suf} fa1, fa1, ft0
            addi s1, s1, {eb}
            addi s2, s2, -1
            bnez s2, cs_j
            addi s0, s0, 1
            j cs_i
        cs_done:
            fcvt.l.{suf} a0, fa1
            li a7, 93
            ecall
        ",
        wx = if p == Precision::Double { "d" } else { "w" },
    )
    .unwrap();

    let profile = if vectorized {
        chimera_isa::ExtSet::RV64GCV
    } else {
        chimera_isa::ExtSet::RV64GC
    };
    assemble(
        &src,
        AsmOptions {
            compress: true,
            profile,
        },
    )
    .expect("gemm assembles")
}

/// Generates a GEMV task: `y = A(m×n) · x`, rows `[r0, r1)`, exiting with
/// an integer checksum of y. The scalar version's inner loop is the
/// canonical dot shape (upgrade-recognizable).
pub fn gemv(m: usize, n: usize, r0: usize, r1: usize, p: Precision, vectorized: bool) -> Binary {
    assert!(r0 < r1 && r1 <= m);
    let eb = p.bytes();
    let mut src = String::new();
    writeln!(src, "        .data").unwrap();
    emit_matrix(&mut src, "ma", m, n, p, 3);
    emit_matrix(&mut src, "vx", n, 1, p, 9);
    writeln!(src, "        .text").unwrap();
    let (sew, vle, fl, suf) = (p.sew(), p.vle(), p.fl(), p.suf());
    let row_a = n * eb;

    if vectorized {
        writeln!(
            src,
            "
        _start:
            fmv.{wx}.x fa1, zero      # checksum
            li s0, {r0}
        i_loop:
            li t0, {r1}
            bge s0, t0, done
            la t1, ma
            li t2, {row_a}
            mul t3, s0, t2
            add t1, t1, t3            # &A[i][0]
            la t2, vx
            li s2, {n}
            vmv.v.i v3, 0             # partial products accumulator
            vsetvli s4, s2, {sew}, m1, ta, ma
            vmv.v.i v3, 0
        strip:
            beqz s2, reduce
            vsetvli s4, s2, {sew}, m1, ta, ma
            {vle} v1, (t1)
            {vle} v2, (t2)
            vfmacc.vv v3, v1, v2
            sub s2, s2, s4
            li t3, {eb}
            mul t4, s4, t3
            add t1, t1, t4
            add t2, t2, t4
            j strip
        reduce:
            li s2, {n}
            vsetvli s4, s2, {sew}, m1, ta, ma
            vmv.v.i v4, 0
            vfredusum.vs v5, v3, v4
            vmv.x.s t5, v5
            fmv.{wx}.x ft0, t5
            fadd.{suf} fa1, fa1, ft0
            addi s0, s0, 1
            j i_loop
        done:
            fcvt.l.{suf} a0, fa1
            li a7, 93
            ecall
        ",
            wx = if p == Precision::Double { "d" } else { "w" },
        )
        .unwrap();
    } else {
        writeln!(
            src,
            "
        _start:
            fmv.{wx}.x fa1, zero
            li s0, {r0}
        i_loop:
            li t0, {r1}
            bge s0, t0, done
            la t1, ma
            li t2, {row_a}
            mul t3, s0, t2
            add t1, t1, t3
            la t2, vx
            li t3, {n}
            fmv.{wx}.x fa0, zero
        dot:
            {fl} ft0, 0(t1)
            {fl} ft1, 0(t2)
            fmadd.{suf} fa0, ft0, ft1, fa0
            addi t1, t1, {eb}
            addi t2, t2, {eb}
            addi t3, t3, -1
            bnez t3, dot
            fadd.{suf} fa1, fa1, fa0
            addi s0, s0, 1
            j i_loop
        done:
            fcvt.l.{suf} a0, fa1
            li a7, 93
            ecall
        ",
            wx = if p == Precision::Double { "d" } else { "w" },
        )
        .unwrap();
    }
    let profile = if vectorized {
        chimera_isa::ExtSet::RV64GCV
    } else {
        chimera_isa::ExtSet::RV64GC
    };
    assemble(
        &src,
        AsmOptions {
            compress: true,
            profile,
        },
    )
    .expect("gemv assembles")
}

/// The four §6.4 workloads at a given problem size, sliced for `threads`
/// workers: returns per-worker (vector, scalar) binary pairs.
pub fn sliced_kernels(kind: BlasKind, size: usize, threads: usize) -> Vec<(Binary, Binary)> {
    let rows_per = size.div_ceil(threads);
    (0..threads)
        .map(|t| {
            let r0 = (t * rows_per).min(size - 1);
            let r1 = ((t + 1) * rows_per).min(size).max(r0 + 1);
            match kind {
                BlasKind::Dgemm => (
                    gemm(size, size, size, r0, r1, Precision::Double, true),
                    gemm(size, size, size, r0, r1, Precision::Double, false),
                ),
                BlasKind::Sgemm => (
                    gemm(size, size, size, r0, r1, Precision::Single, true),
                    gemm(size, size, size, r0, r1, Precision::Single, false),
                ),
                BlasKind::Dgemv => (
                    gemv(size, size, r0, r1, Precision::Double, true),
                    gemv(size, size, r0, r1, Precision::Double, false),
                ),
                BlasKind::Sgemv => (
                    gemv(size, size, r0, r1, Precision::Single, true),
                    gemv(size, size, r0, r1, Precision::Single, false),
                ),
            }
        })
        .collect()
}

/// The four §6.4 kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlasKind {
    /// f64 matrix–matrix multiply.
    Dgemm,
    /// f32 matrix–matrix multiply.
    Sgemm,
    /// f64 matrix–vector multiply.
    Dgemv,
    /// f32 matrix–vector multiply.
    Sgemv,
}

impl BlasKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BlasKind::Dgemm => "dgemm",
            BlasKind::Sgemm => "sgemm",
            BlasKind::Dgemv => "dgemv",
            BlasKind::Sgemv => "sgemv",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_emu::{run_binary, RunConfig};
    use chimera_isa::ExtSet;

    #[test]
    fn dgemm_scalar_vector_agree_exactly() {
        let v = gemm(8, 8, 8, 0, 8, Precision::Double, true);
        let s = gemm(8, 8, 8, 0, 8, Precision::Double, false);
        let rv = run_binary(&v, 50_000_000, RunConfig::default()).unwrap();
        let rs = run_binary(&s, 50_000_000, RunConfig::default()).unwrap();
        assert_eq!(rv.exit_code, rs.exit_code);
        assert!(rv.stats.vector_insts > 0);
        assert!(rv.stats.cycles < rs.stats.cycles, "vector wins");
    }

    #[test]
    fn sgemm_scalar_vector_agree() {
        let v = gemm(6, 6, 6, 0, 6, Precision::Single, true);
        let s = gemm(6, 6, 6, 0, 6, Precision::Single, false);
        let rv = run_binary(&v, 50_000_000, RunConfig::default()).unwrap();
        let rs = run_binary(&s, 50_000_000, RunConfig::default()).unwrap();
        assert_eq!(rv.exit_code, rs.exit_code);
    }

    #[test]
    fn gemv_versions_agree_both_precisions() {
        for p in [Precision::Double, Precision::Single] {
            let v = gemv(12, 12, 0, 12, p, true);
            let s = gemv(12, 12, 0, 12, p, false);
            let rv = run_binary(&v, 50_000_000, RunConfig::default()).unwrap();
            let rs = run_binary(&s, 50_000_000, RunConfig::default()).unwrap();
            assert_eq!(rv.exit_code, rs.exit_code, "{p:?}");
        }
    }

    #[test]
    fn row_slices_partition_whole_matrix() {
        // Sum of per-slice checksums equals the full-run checksum.
        let full = run_binary(
            &gemv(8, 8, 0, 8, Precision::Double, false),
            50_000_000,
            RunConfig::default(),
        )
        .unwrap()
        .exit_code;
        let mut sum = 0i64;
        for (_, s) in sliced_kernels(BlasKind::Dgemv, 8, 4) {
            sum += run_binary(&s, 50_000_000, RunConfig::default())
                .unwrap()
                .exit_code;
        }
        assert_eq!(sum, full);
    }

    #[test]
    fn dgemm_downgrade_matches_native() {
        let v = gemm(6, 6, 6, 0, 6, Precision::Double, true);
        let native = run_binary(&v, 50_000_000, RunConfig::default()).unwrap();
        let rw = chimera_rewrite::chbp_rewrite(
            &v,
            ExtSet::RV64GC,
            chimera_rewrite::RewriteOptions::default(),
        )
        .unwrap();
        let down = run_binary(&rw.binary, 500_000_000, RunConfig::on(ExtSet::RV64GC)).unwrap();
        assert_eq!(native.exit_code, down.exit_code);
    }
}
