//! Guests shared by the kernel integration suites.

use chimera_isa::ExtSet;
use chimera_kernel::{RuntimeTables, Variant};
use chimera_obj::{assemble, AsmOptions, Binary};
use chimera_rewrite::{chbp_rewrite, RewriteOptions};

/// The CHBP rewrite of `bin` for RV64GC cores, with its fault table.
pub fn chbp(bin: &Binary) -> Variant {
    let rw = chbp_rewrite(bin, ExtSet::RV64GC, RewriteOptions::default()).unwrap();
    Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    }
}

/// [`chbp`] of the assembled `src`.
pub fn chbp_variant(src: &str) -> Variant {
    chbp(&assemble(src, AsmOptions::default()).unwrap())
}

/// A guest whose vector block is reachable only through a pointer the
/// static scan cannot see (stored doubled, halved at runtime): a CHBP
/// rewrite misses it, so the kernel must rewrite it lazily on the
/// illegal-instruction fault, into the `[lazy]` slack. Exits 34. Returns
/// the native binary and its CHBP variant.
pub fn hidden_vector_guest() -> (Binary, Variant) {
    let src = "
        .data
        a: .dword 7
           .dword 8
           .dword 9
           .dword 10
        coded_ptr: .dword 0
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64, m1, ta, ma
            la a0, a
            la t2, coded_ptr
            ld t3, 0(t2)
            srli t3, t3, 1
            jr t3
        hidden:
            vle64.v v1, (a0)
            vmv.v.i v2, 0
            vredsum.vs v3, v1, v2
            vmv.x.s a0, v3
            li a7, 93
            ecall
    ";
    // Locate `hidden` using a reference build with a visible pointer.
    let visible = src.replace("coded_ptr: .dword 0", "coded_ptr: .dword hidden");
    let hidden = chimera_analysis::disassemble(&assemble(&visible, AsmOptions::default()).unwrap())
        .iter()
        .find(|di| matches!(di.inst, chimera_isa::Inst::VLoad { .. }))
        .unwrap()
        .addr;
    let mut bin = assemble(src, AsmOptions::default()).unwrap();
    let data = bin.section(".data").unwrap().addr;
    bin.write(data + 32, &(hidden * 2).to_le_bytes());
    let variant = chbp(&bin);
    (bin, variant)
}
