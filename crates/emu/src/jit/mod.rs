//! The host-code JIT execution tier.
//!
//! Three tiers share one front end: the decode-cached interpreter, the
//! micro-op engine, and this tier, which template-compiles hot lowered
//! block bodies to x86-64 and runs them out of a W^X-toggled arena (see
//! [`exec`]). There is no optimizing IR: each [`MicroOp`] expands to a
//! fixed instruction template ([`compile`]), and everything the templates
//! cannot express — `Generic` delegates, faultable accesses that miss the
//! region mirror, multi-instruction ALU kinds — calls back into the
//! interpreter's own helpers through a fixed `extern "C"` surface, so the
//! semantics have exactly one implementation.
//!
//! ## Tiering
//!
//! The dispatcher (`Cpu::step_jit`) counts block entries per guest pc;
//! past a deterministic hotness threshold the block body is compiled and
//! entered through [`try_enter`]. Compiled traces chain: a Fall/Taken
//! exit whose successor is also resident is patched into a direct
//! `jmp` to the successor's *chain entry*, which revalidates the
//! generation stamp and fuel on every entry — patching is a pure
//! optimization, never a validity assumption.
//!
//! ## Invalidation contract
//!
//! Traces are validated by the same (generation stamp, region
//! fingerprint) contract as uop block chaining: a stamp match is the fast
//! path; on a mismatch the trace is revalidated against its region
//! fingerprint and either restamped (some *other* region changed) or
//! severed — every patched jump into it is restored to the original
//! exit-slot bytes, byte-for-byte, under the same W^X toggle that wrote
//! it. Severed-by-invalidation pcs pay a doubled re-promotion threshold
//! (hysteresis), so an alternating SMC workload settles into the engine
//! tier instead of ping-ponging compile/sever cycles. Re-promotion after
//! an identical poke recompiles bit-identical code ([`compile`] is a pure
//! function of the lowered ops and the pc), which the SMC regression
//! suite asserts.
//!
//! ## Transparency
//!
//! Architectural effects are identical to the engine tier: register
//! writes go straight to the `Hart` array, memory accesses either hit a
//! per-trace region mirror (bounds-checked against the live region) or
//! call back into the hinted `Memory` paths, and `ExecStats` deltas are
//! batched in the [`JitCtx`] and drained at exits — the same observable
//! boundaries the engine uses. The differential fuzzing oracle holds all
//! four [`crate::ExecMode`]s to full `Obs` equality plus the counter law
//! `hits(interp) == hits(jit) + chained(jit) + jitted(jit)`.

mod asm;
mod compile;
mod exec;

pub use exec::jit_available;

use std::collections::HashMap;
use std::sync::Arc;

use chimera_isa::{FpWidth, LoadKind, StoreKind};
use chimera_trace::TraceEvent;

use crate::bbcache::Block;
use crate::cpu::{block_intact, exec_op, exec_opimm, exec_unary, Cpu, Trap};
use crate::mem::{MemFault, Memory};
use crate::uop::{MicroOp, Uop};

use compile::{
    compile, epilogue_code, patched_exit_bytes, ExitSlot, EXIT_PATCH_JMP_END, EXIT_SLOT_LEN,
    ST_BAIL, ST_BUDGET, ST_FALL, ST_INDIRECT, ST_REVAL, ST_TAKEN, ST_TRAP,
};
use exec::{call_entry, Arena};

/// The register/stack frame emitted traces operate against. The layout is
/// part of the template ABI: every field offset up to `epilogue` is baked
/// into emitted code via [`off`], so fields must not be reordered without
/// recompiling the world (which a process restart does by construction —
/// nothing is persisted).
///
/// The leading `u64` block is the delta accumulator: counters the
/// templates bump with plain `add qword [r12+N], imm` and the runtime
/// drains into `ExecStats` at exits. Retired instructions have no
/// counter of their own: templates only decrement `fuel`, and drains
/// credit `fuel_anchor - fuel` to `ExecStats::instret`.
#[repr(C)]
struct JitCtx {
    /// Guest pc, committed at every observable boundary.
    pc: u64,
    /// Remaining instruction budget. The retired-instruction delta is
    /// *derived* from fuel (`fuel_anchor - fuel` at every drain), so the
    /// templates never maintain a separate instret counter.
    fuel: u64,
    /// Batched `ExecStats::cycles` delta.
    d_cycles: u64,
    /// Batched `ExecStats::loads` delta.
    d_loads: u64,
    /// Batched `ExecStats::stores` delta.
    d_stores: u64,
    /// Batched `ExecStats::branches` delta.
    d_branches: u64,
    /// Batched `ExecStats::indirect_jumps` delta.
    d_indirect: u64,
    /// Batched `CacheStats::jitted` delta (chain entries taken).
    d_jitted: u64,
    /// The code generation every chain-entry stamp check compares against.
    cur_gen: u64,
    /// Trace currently executing (indexes `stamps`/`blocks`).
    cur_trace: u64,
    /// Trace that reached the epilogue (written by the epilogue itself).
    exit_from: u64,
    /// Per-trace generation stamps (`JitTier::stamps`).
    stamps: *const u64,
    /// Per-trace lowered blocks, for helper uop recovery
    /// (`JitTier::block_ptrs`).
    blocks: *const *const Block,
    /// The hart's x-register array.
    xregs: *mut u64,
    /// Load-mirror backing bytes (null until the first helper load).
    ld_base: *mut u8,
    /// Load-mirror region start address.
    ld_start: u64,
    /// Load-mirror limits per log2(width): `addr - start < lim[k]` means
    /// the whole access is in bounds.
    ld_lim: [u64; 4],
    /// Store-mirror backing bytes (writable non-executable regions only,
    /// so SMC bookkeeping is never bypassed).
    st_base: *mut u8,
    /// Store-mirror region start address.
    st_start: u64,
    /// Store-mirror limits per log2(width).
    st_lim: [u64; 4],
    /// Helper entry points, called as `call qword [r12 + H_*]`.
    h_load: u64,
    /// Scalar-store helper.
    h_store: u64,
    /// FP-load helper.
    h_fload: u64,
    /// FP-store helper.
    h_fstore: u64,
    /// `MicroOp::Generic` delegate helper.
    h_generic: u64,
    /// Cold register-immediate ALU helper.
    h_opimm: u64,
    /// Cold register-register ALU helper.
    h_op: u64,
    /// Unary (bit-manipulation) helper.
    h_unary: u64,
    /// Absolute address of the shared epilogue (arena offset 0).
    epilogue: u64,
    /// The hart's FP register file (raw bits; NaN boxing is the
    /// template's job, mirroring `jit_fload`).
    fregs: *mut u64,
    /// Indirect-branch target table keys: guest pcs, direct-mapped by
    /// `(pc >> 1) & (IBT_LEN - 1)`, empty slots hold `u64::MAX`.
    ibt_keys: *const u64,
    /// Indirect-branch target table values: absolute addresses of the
    /// matching traces' indirect entries.
    ibt_vals: *const u64,
    // --- Rust-only tail: never touched by emitted code. ---
    /// `fuel` at the last drain; `fuel_anchor - fuel` is the
    /// scalar-retired count the next drain owes `ExecStats::instret`.
    fuel_anchor: u64,
    /// The owning core, for helper call-outs.
    cpu: *mut Cpu,
    /// Guest memory, for helper call-outs.
    mem: *mut Memory,
    /// A trap recorded by a helper (drives the `ST_TRAP` exit).
    trap: Option<Trap>,
}

/// `JitCtx` field offsets for the emitter. Emitted code addresses the
/// context exclusively as `[r12 + off::X]`.
mod off {
    use super::JitCtx;
    use std::mem::offset_of;

    pub(super) const PC: i32 = offset_of!(JitCtx, pc) as i32;
    pub(super) const FUEL: i32 = offset_of!(JitCtx, fuel) as i32;
    pub(super) const D_CYCLES: i32 = offset_of!(JitCtx, d_cycles) as i32;
    pub(super) const D_LOADS: i32 = offset_of!(JitCtx, d_loads) as i32;
    pub(super) const D_STORES: i32 = offset_of!(JitCtx, d_stores) as i32;
    pub(super) const D_BRANCHES: i32 = offset_of!(JitCtx, d_branches) as i32;
    pub(super) const D_INDIRECT: i32 = offset_of!(JitCtx, d_indirect) as i32;
    pub(super) const D_JITTED: i32 = offset_of!(JitCtx, d_jitted) as i32;
    pub(super) const CUR_GEN: i32 = offset_of!(JitCtx, cur_gen) as i32;
    pub(super) const CUR_TRACE: i32 = offset_of!(JitCtx, cur_trace) as i32;
    pub(super) const EXIT_FROM: i32 = offset_of!(JitCtx, exit_from) as i32;
    pub(super) const STAMPS: i32 = offset_of!(JitCtx, stamps) as i32;
    pub(super) const XREGS: i32 = offset_of!(JitCtx, xregs) as i32;
    pub(super) const LD_BASE: i32 = offset_of!(JitCtx, ld_base) as i32;
    pub(super) const LD_START: i32 = offset_of!(JitCtx, ld_start) as i32;
    pub(super) const LD_LIM: i32 = offset_of!(JitCtx, ld_lim) as i32;
    pub(super) const ST_BASE: i32 = offset_of!(JitCtx, st_base) as i32;
    pub(super) const ST_START: i32 = offset_of!(JitCtx, st_start) as i32;
    pub(super) const ST_LIM: i32 = offset_of!(JitCtx, st_lim) as i32;
    pub(super) const H_LOAD: i32 = offset_of!(JitCtx, h_load) as i32;
    pub(super) const H_STORE: i32 = offset_of!(JitCtx, h_store) as i32;
    pub(super) const H_FLOAD: i32 = offset_of!(JitCtx, h_fload) as i32;
    pub(super) const H_FSTORE: i32 = offset_of!(JitCtx, h_fstore) as i32;
    pub(super) const H_GENERIC: i32 = offset_of!(JitCtx, h_generic) as i32;
    pub(super) const H_OPIMM: i32 = offset_of!(JitCtx, h_opimm) as i32;
    pub(super) const H_OP: i32 = offset_of!(JitCtx, h_op) as i32;
    pub(super) const H_UNARY: i32 = offset_of!(JitCtx, h_unary) as i32;
    pub(super) const EPILOGUE: i32 = offset_of!(JitCtx, epilogue) as i32;
    pub(super) const FREGS: i32 = offset_of!(JitCtx, fregs) as i32;
    pub(super) const IBT_KEYS: i32 = offset_of!(JitCtx, ibt_keys) as i32;
    pub(super) const IBT_VALS: i32 = offset_of!(JitCtx, ibt_vals) as i32;
}

/// Indirect-branch target table size (power of two). Direct-mapped:
/// collisions just evict, severs remove, flushes clear — the table is a
/// pure optimization and every hit still runs the target's chain-entry
/// stamp and fuel checks.
pub(super) const IBT_LEN: usize = 2048;

/// The direct-mapped IBT slot for a guest pc (instructions are at least
/// 2-byte aligned, so bit 0 carries no information).
fn ibt_slot(pc: u64) -> usize {
    (pc >> 1) as usize & (IBT_LEN - 1)
}

/// Flushes the batched deltas into `ExecStats`/`CacheStats` and
/// re-anchors the architectural pc — the JIT's equivalent of the engine's
/// `flush!()`. Idempotent: every delta is zeroed as it lands.
fn drain(ctx: &mut JitCtx, cpu: &mut Cpu) {
    cpu.stats.instret += ctx.fuel_anchor - ctx.fuel;
    ctx.fuel_anchor = ctx.fuel;
    cpu.stats.cycles += ctx.d_cycles;
    cpu.stats.loads += ctx.d_loads;
    cpu.stats.stores += ctx.d_stores;
    cpu.stats.branches += ctx.d_branches;
    cpu.stats.indirect_jumps += ctx.d_indirect;
    cpu.cache.stats.jitted += ctx.d_jitted;
    ctx.d_cycles = 0;
    ctx.d_loads = 0;
    ctx.d_stores = 0;
    ctx.d_branches = 0;
    ctx.d_indirect = 0;
    ctx.d_jitted = 0;
    cpu.hart.pc = ctx.pc;
}

/// Records a memory fault and selects the trap exit. Mirrors the engine's
/// `memtrap!`: `ctx.pc` already sits on the faulting op (committed before
/// the call-out), which contributes nothing to the stats.
fn fault_exit(ctx: &mut JitCtx, fault: MemFault) -> u64 {
    ctx.trap = Some(Trap::Mem { pc: ctx.pc, fault });
    ST_TRAP as u64
}

/// Per-width fast-path limits for a region of `len` bytes: an access of
/// width `1 << k` at `start + d` is fully in bounds iff `d < lim[k]`.
fn mirror_limits(len: usize) -> [u64; 4] {
    let mut lim = [0u64; 4];
    for (k, slot) in lim.iter_mut().enumerate() {
        let w = 1usize << k;
        *slot = if len >= w { (len - w + 1) as u64 } else { 0 };
    }
    lim
}

/// Re-aims the load mirror at the region containing `addr`, if readable.
fn refresh_load_mirror(ctx: &mut JitCtx, mem: &mut Memory, addr: u64) {
    if let Some((base, start, len)) = mem.region_raw(addr, false) {
        ctx.ld_base = base;
        ctx.ld_start = start;
        ctx.ld_lim = mirror_limits(len);
    }
}

/// Re-aims the store mirror at the region containing `addr`. Only
/// writable *non-executable* regions are mirrored — stores to executable
/// regions must keep taking the `write_hinted` slow path so the
/// self-modifying-code generation bookkeeping is never bypassed.
fn refresh_store_mirror(ctx: &mut JitCtx, mem: &mut Memory, addr: u64) {
    if let Some((base, start, len)) = mem.region_raw(addr, true) {
        ctx.st_base = base;
        ctx.st_start = start;
        ctx.st_lim = mirror_limits(len);
    }
}

/// The lowered block of the currently executing trace.
///
/// # Safety
///
/// `ctx.blocks`/`ctx.cur_trace` must describe live `JitTier` state (true
/// for the duration of [`execute`]).
unsafe fn ctx_block<'a>(ctx: &JitCtx) -> &'a Block {
    unsafe { &**ctx.blocks.add(ctx.cur_trace as usize) }
}

/// The uop a helper call-out was compiled from.
///
/// # Safety
///
/// See [`ctx_block`]; `op_idx` must index its `ops` (guaranteed by the
/// emitter, which bakes the index into the call site).
unsafe fn ctx_uop(ctx: &JitCtx, op_idx: u64) -> Uop {
    unsafe { ctx_block(ctx) }.ops[op_idx as usize]
}

/// Scalar-load call-out (mirror miss). Performs the access through the
/// hinted path, writes `rd`, re-aims the mirror, and returns 0 — or the
/// trap exit status on a fault.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_load(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let MicroOp::Load { kind, rd, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("load helper compiled against a non-load uop");
    };
    let hint = &mut cpu.hints.load;
    macro_rules! ld {
        ($n:literal) => {
            match mem.read_hinted::<$n>(hint, addr) {
                Ok(b) => b,
                Err(fault) => return fault_exit(ctx, fault),
            }
        };
    }
    let v = match kind {
        LoadKind::Lb => ld!(1)[0] as i8 as i64 as u64,
        LoadKind::Lbu => ld!(1)[0] as u64,
        LoadKind::Lh => i16::from_le_bytes(ld!(2)) as i64 as u64,
        LoadKind::Lhu => u16::from_le_bytes(ld!(2)) as u64,
        LoadKind::Lw => i32::from_le_bytes(ld!(4)) as i64 as u64,
        LoadKind::Lwu => u32::from_le_bytes(ld!(4)) as u64,
        LoadKind::Ld => u64::from_le_bytes(ld!(8)),
    };
    cpu.hart.set_x(rd, v);
    refresh_load_mirror(ctx, mem, addr);
    0
}

/// Scalar-store call-out (mirror miss). On success the emitted constants
/// after the call account the op; on a mid-trace self-invalidation this
/// helper accounts the completed store itself and bails.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_store(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let block = unsafe { ctx_block(ctx) };
    let u = block.ops[op_idx as usize];
    let MicroOp::Store { kind, rs2, .. } = u.op else {
        unreachable!("store helper compiled against a non-store uop");
    };
    let gen_before = mem.code_generation();
    let v = cpu.hart.get_x(rs2);
    let hint = &mut cpu.hints.store;
    let wrote = match kind {
        StoreKind::Sb => mem.write_hinted(hint, addr, &[v as u8]),
        StoreKind::Sh => mem.write_hinted(hint, addr, &(v as u16).to_le_bytes()),
        StoreKind::Sw => mem.write_hinted(hint, addr, &(v as u32).to_le_bytes()),
        StoreKind::Sd => mem.write_hinted(hint, addr, &v.to_le_bytes()),
    };
    if let Err(fault) = wrote {
        return fault_exit(ctx, fault);
    }
    refresh_store_mirror(ctx, mem, addr);
    if mem.code_generation() != gen_before {
        if !block_intact(mem, block) {
            // The store retired but its compile-time constants sit after
            // the call and will never run; account it here, with pc on
            // the next op — the engine's Bail semantics exactly. (The
            // fuel decrement carries the instret credit.)
            ctx.d_stores += 1;
            ctx.d_cycles += u.cost as u64;
            ctx.fuel -= 1;
            ctx.pc += u.len as u64;
            return ST_BAIL as u64;
        }
        // Some *other* executable region changed: this trace's bytes are
        // intact, but every resident entry stamp is now stale. Chasing
        // the new generation forces chain entries through revalidation
        // instead of running potentially-invalidated successors.
        ctx.cur_gen = mem.code_generation();
    }
    0
}

/// FP-load call-out (mirror miss). Performs the access, NaN-boxes single
/// loads, and re-aims the load mirror so subsequent FP fast paths hit.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_fload(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let MicroOp::FLoad { width, frd, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("fp-load helper compiled against a non-fp-load uop");
    };
    let hint = &mut cpu.hints.load;
    match width {
        FpWidth::S => match mem.read_hinted::<4>(hint, addr) {
            Ok(b) => cpu
                .hart
                .set_f(frd, 0xffff_ffff_0000_0000 | u32::from_le_bytes(b) as u64),
            Err(fault) => return fault_exit(ctx, fault),
        },
        FpWidth::D => match mem.read_hinted::<8>(hint, addr) {
            Ok(b) => cpu.hart.set_f(frd, u64::from_le_bytes(b)),
            Err(fault) => return fault_exit(ctx, fault),
        },
    }
    refresh_load_mirror(ctx, mem, addr);
    0
}

/// FP-store call-out; SMC tail identical to [`jit_store`].
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_fstore(ctx: *mut JitCtx, addr: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let block = unsafe { ctx_block(ctx) };
    let u = block.ops[op_idx as usize];
    let MicroOp::FStore { width, frs2, .. } = u.op else {
        unreachable!("fp-store helper compiled against a non-fp-store uop");
    };
    let gen_before = mem.code_generation();
    let v = cpu.hart.get_f(frs2);
    let hint = &mut cpu.hints.store;
    let wrote = match width {
        FpWidth::S => mem.write_hinted(hint, addr, &(v as u32).to_le_bytes()),
        FpWidth::D => mem.write_hinted(hint, addr, &v.to_le_bytes()),
    };
    if let Err(fault) = wrote {
        return fault_exit(ctx, fault);
    }
    refresh_store_mirror(ctx, mem, addr);
    if mem.code_generation() != gen_before {
        if !block_intact(mem, block) {
            ctx.d_stores += 1;
            ctx.d_cycles += u.cost as u64;
            ctx.fuel -= 1;
            ctx.pc += u.len as u64;
            return ST_BAIL as u64;
        }
        ctx.cur_gen = mem.code_generation();
    }
    0
}

/// `MicroOp::Generic` delegate: drains the deltas (the engine's
/// `flush!()` before `Cpu::exec`), executes through the interpreter, and
/// re-anchors the context from the hart.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_generic(ctx: *mut JitCtx, op_idx: u64) -> u64 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let block = unsafe { ctx_block(ctx) };
    let u = block.ops[op_idx as usize];
    let MicroOp::Generic(inst) = u.op else {
        unreachable!("generic helper compiled against a specialized uop");
    };
    let gen_before = mem.code_generation();
    drain(ctx, cpu);
    match cpu.exec(mem, inst, u.len as u64) {
        Err(t) => {
            ctx.trap = Some(t);
            ST_TRAP as u64
        }
        Ok(()) => {
            // `Cpu::exec` accounted pc/instret/cycles itself; only the
            // fuel and the context's pc anchor are ours. Re-anchor so
            // the next drain doesn't double-credit this instruction.
            ctx.fuel -= 1;
            ctx.fuel_anchor = ctx.fuel;
            ctx.pc = cpu.hart.pc;
            if mem.code_generation() != gen_before {
                if u.is_store && !block_intact(mem, block) {
                    return ST_BAIL as u64;
                }
                ctx.cur_gen = mem.code_generation();
            }
            0
        }
    }
}

/// Cold register-immediate ALU call-out (kinds without a template).
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_opimm(ctx: *mut JitCtx, a: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &*ctx };
    let MicroOp::OpImm { kind, imm, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("opimm helper compiled against a non-opimm uop");
    };
    exec_opimm(kind, a, imm)
}

/// Cold register-register ALU call-out (kinds without a template).
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_op(ctx: *mut JitCtx, a: u64, b: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &*ctx };
    let MicroOp::Op { kind, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("op helper compiled against a non-op uop");
    };
    exec_op(kind, a, b)
}

/// Unary bit-manipulation call-out.
///
/// # Safety
///
/// Called from emitted code with a live [`JitCtx`].
unsafe extern "C" fn jit_unary(ctx: *mut JitCtx, a: u64, op_idx: u64) -> u64 {
    let ctx = unsafe { &*ctx };
    let MicroOp::Unary { kind, .. } = unsafe { ctx_uop(ctx, op_idx) }.op else {
        unreachable!("unary helper compiled against a non-unary uop");
    };
    exec_unary(kind, a)
}

/// Dispatcher entries of a valid cached block before its body is
/// template-compiled. Deterministic — it depends only on the execution
/// schedule, never on wall time, hart count or allocation state.
const DEFAULT_THRESHOLD: u32 = 16;

/// Executable arena size. A full arena flushes every trace and restarts;
/// 4 MiB is far above what the bench zoo ever compiles.
const ARENA_LEN: usize = 4 << 20;

/// Cap on the demotion-hysteresis threshold multiplier.
const MAX_PENALTY: u32 = 1 << 20;

/// One resident compiled trace.
#[derive(Debug)]
struct Trace {
    /// Guest pc of the block's first instruction (the promotion key).
    pc: u64,
    /// (region start, region generation) at compile time.
    fp: (u64, u64),
    /// The lowered block the trace was compiled from; helpers recover
    /// their uops through [`JitCtx::blocks`], so this Arc pins it.
    block: Arc<Block>,
    /// Unpatched code bytes: the sever-restore source and the
    /// byte-identity witness for the SMC regression suite.
    code: Vec<u8>,
    /// Arena offset of the external entry.
    code_off: usize,
    /// Chain-entry offset relative to `code_off`.
    chain: usize,
    /// Indirect-entry offset relative to `code_off` (the IBT target).
    ind: usize,
    /// Patchable exits: `[fall, taken]`.
    exits: [Option<ExitSlot>; 2],
    /// Which exits currently hold a patched direct jump.
    patched: [bool; 2],
    /// Predecessors `(trace, edge)` patched to jump into this trace.
    in_edges: Vec<(u32, u8)>,
    /// Severed: unreachable (stamp poisoned, predecessors unpatched,
    /// unmapped from the promotion table); its arena bytes are dead until
    /// the next flush.
    dead: bool,
}

/// Per-core JIT tier state: the executable arena, resident traces, and
/// the deterministic tiering policy (hotness counters + demotion
/// hysteresis).
#[derive(Debug)]
pub(crate) struct JitTier {
    arena: Option<Arena>,
    /// The host refused an executable mapping once; never retried.
    broken: bool,
    traces: Vec<Trace>,
    /// Promotion table: guest pc of a live trace → trace index.
    map: HashMap<u64, u32>,
    /// Per-trace generation stamps (`u64::MAX` poisons severed traces).
    stamps: Vec<u64>,
    /// Per-trace `Block` pointers for helper uop recovery (Arc-pinned by
    /// the matching [`Trace::block`]).
    block_ptrs: Vec<*const Block>,
    /// Dispatcher-entry counts per not-yet-promoted pc.
    heat: HashMap<u64, u32>,
    /// Per-pc threshold multiplier, doubled on each
    /// sever-by-invalidation (demotion hysteresis).
    penalty: HashMap<u64, u32>,
    threshold: u32,
    /// Lifetime promotion count (monotonic; survives flushes).
    compiled: u64,
    /// Indirect-branch target table keys (see [`JitCtx::ibt_keys`]).
    ibt_keys: Box<[u64; IBT_LEN]>,
    /// Indirect-branch target table values (host indirect-entry
    /// addresses; dangling after an arena reset, so flushes clear keys).
    ibt_vals: Box<[u64; IBT_LEN]>,
}

// Raw pointers into our own Arc-pinned allocations; the tier is plain
// owned data and never shares them.
unsafe impl Send for JitTier {}

impl Clone for JitTier {
    /// Cloning a core does not clone resident host code: the clone keeps
    /// the tier policy and starts cold, the same way a cloned cache
    /// starts re-warming.
    fn clone(&self) -> Self {
        JitTier {
            threshold: self.threshold,
            ..JitTier::new()
        }
    }
}

impl JitTier {
    /// An empty tier.
    pub(crate) fn new() -> Self {
        JitTier {
            arena: None,
            broken: false,
            traces: Vec::new(),
            map: HashMap::new(),
            stamps: Vec::new(),
            block_ptrs: Vec::new(),
            heat: HashMap::new(),
            penalty: HashMap::new(),
            threshold: DEFAULT_THRESHOLD,
            compiled: 0,
            ibt_keys: Box::new([u64::MAX; IBT_LEN]),
            ibt_vals: Box::new([0; IBT_LEN]),
        }
    }

    /// Publishes `pc -> indirect-entry address` in the IBT (evicting any
    /// colliding slot — direct-mapped).
    fn ibt_insert(&mut self, pc: u64, addr: u64) {
        let s = ibt_slot(pc);
        self.ibt_keys[s] = pc;
        self.ibt_vals[s] = addr;
    }

    /// Removes `pc` from the IBT if its slot still belongs to it.
    fn ibt_remove(&mut self, pc: u64) {
        let s = ibt_slot(pc);
        if self.ibt_keys[s] == pc {
            self.ibt_keys[s] = u64::MAX;
        }
    }

    /// Drops every resident trace and reinstalls the shared epilogue.
    /// Tiering (heat/penalty) state survives; [`JitTier::reset`] wipes it.
    fn flush_all(&mut self) {
        self.traces.clear();
        self.map.clear();
        self.stamps.clear();
        self.block_ptrs.clear();
        // Every IBT value dangles once the arena resets.
        self.ibt_keys.fill(u64::MAX);
        if let Some(arena) = self.arena.as_mut() {
            arena.reset();
            let epi = epilogue_code();
            let off = arena.with_writable(|w| w.alloc(&epi));
            assert_eq!(off, Some(0), "shared epilogue must sit at arena offset 0");
        }
    }

    /// Full tier reset: traces *and* tiering policy state. Mode switches
    /// go through here so promotion state never carries across.
    pub(crate) fn reset(&mut self) {
        self.flush_all();
        self.heat.clear();
        self.penalty.clear();
    }

    /// Maps the executable arena on first use. `false` means the host
    /// cannot run this tier (no executable pages); the refusal is
    /// remembered and never retried.
    fn ensure_arena(&mut self) -> bool {
        if self.arena.is_some() {
            return true;
        }
        if self.broken || !jit_available() {
            return false;
        }
        match Arena::new(ARENA_LEN) {
            Some(arena) => {
                self.arena = Some(arena);
                self.flush_all();
                true
            }
            None => {
                self.broken = true;
                false
            }
        }
    }

    /// Copies compiled code into the arena. A full arena flushes every
    /// trace and retries once (a single trace always fits a fresh arena).
    fn arena_alloc(&mut self, code: &[u8]) -> Option<usize> {
        let arena = self.arena.as_mut()?;
        if let Some(off) = arena.with_writable(|w| w.alloc(code)) {
            return Some(off);
        }
        self.flush_all();
        self.arena.as_mut()?.with_writable(|w| w.alloc(code))
    }

    /// The promotion threshold for `pc`, demotion hysteresis included.
    fn effective_threshold(&self, pc: u64) -> u32 {
        self.threshold
            .saturating_mul(self.penalty.get(&pc).copied().unwrap_or(1))
    }

    /// Severs trace `t`: poisons its stamp, unmaps it from the promotion
    /// table, and restores every patched predecessor exit slot to its
    /// original bytes (one W^X toggle for the whole batch).
    fn sever(&mut self, t: usize) {
        if self.traces[t].dead {
            return;
        }
        let in_edges = std::mem::take(&mut self.traces[t].in_edges);
        let mut restores: Vec<(usize, [u8; EXIT_SLOT_LEN])> = Vec::new();
        for (pred, e) in in_edges {
            let p = &mut self.traces[pred as usize];
            let e = e as usize;
            if p.dead || !p.patched[e] {
                continue;
            }
            let slot = p.exits[e].expect("patched edge always has a slot");
            let mut orig = [0u8; EXIT_SLOT_LEN];
            orig.copy_from_slice(&p.code[slot.off..slot.off + EXIT_SLOT_LEN]);
            restores.push((p.code_off + slot.off, orig));
            p.patched[e] = false;
        }
        if !restores.is_empty() {
            let arena = self.arena.as_mut().expect("severing requires an arena");
            arena.with_writable(|w| {
                for (off, bytes) in &restores {
                    w.write_at(*off, bytes);
                }
            });
        }
        let tr = &mut self.traces[t];
        tr.dead = true;
        let pc = tr.pc;
        self.stamps[t] = u64::MAX;
        self.map.remove(&pc);
        self.ibt_remove(pc);
    }

    /// [`JitTier::sever`] plus demotion hysteresis: the pc's re-promotion
    /// threshold doubles and its heat restarts from zero, so alternating
    /// SMC workloads settle in the engine tier instead of ping-ponging.
    fn sever_with_penalty(&mut self, t: usize) {
        let pc = self.traces[t].pc;
        self.sever(t);
        let p = self.penalty.entry(pc).or_insert(1);
        *p = p.saturating_mul(2).min(MAX_PENALTY);
        self.heat.insert(pc, 0);
    }

    /// The unpatched compiled bytes for the live trace at `pc`
    /// (introspection for the SMC byte-identity regressions).
    pub(crate) fn trace_bytes(&self, pc: u64) -> Option<Vec<u8>> {
        let t = *self.map.get(&pc)? as usize;
        Some(self.traces[t].code.clone())
    }

    /// The dispatcher-entry count accumulated toward promoting `pc`.
    pub(crate) fn hotness(&self, pc: u64) -> u32 {
        self.heat.get(&pc).copied().unwrap_or(0)
    }

    /// Lifetime promotion count.
    pub(crate) fn compiled(&self) -> u64 {
        self.compiled
    }

    /// Overrides the base promotion threshold (tests and benches).
    pub(crate) fn set_threshold(&mut self, threshold: u32) {
        self.threshold = threshold;
    }
}

/// Attempts to run the block at `pc` through the JIT tier. `None` means
/// the tier declines (cold, host unsupported, stale trace severed, or
/// not enough budget to fund the body) and the caller executes through
/// the engine instead. `Some` carries the full engine-equivalent result.
pub(crate) fn try_enter(
    cpu: &mut Cpu,
    mem: &mut Memory,
    budget: u64,
    block: &Arc<Block>,
    pc: u64,
) -> Option<Result<u64, Trap>> {
    if !cpu.jit.ensure_arena() {
        return None;
    }
    let gen = mem.code_generation();
    let t = match cpu.jit.map.get(&pc).copied() {
        Some(t) => {
            let t = t as usize;
            if cpu.jit.stamps[t] == gen {
                t
            } else if mem.code_fingerprint(pc) == Some(cpu.jit.traces[t].fp) {
                // Executable bytes changed somewhere else; this trace's
                // region is untouched, so restamp — validate_link's slow
                // path, verbatim.
                cpu.jit.stamps[t] = gen;
                t
            } else {
                cpu.jit.sever_with_penalty(t);
                return None;
            }
        }
        None => {
            let threshold = cpu.jit.effective_threshold(pc);
            let heat = cpu.jit.heat.entry(pc).or_insert(0);
            *heat = heat.saturating_add(1);
            if *heat < threshold {
                return None;
            }
            let fp = mem.code_fingerprint(pc)?;
            promote(cpu, block, pc, fp, gen)?
        }
    };
    if budget < block.ops.len() as u64 {
        // Not enough fuel to fund the whole body; the engine's partial
        // execution handles the tail exactly.
        return None;
    }
    Some(execute(cpu, mem, budget, t))
}

/// Compiles `block` and installs the trace. `None` only when the arena
/// cannot hold it even after a flush.
fn promote(cpu: &mut Cpu, block: &Arc<Block>, pc: u64, fp: (u64, u64), gen: u64) -> Option<usize> {
    let compiled = compile(&block.ops, pc);
    let bytes = compiled.code.len() as u64;
    let tier = &mut cpu.jit;
    // Allocate before indexing: a full arena flushes every trace, so the
    // new index is only valid afterwards.
    let code_off = tier.arena_alloc(&compiled.code)?;
    let t = tier.traces.len();
    // Stamp the trace index into the indirect entry's placeholder (the
    // stored `code` keeps the placeholder, preserving the byte-identity
    // witness), then publish the entry for IBT probes.
    let ind_addr = {
        let arena = tier.arena.as_mut().expect("promotion requires an arena");
        arena.with_writable(|w| {
            w.write_at(code_off + compiled.ind + 2, &(t as u32).to_le_bytes());
        });
        arena.addr(code_off + compiled.ind) as u64
    };
    tier.traces.push(Trace {
        pc,
        fp,
        block: Arc::clone(block),
        code: compiled.code,
        code_off,
        chain: compiled.chain,
        ind: compiled.ind,
        exits: compiled.exits,
        patched: [false; 2],
        in_edges: Vec::new(),
        dead: false,
    });
    tier.stamps.push(gen);
    tier.block_ptrs.push(Arc::as_ptr(&tier.traces[t].block));
    tier.map.insert(pc, t as u32);
    tier.heat.remove(&pc);
    tier.ibt_insert(pc, ind_addr);
    tier.compiled += 1;
    if cpu.tracer.is_enabled() {
        cpu.tracer
            .record(cpu.stats.cycles, TraceEvent::TierPromote { pc, bytes });
        cpu.tracer.count("emu.blocks_jitted", 1);
    }
    Some(t)
}

/// Runs trace `t` (and everything it chains into) until an exit, then
/// reconciles the context back into the core. Returns the instructions
/// retired, exactly as `exec_lowered` would have.
fn execute(cpu: &mut Cpu, mem: &mut Memory, budget: u64, t: usize) -> Result<u64, Trap> {
    let cpu_ptr: *mut Cpu = cpu;
    let mem_ptr: *mut Memory = mem;
    let pc = cpu.hart.pc;
    let xregs = cpu.hart.x_ptr();
    let fregs = cpu.hart.f_ptr();
    let gen = mem.code_generation();
    let tier = &cpu.jit;
    let arena = tier.arena.as_ref().expect("executing without an arena");
    let entry = arena.addr(tier.traces[t].code_off);
    let epilogue = arena.addr(0) as u64;
    let mut ctx = JitCtx {
        pc,
        fuel: budget,
        d_cycles: 0,
        d_loads: 0,
        d_stores: 0,
        d_branches: 0,
        d_indirect: 0,
        d_jitted: 0,
        cur_gen: gen,
        cur_trace: t as u64,
        exit_from: t as u64,
        stamps: tier.stamps.as_ptr(),
        blocks: tier.block_ptrs.as_ptr(),
        xregs,
        ld_base: std::ptr::null_mut(),
        ld_start: 0,
        ld_lim: [0; 4],
        st_base: std::ptr::null_mut(),
        st_start: 0,
        st_lim: [0; 4],
        h_load: jit_load as *const () as usize as u64,
        h_store: jit_store as *const () as usize as u64,
        h_fload: jit_fload as *const () as usize as u64,
        h_fstore: jit_fstore as *const () as usize as u64,
        h_generic: jit_generic as *const () as usize as u64,
        h_opimm: jit_opimm as *const () as usize as u64,
        h_op: jit_op as *const () as usize as u64,
        h_unary: jit_unary as *const () as usize as u64,
        epilogue,
        fregs,
        ibt_keys: tier.ibt_keys.as_ptr(),
        ibt_vals: tier.ibt_vals.as_ptr(),
        fuel_anchor: budget,
        cpu: cpu_ptr,
        mem: mem_ptr,
        trap: None,
    };
    // SAFETY: `entry` is the external entry of a live, stamp-validated
    // trace in the sealed arena; the context's raw pointers (cpu, mem,
    // xregs, stamp/block tables) all outlive the call, and nothing else
    // touches the core or memory while guest code runs — helpers are the
    // only reentry and they go through the context.
    let status = unsafe { call_entry(entry, (&mut ctx as *mut JitCtx).cast(), t as u32) } as u32;
    let retired = budget - ctx.fuel;
    drain(&mut ctx, cpu);
    cpu.cache.stats.jit_execs += 1;
    if cpu.tracer.is_enabled() {
        cpu.tracer.count("emu.jit_exits", 1);
    }
    match status {
        ST_TRAP => Err(ctx.trap.take().expect("trap exit without a recorded trap")),
        ST_FALL | ST_TAKEN => {
            try_patch(cpu, mem, ctx.exit_from as usize, status);
            Ok(retired)
        }
        ST_REVAL => {
            revalidate(cpu, mem, ctx.exit_from as usize);
            Ok(retired)
        }
        ST_INDIRECT => {
            // An IBT miss: either a cold target or a direct-mapped
            // eviction. If the target is resident and current, republish
            // it so the next transfer to it stays in-arena — without
            // this, two colliding return sites would demote each other
            // to dispatcher round trips forever.
            let tier = &mut cpu.jit;
            if let Some(&s) = tier.map.get(&ctx.pc) {
                let s = s as usize;
                if !tier.traces[s].dead && tier.stamps[s] == mem.code_generation() {
                    let tr = &tier.traces[s];
                    let addr = {
                        let arena = tier.arena.as_ref().expect("live trace without an arena");
                        arena.addr(tr.code_off + tr.ind) as u64
                    };
                    tier.ibt_insert(ctx.pc, addr);
                }
            }
            Ok(retired)
        }
        ST_BAIL | ST_BUDGET => Ok(retired),
        _ => unreachable!("unknown jit exit status {status}"),
    }
}

/// After a Fall/Taken exit, compiles the control edge into a direct jump:
/// the exit slot of `from` becomes `mov r14d, succ; jmp succ.chain`. The
/// chain entry re-checks stamp and fuel on every entry, so patching is a
/// pure optimization — it can never extend a stale trace's life.
fn try_patch(cpu: &mut Cpu, mem: &Memory, from: usize, status: u32) {
    let tier = &mut cpu.jit;
    let e = usize::from(status == ST_TAKEN);
    if tier.traces[from].dead || tier.traces[from].patched[e] {
        return;
    }
    let Some(slot) = tier.traces[from].exits[e] else {
        return;
    };
    let Some(&succ) = tier.map.get(&slot.target) else {
        return;
    };
    let succ = succ as usize;
    if tier.traces[succ].dead || tier.stamps[succ] != mem.code_generation() {
        return;
    }
    let slot_off = tier.traces[from].code_off + slot.off;
    let succ_entry = tier.traces[succ].code_off + tier.traces[succ].chain;
    let arena = tier.arena.as_mut().expect("patching requires an arena");
    let rel = arena.addr(succ_entry) as i64 - (arena.addr(slot_off) + EXIT_PATCH_JMP_END) as i64;
    let rel = i32::try_from(rel).expect("arena spans never exceed rel32");
    let bytes = patched_exit_bytes(succ as u32, rel);
    arena.with_writable(|w| w.write_at(slot_off, &bytes));
    tier.traces[from].patched[e] = true;
    tier.traces[succ].in_edges.push((from as u32, e as u8));
}

/// Handles a chain-entry stamp miss on trace `t`: restamp when its region
/// is untouched (some other region changed), sever with the demotion
/// penalty otherwise — `Cpu::validate_link`'s rules for compiled traces.
fn revalidate(cpu: &mut Cpu, mem: &mut Memory, t: usize) {
    let tier = &mut cpu.jit;
    if tier.traces[t].dead {
        return;
    }
    if mem.code_fingerprint(tier.traces[t].pc) == Some(tier.traces[t].fp) {
        tier.stamps[t] = mem.code_generation();
    } else {
        tier.sever_with_penalty(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_isa::XReg;

    #[test]
    fn epilogue_indirection_uses_disp32() {
        // The fixed 16-byte exit-slot layout in `compile` depends on
        // `jmp qword [r12 + EPILOGUE]` taking the 8-byte disp32 form.
        const { assert!(off::EPILOGUE > 127) };
    }

    #[test]
    fn ctx_layout_matches_emitted_offsets() {
        assert_eq!(off::PC, 0);
        assert_eq!(off::FUEL, 8);
        assert_eq!(off::LD_LIM, off::LD_START + 8);
        assert_eq!(off::ST_BASE, off::LD_LIM + 32);
        assert_eq!(
            off::EPILOGUE as usize,
            std::mem::offset_of!(JitCtx, epilogue)
        );
    }

    #[test]
    fn compilation_is_deterministic() {
        let ops = vec![
            Uop {
                op: MicroOp::Addi {
                    rd: XReg::T0,
                    rs1: XReg::T0,
                    imm: 1,
                },
                len: 4,
                cost: 1,
                is_store: false,
            },
            Uop {
                op: MicroOp::Jal {
                    rd: XReg::ZERO,
                    offset: -4,
                },
                len: 4,
                cost: 2,
                is_store: false,
            },
        ];
        let a = compile(&ops, 0x1_0000);
        let b = compile(&ops, 0x1_0000);
        assert_eq!(a.code, b.code);
        assert_eq!(a.chain, b.chain);
        assert!(!a.code.is_empty());
    }
}
