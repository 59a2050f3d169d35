//! Cooperative hart fibers: resumable, fuel-sliced execution units.
//!
//! A [`HartFiber`] bundles one guest hart's complete execution state — its
//! [`Cpu`] (architectural registers, decode cache, engine and JIT tiers,
//! statistics) and its [`Memory`] — behind a [`HartFiber::resume`] call
//! that runs at most a fuel slice before yielding. No host stack is
//! switched: `Cpu::run` is already a resumable state machine that stops
//! only at instruction boundaries, so "suspending a fiber" is simply
//! returning from `resume`, and "migrating it to another worker" is moving
//! the `HartFiber` value (the `Cpu` is `Send`; the JIT arena and tier are
//! thread-confined *per resume*, never shared).
//!
//! ## The yield-point contract
//!
//! Every execution tier — the reference interpreter, the decode-cache
//! interpreter, the micro-op engine, and the host-code JIT — drains its
//! batched counters (instret, cycles, class counters; the JIT's fuel
//! anchor) into `Cpu.stats` before `Cpu::run` returns, whatever the stop
//! reason. Consequently a fiber's observable state at a yield is exactly
//! the state an unsliced run would have at the same retired-instruction
//! count, and a run chopped into 1-instruction slices — with the fiber
//! hopped across host threads between slices — is bit-identical to an
//! unsliced run. `tests/differential.rs` gates this for all four modes;
//! the many-hart kernel (`chimera_kernel::ManyHartKernel`) relies on it
//! for worker-count-invariant scheduling.

use crate::cpu::{Cpu, Stop, Trap};
use crate::mem::Memory;

/// Why a fiber yielded back to its scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiberYield {
    /// The fuel slice was consumed; the fiber is runnable and can be
    /// resumed — on any host worker — to continue bit-identically.
    FuelExhausted,
    /// A trap was delivered (syscall, fault, illegal instruction). The
    /// scheduler's kernel decides whether the fiber resumes, blocks,
    /// migrates or terminates.
    Trap(Trap),
}

/// One guest hart as a cooperative fiber: owned CPU + memory, resumed in
/// fuel slices.
#[derive(Debug)]
pub struct HartFiber {
    /// The hart's id in its scheduler (stamped into its trace stream).
    pub hart_id: u64,
    /// The hart's CPU: architectural state plus all execution tiers.
    pub cpu: Cpu,
    /// The hart's private memory image.
    pub mem: Memory,
}

impl HartFiber {
    /// Wraps an already prepared CPU + memory pair.
    pub fn new(hart_id: u64, cpu: Cpu, mem: Memory) -> HartFiber {
        HartFiber { hart_id, cpu, mem }
    }

    /// Runs at most `fuel` instructions, yielding at fuel exhaustion or
    /// the first trap. A zero budget yields immediately.
    pub fn resume(&mut self, fuel: u64) -> FiberYield {
        match self.cpu.run(&mut self.mem, fuel) {
            Stop::OutOfFuel => FiberYield::FuelExhausted,
            Stop::Trap(t) => FiberYield::Trap(t),
        }
    }

    /// Instructions retired over the fiber's lifetime.
    pub fn retired(&self) -> u64 {
        self.cpu.stats.instret
    }

    /// A digest of the hart's full architectural state (see
    /// [`crate::Hart::state_hash`]) — the per-hart checksum the many-hart
    /// determinism gates compare across host worker counts.
    pub fn state_hash(&self) -> u64 {
        self.cpu.hart.state_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{boot, run_binary, RunConfig};
    use chimera_isa::XReg;
    use chimera_obj::{assemble, AsmOptions, Binary};

    fn boot_fiber(hart_id: u64, bin: &Binary) -> HartFiber {
        let (cpu, mem) = boot(bin, bin.profile);
        HartFiber::new(hart_id, cpu, mem)
    }

    fn counting_binary(n: u64) -> Binary {
        assemble(
            &format!(
                "
                _start:
                    li a0, 0
                    li t0, {n}
                loop:
                    addi a0, a0, 1
                    addi t0, t0, -1
                    bnez t0, loop
                    li a7, 93
                    ecall
                "
            ),
            AsmOptions::default(),
        )
        .expect("assembles")
    }

    #[test]
    fn fiber_slices_match_one_shot_run() {
        let bin = counting_binary(500);
        let oneshot = run_binary(&bin, 1 << 20, RunConfig::default()).expect("one-shot run");

        let mut fiber = boot_fiber(7, &bin);
        let mut yields = 0u64;
        let trap = loop {
            match fiber.resume(17) {
                FiberYield::FuelExhausted => yields += 1,
                FiberYield::Trap(t) => break t,
            }
        };
        assert!(matches!(trap, Trap::Ecall { .. }));
        assert!(yields > 10, "a 17-instruction slice must yield many times");
        assert_eq!(fiber.cpu.hart.get_x(XReg::A0), 500);
        assert_eq!(fiber.cpu.stats, oneshot.stats);
        assert_eq!(fiber.cpu.hart.xregs(), oneshot.xregs);
    }

    #[test]
    fn fiber_resumes_across_host_threads() {
        let bin = counting_binary(300);
        let mut fiber = boot_fiber(0, &bin);
        // Hop the fiber to a fresh OS thread for every slice.
        let trap = loop {
            let (f, y) = std::thread::spawn(move || {
                let mut f = fiber;
                let y = f.resume(64);
                (f, y)
            })
            .join()
            .expect("worker panicked");
            fiber = f;
            match y {
                FiberYield::FuelExhausted => continue,
                FiberYield::Trap(t) => break t,
            }
        };
        assert!(matches!(trap, Trap::Ecall { .. }));
        assert_eq!(fiber.cpu.hart.get_x(XReg::A0), 300);
        let reference = run_binary(&bin, 1 << 20, RunConfig::default()).expect("reference run");
        assert_eq!(fiber.cpu.stats, reference.stats);
    }

    #[test]
    fn zero_fuel_resume_is_inert() {
        let bin = counting_binary(5);
        let mut fiber = boot_fiber(1, &bin);
        let before = fiber.state_hash();
        assert_eq!(fiber.resume(0), FiberYield::FuelExhausted);
        assert_eq!(fiber.retired(), 0);
        assert_eq!(fiber.state_hash(), before);
    }
}
