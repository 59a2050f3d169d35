//! A bare-metal runner: loads a [`Binary`], sets up the psABI environment
//! (`sp`, `gp`), and services the minimal syscall set (`exit`, `write`)
//! directly — no simulated kernel involved.
//!
//! This is the harness unit/property tests use to execute programs in one
//! call; the full Chimera runtime (scheduling, MMViews, fault handling)
//! lives in `chimera-kernel` and drives [`Cpu`] itself.

use crate::cost::ExecStats;
use crate::cpu::{Cpu, ExecMode, Stop, Trap};
use crate::mem::Memory;
use chimera_isa::{ExtSet, XReg};
use chimera_obj::{Binary, STACK_TOP};
use chimera_trace::Tracer;

/// Syscall numbers (Linux RV64 numbers for familiarity), plus the
/// Chimera hart-control calls.
pub mod sys {
    use crate::cpu::Cpu;
    use crate::mem::Memory;
    use chimera_isa::XReg;

    /// `exit(code)`.
    pub const EXIT: u64 = 93;
    /// `write(fd, buf, len)`.
    pub const WRITE: u64 = 64;

    // Hart-control calls, serviced only by the many-hart event kernel
    // (`chimera_kernel::ManyHartKernel`). The bare runner reports them as
    // `BadSyscall` and the single-hart kernel runner as `Fatal`; their
    // numbers sit far outside the Linux table so they can never collide.

    /// `hartid() -> a0`: the calling hart's id.
    pub const HART_ID: u64 = 0x7a00;
    /// `wfi()`: suspend until an event (IPI, timer, wakeup) arrives; a
    /// latched pending event makes it return immediately.
    pub const WFI: u64 = 0x7a01;
    /// `ipi(target)`: send an inter-processor wakeup to hart `a0`.
    pub const IPI: u64 = 0x7a02;
    /// `set_timer(delta)`: arm a one-shot timer `a0` scheduler slots
    /// ahead of the current logical time.
    pub const SET_TIMER: u64 = 0x7a03;

    /// Services `write(fd, buf, len)` for the bare runner and the kernel
    /// alike: appends the guest buffer to `out` and returns `len` in `a0`,
    /// or `-EFAULT` (`u64::MAX`) when the buffer is not mapped. Leaves
    /// `pc` at the `ecall`.
    pub fn write(cpu: &mut Cpu, mem: &mut Memory, out: &mut Vec<u8>) {
        let len = cpu.hart.get_x(XReg::A2);
        let ret = match mem.peek(cpu.hart.get_x(XReg::A1), len as usize) {
            Some(bytes) => {
                out.extend_from_slice(&bytes);
                len
            }
            None => u64::MAX,
        };
        cpu.hart.set_x(XReg::A0, ret);
    }
}

/// The outcome of a completed bare run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// The code passed to `exit`.
    pub exit_code: i64,
    /// Bytes written to fd 1/2.
    pub stdout: Vec<u8>,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Final architectural state snapshot of the integer registers
    /// (for differential testing).
    pub xregs: [u64; 32],
}

/// Errors from a bare run: any trap other than a well-formed syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program trapped.
    Trap(Trap),
    /// The fuel budget was exhausted before `exit`.
    OutOfFuel,
    /// An `ecall` with an unknown syscall number.
    BadSyscall {
        /// The unknown number (register `a7`).
        number: u64,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Trap(t) => write!(f, "trap: {t}"),
            RunError::OutOfFuel => write!(f, "out of fuel"),
            RunError::BadSyscall { number } => write!(f, "bad syscall {number}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A fresh core in the psABI boot state: `pc = entry`, `sp` just under
/// [`STACK_TOP`] (the stack always ends there, whatever its size), and
/// `gp` pointing into the data segment. Every boot path — eager, pooled,
/// kernel-loaded — starts its hart here.
pub fn boot_cpu(profile: ExtSet, entry: u64, gp: u64) -> Cpu {
    let mut cpu = Cpu::new(profile);
    cpu.hart.pc = entry;
    cpu.hart.set_x(XReg::SP, STACK_TOP - 64);
    cpu.hart.set_x(XReg::GP, gp);
    cpu
}

/// Prepares a CPU + memory pair for a binary: maps sections and the stack
/// ([`chimera_obj::DEFAULT_STACK_SIZE`], committed eagerly) and boots the
/// CPU at the entry point (see [`boot_cpu`]).
pub fn boot(binary: &Binary, profile: ExtSet) -> (Cpu, Memory) {
    (
        boot_cpu(profile, binary.entry, binary.gp),
        Memory::load(binary),
    )
}

/// How [`run_binary`] runs a binary. The default runs it on its own
/// profile in the [`ExecMode::Engine`] tier, untraced.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// The core's profile; `None` means the binary's own. A profile that
    /// lacks extensions the binary uses makes the run err with an
    /// illegal-instruction trap, as FAM would.
    pub profile: Option<ExtSet>,
    /// The execution front end. All modes are bit-identical in results;
    /// they differ only in wall-clock speed.
    pub mode: ExecMode,
    /// A trace handle attached to the CPU. Tracing is transparent: results
    /// are bit-identical to the untraced run.
    pub tracer: Tracer,
}

impl RunConfig {
    /// The default configuration on a core with `profile`.
    pub fn on(profile: ExtSet) -> RunConfig {
        RunConfig {
            profile: Some(profile),
            ..RunConfig::default()
        }
    }
}

/// Runs a binary to `exit` with a fuel budget, as configured by `cfg`.
pub fn run_binary(binary: &Binary, fuel: u64, cfg: RunConfig) -> Result<RunResult, RunError> {
    let (mut cpu, mut mem) = boot(binary, cfg.profile.unwrap_or(binary.profile));
    cpu.set_mode(cfg.mode);
    cpu.tracer = cfg.tracer;
    run_cpu(&mut cpu, &mut mem, fuel)
}

/// Drives a prepared CPU until `exit`, servicing `write` syscalls.
pub fn run_cpu(cpu: &mut Cpu, mem: &mut Memory, fuel: u64) -> Result<RunResult, RunError> {
    let mut run = BareRun::new();
    match run.resume(cpu, mem, fuel) {
        BareYield::Exited(result) => Ok(*result),
        BareYield::SliceExhausted => Err(RunError::OutOfFuel),
        BareYield::Failed(err) => Err(err),
    }
}

/// Why [`BareRun::resume`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BareYield {
    /// The program called `exit`; the run is complete. Boxed: the result
    /// carries the full register file, and the common yield is the slim
    /// `SliceExhausted`.
    Exited(Box<RunResult>),
    /// The fuel slice was exhausted mid-program. The run is suspended at
    /// an instruction boundary with all batched counters drained; resume
    /// with more fuel — from any host thread — to continue bit-identically.
    SliceExhausted,
    /// The run failed (non-syscall trap or unknown syscall number). The
    /// state is final; resuming again is a caller bug.
    Failed(RunError),
}

/// Resumable bare-run state: the syscall-servicing loop of [`run_cpu`]
/// with the fuel budget split into caller-sized slices.
///
/// The CPU and memory are passed to each [`BareRun::resume`] call rather
/// than owned, so a fiber scheduler can interleave many harts' slices and
/// hand the triple `(BareRun, Cpu, Memory)` to whichever host worker picks
/// the hart up next. Slicing is transparent: any slicing of a run — down
/// to one instruction per slice, across host threads — observes exactly
/// like one unsliced `run_cpu` call (the differential suite's yield-point
/// transparency test asserts this for all four execution modes).
#[derive(Debug, Clone, Default)]
pub struct BareRun {
    stdout: Vec<u8>,
}

impl BareRun {
    /// A fresh run with no output yet.
    pub fn new() -> BareRun {
        BareRun::default()
    }

    /// Bytes written to fd 1/2 so far.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Executes up to `fuel` further instructions, servicing `write`
    /// syscalls, until `exit`, slice exhaustion, or failure.
    pub fn resume(&mut self, cpu: &mut Cpu, mem: &mut Memory, fuel: u64) -> BareYield {
        let start = cpu.stats.instret;
        loop {
            let used = cpu.stats.instret - start;
            if used >= fuel {
                return BareYield::SliceExhausted;
            }
            match cpu.run(mem, fuel - used) {
                Stop::OutOfFuel => return BareYield::SliceExhausted,
                Stop::Trap(Trap::Ecall { pc }) => {
                    let number = cpu.hart.get_x(XReg::A7);
                    match number {
                        sys::EXIT => {
                            return BareYield::Exited(Box::new(RunResult {
                                exit_code: cpu.hart.get_x(XReg::A0) as i64,
                                stdout: std::mem::take(&mut self.stdout),
                                stats: cpu.stats,
                                xregs: cpu.hart.xregs(),
                            }));
                        }
                        sys::WRITE => {
                            sys::write(cpu, mem, &mut self.stdout);
                            cpu.hart.pc = pc + 4;
                        }
                        _ => return BareYield::Failed(RunError::BadSyscall { number }),
                    }
                }
                Stop::Trap(t) => return BareYield::Failed(RunError::Trap(t)),
            }
        }
    }
}
