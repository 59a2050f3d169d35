//! `rewrite_cold` and `exec_hot`: single-hart guests. Each guest is one
//! SPEC-like RV64GCV binary handed in whole, taken through
//! `prepare_process` (CHBP downgrade for RV64GC cores) → `Process::load`
//! → `KernelRunner::run` to exit — a closed loop from one client.

use crate::check::{judge, Reconciliation, SelfChecks, SimRecord, Tally};
use crate::report::peak_rss_mib;
use crate::stats::{derive_seed, geomean, median, percentile, shuffled};
use crate::{
    chbp_engine, image_bytes, ns_since, MetricSet, PassStats, END_TO_END, FUEL, PER_LAYER,
};
use chimera::emu::{CacheStats, ExecMode, RunResult};
use chimera::isa::{decode, encoded_len, Ext, ExtSet};
use chimera::kernel::{KernelRunner, Process, RunOutcome, RuntimeTables, Variant};
use chimera::obj::Binary;
use chimera::rewrite::{IdentityEngine, SharedVariantCache};
use chimera::trace::{HartRings, TraceEvent, Tracer};
use chimera::workloads::speclike::{generate, BenchProfile, GenOptions, SPEC_PROFILES};
use chimera::{prepare_process, InputVersion, SystemKind, TaskBinaries};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One input: a SPEC-like profile generated at a fixed `.text` size, with
/// its main loop iterated until the reference run retires about
/// `ref_minst` million instructions (at least one iteration).
pub struct Spec {
    /// `SPEC_PROFILES` name.
    pub profile: &'static str,
    /// Target `.text` size in KiB.
    pub text_kib: f64,
    /// Target reference instruction count, in millions.
    pub ref_minst: f64,
    /// The vector shape set-up draws the input towards (see
    /// [`Workload::candidates`]).
    pub shape: Shape,
}

/// The vector shape an input is drawn towards. Both are properties of the
/// unmodified input, never of the rewriter's output, so a change to the
/// rewriter cannot change which inputs are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The dynamic vector share (vector instructions ÷ instructions the
    /// reference run retires) nearest this value. `rewrite_cold` uses the
    /// median share of the profile's draws at that size, measured over
    /// 30–40 generator seeds (README.md), so it keeps a typical draw.
    DynamicShare(f64),
    /// Dynamic and static vector shares (vector instructions ÷
    /// instructions in `.text`) both nearest the profile's own `ext_frac`
    /// (the paper's Table 3 share): the candidate whose larger relative
    /// error is smallest. `exec_hot` uses it, so `cactuBSSN_r` stays
    /// several times as vector-heavy as `perlbench_r`, as in the paper.
    ProfileShare,
}

/// A single-hart workload: its inputs and the execution tier.
pub struct Workload {
    /// The inputs of one cycle of the closed loop. An odd count: cycles
    /// are whole, so the median guest latency then falls among one
    /// input's samples instead of between two inputs' latencies.
    pub specs: &'static [Spec],
    /// Candidate binaries generated per input. The generator places
    /// vector loops by chance, so at a few KiB of code one generator seed
    /// gives a profile no executed vector code and another a third of its
    /// instructions. Set-up keeps the candidate nearest the spec's
    /// [`Shape`], so every workload seed yields inputs of the same shape.
    pub candidates: usize,
    /// Execution tier of the guest runs.
    pub mode: ExecMode,
}

/// Large code, little work: analysis and the rewrite passes dominate.
pub const REWRITE_COLD: Workload = Workload {
    specs: &[
        cold("gcc_r", 1100.0, 0.0125),
        cold("blender_r", 800.0, 0.031),
        cold("xalancbmk_r", 500.0, 0.041),
        cold("omnetpp_r", 250.0, 0.037),
        cold("perlbench_r", 120.0, 0.026),
    ],
    candidates: 4,
    mode: ExecMode::Engine,
};

/// One main-loop iteration, drawn towards a typical dynamic vector share.
const fn cold(profile: &'static str, text_kib: f64, median_share: f64) -> Spec {
    Spec {
        profile,
        text_kib,
        ref_minst: 0.0,
        shape: Shape::DynamicShare(median_share),
    }
}

/// Small code, long runs: execution of the downgraded code dominates.
pub const EXEC_HOT: Workload = Workload {
    specs: &[
        hot("perlbench_r"),
        hot("cactuBSSN_r"),
        hot("imagick_r"),
        hot("perlbench_r"),
        hot("cactuBSSN_r"),
        hot("imagick_r"),
        hot("perlbench_r"),
        hot("cactuBSSN_r"),
        hot("imagick_r"),
    ],
    candidates: 48,
    mode: ExecMode::Jit,
};

const fn hot(profile: &'static str) -> Spec {
    Spec {
        profile,
        text_kib: 12.0,
        ref_minst: 20.0,
        shape: Shape::ProfileShare,
    }
}

/// One generated input with its reference result.
pub struct Input {
    /// Profile name.
    pub name: &'static str,
    /// The RV64GCV binary, as handed to `prepare_process`.
    pub task: TaskBinaries,
    /// Input `.text` (executable) bytes.
    pub text_bytes: u64,
    /// Input image bytes (every section).
    pub image_bytes: u64,
    /// Exit code of the unmodified input on an RV64GCV core, Engine tier.
    pub ref_exit: i64,
    /// Cost-model cycles of that reference run.
    pub ref_cycles: u64,
    /// Instructions that reference run retired.
    pub ref_instret: u64,
    /// Vector instructions among them.
    pub ref_vector_insts: u64,
    /// Vector instructions ÷ instructions in `.text`.
    pub static_vector_share: f64,
}

impl Input {
    fn binary(&self) -> &Binary {
        self.task
            .ext_version
            .as_ref()
            .expect("inputs are ext versions")
    }
}

fn generate_input(profile: &BenchProfile, text_kib: f64, iters: u64, seed: u64) -> Binary {
    generate(
        profile,
        GenOptions {
            size_scale: text_kib / (profile.code_mb * 1024.0),
            // The generator iterates `max(1, work * work_scale)` times,
            // truncated: aim between two integers.
            work_scale: (iters as f64 + 0.5) / f64::from(profile.work),
            seed,
        },
    )
}

/// Runs the unmodified input on an RV64GCV core in the Engine tier.
fn reference(bin: &Binary, name: &str) -> Result<RunResult, String> {
    let (mut cpu, mut mem) = chimera::emu::boot(bin, ExtSet::RV64GCV);
    cpu.set_mode(ExecMode::Engine);
    chimera::emu::run_cpu(&mut cpu, &mut mem, FUEL)
        .map_err(|e| format!("reference run of {name}: {e:?}"))
}

/// Vector instructions ÷ instructions in the executable sections, by a
/// linear sweep (the generated programs keep their tables outside
/// `.text`).
fn static_vector_share(bin: &Binary) -> f64 {
    let (mut vector, mut all) = (0u64, 0u64);
    for sec in bin.sections.iter().filter(|s| s.perms.x) {
        let mut at = 0;
        while let Some(half) = sec.data.get(at..at + 2) {
            let len = usize::from(encoded_len(u16::from_le_bytes([half[0], half[1]])));
            if let Some(word) = sec.data.get(at..at + 4).filter(|_| len == 4) {
                let word = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
                if decode(word).is_ok_and(|d| d.inst.ext() == Some(Ext::V)) {
                    vector += 1;
                }
            }
            all += 1;
            at += len;
        }
    }
    vector as f64 / all.max(1) as f64
}

/// Vector instructions ÷ instructions retired by a reference run.
fn dynamic_vector_share(r: &RunResult) -> f64 {
    r.stats.vector_insts as f64 / r.stats.instret.max(1) as f64
}

/// How far a candidate is from the spec's [`Shape`], as a relative error.
fn shape_distance(spec: &Spec, profile: &BenchProfile, bin: &Binary, r: &RunResult) -> f64 {
    let error = |got: f64, want: f64| (got / want - 1.0).abs();
    match spec.shape {
        Shape::DynamicShare(want) => error(dynamic_vector_share(r), want),
        Shape::ProfileShare => error(dynamic_vector_share(r), profile.ext_frac)
            .max(error(static_vector_share(bin), profile.ext_frac)),
    }
}

/// Generates the inputs from `seed` (see [`Workload::candidates`]),
/// calibrates their iteration counts, runs each unmodified input on an
/// RV64GCV core in the Engine tier to fix its expected exit code, and
/// orders them by a seeded shuffle.
pub fn setup(w: &Workload, seed: u64) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for (n, spec) in w.specs.iter().enumerate() {
        let profile = SPEC_PROFILES
            .iter()
            .find(|p| p.name == spec.profile)
            .ok_or_else(|| format!("unknown profile {}", spec.profile))?;
        let mut best: Option<(f64, u64, Binary, RunResult)> = None;
        for k in 0..w.candidates {
            let gen_seed = derive_seed(seed, &format!("input{n}.{}#{k}", spec.profile));
            let bin = generate_input(profile, spec.text_kib, 1, gen_seed);
            let r = reference(&bin, spec.profile)?;
            let d = shape_distance(spec, profile, &bin, &r);
            if best.as_ref().is_none_or(|b| d < b.0) {
                best = Some((d, gen_seed, bin, r));
            }
        }
        let (_, gen_seed, mut binary, mut r) = best.ok_or("a workload needs candidates")?;
        let iters = (spec.ref_minst * 1e6 / r.stats.instret as f64)
            .round()
            .max(1.0) as u64;
        if iters > 1 {
            binary = generate_input(profile, spec.text_kib, iters, gen_seed);
            r = reference(&binary, spec.profile)?;
        }
        inputs.push(Input {
            name: spec.profile,
            text_bytes: binary.code_size(),
            image_bytes: image_bytes(&binary),
            ref_exit: r.exit_code,
            ref_cycles: r.stats.cycles,
            ref_instret: r.stats.instret,
            ref_vector_insts: r.stats.vector_insts,
            static_vector_share: static_vector_share(&binary),
            task: TaskBinaries {
                base_version: None,
                ext_version: Some(binary),
            },
        });
    }
    let order = shuffled(inputs.len(), derive_seed(seed, "order"));
    let mut slots: Vec<Option<Input>> = inputs.into_iter().map(Some).collect();
    Ok(order
        .iter()
        .map(|&i| slots[i].take().expect("permutation"))
        .collect())
}

/// Host time of one guest: its wall time and the spans around each
/// public call it went through.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    wall_ns: u64,
    prepare_ns: u64,
    load_ns: u64,
    run_ns: u64,
    /// Dropping the CPU (with its JIT arena), memory and kernel runner.
    exit_ns: u64,
}

impl Timing {
    fn spans(&self) -> [u64; 4] {
        [self.prepare_ns, self.load_ns, self.run_ns, self.exit_ns]
    }
}

/// What one guest produced.
struct GuestRun {
    timing: Timing,
    sim: SimRecord,
    cache: CacheStats,
}

/// The CHBP view a prepared process runs on RV64GC cores.
fn chbp_view(process: &Process) -> Binary {
    process
        .view_for(ExtSet::RV64GC)
        .expect("the process loaded on RV64GC")
        .binary
        .clone()
}

fn sim_record(outcome: &RunOutcome, cpu: &chimera::emu::Cpu, kernel: &KernelRunner) -> SimRecord {
    SimRecord {
        exit: match outcome {
            RunOutcome::Exited(code) => Some(*code),
            _ => None,
        },
        instret: cpu.stats.instret,
        cycles: cpu.stats.cycles,
        state: cpu.hart.state_hash(),
        faults: kernel.counters,
    }
}

/// Loads `process` on an RV64GC core and runs it to exit under the
/// kernel, traced when `tracer` is enabled.
fn load_and_run(
    process: &Process,
    mode: ExecMode,
    tracer: &Tracer,
    timing: &mut Timing,
) -> Result<(SimRecord, CacheStats), String> {
    let t = Instant::now();
    let (mut cpu, mut mem, view) = process
        .load(ExtSet::RV64GC)
        .ok_or("no process view runs on RV64GC")?;
    cpu.set_mode(mode);
    cpu.tracer = tracer.clone();
    let mut kernel = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
    timing.load_ns = ns_since(t);
    let t = Instant::now();
    let outcome = kernel.run(&mut cpu, &mut mem, FUEL);
    timing.run_ns = ns_since(t);
    let done = (sim_record(&outcome, &cpu, &kernel), cpu.cache.stats);
    let t = Instant::now();
    drop((cpu, mem, kernel));
    timing.exit_ns = ns_since(t);
    Ok(done)
}

/// The untraced product path: `prepare_process` → load → run.
fn run_guest(input: &Input, mode: ExecMode) -> Result<(GuestRun, Process), String> {
    let mut timing = Timing::default();
    let wall = Instant::now();
    let t = Instant::now();
    let process = prepare_process(SystemKind::Chimera, InputVersion::Ext, &input.task)
        .map_err(|e| e.to_string())?;
    timing.prepare_ns = ns_since(t);
    let (sim, cache) = load_and_run(&process, mode, &Tracer::disabled(), &mut timing)?;
    timing.wall_ns = ns_since(wall);
    Ok((GuestRun { timing, sim, cache }, process))
}

/// One pass of the closed loop over every input.
struct Cycle {
    wall_ns: u64,
    /// Guests of this cycle that passed their check.
    passed: u64,
    /// `(input index, run)`.
    runs: Vec<(usize, GuestRun)>,
}

/// The untraced timed region.
pub struct Timed {
    cycles: Vec<Cycle>,
    /// First run of each input (the simulated-stats baseline).
    first: Vec<Option<(SimRecord, Binary)>>,
}

impl Timed {
    fn runs(&self) -> impl Iterator<Item = &(usize, GuestRun)> {
        self.cycles.iter().flat_map(|c| &c.runs)
    }
}

/// Runs whole cycles over `inputs` until `seconds` have passed, adding
/// every guest's spans to `recon`.
pub fn timed(
    w: &Workload,
    inputs: &[Input],
    seconds: u64,
    tally: &mut Tally,
    recon: &mut Reconciliation,
) -> Timed {
    let mut first: Vec<Option<(SimRecord, Binary)>> = inputs.iter().map(|_| None).collect();
    let mut cycles = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || cycles.is_empty() {
        let cycle_start = Instant::now();
        let failed_before = tally.failed;
        let mut runs = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            let label = format!("{} in cycle {}", input.name, cycles.len());
            let (run, process) = match run_guest(input, w.mode) {
                Ok(done) => done,
                Err(e) => {
                    tally.record(&label, Err(e));
                    continue;
                }
            };
            let baseline = first[i].as_ref().map(|(sim, _)| sim);
            tally.record(&label, judge(input.ref_exit, baseline, &run.sim));
            recon.add(&label, run.timing.wall_ns, &run.timing.spans());
            if first[i].is_none() {
                first[i] = Some((run.sim, chbp_view(&process)));
            }
            runs.push((i, run));
        }
        cycles.push(Cycle {
            wall_ns: ns_since(cycle_start),
            passed: inputs.len() as u64 - (tally.failed - failed_before),
            runs,
        });
    }
    Timed { cycles, first }
}

/// One line per input: the vector shape drawn, the share of the
/// instructions its CHBP view retires that are not the input's own scalar
/// instructions (downgraded vector code and the trampolines around it),
/// and the median share of guest wall time spent in `prepare_process`.
pub fn shape_notes(inputs: &[Input], t: &Timed) -> Vec<String> {
    let mut notes = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let Some((sim, _)) = &t.first[i] else {
            continue;
        };
        let own_scalar = input.ref_instret - input.ref_vector_insts;
        let rewrite_share: Vec<f64> = t
            .runs()
            .filter(|(j, _)| *j == i)
            .map(|(_, r)| r.timing.prepare_ns as f64 / r.timing.wall_ns as f64)
            .collect();
        notes.push(format!(
            "{}: vector share {:.2} % retired, {:.2} % of .text; the CHBP view retires {:.2}x \
             the reference's instructions, {:.1} % of them downgraded or added code; \
             prepare_process takes {:.1} % of guest wall time",
            input.name,
            input.ref_vector_insts as f64 * 100.0 / input.ref_instret as f64,
            input.static_vector_share * 100.0,
            sim.instret as f64 / input.ref_instret as f64,
            sim.instret.saturating_sub(own_scalar) as f64 * 100.0 / sim.instret as f64,
            median(&rewrite_share).unwrap_or(0.0) * 100.0,
        ));
    }
    notes
}

/// `(sim_cycle_ratio, code_growth)`: geometric means over the inputs of
/// CHBP-on-RV64GC cycles ÷ reference cycles and rewritten image bytes ÷
/// input image bytes.
fn sim_ratios(inputs: &[Input], first: &[Option<(SimRecord, Binary)>]) -> (f64, f64) {
    let mut cycles = Vec::new();
    let mut growth = Vec::new();
    for (input, f) in inputs.iter().zip(first) {
        if let Some((sim, view)) = f {
            cycles.push(sim.cycles as f64 / input.ref_cycles as f64);
            growth.push(image_bytes(view) as f64 / input.image_bytes as f64);
        }
    }
    (
        geomean(&cycles).unwrap_or(0.0),
        geomean(&growth).unwrap_or(0.0),
    )
}

/// The end-to-end metrics of the untraced region. `guests_per_s` is
/// computed per cycle — every input once, so each cycle has the same mix
/// — and reported as the median over cycles; the other host-time metrics
/// are medians over guests, which a descheduled guest cannot move.
pub fn end_to_end(inputs: &[Input], t: &Timed, setup_s: f64) -> MetricSet {
    let per_guest = |f: &dyn Fn(&Input, &GuestRun) -> f64| -> f64 {
        median(&t.runs().map(|(i, r)| f(&inputs[*i], r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let per_cycle: Vec<f64> = t
        .cycles
        .iter()
        .map(|c| c.passed as f64 / (c.wall_ns as f64 / 1e9))
        .collect();
    let (cycle_ratio, growth) = sim_ratios(inputs, &t.first);
    let mut m = MetricSet::new(END_TO_END);
    m.set("setup_s", setup_s);
    m.set("guests_per_s", median(&per_cycle).unwrap_or(0.0));
    m.set(
        "guest_ms_p50",
        per_guest(&|_, r| r.timing.wall_ns as f64 / 1e6),
    );
    m.set(
        "rewrite_mb_s",
        per_guest(&|i, r| i.text_bytes as f64 * 1e3 / r.timing.prepare_ns as f64),
    );
    m.set(
        "guest_mips",
        per_guest(&|_, r| r.sim.instret as f64 * 1e3 / (r.timing.load_ns + r.timing.run_ns) as f64),
    );
    m.set("sim_cycle_ratio", cycle_ratio);
    m.set("code_growth", growth);
    m.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    m
}

/// One traced guest: timings, simulated record, the view it ran, and
/// what the trace said about it.
struct TracedGuest {
    run: GuestRun,
    view: Binary,
    rewrite_ns: u64,
    passes: PassStats,
    traps: u64,
}

/// The traced path. `prepare_process` takes no tracer, so the traced run
/// builds the same two views it builds for a Chimera/Ext task — identity
/// view, CHBP view — through `rewrite::run` with the enabled tracer; the
/// determinism check then requires the CHBP view to equal, byte for byte,
/// the one `prepare_process` produced untraced.
fn run_guest_traced(
    input: &Input,
    mode: ExecMode,
    workers: usize,
    tracer: &Tracer,
) -> Result<TracedGuest, String> {
    let bin = input.binary();
    let mut timing = Timing::default();
    let wall = Instant::now();
    let t = Instant::now();
    let identity =
        chimera::rewrite::run(&IdentityEngine, bin, workers, tracer).map_err(|e| e.to_string())?;
    tracer.drain();
    let r = Instant::now();
    let chbp =
        chimera::rewrite::run(&chbp_engine(), bin, workers, tracer).map_err(|e| e.to_string())?;
    let rewrite_ns = ns_since(r);
    let process = Process::new(vec![
        Variant::native(identity.rewritten.binary),
        Variant {
            binary: chbp.rewritten.binary,
            tables: RuntimeTables {
                fht: Some(chbp.rewritten.fht),
                regen: chbp.regen,
            },
        },
    ]);
    timing.prepare_ns = ns_since(t);
    let (sim, cache) = load_and_run(&process, mode, tracer, &mut timing)?;
    timing.wall_ns = ns_since(wall);

    let mut g = TracedGuest {
        run: GuestRun { timing, sim, cache },
        view: chbp_view(&process),
        rewrite_ns,
        passes: PassStats::default(),
        traps: 0,
    };
    for rec in tracer.drain() {
        if !g.passes.add(&rec.event) && matches!(rec.event, TraceEvent::Trap { .. }) {
            g.traps += 1;
        }
    }
    Ok(g)
}

/// Runs one traced cycle over `inputs`, checks it against the untraced
/// region (its spans go to `recon`), and returns the per-layer metrics.
pub fn per_layer(
    w: &Workload,
    inputs: &[Input],
    untraced: &Timed,
    workers: usize,
    recon: &mut Reconciliation,
    checks: &mut SelfChecks,
) -> MetricSet {
    let tracer = Tracer::with_sink(Arc::new(HartRings::with_capacity(1 << 20)));
    let mut guests = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        match run_guest_traced(input, w.mode, workers, &tracer) {
            Ok(g) => guests.push((i, g)),
            Err(e) => checks.require(false, || format!("traced {}: {e}", input.name)),
        }
    }
    checks.same("trace records dropped", 0, tracer.dropped());

    // Determinism: the traced run repeats the untraced one exactly.
    for (i, g) in &guests {
        let name = inputs[*i].name;
        recon.add(
            &format!("traced {name}"),
            g.run.timing.wall_ns,
            &g.run.timing.spans(),
        );
        let pass_sum = g.passes.total_ns();
        checks.require(pass_sum <= g.rewrite_ns, || {
            format!(
                "reconciliation: {name} RewritePassDone sums to {pass_sum} ns, more than the \
                 {} ns span around rewrite::run",
                g.rewrite_ns
            )
        });
        if let Some((sim, view)) = &untraced.first[*i] {
            checks.same(
                &format!("determinism (untraced, traced): {name} simulated record"),
                *sim,
                g.run.sim,
            );
            checks.require(*view == g.view, || {
                format!("determinism: {name} traced CHBP view differs from prepare_process's")
            });
        }
    }
    let traced_first: Vec<Option<(SimRecord, Binary)>> = inputs
        .iter()
        .enumerate()
        .map(|(i, _)| {
            guests
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, g)| (g.run.sim, g.view.clone()))
        })
        .collect();
    let untraced_ratios = sim_ratios(inputs, &untraced.first);
    let traced_ratios = sim_ratios(inputs, &traced_first);
    checks.same(
        "determinism (untraced, traced): sim_cycle_ratio",
        untraced_ratios.0,
        traced_ratios.0,
    );
    checks.same(
        "determinism (untraced, traced): code_growth",
        untraced_ratios.1,
        traced_ratios.1,
    );

    // rewrite.units, counted untraced through the shared-cache path (its
    // per-unit stamp column has one entry per unit).
    let mut untraced_units = 0u64;
    for input in inputs {
        match SharedVariantCache::new().checkout(
            &chbp_engine(),
            input.binary(),
            0,
            workers,
            &Tracer::disabled(),
        ) {
            Ok(h) => untraced_units += h.shared_stamps().len() as u64,
            Err(e) => checks.require(false, || format!("unit count of {}: {e}", input.name)),
        }
    }
    let mut passes = PassStats::default();
    for (_, g) in &guests {
        passes.merge(&g.passes);
    }
    checks.same(
        "determinism (untraced, traced): rewrite.units",
        untraced_units,
        passes.units,
    );

    // Counters the program keeps must agree with the events it traced
    // and the structs it returned.
    let metrics = tracer.metrics().expect("enabled tracer");
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    let faults = |f: &dyn Fn(&chimera::kernel::FaultCounters) -> u64| -> u64 {
        guests.iter().map(|(_, g)| f(&g.run.sim.faults)).sum()
    };
    let smile_faults = faults(&|c| c.smile_faults);
    let lazy = faults(&|c| c.lazy_rewrites);
    checks.same(
        "counters: kernel.smile_faults counter vs FaultCounters",
        counter("kernel.smile_faults"),
        smile_faults,
    );
    checks.same(
        "counters: kernel.lazy_rewrites counter vs FaultCounters",
        counter("kernel.lazy_rewrites"),
        lazy,
    );
    let cache_sum = |f: &dyn Fn(&CacheStats) -> u64| -> u64 {
        guests.iter().map(|(_, g)| f(&g.run.cache)).sum()
    };
    checks.same(
        "counters: emu.blocks_built counter vs CacheStats",
        counter("emu.blocks_built"),
        cache_sum(&|c| c.blocks_built),
    );

    let n = guests.len().max(1) as f64;
    let total =
        |f: &dyn Fn(&TracedGuest) -> u64| -> f64 { guests.iter().map(|(_, g)| f(g) as f64).sum() };
    let mut m = MetricSet::new(PER_LAYER);
    m.set(
        "core.prepare_ms",
        total(&|g| g.run.timing.prepare_ns) / n / 1e6,
    );
    passes.report(guests.len(), &mut m);
    let loads: Vec<f64> = guests
        .iter()
        .map(|(_, g)| g.run.timing.load_ns as f64 / 1e3)
        .collect();
    m.set("emu.load_us_p50", percentile(&loads, 50.0).unwrap_or(0.0));
    m.set("emu.run_ms", total(&|g| g.run.timing.run_ns) / n / 1e6);
    for name in [
        "emu.blocks_built",
        "emu.blocks_chained",
        "emu.blocks_jitted",
        "emu.cache_invalidations",
    ] {
        m.set(name, counter(name) as f64);
    }
    let hits = cache_sum(&|c| c.hits) as f64;
    m.set(
        "emu.block_hit_ratio",
        hits / (hits + cache_sum(&|c| c.misses) as f64),
    );
    m.set(
        "emu.sim_cpi",
        total(&|g| g.run.sim.cycles) / total(&|g| g.run.sim.instret),
    );
    m.set("kernel.traps", total(&|g| g.traps));
    m.set("kernel.smile_faults", smile_faults as f64);
    m.set("kernel.lazy_rewrites", lazy as f64);
    // Tracing overhead: traced wall against the untraced median wall of
    // the same inputs.
    let mut untraced_ns = 0.0;
    for (i, _) in &guests {
        let walls: Vec<f64> = untraced
            .runs()
            .filter(|(j, _)| j == i)
            .map(|(_, r)| r.timing.wall_ns as f64)
            .collect();
        untraced_ns += median(&walls).unwrap_or(0.0);
    }
    m.set(
        "trace.overhead_pct",
        (total(&|g| g.run.timing.wall_ns) / untraced_ns - 1.0) * 100.0,
    );
    m
}
