//! `churn`: rounds of many short-lived guests through the many-hart
//! kernel, spawned from and recycled into one `ProcessPool`.
//!
//! Every guest request goes `SharedVariantCache::checkout` →
//! `ProcessPool::register` → `ManyHartKernel::add_pooled_hart`. The first
//! checkout of each distinct binary — the only cache miss — happens in
//! set-up, so every timed checkout is a hit and every register finds the
//! existing master. A round is submitted whole and reported when its last
//! guest exits; the next round starts after that (a closed loop).

use crate::check::{judge, Reconciliation, SelfChecks, SimRecord, Tally};
use crate::report::peak_rss_mib;
use crate::stats::{derive_seed, geomean, median, percentile, shuffled};
use crate::{chbp_engine, image_bytes, ns_since, MetricSet, PassStats, END_TO_END, PER_LAYER};
use chimera::emu::ExecMode;
use chimera::isa::ExtSet;
use chimera::kernel::{
    HartReport, ManyHartConfig, ManyHartKernel, ManyHartResult, ProcessPool, RuntimeTables, Variant,
};
use chimera::obj::{assemble, AsmOptions, Binary, DEFAULT_STACK_SIZE};
use chimera::rewrite::{SharedVariantCache, VariantHandle};
use chimera::trace::{HartRings, TraceEvent, Tracer};
use chimera::workloads::hetero::{communicator_task, fib_task, matrix_task};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Guests per round.
pub const ROUND_GUESTS: usize = 256;
/// Traced rounds: enough spawns that the p99 spawn latency has ten
/// samples above it.
pub const TRACED_ROUNDS: usize = 4;

/// The guest kinds. Guests come in pairs of one binary, because a
/// communicator hart talks to hart `id ^ 1`.
const KINDS: usize = 4;
const KIND_NAMES: [&str; KINDS] = ["vector", "communicator", "fib", "matrix"];
/// Distinct binaries per kind. Each is checked out cold once per set-up,
/// which is also what `rewrite_mb_s` measures here.
const VARIANTS: usize = 8;
/// Distinct guest binaries.
pub const DISTINCT_BINARIES: usize = KINDS * VARIANTS;

/// Binary `k * VARIANTS + v` is variant `v` of kind `k`. Variants differ
/// in fixed parameters (the same for every seed) and, for the vector
/// guest, in seeded data.
fn guest_binaries(seed: u64) -> Vec<Binary> {
    let mut bins = Vec::with_capacity(DISTINCT_BINARIES);
    bins.extend((0..VARIANTS).map(|v| vector_guest(seed, v)));
    bins.extend((0..VARIANTS).map(|v| communicator_task(2 + v, 1)));
    bins.extend((0..VARIANTS).map(|v| fib_task(100 + 8 * v as u64, 2)));
    bins.extend((0..VARIANTS).map(|v| matrix_task(4 + v, 2, true)));
    bins
}

/// The `process_churn` vector guest: dirties its stack and `.data`, runs
/// vector code, exits with the sum of its four seeded data words plus its
/// hart id.
fn vector_guest(seed: u64, variant: usize) -> Binary {
    let words: Vec<u64> = (0..4)
        .map(|i| derive_seed(seed, &format!("vector{variant}.{i}")) % 1000)
        .collect();
    let src = format!(
        "
    .data
    buf: .dword {}
         .dword {}
         .dword {}
         .dword {}
    acc: .dword 0
    .text
    _start:
        li a7, 0x7a00       # HART_ID
        ecall
        mv s0, a0
        addi sp, sp, -32
        sd s0, 0(sp)
        sd s0, 8(sp)
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        la a0, buf
        vle64.v v1, (a0)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s t2, v3
        la a1, acc
        sd t2, 0(a1)
        ld t3, 0(sp)
        add a0, t2, t3
        addi sp, sp, 32
        li a7, 93
        ecall
",
        words[0], words[1], words[2], words[3]
    );
    assemble(&src, AsmOptions::default()).expect("vector guest assembles")
}

fn to_variant(handle: &VariantHandle) -> Variant {
    Variant {
        binary: handle.rewritten().binary.clone(),
        tables: RuntimeTables {
            fht: Some(handle.rewritten().fht.clone()),
            regen: handle.regen().cloned(),
        },
    }
}

fn kernel_config(workers: usize) -> ManyHartConfig {
    ManyHartConfig {
        workers,
        mode: ExecMode::Engine,
        ..Default::default()
    }
}

fn sim_record(h: &HartReport) -> SimRecord {
    SimRecord {
        exit: h.exit,
        instret: h.retired,
        cycles: h.cycles,
        state: h.checksum,
        faults: h.counters,
    }
}

/// The cold checkouts of a fresh shared cache: one per distinct binary.
struct Cold {
    shared: SharedVariantCache,
    handles: Vec<VariantHandle>,
    /// Span around each cold checkout.
    ns: Vec<u64>,
    /// What each checkout's rewrite traced (empty stats when untraced).
    passes: Vec<PassStats>,
}

fn cold_checkouts(bins: &[Binary], workers: usize, tracer: &Tracer) -> Result<Cold, String> {
    let mut cold = Cold {
        shared: SharedVariantCache::new(),
        handles: Vec::new(),
        ns: Vec::new(),
        passes: Vec::new(),
    };
    for bin in bins {
        let t = Instant::now();
        let handle = cold
            .shared
            .checkout(&chbp_engine(), bin, 0, workers, tracer)
            .map_err(|e| e.to_string())?;
        cold.ns.push(ns_since(t));
        cold.handles.push(handle);
        let mut passes = PassStats::default();
        for rec in tracer.drain() {
            passes.add(&rec.event);
        }
        cold.passes.push(passes);
    }
    Ok(cold)
}

/// A pool holding one registered master per distinct binary, prewarmed
/// with as many slots as a round uses, and the masters' keys.
fn prewarmed_pool(cold: &Cold, roster: &[usize], tracer: &Tracer) -> (ProcessPool, Vec<u64>) {
    let mut pool = ProcessPool::with_config(DEFAULT_STACK_SIZE, tracer.clone());
    let mut keys = Vec::new();
    for (bin, handle) in cold.handles.iter().enumerate() {
        let key = pool.register(to_variant(handle));
        pool.prewarm(key, roster.iter().filter(|&&b| b == bin).count());
        keys.push(key);
    }
    (pool, keys)
}

/// Everything set-up prepares.
pub struct Setup {
    bins: Vec<Binary>,
    /// Guest index (= hart id) → binary index.
    roster: Vec<usize>,
    /// Reference result of one round of the unmodified inputs.
    reference: ManyHartResult,
    cold: Cold,
    pool: ProcessPool,
}

/// Generates the guests from `seed`, runs one reference round of the
/// unmodified inputs on RV64GCV cores in the Engine tier, checks out
/// every distinct binary once (the cold misses) and prewarms the pool.
pub fn setup(seed: u64, rewrite_workers: usize) -> Result<Setup, String> {
    let bins = guest_binaries(seed);
    for (i, b) in bins.iter().enumerate() {
        if bins[..i].contains(b) {
            return Err(format!("guest binary {i} repeats an earlier one"));
        }
    }
    // Every binary fills the same number of pairs; the seed decides where.
    let pairs = ROUND_GUESTS / 2;
    let mut roster = Vec::with_capacity(ROUND_GUESTS);
    for p in shuffled(pairs, derive_seed(seed, "roster")) {
        let bin = p % bins.len();
        roster.extend([bin, bin]);
    }

    let mut reference = ManyHartKernel::new(kernel_config(1));
    for &bin in &roster {
        reference.add_hart(
            &bins[bin],
            ExtSet::RV64GCV,
            ExtSet::RV64GCV,
            RuntimeTables::default(),
        );
    }
    let reference = reference.run();
    if let Some((hart, why)) = reference.first_failure() {
        return Err(format!("reference run of hart {hart}: {why}"));
    }

    let cold = cold_checkouts(&bins, rewrite_workers, &Tracer::disabled())?;
    let (pool, _) = prewarmed_pool(&cold, &roster, &Tracer::disabled());
    Ok(Setup {
        bins,
        roster,
        reference,
        cold,
        pool,
    })
}

/// Host time of one round: wall time and the spans around every public
/// call it went through.
#[derive(Debug, Default)]
struct RoundTiming {
    wall_ns: u64,
    new_ns: u64,
    checkout_ns: Vec<u64>,
    spawn_ns: Vec<u64>,
    run_ns: u64,
    recycle_ns: u64,
}

impl RoundTiming {
    fn spans(&self) -> Vec<u64> {
        let mut v = vec![self.new_ns, self.run_ns, self.recycle_ns];
        v.extend(&self.checkout_ns);
        v.extend(&self.spawn_ns);
        v
    }
}

struct RoundRun {
    timing: RoundTiming,
    result: ManyHartResult,
    recycled: usize,
    /// Guests that passed their check (set by the timed loop).
    passed: u64,
}

/// One round: submit every guest, run the kernel until all exit, recycle.
fn round(
    bins: &[Binary],
    roster: &[usize],
    shared: &SharedVariantCache,
    pool: &mut ProcessPool,
    workers: (usize, usize),
    tracer: &Tracer,
) -> Result<RoundRun, String> {
    let (rewrite_workers, kernel_workers) = workers;
    let mut timing = RoundTiming::default();
    let wall = Instant::now();
    let t = Instant::now();
    let mut kernel = ManyHartKernel::with_tracer(kernel_config(kernel_workers), tracer.clone());
    timing.new_ns = ns_since(t);
    for &bin in roster {
        let t = Instant::now();
        let handle = shared
            .checkout(&chbp_engine(), &bins[bin], 0, rewrite_workers, tracer)
            .map_err(|e| e.to_string())?;
        timing.checkout_ns.push(ns_since(t));
        let t = Instant::now();
        let key = pool.register(to_variant(&handle));
        kernel
            .add_pooled_hart(pool, key, ExtSet::RV64GC, ExtSet::RV64GC)
            .ok_or("registered key did not spawn")?;
        timing.spawn_ns.push(ns_since(t));
    }
    let t = Instant::now();
    let result = kernel.run();
    timing.run_ns = ns_since(t);
    let t = Instant::now();
    let recycled = kernel.recycle_into(pool);
    timing.recycle_ns = ns_since(t);
    timing.wall_ns = ns_since(wall);
    Ok(RoundRun {
        timing,
        result,
        recycled,
        passed: 0,
    })
}

/// Checks every hart of `run` against the reference exit codes and,
/// after the first round, against the first round bit for bit.
fn check_round(
    s: &Setup,
    label: &str,
    run: &RoundRun,
    first: Option<&ManyHartResult>,
    tally: &mut Tally,
) {
    let round_level = match first {
        Some(f) if (f.slots, f.delivered) != (run.result.slots, run.result.delivered) => {
            Err(format!(
                "round slots/deliveries {:?} differ from the first round's {:?}",
                (run.result.slots, run.result.delivered),
                (f.slots, f.delivered)
            ))
        }
        _ => Ok(()),
    };
    for (h, got) in run.result.harts.iter().enumerate() {
        let expected = s.reference.harts[h].exit.expect("reference harts exited");
        let baseline = first.map(|f| sim_record(&f.harts[h]));
        let verdict = judge(expected, baseline.as_ref(), &sim_record(got)).and(round_level.clone());
        tally.record(
            &format!("{label} hart {h} ({})", KIND_NAMES[s.roster[h] / VARIANTS]),
            verdict,
        );
    }
}

/// The untraced timed region.
pub struct Timed {
    rounds: Vec<RoundRun>,
}

/// Runs rounds until `seconds` have passed, adding every round's spans
/// to `recon`.
pub fn timed(
    s: &mut Setup,
    workers: (usize, usize),
    seconds: u64,
    tally: &mut Tally,
    recon: &mut Reconciliation,
) -> Timed {
    let mut rounds: Vec<RoundRun> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || rounds.is_empty() {
        let label = format!("round {}", rounds.len());
        match round(
            &s.bins,
            &s.roster,
            &s.cold.shared,
            &mut s.pool,
            workers,
            &Tracer::disabled(),
        ) {
            Ok(mut run) => {
                let failed_before = tally.failed;
                check_round(s, &label, &run, rounds.first().map(|r| &r.result), tally);
                run.passed = run.result.harts.len() as u64 - (tally.failed - failed_before);
                recon.add(&label, run.timing.wall_ns, &run.timing.spans());
                rounds.push(run);
            }
            Err(e) => {
                for h in 0..s.roster.len() {
                    tally.record(&format!("{label} hart {h}"), Err(e.clone()));
                }
            }
        }
    }
    Timed { rounds }
}

/// `(sim_cycle_ratio, code_growth)`: geometric means over the distinct
/// binaries of CHBP-on-RV64GC cycles ÷ reference cycles (summed over the
/// harts running that binary in one round) and rewritten image bytes ÷
/// input image bytes.
fn sim_ratios(s: &Setup, round: &ManyHartResult, handles: &[VariantHandle]) -> (f64, f64) {
    let mut cycles = Vec::new();
    let mut growth = Vec::new();
    for (bin, handle) in handles.iter().enumerate() {
        let of_bin = |r: &ManyHartResult| -> f64 {
            r.harts
                .iter()
                .filter(|h| s.roster[h.hart as usize] == bin)
                .map(|h| h.cycles as f64)
                .sum()
        };
        cycles.push(of_bin(round) / of_bin(&s.reference));
        growth.push(
            image_bytes(&handle.rewritten().binary) as f64 / image_bytes(&s.bins[bin]) as f64,
        );
    }
    (
        geomean(&cycles).unwrap_or(0.0),
        geomean(&growth).unwrap_or(0.0),
    )
}

/// The end-to-end metrics. Throughputs are computed per round and
/// reported as the median over rounds; `rewrite_mb_s` is the median over
/// every set-up's cold checkouts (`cold_mb_s`, from [`cold_rewrite`]).
pub fn end_to_end(s: &Setup, t: &Timed, setup_s: f64, cold_mb_s: &[f64]) -> MetricSet {
    let per_round = |f: &dyn Fn(&RoundRun) -> f64| -> f64 {
        median(&t.rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let (cycle_ratio, growth) = t
        .rounds
        .first()
        .map_or((0.0, 0.0), |r| sim_ratios(s, &r.result, &s.cold.handles));
    let mut m = MetricSet::new(END_TO_END);
    m.set("setup_s", setup_s);
    m.set(
        "guests_per_s",
        per_round(&|r| r.passed as f64 / (r.timing.wall_ns as f64 / 1e9)),
    );
    m.set(
        "guest_ms_p50",
        per_round(&|r| r.timing.wall_ns as f64) / 1e6,
    );
    m.set("rewrite_mb_s", median(cold_mb_s).unwrap_or(0.0));
    m.set(
        "guest_mips",
        per_round(&|r| {
            let exec_ns = r.timing.spawn_ns.iter().sum::<u64>() + r.timing.run_ns;
            r.result.retired as f64 * 1e3 / exec_ns as f64
        }),
    );
    m.set("sim_cycle_ratio", cycle_ratio);
    m.set("code_growth", growth);
    m.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    m
}

/// Input `.text` MB per second of each of the set-up's cold checkouts.
pub fn cold_rewrite(s: &Setup) -> impl Iterator<Item = f64> + '_ {
    s.bins
        .iter()
        .zip(&s.cold.ns)
        .map(|(b, &ns)| b.code_size() as f64 * 1e3 / ns as f64)
}

/// Runs the traced pass — cold checkouts on a fresh cache, then
/// [`TRACED_ROUNDS`] rounds — checks it against the untraced region (its
/// spans go to `recon`), and returns the per-layer metrics.
pub fn per_layer(
    s: &Setup,
    untraced: &Timed,
    workers: (usize, usize),
    recon: &mut Reconciliation,
    checks: &mut SelfChecks,
) -> MetricSet {
    let mut m = MetricSet::new(PER_LAYER);
    let tracer = Tracer::with_sink(Arc::new(HartRings::with_capacity(1 << 16)));

    // Cold checkouts: the rewrite pipeline, traced.
    let traced_cold = match cold_checkouts(&s.bins, workers.0, &tracer) {
        Ok(c) => c,
        Err(e) => {
            checks.require(false, || format!("traced cold checkouts: {e}"));
            return m;
        }
    };
    let mut passes = PassStats::default();
    for (i, (p, &span)) in traced_cold.passes.iter().zip(&traced_cold.ns).enumerate() {
        let pass_sum = p.total_ns();
        checks.require(pass_sum <= span, || {
            format!(
                "reconciliation: {} #{i} RewritePassDone sums to {pass_sum} ns, more than the \
                 {span} ns span around its checkout",
                KIND_NAMES[i / VARIANTS]
            )
        });
        passes.merge(p);
    }
    let untraced_units: u64 = s
        .cold
        .handles
        .iter()
        .map(|h| h.shared_stamps().len() as u64)
        .sum();
    checks.same(
        "determinism (untraced, traced): rewrite.units",
        untraced_units,
        passes.units,
    );

    // Rounds, traced through the kernel, the pool and the cache.
    let (mut pool, keys) = prewarmed_pool(&traced_cold, &s.roster, &tracer);
    let first = untraced.rounds.first().map(|r| &r.result);
    let (mut traps, mut restored) = (0u64, 0u64);
    let mut runs = Vec::new();
    for i in 0..TRACED_ROUNDS {
        let label = format!("traced round {i}");
        match round(
            &s.bins,
            &s.roster,
            &traced_cold.shared,
            &mut pool,
            workers,
            &tracer,
        ) {
            Ok(run) => {
                recon.add(&label, run.timing.wall_ns, &run.timing.spans());
                if let Some(f) = first {
                    checks.require(*f == run.result, || {
                        format!(
                            "determinism: {label} differs from untraced round 0 (checksum \
                             {:#x} vs {:#x}, slots {} vs {})",
                            run.result.checksum, f.checksum, run.result.slots, f.slots
                        )
                    });
                }
                for rec in tracer.drain() {
                    match rec.event {
                        TraceEvent::Trap { .. } => traps += 1,
                        TraceEvent::SlotRecycled { restored_bytes, .. } => {
                            restored += restored_bytes
                        }
                        _ => {}
                    }
                }
                runs.push(run);
            }
            Err(e) => checks.require(false, || format!("{label}: {e}")),
        }
    }
    checks.same("trace records dropped", 0, tracer.dropped());
    if let (Some(u), Some(t)) = (untraced.rounds.first(), runs.first()) {
        let a = sim_ratios(s, &u.result, &s.cold.handles);
        let b = sim_ratios(s, &t.result, &traced_cold.handles);
        checks.same("determinism (untraced, traced): sim_cycle_ratio", a.0, b.0);
        checks.same("determinism (untraced, traced): code_growth", a.1, b.1);
    }

    let metrics = tracer.metrics().expect("enabled tracer");
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    let sum = |f: &dyn Fn(&RoundRun) -> u64| -> u64 { runs.iter().map(f).sum() };
    let harts = |f: &dyn Fn(&HartReport) -> u64| -> u64 {
        runs.iter().flat_map(|r| &r.result.harts).map(f).sum()
    };
    let smile_faults = harts(&|h| h.counters.smile_faults);
    let lazy = harts(&|h| h.counters.lazy_rewrites);
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
    checks.same(
        "counters: many.delivered_ipi counter vs result",
        counter("many.delivered_ipi"),
        sum(&|r| r.result.delivered.1),
    );
    checks.same(
        "counters: many.delivered_timer counter vs result",
        counter("many.delivered_timer"),
        sum(&|r| r.result.delivered.0),
    );
    checks.same(
        "counters: many.migrations counter vs result",
        counter("many.migrations"),
        sum(&|r| r.result.migrations),
    );
    checks.same(
        "counters: pool.slots_recycled counter vs recycled",
        counter("pool.slots_recycled"),
        sum(&|r| r.recycled as u64),
    );
    let pool_restored: u64 = keys
        .iter()
        .filter_map(|&k| pool.stats(k))
        .map(|st| st.restored_bytes)
        .sum();
    checks.same(
        "counters: SlotRecycled bytes vs PoolStats",
        pool_restored,
        restored,
    );

    passes.report(s.bins.len(), &mut m);
    let checkouts: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.timing.checkout_ns)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m.set(
        "rewrite.checkout_us_p50",
        percentile(&checkouts, 50.0).unwrap_or(0.0),
    );
    let st = traced_cold.shared.stats();
    m.set(
        "rewrite.shared_hit_ratio",
        st.hits as f64 / (st.hits + st.misses) as f64,
    );
    for name in [
        "emu.blocks_built",
        "emu.blocks_chained",
        "emu.blocks_jitted",
        "emu.cache_invalidations",
        "pool.slots_discarded",
        "many.delivered_ipi",
        "many.delivered_timer",
        "many.migrations",
    ] {
        m.set(name, counter(name) as f64);
    }
    m.set(
        "emu.sim_cpi",
        harts(&|h| h.cycles) as f64 / harts(&|h| h.retired) as f64,
    );
    m.set("kernel.traps", traps as f64);
    m.set("kernel.smile_faults", smile_faults as f64);
    m.set("kernel.lazy_rewrites", lazy as f64);
    let spawns: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.timing.spawn_ns)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m.set(
        "kernel.spawn_us_p50",
        percentile(&spawns, 50.0).unwrap_or(0.0),
    );
    m.set(
        "kernel.spawn_us_p99",
        percentile(&spawns, 99.0).unwrap_or(0.0),
    );
    m.set(
        "kernel.recycle_us_per_slot",
        sum(&|r| r.timing.recycle_ns) as f64 / 1e3 / sum(&|r| r.recycled as u64) as f64,
    );
    m.set("pool.restored_bytes", restored as f64);
    let rounds = runs.len().max(1) as f64;
    m.set(
        "kernel.round_ms",
        sum(&|r| r.timing.run_ns) as f64 / rounds / 1e6,
    );
    let slots = sum(&|r| r.result.slots);
    m.set("kernel.slots", slots as f64);
    m.set(
        "kernel.us_per_slot",
        sum(&|r| r.timing.run_ns) as f64 / 1e3 / slots as f64,
    );
    let untraced_walls: Vec<f64> = untraced
        .rounds
        .iter()
        .map(|r| r.timing.wall_ns as f64)
        .collect();
    m.set(
        "trace.overhead_pct",
        (sum(&|r| r.timing.wall_ns) as f64 / rounds / median(&untraced_walls).unwrap_or(f64::NAN)
            - 1.0)
            * 100.0,
    );
    m
}
