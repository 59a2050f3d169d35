//! Tracing-overhead gate + end-to-end trace coverage check.
//!
//!     cargo run --release -p chimera-bench --bin trace_overhead
//!
//! Part 1 re-times the `decode_cache` straight-line workload in three
//! configurations — no tracer plumbing at all, a disabled [`Tracer`]
//! attached, and a fully enabled tracer — asserts all three produce
//! bit-identical [`RunResult`]s, and gates the overhead ratios:
//!
//! * disabled vs baseline: target <= 2%, hard floor 5% (the disabled
//!   tracer is a branch over a `None`, so anything above noise is a
//!   regression in the instrumentation itself);
//! * enabled vs baseline: target <= 10%, hard floor 20% (events are
//!   per-block/per-trap, never per instruction, so a straight-line
//!   workload should barely notice an active sink).
//!
//! Part 2 runs one heterogeneous scenario — static rewrite, forced SMILE
//! fault, lazy rewriting of hidden vector code, a decode-cache
//! invalidation via self-modification, a JIT-tier promotion, shared
//! variant-cache checkouts plus pooled spawn/recycle cycles, and the
//! work-stealing simulator — against one shared tracer, asserts every one
//! of the fourteen [`TraceEvent`] kinds occurred (TierPromote is excused
//! on hosts without executable pages), reconciles event counts against
//! the metrics registry and the kernel's [`FaultCounters`], and dumps
//! `results/trace-hetero.json`.

use chimera::{measure_traced, Measurement};
use chimera_bench::harness::fmt_ns;
use chimera_emu::{run_binary, RunConfig, RunError, RunResult};
use chimera_isa::ExtSet;
use chimera_kernel::{KernelRunner, Process, ProcessPool, RunOutcome, RuntimeTables, Variant};
use chimera_obj::{assemble, AsmOptions, Binary, DEFAULT_STACK_SIZE};
use chimera_rewrite::{
    chbp_rewrite_traced, run_cached, run_incremental, ChbpEngine, DirtySpan, RewriteOptions,
    SharedVariantCache,
};
use chimera_trace::{export_json, summarize, TraceEvent, Tracer};

/// The decode_cache straight-line workload: a long unrolled body
/// re-entered from one backward branch.
fn straight_line_binary() -> Binary {
    let mut src = String::from(
        "
        _start:
            li t0, 4000
            li a0, 0
            li a1, 7
        loop:
    ",
    );
    for _ in 0..32 {
        src.push_str("        add a0, a0, a1\n");
        src.push_str("        xor a0, a0, t0\n");
    }
    src.push_str(
        "
            addi t0, t0, -1
            bnez t0, loop
            li a7, 93
            ecall
        ",
    );
    assemble(&src, AsmOptions::default()).unwrap()
}

/// A 4-element vector reduction (exits 14): the rewriting + SMILE target.
const VEC_PROG: &str = "
    .data
    a: .dword 2
       .dword 3
       .dword 4
       .dword 5
    .text
    _start:
        li t0, 4
        vsetvli t1, t0, e64, m1, ta, ma
        la a0, a
        vle64.v v1, (a0)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s a0, v3
        li a7, 93
        ecall
";

/// A vector block reachable only through a doubled pointer the static
/// scan cannot see — the lazy-rewriting trigger (exits 34).
const HIDDEN_PROG: &str = "
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

fn overhead_gate(bin: &Binary) {
    let fuel = u64::MAX / 2;

    // Transparency: all three configurations must be bit-identical —
    // exit code, stdout, cycle accounting and final registers.
    let baseline: RunResult = run_binary(bin, fuel, RunConfig::on(ExtSet::RV64GCV)).unwrap();
    let disabled = timed_run(bin, fuel, &Tracer::disabled());
    let enabled_tracer = Tracer::enabled();
    let enabled = timed_run(bin, fuel, &enabled_tracer);
    assert_eq!(baseline, disabled, "disabled tracer must be transparent");
    assert_eq!(baseline, enabled, "enabled tracer must be transparent");
    assert!(
        !enabled_tracer.drain().is_empty(),
        "the enabled run must actually record events"
    );
    println!(
        "workload: {} dynamic insts, {} simulated cycles (identical in all 3 configs)",
        baseline.stats.instret, baseline.stats.cycles
    );

    // The three configurations are timed in interleaved round-robin
    // batches (not three sequential `bench()` blocks): frequency drift on
    // a shared runner would otherwise bias whichever config ran in the
    // slowest window, swamping a 2% target. The per-config *minimum* is
    // the gate statistic — the workload is deterministic, so the fastest
    // observed batch is the best noise-free estimate of its true cost.
    //
    // All three configs funnel through ONE non-inlined runner so they
    // execute the same machine code and differ only in the tracer handle:
    // per-call-site inlining would otherwise duplicate the emulator's hot
    // loop with different code layout, and the resulting alignment skew
    // (up to ~10% between identical-work call sites) would swamp the gate.
    #[inline(never)]
    fn timed_run(bin: &Binary, fuel: u64, tracer: &Tracer) -> RunResult {
        let cfg = RunConfig {
            tracer: std::hint::black_box(tracer).clone(),
            ..RunConfig::on(ExtSet::RV64GCV)
        };
        run_binary(std::hint::black_box(bin), fuel, cfg).unwrap()
    }
    // The enabled tracer is long-lived and its per-thread ring simply
    // wraps (overwriting a slot costs the same as filling it), matching a
    // harness that drains between runs without timing the drain.
    let timing_tracer = Tracer::enabled();
    let mut configs: [(&str, Tracer, Vec<f64>); 3] = [
        ("baseline (no tracer)", Tracer::disabled(), Vec::new()),
        ("tracer disabled", Tracer::disabled(), Vec::new()),
        ("tracer enabled", timing_tracer, Vec::new()),
    ];

    // Calibrate a batch size of roughly 25 ms against the baseline.
    let iters = {
        let t0 = std::time::Instant::now();
        timed_run(bin, fuel, &configs[0].1);
        let one = t0.elapsed().as_nanos().max(1);
        ((25_000_000 / one) as u64).clamp(1, 1 << 16)
    };
    const ROUNDS: usize = 12;
    for round in 0..ROUNDS {
        for i in 0..configs.len() {
            // Rotate the in-round order so no config owns a fixed slot.
            let c = &mut configs[(round + i) % 3];
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                timed_run(bin, fuel, &c.1);
            }
            c.2.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    let mut mins = [0f64; 3];
    for (i, (name, _, samples)) in configs.iter().enumerate() {
        mins[i] = samples.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "trace_overhead/{name:<24} min {} over {ROUNDS} interleaved batches \
             ({iters} iters/batch)",
            fmt_ns(mins[i])
        );
    }
    let [base_ns, dis_ns, en_ns] = mins;

    let dis_ratio = dis_ns / base_ns;
    let en_ratio = en_ns / base_ns;
    println!(
        "disabled overhead: {:.1}% (min {} vs {})",
        (dis_ratio - 1.0) * 100.0,
        fmt_ns(dis_ns),
        fmt_ns(base_ns)
    );
    println!(
        "enabled overhead:  {:.1}% (min {} vs {})",
        (en_ratio - 1.0) * 100.0,
        fmt_ns(en_ns),
        fmt_ns(base_ns)
    );
    assert!(
        dis_ratio <= 1.05,
        "disabled-tracer overhead exceeded the 5% hard floor \
         (target <= 2%, got {:.1}%)",
        (dis_ratio - 1.0) * 100.0
    );
    assert!(
        en_ratio <= 1.20,
        "enabled-tracer overhead exceeded the 20% hard floor \
         (target <= 10%, got {:.1}%)",
        (en_ratio - 1.0) * 100.0
    );
    if dis_ratio > 1.02 {
        println!(
            "WARN: disabled overhead {:.1}% is over the 2% target (within the \
             5% noise floor); rerun on quiet hardware if this persists",
            (dis_ratio - 1.0) * 100.0
        );
    }
    if en_ratio > 1.10 {
        println!(
            "WARN: enabled overhead {:.1}% is over the 10% target (within the \
             20% noise floor); rerun on quiet hardware if this persists",
            (en_ratio - 1.0) * 100.0
        );
    }
    if dis_ratio <= 1.02 && en_ratio <= 1.10 {
        println!("PASS: overhead within target in both traced configs");
    }
}

/// Totals accumulated from the authoritative per-run sources (kernel
/// fault counters, per-CPU cache stats), reconciled against the trace.
#[derive(Default)]
struct Expected {
    blocks_built: u64,
    invalidations: u64,
    chained: u64,
    smile_faults: u64,
    lazy_rewrites: u64,
}

fn hetero_scenario() {
    let tracer = Tracer::enabled();
    let mut expected = Expected::default();

    // (a) Static rewrite of the vector program, traced: 6 RewritePassDone
    // (scan/plan/transform/place/link/verify pipeline stages).
    let vec_bin = assemble(VEC_PROG, AsmOptions::default()).unwrap();
    let rw =
        chbp_rewrite_traced(&vec_bin, ExtSet::RV64GC, RewriteOptions::default(), &tracer).unwrap();
    let variant = Variant {
        binary: rw.binary,
        tables: RuntimeTables {
            fht: Some(rw.fht),
            regen: None,
        },
    };
    let process = Process::new(vec![variant]);

    // (a2) Incremental re-rewrite: prime a per-unit cache (6 more
    // RewritePassDone), dirty one site, and re-rewrite incrementally —
    // one RewriteIncremental event plus the units_reused/units_redone
    // counters, which must reconcile with the unit total.
    let incremental_total = {
        let engine = ChbpEngine {
            target: ExtSet::RV64GC,
            opts: RewriteOptions::default(),
        };
        let (primed, mut cache) = run_cached(&engine, &vec_bin, 2, &tracer).unwrap();
        let site = *primed
            .rewritten
            .fht
            .trampolines
            .iter()
            .next()
            .expect("the vector program has patch sites");
        let dirty = [DirtySpan {
            start: site,
            end: site + 4,
            generation: 1,
        }];
        let inc = run_incremental(&engine, &vec_bin, &mut cache, &dirty, 2, &tracer).unwrap();
        assert_eq!(
            inc.rewritten, primed.rewritten,
            "incremental must be bit-identical to the cached full rewrite"
        );
        cache.unit_count() as u64
    };

    // (b) Forced erroneous jump onto a SMILE redirect key: the passive
    // fault handler must recover it (normal trampoline execution never
    // faults, so the fault is provoked explicitly).
    {
        let (mut cpu, mut mem, view) = process.load(ExtSet::RV64GC).unwrap();
        cpu.tracer = tracer.clone();
        let fht = view.tables.fht.as_ref().unwrap();
        let (&fault_addr, _) = fht.redirects.iter().next().expect("redirects exist");
        cpu.hart.pc = fault_addr;
        let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
        let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
        assert!(
            matches!(outcome, RunOutcome::Exited(_)),
            "smile recovery must complete the run, got {outcome:?}"
        );
        assert!(k.counters.smile_faults >= 1);
        expected.smile_faults += k.counters.smile_faults;
        expected.lazy_rewrites += k.counters.lazy_rewrites;
        expected.blocks_built += cpu.cache.stats.blocks_built;
        expected.invalidations += cpu.cache.stats.invalidations;
        expected.chained += cpu.cache.stats.chained;
    }

    // (c) Hidden vector code behind a doubled pointer: the kernel must
    // rewrite lazily at fault time.
    {
        let hidden_src = HIDDEN_PROG;
        let ref_bin = assemble(
            &hidden_src.replace("coded_ptr: .dword 0", "coded_ptr: .dword hidden"),
            AsmOptions::default(),
        )
        .unwrap();
        let dref = chimera_analysis::disassemble(&ref_bin);
        let hidden = dref
            .iter()
            .find(|di| matches!(di.inst, chimera_isa::Inst::VLoad { .. }))
            .unwrap()
            .addr;
        let mut bin = assemble(hidden_src, AsmOptions::default()).unwrap();
        let data = bin.section(".data").unwrap().addr;
        bin.write(data + 32, &(hidden * 2).to_le_bytes());

        let rw =
            chbp_rewrite_traced(&bin, ExtSet::RV64GC, RewriteOptions::default(), &tracer).unwrap();
        let lazy_process = Process::new(vec![Variant {
            binary: rw.binary,
            tables: RuntimeTables {
                fht: Some(rw.fht),
                regen: None,
            },
        }]);
        let (mut cpu, mut mem, view) = lazy_process.load(ExtSet::RV64GC).unwrap();
        cpu.tracer = tracer.clone();
        let mut k = KernelRunner::with_tracer(view.tables.clone(), tracer.clone());
        let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
        assert_eq!(outcome, RunOutcome::Exited(34));
        assert!(k.counters.lazy_rewrites >= 1, "lazy rewriting must trigger");
        expected.smile_faults += k.counters.smile_faults;
        expected.lazy_rewrites += k.counters.lazy_rewrites;
        expected.blocks_built += cpu.cache.stats.blocks_built;
        expected.invalidations += cpu.cache.stats.invalidations;
        expected.chained += cpu.cache.stats.chained;
    }

    // (d) Decode-cache invalidation: run a loop long enough to cache its
    // blocks, poke the text region from the host (generation bump, same
    // bytes), and resume — the next lookup of a cached loop block is
    // stale and must invalidate.
    {
        let bin = assemble(
            "
            _start:
                li t0, 200
                li a0, 0
            loop:
                addi a0, a0, 1
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let (mut cpu, mut mem) = chimera_emu::boot(&bin, ExtSet::RV64GCV);
        cpu.tracer = tracer.clone();
        match chimera_emu::run_cpu(&mut cpu, &mut mem, 50) {
            Err(RunError::OutOfFuel) => {}
            other => panic!("expected an out-of-fuel pause, got {other:?}"),
        }
        let head = mem.peek(bin.entry, 4).unwrap();
        mem.poke_code(bin.entry, &head).unwrap();
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 200);
        assert!(
            cpu.cache.stats.invalidations >= 1,
            "the generation bump must invalidate a cached loop block"
        );
        expected.blocks_built += cpu.cache.stats.blocks_built;
        expected.invalidations += cpu.cache.stats.invalidations;
        expected.chained += cpu.cache.stats.chained;
    }

    // (e) JIT-tier promotion: a hot loop over the compile threshold in
    // Jit mode emits TierPromote events. Hosts without executable pages
    // skip this segment (the tier stays inert there), and the kind
    // check below relaxes to match.
    let jit_available = chimera_emu::jit_available();
    if jit_available {
        let bin = assemble(
            "
            _start:
                li t0, 200
                li a0, 0
            loop:
                addi a0, a0, 1
                addi t0, t0, -1
                bnez t0, loop
                li a7, 93
                ecall
            ",
            AsmOptions::default(),
        )
        .unwrap();
        let (mut cpu, mut mem) = chimera_emu::boot(&bin, ExtSet::RV64GCV);
        cpu.set_mode(chimera_emu::ExecMode::Jit);
        cpu.set_jit_threshold(1);
        cpu.tracer = tracer.clone();
        let r = chimera_emu::run_cpu(&mut cpu, &mut mem, 1_000_000).unwrap();
        assert_eq!(r.exit_code, 200);
        assert!(
            cpu.cache.stats.jit_execs >= 1,
            "the hot loop must promote into the jit tier"
        );
        expected.blocks_built += cpu.cache.stats.blocks_built;
        expected.invalidations += cpu.cache.stats.invalidations;
        expected.chained += cpu.cache.stats.chained;
    }

    // (f) A measured run through the full stack, published into the same
    // registry: the trace dump carries the authoritative totals.
    let m = measure_traced(&process, ExtSet::RV64GC, 1_000_000, &tracer).unwrap();
    assert_eq!(m.exit_code, 14);
    expected.smile_faults += m.counters.smile_faults;
    expected.lazy_rewrites += m.counters.lazy_rewrites;
    expected.blocks_built += m.cache.blocks_built;
    expected.invalidations += m.cache.invalidations;
    expected.chained += m.cache.chained;
    let metrics = tracer.metrics().expect("enabled tracer has metrics");
    let round_trip = Measurement::from_registry(metrics).expect("measurement published");
    assert_eq!(round_trip, m, "publish/from_registry must round-trip");

    // (g) Work-stealing simulation: base tasks plus FAM-only extension
    // tasks force scheduling, stealing and migration events.
    let machine = chimera_kernel::SimMachine {
        base_cores: 2,
        ext_cores: 2,
        migrate_cost: 100,
    };
    let mut tasks = vec![
        chimera_kernel::TaskCost {
            prefers: chimera_kernel::Pool::Base,
            on_ext: 1_000,
            on_base: Some(1_000),
            fam_probe: 0,
            ext_accelerated: false,
        };
        4
    ];
    tasks.extend(vec![
        chimera_kernel::TaskCost {
            prefers: chimera_kernel::Pool::Ext,
            on_ext: 1_000,
            on_base: None,
            fam_probe: 10,
            ext_accelerated: true,
        };
        8
    ]);
    let sim = chimera_kernel::simulate_work_stealing_traced(machine, &tasks, &tracer);
    assert!(sim.migrations > 0, "FAM tasks must migrate");

    // (h) Cross-process variant sharing + pooled process churn: one cold
    // checkout (a fourth traced full rewrite — 6 more RewritePassDone),
    // two warm checkouts (one VariantShared event and one
    // `rewrite.cross_process_hits` count each), then two pooled
    // spawn → run → recycle cycles (one SlotRecycled event and one
    // `pool.slots_recycled` count each, plus `pool.spawn_ns`
    // observations).
    {
        let engine = ChbpEngine {
            target: ExtSet::RV64GC,
            opts: RewriteOptions::default(),
        };
        let shared = SharedVariantCache::new();
        let cold = shared.checkout(&engine, &vec_bin, 0, 2, &tracer).unwrap();
        assert!(!cold.shared_hit, "first checkout pays the rewrite");
        for _ in 0..2 {
            let warm = shared.checkout(&engine, &vec_bin, 0, 2, &tracer).unwrap();
            assert!(warm.shared_hit, "warm checkouts are served shared");
            assert_eq!(warm.rewritten(), cold.rewritten());
        }
        let mut pool = ProcessPool::with_config(DEFAULT_STACK_SIZE, tracer.clone());
        let key = pool.register(Variant {
            binary: cold.rewritten().binary.clone(),
            tables: RuntimeTables {
                fht: Some(cold.rewritten().fht.clone()),
                regen: cold.regen().cloned(),
            },
        });
        for hart in 0..2u64 {
            let (mut cpu, mut mem) = pool.spawn(key, ExtSet::RV64GC).unwrap();
            cpu.tracer = tracer.clone();
            let tables = pool.variant(key).unwrap().tables.clone();
            let mut k = KernelRunner::with_tracer(tables, tracer.clone());
            let outcome = k.run(&mut cpu, &mut mem, 1_000_000);
            assert_eq!(outcome, RunOutcome::Exited(14));
            expected.smile_faults += k.counters.smile_faults;
            expected.lazy_rewrites += k.counters.lazy_rewrites;
            expected.blocks_built += cpu.cache.stats.blocks_built;
            expected.invalidations += cpu.cache.stats.invalidations;
            expected.chained += cpu.cache.stats.chained;
            pool.recycle(key, hart, mem).expect("slot recycles");
        }
    }

    // Drain once and reconcile: every event kind present, and each event
    // count equals both its tracer counter and the authoritative source.
    let records = tracer.drain();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count() as u64;
    for kind in TraceEvent::KINDS {
        if kind == "TierPromote" && !jit_available {
            continue;
        }
        assert!(count(kind) > 0, "no {kind} event in the hetero trace");
    }
    let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
    assert_eq!(count("TierPromote"), counter("emu.blocks_jitted"));

    assert_eq!(count("BlockBuilt"), counter("emu.blocks_built"));
    assert_eq!(count("BlockBuilt"), expected.blocks_built);
    assert_eq!(count("CacheInvalidate"), counter("emu.cache_invalidations"));
    assert_eq!(count("CacheInvalidate"), expected.invalidations);
    // BlockChained is emitted once per *created* link (a cold event); the
    // per-CPU `chained` stat counts link *follows*, so the trace only
    // reconciles against its own counter. Follows are asserted non-zero —
    // the engine must actually run on chains in these loopy scenarios.
    assert_eq!(count("BlockChained"), counter("emu.blocks_chained"));
    assert!(
        expected.chained > 0,
        "the engine must follow chain links in the hetero scenario"
    );
    assert_eq!(count("SmileFaultRecovered"), counter("kernel.smile_faults"));
    assert_eq!(count("SmileFaultRecovered"), expected.smile_faults);
    assert_eq!(count("LazyRewrite"), counter("kernel.lazy_rewrites"));
    assert_eq!(count("LazyRewrite"), expected.lazy_rewrites);
    assert_eq!(count("TaskMigrated"), counter("sched.migrations"));
    assert_eq!(count("TaskMigrated"), sim.migrations as u64);
    assert_eq!(count("TaskScheduled"), counter("sched.tasks_scheduled"));
    let successful_steals = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::StealAttempt { success: true, .. }))
        .count() as u64;
    assert_eq!(successful_steals, counter("sched.steals"));
    // Four traced full rewrites (two chbp_rewrite_traced, the cache
    // priming run, and the shared cache's cold checkout), six pipeline
    // stages each; the incremental run and the warm checkouts emit no
    // per-pass events.
    assert_eq!(count("RewritePassDone"), 24);
    assert_eq!(count("RewriteIncremental"), 1);
    // Cross-process sharing and pooled churn reconcile exactly: every
    // warm checkout is both traced and counted, every recycled slot
    // likewise, and both pooled spawns were latency-observed.
    assert_eq!(count("VariantShared"), 2);
    assert_eq!(
        count("VariantShared"),
        counter("rewrite.cross_process_hits")
    );
    assert_eq!(count("SlotRecycled"), 2);
    assert_eq!(count("SlotRecycled"), counter("pool.slots_recycled"));
    assert_eq!(counter("pool.spawns"), 2);
    assert_eq!(counter("pool.slots_discarded"), 0);
    assert_eq!(metrics.histogram("pool.spawn_ns").count(), 2);
    assert_eq!(
        counter("rewrite.units_reused") + counter("rewrite.units_redone"),
        incremental_total,
        "reuse counters must reconcile with the unit total"
    );
    assert!(
        counter("rewrite.units_redone") >= 1,
        "the dirtied site's unit must be redone"
    );
    assert_eq!(tracer.dropped(), 0, "nothing may have been dropped");

    std::fs::create_dir_all("results").unwrap();
    let json = export_json("hetero", &records, Some(metrics), tracer.dropped());
    std::fs::write("results/trace-hetero.json", &json).unwrap();
    println!("wrote results/trace-hetero.json ({} bytes)", json.len());
    print!("{}", summarize(&records, Some(metrics)));
    if jit_available {
        println!("PASS: all 14 event kinds present, counters reconcile exactly");
    } else {
        println!(
            "PASS: 13/14 event kinds present (TierPromote excused: no \
             executable pages), counters reconcile exactly"
        );
    }
}

fn main() {
    let bin = straight_line_binary();
    overhead_gate(&bin);
    hetero_scenario();
}
