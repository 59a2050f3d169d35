//! End-to-end benchmark of the Chimera pipeline: one binary handed in,
//! rewritten by CHBP, spawned, executed under the kernel, exited.
//!
//! The benchmark measures the crates from outside: it times calls into
//! their public functions and reads the counters and trace events the
//! program already emits through `chimera-trace`. See `README.md` for the
//! workloads, the metrics and how each layer metric relates to an
//! end-to-end one.

pub mod check;
pub mod churn;
pub mod report;
pub mod single;
pub mod stats;

use chimera::isa::ExtSet;
use chimera::obj::Binary;
use chimera::rewrite::{ChbpEngine, RewriteOptions};
use chimera::trace::{RewritePass, TraceEvent};
use report::Metric;
use std::collections::BTreeMap;

/// Instruction budget per guest run; every workload guest exits long
/// before it, so reaching it counts as a failure.
pub const FUEL: u64 = 1 << 40;

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("guests_per_s", "1/s"),
    ("guest_ms_p50", "ms"),
    ("rewrite_mb_s", "MB/s"),
    ("guest_mips", "Minst/s"),
    ("sim_cycle_ratio", "ratio"),
    ("code_growth", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with units, in report order. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.prepare_ms", "ms"),
    ("rewrite.scan_ms", "ms"),
    ("rewrite.plan_ms", "ms"),
    ("rewrite.transform_ms", "ms"),
    ("rewrite.place_ms", "ms"),
    ("rewrite.link_ms", "ms"),
    ("rewrite.verify_ms", "ms"),
    ("rewrite.units", "count"),
    ("rewrite.sites", "count"),
    ("rewrite.checkout_us_p50", "us"),
    ("rewrite.shared_hit_ratio", "ratio"),
    ("emu.load_us_p50", "us"),
    ("emu.run_ms", "ms"),
    ("emu.blocks_built", "count"),
    ("emu.blocks_chained", "count"),
    ("emu.blocks_jitted", "count"),
    ("emu.cache_invalidations", "count"),
    ("emu.block_hit_ratio", "ratio"),
    ("emu.sim_cpi", "cycles/inst"),
    ("kernel.traps", "count"),
    ("kernel.smile_faults", "count"),
    ("kernel.lazy_rewrites", "count"),
    ("kernel.spawn_us_p50", "us"),
    ("kernel.spawn_us_p99", "us"),
    ("kernel.recycle_us_per_slot", "us"),
    ("pool.restored_bytes", "B"),
    ("pool.slots_discarded", "count"),
    ("kernel.round_ms", "ms"),
    ("kernel.slots", "count"),
    ("kernel.us_per_slot", "us"),
    ("many.delivered_ipi", "count"),
    ("many.delivered_timer", "count"),
    ("many.migrations", "count"),
    ("trace.overhead_pct", "%"),
];

/// Values keyed by metric name, checked against one of the lists above.
pub struct MetricSet {
    list: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// An empty set over `list`.
    pub fn new(list: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet {
            list,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be in the list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.list.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Every listed metric in list order; unset ones read 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        self.list
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.values.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

/// The product rewrite: CHBP downgrading RV64GCV input for RV64GC cores.
pub fn chbp_engine() -> ChbpEngine {
    ChbpEngine {
        target: ExtSet::RV64GC,
        opts: RewriteOptions::default(),
    }
}

/// Bytes of every section of `bin`.
pub fn image_bytes(bin: &Binary) -> u64 {
    bin.sections.iter().map(|s| s.data.len() as u64).sum()
}

/// The per-pass metrics, in pipeline order.
pub const PASS_METRICS: [&str; 6] = [
    "rewrite.scan_ms",
    "rewrite.plan_ms",
    "rewrite.transform_ms",
    "rewrite.place_ms",
    "rewrite.link_ms",
    "rewrite.verify_ms",
];

/// What the `RewritePassDone` events of one or more rewrites report.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassStats {
    /// Nanoseconds per pass, in [`PASS_METRICS`] order.
    pub ns: [u64; 6],
    /// Units partitioned (plan items).
    pub units: u64,
    /// Sites patched (link items).
    pub sites: u64,
}

impl PassStats {
    /// Folds `event` in; false when it is not a `RewritePassDone`.
    pub fn add(&mut self, event: &TraceEvent) -> bool {
        let TraceEvent::RewritePassDone { pass, nanos, items } = *event else {
            return false;
        };
        let index = match pass {
            RewritePass::Scan => 0,
            RewritePass::Plan => 1,
            RewritePass::Transform => 2,
            RewritePass::Place => 3,
            RewritePass::Link => 4,
            RewritePass::Verify => 5,
        };
        self.ns[index] += nanos;
        match pass {
            RewritePass::Plan => self.units += items,
            RewritePass::Link => self.sites += items,
            _ => {}
        }
        true
    }

    /// Accumulates `other`.
    pub fn merge(&mut self, other: &PassStats) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.units += other.units;
        self.sites += other.sites;
    }

    /// Nanoseconds over every pass.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Sets the pass metrics (mean per rewrite over `rewrites`) and the
    /// work counts.
    pub fn report(&self, rewrites: usize, m: &mut MetricSet) {
        for (name, ns) in PASS_METRICS.into_iter().zip(self.ns) {
            m.set(name, ns as f64 / rewrites.max(1) as f64 / 1e6);
        }
        m.set("rewrite.units", self.units as f64);
        m.set("rewrite.sites", self.sites as f64);
    }
}

/// Set-ups per invocation; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Runs `set_up` [`SETUPS`] times, dropping each result before the next,
/// and returns the last one with the median set-up time in seconds.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(set_up()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&seconds).expect("SETUPS > 0");
    Ok((last.expect("SETUPS > 0"), median))
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: std::time::Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
