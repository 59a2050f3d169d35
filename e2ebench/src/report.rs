//! The run report: host facts, metrics by name and unit, and the final
//! one-line JSON result.

use crate::check::{SelfChecks, Tally};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Facts about the host and the configuration every report records.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `std::thread::available_parallelism`.
    pub hw_threads: usize,
    /// Transform workers of the rewrite pipeline: its default, which
    /// never exceeds `hw_threads`.
    pub rewrite_workers: usize,
    /// Logical workers of the many-hart kernel (capped at `hw_threads`).
    pub kernel_workers: usize,
    /// Whether the host can execute JIT-compiled guest code.
    pub jit_available: bool,
    /// The commit being measured, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl HostInfo {
    /// Probes the host.
    pub fn probe() -> HostInfo {
        let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostInfo {
            hw_threads,
            rewrite_workers: chimera::rewrite::default_workers(),
            kernel_workers: 2.min(hw_threads),
            jit_available: chimera::emu::jit_available(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Reads the checked-out commit from `.git` in the working directory
/// without starting a process.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Resets this process's peak resident set size to its current one
/// (`/proc/self/clear_refs`), so that [`peak_rss_mib`] then covers only
/// what runs after. False when the host does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start or
/// since the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Everything one benchmark invocation reports.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced invocation.
    pub trace: bool,
    /// Host facts.
    pub host: HostInfo,
    /// Guests attempted / failed in the untraced timed region.
    pub tally: Tally,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run; empty when untraced).
    pub per_layer: Vec<Metric>,
    /// Self-check failures.
    pub checks: SelfChecks,
    /// Free-form description lines (workload shape, counts).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for one invocation.
    pub fn new(workload: &str, seed: u64, trace: bool, host: HostInfo) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            host,
            tally: Tally::default(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            checks: SelfChecks::default(),
            notes: Vec::new(),
        }
    }

    /// Whether every guest matched its reference and every self-check
    /// held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.errors.is_empty()
    }

    /// The metrics the final line carries: end-to-end when untraced,
    /// per-layer when traced.
    pub fn result_metrics(&self) -> &[Metric] {
        if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The human-readable report, one fact per line.
    pub fn text(&self) -> String {
        let h = &self.host;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload={} seed={} trace={} git_rev={} hw_threads={} rewrite_workers={} \
             kernel_workers={} jit_available={}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            h.git_rev,
            h.hw_threads,
            h.rewrite_workers,
            h.kernel_workers,
            h.jit_available
        );
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        let groups: [(&str, &[Metric]); 2] = [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ];
        for (title, metrics) in groups.into_iter().filter(|(_, m)| !m.is_empty()) {
            let _ = writeln!(s, "{title}:");
            for m in metrics {
                let _ = writeln!(s, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        let _ = writeln!(
            s,
            "  {:<28} {:>16.6} fraction ({} of {} guests failed)",
            "failed_frac",
            self.tally.failed_frac(),
            self.tally.failed,
            self.tally.attempted
        );
        for r in &self.tally.reasons {
            let _ = writeln!(s, "FAILED guest {r}");
        }
        for e in &self.checks.errors {
            let _ = writeln!(s, "FAILED self-check {e}");
        }
        s
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.result_metrics().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest form that reads back as the same
            // f64, so no digit is lost and integers keep a `.0`.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
