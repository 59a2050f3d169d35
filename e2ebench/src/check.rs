//! Correctness checks: every guest against its reference, and the
//! self-checks that make the benchmark fail instead of reporting numbers
//! it cannot vouch for.

use chimera::kernel::FaultCounters;

/// What one guest run produced, in simulated terms only: the values that
/// must repeat exactly for the same input, whatever the host did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRecord {
    /// Exit code, or `None` when the guest trapped fatally or ran out of
    /// fuel.
    pub exit: Option<i64>,
    /// Instructions retired.
    pub instret: u64,
    /// Cost-model cycles.
    pub cycles: u64,
    /// Digest of the final architectural state.
    pub state: u64,
    /// Kernel fault-handling counters.
    pub faults: FaultCounters,
}

/// Judges one guest: its exit code must equal the reference run's, and
/// when an earlier run of the same input exists (`baseline`), every
/// simulated value must equal that run's bit for bit.
pub fn judge(
    expected_exit: i64,
    baseline: Option<&SimRecord>,
    got: &SimRecord,
) -> Result<(), String> {
    if got.exit != Some(expected_exit) {
        return Err(format!(
            "exit {:?}, reference exit {expected_exit}",
            got.exit
        ));
    }
    match baseline {
        Some(first) if first != got => Err(format!(
            "simulated stats {got:?} differ from the first run {first:?}"
        )),
        _ => Ok(()),
    }
}

/// Guests attempted and failed. A failure is counted and the run keeps
/// going; the first few reasons are kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Guests attempted.
    pub attempted: u64,
    /// Guests that failed their check.
    pub failed: u64,
    /// The first failure reasons, labelled.
    pub reasons: Vec<String>,
}

/// Failure reasons kept per report.
const KEPT_REASONS: usize = 8;

impl Tally {
    /// Counts one guest with its verdict.
    pub fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.reasons.len() < KEPT_REASONS {
                self.reasons.push(format!("{label}: {why}"));
            }
        }
    }

    /// Failed guests ÷ attempted guests (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The self-check ledger: a benchmark run with any entry here fails.
#[derive(Debug, Default)]
pub struct SelfChecks {
    /// One line per broken invariant.
    pub errors: Vec<String>,
}

impl SelfChecks {
    /// Records an error unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Requires two values that must agree exactly to be equal.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, left: T, right: T) {
        self.require(left == right, || format!("{what}: {left:?} != {right:?}"));
    }
}

/// Layer reconciliation: the spans the benchmark records around each
/// public call of one guest (or round) must add up to that guest's wall
/// time. The only host work between spans is clock reads and moves, so a
/// guest whose spans fall short by more than [`SPAN_SLACK_NS`] plus
/// [`SPAN_SLACK_FRAC`] of its wall time has an unmeasured layer — unless
/// the host descheduled the thread between two spans. One ledger covers a
/// whole invocation, the untraced timed region and the traced pass
/// together, so the rules below are judged over at least `--seconds` of
/// wall time. The run fails when more than [`SPAN_EXCEPTIONS`] of its
/// guests (rounded up, so at least one may) exceed the slack, when all
/// gaps together exceed [`SPAN_SLACK_FRAC`] of all wall time, or when
/// spans ever exceed the wall time they sit in.
#[derive(Debug, Default)]
pub struct Reconciliation {
    guests: u64,
    wall_ns: u64,
    gap_ns: u64,
    /// The largest gap: label, gap ns, wall ns.
    largest: Option<(String, u64, u64)>,
    /// Guests over the slack: label, covered ns, wall ns.
    over: Vec<(String, u64, u64)>,
    overflows: Vec<String>,
}

impl Reconciliation {
    /// Adds one guest's wall time and the spans recorded inside it.
    pub fn add(&mut self, label: &str, wall_ns: u64, span_ns: &[u64]) {
        let covered: u64 = span_ns.iter().sum();
        self.guests += 1;
        self.wall_ns += wall_ns;
        if covered > wall_ns {
            self.overflows
                .push(format!("{label}: spans {covered} ns > wall {wall_ns} ns"));
            return;
        }
        let gap = wall_ns - covered;
        self.gap_ns += gap;
        if self.largest.as_ref().is_none_or(|l| gap > l.1) {
            self.largest = Some((label.to_string(), gap, wall_ns));
        }
        if gap > SPAN_SLACK_NS + (wall_ns as f64 * SPAN_SLACK_FRAC) as u64 {
            self.over.push((label.to_string(), covered, wall_ns));
        }
    }

    /// One line for the report: the largest gap and the total.
    pub fn summary(&self) -> String {
        let largest = self
            .largest
            .as_ref()
            .map_or("none".to_string(), |(l, gap, wall)| {
                format!(
                    "{:.3} ms ({:.2} % of {l})",
                    *gap as f64 / 1e6,
                    *gap as f64 * 100.0 / *wall as f64
                )
            });
        format!(
            "reconciliation: {} guests or rounds, largest gap {largest}, {} over the slack, total gap \
             {:.3} % of {:.2} s",
            self.guests,
            self.over.len(),
            self.gap_ns as f64 * 100.0 / self.wall_ns.max(1) as f64,
            self.wall_ns as f64 / 1e9
        )
    }

    /// Records every broken rule into `checks`.
    pub fn finish(self, checks: &mut SelfChecks) {
        for o in self.overflows {
            checks.errors.push(format!("reconciliation: {o}"));
        }
        let allowed = (self.guests as f64 * SPAN_EXCEPTIONS).ceil() as usize;
        checks.require(self.over.len() <= allowed, || {
            let (label, covered, wall) = &self.over[0];
            format!(
                "reconciliation: {} of {} guests' spans fall short of their wall time by more \
                 than the slack (allowed {allowed}); first: {label} spans cover {covered} of {wall} ns",
                self.over.len(),
                self.guests
            )
        });
        checks.require(
            self.gap_ns as f64 <= self.wall_ns as f64 * SPAN_SLACK_FRAC,
            || {
                format!(
                    "reconciliation: spans leave {} of {} ns wall time uncovered",
                    self.gap_ns, self.wall_ns
                )
            },
        );
    }
}

/// Fixed part of the span-reconciliation epsilon.
pub const SPAN_SLACK_NS: u64 = 1_000_000;
/// Proportional part of the span-reconciliation epsilon, per guest and
/// over the whole run.
pub const SPAN_SLACK_FRAC: f64 = 0.02;
/// Share of guests allowed over the slack (host descheduling).
pub const SPAN_EXCEPTIONS: f64 = 0.01;
