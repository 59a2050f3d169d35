//! Tests of the benchmark's own helpers: order statistics, seed
//! derivation, the reference check and its tally, and the metric lists.

use chimera::kernel::FaultCounters;
use chimera_e2ebench::check::{judge, Reconciliation, SelfChecks, SimRecord, Tally};
use chimera_e2ebench::report::{HostInfo, Report};
use chimera_e2ebench::stats::{derive_seed, geomean, median, percentile, shuffled};
use chimera_e2ebench::{MetricSet, END_TO_END, PER_LAYER};

#[test]
fn percentile_is_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), Some(50.0));
    assert_eq!(percentile(&values, 99.0), Some(99.0));
    assert_eq!(percentile(&values, 100.0), Some(100.0));
    assert_eq!(percentile(&values, 0.0), Some(1.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[1.0], 101.0), None);
}

#[test]
fn median_and_geomean() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    let g = geomean(&[2.0, 8.0]).expect("positive ratios");
    assert!((g - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
}

#[test]
fn derived_seeds_are_stable_and_independent() {
    assert_eq!(derive_seed(7, "gcc_r#0"), derive_seed(7, "gcc_r#0"));
    assert_ne!(derive_seed(7, "gcc_r#0"), derive_seed(7, "gcc_r#1"));
    assert_ne!(derive_seed(7, "gcc_r#0"), derive_seed(8, "gcc_r#0"));
    assert_ne!(derive_seed(0, ""), 0);
    // Pinned, so a change to the derivation (which changes every input,
    // and so every baseline) cannot go unnoticed.
    assert_eq!(derive_seed(1, "order"), 0x8423_f108_2487_33b3);
    let a = shuffled(64, derive_seed(3, "roster"));
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "a permutation");
    assert_eq!(a, shuffled(64, derive_seed(3, "roster")), "seeded");
    assert_ne!(a, shuffled(64, derive_seed(4, "roster")));
}

fn record(exit: Option<i64>, cycles: u64) -> SimRecord {
    SimRecord {
        exit,
        instret: 100,
        cycles,
        state: 0xabc,
        faults: FaultCounters::default(),
    }
}

#[test]
fn reference_mismatch_counts_into_failed_frac_and_the_run_goes_on() {
    let mut tally = Tally::default();
    let first = record(Some(14), 500);
    tally.record("first", judge(14, None, &first));
    tally.record("same", judge(14, Some(&first), &record(Some(14), 500)));
    // Wrong exit code against the reference run.
    tally.record("bad exit", judge(14, Some(&first), &record(Some(15), 500)));
    // Right exit, but simulated cycles differ from the first run.
    tally.record(
        "bad cycles",
        judge(14, Some(&first), &record(Some(14), 501)),
    );
    // No exit at all (fatal trap or out of fuel).
    tally.record("no exit", judge(14, Some(&first), &record(None, 500)));
    tally.record("after", judge(14, Some(&first), &record(Some(14), 500)));
    assert_eq!((tally.attempted, tally.failed), (6, 3));
    assert!((tally.failed_frac() - 0.5).abs() < 1e-12);
    assert_eq!(tally.reasons.len(), 3);
    assert!(tally.reasons[0].starts_with("bad exit"));
    assert_eq!(Tally::default().failed_frac(), 0.0);
}

fn reconcile(guests: &[(u64, &[u64])]) -> Vec<String> {
    let mut r = Reconciliation::default();
    for (wall, spans) in guests {
        r.add("guest", *wall, spans);
    }
    let mut checks = SelfChecks::default();
    r.finish(&mut checks);
    checks.errors
}

#[test]
fn span_reconciliation_has_a_stated_epsilon() {
    const MS: u64 = 1_000_000;
    // Exact cover, and a gap within 1 ms + 2 % of one guest and within
    // 2 % of the total.
    let fine: [(u64, &[u64]); 2] = [
        (100 * MS, &[40 * MS, 60 * MS]),
        (100 * MS, &[40 * MS, 57 * MS]),
    ];
    assert!(reconcile(&fine).is_empty());
    // A missing layer: 2 ms of every 10 ms uncovered.
    let missing: [(u64, &[u64]); 2] = [(10 * MS, &[4 * MS, 4 * MS]); 2];
    assert_eq!(reconcile(&missing).len(), 2);
    // Spans longer than the wall time they sit in.
    assert_eq!(reconcile(&[(10 * MS, &[6 * MS, 6 * MS])]).len(), 1);
    // One descheduled guest in a hundred is tolerated while the total
    // gap stays small; a second one is not.
    let short: &[u64] = &[96 * MS];
    let mut guests: Vec<(u64, &[u64])> = vec![(100 * MS, &[100 * MS]); 99];
    guests.push((100 * MS, short));
    assert!(reconcile(&guests).is_empty());
    guests[0] = (100 * MS, short);
    assert_eq!(reconcile(&guests).len(), 1);
    // A short run may still lose one guest to the host.
    let mut five: Vec<(u64, &[u64])> = vec![(100 * MS, &[100 * MS]); 4];
    five.push((100 * MS, short));
    assert!(reconcile(&five).is_empty());
}

#[test]
fn reconciliation_summary_names_the_largest_gap() {
    const MS: u64 = 1_000_000;
    let mut r = Reconciliation::default();
    r.add("a", 100 * MS, &[99 * MS]);
    r.add("b", 100 * MS, &[96 * MS]);
    r.add("c", 100 * MS, &[100 * MS]);
    let line = r.summary();
    assert!(line.contains("3 guests or rounds"), "{line}");
    assert!(
        line.contains("largest gap 4.000 ms (4.00 % of b)"),
        "{line}"
    );
    assert!(line.contains("1 over the slack"), "{line}");
    assert!(line.contains("total gap 1.667 % of 0.30 s"), "{line}");
}

#[test]
fn metric_sets_report_every_declared_metric() {
    let mut m = MetricSet::new(END_TO_END);
    m.set("setup_s", 1.5);
    let out = m.into_metrics();
    assert_eq!(out.len(), END_TO_END.len());
    assert_eq!(out[0].value, 1.5);
    assert!(out[1..].iter().all(|x| x.value == 0.0));
}

#[test]
#[should_panic(expected = "not declared")]
fn undeclared_metrics_are_refused() {
    MetricSet::new(PER_LAYER).set("no.such_metric", 1.0);
}

/// `BENCHMARK.json` must name exactly the metrics the program reports,
/// with the same units.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let declared = json.matches("\"unit\"").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn result_line_carries_the_metrics_of_the_invocation() {
    let host = HostInfo {
        hw_threads: 2,
        rewrite_workers: 2,
        kernel_workers: 2,
        jit_available: true,
        git_rev: "unknown".to_string(),
    };
    let mut r = Report::new("churn", 7, false, host);
    let mut e2e = MetricSet::new(END_TO_END);
    e2e.set("setup_s", 0.25);
    r.end_to_end = e2e.into_metrics();
    r.per_layer = MetricSet::new(PER_LAYER).into_metrics();
    r.tally.record("guest", Ok(()));
    let json = r.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    assert!(json.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
    assert!(!json.contains("trace.overhead_pct"));
    assert!(json.ends_with("}}"));

    r.trace = true;
    assert!(r.json().contains("trace.overhead_pct"));
    r.tally
        .record("guest", Err("exit 1, reference exit 0".to_string()));
    assert!(r
        .json()
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    assert!(r.text().contains("FAILED guest guest: exit 1"));
}
