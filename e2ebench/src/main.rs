//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <rewrite_cold|exec_hot|churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 0 only when every guest matched its reference and
//! every self-check held.

use chimera_e2ebench::check::Reconciliation;
use chimera_e2ebench::report::{peak_rss_mib, reset_peak_rss, HostInfo, Report};
use chimera_e2ebench::single::{self, Workload, EXEC_HOT, REWRITE_COLD};
use chimera_e2ebench::{churn, set_up_repeatedly, MetricSet};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <rewrite_cold|exec_hot|churn> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// End-to-end metrics, and per-layer metrics when traced.
type Measured = (MetricSet, Option<MetricSet>);

/// Notes the set-up's peak resident memory and resets the mark, so that
/// `peak_rss_mb` covers the timed region only.
fn start_timed_region(r: &mut Report) {
    let setup_peak = peak_rss_mib().unwrap_or(0.0);
    let covers = if reset_peak_rss() {
        "the timed region only"
    } else {
        "set-up too (the host refused to reset VmHWM)"
    };
    r.notes.push(format!(
        "peak RSS of set-up {setup_peak:.1} MiB; peak_rss_mb covers {covers}"
    ));
}

/// Records the run's span ledger: a summary line and any broken rule.
fn finish_reconciliation(recon: Reconciliation, r: &mut Report) {
    r.notes.push(recon.summary());
    recon.finish(&mut r.checks);
}

fn run_single(
    w: &Workload,
    args: &Args,
    host: &HostInfo,
    r: &mut Report,
) -> Result<Measured, String> {
    let (inputs, setup_s) = set_up_repeatedly(|| single::setup(w, args.seed))?;
    r.notes.push(format!(
        "closed loop, one client; inputs per cycle: {}",
        inputs
            .iter()
            .map(|i| format!("{} ({} B .text)", i.name, i.text_bytes))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut recon = Reconciliation::default();
    start_timed_region(r);
    let timed = single::timed(w, &inputs, args.seconds, &mut r.tally, &mut recon);
    let e2e = single::end_to_end(&inputs, &timed, setup_s);
    r.notes.extend(single::shape_notes(&inputs, &timed));
    let layers = args.trace.then(|| {
        single::per_layer(
            w,
            &inputs,
            &timed,
            host.rewrite_workers,
            &mut recon,
            &mut r.checks,
        )
    });
    finish_reconciliation(recon, r);
    Ok((e2e, layers))
}

fn run_churn(args: &Args, host: &HostInfo, r: &mut Report) -> Result<Measured, String> {
    let mut cold_mb_s = Vec::new();
    let (mut s, setup_s) = set_up_repeatedly(|| {
        let s = churn::setup(args.seed, host.rewrite_workers)?;
        cold_mb_s.extend(churn::cold_rewrite(&s));
        Ok(s)
    })?;
    r.notes.push(format!(
        "closed loop, one client; rounds of {} pooled guests (vector, communicator pairs, fib, \
         matrix; {} distinct binaries), kernel Engine tier",
        churn::ROUND_GUESTS,
        churn::DISTINCT_BINARIES
    ));
    let workers = (host.rewrite_workers, host.kernel_workers);
    let mut recon = Reconciliation::default();
    start_timed_region(r);
    let timed = churn::timed(&mut s, workers, args.seconds, &mut r.tally, &mut recon);
    let e2e = churn::end_to_end(&s, &timed, setup_s, &cold_mb_s);
    let layers = args
        .trace
        .then(|| churn::per_layer(&s, &timed, workers, &mut recon, &mut r.checks));
    finish_reconciliation(recon, r);
    Ok((e2e, layers))
}

fn run(args: &Args) -> Result<Report, String> {
    let host = HostInfo::probe();
    let mut r = Report::new(&args.workload, args.seed, args.trace, host.clone());
    let (e2e, layers) = match args.workload.as_str() {
        "rewrite_cold" => run_single(&REWRITE_COLD, args, &host, &mut r)?,
        "exec_hot" => run_single(&EXEC_HOT, args, &host, &mut r)?,
        "churn" => run_churn(args, &host, &mut r)?,
        other => return Err(format!("unknown workload {other}")),
    };
    r.end_to_end = e2e.into_metrics();
    r.per_layer = layers.map(MetricSet::into_metrics).unwrap_or_default();
    for m in r.end_to_end.iter_mut().chain(r.per_layer.iter_mut()) {
        if !m.value.is_finite() {
            r.checks
                .errors
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    Ok(r)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.text());
            println!("{}", report.json());
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
