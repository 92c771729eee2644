//! Outside-in campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-native|suite-stressed|soak-mix> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--workers W]
//! ```
//!
//! With `--trace 0` the workload runs through the program's public entry
//! points (`wmm_core::suite::run_suite`, `wmm_server::Engine`) for
//! `--seconds` seconds and the end-to-end metrics are printed. With
//! `--trace 1` one round (suites) or batch (soak) runs untraced, then
//! the same work is replayed with spans around every call into a layer,
//! and the per-layer table is printed. Either way the outputs are
//! checked; a violation exits with code 1. The last line of standard
//! output is one JSON object: `correct`, `attempted` (campaigns),
//! `failed` and `metrics`.

mod check;
mod layers;
mod replay;
mod soak;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or mean, printed beside it.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// Attach the sample count.
    pub fn n(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }
}

/// What a workload hands back: the gate's verdict, the metrics of the
/// result line, and figures that are printed only.
pub struct Outcome {
    pub gate: check::Gate,
    pub metrics: Vec<Metric>,
    pub shown: Vec<Metric>,
}

/// Throughput of a run made of rounds (suites) or batches (soak) of
/// identical composition.
///
/// Rates are per second the program could run: each round's wall time
/// less the share the hypervisor stole from the machine's CPUs in that
/// round (see [`stats::Steal`]). On a shared host that share swings
/// from 0 to a quarter of the time; left in, it would move the rates
/// far more than any change to the program.
#[derive(Debug, Default)]
pub struct Throughput {
    /// Per round: (runs, campaigns, wall seconds, stolen share).
    rounds: Vec<(f64, f64, f64, f64)>,
    weak: u64,
}

impl Throughput {
    /// Record one round's deterministic totals, its wall time and the
    /// share of it that was stolen.
    pub fn add(&mut self, c: &check::Counters, wall_s: f64, stolen: f64) {
        self.rounds
            .push((c.runs as f64, c.campaigns as f64, wall_s, stolen));
        self.weak += c.weak;
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.2).sum()
    }

    /// Median over rounds of `f(round)`.
    fn median(&self, f: impl Fn(&(f64, f64, f64, f64)) -> f64) -> f64 {
        let xs: Vec<f64> = self.rounds.iter().map(f).collect();
        stats::median(&xs).unwrap_or(0.0)
    }

    /// `runs_per_s` and `jobs_per_s` as medians over rounds, so one
    /// disturbed round cannot move them.
    pub fn metrics(&self) -> [Metric; 2] {
        let n = self.rounds();
        let own = |r: &(f64, f64, f64, f64)| r.2 * (1.0 - r.3);
        [
            Metric::new(
                "runs_per_s",
                self.median(|r| stats::ratio(r.0, own(r))),
                "1/s",
            )
            .n(n),
            Metric::new(
                "jobs_per_s",
                self.median(|r| stats::ratio(r.1, own(r))),
                "1/s",
            )
            .n(n),
        ]
    }

    /// Printed beside the metrics: the uncorrected rate, the stolen
    /// share, and weak outcomes (plus erroneous application runs) per
    /// wall second with their count.
    pub fn shown(&self) -> Vec<Metric> {
        let n = self.rounds();
        vec![
            Metric::new(
                "wall_runs_per_s",
                self.median(|r| stats::ratio(r.0, r.2)),
                "1/s",
            )
            .n(n),
            Metric::new("steal_share", self.median(|r| r.3), "ratio").n(n),
            Metric::new(
                "weak_per_s",
                stats::ratio(self.weak as f64, self.wall_s()),
                "1/s",
            )
            .n(self.weak as usize),
        ]
    }
}

/// The end-to-end metrics of an untraced run: throughput, exact
/// percentiles of per-campaign latency, set-up time and peak memory.
pub fn end_to_end(tp: &Throughput, latency_ms: &[f64], setup: &SetupTimes) -> Outcome {
    let pct = |p| stats::percentile(latency_ms, p).unwrap_or(0.0);
    let [runs, jobs] = tp.metrics();
    Outcome {
        gate: check::Gate::default(),
        metrics: vec![
            runs,
            jobs,
            Metric::new("job_ms_p50", pct(50.0), "ms").n(latency_ms.len()),
            Metric::new("job_ms_p99", pct(99.0), "ms").n(latency_ms.len()),
            setup.metric(),
            Metric::new("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB"),
        ],
        shown: tp.shown(),
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Campaign parallelism (suites) or engine workers (soak).
    pub workers: usize,
}

/// Set-up repetitions before the first round and after every round.
pub const SETUP_REPS: usize = 3;

/// Set-up timings. Set-up is repeated before the first round and again
/// after every round, so its samples span the whole run and one
/// disturbed moment cannot move their median, which is `setup_s`.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Run `setup` once, timed, and keep its product.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    /// Run `setup` [`SETUP_REPS`] times, timed; products are dropped
    /// after their timing ends.
    pub fn repeat<T>(&mut self, mut setup: impl FnMut() -> T) {
        for _ in 0..SETUP_REPS {
            drop(self.time(&mut setup));
        }
    }

    pub fn metric(&self) -> Metric {
        Metric::new("setup_s", stats::median(&self.0).unwrap_or(0.0), "s").n(self.0.len())
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        workers: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--workers" => args.workers = value.parse::<usize>().map_err(|_| bad())?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn print_metric(m: &Metric) {
    let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
    println!("  {:<28} {:>16.6} {}{n}", m.name, m.value, m.unit);
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gate.correct(),
        out.gate.attempted.max(1),
        out.gate.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "suite-native" | "suite-stressed" => suite::run(&args),
        "soak-mix" => soak::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (suite-native, suite-stressed, soak-mix)"
            );
            return ExitCode::from(2);
        }
    };
    let mode = if args.trace {
        "traced per-layer table"
    } else {
        "end-to-end"
    };
    println!(
        "{} seed {} workers {}: {mode}",
        args.workload, args.seed, args.workers
    );
    for m in outcome.metrics.iter().chain(&outcome.shown) {
        print_metric(m);
    }
    let share = stats::ratio(outcome.gate.failed as f64, outcome.gate.attempted as f64);
    println!(
        "  correctness: {} campaigns attempted, {} failed ({:.4}%)",
        outcome.gate.attempted,
        outcome.gate.failed,
        100.0 * share
    );
    for p in outcome.gate.problems.iter().take(20) {
        println!("  VIOLATION {p}");
    }
    println!("{}", result_line(&outcome));
    if outcome.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_per_runnable_second_and_a_median_over_rounds() {
        let c = check::Counters {
            campaigns: 10,
            runs: 1000,
            ..Default::default()
        };
        let mut tp = Throughput::default();
        tp.add(&c, 1.0, 0.0);
        tp.add(&c, 2.0, 0.5);
        tp.add(&c, 10.0, 0.0);
        let [runs, jobs] = tp.metrics();
        assert_eq!(
            (runs.value, jobs.value, runs.samples),
            (1000.0, 10.0, Some(3))
        );
        assert_eq!(tp.wall_s(), 13.0);
        let shown = tp.shown();
        assert_eq!(shown[0].value, 500.0, "uncorrected median");
        assert_eq!(shown[1].value, 0.0, "median stolen share");
    }
}
