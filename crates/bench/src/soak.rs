//! `repro soak` — the deterministic soak/throughput harness.
//!
//! Streams a profile's seeded job mix (`--quick`, `--extended` or
//! `--stress`; see [`wmm_server::soak`]) through the campaign engine,
//! prints the throughput/latency/cache summary, writes the gated
//! report to `tests/artifacts/soak/<profile>-seed<seed>/report.json`,
//! and appends a trajectory point to `BENCH_soak.json`. The base seed
//! comes from `--seed`, else the `SOAK_SEED` env var, else 2016.
//!
//! Returns whether every gate passed; the `repro` binary exits
//! nonzero otherwise.

use std::path::Path;
use wmm_litmus::parallel::resolve_workers;
use wmm_server::soak::{append_trajectory_point, percentile};
use wmm_server::{run_soak, SoakConfig, SoakProfile};

/// The trajectory file `repro soak` appends to.
const TRAJECTORY_PATH: &str = "BENCH_soak.json";

/// Run a soak profile end to end. Prints the report, writes the
/// artifacts, and returns `true` iff every gate passed.
pub fn run(profile: SoakProfile, seed: u64, workers: usize) -> bool {
    let mut cfg = SoakConfig::new(profile);
    cfg.seed = seed;
    cfg.workers = resolve_workers(workers, usize::MAX);
    println!(
        "soak --{}: seed {}, {} workers",
        profile, cfg.seed, cfg.workers
    );
    let report = match run_soak(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak run failed: {e}");
            return false;
        }
    };
    println!(
        "\n{} jobs ({} litmus, {} app) in {:.2}s — {:.1} jobs/sec",
        report.jobs, report.litmus_jobs, report.app_jobs, report.elapsed_sec, report.jobs_per_sec
    );
    println!(
        "latency ms: p50 {:.2}  p90 {:.2}  p99 {:.2}; max queue depth {}",
        report.latency_ms_p50, report.latency_ms_p90, report.latency_ms_p99, report.max_queue_depth
    );
    println!(
        "artifact cache: {} builds, {} hits ({:.1}% hit rate)",
        report.cache.builds,
        report.cache.hits,
        report.cache.hit_rate() * 100.0
    );
    println!(
        "queue wait us: p50 {:.1}  p90 {:.1}  p99 {:.1}",
        percentile(&report.queue_wait_us, 50.0),
        percentile(&report.queue_wait_us, 90.0),
        percentile(&report.queue_wait_us, 99.0)
    );
    println!(
        "weakness channels (deterministic): {}; provenance: {}",
        report.metrics.channels, report.metrics.provenance
    );
    println!("results digest: {}", report.results_digest);
    println!(
        "gates: throughput {}  cache {}  determinism {} ({} checked, {} mismatches)",
        ok(report.gates.throughput_ok),
        ok(report.gates.cache_ok),
        ok(report.gates.determinism_ok),
        report.determinism_checked,
        report.determinism_mismatches
    );
    match report.write_report(Path::new(".")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write report: {e}"),
    }
    match append_trajectory_point(Path::new(TRAJECTORY_PATH), &report.trajectory_point()) {
        Ok(()) => println!("appended trajectory point to {TRAJECTORY_PATH}"),
        Err(e) => eprintln!("failed to append to {TRAJECTORY_PATH}: {e}"),
    }
    if report.gates.pass {
        println!("soak: PASS");
    } else {
        eprintln!("soak: FAIL (see gate lines in the report)");
    }
    report.gates.pass
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAIL"
    }
}
