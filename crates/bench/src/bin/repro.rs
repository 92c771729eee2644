//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--chips A,B,...] [--execs N] [--runs N] [--seed N]
//!                    [--workers N] [--json PATH] [--placement inter|intra]
//!                    [--provenance] [--env NAME] [--full]
//!
//! experiments:
//!   fig3            patch-finding plots (Titan, C2075, 980)
//!   table2          tuned stressing parameters per chip
//!   table3          access-sequence ranking snippet (Titan)
//!   fig4            spread-finding curves (980, K20)
//!   table5          testing-environment effectiveness
//!   table6          empirical fence insertion
//!   fig5            fence runtime/energy cost
//!   running-example cbe-dot on the K20 (Sec. 1)
//!   suite           generated litmus suite (shapes x chips x strategies;
//!                   --provenance adds the weakness-channel breakdown
//!                   column and JSON fields)
//!   trace SHAPE     replay one campaign with a bounded event log
//!                   (--chips C picks the chip, default Titan; --env NAME
//!                   picks the suite environment, default by placement;
//!                   --json PATH writes the buffered events)
//!   analyze TARGET  static delay-set analysis of a shape or app kernel
//!                   (TARGET: shape short name, app name, shapes, apps, all;
//!                   --chips A,B re-runs the analysis per chip, adding the
//!                   incoherent-L1 read-read channel where the chip has one)
//!   serve           batch campaign jobs through the engine
//!                   (--jobs FILE-or-inline-spec; jobs separated by
//!                   newlines or `;`)
//!   soak            deterministic soak/throughput harness
//!                   (--quick|--extended|--stress; seed from --seed,
//!                   else SOAK_SEED, else 2016; exits nonzero when a
//!                   throughput/cache/determinism gate fails)
//!   all             everything above, in order (except serve/soak)
//!
//! `--seed N` sets the base seed every subcommand derives its
//! per-campaign seeds from (default 2016) — one flag reseeds the entire
//! reproduction. `--workers N` sets the campaign worker-thread count
//! (0 = all cores; default from the WMM_WORKERS env var). Results are
//! bit-identical for every worker count. `--json PATH` (suite and
//! analyze) writes the result as JSON. `--placement inter|intra`
//! (suite only) restricts the catalogue to one thread placement —
//! `intra` runs just the scoped shared-memory shapes.
//! ```

use wmm_bench::{
    analyze, fig3, fig4, fig5, running, serve, soak, suite, table2, table3, table5, table6, trace,
    Scale,
};
use wmm_server::SoakProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return;
    };
    let mut scale = if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    // Env fallback first; an explicit --workers flag overrides it.
    if let Ok(v) = std::env::var("WMM_WORKERS") {
        if let Ok(w) = v.parse() {
            scale.workers = w;
        }
    }
    let mut chips: Option<Vec<String>> = None;
    let mut json_path: Option<String> = None;
    let mut placement: Option<wmm_gen::Placement> = None;
    let mut jobs_spec: Option<String> = None;
    let mut soak_profile = SoakProfile::Quick;
    let mut seed_flag: Option<u64> = None;
    let mut provenance = false;
    let mut env_name: Option<String> = None;
    // `analyze` and `trace` take one positional target before the flags.
    let mut analyze_target: Option<String> = None;
    let mut flag_start = 1;
    if cmd == "analyze" || cmd == "trace" {
        match args.get(1) {
            Some(t) if !t.starts_with("--") => {
                analyze_target = Some(t.clone());
                flag_start = 2;
            }
            _ => {
                if cmd == "analyze" {
                    eprintln!("analyze wants a target (shape, app, shapes, apps, or all)");
                } else {
                    eprintln!("trace wants a shape short name (e.g. MP, CoRR, MP.shared)");
                }
                usage();
                return;
            }
        }
    }
    let mut it = args.iter().skip(flag_start);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chips" => {
                chips = it
                    .next()
                    .map(|v| v.split(',').map(str::to_string).collect());
            }
            "--execs" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    scale.execs = v;
                }
            }
            "--runs" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    scale.app_runs = v;
                }
            }
            "--seed" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    scale.seed = v;
                    seed_flag = Some(v);
                }
            }
            "--jobs" => {
                jobs_spec = it.next().cloned();
            }
            "--provenance" => provenance = true,
            "--env" => {
                env_name = it.next().cloned();
            }
            "--quick" => soak_profile = SoakProfile::Quick,
            "--extended" => soak_profile = SoakProfile::Extended,
            "--stress" => soak_profile = SoakProfile::Stress,
            "--workers" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    scale.workers = v;
                }
            }
            "--json" => {
                json_path = it.next().cloned();
            }
            "--placement" => match it.next() {
                Some(v) => match v.parse() {
                    Ok(p) => placement = Some(p),
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                        return;
                    }
                },
                None => {
                    eprintln!("--placement wants a value (inter|intra)");
                    usage();
                    return;
                }
            },
            "--full" => {}
            other => {
                eprintln!("unknown flag {other}");
                usage();
                return;
            }
        }
    }
    let run_suite = |chips: Option<Vec<String>>, json_path: &Option<String>| {
        let cells = suite::run(chips, placement, scale, provenance);
        if let Some(path) = json_path {
            let json = suite::to_json(&cells, scale.execs, scale.seed, provenance);
            match std::fs::write(path, json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    };
    match cmd.as_str() {
        "fig3" => fig3::run(scale),
        "table2" => {
            table2::run(chips, scale);
        }
        "table3" => table3::run("Titan", scale),
        "fig4" => fig4::run(scale),
        "table5" => {
            table5::run(chips, scale);
        }
        "table6" => {
            table6::run(chips, scale);
        }
        "fig5" => {
            fig5::run(chips, scale);
        }
        "running-example" => {
            running::run(scale);
        }
        "suite" => run_suite(chips, &json_path),
        "trace" => {
            let target = analyze_target.as_deref().unwrap_or_default();
            if let Err(e) = trace::run(
                target,
                chips,
                env_name.as_deref(),
                scale,
                json_path.as_deref(),
            ) {
                eprintln!("{e}");
                usage();
            }
        }
        "analyze" => {
            let target = analyze_target.as_deref().unwrap_or_default();
            if let Err(e) = analyze::run(target, chips, json_path.as_deref()) {
                eprintln!("{e}");
                usage();
            }
        }
        "serve" => {
            let Some(spec) = jobs_spec else {
                eprintln!("serve wants --jobs FILE-or-inline-spec");
                usage();
                return;
            };
            if let Err(e) = serve::run(&spec, scale.workers) {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        "soak" => {
            // Precedence: explicit --seed, then SOAK_SEED, then 2016.
            let seed = seed_flag.unwrap_or_else(|| {
                std::env::var("SOAK_SEED")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(scale.seed)
            });
            if !soak::run(soak_profile, seed, scale.workers) {
                std::process::exit(1);
            }
        }
        "all" => {
            running::run(scale);
            println!("\n{}\n", "=".repeat(76));
            fig3::run(scale);
            println!("\n{}\n", "=".repeat(76));
            table2::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table3::run("Titan", scale);
            println!("\n{}\n", "=".repeat(76));
            fig4::run(scale);
            println!("\n{}\n", "=".repeat(76));
            table5::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            table6::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            fig5::run(chips.clone(), scale);
            println!("\n{}\n", "=".repeat(76));
            run_suite(chips, &json_path);
        }
        _ => usage(),
    }
}

fn usage() {
    eprintln!(
        "usage: repro <fig3|table2|table3|fig4|table5|table6|fig5|running-example|suite|\
         analyze TARGET|trace SHAPE|serve|soak|all> \
         [--chips A,B] [--execs N] [--runs N] [--seed N] [--workers N] [--json PATH] \
         [--placement inter|intra] [--provenance] [--env NAME] [--jobs SPEC] \
         [--quick|--extended|--stress] [--full]\n\
         \n\
         --seed N       base seed for every subcommand's campaigns (default 2016)\n\
         --workers N    campaign worker threads (0 = all cores; WMM_WORKERS env default);\n\
         \x20              results are bit-identical for every value\n\
         --placement P  (suite) restrict the catalogue to inter- or intra-block shapes\n\
         --provenance   (suite) add the weakness-channel breakdown column; with --json,\n\
         \x20              per-cell channel counters and per-weak-outcome attribution\n\
         trace SHAPE    replay one campaign with a bounded structured event log;\n\
         \x20              --chips C picks the chip (default Titan), --env NAME the suite\n\
         \x20              environment (default by placement), --json PATH the event dump\n\
         analyze TARGET static delay-set analysis; TARGET is a shape short name\n\
         \x20              (e.g. MP.shared), an app name (e.g. cbe-dot, shm-pipe),\n\
         \x20              shapes, apps, or all; --json PATH writes the report;\n\
         \x20              --chips A,B analyzes per chip (adds the incoherent-L1\n\
         \x20              read-read channel on chips that have one)\n\
         serve          batch campaign jobs through the engine; --jobs is a file\n\
         \x20              of job lines or an inline `;`-separated spec\n\
         soak           deterministic soak harness; --quick/--extended/--stress\n\
         \x20              pick the mix, seed from --seed else SOAK_SEED else 2016;\n\
         \x20              writes tests/artifacts/soak/<profile>-seed<seed>/report.json,\n\
         \x20              appends to BENCH_soak.json, exits nonzero on gate failure"
    );
}
