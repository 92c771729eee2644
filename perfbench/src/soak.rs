//! The `soak-mix` workload: a `wmm_server::Engine` with two workers
//! (job parallelism 1) fed closed batches of 1000 seeded jobs — the soak
//! grid of 28 shapes × seven chips × five environments plus application
//! campaigns — all submitted at once and drained, batch after batch on
//! successive seeds.

use crate::check::{self, Counters, Gate};
use crate::layers;
use crate::replay::{self, SimTotals};
use crate::stats::{ratio, Steal};
use crate::trace::Tracer;
use crate::{end_to_end, Args, Metric, Outcome, SetupTimes, Throughput};
use std::time::Instant;
use wmm_core::env::AppHarness;
use wmm_core::stress::StressArtifacts;
use wmm_gen::Shape;
use wmm_litmus::{LitmusInstance, LitmusLayout};
use wmm_server::engine::{Engine, EngineConfig, JobResult};
use wmm_server::job::{litmus_pad, EnvKind, JobSpec, WorkloadSpec};
use wmm_server::soak::{results_digest, SoakMix};
use wmm_sim::chip::Chip;

/// Executions per litmus job (the quick soak profile's).
const EXECS: u32 = 6;
/// Campaign runs per application job.
const APP_RUNS: u32 = 48;
/// Instantiation distance of every litmus job.
const DISTANCE: u32 = 64;

fn mix() -> SoakMix {
    let names = |ns: &[&str]| ns.iter().map(|n| (*n).to_string()).collect();
    SoakMix {
        litmus_chips: Chip::all().iter().map(|c| c.short.to_string()).collect(),
        app_chips: names(&["Titan", "C2075"]),
        envs: EnvKind::ALL.to_vec(),
        shapes: Shape::ALL.to_vec(),
        distances: vec![DISTANCE],
        execs: EXECS,
        apps: names(&["shm-pipe", "cbe-dot"]),
        app_runs: APP_RUNS,
    }
}

/// Everything the first batch needs, built before it is submitted.
struct Setup {
    mix: SoakMix,
    /// The catalogue's instances, for the correctness gate.
    insts: Vec<(Shape, LitmusInstance)>,
    jobs: Vec<JobSpec>,
    engine: Engine,
}

fn setup(seed: u64, workers: usize) -> Setup {
    let mix = mix();
    let layout = LitmusLayout::standard(DISTANCE, litmus_pad().required_words());
    let insts = mix
        .shapes
        .iter()
        .map(|&s| (s, s.instance(layout)))
        .collect();
    let jobs = mix.jobs(seed);
    let engine = Engine::start(EngineConfig {
        workers,
        job_parallelism: 1,
    });
    Setup {
        mix,
        insts,
        jobs,
        engine,
    }
}

/// One drained batch.
struct Batch {
    results: Vec<JobResult>,
    submit_us: Vec<f64>,
    makespan_s: f64,
    counters: Counters,
}

fn run_batch(s: &Setup, jobs: &[JobSpec], gate: &mut Gate) -> Batch {
    let mut submit_us = Vec::with_capacity(jobs.len());
    let started = Instant::now();
    for job in jobs {
        let t = Instant::now();
        if let Err(e) = s.engine.submit(job.clone()) {
            gate.problems.push(format!("{job}: refused: {e}"));
        }
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let drained = s.engine.drain();
    let makespan_s = started.elapsed().as_secs_f64();
    let mut counters = Counters::default();
    let results = match drained {
        Ok(results) => results,
        Err(e) => {
            gate.attempted += jobs.len() as u64;
            gate.fail_many(jobs.len() as u64, format!("drain failed: {e}"));
            Vec::new()
        }
    };
    if !results.is_empty() && results.len() != jobs.len() {
        gate.attempted += jobs.len() as u64;
        gate.fail_many(
            jobs.len() as u64,
            format!("{} results for {} jobs", results.len(), jobs.len()),
        );
    }
    for r in &results {
        gate.campaign(job_problems(s, r, &mut counters));
    }
    Batch {
        results,
        submit_us,
        makespan_s,
        counters,
    }
}

/// Invariants of one job's result; folds it into `counters`.
fn job_problems(s: &Setup, r: &JobResult, counters: &mut Counters) -> Vec<String> {
    let label = r.spec.to_string();
    match (&r.spec.workload, &r.summary) {
        (WorkloadSpec::Litmus { shape, .. }, summary) => {
            let Some(hist) = summary.as_litmus() else {
                return vec![format!("{label}: not a litmus summary")];
            };
            counters.add_litmus(hist);
            let inst = &s
                .insts
                .iter()
                .find(|(sh, _)| sh == shape)
                .expect("catalogue shape")
                .1;
            check::litmus_problems(&label, *shape, inst, hist, r.spec.execs)
        }
        (WorkloadSpec::App { .. }, summary) => {
            let Some(app) = summary.as_app() else {
                return vec![format!("{label}: not an application summary")];
            };
            counters.campaigns += 1;
            counters.runs += u64::from(app.runs);
            counters.weak += u64::from(app.errors);
            if app.runs == r.spec.execs {
                Vec::new()
            } else {
                vec![format!(
                    "{label}: {} runs recorded, {} executed",
                    app.runs, r.spec.execs
                )]
            }
        }
    }
}

/// Compare batch 0 at the default seed with the recorded values.
fn check_recorded(seed: u64, batch: &Batch, gate: &mut Gate) -> u64 {
    let digest = results_digest(&batch.results);
    println!(
        "  batch 0 results_digest {digest:016x} counters {:?}",
        batch.counters
    );
    if seed == check::DEFAULT_SEED {
        if let Some(expected) = check::expected("soak-mix") {
            if expected != (digest, batch.counters) {
                gate.fail_many(
                    batch.counters.campaigns,
                    format!(
                        "soak-mix seed {seed}: digest {digest:016x} / {:?} differs from the recorded {:016x} / {:?}",
                        batch.counters, expected.0, expected.1
                    ),
                );
            }
        }
    }
    digest
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args, setup(args.seed, args.workers));
    }
    let mut setups = SetupTimes::default();
    setups.repeat(|| setup(args.seed, args.workers));
    let s = setups.time(|| setup(args.seed, args.workers));
    let mut gate = Gate::default();
    let mut latency_ms = Vec::new();
    let mut tp = Throughput::default();
    let started = Instant::now();
    while tp.rounds() == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let b = tp.rounds() as u64;
        let jobs = if b == 0 {
            s.jobs.clone()
        } else {
            s.mix.jobs(args.seed.wrapping_add(b))
        };
        let steal = Steal::start();
        let batch = run_batch(&s, &jobs, &mut gate);
        let stolen = steal.share(batch.makespan_s);
        if b == 0 {
            check_recorded(args.seed, &batch, &mut gate);
        }
        tp.add(&batch.counters, batch.makespan_s, stolen);
        // Latencies in runnable time, like the rates (see `Throughput`).
        latency_ms.extend(batch.results.iter().map(|r| r.latency_ms * (1.0 - stolen)));
        setups.repeat(|| setup(args.seed.wrapping_add(b + 1), args.workers));
    }
    let stats = s.engine.cache_stats();
    s.engine.shutdown();
    println!(
        "  {} batches of {} jobs in {:.3} s; artifact cache {} builds, {} hits",
        tp.rounds(),
        s.jobs.len(),
        tp.wall_s(),
        stats.builds,
        stats.hits
    );
    Outcome {
        gate,
        ..end_to_end(&tp, &latency_ms, &setups)
    }
}

/// The traced run: batch 0 through the engine (submit calls timed),
/// then per job `JobSpec::execute` replayed sequentially (the untraced
/// reference, `campaign` spans) and the traced per-run replay (`job`
/// spans), each checked bit-identical to the engine's result.
fn traced(args: &Args, s: Setup) -> Outcome {
    let mut gate = Gate::default();
    let mut tr = Tracer::new();
    let batch = run_batch(&s, &s.jobs, &mut gate);
    let digest = check_recorded(args.seed, &batch, &mut gate);
    let cache = s.engine.cache_stats();
    s.engine.shutdown();
    let busy_ms: f64 = batch.results.iter().map(|r| r.latency_ms).sum();
    let busy_ratio = ratio(busy_ms, args.workers as f64 * batch.makespan_s * 1e3);
    let pad = litmus_pad();
    let mut totals = SimTotals::default();
    let mut replayed_results = Vec::with_capacity(batch.results.len());
    for (id, r) in batch.results.iter().enumerate() {
        let spec = &r.spec;
        let label = spec.to_string();
        tr.set_root(id as u64);
        let executed = tr.span("campaign", || spec.execute(1, None));
        let chip = Chip::by_short(&spec.chip).expect("validated chip");
        let env = spec.env.environment(&chip);
        let root = tr.begin("job");
        let replayed = match &spec.workload {
            WorkloadSpec::Litmus { shape, distance } => {
                let layout = LitmusLayout::standard(*distance, pad.required_words());
                let inst = tr.span("gen.instance", || shape.instance(layout));
                let artifacts = tr.span("stress.build", || {
                    StressArtifacts::for_strategy(&chip, &env.stress, pad, spec.env.litmus_iters())
                        .with_shared_stress(env.shared)
                });
                let run_inst = replay::campaign_instance(&inst, &artifacts);
                let replay = tr.begin("replay");
                let hist = replay::litmus_runs(
                    &mut tr,
                    &chip,
                    &run_inst,
                    &artifacts,
                    env.randomize,
                    spec.seed,
                    spec.execs,
                    &mut totals,
                );
                tr.end(replay);
                wmm_core::campaign::SummaryValue::Litmus(hist)
            }
            WorkloadSpec::App { name } => {
                let app = wmm_apps::app_by_name(name).expect("validated application");
                let harness = tr.span("apps.harness", || AppHarness::new(&chip, app.as_ref()));
                let artifacts = tr.span("stress.build", || harness.artifacts(&env));
                let replay = tr.begin("replay");
                let result = replay::app_runs(
                    &mut tr,
                    &chip,
                    &harness,
                    app.as_ref(),
                    &artifacts,
                    env.randomize,
                    spec.seed,
                    spec.execs,
                    &mut totals,
                );
                tr.end(replay);
                wmm_core::campaign::SummaryValue::App(result)
            }
        };
        tr.end(root);
        let same = matches!(&executed, Ok(e) if *e == r.summary) && replayed == r.summary;
        if !same {
            gate.fail_many(
                1,
                format!("{label}: traced results differ from the engine's"),
            );
        }
        replayed_results.push(JobResult {
            id: r.id,
            spec: spec.clone(),
            summary: replayed,
            latency_ms: 0.0,
        });
    }
    if results_digest(&replayed_results) != digest {
        gate.problems
            .push("traced replay results_digest differs from the engine's".into());
    }
    let layers = tr.layers();
    let total = |name| {
        layers
            .get(name)
            .map_or(0.0, |l: &crate::trace::Layer| l.total_ns)
    };
    let (replay_ns, seq_ns) = (total("job"), total("campaign"));
    let overhead = ratio(replay_ns, seq_ns) - 1.0;
    println!(
        "  tracing overhead: traced replay {:.3} s vs untraced JobSpec::execute {:.3} s ({:+.2}%)",
        replay_ns / 1e9,
        seq_ns / 1e9,
        100.0 * overhead
    );
    tr.write_out(&args.workload, args.seed);
    let (metrics, mut shown) = layers::metrics(&layers::Inputs {
        tracer: &tr,
        totals: &totals,
        root: "job",
        workers: 1,
        overhead,
        cache: Some((cache.builds, cache.hit_rate())),
        busy_ratio: Some(busy_ratio),
    });
    shown.push(
        Metric::new(
            "server.submit_us",
            ratio(batch.submit_us.iter().sum(), batch.submit_us.len() as f64),
            "us",
        )
        .n(batch.submit_us.len()),
    );
    Outcome {
        gate,
        metrics,
        shown,
    }
}
