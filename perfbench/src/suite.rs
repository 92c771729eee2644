//! The suite workloads: the generated catalogue campaigned cell by cell
//! through `wmm_core::suite::run_suite`, round after round on successive
//! seeds.
//!
//! * `suite-native` — 28 shapes × all seven chips under `no-str-`.
//! * `suite-stressed` — 28 shapes × {Titan, C2075} × {`sys-str+`,
//!   `rand-str+`, `shm+sys-str+`, `l1-str+`}.

use crate::check::{self, Counters, Gate};
use crate::layers;
use crate::replay::{self, SimTotals};
use crate::stats::{ratio, Steal};
use crate::trace::Tracer;
use crate::{end_to_end, Args, Outcome, SetupTimes, Throughput};
use std::time::Instant;
use wmm_core::campaign::{CampaignBuilder, Fnv64};
use wmm_core::suite::{run_suite, StaticVerdict, SuiteConfig, SuiteStrategy};
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_litmus::{Histogram, LitmusInstance, LitmusLayout};
use wmm_sim::chip::Chip;

/// Executions per cell: the `repro suite` default.
const EXECS: u32 = 32;
/// Stressing-loop iterations of the stressed columns (`repro suite`'s).
const ITERS: u32 = 40;
/// The distance every shape is instantiated at (`SuiteConfig` default).
const DISTANCE: u32 = 64;

/// Everything a round needs, built before the first timed operation.
struct Setup {
    chips: Vec<Chip>,
    columns: Vec<SuiteStrategy>,
    shapes: Vec<Shape>,
    /// The catalogue's instances, for the correctness gate.
    insts: Vec<LitmusInstance>,
    /// Cells as (shape, chip, column) indices, in campaign order.
    cells: Vec<(usize, usize, usize)>,
}

fn setup(stressed: bool) -> Setup {
    let chips = if stressed {
        ["Titan", "C2075"]
            .iter()
            .map(|c| Chip::by_short(c).expect("known chip"))
            .collect()
    } else {
        Chip::all()
    };
    let columns = if stressed {
        vec![
            SuiteStrategy::sys_str_plus(ITERS),
            SuiteStrategy::rand_str_plus(ITERS),
            SuiteStrategy::shared_sys_str_plus(ITERS),
            SuiteStrategy::l1_str_plus(ITERS),
        ]
    } else {
        vec![SuiteStrategy::native()]
    };
    let shapes = Shape::ALL.to_vec();
    let layout = LitmusLayout::standard(DISTANCE, config(0, 1).pad.required_words());
    let insts = shapes.iter().map(|s| s.instance(layout)).collect();
    let mut cells = Vec::new();
    for si in 0..shapes.len() {
        for ci in 0..chips.len() {
            for ki in 0..columns.len() {
                cells.push((si, ci, ki));
            }
        }
    }
    Setup {
        chips,
        columns,
        shapes,
        insts,
        cells,
    }
}

fn config(base_seed: u64, workers: usize) -> SuiteConfig {
    SuiteConfig {
        distances: vec![DISTANCE],
        execs: EXECS,
        base_seed,
        workers,
        ..SuiteConfig::default()
    }
}

/// The `run_suite` base seed of a cell in the round seeded `round_seed`.
fn cell_seed(round_seed: u64, (si, ci, ki): (usize, usize, usize)) -> u64 {
    [si, ci, ki]
        .into_iter()
        .fold(round_seed, |s, i| mix_seed(s, i as u64))
}

/// The campaign seed `run_suite` derives for a one-cell grid.
fn campaign_seed(cell_seed: u64) -> u64 {
    [0, u64::from(DISTANCE), 0, 0]
        .into_iter()
        .fold(cell_seed, mix_seed)
}

fn label(s: &Setup, (si, ci, ki): (usize, usize, usize)) -> String {
    format!(
        "{}@{}/{}",
        s.shapes[si], s.chips[ci].short, s.columns[ki].name
    )
}

/// One untraced round: every cell through `run_suite`, timed per cell.
struct Round {
    hists: Vec<Histogram>,
    cell_ms: Vec<f64>,
    wall_s: f64,
    digest: u64,
    counters: Counters,
}

fn run_round(s: &Setup, round_seed: u64, workers: usize, gate: &mut Gate) -> Round {
    let mut round = Round {
        hists: Vec::with_capacity(s.cells.len()),
        cell_ms: Vec::with_capacity(s.cells.len()),
        wall_s: 0.0,
        digest: 0,
        counters: Counters::default(),
    };
    let mut digest = Fnv64::new();
    let started = Instant::now();
    for &cell in &s.cells {
        let (si, ci, ki) = cell;
        let cfg = config(cell_seed(round_seed, cell), workers);
        let t = Instant::now();
        let mut out = run_suite(
            &s.shapes[si..=si],
            &s.chips[ci..=ci],
            &s.columns[ki..=ki],
            &cfg,
        );
        round.cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let name = label(s, cell);
        let Some(row) = out.pop().filter(|_| out.is_empty()) else {
            gate.campaign(vec![format!("{name}: run_suite returned no single cell")]);
            round.hists.push(Histogram::new());
            continue;
        };
        gate.campaign(check::litmus_problems(
            &name,
            s.shapes[si],
            &s.insts[si],
            &row.hist,
            EXECS,
        ));
        check::fold_hist(&mut digest, &name, &row.hist);
        round.counters.add_litmus(&row.hist);
        round.hists.push(row.hist);
    }
    round.wall_s = started.elapsed().as_secs_f64();
    round.digest = digest.finish();
    round
}

/// Compare round 0 at the default seed with the recorded values.
fn check_recorded(workload: &str, seed: u64, round: &Round, gate: &mut Gate) {
    println!(
        "  round 0 digest {:016x} counters {:?}",
        round.digest, round.counters
    );
    if seed != check::DEFAULT_SEED {
        return;
    }
    if let Some((digest, counters)) = check::expected(workload) {
        if (digest, counters) != (round.digest, round.counters) {
            gate.fail_many(
                round.counters.campaigns,
                format!(
                    "{workload} seed {seed}: digest {:016x} / {:?} differs from the recorded {digest:016x} / {counters:?}",
                    round.digest, round.counters
                ),
            );
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let stressed = args.workload == "suite-stressed";
    if args.trace {
        return traced(args, &setup(stressed));
    }
    let mut setups = SetupTimes::default();
    setups.repeat(|| setup(stressed));
    let s = setups.time(|| setup(stressed));
    let mut gate = Gate::default();
    let mut cell_ms = Vec::new();
    let mut tp = Throughput::default();
    let started = Instant::now();
    while tp.rounds() == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let r = tp.rounds() as u64;
        let steal = Steal::start();
        let round = run_round(&s, args.seed.wrapping_add(r), args.workers, &mut gate);
        let stolen = steal.share(round.wall_s);
        if r == 0 {
            check_recorded(&args.workload, args.seed, &round, &mut gate);
        }
        tp.add(&round.counters, round.wall_s, stolen);
        // Latencies in runnable time, like the rates (see `Throughput`).
        cell_ms.extend(round.cell_ms.iter().map(|ms| ms * (1.0 - stolen)));
        setups.repeat(|| setup(stressed));
    }
    println!(
        "  {} rounds of {} cells in {:.3} s",
        tp.rounds(),
        s.cells.len(),
        tp.wall_s()
    );
    Outcome {
        gate,
        ..end_to_end(&tp, &cell_ms, &setups)
    }
}

/// The traced run: round 0 untraced through `run_suite`, then per cell
/// the same work with spans — instance, verdict, artifacts, the
/// parallel campaign, an untraced sequential campaign (the overhead
/// reference) and the traced sequential per-run replay — checking that
/// every histogram is bit-identical to the untraced round's.
fn traced(args: &Args, s: &Setup) -> Outcome {
    let mut gate = Gate::default();
    let round = run_round(s, args.seed, args.workers, &mut gate);
    check_recorded(&args.workload, args.seed, &round, &mut gate);
    let layout = LitmusLayout::standard(DISTANCE, config(0, 1).pad.required_words());
    let pad = config(0, 1).pad;
    let mut tr = Tracer::new();
    let mut totals = SimTotals::default();
    let mut seq_ns = 0.0;
    for (id, (&cell, untraced)) in s.cells.iter().zip(&round.hists).enumerate() {
        let (si, ci, ki) = cell;
        let (chip, column) = (&s.chips[ci], &s.columns[ki]);
        let seed = campaign_seed(cell_seed(args.seed, cell));
        tr.set_root(id as u64);
        let root = tr.begin("cell");
        let inst = tr.span("gen.instance", || s.shapes[si].instance(layout));
        tr.span("analysis", || StaticVerdict::of_chip(&inst, chip));
        let artifacts = tr.span("stress.build", || column.artifacts(chip, pad));
        let run_inst = replay::campaign_instance(&inst, &artifacts);
        let replay = tr.begin("replay");
        let replayed = replay::litmus_runs(
            &mut tr,
            chip,
            &run_inst,
            &artifacts,
            column.randomize,
            seed,
            EXECS,
            &mut totals,
        );
        tr.end(replay);
        tr.end(root);
        let campaign = |workers| {
            CampaignBuilder::new(chip)
                .stress(artifacts.clone())
                .randomize_ids(column.randomize)
                .count(EXECS)
                .base_seed(seed)
                .parallelism(workers)
                .build()
        };
        let parallel = tr.span("campaign", || campaign(args.workers).run_litmus(&inst));
        let t = Instant::now();
        let sequential = campaign(1).run_litmus(&inst);
        seq_ns += t.elapsed().as_nanos() as f64;
        if [&parallel, &sequential, &replayed]
            .iter()
            .any(|h| *h != untraced)
        {
            gate.fail_many(
                1,
                format!(
                    "{}: traced histograms differ from the untraced run",
                    label(s, cell)
                ),
            );
        }
    }
    let replay_ns = tr.layers().get("replay").map_or(0.0, |l| l.total_ns);
    let overhead = ratio(replay_ns, seq_ns) - 1.0;
    println!(
        "  tracing overhead: traced replay {:.3} s vs untraced sequential campaigns {:.3} s ({:+.2}%)",
        replay_ns / 1e9,
        seq_ns / 1e9,
        100.0 * overhead
    );
    tr.write_out(&args.workload, args.seed);
    let (metrics, shown) = layers::metrics(&layers::Inputs {
        tracer: &tr,
        totals: &totals,
        root: "cell",
        workers: args.workers,
        overhead,
        cache: None,
        busy_ratio: None,
    });
    Outcome {
        gate,
        metrics,
        shown,
    }
}
