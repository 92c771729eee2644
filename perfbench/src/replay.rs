//! The traced per-run replay: the public calls a campaign makes for
//! each execution, made here one run at a time with a span around each
//! call into a layer.
//!
//! Litmus runs replay `LitmusWorkload::run_once` + `run_instance`
//! (stress instantiation, launch, `Gpu::run`, observe, fold).
//! Application runs replay `AppHarness`'s per-run body (per phase:
//! stress instantiation and `Gpu::run`, then the post-condition check).
//! Every run is seeded exactly as the campaign seeds it, so the replayed
//! summaries must be bit-identical to the campaign's.

use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wmm_core::app::Application;
use wmm_core::campaign::Workload;
use wmm_core::env::{AppHarness, CampaignResult, RunVerdict};
use wmm_core::stress::{app_stress_blocks, litmus_stress_threads, StressArtifacts};
use wmm_litmus::runner::mix_seed;
use wmm_litmus::{Histogram, LitmusInstance, LitmusOutcome, Placement};
use wmm_obs::ChannelCounts;
use wmm_sim::chip::Chip;
use wmm_sim::exec::{Gpu, KernelGroup, LaunchSpec, Role, RunResult, RunStatus};

/// Deterministic work totals over every replayed `Gpu::run`.
#[derive(Debug, Clone, Default)]
pub struct SimTotals {
    /// `Gpu::run` calls (litmus runs plus application phases).
    pub gpu_runs: u64,
    pub instructions: u64,
    pub turns: u64,
    /// Simulated milliseconds (`RunResult::runtime_ms`).
    pub sim_ms: f64,
    pub channels: ChannelCounts,
    /// Litmus runs and their weak outcomes.
    pub litmus_runs: u64,
    pub litmus_weak: u64,
    /// Application runs and the erroneous ones.
    pub app_runs: u64,
    pub app_errors: u64,
}

impl SimTotals {
    fn gpu_run(&mut self, r: &RunResult) {
        self.gpu_runs += 1;
        self.instructions += r.instructions;
        self.turns += r.total_turns;
        self.sim_ms += r.runtime_ms;
        self.channels.add(&r.channels);
    }
}

/// The instance a campaign actually runs: intra-block instances gain
/// the artifacts' shared-space stress lanes (`Campaign::litmus_instance`).
pub fn campaign_instance(inst: &LitmusInstance, artifacts: &StressArtifacts) -> LitmusInstance {
    match (artifacts.shared_stress(), inst.placement) {
        (Some(s), Placement::IntraBlock) => inst.with_shared_stress(s.words, s.iters),
        _ => inst.clone(),
    }
}

/// Replay `count` litmus runs of a campaign seeded with `base_seed`.
#[allow(clippy::too_many_arguments)]
pub fn litmus_runs(
    tr: &mut Tracer,
    chip: &Chip,
    inst: &LitmusInstance,
    artifacts: &StressArtifacts,
    randomize: bool,
    base_seed: u64,
    count: u32,
    totals: &mut SimTotals,
) -> Histogram {
    let mut gpu = Gpu::new(chip.clone());
    let mut hist = Histogram::new();
    for i in 0..u64::from(count) {
        let run = tr.begin("run");
        let mut rng = SmallRng::seed_from_u64(mix_seed(base_seed, i));
        let (groups, init) = if artifacts.is_native() {
            (Vec::new(), Vec::new())
        } else {
            tr.span("stress", || {
                let threads = litmus_stress_threads(chip, &mut rng);
                let s = artifacts.make(threads, &mut rng);
                (s.groups, s.init)
            })
        };
        let seed: u64 = rng.gen();
        let spec = tr.span("litmus.launch", || inst.launch(groups, init, randomize));
        let result = tr.span("sim.run", || gpu.run(&spec, seed));
        totals.gpu_run(&result);
        let (obs, weak) = tr.span("litmus.observe", || {
            let obs = inst.observe(&result);
            let weak = inst.is_weak(&obs);
            (obs, weak)
        });
        totals.litmus_runs += 1;
        totals.litmus_weak += u64::from(weak);
        let channels = result.channels;
        tr.span("litmus.fold", || {
            hist.record(LitmusOutcome {
                obs,
                weak,
                channels,
            })
        });
        tr.end(run);
    }
    hist
}

/// Replay `count` application runs of a campaign seeded with
/// `base_seed`, each inside an `apps.run` span.
#[allow(clippy::too_many_arguments)]
pub fn app_runs(
    tr: &mut Tracer,
    chip: &Chip,
    harness: &AppHarness<'_>,
    app: &dyn Application,
    artifacts: &StressArtifacts,
    randomize: bool,
    base_seed: u64,
    count: u32,
    totals: &mut SimTotals,
) -> CampaignResult {
    let spec = harness.spec();
    let global_words = harness.scratchpad().required_words();
    let app_blocks: u32 = spec.phases.iter().map(|p| p.blocks).sum();
    let mut gpu = Gpu::new(chip.clone());
    let mut summary = harness.summary();
    for i in 0..u64::from(count) {
        let run = tr.begin("apps.run");
        let mut rng = SmallRng::seed_from_u64(mix_seed(base_seed, i));
        let mut image = Vec::new();
        let mut verdict = None;
        for (pi, phase) in spec.phases.iter().enumerate() {
            let setup = tr.span("stress", || {
                let threads = app_stress_blocks(app_blocks.max(2), &mut rng) * 64;
                artifacts.make(threads, &mut rng)
            });
            let mut groups = vec![KernelGroup {
                program: Arc::new(phase.program.clone()),
                blocks: phase.blocks,
                threads_per_block: phase.threads_per_block,
                role: Role::App,
            }];
            groups.extend(setup.groups);
            let mut init = setup.init;
            if pi == 0 {
                init.extend(spec.init.iter().copied());
            }
            let launch = LaunchSpec {
                groups,
                global_words,
                shared_words: phase.shared_words,
                init_image: std::mem::take(&mut image),
                init,
                max_turns: spec.max_turns_per_phase,
                randomize_ids: randomize,
            };
            let seed: u64 = rng.gen();
            let result = tr.span("sim.run", || gpu.run(&launch, seed));
            totals.gpu_run(&result);
            verdict = match result.status {
                RunStatus::Completed => None,
                RunStatus::TimedOut => Some(RunVerdict::Timeout),
                RunStatus::BarrierDivergence => Some(RunVerdict::Divergence),
                RunStatus::OutOfBounds(e) => Some(RunVerdict::Fault(e.to_string())),
            };
            if verdict.is_some() {
                break;
            }
            image = result.memory;
        }
        let verdict = verdict.unwrap_or_else(|| match app.check(&image) {
            Ok(()) => RunVerdict::Pass,
            Err(msg) => RunVerdict::PostConditionFailed(msg),
        });
        totals.app_runs += 1;
        totals.app_errors += u64::from(verdict.is_error());
        harness.fold(&mut summary, verdict);
        tr.end(run);
    }
    summary
}
