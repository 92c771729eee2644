//! The per-layer table of a traced run, computed from its spans and the
//! replay's deterministic work totals.

use crate::replay::SimTotals;
use crate::stats::{percentile, ratio};
use crate::trace::{Layer, Tracer};
use crate::Metric;

/// Measurements of a traced run that do not come from spans.
pub struct Inputs<'a> {
    pub tracer: &'a Tracer,
    pub totals: &'a SimTotals,
    /// Name of the root spans (`cell` or `job`).
    pub root: &'static str,
    /// Campaign parallelism of the `campaign` spans.
    pub workers: usize,
    /// Traced replay wall ÷ untraced sequential wall − 1.
    pub overhead: f64,
    /// `Engine::cache_stats`: builds and hit rate (soak only).
    pub cache: Option<(u64, f64)>,
    /// Summed job execution time ÷ (workers × makespan) (soak only).
    pub busy_ratio: Option<f64>,
}

/// The per-layer metrics: the first list goes into the result line
/// (every metric there is measured on every workload), the second is
/// printed only, because it exists on some workloads alone.
pub fn metrics(inp: &Inputs<'_>) -> (Vec<Metric>, Vec<Metric>) {
    let layers = inp.tracer.layers();
    let empty = Layer::default();
    let layer = |name: &str| layers.get(name).unwrap_or(&empty);
    let t = inp.totals;
    let sim = layer("sim.run");
    let sim_us: Vec<f64> = sim.durations_ns.iter().map(|ns| ns / 1e3).collect();
    let campaign_ms: Vec<f64> = layer("campaign")
        .durations_ns
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let run_ns = layer("run").total_ns + layer("apps.run").total_ns;
    let m = Metric::new;
    let pct = |xs: &[f64], p: f64| percentile(xs, p).unwrap_or(0.0);
    let ch = t.channels.as_array();
    let json = vec![
        m("sim.run_us_p50", pct(&sim_us, 50.0), "us").n(sim_us.len()),
        m("sim.run_us_p99", pct(&sim_us, 99.0), "us").n(sim_us.len()),
        m(
            "sim.ns_per_instr",
            ratio(sim.total_ns, t.instructions as f64),
            "ns",
        ),
        m("sim.ns_per_turn", ratio(sim.total_ns, t.turns as f64), "ns"),
        m(
            "sim.share",
            ratio(sim.self_ns, layer(inp.root).total_ns),
            "ratio",
        ),
        m(
            "sim.instr_per_run",
            ratio(t.instructions as f64, t.gpu_runs as f64),
            "count",
        ),
        m(
            "sim.turns_per_run",
            ratio(t.turns as f64, t.gpu_runs as f64),
            "count",
        ),
        m(
            "sim.sim_ms_per_run",
            ratio(t.sim_ms, t.gpu_runs as f64),
            "sim_ms",
        ),
        m(
            "sim.weak_ratio",
            ratio(t.litmus_weak as f64, t.litmus_runs as f64),
            "ratio",
        ),
        m("sim.ch.window_global", ch[0] as f64, "count"),
        m("sim.ch.window_shared", ch[1] as f64, "count"),
        m("sim.ch.l1_stale", ch[2] as f64, "count"),
        m("sim.ch.fence_inval", ch[3] as f64, "count"),
        m("sim.ch.atomic_read_through", ch[4] as f64, "count"),
        m("litmus.launch_ns", layer("litmus.launch").mean_ns(), "ns"),
        m("litmus.observe_ns", layer("litmus.observe").mean_ns(), "ns"),
        m("litmus.fold_ns", layer("litmus.fold").mean_ns(), "ns"),
        m(
            "parallel.efficiency",
            ratio(run_ns, inp.workers as f64 * layer("campaign").total_ns),
            "ratio",
        ),
        m(
            "analysis.verdicts",
            layer("analysis").count() as f64,
            "count",
        ),
        m(
            "stress.builds",
            layer("stress.build").count() as f64,
            "count",
        ),
        m(
            "stress.build_us",
            layer("stress.build").mean_ns() / 1e3,
            "us",
        ),
        m("campaign.cell_ms_p50", pct(&campaign_ms, 50.0), "ms").n(campaign_ms.len()),
        m("campaign.cell_ms_p99", pct(&campaign_ms, 99.0), "ms").n(campaign_ms.len()),
        m(
            "cache.builds",
            inp.cache.map_or(0.0, |c| c.0 as f64),
            "count",
        ),
        m("cache.hit_rate", inp.cache.map_or(0.0, |c| c.1), "ratio"),
        m(
            "gen.instance_us",
            layer("gen.instance").mean_ns() / 1e3,
            "us",
        ),
        m(
            "apps.error_ratio",
            ratio(t.app_errors as f64, t.app_runs as f64),
            "ratio",
        ),
        m("server.busy_ratio", inp.busy_ratio.unwrap_or(0.0), "ratio"),
        m("trace.overhead", inp.overhead, "ratio"),
    ];
    // Printed only: each is measured on some workloads alone, and a
    // time that reads 0 on every run of the others is no measurement.
    let mean = |name: &str, scale: f64, metric: &'static str, unit: &'static str| {
        let l = layer(name);
        (l.count() > 0).then(|| m(metric, l.mean_ns() / scale, unit).n(l.count()))
    };
    let shown = [
        mean("analysis", 1e3, "analysis.verdict_us", "us"),
        mean("stress", 1.0, "stress.make_ns", "ns"),
        mean("apps.harness", 1e6, "apps.harness_ms", "ms"),
        mean("apps.run", 1e6, "apps.run_ms", "ms"),
        (inp.root == "job")
            .then(|| mean("campaign", 1e6, "server.job_ms", "ms"))
            .flatten(),
    ]
    .into_iter()
    .flatten()
    .collect();
    (json, shown)
}
