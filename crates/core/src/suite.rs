//! The generated-suite campaign runner.
//!
//! Campaigns every generated litmus shape across a grid of chips ×
//! stress strategies × distances through the unified
//! [`Campaign`](crate::campaign::Campaign) facade. The stress artifacts
//! of each `(chip, strategy)` column are built **once** and shared by
//! every cell (and every run) in that column.
//!
//! This runner used to live in `wmm-gen` behind per-run closure
//! factories (so that crate could stay below `wmm-core` in the crate
//! graph); with the campaign facade in `wmm-core` the runner lives here
//! and the columns are plain [`StressStrategy`] values.

use crate::campaign::CampaignBuilder;
use crate::stress::{Scratchpad, SharedStress, StressArtifacts, StressStrategy, SystematicParams};
use std::sync::Arc;
use wmm_gen::Shape;
use wmm_litmus::runner::mix_seed;
use wmm_litmus::{Histogram, LitmusLayout, Placement};
use wmm_sim::chip::Chip;
use wmm_sim::ir::{FenceLevel, Space};

/// A named suite column: a stress strategy (computed per chip — the
/// systematic strategy's parameters are per-chip, Tab. 2) plus the
/// thread-randomisation toggle of the paper's environment names.
#[derive(Clone)]
pub struct SuiteStrategy {
    /// Display name, e.g. `"sys-str+"`.
    pub name: String,
    /// Whether thread ids are randomised (the `+`/`-` suffix).
    pub randomize: bool,
    /// Stressing-loop iterations per stressing thread.
    pub iters: u32,
    /// Intra-block shared-space stress applied to intra-block rows
    /// (`None` for the paper's global-only columns).
    pub shared: Option<SharedStress>,
    strategy_of: Arc<dyn Fn(&Chip) -> StressStrategy + Send + Sync>,
}

impl SuiteStrategy {
    /// The native column: no stressing blocks, no randomisation.
    pub fn native() -> Self {
        SuiteStrategy {
            name: "no-str-".to_string(),
            randomize: false,
            iters: 0,
            shared: None,
            strategy_of: Arc::new(|_| StressStrategy::None),
        }
    }

    /// A column from a per-chip strategy constructor; the display name
    /// is the strategy's short name plus the `+`/`-` suffix.
    pub fn new(
        short: &str,
        randomize: bool,
        iters: u32,
        strategy_of: impl Fn(&Chip) -> StressStrategy + Send + Sync + 'static,
    ) -> Self {
        SuiteStrategy {
            name: format!("{short}{}", if randomize { "+" } else { "-" }),
            randomize,
            iters,
            shared: None,
            strategy_of: Arc::new(strategy_of),
        }
    }

    /// The paper's tuned systematic environment, `sys-str+` (Tab. 2
    /// parameters per chip).
    pub fn sys_str_plus(iters: u32) -> Self {
        SuiteStrategy::new("sys-str", true, iters, |chip| {
            StressStrategy::Systematic(SystematicParams::from_paper(chip))
        })
    }

    /// The random-stress baseline with randomisation, `rand-str+`.
    pub fn rand_str_plus(iters: u32) -> Self {
        SuiteStrategy::new("rand-str", true, iters, |_| StressStrategy::Random)
    }

    /// The shared-stress column `shm+sys-str+`: the tuned systematic
    /// global stress plus intra-block shared-space stress. Inter-block
    /// rows behave exactly as under `sys-str+`; intra-block rows gain
    /// shared-scratchpad stressing lanes — the column under which the
    /// scoped shapes go observably weak while their `+fence_block`
    /// twins stay at zero.
    pub fn shared_sys_str_plus(iters: u32) -> Self {
        let mut s = SuiteStrategy::sys_str_plus(iters);
        s.name = format!("{}{}", SharedStress::NAME_PREFIX, s.name);
        s.shared = Some(SharedStress::standard());
        s
    }

    /// The structural-channel column `l1-str+`: write-only cross-SM
    /// stress feeding incoherent-L1 write pressure (see
    /// [`StressStrategy::L1`]). The column under which `CoRR`-style
    /// same-address read pairs go observably weak on Tesla-class
    /// (incoherent-L1) chips while their `+fence` twins and the
    /// coherent-L1 chips stay at zero.
    pub fn l1_str_plus(iters: u32) -> Self {
        SuiteStrategy::new("l1-str", true, iters, |_| StressStrategy::L1)
    }

    /// The strategy this column applies on `chip`.
    pub fn strategy(&self, chip: &Chip) -> StressStrategy {
        (self.strategy_of)(chip)
    }

    /// Build this column's stress artifacts for `chip`, compiled once
    /// for the whole column.
    pub fn artifacts(&self, chip: &Chip, pad: Scratchpad) -> StressArtifacts {
        StressArtifacts::for_strategy(chip, &self.strategy(chip), pad, self.iters)
            .with_shared_stress(self.shared)
    }
}

impl std::fmt::Debug for SuiteStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteStrategy")
            .field("name", &self.name)
            .field("randomize", &self.randomize)
            .field("iters", &self.iters)
            .finish_non_exhaustive()
    }
}

/// Suite campaign configuration.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Distances `d` each shape is instantiated at.
    pub distances: Vec<u32>,
    /// Executions per cell (the paper's `C`).
    pub execs: u32,
    /// The scratchpad the strategies stress; every launch provides
    /// `pad.required_words()` words of global memory.
    pub pad: Scratchpad,
    /// Base seed; each cell derives its own seed from its coordinates,
    /// so results are independent of cell iteration order.
    pub base_seed: u64,
    /// Worker threads per cell campaign (0 ⇒ all cores). Histograms are
    /// bit-identical for every value (see [`crate::campaign`]).
    pub workers: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            distances: vec![64],
            execs: 32,
            pad: Scratchpad::new(2048, 6144),
            base_seed: 2016,
            workers: 0,
        }
    }
}

/// The static analyzer's verdict on one suite row's litmus instance,
/// computed once per `(shape, distance, chip)` from the exact
/// per-test-thread models and shared by that chip's strategy columns
/// (see [`wmm_analysis::analyze_litmus_on_chip`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticVerdict {
    /// Unfenced delay warnings on the instance's program.
    pub warnings: usize,
    /// The strongest fence level any warning demands (`None` ⇒ quiet).
    pub level: Option<FenceLevel>,
}

impl StaticVerdict {
    /// Quiet certificate: no unfenced critical cycle.
    pub fn quiet(&self) -> bool {
        self.warnings == 0
    }

    /// Compute the chip-independent verdict for one litmus instance.
    pub fn of(inst: &wmm_litmus::LitmusInstance) -> StaticVerdict {
        let a = wmm_analysis::analyze_litmus(inst);
        StaticVerdict {
            warnings: a.warnings.len(),
            level: a.max_warning_level(),
        }
    }

    /// Compute the verdict for one litmus instance on a specific chip:
    /// on incoherent-L1 chips the analyzer adds the structural
    /// read-read channel, so `CoRR`-style rows warn there while staying
    /// quiet on coherent chips (see
    /// [`wmm_analysis::analyze_litmus_on_chip`]).
    pub fn of_chip(inst: &wmm_litmus::LitmusInstance, chip: &Chip) -> StaticVerdict {
        let a = wmm_analysis::analyze_litmus_on_chip(inst, chip);
        StaticVerdict {
            warnings: a.warnings.len(),
            level: a.max_warning_level(),
        }
    }
}

impl std::fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.level {
            None => write!(f, "quiet"),
            Some(FenceLevel::Block) => write!(f, "warn(block)"),
            Some(FenceLevel::Device) => write!(f, "warn(device)"),
        }
    }
}

/// One cell of the suite matrix: a shape at a distance, on a chip,
/// under a strategy.
#[derive(Debug, Clone)]
pub struct SuiteCell {
    /// The generated shape.
    pub shape: Shape,
    /// The instantiation distance.
    pub distance: u32,
    /// The shape's thread placement (`inter` — one block per thread —
    /// or `intra` — one block, communicating through shared memory).
    pub placement: Placement,
    /// The memory spaces the shape's events exercise (global first), so
    /// downstream tooling can select scoped/mixed rows without parsing
    /// shape names.
    pub spaces: Vec<Space>,
    /// Chip short name.
    pub chip: String,
    /// Strategy name.
    pub strategy: String,
    /// The outcome histogram (weak = outside the derived SC set).
    pub hist: Histogram,
    /// The static analyzer's verdict on this row's instance **on this
    /// row's chip** (incoherent-L1 chips add the structural read-read
    /// channel): quiet, or warning with the strongest fence level the
    /// delay set demands.
    pub static_verdict: StaticVerdict,
}

impl SuiteCell {
    /// Weak outcomes as a fraction of total.
    pub fn weak_rate(&self) -> f64 {
        self.hist.weak_rate()
    }
}

/// Campaign every `shape × distance × chip × strategy` cell and return
/// the matrix in that (row-major) order.
///
/// Stress artifacts are built once per `(chip, strategy)` column, before
/// any cell runs, and shared across all of that column's cells and runs.
///
/// Deterministic in `(shapes, cfg, chips, strategies)`: each cell's
/// campaign seed is [`mix_seed`]-derived from the cell's coordinates
/// alone and campaigns are worker-count-independent, so the result is
/// bit-identical for every `cfg.workers`.
pub fn run_suite(
    shapes: &[Shape],
    chips: &[Chip],
    strategies: &[SuiteStrategy],
    cfg: &SuiteConfig,
) -> Vec<SuiteCell> {
    let columns: Vec<Vec<StressArtifacts>> = chips
        .iter()
        .map(|chip| {
            strategies
                .iter()
                .map(|strat| strat.artifacts(chip, cfg.pad))
                .collect()
        })
        .collect();
    let mut cells = Vec::new();
    for (si, shape) in shapes.iter().enumerate() {
        for &d in &cfg.distances {
            let inst = shape.instance(LitmusLayout::standard(d, cfg.pad.required_words()));
            for (ci, chip) in chips.iter().enumerate() {
                // Per-chip: incoherent-L1 chips grow the delay set.
                let static_verdict = StaticVerdict::of_chip(&inst, chip);
                for (ki, strat) in strategies.iter().enumerate() {
                    // Chain one mix per coordinate: unlike a polynomial
                    // pack, this cannot collide for any in-range values.
                    let cell_seed = [si as u64, u64::from(d), ci as u64, ki as u64]
                        .into_iter()
                        .fold(cfg.base_seed, mix_seed);
                    let hist = CampaignBuilder::new(chip)
                        .stress(columns[ci][ki].clone())
                        .randomize_ids(strat.randomize)
                        .count(cfg.execs)
                        .base_seed(cell_seed)
                        .parallelism(cfg.workers)
                        .build()
                        .run_litmus(&inst);
                    cells.push(SuiteCell {
                        shape: *shape,
                        distance: d,
                        placement: shape.placement(),
                        spaces: shape.spaces(),
                        chip: chip.short.to_string(),
                        strategy: strat.name.clone(),
                        hist,
                        static_verdict: static_verdict.clone(),
                    });
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strong_chip() -> Chip {
        Chip::by_short("K20").unwrap().sequentially_consistent()
    }

    #[test]
    fn native_suite_on_sc_chip_has_no_weak_outcomes() {
        let cfg = SuiteConfig {
            execs: 12,
            ..Default::default()
        };
        let cells = run_suite(
            &Shape::ALL,
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        assert_eq!(cells.len(), Shape::ALL.len());
        for c in &cells {
            assert_eq!(c.hist.weak(), 0, "{} on SC chip: {}", c.shape, c.hist);
            assert_eq!(c.hist.total(), u64::from(cfg.execs));
        }
    }

    #[test]
    fn suite_is_worker_count_independent() {
        let chips = [Chip::by_short("Titan").unwrap()];
        let shapes = [Shape::Mp, Shape::Iriw, Shape::CoWW];
        let base = SuiteConfig {
            execs: 16,
            ..Default::default()
        };
        let runs: Vec<Vec<SuiteCell>> = [1usize, 2, 8]
            .into_iter()
            .map(|w| {
                let cfg = SuiteConfig {
                    workers: w,
                    ..base.clone()
                };
                run_suite(&shapes, &chips, &[SuiteStrategy::native()], &cfg)
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].len(), other.len());
            for (a, b) in runs[0].iter().zip(other.iter()) {
                assert_eq!(a.hist, b.hist, "{} {}", a.shape, a.strategy);
            }
        }
    }

    #[test]
    fn static_column_matches_the_catalogue() {
        let cfg = SuiteConfig {
            execs: 4,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpFences, Shape::MpShared, Shape::CoRR],
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let verdict = |shape: Shape| {
            cells
                .iter()
                .find(|c| c.shape == shape)
                .unwrap()
                .static_verdict
                .clone()
        };
        assert_eq!(verdict(Shape::Mp).level, Some(FenceLevel::Device));
        assert!(verdict(Shape::MpFences).quiet());
        assert_eq!(verdict(Shape::MpShared).level, Some(FenceLevel::Block));
        assert!(verdict(Shape::CoRR).quiet(), "coherence-only shape");
        assert_eq!(verdict(Shape::Mp).to_string(), "warn(device)");
        assert_eq!(verdict(Shape::MpShared).to_string(), "warn(block)");
        assert_eq!(verdict(Shape::MpFences).to_string(), "quiet");
    }

    #[test]
    fn cells_carry_the_shape_placement() {
        let cfg = SuiteConfig {
            execs: 8,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpShared, Shape::MpCas],
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let placement_of = |shape: Shape| {
            cells
                .iter()
                .find(|c| c.shape == shape)
                .map(|c| c.placement)
                .unwrap()
        };
        assert_eq!(placement_of(Shape::Mp), Placement::InterBlock);
        assert_eq!(placement_of(Shape::MpShared), Placement::IntraBlock);
        assert_eq!(placement_of(Shape::MpCas), Placement::InterBlock);
    }

    #[test]
    fn strategy_names_carry_the_suffix() {
        assert_eq!(SuiteStrategy::native().name, "no-str-");
        assert_eq!(SuiteStrategy::sys_str_plus(40).name, "sys-str+");
        assert_eq!(SuiteStrategy::rand_str_plus(40).name, "rand-str+");
        assert_eq!(SuiteStrategy::shared_sys_str_plus(40).name, "shm+sys-str+");
        assert_eq!(SuiteStrategy::l1_str_plus(40).name, "l1-str+");
    }

    #[test]
    fn l1_column_flips_corr_on_incoherent_l1_chips_only() {
        let shapes = [Shape::CoRR, Shape::CoRRFence];
        let chips = [
            Chip::by_short("C2075").unwrap(),
            Chip::by_short("K20").unwrap(),
        ];
        let cfg = SuiteConfig {
            execs: 24,
            ..Default::default()
        };
        let cells = run_suite(&shapes, &chips, &[SuiteStrategy::l1_str_plus(40)], &cfg);
        let cell = |shape, chip: &str| {
            cells
                .iter()
                .find(|c| c.shape == shape && c.chip == chip)
                .unwrap()
        };
        // The structural channel: weak CoRR on the incoherent-L1 Tesla,
        // and the static column warns there (at device level).
        let corr = cell(Shape::CoRR, "C2075");
        assert!(corr.hist.weak() > 0, "CoRR under l1-str+: {}", corr.hist);
        assert_eq!(corr.static_verdict.level, Some(FenceLevel::Device));
        // The device fence refreshes the reader's L1: twin at zero, and
        // certified quiet.
        let twin = cell(Shape::CoRRFence, "C2075");
        assert_eq!(twin.hist.weak(), 0, "{}", twin.hist);
        assert!(twin.static_verdict.quiet());
        // Coherent-L1 chips are blind to the column, dynamically and
        // statically.
        let k20 = cell(Shape::CoRR, "K20");
        assert_eq!(k20.hist.weak(), 0, "{}", k20.hist);
        assert!(k20.static_verdict.quiet());
    }

    #[test]
    fn cells_carry_the_spaces_axis() {
        let cfg = SuiteConfig {
            execs: 4,
            ..Default::default()
        };
        let cells = run_suite(
            &[Shape::Mp, Shape::MpShared, Shape::MpMixed],
            &[strong_chip()],
            &[SuiteStrategy::native()],
            &cfg,
        );
        let spaces_of = |shape: Shape| {
            cells
                .iter()
                .find(|c| c.shape == shape)
                .map(|c| c.spaces.clone())
                .unwrap()
        };
        assert_eq!(spaces_of(Shape::Mp), vec![Space::Global]);
        assert_eq!(spaces_of(Shape::MpShared), vec![Space::Shared]);
        assert_eq!(
            spaces_of(Shape::MpMixed),
            vec![Space::Global, Space::Shared]
        );
    }

    #[test]
    fn sc_chip_stays_strong_even_under_shared_stress() {
        // Regression for the SC guard: sequentially_consistent() zeroes
        // the shared-space matrix too, so the scoped and mixed rows show
        // zero weak outcomes at intra-block placement even under the
        // shared-stress column that makes them go weak on real chips.
        let shapes: Vec<Shape> = Shape::SCOPED
            .into_iter()
            .chain(Shape::SCOPED_FENCED)
            .chain(Shape::MIXED)
            .collect();
        let cfg = SuiteConfig {
            execs: 16,
            ..Default::default()
        };
        let cells = run_suite(
            &shapes,
            &[strong_chip()],
            &[SuiteStrategy::shared_sys_str_plus(40)],
            &cfg,
        );
        for c in &cells {
            assert_eq!(c.placement, Placement::IntraBlock, "{}", c.shape);
            assert_eq!(c.hist.weak(), 0, "{} on SC chip: {}", c.shape, c.hist);
        }
    }
}
