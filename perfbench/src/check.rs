//! The output-correctness gate: per-campaign invariants that hold for
//! every seed, digests and deterministic counters that must equal the
//! values recorded with the benchmark at the default seed, and the
//! benchmark's own FNV digest over outcome histograms.

use wmm_core::campaign::Fnv64;
use wmm_gen::Shape;
use wmm_litmus::{Histogram, LitmusInstance};

/// The seed whose digests and counters are recorded in [`expected`].
pub const DEFAULT_SEED: u64 = 2016;

/// Fold one labelled histogram into a digest: totals, every outcome
/// vector with its count (in the histogram's sorted order) and the
/// channel totals.
pub fn fold_hist(f: &mut Fnv64, label: &str, hist: &Histogram) {
    f.write(label.as_bytes());
    f.write(&[0]);
    f.write_u64(hist.total());
    f.write_u64(hist.weak());
    for (obs, n) in hist.iter() {
        f.write_u64(obs.len() as u64);
        for &v in obs {
            f.write_u64(u64::from(v));
        }
        f.write_u64(n);
    }
    for c in hist.channels().as_array() {
        f.write_u64(c);
    }
}

/// Whether `shape` is a fenced twin (`+fences`, `+fence`,
/// `+fence_block`): its fences order every communicating pair, so it
/// must show zero weak outcomes on every chip under every environment.
pub fn is_fenced_twin(shape: Shape) -> bool {
    shape.short().contains("+fence")
}

/// Invariants of one litmus campaign's histogram: it holds exactly
/// `execs` runs, every outcome vector has one value per observer, the
/// weak count agrees with the instance's SC set, and a fenced twin is
/// never weak. Returns the violations (empty when correct).
pub fn litmus_problems(
    label: &str,
    shape: Shape,
    inst: &LitmusInstance,
    hist: &Histogram,
    execs: u32,
) -> Vec<String> {
    let mut out = Vec::new();
    if hist.total() != u64::from(execs) {
        out.push(format!(
            "{label}: {} runs recorded, {execs} executed",
            hist.total()
        ));
    }
    let mut weak = 0;
    for (obs, n) in hist.iter() {
        if obs.len() != inst.observers.len() {
            out.push(format!("{label}: outcome {obs:?} has the wrong arity"));
        }
        if inst.is_weak(obs) {
            weak += n;
        }
    }
    if weak != hist.weak() {
        out.push(format!(
            "{label}: {} weak recorded, SC set says {weak}",
            hist.weak()
        ));
    }
    if is_fenced_twin(shape) && hist.weak() != 0 {
        out.push(format!(
            "{label}: fenced twin went weak ({} runs)",
            hist.weak()
        ));
    }
    out
}

/// Deterministic totals of one round (suites) or batch (soak): a pure
/// function of the workload and its seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Campaigns (suite cells or engine jobs).
    pub campaigns: u64,
    /// Executions (litmus runs plus application runs).
    pub runs: u64,
    /// Weak litmus outcomes plus erroneous application runs.
    pub weak: u64,
    /// Weakness-channel totals over every litmus run.
    pub channels: [u64; 5],
}

impl Counters {
    pub fn add_litmus(&mut self, hist: &Histogram) {
        self.campaigns += 1;
        self.runs += hist.total();
        self.weak += hist.weak();
        for (t, c) in self.channels.iter_mut().zip(hist.channels().as_array()) {
            *t += c;
        }
    }
}

/// The digest and counters recorded for a workload's first round or
/// batch at [`DEFAULT_SEED`].
pub fn expected(workload: &str) -> Option<(u64, Counters)> {
    let c = |campaigns, runs, weak, channels| Counters {
        campaigns,
        runs,
        weak,
        channels,
    };
    match workload {
        "suite-native" => Some((0x99b8_a72d_b2af_ce1a, c(196, 6272, 0, [2, 0, 0, 768, 4672]))),
        "suite-stressed" => Some((
            0x9249_e2d5_2cad_0ad3,
            c(224, 7168, 199, [177, 24445, 1_063_444, 1536, 9344]),
        )),
        "soak-mix" => Some((
            0x1bb8_b395_ebc3_97ba,
            c(1000, 6840, 399, [113, 16294, 366_274, 720, 4380]),
        )),
        _ => None,
    }
}

/// Accumulates the gate's verdict over a run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Campaigns checked.
    pub attempted: u64,
    /// Campaigns with at least one violation.
    pub failed: u64,
    /// Every violation, for the report.
    pub problems: Vec<String>,
}

impl Gate {
    /// Record one campaign with its violations.
    pub fn campaign(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Record a violation that no single campaign owns (a digest or
    /// replay mismatch, a failed drain): the `campaigns` it covers count
    /// as failed.
    pub fn fail_many(&mut self, campaigns: u64, problem: String) {
        self.failed = (self.failed + campaigns).min(self.attempted);
        self.problems.push(problem);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_litmus::LitmusOutcome;
    use wmm_obs::ChannelCounts;

    fn hist(outcomes: &[(&[u32], bool)]) -> Histogram {
        let mut h = Histogram::new();
        for &(obs, weak) in outcomes {
            h.record(LitmusOutcome {
                obs: obs.to_vec(),
                weak,
                channels: ChannelCounts::default(),
            });
        }
        h
    }

    #[test]
    fn histogram_digest_is_order_free_and_content_sensitive() {
        let a = hist(&[(&[0, 1], false), (&[1, 0], true), (&[0, 1], false)]);
        let b = hist(&[(&[1, 0], true), (&[0, 1], false), (&[0, 1], false)]);
        let c = hist(&[(&[1, 0], true), (&[0, 1], false), (&[1, 1], false)]);
        let digest = |h: &Histogram, label: &str| {
            let mut f = Fnv64::new();
            fold_hist(&mut f, label, h);
            f.finish()
        };
        assert_eq!(digest(&a, "MP"), digest(&b, "MP"));
        assert_ne!(digest(&a, "MP"), digest(&c, "MP"));
        assert_ne!(digest(&a, "MP"), digest(&a, "SB"));
    }

    #[test]
    fn fenced_twins_are_recognised_by_name() {
        assert!(is_fenced_twin(Shape::MpFences));
        assert!(is_fenced_twin(Shape::CoRRFence));
        assert!(is_fenced_twin(Shape::MpSharedFence));
        assert!(!is_fenced_twin(Shape::Mp));
        assert!(!is_fenced_twin(Shape::MpShared));
    }

    #[test]
    fn litmus_problems_catch_short_campaigns_and_weak_twins() {
        let layout = wmm_litmus::LitmusLayout::standard(64, 8192);
        let inst = Shape::MpFences.instance(layout);
        let weak_obs = [1u32, 0];
        assert!(inst.is_weak(&weak_obs));
        let ok = hist(&[(&[1, 1], false), (&[0, 0], false)]);
        assert!(litmus_problems("t", Shape::MpFences, &inst, &ok, 2).is_empty());
        assert_eq!(
            litmus_problems("t", Shape::MpFences, &inst, &ok, 3).len(),
            1
        );
        let weak = hist(&[(&weak_obs, true)]);
        assert_eq!(
            litmus_problems("t", Shape::MpFences, &inst, &weak, 1).len(),
            1
        );
        // A weak flag the SC set disagrees with is caught too.
        let mislabelled = hist(&[(&[1, 1], true)]);
        assert!(!litmus_problems("t", Shape::Mp, &inst, &mislabelled, 1).is_empty());
    }

    #[test]
    fn gate_counts_failed_campaigns() {
        let mut g = Gate::default();
        g.campaign(vec![]);
        g.campaign(vec!["bad".into(), "worse".into()]);
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert!(!g.correct());
    }
}
