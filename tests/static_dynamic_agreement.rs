//! Cross-validation of the static scoped-communication analyzer against
//! the dynamic litmus suite (the soundness contract of `wmm-analysis`):
//!
//! * every dynamically weak suite row carries a static warning;
//! * every fenced twin the dynamic suite never observes weak is
//!   statically certified quiet;
//! * the analyzer is exact and deterministic: identical reports on
//!   repeated runs and for every campaign worker count;
//! * the rendered analysis of the whole catalogue, every chip and every
//!   application is pinned bit for bit by one golden digest.

use gpu_wmm::analysis::{analyze_litmus, analyze_litmus_on_chip, ProgramAnalysis};
use gpu_wmm::apps::all_apps;
use gpu_wmm::core::suite::{run_suite, SuiteConfig, SuiteStrategy};
use gpu_wmm::core::{analyze_spec, Fnv64};
use gpu_wmm::gen::Shape;
use gpu_wmm::litmus::LitmusLayout;
use gpu_wmm::sim::chip::Chip;
use gpu_wmm::sim::ir::FenceLevel;

/// The catalogue shapes with no unfenced delay pair *under the
/// chip-independent analysis*: the coherence (same-location) shapes and
/// every fenced twin. On incoherent-L1 chips the chip-aware analysis
/// revokes CoRR's exemption (its read-read pair can observe a stale L1
/// line) — the dedicated test below covers that.
const QUIET: [Shape; 12] = [
    Shape::CoRR,
    Shape::CoRRFence,
    Shape::CoWW,
    Shape::CoRRShared,
    Shape::CoAdd,
    Shape::MpFences,
    Shape::SbFences,
    Shape::MpSharedFence,
    Shape::SbSharedFence,
    Shape::WrcFences,
    Shape::Isa2Fences,
    Shape::IriwFences,
];

fn instance(shape: Shape) -> gpu_wmm::litmus::LitmusInstance {
    shape.instance(LitmusLayout::standard(64, 2048))
}

#[test]
fn every_catalogue_shape_has_the_expected_static_verdict() {
    for shape in Shape::ALL {
        let a = analyze_litmus(&instance(shape));
        if QUIET.contains(&shape) {
            assert!(a.quiet(), "{shape} should be quiet: {:?}", a.warnings);
        } else {
            assert!(!a.quiet(), "{shape} communicates weakly and must warn");
        }
        // Warnings anchor on real fence sites.
        for w in &a.warnings {
            assert!(a.sites.iter().any(|s| s.index == w.from), "{shape}: {w}");
            assert!(a.sites.iter().any(|s| s.index == w.to), "{shape}: {w}");
        }
        // Fenced twins are quiet *because* their pairs are ordered, not
        // because the analyzer failed to find them.
        if Shape::SCOPED_FENCED.contains(&shape)
            || Shape::WIDE_FENCED.contains(&shape)
            || matches!(shape, Shape::MpFences | Shape::SbFences)
        {
            assert!(a.ordered_edges >= 2, "{shape}: {}", a.ordered_edges);
        }
    }
}

#[test]
fn scoped_shapes_warn_at_block_level_and_mixed_at_device() {
    for shape in [Shape::MpShared, Shape::SbShared] {
        let a = analyze_litmus(&instance(shape));
        assert_eq!(
            a.max_warning_level(),
            Some(FenceLevel::Block),
            "{shape} is pure intra-block shared-space communication"
        );
    }
    for shape in Shape::MIXED {
        let a = analyze_litmus(&instance(shape));
        assert_eq!(
            a.max_warning_level(),
            Some(FenceLevel::Device),
            "{shape} communicates through global memory too"
        );
    }
}

#[test]
fn dynamic_weakness_implies_a_static_warning() {
    let chips = [Chip::by_short("Titan").unwrap()];
    let strategies = [
        SuiteStrategy::sys_str_plus(40),
        SuiteStrategy::shared_sys_str_plus(40),
    ];
    let cfg = SuiteConfig {
        execs: 48,
        ..Default::default()
    };
    let cells = run_suite(&Shape::ALL, &chips, &strategies, &cfg);
    let mut weak_rows = 0;
    for c in &cells {
        if c.hist.weak() > 0 {
            weak_rows += 1;
            assert!(
                !c.static_verdict.quiet(),
                "{} went weak under {} ({}) without a static warning",
                c.shape,
                c.strategy,
                c.hist
            );
        }
        if QUIET.contains(&c.shape) {
            assert!(c.static_verdict.quiet(), "{}", c.shape);
            assert_eq!(
                c.hist.weak(),
                0,
                "{} is certified quiet but went weak under {}",
                c.shape,
                c.strategy
            );
        }
    }
    // The cross-check is vacuous unless the campaign actually observed
    // weak behaviors.
    assert!(weak_rows >= 5, "only {weak_rows} weak rows observed");
}

#[test]
fn incoherent_l1_weakness_implies_a_chip_aware_static_warning() {
    // The suite's static column is computed per chip: on the
    // incoherent-L1 C2075 the `l1-str+` column makes CoRR go weak
    // dynamically and the chip-aware analysis must warn on exactly
    // those rows, while CoRR+fence is certified quiet and never goes
    // weak, and the coherent-L1 K20 keeps both quiet and at zero.
    let chips = [
        Chip::by_short("C2075").unwrap(),
        Chip::by_short("K20").unwrap(),
    ];
    let cfg = SuiteConfig {
        execs: 24,
        ..Default::default()
    };
    let cells = run_suite(
        &[Shape::CoRR, Shape::CoRRFence],
        &chips,
        &[SuiteStrategy::l1_str_plus(40)],
        &cfg,
    );
    let mut corr_weak_rows = 0;
    for c in &cells {
        if c.hist.weak() > 0 {
            assert!(
                !c.static_verdict.quiet(),
                "{} on {} went weak without a chip-aware warning",
                c.shape,
                c.chip
            );
        }
        match (c.shape, c.chip.as_str()) {
            (Shape::CoRR, "C2075") => {
                assert!(!c.static_verdict.quiet(), "CoRR must warn on the C2075");
                if c.hist.weak() > 0 {
                    corr_weak_rows += 1;
                }
            }
            (Shape::CoRR, _) => {
                assert!(c.static_verdict.quiet(), "CoRR stays exempt on {}", c.chip);
                assert_eq!(c.hist.weak(), 0, "CoRR went weak on coherent {}", c.chip);
            }
            (Shape::CoRRFence, _) => {
                assert!(c.static_verdict.quiet(), "CoRR+fence quiet on {}", c.chip);
                assert_eq!(c.hist.weak(), 0, "CoRR+fence went weak on {}", c.chip);
            }
            _ => unreachable!(),
        }
    }
    assert!(
        corr_weak_rows > 0,
        "the cross-check is vacuous: CoRR never went weak on the C2075"
    );
}

#[test]
fn static_reports_are_deterministic_across_runs_and_workers() {
    // The analyzer itself is a pure function of the instance.
    for shape in [Shape::Mp, Shape::MpShared, Shape::Isa2Scoped] {
        let a = format!("{:?}", analyze_litmus(&instance(shape)));
        let b = format!("{:?}", analyze_litmus(&instance(shape)));
        assert_eq!(a, b, "{shape}");
    }
    // And the suite's static column is identical for every worker
    // count, alongside the histograms.
    let chips = [Chip::by_short("Titan").unwrap()];
    let shapes = [Shape::Mp, Shape::MpShared, Shape::MpFences];
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|w| {
            let cfg = SuiteConfig {
                execs: 16,
                workers: w,
                ..Default::default()
            };
            run_suite(&shapes, &chips, &[SuiteStrategy::sys_str_plus(40)], &cfg)
        })
        .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].len(), other.len());
        for (a, b) in runs[0].iter().zip(other.iter()) {
            assert_eq!(a.hist, b.hist, "{}", a.shape);
            assert_eq!(a.static_verdict, b.static_verdict, "{}", a.shape);
        }
    }
}

/// Fold one rendered analysis into `h`: a label line, every warning and
/// site through its `Display`, and the ordered-edge count.
fn fold_analysis(h: &mut Fnv64, label: &str, a: &ProgramAnalysis) {
    h.write(label.as_bytes());
    h.write(b"\n");
    for w in &a.warnings {
        h.write(format!("{w}\n").as_bytes());
    }
    for s in &a.sites {
        h.write(format!("{s}\n").as_bytes());
    }
    h.write(format!("ordered {}\n", a.ordered_edges).as_bytes());
}

#[test]
fn rendered_analysis_matches_the_golden_digest() {
    // Recorded from the set-based abstract domain the analyzer first
    // shipped with; any change to the domain, the worklist or the delay
    // search must leave every warning, verdict and count untouched.
    const GOLDEN: u64 = 0x31f9_35f4_ff29_0a5c;
    let mut h = Fnv64::new();
    for shape in Shape::ALL {
        let li = instance(shape);
        fold_analysis(&mut h, &format!("{shape}"), &analyze_litmus(&li));
        for chip in Chip::all() {
            let label = format!("{shape} on {}", chip.short);
            fold_analysis(&mut h, &label, &analyze_litmus_on_chip(&li, &chip));
        }
    }
    for app in all_apps() {
        for (k, phase) in analyze_spec(app.spec()).phases.iter().enumerate() {
            fold_analysis(&mut h, &format!("{} phase {k}", app.name()), phase);
        }
    }
    assert_eq!(h.finish(), GOLDEN, "digest {:016x}", h.finish());
}
