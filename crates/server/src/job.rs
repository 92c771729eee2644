//! Job specifications: one queued campaign request.
//!
//! A [`JobSpec`] is everything the engine needs to run one campaign —
//! chip, environment, workload, execution count and the job's own seed
//! — and nothing more: results are a pure function of the spec, which
//! is what makes queue interleaving, worker count and cache hits
//! invisible (see the crate docs).
//!
//! Specs round-trip through a compact one-line text form for
//! `repro serve --jobs`:
//!
//! ```text
//! litmus <chip> <env> <shape> <distance> <execs> <seed>
//! app    <chip> <env> <name>  <runs>     <seed>
//! ```
//!
//! e.g. `litmus Titan sys-str+ MP 64 32 7` or
//! `app K20 shm+sys-str+ shm-pipe 40 3`; [`parse_jobs`] accepts many
//! jobs separated by newlines or `;`, with `#` comments.

use std::fmt;
use std::str::FromStr;
use wmm_core::cache::{ArtifactCache, ArtifactKey};
use wmm_core::campaign::{CampaignBuilder, CampaignJob, SummaryValue};
use wmm_core::env::{AppHarness, Environment};
use wmm_core::stress::{Scratchpad, StressArtifacts};
use wmm_gen::Shape;
use wmm_litmus::LitmusLayout;
use wmm_sim::chip::Chip;

/// The scratchpad litmus jobs stress — the same layout the one-shot
/// suite runner defaults to
/// ([`SuiteConfig::default`](wmm_core::suite::SuiteConfig)), so a
/// queued suite cell runs the same campaign as its `run_suite` cell.
pub fn litmus_pad() -> Scratchpad {
    Scratchpad::new(2048, 6144)
}

/// The five suite environments a job can request — the four columns of
/// the generated-suite evaluation plus the native baseline. A closed
/// enum (rather than a free-form [`Environment`]) keeps job specs
/// textual, hashable and chip-portable: the tuned parameters are
/// resolved per chip at execution time, exactly as the suite columns
/// resolve theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// `no-str-`: native execution.
    Native,
    /// `sys-str+`: tuned systematic stress + thread randomisation.
    SysStrPlus,
    /// `rand-str+`: random stress + thread randomisation.
    RandStrPlus,
    /// `shm+sys-str+`: tuned systematic stress + intra-block
    /// shared-space stress.
    ShmSysStrPlus,
    /// `l1-str+`: write-only cross-SM stress (the structural channel).
    L1StrPlus,
}

impl EnvKind {
    /// All five, in the suite's column order.
    pub const ALL: [EnvKind; 5] = [
        EnvKind::Native,
        EnvKind::SysStrPlus,
        EnvKind::RandStrPlus,
        EnvKind::ShmSysStrPlus,
        EnvKind::L1StrPlus,
    ];

    /// The column/environment name (`no-str-`, `sys-str+`, …).
    pub fn name(self) -> &'static str {
        match self {
            EnvKind::Native => "no-str-",
            EnvKind::SysStrPlus => "sys-str+",
            EnvKind::RandStrPlus => "rand-str+",
            EnvKind::ShmSysStrPlus => "shm+sys-str+",
            EnvKind::L1StrPlus => "l1-str+",
        }
    }

    /// Stressing-loop iterations for litmus jobs (0 for native — the
    /// suite columns' calibration).
    pub fn litmus_iters(self) -> u32 {
        match self {
            EnvKind::Native => 0,
            _ => 40,
        }
    }

    /// Resolve to a concrete [`Environment`] on `chip` (the systematic
    /// strategy's parameters are per-chip, Tab. 2).
    pub fn environment(self, chip: &Chip) -> Environment {
        match self {
            EnvKind::Native => Environment::native(),
            EnvKind::SysStrPlus => Environment::sys_str_plus(chip),
            EnvKind::RandStrPlus => Environment {
                stress: wmm_core::stress::StressStrategy::Random,
                randomize: true,
                shared: None,
            },
            EnvKind::ShmSysStrPlus => Environment::shared_sys_str_plus(chip),
            EnvKind::L1StrPlus => Environment::l1_str_plus(),
        }
    }
}

impl fmt::Display for EnvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl FromStr for EnvKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EnvKind::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = EnvKind::ALL.iter().map(|e| e.name()).collect();
                format!(
                    "unknown environment {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// What a job runs: a generated litmus test (a suite cell) or an
/// application campaign.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// A generated litmus shape at an instantiation distance.
    Litmus {
        /// The shape (any of [`Shape::ALL`]).
        shape: Shape,
        /// Communication-location distance in words.
        distance: u32,
    },
    /// An application campaign, by Tab. 4 short name (or `shm-pipe`).
    App {
        /// The application's short name.
        name: String,
    },
}

/// One queued campaign request. See the module docs for the text form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Chip short name (e.g. `"Titan"`).
    pub chip: String,
    /// The testing environment.
    pub env: EnvKind,
    /// What to run.
    pub workload: WorkloadSpec,
    /// Executions (the paper's `C`; for apps, campaign runs).
    pub execs: u32,
    /// The job's own base seed — all of its randomness derives from
    /// this, so the result is a pure function of the spec.
    pub seed: u64,
}

impl JobSpec {
    /// Check the spec resolves (chip exists, application exists,
    /// non-zero execution count) without running anything. The engine
    /// validates at submission so workers never meet an unrunnable job.
    pub fn validate(&self) -> Result<(), String> {
        Chip::by_short(&self.chip).ok_or_else(|| format!("unknown chip {:?}", self.chip))?;
        if self.execs == 0 {
            return Err(format!("{self}: execution count must be positive"));
        }
        match &self.workload {
            WorkloadSpec::Litmus { distance, .. } => {
                if *distance == 0 {
                    return Err(format!("{self}: distance must be positive"));
                }
            }
            WorkloadSpec::App { name } => {
                if wmm_apps::app_by_name(name).is_none() {
                    return Err(format!("unknown application {name:?}"));
                }
            }
        }
        Ok(())
    }

    /// Execute the campaign this spec describes and summarise it.
    ///
    /// With a cache, the environment's stress artifacts are shared with
    /// every other job keying to the same [`ArtifactKey`]; without one,
    /// they are built fresh. Both routes go through
    /// [`ArtifactKey::build`], and every per-run value is drawn from the
    /// run's own seeded RNG, so the result is identical either way —
    /// the equivalence the server's determinism guarantee rests on.
    pub fn execute(
        &self,
        parallelism: usize,
        cache: Option<&ArtifactCache>,
    ) -> Result<SummaryValue, String> {
        let chip =
            Chip::by_short(&self.chip).ok_or_else(|| format!("unknown chip {:?}", self.chip))?;
        let env = self.env.environment(&chip);
        match &self.workload {
            WorkloadSpec::Litmus { shape, distance } => {
                let pad = litmus_pad();
                let inst = shape.instance(LitmusLayout::standard(*distance, pad.required_words()));
                let artifacts = resolve_artifacts(cache, &chip, &env, pad, self.env.litmus_iters());
                let campaign = CampaignBuilder::new(&chip)
                    .stress(artifacts)
                    .randomize_ids(env.randomize)
                    .count(self.execs)
                    .base_seed(self.seed)
                    .parallelism(parallelism)
                    .build();
                Ok(inst.run_on(&campaign))
            }
            WorkloadSpec::App { name } => {
                let app = wmm_apps::app_by_name(name)
                    .ok_or_else(|| format!("unknown application {name:?}"))?;
                let harness = AppHarness::new(&chip, app.as_ref());
                let artifacts = resolve_artifacts(
                    cache,
                    &chip,
                    &env,
                    harness.scratchpad(),
                    harness.calibrated_iters(),
                );
                let campaign = CampaignBuilder::new(&chip)
                    .stress(artifacts)
                    .randomize_ids(env.randomize)
                    .count(self.execs)
                    .base_seed(self.seed)
                    .parallelism(parallelism)
                    .build();
                Ok(harness.run_on(&campaign))
            }
        }
    }
}

/// Cache-or-build: both arms produce [`ArtifactKey::build`]'s value.
fn resolve_artifacts(
    cache: Option<&ArtifactCache>,
    chip: &Chip,
    env: &Environment,
    pad: Scratchpad,
    iters: u32,
) -> StressArtifacts {
    match cache {
        Some(c) => (*c.get(chip, env, pad, iters)).clone(),
        None => ArtifactKey {
            chip: chip.clone(),
            env: env.clone(),
            pad,
            iters,
        }
        .build(),
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.workload {
            WorkloadSpec::Litmus { shape, distance } => write!(
                f,
                "litmus {} {} {} {} {} {}",
                self.chip, self.env, shape, distance, self.execs, self.seed
            ),
            WorkloadSpec::App { name } => write!(
                f,
                "app {} {} {} {} {}",
                self.chip, self.env, name, self.execs, self.seed
            ),
        }
    }
}

impl FromStr for JobSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields: Vec<&str> = s.split_whitespace().collect();
        let usage = "expected `litmus <chip> <env> <shape> <distance> <execs> <seed>` \
                     or `app <chip> <env> <name> <runs> <seed>`";
        fn num<T: FromStr>(job: &str, field: &str, what: &str) -> Result<T, String> {
            field
                .parse::<T>()
                .map_err(|_| format!("bad {what} {field:?} in job {job:?}"))
        }
        let spec = match fields.as_slice() {
            ["litmus", chip, env, shape, distance, execs, seed] => JobSpec {
                chip: (*chip).to_string(),
                env: env.parse()?,
                workload: WorkloadSpec::Litmus {
                    shape: shape.parse()?,
                    distance: num(s, distance, "distance")?,
                },
                execs: num(s, execs, "execution count")?,
                seed: num(s, seed, "seed")?,
            },
            ["app", chip, env, name, runs, seed] => JobSpec {
                chip: (*chip).to_string(),
                env: env.parse()?,
                workload: WorkloadSpec::App {
                    name: (*name).to_string(),
                },
                execs: num(s, runs, "run count")?,
                seed: num(s, seed, "seed")?,
            },
            _ => return Err(format!("cannot parse job {s:?}: {usage}")),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Parse a job list: one [`JobSpec`] per line or `;`-separated entry;
/// blank entries and `#` comment lines are skipped.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut out = Vec::new();
    for entry in text.split(['\n', ';']) {
        let entry = entry.trim();
        if entry.is_empty() || entry.starts_with('#') {
            continue;
        }
        out.push(entry.parse()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_text() {
        let jobs = [
            JobSpec {
                chip: "Titan".into(),
                env: EnvKind::SysStrPlus,
                workload: WorkloadSpec::Litmus {
                    shape: Shape::Mp,
                    distance: 64,
                },
                execs: 32,
                seed: 7,
            },
            JobSpec {
                chip: "K20".into(),
                env: EnvKind::ShmSysStrPlus,
                workload: WorkloadSpec::App {
                    name: "shm-pipe".into(),
                },
                execs: 40,
                seed: 3,
            },
        ];
        for job in jobs {
            let text = job.to_string();
            let back: JobSpec = text.parse().unwrap();
            assert_eq!(job, back, "{text}");
        }
    }

    #[test]
    fn parse_jobs_handles_separators_and_comments() {
        let text = "\
            # suite cells\n\
            litmus Titan sys-str+ MP 64 8 1; litmus Titan no-str- SB 64 8 2\n\
            \n\
            app Titan rand-str+ shm-pipe 4 3\n";
        let jobs = parse_jobs(text).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].env, EnvKind::SysStrPlus);
        assert_eq!(jobs[1].env, EnvKind::Native);
        assert!(matches!(&jobs[2].workload, WorkloadSpec::App { name } if name == "shm-pipe"));
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "litmus NoSuchChip sys-str+ MP 64 8 1",
            "litmus Titan mystery-str MP 64 8 1",
            "litmus Titan sys-str+ NOTASHAPE 64 8 1",
            "litmus Titan sys-str+ MP 64 0 1",
            "app Titan sys-str+ no-such-app 4 1",
            "serve Titan sys-str+ MP 64 8 1",
            "litmus Titan sys-str+ MP sixty-four 8 1",
            "litmus Titan sys-str+ MP 4294967360 8 1",
            "litmus Titan sys-str+ MP 64 4294967297 1",
        ] {
            assert!(bad.parse::<JobSpec>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn env_kinds_match_suite_column_names() {
        let names: Vec<&str> = EnvKind::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "no-str-",
                "sys-str+",
                "rand-str+",
                "shm+sys-str+",
                "l1-str+"
            ]
        );
        for kind in EnvKind::ALL {
            assert_eq!(kind.name().parse::<EnvKind>().unwrap(), kind);
        }
    }

    #[test]
    fn env_kind_resolves_to_the_matching_environment() {
        let chip = Chip::by_short("Titan").unwrap();
        for kind in EnvKind::ALL {
            assert_eq!(kind.environment(&chip).name(), kind.name());
        }
    }

    #[test]
    fn cached_and_uncached_execution_agree() {
        let spec = JobSpec {
            chip: "K20".into(),
            env: EnvKind::SysStrPlus,
            workload: WorkloadSpec::Litmus {
                shape: Shape::Mp,
                distance: 64,
            },
            execs: 24,
            seed: 11,
        };
        let cache = ArtifactCache::new();
        let cached = spec.execute(1, Some(&cache)).unwrap();
        let fresh = spec.execute(1, None).unwrap();
        assert_eq!(cached, fresh);
        assert!(cached.as_litmus().unwrap().total() == 24);
    }
}
