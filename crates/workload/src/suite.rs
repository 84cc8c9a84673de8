//! The fifteen SPEC95 proxy benchmarks (paper §4–§5.3).
//!
//! The paper runs SPEC95 minus three programs on SimpleScalar. We cannot
//! ship SPEC95, so each benchmark is a *synthetic proxy*: a generated
//! program whose instruction-footprint schedule encodes the published
//! behaviour that drives every DRI result. §5.3 sorts the benchmarks into
//! three classes, which we reproduce directly:
//!
//! * **Class 1** — small working sets ("mostly execute tight loops…
//!   primarily stay at the size-bound"): applu, compress, li, mgrid, swim;
//! * **Class 2** — large working sets ("require a large i-cache throughout
//!   … do not benefit much from downsizing"): apsi, fpppp (the extreme
//!   case, full 64K), go, m88ksim, perl;
//! * **Class 3** — distinct phases ("initialization … then small loops";
//!   crisp for hydro2d/ijpeg, blurred for gcc/su2cor/tomcatv): gcc,
//!   hydro2d, ijpeg, su2cor, tomcatv.
//!
//! Branch predictability is degraded for go and gcc (the classically
//! hard-to-predict SPEC95 members) via LCG-derived branch outcomes, and
//! swim/tomcatv/go/gcc/hydro2d/su2cor use sparse code layouts so
//! direct-mapped conflict misses appear at small sizes (Figure 6's DM vs
//! 4-way comparison).

use crate::generator::{generate, Generated, GeneratorSpec, PhaseSpec, ScheduleEntry};

/// The benchmark class taxonomy of paper §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Small working set; lives at the size-bound.
    SmallWorkingSet,
    /// Large working set; resists downsizing.
    LargeWorkingSet,
    /// Distinct phases with diverse size requirements.
    Phased,
}

/// The fifteen SPEC95 proxies used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are benchmark names
pub enum Benchmark {
    Applu,
    Compress,
    Li,
    Mgrid,
    Swim,
    Apsi,
    Fpppp,
    Go,
    M88ksim,
    Perl,
    Gcc,
    Hydro2d,
    Ijpeg,
    Su2cor,
    Tomcatv,
}

const KB: u64 = 1024;

impl Benchmark {
    /// All benchmarks in the paper's presentation order (class 1, 2, 3).
    pub fn all() -> [Benchmark; 15] {
        [
            Benchmark::Applu,
            Benchmark::Compress,
            Benchmark::Li,
            Benchmark::Mgrid,
            Benchmark::Swim,
            Benchmark::Apsi,
            Benchmark::Fpppp,
            Benchmark::Go,
            Benchmark::M88ksim,
            Benchmark::Perl,
            Benchmark::Gcc,
            Benchmark::Hydro2d,
            Benchmark::Ijpeg,
            Benchmark::Su2cor,
            Benchmark::Tomcatv,
        ]
    }

    /// Lower-case name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Applu => "applu",
            Benchmark::Compress => "compress",
            Benchmark::Li => "li",
            Benchmark::Mgrid => "mgrid",
            Benchmark::Swim => "swim",
            Benchmark::Apsi => "apsi",
            Benchmark::Fpppp => "fpppp",
            Benchmark::Go => "go",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Perl => "perl",
            Benchmark::Gcc => "gcc",
            Benchmark::Hydro2d => "hydro2d",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::Su2cor => "su2cor",
            Benchmark::Tomcatv => "tomcatv",
        }
    }

    /// The paper's class for this benchmark.
    pub fn class(self) -> BenchClass {
        match self {
            Benchmark::Applu
            | Benchmark::Compress
            | Benchmark::Li
            | Benchmark::Mgrid
            | Benchmark::Swim => BenchClass::SmallWorkingSet,
            Benchmark::Apsi
            | Benchmark::Fpppp
            | Benchmark::Go
            | Benchmark::M88ksim
            | Benchmark::Perl => BenchClass::LargeWorkingSet,
            Benchmark::Gcc
            | Benchmark::Hydro2d
            | Benchmark::Ijpeg
            | Benchmark::Su2cor
            | Benchmark::Tomcatv => BenchClass::Phased,
        }
    }

    /// Whether the proxy is floating-point flavoured (SPEC95fp member).
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            Benchmark::Applu
                | Benchmark::Mgrid
                | Benchmark::Swim
                | Benchmark::Apsi
                | Benchmark::Fpppp
                | Benchmark::Hydro2d
                | Benchmark::Su2cor
                | Benchmark::Tomcatv
        )
    }

    /// The generator specification encoding this benchmark's published
    /// footprint/phase behaviour.
    pub fn spec(self) -> GeneratorSpec {
        let flat = |name: &str, fp: u64, insts: u64| GeneratorSpec {
            name: name.into(),
            phases: vec![PhaseSpec {
                footprint_bytes: fp,
            }],
            schedule: vec![ScheduleEntry {
                phase: 0,
                instructions: insts,
            }],
            ..GeneratorSpec::basic(name, fp, insts)
        };
        let fp_mix = |mut s: GeneratorSpec| {
            s.fp_every = 3;
            s.mem_every = 4;
            s
        };
        let phases = |name: &str, footprints: &[u64], sched: &[(usize, u64)]| -> GeneratorSpec {
            GeneratorSpec {
                name: name.into(),
                phases: footprints
                    .iter()
                    .map(|&footprint_bytes| PhaseSpec { footprint_bytes })
                    .collect(),
                schedule: sched
                    .iter()
                    .map(|&(phase, instructions)| ScheduleEntry {
                        phase,
                        instructions,
                    })
                    .collect(),
                ..GeneratorSpec::basic(name, 0, 1)
            }
        };

        match self {
            // ---- Class 1: small working sets --------------------------
            Benchmark::Applu => {
                let mut s = fp_mix(flat("applu", 2 * KB, 4_000_000));
                s.seed = 0xA0;
                s
            }
            Benchmark::Compress => {
                let mut s = flat("compress", 2 * KB, 4_000_000);
                s.mem_every = 3; // compression is load/store heavy
                s.seed = 0xC0;
                s
            }
            Benchmark::Li => {
                // Lisp interpreter: tiny hot loop, call heavy (small
                // routines).
                let mut s = flat("li", KB, 4_000_000);
                s.routine_bytes = 256;
                s.seed = 0x11;
                s
            }
            Benchmark::Mgrid => {
                let mut s = fp_mix(flat("mgrid", KB, 4_000_000));
                s.routine_bytes = 512;
                s.seed = 0x3d;
                s
            }
            Benchmark::Swim => {
                // Two/three stencil kernels placed 4K apart: conflict pairs
                // appear once the cache shrinks below the layout span.
                let mut s = fp_mix(flat("swim", 3 * KB, 4_000_000));
                s.gap_bytes = 3 * KB;
                s.seed = 0x54;
                s
            }

            // ---- Class 2: large working sets ---------------------------
            Benchmark::Apsi => {
                let mut s = fp_mix(flat("apsi", 24 * KB, 5_000_000));
                s.seed = 0xA9;
                s
            }
            Benchmark::Fpppp => {
                // Enormous straight-line basic blocks using the full 64K.
                let mut s = fp_mix(flat("fpppp", 60 * KB, 6_000_000));
                s.routine_bytes = 4 * KB;
                s.branch_every = 24;
                s.seed = 0xF4;
                s
            }
            Benchmark::Go => {
                let mut s = phases(
                    "go",
                    &[24 * KB, 40 * KB, 56 * KB],
                    &[
                        (0, 1_800_000),
                        (1, 3_000_000),
                        (2, 2_400_000),
                        (0, 1_200_000),
                        (2, 3_600_000),
                        (1, 1_800_000),
                        (2, 3_000_000),
                        (0, 2_400_000),
                    ],
                );
                s.random_branch_fraction = 0.4; // notoriously unpredictable
                s.branch_every = 8;
                s.cold_fraction = 0.17;
                s.seed = 0x60;
                s
            }
            Benchmark::M88ksim => {
                let mut s = flat("m88ksim", 16 * KB, 5_000_000);
                s.seed = 0x88;
                s
            }
            Benchmark::Perl => {
                let mut s = phases(
                    "perl",
                    &[20 * KB, 12 * KB],
                    &[(0, 1_600_000), (1, 400_000), (0, 1_400_000), (1, 600_000)],
                );
                s.seed = 0x9e;
                s
            }

            // ---- Class 3: phased ----------------------------------------
            Benchmark::Gcc => {
                let mut s = phases(
                    "gcc",
                    &[8 * KB, 24 * KB, 48 * KB, 16 * KB, 32 * KB],
                    &[
                        (2, 2_000_000),
                        (0, 800_000),
                        (1, 1_600_000),
                        (3, 1_200_000),
                        (4, 1_600_000),
                        (1, 800_000),
                        (2, 2_400_000),
                        (0, 400_000),
                        (4, 1_200_000),
                        (3, 800_000),
                    ],
                );
                s.random_branch_fraction = 0.25;
                s.branch_every = 8;
                s.cold_fraction = 0.17;
                s.seed = 0x6CC;
                s
            }
            Benchmark::Hydro2d => {
                // Crisp init-then-loops structure: full-size initialization
                // then 2K kernels (paper: "after the initialization phase
                // requiring the full size … mainly small loops requiring
                // only 2K").
                let mut s = fp_mix(phases(
                    "hydro2d",
                    &[56 * KB, 2 * KB],
                    &[(0, 1_200_000), (1, 10_800_000)],
                ));
                s.cold_fraction = 0.17;
                s.seed = 0x42d;
                s
            }
            Benchmark::Ijpeg => {
                let mut s = phases(
                    "ijpeg",
                    &[48 * KB, 2 * KB],
                    &[(0, 1_000_000), (1, 9_000_000)],
                );
                s.cold_fraction = 0.17;
                s.seed = 0x1398;
                s
            }
            Benchmark::Su2cor => {
                let mut s = fp_mix(phases(
                    "su2cor",
                    &[40 * KB, 8 * KB, 24 * KB],
                    &[
                        (0, 3_500_000),
                        (1, 4_500_000),
                        (2, 3_000_000),
                        (1, 4_000_000),
                        (0, 2_500_000),
                        (1, 3_500_000),
                    ],
                ));
                s.cold_fraction = 0.17;
                s.seed = 0x52;
                s
            }
            Benchmark::Tomcatv => {
                let mut s = fp_mix(phases(
                    "tomcatv",
                    &[48 * KB, 16 * KB, 40 * KB],
                    &[
                        (0, 3_000_000),
                        (1, 1_500_000),
                        (2, 2_500_000),
                        (1, 1_500_000),
                        (2, 3_000_000),
                        (0, 2_000_000),
                    ],
                ));
                s.random_branch_fraction = 0.15;
                s.cold_fraction = 0.17;
                s.seed = 0x70;
                s
            }
        }
    }

    /// Generates the proxy program.
    pub fn build(self) -> Generated {
        generate(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn all_fifteen_benchmarks_generate_and_run() {
        for b in Benchmark::all() {
            let g = b.build();
            assert_eq!(g.program.name(), b.name());
            let mut m = Machine::new(&g.program);
            let s = m.run(50_000);
            assert_eq!(
                s.retired,
                50_000,
                "{}: must run indefinitely (outer wrap)",
                b.name()
            );
        }
    }

    #[test]
    fn class_membership_matches_paper() {
        use BenchClass::*;
        assert_eq!(Benchmark::Applu.class(), SmallWorkingSet);
        assert_eq!(Benchmark::Swim.class(), SmallWorkingSet);
        assert_eq!(Benchmark::Fpppp.class(), LargeWorkingSet);
        assert_eq!(Benchmark::Perl.class(), LargeWorkingSet);
        assert_eq!(Benchmark::Gcc.class(), Phased);
        assert_eq!(Benchmark::Tomcatv.class(), Phased);
        let counts = Benchmark::all()
            .iter()
            .filter(|b| b.class() == SmallWorkingSet)
            .count();
        assert_eq!(counts, 5);
    }

    #[test]
    fn footprints_span_the_published_range() {
        // Class 1 proxies are tiny; fpppp nearly fills the 64K cache.
        let li = Benchmark::Li.build();
        assert!(li.phase_footprints.iter().sum::<u64>() <= 2 * KB);
        let fpppp = Benchmark::Fpppp.build();
        assert!(fpppp.phase_footprints[0] >= 56 * KB);
        let gcc = Benchmark::Gcc.build();
        assert_eq!(gcc.phase_footprints.len(), 5);
    }

    #[test]
    fn fp_benchmarks_emit_fp_instructions() {
        let g = Benchmark::Swim.build();
        let has_fp = g
            .program
            .insts()
            .any(|i| i.op.writes_fp() || i.op.reads_fp());
        assert!(has_fp, "swim should contain FP work");
        let g = Benchmark::Compress.build();
        let has_fp = g
            .program
            .insts()
            .any(|i| i.op.writes_fp() || i.op.reads_fp());
        assert!(!has_fp, "compress is integer-only");
    }

    #[test]
    fn benchmark_names_are_unique() {
        let mut names: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn cycle_lengths_are_in_the_millions() {
        for b in Benchmark::all() {
            let g = b.build();
            assert!(
                g.cycle_instructions > 1_000_000,
                "{}: cycle {} too short",
                b.name(),
                g.cycle_instructions
            );
            assert!(
                g.cycle_instructions < 40_000_000,
                "{}: cycle {} too long",
                b.name(),
                g.cycle_instructions
            );
        }
    }
}
