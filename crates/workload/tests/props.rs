//! Property tests for the workload substrate: generated programs must be
//! well-formed, deterministic, and execution must respect architectural
//! invariants for arbitrary generator parameters.

use proptest::prelude::*;
use synth_workload::generator::{generate, GeneratorSpec, PhaseSpec, ScheduleEntry};
use synth_workload::machine::Machine;

fn arb_spec() -> impl Strategy<Value = GeneratorSpec> {
    (
        1u64..24, // footprint KB
        prop::collection::vec((2u64..24, 10_000u64..60_000), 1..4),
        0usize..3,   // mem_every selector
        0usize..2,   // fp on/off
        0.0f64..0.5, // random branches
        0.0f64..0.5, // cold fraction
        0u64..500,   // seed
    )
        .prop_map(|(fp0, extra, mem_sel, fp_on, rnd, cold, seed)| {
            let mut phases = vec![PhaseSpec {
                footprint_bytes: fp0 * 1024,
            }];
            let mut schedule = vec![ScheduleEntry {
                phase: 0,
                instructions: 30_000,
            }];
            for (i, (kb, insts)) in extra.iter().enumerate() {
                phases.push(PhaseSpec {
                    footprint_bytes: kb * 1024,
                });
                schedule.push(ScheduleEntry {
                    phase: i + 1,
                    instructions: *insts,
                });
            }
            let mut spec = GeneratorSpec::basic("prop", 0, 1);
            spec.phases = phases;
            spec.schedule = schedule;
            spec.mem_every = [0, 3, 5][mem_sel];
            spec.fp_every = [0, 4][fp_on];
            spec.random_branch_fraction = rnd;
            spec.cold_fraction = cold;
            spec.seed = seed;
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_programs_validate_and_run(spec in arb_spec()) {
        let g = generate(&spec);
        let mut m = Machine::new(&g.program);
        let s = m.run(30_000);
        prop_assert_eq!(s.retired, 30_000, "program halted unexpectedly");
    }

    #[test]
    fn execution_is_deterministic(spec in arb_spec()) {
        let g = generate(&spec);
        let mut a = Machine::new(&g.program);
        let mut b = Machine::new(&g.program);
        for _ in 0..5_000 {
            let ea = a.step().unwrap();
            let eb = b.step().unwrap();
            prop_assert_eq!(ea.pc, eb.pc);
            prop_assert_eq!(ea.next_pc, eb.next_pc);
            prop_assert_eq!(ea.taken, eb.taken);
            prop_assert_eq!(ea.mem_addr, eb.mem_addr);
        }
    }

    #[test]
    fn committed_pcs_stay_inside_the_code_segment(spec in arb_spec()) {
        let g = generate(&spec);
        let base = g.program.base_addr();
        let end = base + g.program.code_bytes();
        let mut m = Machine::new(&g.program);
        for _ in 0..20_000 {
            let e = m.step().unwrap();
            prop_assert!(e.pc >= base && e.pc < end, "pc {:#x} escaped", e.pc);
        }
    }

    #[test]
    fn memory_accesses_stay_inside_the_data_segment(spec in arb_spec()) {
        let g = generate(&spec);
        let dbase = g.program.data_base();
        let dend = dbase + g.program.data_bytes();
        let mut m = Machine::new(&g.program);
        for _ in 0..20_000 {
            let e = m.step().unwrap();
            if let Some(a) = e.mem_addr {
                prop_assert!(a >= dbase && a + 8 <= dend, "addr {a:#x} escaped");
                prop_assert_eq!(a % 8, 0, "unaligned access");
            }
        }
    }

    #[test]
    fn cycle_estimate_tracks_schedule_totals(spec in arb_spec()) {
        let g = generate(&spec);
        let requested: u64 = spec.schedule.iter().map(|e| e.instructions).sum();
        // The estimate is rounded to whole driver iterations; allow wide
        // but bounded error.
        let ratio = g.cycle_instructions as f64 / requested as f64;
        prop_assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }
}
