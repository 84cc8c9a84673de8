//! Bit-identity assertions shared by the session and grid identity
//! tests: every counter equal, every derived f64 equal to the last bit.

#![allow(dead_code)]

use dri_experiments::runner::ConventionalRun;
use dri_experiments::{Comparison, DriRun};

pub fn assert_comparisons_bit_identical(a: &Comparison, b: &Comparison, what: &str) {
    assert_eq!(a.benchmark, b.benchmark, "{what}: benchmark");
    assert_eq!(a.miss_bound, b.miss_bound, "{what}: miss_bound");
    assert_eq!(a.size_bound_bytes, b.size_bound_bytes, "{what}: size_bound");
    assert_eq!(
        a.relative_energy_delay.to_bits(),
        b.relative_energy_delay.to_bits(),
        "{what}: relative_energy_delay {} vs {}",
        a.relative_energy_delay,
        b.relative_energy_delay
    );
    assert_eq!(
        a.leakage_component.to_bits(),
        b.leakage_component.to_bits(),
        "{what}: leakage_component"
    );
    assert_eq!(
        a.dynamic_component.to_bits(),
        b.dynamic_component.to_bits(),
        "{what}: dynamic_component"
    );
    assert_eq!(
        a.slowdown.to_bits(),
        b.slowdown.to_bits(),
        "{what}: slowdown"
    );
    assert_eq!(
        a.avg_size_fraction.to_bits(),
        b.avg_size_fraction.to_bits(),
        "{what}: avg_size_fraction"
    );
    assert_eq!(
        a.dri_miss_rate.to_bits(),
        b.dri_miss_rate.to_bits(),
        "{what}: dri_miss_rate"
    );
    assert_eq!(
        a.conventional_miss_rate.to_bits(),
        b.conventional_miss_rate.to_bits(),
        "{what}: conventional_miss_rate"
    );
    assert_eq!(
        a.extra_l2_accesses, b.extra_l2_accesses,
        "{what}: extra_l2_accesses"
    );
    assert_eq!(
        a.energy.effective().value().to_bits(),
        b.energy.effective().value().to_bits(),
        "{what}: effective energy"
    );
}

pub fn assert_runs_bit_identical(a: &DriRun, b: &DriRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.dri.avg_active_fraction.to_bits(),
        b.dri.avg_active_fraction.to_bits(),
        "{what}: avg_active_fraction"
    );
    assert_eq!(
        a.dri.avg_size_bytes.to_bits(),
        b.dri.avg_size_bytes.to_bits(),
        "{what}: avg_size_bytes"
    );
    assert_eq!(
        a.dri.final_size_bytes, b.dri.final_size_bytes,
        "{what}: final_size_bytes"
    );
    assert_eq!(a.dri.resizes, b.dri.resizes, "{what}: resizes");
    assert_eq!(a.dri.intervals, b.dri.intervals, "{what}: intervals");
    assert_eq!(
        a.l2_inst_accesses, b.l2_inst_accesses,
        "{what}: l2_inst_accesses"
    );
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}

pub fn assert_conventional_bit_identical(a: &ConventionalRun, b: &ConventionalRun, what: &str) {
    assert_eq!(a.timing, b.timing, "{what}: timing");
    assert_eq!(a.icache, b.icache, "{what}: icache");
    assert_eq!(
        a.l2_inst_accesses, b.l2_inst_accesses,
        "{what}: l2_inst_accesses"
    );
    assert_eq!(
        a.bpred_accuracy.to_bits(),
        b.bpred_accuracy.to_bits(),
        "{what}: bpred_accuracy"
    );
}
