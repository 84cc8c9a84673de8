//! Figure 3: base energy-delay and average cache size, performance-
//! constrained (≤4% slowdown) and performance-unconstrained, for all
//! fifteen benchmarks. (Thin wrapper — the suite body lives in
//! `dri_experiments::figures` so the `suite` batch runner can share it.)

fn main() {
    dri_experiments::figures::figure3(&dri_experiments::config().benchmarks);
}
