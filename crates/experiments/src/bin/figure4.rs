//! Figure 4: impact of varying the miss-bound (0.5x, 1x, 2x of each
//! benchmark's performance-constrained base value). (Thin wrapper — the
//! suite body lives in `dri_experiments::figures`.)

fn main() {
    dri_experiments::figures::figure4(&dri_experiments::config().benchmarks);
}
