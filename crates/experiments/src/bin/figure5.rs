//! Figure 5: impact of varying the size-bound (2x, 1x, 0.5x of each
//! benchmark's performance-constrained base value). (Thin wrapper — the
//! suite body lives in `dri_experiments::figures`.)

fn main() {
    dri_experiments::figures::figure5(&dri_experiments::config().benchmarks);
}
