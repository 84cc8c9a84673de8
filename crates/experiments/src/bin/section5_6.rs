//! §5.6: sense-interval length and divisibility robustness. (Thin
//! wrapper — the suite body lives in `dri_experiments::figures`.)

fn main() {
    dri_experiments::figures::section5_6(&dri_experiments::config().benchmarks);
}
