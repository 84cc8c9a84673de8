//! Policy shoot-out: the paper's gated-Vdd DRI cache vs cache decay vs
//! way resizing vs way memoization, side by side on the 64K 4-way
//! geometry. (Thin wrapper — the suite body lives in
//! `dri_experiments::figures` so the `suite` batch runner can share it.)

fn main() {
    dri_experiments::figures::policies(&dri_experiments::config().benchmarks);
}
