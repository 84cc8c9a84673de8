//! Figure 6: varying conventional cache parameters — 64K 4-way vs 64K
//! direct-mapped vs 128K direct-mapped (each normalized to a conventional
//! cache of equivalent geometry). (Thin wrapper — the suite body lives in
//! `dri_experiments::figures`.)

fn main() {
    dri_experiments::figures::figure6(&dri_experiments::config().benchmarks);
}
