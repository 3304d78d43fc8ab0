//! Shared helpers for the benchmark harness.
//!
//! The paper's figure sweeps are `rr` subcommands; this crate regenerates
//! the remaining tables and experiments:
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run --release --bin rr -- fig5` | Figure 5 (cache faults, 3 panels) |
//! | `cargo run --release --bin rr -- fig6` | Figure 6 (synchronization faults) |
//! | `cargo run --release --bin fig6a_ablation` | section 3.3's low-cost-allocation rerun |
//! | `cargo run --release --bin rr -- homogeneous --file <F> --context <C>` | section 3.4's C = 8 / C = 16 experiments |
//! | `cargo run --release --bin table_costs` | Figure 4's cost table, measured on the ISA machine |
//! | `cargo run --release --bin model_check` | section 3.4's analytical model vs simulation |
//! | `cargo run --release --bin adaptive` | section 5.2's adaptive context limiting |
//! | `cargo bench` | Criterion micro/meso benchmarks of the implementation itself |

/// Standard seed for the published tables (override with `RR_SEED`).
pub fn seed() -> u64 {
    std::env::var("RR_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1993)
}

/// Sweep worker count: `--jobs <n>` on the command line, else the `RR_JOBS`
/// environment variable, else 0 (one worker per hardware thread).
pub fn jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .or_else(|| std::env::var("RR_JOBS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}
