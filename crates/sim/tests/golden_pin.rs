//! Golden pinning of the engine's cycle-exact behavior.
//!
//! These constants were captured from the engine *before* the hot-path
//! restructuring (enum-dispatched allocator, timer ring, struct-of-arrays
//! arenas, branchless cost charging) and pin the optimized engine
//! bit-identical to that capture: for a deterministic set of pseudo-random
//! specs covering both architectures (fixed windows, register relocation)
//! and both fault families (constant-latency cache misses with the
//! never-unload policy, exponential synchronization waits with the
//! two-phase policy), the full `SimStats` and the recorded event stream
//! must hash to exactly the values below.
//!
//! Every run is additionally replayed through the [`EventAccountant`]
//! oracle, so the event stream's self-accounting invariants are enforced
//! alongside the hashes.
//!
//! Three tables pin each case. The event stream alone and the bit pattern
//! of `efficiency()` are the simulated behavior; the combined
//! `stats|events` hash also covers the `SimStats` wire format, so a change
//! to what the statistics carry re-pins only that table, while the other
//! two prove the behavior did not move.
//!
//! To regenerate after an *intentional* behavior change (which must also
//! bump `rr_sim::CODE_VERSION`), run with `RR_GOLDEN_PRINT=1` and paste
//! the printed tables.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rr_alloc::{AnyAllocator, BitmapAllocator, FixedSlots};
use rr_runtime::{RecordingSink, SchedCosts, UnloadPolicyKind};
use rr_sim::{Engine, EventAccountant, SimOptions};
use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug)]
struct GoldenCase {
    fixed: bool,
    sync: bool,
    file_size: u32,
    threads: usize,
    run_mean: f64,
    latency: u64,
    ctx_fixed: u32,
    work: u64,
    seed: u64,
}

/// Deterministic pseudo-random spec set: 12 base scenarios, each expanded
/// over {fixed, flexible} × {cache, sync} = 48 runs.
fn golden_cases() -> Vec<GoldenCase> {
    let mut rng = SmallRng::seed_from_u64(0x5252_4742);
    let mut cases = Vec::new();
    for i in 0..12u64 {
        let file_size = *[64u32, 128, 256].get(rng.gen_range(0..3usize)).unwrap();
        let threads = rng.gen_range(2..24usize);
        let run_mean = rng.gen_range(4.0..96.0f64);
        let latency = rng.gen_range(20..900u64);
        let ctx_fixed = *[4u32, 8, 16, 32].get(rng.gen_range(0..4usize)).unwrap();
        let work = rng.gen_range(500..4000u64);
        let seed = rng.gen_range(0..10_000u64) + i;
        for fixed in [false, true] {
            for sync in [false, true] {
                cases.push(GoldenCase {
                    fixed,
                    sync,
                    file_size,
                    threads,
                    run_mean,
                    latency,
                    ctx_fixed,
                    work,
                    seed,
                });
            }
        }
    }
    cases
}

/// What one case pins: FNV hashes of `stats|events` and of the event
/// stream alone, and the bit pattern of the steady-state efficiency.
#[derive(Debug, Clone, Copy)]
struct CaseHashes {
    combined: u64,
    events: u64,
    efficiency_bits: u64,
}

/// Runs one case with a recording sink and hashes what it pins, enforcing
/// the replay oracle.
fn run_case(c: &GoldenCase) -> CaseHashes {
    let latency_dist = if c.sync {
        Dist::Exponential { mean: c.latency as f64 }
    } else {
        Dist::Constant(c.latency)
    };
    let workload = WorkloadBuilder::new()
        .threads(c.threads)
        .run_length(Dist::Geometric { mean: c.run_mean })
        .latency(latency_dist)
        .context_size(ContextSizeDist::Fixed(c.ctx_fixed))
        .work_per_thread(c.work)
        .seed(c.seed)
        .build()
        .unwrap();
    let alloc: AnyAllocator = if c.fixed {
        FixedSlots::new(c.file_size).unwrap().into()
    } else {
        BitmapAllocator::new(c.file_size).unwrap().into()
    };
    let (sched, policy, opts) = if c.sync {
        (
            SchedCosts::sync_experiments(),
            UnloadPolicyKind::two_phase(),
            SimOptions { max_cycles: 2_000_000, ..SimOptions::sync_experiments() },
        )
    } else {
        (
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            SimOptions { max_cycles: 2_000_000, ..SimOptions::cache_experiments() },
        )
    };
    let engine =
        Engine::with_sink(alloc, sched, policy, workload, opts, RecordingSink::new()).unwrap();
    let (stats, sink) = engine.run_with_sink();
    let events = sink.into_events();

    // Replay oracle: the event stream must reconstruct the stats exactly,
    // bit-for-bit (including the f64 `avg_resident`).
    let replayed = EventAccountant::replay(&events).expect("event stream self-accounts");
    assert_eq!(replayed, stats, "replay oracle diverged for {c:?}");

    let stats_json = serde_json::to_string(&stats).unwrap();
    let events_json = serde_json::to_string(&events).unwrap();
    let mut buf = Vec::with_capacity(stats_json.len() + events_json.len() + 1);
    buf.extend_from_slice(stats_json.as_bytes());
    buf.push(b'|');
    buf.extend_from_slice(events_json.as_bytes());
    CaseHashes {
        combined: fnv1a(&buf),
        events: fnv1a(events_json.as_bytes()),
        efficiency_bits: stats.efficiency().to_bits(),
    }
}

/// Every case's hashes, computed once and shared by the tests below.
fn case_hashes() -> &'static [CaseHashes] {
    static HASHES: OnceLock<Vec<CaseHashes>> = OnceLock::new();
    HASHES.get_or_init(|| golden_cases().iter().map(run_case).collect())
}

/// Compares one column of [`case_hashes`] against its pinned table,
/// printing the fresh table under `RR_GOLDEN_PRINT`.
fn check_table(name: &str, pinned: &[u64; 48], column: fn(&CaseHashes) -> u64) {
    let cases = golden_cases();
    assert_eq!(cases.len(), pinned.len());
    let got: Vec<u64> = case_hashes().iter().map(column).collect();
    if std::env::var_os("RR_GOLDEN_PRINT").is_some() {
        println!("{name}:");
        for (scenario, row) in got.chunks(4).enumerate() {
            let row: Vec<String> = row.iter().map(|h| format!("{h:#018x},")).collect();
            println!("    {} // {scenario}", row.join(" "));
        }
    }
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(i, (got, want))| {
            format!("case {i} ({:?}): got {got:#018x}, pinned {want:#018x}", cases[i])
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{name} diverged from the pinned capture:\n{}",
        mismatches.join("\n")
    );
}

/// Per-case `stats|events` hashes, laid out like [`GOLDEN_EVENT_HASHES`].
/// First captured from the pre-optimization engine; re-pinned when
/// `SimStats` replaced its checkpoint series and completion list with the
/// resolved efficiency window (a format change only: the event and
/// efficiency tables below held across it).
#[rustfmt::skip] // one row per scenario
const GOLDEN_HASHES: [u64; 48] = [
    0xd42cb40c584cae7d, 0x6bb0f8f3394492fb, 0x3116794d77bff876, 0xa592e809b045b8ca, // 0
    0x1599798330eb658d, 0xe53b657cd5098873, 0x769a064ef2ed7fa3, 0x2ecb058f2a041118, // 1
    0x2f9b21bb6414fbd2, 0xbfe71966b4b17333, 0x355444d501fa6122, 0x4688ec5f543f74a2, // 2
    0x7c79d82581708642, 0x867f1dccdc03f64e, 0x97ddc128d93cbf34, 0xb10021df9d34b3a8, // 3
    0x351dd20f8372b011, 0xdace613dde6ba2b3, 0x172989e18ac1bcc1, 0x840b58b24bde73dd, // 4
    0xcbe1fe239a6d58b8, 0xc145bf77ecd18b70, 0x813221d130c97f2c, 0xd63d44ac21d590bc, // 5
    0xad044e367ca5bc6b, 0x38cf9ae90ff07510, 0xaab792ecc813b3a3, 0xf6f0ebf48b4461ee, // 6
    0x50fd4e8199d54729, 0xd7043660ca023bd6, 0x7686bc4d2244ffcf, 0x3b4dda8f0e9933a1, // 7
    0x13adaa2e9700c56d, 0x874a9350ff856bcd, 0x928588cf47012d66, 0x1b79ae2f33520b10, // 8
    0xaeaeb751461ffdc1, 0x4fc7524b13e50fc0, 0xfd0e16d0e7b6ba0b, 0x05fc43f13eb3f369, // 9
    0xa2e9cd0d7d124e70, 0x38f8c172567b83fa, 0x132f0cf0d1476174, 0xe6b29a2457f55ec0, // 10
    0x91d27ec8fb6dfdaa, 0xac99fd7f6fae7227, 0xc5585f98f4f31ddb, 0xaf7afa6047b4cb82, // 11
];

/// Per-case FNV hashes of the recorded event stream alone, captured from
/// the engine before `SimStats` dropped its checkpoint series: the stream
/// (and its `RunStart` checkpoint parameters) is behavior, not format.
/// One row per scenario, its four cases in `golden_cases()` order:
/// flexible/cache, flexible/sync, fixed/cache, fixed/sync.
#[rustfmt::skip] // one row per scenario
const GOLDEN_EVENT_HASHES: [u64; 48] = [
    0x6f15f9ae622e5ac6, 0xc87223a0ffb8f5f1, 0x843d5160db2c0018, 0xc32e606125236f60, // 0
    0x5f94bc0417788ba6, 0xdca1731c4dda2ed8, 0x84a17137f5a70ae0, 0x5b46e9e414a40702, // 1
    0x5b8256dc5574b2e7, 0x410d71d56ab31ee0, 0xd5897686d2088f27, 0x446f8aaa3e45107d, // 2
    0x55fa8290bf1d00f6, 0xa74c23df051e4459, 0x297c43f721f8a754, 0x1c3fc6a73cee43d6, // 3
    0x18f1237980e5e1d9, 0x0481e64290e5983f, 0x8a80a56f1ad2e47d, 0x74a5959ae0876579, // 4
    0x4a2d9e44fc4437b7, 0xa8f1f3ddf13e666e, 0x15975b6ae62d0951, 0xe3367b4c5cfc8628, // 5
    0x5b31d17db54f64ae, 0xc6b5de3c53982160, 0xfbafd408cd5b28f9, 0xe85af8d25c372247, // 6
    0xcc5659b02e6b7afe, 0x12ff3865869fb4c3, 0xe6542b21d89c8abb, 0xa015f1814d96c021, // 7
    0x21a09836fddc279a, 0xcd9d9084d81ba42d, 0x7dbfd3456c59d166, 0xb243a2a5afc3ec44, // 8
    0x5647528da2dd160f, 0xbf9a05532c842ff7, 0x357078c0bedc5c10, 0x54b09705e87f8b81, // 9
    0x01bb1a1119b25c6a, 0x1fa199649b11eb9b, 0x3f018c649c480c5a, 0x2bdb64740d0c38fe, // 10
    0x9776d511e995b6e4, 0x2357fb113461f279, 0xd99be6064530f294, 0x4b765f5340e0d52e, // 11
];

/// Per-case `efficiency().to_bits()`, captured from the same engine: the
/// steady-state window must resolve to bit-identical efficiencies however
/// the statistics carry it. Laid out like [`GOLDEN_EVENT_HASHES`].
#[rustfmt::skip] // one row per scenario
const GOLDEN_EFFICIENCY_BITS: [u64; 48] = [
    0x3fe892c88e7157d4, 0x3fea97f57e0b96dd, 0x3fe83b96d8883019, 0x3feac78bfb4506a9, // 0
    0x3fb04ad231a13676, 0x3fb0930a6adce70a, 0x3fa944b7c538830f, 0x3fb1a0977b69c61c, // 1
    0x3fbe12a3b46d0246, 0x3fc958beab3dd0ab, 0x3fbeb089f0aac939, 0x3fcc32edff329a42, // 2
    0x3fc9bb17fc82d5b2, 0x3fc8c4f4932d4024, 0x3fc9c7238bc7f344, 0x3fc8d97283cc50ce, // 3
    0x3fdf1ec691e745be, 0x3fd6cfdc3806975d, 0x3fe19070dbacaf83, 0x3fd78032713113fa, // 4
    0x3fe9ed94fdef07ec, 0x3feaa1c43daae5b6, 0x3fd0d92e39a9d184, 0x3fe1eb9dea02aa6f, // 5
    0x3fb6f5a938421a2e, 0x3fb6994c7fd122b9, 0x3f9a24e9a58bd64b, 0x3fb615310225fda6, // 6
    0x3febee661c54a14e, 0x3feb40758d88c633, 0x3fe4a07fd6772ac1, 0x3fe45b2b7bd904c8, // 7
    0x3fe4a3bbbfb046eb, 0x3fe45cb38d614109, 0x3fe4dd41407b90c6, 0x3fe48f85df8ef490, // 8
    0x3fc262e02efd8d76, 0x3fc2e6cd74be3f84, 0x3fb3f927a793d212, 0x3fc2fb4c2c3da730, // 9
    0x3feaa9c7bd2f53cf, 0x3fea59d97e379f05, 0x3feb5411cbecf724, 0x3feabbe31823abbe, // 10
    0x3fec592b7d42ca67, 0x3febcdc80d1603d0, 0x3fec1ed9b8758e00, 0x3fea5ab49bb97818, // 11
];

#[test]
fn engine_matches_pre_optimization_capture_bit_for_bit() {
    check_table("GOLDEN_HASHES", &GOLDEN_HASHES, |h| h.combined);
}

#[test]
fn event_stream_matches_pinned_capture() {
    check_table("GOLDEN_EVENT_HASHES", &GOLDEN_EVENT_HASHES, |h| h.events);
}

#[test]
fn efficiency_matches_pinned_capture_bit_for_bit() {
    check_table("GOLDEN_EFFICIENCY_BITS", &GOLDEN_EFFICIENCY_BITS, |h| h.efficiency_bits);
}
