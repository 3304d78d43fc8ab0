//! Bit-exact snapshot/resume proofs, in the style of `golden_pin.rs` and
//! `proptest_engine.rs`: run-to-N + snapshot + resume-to-M must equal
//! straight run-to-M on every `SimStats` field *and* on the full event
//! stream, with the `EventAccountant` replay oracle agreeing on the spliced
//! stream. The snapshot is pushed through its JSON wire format on every
//! round trip, so these tests cover the serialized record, not just the
//! in-memory struct.

use proptest::prelude::*;

use rr_alloc::{AnyAllocator, BitmapAllocator, FixedSlots};
use rr_runtime::{Event, RecordingSink, SchedCosts, UnloadPolicyKind};
use rr_sim::{
    Engine, EngineSnapshot, EventAccountant, SimOptions, SimStats, SnapshotError,
    SNAPSHOT_SCHEMA_VERSION,
};
use rr_workload::{ContextSizeDist, Dist, Workload, WorkloadBuilder};

#[derive(Debug, Clone)]
struct Scenario {
    file_size: u32,
    fixed: bool,
    sync: bool,
    threads: usize,
    run_mean: f64,
    latency: u64,
    ctx: ContextSizeDist,
    work: u64,
    seed: u64,
}

type EngineParts = (Workload, AnyAllocator, SchedCosts, UnloadPolicyKind, SimOptions);

fn build(s: &Scenario) -> Result<EngineParts, String> {
    let latency_dist = if s.sync {
        Dist::Exponential { mean: s.latency as f64 }
    } else {
        Dist::Constant(s.latency)
    };
    let workload = WorkloadBuilder::new()
        .threads(s.threads)
        .run_length(Dist::Geometric { mean: s.run_mean })
        .latency(latency_dist)
        .context_size(s.ctx)
        .work_per_thread(s.work)
        .seed(s.seed)
        .build()?;
    let alloc: AnyAllocator = if s.fixed {
        FixedSlots::new(s.file_size).map_err(|e| e.to_string())?.into()
    } else {
        BitmapAllocator::new(s.file_size).map_err(|e| e.to_string())?.into()
    };
    let (sched, policy, opts) = if s.sync {
        (
            SchedCosts::sync_experiments(),
            UnloadPolicyKind::two_phase(),
            SimOptions { max_cycles: 3_000_000, ..SimOptions::sync_experiments() },
        )
    } else {
        (
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            SimOptions { max_cycles: 3_000_000, ..SimOptions::cache_experiments() },
        )
    };
    Ok((workload, alloc, sched, policy, opts))
}

fn engine(s: &Scenario) -> Option<Engine<RecordingSink>> {
    let (workload, alloc, sched, policy, opts) = build(s).ok()?;
    Engine::with_sink(alloc, sched, policy, workload, opts, RecordingSink::new()).ok()
}

/// The uninterrupted reference run.
fn straight(s: &Scenario) -> Option<(SimStats, Vec<Event>)> {
    let (stats, sink) = engine(s)?.run_with_sink();
    Some((stats, sink.into_events()))
}

/// Runs with pauses at each cycle in `pauses` (ascending); at every pause
/// the engine is serialized to JSON, dropped, and rebuilt from the parsed
/// snapshot. Returns the final stats and the spliced event stream.
fn resumed(s: &Scenario, pauses: &[u64]) -> Option<(SimStats, Vec<Event>)> {
    let mut eng = engine(s)?;
    let mut events: Vec<Event> = Vec::new();
    let mut over = false;
    for &pause_at in pauses {
        if eng.advance(pause_at) {
            over = true;
            break;
        }
        let snap_json = eng.snapshot().to_json();
        events.extend_from_slice(eng.sink().events());
        drop(eng);
        let snap = EngineSnapshot::from_json(&snap_json).expect("snapshot round-trips");
        eng = Engine::restore_with_sink(&snap, RecordingSink::new())
            .expect("snapshot restores");
    }
    if !over {
        assert!(eng.advance(u64::MAX), "advance(MAX) finishes the run");
    }
    let (stats, sink) = eng.finish();
    events.extend(sink.into_events());
    Some((stats, events))
}

/// Straight and resumed runs must agree bit-for-bit on statistics and on
/// the event stream, and the accountant replay of the spliced stream must
/// reproduce the statistics.
fn assert_resume_exact(s: &Scenario, pauses: &[u64]) {
    let Some((want_stats, want_events)) = straight(s) else { return };
    let (got_stats, got_events) = resumed(s, pauses).expect("same scenario builds");
    assert_eq!(got_stats, want_stats, "stats diverge for {s:?} pauses {pauses:?}");
    assert_eq!(
        got_events, want_events,
        "event stream diverges for {s:?} pauses {pauses:?}"
    );
    let replayed = EventAccountant::replay(&got_events).expect("spliced stream accounts");
    assert_eq!(replayed, got_stats, "accountant replay diverges for {s:?}");
}

fn pinned_cases() -> Vec<Scenario> {
    let mut out = Vec::new();
    let bases = [
        (64u32, 8usize, 16.0, 100u64, 2_000u64),
        (128, 16, 32.0, 200, 5_000),
        (128, 32, 8.0, 500, 3_000),
        (256, 24, 64.0, 50, 4_000),
        (64, 32, 32.0, 2_000, 5_000), // heavy pressure: unloads in sync mode
        (128, 1, 100.0, 50, 10_000),  // single thread: idle-dominated
    ];
    for (i, &(file_size, threads, run_mean, latency, work)) in bases.iter().enumerate() {
        for fixed in [false, true] {
            for sync in [false, true] {
                out.push(Scenario {
                    file_size,
                    fixed,
                    sync,
                    threads,
                    run_mean,
                    latency,
                    ctx: ContextSizeDist::PAPER_UNIFORM,
                    work,
                    seed: 0x5EED + i as u64,
                });
            }
        }
    }
    out
}

#[test]
fn golden_cases_resume_bit_exactly_at_quartiles() {
    for s in pinned_cases() {
        let Some((stats, _)) = straight(&s) else { continue };
        let n = stats.total_cycles;
        for pause in [n / 4, n / 2, (3 * n) / 4] {
            assert_resume_exact(&s, &[pause]);
        }
    }
}

#[test]
fn chained_checkpoints_match_straight_run() {
    // Snapshot repeatedly — every eighth of the run — restoring from JSON
    // each time; the splice of nine partial streams must equal the
    // uninterrupted stream.
    for s in pinned_cases().into_iter().step_by(5) {
        let Some((stats, _)) = straight(&s) else { continue };
        let n = stats.total_cycles.max(8);
        let pauses: Vec<u64> = (1..8).map(|i| i * (n / 8)).collect();
        assert_resume_exact(&s, &pauses);
    }
}

#[test]
fn pause_at_zero_and_past_end_are_harmless() {
    let s = &pinned_cases()[0];
    let (stats, _) = straight(s).unwrap();
    // Pausing before the first cycle snapshots a freshly started engine.
    assert_resume_exact(s, &[0]);
    // A pause point past the end never triggers: advance() reports the run
    // over first, and resumed() must cope with that.
    assert_resume_exact(s, &[stats.total_cycles + 1_000]);
}

#[test]
fn snapshot_of_unstarted_engine_restores_whole_run() {
    // snapshot() before any advance() captures cycle zero; the restored
    // engine must produce the entire run, RunStart included.
    let s = &pinned_cases()[2];
    let (want_stats, want_events) = straight(s).unwrap();
    let eng = engine(s).unwrap();
    let snap = EngineSnapshot::from_json(&eng.snapshot().to_json()).unwrap();
    drop(eng);
    let mut eng = Engine::restore_with_sink(&snap, RecordingSink::new()).unwrap();
    assert!(eng.advance(u64::MAX));
    let (stats, sink) = eng.finish();
    assert_eq!(stats, want_stats);
    assert_eq!(sink.into_events(), want_events);
}

#[test]
fn version_mismatches_are_typed_errors() {
    let s = &pinned_cases()[0];
    let snap = engine(s).unwrap().snapshot();

    let mut wrong_schema = snap.clone();
    wrong_schema.schema_version += 1;
    match EngineSnapshot::from_json(&wrong_schema.to_json()) {
        Err(SnapshotError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, SNAPSHOT_SCHEMA_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_SCHEMA_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }

    let mut wrong_code = snap.clone();
    wrong_code.code_version += 7;
    match EngineSnapshot::from_json(&wrong_code.to_json()) {
        Err(SnapshotError::CodeMismatch { .. }) => {}
        other => panic!("expected CodeMismatch, got {other:?}"),
    }

    // Restore double-checks even if the caller skipped from_json.
    match Engine::restore(&wrong_schema) {
        Err(SnapshotError::SchemaMismatch { .. }) => {}
        other => panic!("expected SchemaMismatch from restore, got {:?}", other.err()),
    }
}

#[test]
fn corrupt_records_decode_to_errors_not_panics() {
    assert!(matches!(
        EngineSnapshot::from_json("not json at all"),
        Err(SnapshotError::Decode(_))
    ));
    assert!(matches!(
        EngineSnapshot::from_json("{\"schema_version\": 1}"),
        Err(SnapshotError::Decode(_))
    ));
    // A truncated object that still carries a foreign version reports the
    // mismatch rather than a generic decode failure.
    assert!(matches!(
        EngineSnapshot::from_json("{\"schema_version\": 99, \"code_version\": 2}"),
        Err(SnapshotError::SchemaMismatch { found: 99, .. })
    ));
}

#[test]
fn structurally_inconsistent_snapshots_fail_validation() {
    let s = &pinned_cases()[0];
    let mut eng = engine(s).unwrap();
    assert!(!eng.advance(500), "scenario runs past cycle 500");
    let snap = eng.snapshot();

    let mut short = snap.clone();
    short.unload_cost.pop();
    assert!(matches!(Engine::restore(&short), Err(SnapshotError::Invalid(_))));

    let mut bad_tid = snap.clone();
    bad_tid.supply = vec![usize::MAX];
    assert!(matches!(Engine::restore(&bad_tid), Err(SnapshotError::Invalid(_))));

    let mut stale_timer = snap.clone();
    if stale_timer.now > 0 {
        stale_timer.timers = vec![(stale_timer.now - 1, 0)];
        assert!(matches!(Engine::restore(&stale_timer), Err(SnapshotError::Invalid(_))));
    }

    // The busy series is crate-private, so corrupt its sampling step on
    // the wire: a zero step would never pass its next boundary.
    let json = snap.to_json();
    let series = json.find("\"series\":").expect("snapshot carries its busy series");
    let step = series + json[series..].find("\"step\":").expect("series has a step") + 7;
    let digits = json[step..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let zero_step = format!("{}0{}", &json[..step], &json[step + digits..]);
    let zero_step = EngineSnapshot::from_json(&zero_step).unwrap();
    assert!(matches!(Engine::restore(&zero_step), Err(SnapshotError::Invalid(_))));
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        prop_oneof![Just(64u32), Just(128), Just(256)],
        any::<bool>(),
        any::<bool>(),
        1usize..32,
        2.0f64..128.0,
        1u64..2000,
        prop_oneof![
            Just(ContextSizeDist::PAPER_UNIFORM),
            (2u32..=32).prop_map(ContextSizeDist::Fixed),
        ],
        100u64..5000,
        0u64..1000,
    )
        .prop_map(
            |(file_size, fixed, sync, threads, run_mean, latency, ctx, work, seed)| Scenario {
                file_size,
                fixed,
                sync,
                threads,
                run_mean,
                latency,
                ctx,
                work,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized specs, archs, and fault families: one snapshot/restore at
    /// a random fraction of the run is invisible in both the statistics and
    /// the event stream.
    #[test]
    fn random_pause_is_invisible(s in arb_scenario(), frac in 0.0f64..1.0) {
        if let Some((stats, _)) = straight(&s) {
            let pause = (stats.total_cycles as f64 * frac) as u64;
            assert_resume_exact(&s, &[pause]);
        }
    }

    /// Two snapshots in one run splice just as cleanly as one.
    #[test]
    fn random_double_pause_is_invisible(
        s in arb_scenario(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        if let Some((stats, _)) = straight(&s) {
            let mut pauses = [
                (stats.total_cycles as f64 * a) as u64,
                (stats.total_cycles as f64 * b) as u64,
            ];
            pauses.sort_unstable();
            assert_resume_exact(&s, &pauses);
        }
    }
}
