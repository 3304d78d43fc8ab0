//! The four workloads, their set-up, and the untraced and traced runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use register_relocation::experiments::ExperimentSpec;
use register_relocation::sweep::{FaultFamily, SweepGrid};
use register_relocation::workload::Dist;

use crate::churn::{self, ChurnPlan, ChurnRecord};
use crate::events::kind;
use crate::micro::{self, MicroSpec};
use crate::report::Outcome;
use crate::spans::{self, NoSpans, Spans};
use crate::stats::{
    fastest_first, leading_steps, median, peak_rss_mb, percentile, quartiles, tail_percentile,
};
use crate::sweep::{self, ReplayOutcome, SweepSetup};
use crate::{scratch, Args};

/// The seed the simulated-cycle and event pins hold at.
pub const PIN_SEED: u64 = 1993;
/// An untraced run sets up at least this many times, and for at least
/// [`MIN_SETUP_TIME`]; `setup_s` is the median set-up time.
const SETUPS: usize = 5;
/// Short set-ups repeat until this much time has passed, so their median
/// rests on enough samples to be steady.
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);
/// Every timed phase runs at least this many jobs.
const MIN_JOBS: usize = 3;
/// An untraced run keeps going until it has this many steps, and its step
/// figures rest on at least this many, so that the 95th percentile has ten
/// samples beyond it.
const MIN_STEPS: usize = 200;
/// Share of `--seconds` a traced run spends on each of its two job phases.
const TRACED_PHASE_SHARE: f64 = 0.4;

const SWEEP_LAYERS: [&str; 8] = [
    "cache.key",
    "store.get",
    "report.decode",
    "sim.build",
    "sim.run",
    "report.encode",
    "store.put",
    "report.emit",
];
const CHURN_LAYERS: [&str; 5] = [
    "exec.boot",
    "exec.install",
    "exec.spawn",
    "exec.run",
    "exec.retire",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Cold,
    Fig6Cold,
    Fig5Warm,
    ExecutiveChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Cold,
        Workload::Fig6Cold,
        Workload::Fig5Warm,
        Workload::ExecutiveChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Cold => "fig5_cold",
            Workload::Fig6Cold => "fig6_cold",
            Workload::Fig5Warm => "fig5_warm",
            Workload::ExecutiveChurn => "executive_churn",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }

    fn grid(self, seed: u64) -> Option<SweepGrid> {
        match self {
            Workload::Fig5Cold | Workload::Fig5Warm => Some(SweepGrid::figure5(seed)),
            Workload::Fig6Cold => Some(SweepGrid::figure6(seed)),
            Workload::ExecutiveChurn => None,
        }
    }

    /// `(summed fixed + flexible simulated cycles, engine events)` of the
    /// full grid at [`PIN_SEED`].
    fn pins(self) -> Option<(u64, u64)> {
        match self {
            Workload::Fig5Cold | Workload::Fig5Warm => Some((617_728_245, 50_634_255)),
            Workload::Fig6Cold => Some((191_909_685, 15_300_469)),
            Workload::ExecutiveChurn => None,
        }
    }

    /// The distributions the microcases draw from: the grid's for a sweep,
    /// the default experiment's for the executive.
    fn micro_spec(self, seed: u64) -> MicroSpec {
        let d = ExperimentSpec::default();
        let g = self.grid(seed).unwrap_or_else(|| SweepGrid {
            file_sizes: vec![d.file_size],
            run_lengths: vec![d.run_length],
            latencies: vec![d.fault.mean_latency() as u64],
            ..SweepGrid::figure5(seed)
        });
        MicroSpec {
            seed,
            latencies: g
                .latencies
                .iter()
                .map(|&l| match g.fault {
                    FaultFamily::Cache => Dist::Constant(l),
                    FaultFamily::Sync => Dist::Exponential { mean: l as f64 },
                })
                .collect(),
            file_sizes: g.file_sizes,
            context_size: g.context_size,
            run_length: g.run_lengths[0],
        }
    }
}

/// A workload's inputs and expected outputs, built before timing starts.
enum Prepared {
    Sweep(SweepSetup),
    Churn {
        plan: ChurnPlan,
        reference: ChurnRecord,
    },
}

fn prepare(w: Workload, seed: u64) -> Result<Prepared, String> {
    Ok(match w.grid(seed) {
        Some(grid) if w == Workload::Fig5Warm => Prepared::Sweep(SweepSetup::warm(grid, w.name())?),
        Some(grid) => Prepared::Sweep(SweepSetup::cold(grid)?),
        None => {
            let plan = ChurnPlan::new(seed)?;
            let (reference, _) = churn::run_job(&plan, &mut NoSpans)?;
            Prepared::Churn { plan, reference }
        }
    })
}

/// Whether the set-up's simulated cycles match the pin (always true away
/// from [`PIN_SEED`]).
fn cycles_pin_holds(w: Workload, seed: u64, prepared: &Prepared) -> bool {
    match (prepared, w.pins()) {
        (Prepared::Sweep(s), Some((cycles, _))) if seed == PIN_SEED => {
            let got = s.simulated_cycles();
            if got != cycles {
                eprintln!(
                    "rrbench: {} simulated {got} cycles at seed {seed}, pinned {cycles}",
                    w.name()
                );
            }
            got == cycles
        }
        _ => true,
    }
}

fn steps_of(prepared: &Prepared) -> usize {
    match prepared {
        Prepared::Sweep(s) => s.grid.len(),
        Prepared::Churn { .. } => churn::ROUNDS,
    }
}

/// Jobs run back to back in one phase.
#[derive(Default)]
struct Jobs {
    job_s: Vec<f64>,
    /// Each job's step latencies in milliseconds.
    steps_ms: Vec<Vec<f64>>,
    attempted: usize,
    failed: usize,
}

impl Jobs {
    fn count(&self) -> usize {
        self.job_s.len()
    }
}

/// Runs untraced jobs until `budget` has passed and at least
/// [`MIN_JOBS`] jobs and `min_steps` steps have run.
fn run_jobs(w: Workload, prepared: &Prepared, budget: Duration, min_steps: usize) -> Jobs {
    let started = Instant::now();
    let mut jobs = Jobs::default();
    let mut attempts = 0;
    while attempts < MIN_JOBS || jobs.attempted < min_steps || started.elapsed() < budget {
        attempts += 1;
        let n = steps_of(prepared);
        jobs.attempted += n;
        let result = match prepared {
            Prepared::Sweep(s) => {
                sweep::run_job(s, w.name()).map(|j| (j.wall_s, j.steps_ms, j.failed))
            }
            Prepared::Churn { plan, reference } => {
                let job_started = Instant::now();
                churn::run_job(plan, &mut NoSpans).map(|(record, rounds_ms)| {
                    let failed = if record == *reference { 0 } else { n };
                    (job_started.elapsed().as_secs_f64(), rounds_ms, failed)
                })
            }
        };
        match result {
            Ok((wall_s, steps_ms, failed)) => {
                jobs.job_s.push(wall_s);
                jobs.steps_ms.push(steps_ms);
                jobs.failed += failed;
            }
            Err(e) => {
                eprintln!("rrbench: {} job failed: {e}", w.name());
                jobs.failed += n;
            }
        }
    }
    jobs
}

/// The untraced run: the end-to-end metrics.
pub fn measure(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut started = process_start;
    while setup_s.len() < SETUPS || process_start.elapsed() < MIN_SETUP_TIME {
        // Drop the previous set-up (and its store) before building the next.
        drop(prepared.take());
        prepared = Some(prepare(w, args.seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
        started = Instant::now();
    }
    let prepared = prepared.expect("SETUPS > 0");
    let pin_holds = cycles_pin_holds(w, args.seed, &prepared);
    let jobs = run_jobs(
        w,
        &prepared,
        Duration::from_secs_f64(args.seconds),
        MIN_STEPS,
    );

    // Job time over the fastest tenth of the jobs; step latencies over the
    // fewest fastest jobs that hold MIN_STEPS steps.
    let order = fastest_first(&jobs.job_s);
    let tenth: Vec<f64> = order[..order.len().div_ceil(10)]
        .iter()
        .map(|&i| jobs.job_s[i])
        .collect();
    let (steps, step_jobs) = leading_steps(&order, &jobs.steps_ms, MIN_STEPS);
    let n = steps.len();
    let tail = tail_percentile(n, 95);
    let mut out = Outcome {
        attempted: jobs.attempted as u64,
        failed: if pin_holds {
            jobs.failed
        } else {
            jobs.attempted
        } as u64,
        metrics: Vec::new(),
    };
    out.metric("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    out.metric("job_s", median(&tenth).unwrap_or(0.0), "s");
    out.metric("step_p50_ms", median(&steps).unwrap_or(0.0), "ms");
    out.metric(
        "step_p95_ms",
        tail.and_then(|p| percentile(&steps, p)).unwrap_or(0.0),
        "ms",
    );
    out.metric("peak_rss_mb", peak_rss_mb()?, "MB");

    let iqr = |v: &[f64]| {
        quartiles(v).map_or("-".to_string(), |(q1, q2, q3)| {
            format!("{:.1}%", (q3 - q1) / q2 * 100.0)
        })
    };
    eprintln!(
        "rrbench: {} seed {}: {} set-ups, {} jobs (job_s spread {}); job_s from the fastest {}, steps from the fastest {step_jobs}; step_p95_ms is p{} of {n} steps",
        w.name(),
        args.seed,
        setup_s.len(),
        jobs.count(),
        iqr(&jobs.job_s),
        tenth.len(),
        tail.unwrap_or(0),
    );
    Ok(out)
}

/// One traced job's observations.
struct TracedJob {
    wall_s: f64,
    /// Self time per span name, in seconds.
    self_s: BTreeMap<&'static str, f64>,
    failed: usize,
    kind: Option<TracedKind>,
}

enum TracedKind {
    Sweep(ReplayOutcome),
    Churn(ChurnRecord),
}

fn traced_jobs(
    w: Workload,
    prepared: &Prepared,
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
) -> Vec<TracedJob> {
    let started = Instant::now();
    let mut jobs = Vec::new();
    let mut job_id = 0u32;
    while job_id < MIN_JOBS as u32 || started.elapsed() < budget {
        let first = spans.begin_job(job_id);
        job_id += 1;
        let n = steps_of(prepared);
        let result = match prepared {
            Prepared::Sweep(s) => sweep::replay_job(s, w.name(), spans).map(|r| {
                let events_pin_holds = match w.pins() {
                    Some((_, events)) if seed == PIN_SEED && s.warm.is_none() => {
                        r.events.total() == events
                    }
                    _ => true,
                };
                if !events_pin_holds {
                    eprintln!(
                        "rrbench: {} counted {} events at seed {seed}",
                        w.name(),
                        r.events.total()
                    );
                }
                let failed = if events_pin_holds { r.failed } else { n };
                (failed, TracedKind::Sweep(r))
            }),
            Prepared::Churn { plan, reference } => {
                churn::run_job(plan, spans).map(|(record, _)| {
                    let failed = if record == *reference { 0 } else { n };
                    (failed, TracedKind::Churn(record))
                })
            }
        };
        let recorded = &spans.all()[first..];
        let (failed, kind) = match result {
            Ok((failed, kind)) => (failed, Some(kind)),
            Err(e) => {
                eprintln!("rrbench: traced {} job failed: {e}", w.name());
                (n, None)
            }
        };
        let wall_s = recorded
            .first()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
        let self_s = spans::self_time_ns(recorded, first)
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1e9))
            .collect();
        jobs.push(TracedJob {
            wall_s,
            self_s,
            failed,
            kind,
        });
    }
    jobs
}

fn median_by(jobs: &[TracedJob], f: impl Fn(&TracedJob) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: untraced jobs, the same jobs traced, then the
/// microcases; the per-layer metrics and the tracing overhead.
pub fn measure_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let prepared = prepare(w, args.seed)?;
    let pin_holds = cycles_pin_holds(w, args.seed, &prepared);
    let phase = Duration::from_secs_f64(args.seconds * TRACED_PHASE_SHARE);
    let untraced = run_jobs(w, &prepared, phase, 0);
    let mut spans = Spans::new();
    let traced = traced_jobs(w, &prepared, args.seed, phase, &mut spans);
    let micro = micro::run(&w.micro_spec(args.seed))?;
    let spans_path = Path::new(scratch::ROOT).join("spans").join(format!(
        "{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    spans
        .write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let attempted = untraced.attempted + traced.len() * steps_of(&prepared);
    let failed = untraced.failed + traced.iter().map(|j| j.failed).sum::<usize>();
    let mut out = Outcome {
        attempted: attempted as u64,
        failed: if pin_holds { failed } else { attempted } as u64,
        metrics: Vec::new(),
    };
    let layer = |name: &str| median_by(&traced, |j| j.self_s.get(name).copied().unwrap_or(0.0));
    let untraced_job_s = median(&untraced.job_s).unwrap_or(0.0);
    let layers: &[&str] = match prepared {
        Prepared::Sweep(_) => &SWEEP_LAYERS,
        Prepared::Churn { .. } => &CHURN_LAYERS,
    };
    let layer_sum: f64 = layers.iter().map(|l| layer(l)).sum();

    // Sweep layers; every count repeats exactly across jobs, so the first
    // job's stand for all.
    let sweep = traced.iter().find_map(|j| match &j.kind {
        Some(TracedKind::Sweep(r)) => Some(r),
        _ => None,
    });
    let count = |f: &dyn Fn(&ReplayOutcome) -> f64| sweep.map_or(0.0, f);
    let events = |k: usize| count(&|r| r.events.get(k) as f64);
    let sim_run_s = layer("sim.run");
    let store_get_s = layer("store.get");
    let store_put_s = layer("store.put");
    let alloc_ok = events(kind::ALLOC_SUCCESS);
    let alloc_attempts = alloc_ok + events(kind::ALLOC_FAILURE);
    out.metric("sim.run_s", sim_run_s, "s");
    out.metric(
        "sim.mcycles_per_s",
        ratio(count(&|r| r.simulated_cycles as f64), sim_run_s) / 1e6,
        "Mcycles/s",
    );
    out.metric(
        "sim.mevents_per_s",
        ratio(count(&|r| r.events.total() as f64), sim_run_s) / 1e6,
        "Mevents/s",
    );
    out.metric("sim.faults", events(kind::FAULT), "count");
    out.metric("sim.timer_ns_per_op", micro.timer_ns, "ns");
    out.metric("runtime.switches", events(kind::SWITCH_TO), "count");
    out.metric("runtime.ring_ns_per_op", micro.ring_ns, "ns");
    out.metric("alloc.attempts", alloc_attempts, "count");
    out.metric("alloc.ok_ratio", ratio(alloc_ok, alloc_attempts), "ratio");
    out.metric("alloc.ns_per_op", micro.alloc_ns, "ns");
    out.metric("runtime.loads", events(kind::CONTEXT_LOAD), "count");
    out.metric("runtime.unloads", events(kind::CONTEXT_UNLOAD), "count");
    out.metric("runtime.spin_steps", events(kind::SPIN_STEP), "count");
    out.metric("store.get_s", store_get_s, "s");
    out.metric(
        "store.get_mb_per_s",
        ratio(count(&|r| r.bytes_got as f64), store_get_s) / 1e6,
        "MB/s",
    );
    out.metric(
        "store.hit_ratio",
        count(&|r| ratio(r.hits as f64, r.lookups as f64)),
        "ratio",
    );
    out.metric("report.decode_s", layer("report.decode"), "s");
    out.metric("store.put_s", store_put_s, "s");
    out.metric(
        "store.put_mb_per_s",
        ratio(count(&|r| r.bytes_put as f64), store_put_s) / 1e6,
        "MB/s",
    );
    out.metric(
        "store.bytes_per_point",
        count(&|r| ratio((r.bytes_put + r.bytes_got) as f64, (r.puts + r.hits) as f64)),
        "B",
    );
    out.metric("report.encode_s", layer("report.encode"), "s");
    out.metric("report.emit_s", layer("report.emit"), "s");
    out.metric(
        "report.emit_mb",
        count(&|r| r.emit_bytes as f64) / 1e6,
        "MB",
    );

    // Executive layers.
    let churn = traced.iter().find_map(|j| match &j.kind {
        Some(TracedKind::Churn(r)) => Some(r),
        _ => None,
    });
    let record = |f: &dyn Fn(&ChurnRecord) -> f64| churn.map_or(0.0, f);
    let spawns = record(&|r| r.spawns.len() as f64);
    let spawned = record(&|r| r.spawns.iter().filter(|&&ok| ok).count() as f64);
    out.metric(
        "machine.mips",
        ratio(record(&|r| r.run_instret as f64), layer("exec.run")) / 1e6,
        "MIPS",
    );
    out.metric("machine.instret", record(&|r| r.instret as f64), "count");
    out.metric(
        "machine.os_cycle_share",
        record(&|r| ratio(r.os_cycles as f64, r.cycles as f64)),
        "ratio",
    );
    out.metric("isa.decode_ns", micro.decode_ns, "ns");
    out.metric("machine.relocate_ns", micro.relocate_ns, "ns");
    out.metric(
        "runtime.spawn_us",
        ratio(layer("exec.spawn"), spawns) * 1e6,
        "us",
    );
    out.metric(
        "runtime.retire_us",
        ratio(layer("exec.retire"), record(&|r| r.retired as f64)) * 1e6,
        "us",
    );
    out.metric("runtime.spawn_ok_ratio", ratio(spawned, spawns), "ratio");

    // Small layers, the runner's own time, and what tracing cost.
    out.metric("cache.key_s", layer("cache.key"), "s");
    out.metric("sim.build_s", layer("sim.build"), "s");
    out.metric("sweep.self_s", untraced_job_s - layer_sum, "s");
    out.metric(
        "trace.overhead_s",
        median_by(&traced, |j| j.wall_s) - untraced_job_s,
        "s",
    );

    eprintln!(
        "rrbench: {} seed {} traced: {} untraced jobs (job_s {untraced_job_s:.4}), {} traced jobs, {} spans in {}",
        w.name(),
        args.seed,
        untraced.count(),
        traced.len(),
        spans.all().len(),
        spans_path.display(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one `BENCHMARK.json` section, in order.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json beside rrbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    fn printed(out: &Outcome) -> Vec<String> {
        out.metrics
            .iter()
            .map(|(name, ..)| name.to_string())
            .collect()
    }

    #[test]
    fn runs_print_exactly_the_declared_metrics() {
        let args = Args {
            workload: Workload::ExecutiveChurn,
            seed: 1,
            seconds: 0.05,
            trace: false,
        };
        let out = measure(&args, Instant::now()).expect("untraced run");
        assert!(out.correct() && out.attempted >= MIN_STEPS as u64);
        assert_eq!(printed(&out), declared("end_to_end"));
        assert!(
            out.metrics.iter().all(|&(_, v, _)| v > 0.0),
            "end-to-end metrics are never 0"
        );
        out.json_line().expect("finite");

        let out = measure_traced(&Args {
            trace: true,
            ..args
        })
        .expect("traced run");
        assert!(out.correct());
        assert_eq!(printed(&out), declared("per_layer"));
        out.json_line().expect("finite");
    }

    #[test]
    fn workload_names_round_trip_and_match_the_declaration() {
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, declared("workloads"));
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
    }
}
