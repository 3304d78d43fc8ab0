//! The sweep workloads: a full figure grid run into a result store, then
//! the report emit that `rr fig5 --json` performs.
//!
//! The untraced job drives the public [`SweepRunner`] with one worker and
//! times each grid point by the arrival of its observer callback. The traced
//! job replays the calls `SweepRunner::run` makes with one worker — key,
//! lookup, decode, engine build and run per leg, encode, persist — with a
//! span around each, so the time of every layer shows separately.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use register_relocation::cache;
use register_relocation::experiments::{compare_traced_with, Arch};
use register_relocation::figures::FigurePoint;
use register_relocation::sim::{SimStats, TracedRun};
use register_relocation::store::{Lookup, Store};
use register_relocation::sweep::{
    PointOutcome, PointReport, SweepGrid, SweepReport, SweepRunner, SWEEP_SCHEMA_VERSION,
};

use crate::events::EventCounts;
use crate::scratch::TempDir;
use crate::spans::{Spans, Tracer};

/// Everything a sweep job needs, built before timing starts.
pub struct SweepSetup {
    pub grid: SweepGrid,
    /// Expected statistics of each point, `[fixed, flexible]`, in grid
    /// order.
    pub reference: Vec<[SimStats; 2]>,
    /// For the warm workload: the store the jobs read from.
    pub warm: Option<WarmStore>,
}

/// A store populated during set-up and the report its cold run emitted.
pub struct WarmStore {
    dir: TempDir,
    cold_json: String,
}

impl SweepSetup {
    /// Cold set-up: computes the reference statistics by calling
    /// `Engine::run` directly for each leg of each point.
    pub fn cold(grid: SweepGrid) -> Result<SweepSetup, String> {
        let reference = grid
            .points()
            .iter()
            .map(|p| {
                Ok([
                    p.spec.with_arch(Arch::Fixed).run()?,
                    p.spec.with_arch(Arch::Flexible).run()?,
                ])
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SweepSetup {
            grid,
            reference,
            warm: None,
        })
    }

    /// Warm set-up: runs the grid once into a fresh store and keeps that
    /// store and the report the cold run emitted.
    pub fn warm(grid: SweepGrid, label: &str) -> Result<SweepSetup, String> {
        let dir = TempDir::new(label)?;
        let store = cache::open_store(dir.path()).map_err(|e| e.to_string())?;
        let run = SweepRunner::new(1).with_store(Some(store)).run(&grid)?;
        if run.cache.stored != grid.len() {
            return Err(format!(
                "set-up stored {} of {} points",
                run.cache.stored,
                grid.len()
            ));
        }
        let cold_json = run.report.to_json_pretty().map_err(|e| e.to_string())?;
        let reference = run
            .report
            .points
            .iter()
            .map(|p| [p.fixed.clone(), p.flexible.clone()])
            .collect();
        Ok(SweepSetup {
            grid,
            reference,
            warm: Some(WarmStore { dir, cold_json }),
        })
    }

    /// Summed simulated cycles of both legs over the grid.
    pub fn simulated_cycles(&self) -> u64 {
        self.reference
            .iter()
            .flat_map(|legs| legs.iter())
            .map(|s| s.total_cycles)
            .sum()
    }

    /// The store a job uses: a fresh one for cold jobs, the populated one
    /// for warm jobs. The returned guard removes a fresh store on drop.
    fn job_store(&self, label: &str) -> Result<(Store, Option<TempDir>), String> {
        let fresh = match &self.warm {
            Some(_) => None,
            None => Some(TempDir::new(label)?),
        };
        let dir = match (&fresh, &self.warm) {
            (Some(d), _) => d.path(),
            (None, Some(w)) => w.dir.path(),
            (None, None) => unreachable!("cold set-ups get a fresh store"),
        };
        let store = cache::open_store(dir).map_err(|e| e.to_string())?;
        Ok((store, fresh))
    }

    /// Marks each point whose statistics differ from the reference, and
    /// every point when the job-level checks fail: the point count, the
    /// store traffic (all hits when warm, all misses when cold) and, when
    /// warm, byte identity of the emitted report with the cold one.
    fn check(&self, points: &[PointReport], hits: usize, json: &str) -> Vec<bool> {
        let n = self.grid.len();
        let job_ok = points.len() == n
            && match &self.warm {
                Some(w) => hits == n && json == w.cold_json,
                None => hits == 0,
            };
        if !job_ok {
            return vec![true; n];
        }
        points
            .iter()
            .zip(&self.reference)
            .map(|(p, [fixed, flexible])| p.fixed != *fixed || p.flexible != *flexible)
            .collect()
    }
}

/// What one untraced job measured.
pub struct JobOutcome {
    pub wall_s: f64,
    /// Per-point latency in milliseconds, in completion order.
    pub steps_ms: Vec<f64>,
    /// Steps whose output check failed.
    pub failed: usize,
}

/// One untraced job: the grid through a one-worker [`SweepRunner`] into
/// the job's store, then the pretty JSON report.
pub fn run_job(setup: &SweepSetup, label: &str) -> Result<JobOutcome, String> {
    let n = setup.grid.len();
    let (store, _fresh) = setup.job_store(label)?;
    let arrivals = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let observed = Arc::clone(&arrivals);
    let runner = SweepRunner::new(1)
        .with_store(Some(store))
        .with_observer(Arc::new(move |_: PointOutcome| {
            observed
                .lock()
                .expect("observer never panics")
                .push(Instant::now())
        }));
    let started = Instant::now();
    let run = runner.run(&setup.grid)?;
    let json = run.report.to_json_pretty().map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();

    let arrivals = arrivals.lock().expect("observer never panics");
    let mut previous = started;
    let steps_ms = arrivals
        .iter()
        .map(|&t| {
            let step = t.duration_since(previous).as_secs_f64() * 1e3;
            previous = t;
            step
        })
        .collect();
    let failed = setup
        .check(&run.report.points, run.cache.hits, &json)
        .iter()
        .filter(|&&bad| bad)
        .count();
    Ok(JobOutcome {
        wall_s,
        steps_ms,
        failed,
    })
}

/// What one traced replay job observed, besides its spans.
#[derive(Default)]
pub struct ReplayOutcome {
    pub failed: usize,
    pub lookups: usize,
    pub hits: usize,
    pub bytes_got: u64,
    pub puts: usize,
    pub bytes_put: u64,
    pub emit_bytes: u64,
    pub simulated_cycles: u64,
    pub events: EventCounts,
}

/// One traced job: the calls `SweepRunner::run` makes with one worker,
/// each inside a span, with every engine leg counting its events.
pub fn replay_job(
    setup: &SweepSetup,
    label: &str,
    spans: &mut Spans,
) -> Result<ReplayOutcome, String> {
    let (store, _fresh) = setup.job_store(label)?;
    let mut out = ReplayOutcome::default();
    let mut points = Vec::with_capacity(setup.grid.len());
    spans.span("job", |t| {
        for p in setup.grid.points() {
            let report = t.span("point", |t| -> Result<PointReport, String> {
                let key = t
                    .span("cache.key", |_| cache::point_key(&p.spec, store.salt()))
                    .map_err(|e| e.to_string())?;
                out.lookups += 1;
                if let Ok(Lookup::Hit(bytes)) = t.span("store.get", |_| store.get(&key)) {
                    out.hits += 1;
                    out.bytes_got += bytes.len() as u64;
                    let mut report = t.span("report.decode", |_| decode_point(&bytes))?;
                    report.index = p.index;
                    return Ok(report);
                }
                let started = Instant::now();
                let traced = compare_traced_with(&p.spec, |leg| {
                    let engine = t.span("sim.build", |_| {
                        leg.engine_with_sink(EventCounts::default())
                    })?;
                    let leg_started = Instant::now();
                    let (stats, events) = t.span("sim.run", |_| engine.run_with_sink());
                    out.events.add(&events);
                    out.simulated_cycles += stats.total_cycles;
                    Ok(TracedRun {
                        stats,
                        wall_nanos: nanos_since(leg_started),
                    })
                })?;
                let report = PointReport {
                    schema_version: SWEEP_SCHEMA_VERSION,
                    index: p.index,
                    file_size: p.file_size,
                    run_length: p.run_length,
                    latency: p.latency,
                    seed: p.spec.seed,
                    figure: FigurePoint {
                        run_length: p.run_length,
                        comparison: traced.point,
                    },
                    fixed: traced.fixed,
                    flexible: traced.flexible,
                    fixed_wall_nanos: traced.fixed_wall_nanos,
                    flexible_wall_nanos: traced.flexible_wall_nanos,
                    wall_nanos: nanos_since(started),
                };
                let payload = t
                    .span("report.encode", |_| serde_json::to_string(&report))
                    .map_err(|e| e.to_string())?;
                t.span("store.put", |_| store.put(&key, payload.as_bytes()))
                    .map_err(|e| e.to_string())?;
                out.puts += 1;
                out.bytes_put += payload.len() as u64;
                Ok(report)
            })?;
            points.push(report);
        }
        let report = SweepReport {
            schema_version: SWEEP_SCHEMA_VERSION,
            seed: setup.grid.seed(),
            points,
        };
        let json = t
            .span("report.emit", |_| report.to_json_pretty())
            .map_err(|e| e.to_string())?;
        out.emit_bytes = json.len() as u64;
        out.failed = setup
            .check(&report.points, out.hits, &json)
            .iter()
            .filter(|&&bad| bad)
            .count();
        Ok::<(), String>(())
    })?;
    Ok(out)
}

fn decode_point(bytes: &[u8]) -> Result<PointReport, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str::<PointReport>(text).map_err(|e| e.to_string())
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use register_relocation::experiments::ExperimentSpec;

    /// A shrunk Figure 5 grid: one panel, 2 x 2 points, light threads.
    fn small_grid(seed: u64) -> SweepGrid {
        let mut grid = SweepGrid::figure5_panel(64, seed);
        grid.run_lengths = vec![8.0, 32.0];
        grid.latencies = vec![50, 400];
        grid.base = ExperimentSpec {
            threads: 8,
            work_per_thread: 2_000,
            ..grid.base
        };
        grid
    }

    #[test]
    fn cold_and_warm_jobs_pass_their_checks() {
        let cold = SweepSetup::cold(small_grid(3)).expect("cold set-up");
        let job = run_job(&cold, "unit-cold").expect("cold job");
        assert_eq!((job.failed, job.steps_ms.len()), (0, 4));
        assert!(job.wall_s > 0.0 && job.steps_ms.iter().all(|&s| s > 0.0));

        let warm = SweepSetup::warm(small_grid(3), "unit-warm").expect("warm set-up");
        assert_eq!(
            warm.reference, cold.reference,
            "stored results equal direct engine runs"
        );
        assert_eq!(warm.simulated_cycles(), cold.simulated_cycles());
        let job = run_job(&warm, "unit-warm").expect("warm job");
        assert_eq!((job.failed, job.steps_ms.len()), (0, 4));
    }

    #[test]
    fn traced_replay_matches_the_runner() {
        let cold = SweepSetup::cold(small_grid(5)).expect("cold set-up");
        let mut spans = Spans::new();
        spans.begin_job(0);
        let replay = replay_job(&cold, "unit-replay", &mut spans).expect("cold replay");
        assert_eq!((replay.failed, replay.hits, replay.puts), (0, 0, 4));
        assert_eq!(replay.simulated_cycles, cold.simulated_cycles());
        assert!(replay.events.total() > 0 && replay.emit_bytes > 0);
        assert_eq!(crate::spans::count(spans.all(), "sim.run"), 8);

        let warm = SweepSetup::warm(small_grid(5), "unit-replay-warm").expect("warm set-up");
        let replay = replay_job(&warm, "unit-replay-warm", &mut spans).expect("warm replay");
        assert_eq!((replay.failed, replay.hits, replay.puts), (0, 4, 0));
        assert_eq!(replay.simulated_cycles, 0);
        assert_eq!(
            crate::spans::count(spans.all(), "sim.run"),
            8,
            "a warm job runs no engine"
        );
    }

    #[test]
    fn a_wrong_reference_fails_every_mismatched_point() {
        let mut cold = SweepSetup::cold(small_grid(4)).expect("cold set-up");
        cold.reference[1][0].total_cycles += 1;
        let job = run_job(&cold, "unit-bad").expect("job runs");
        assert_eq!(job.failed, 1);
    }
}
