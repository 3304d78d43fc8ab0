//! The executive_churn workload: the software executive on the ISA machine.
//!
//! A job boots a fresh [`Executive`], installs the standard thread body and
//! runs a fixed number of rounds. Each round spawns threads until the
//! Appendix A allocator assembly runs out of registers, runs the machine
//! for a fixed cycle budget, then retires half of the threads that are not
//! holding the processor. Context sizes come from the paper's uniform
//! distribution, drawn from the workload seed.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use register_relocation::isa::Program;
use register_relocation::runtime::{ExecError, Executive};
use register_relocation::workload::ContextSizeDist;

use crate::spans::Tracer;

/// Rounds per job.
pub const ROUNDS: usize = 60;
/// Machine cycles each round runs the threads for.
pub const ROUND_CYCLES: u64 = 50_000;
/// Unit increments in the thread body between yields.
const BODY_WORK_UNITS: u32 = 16;

/// The inputs of every job of a run.
pub struct ChurnPlan {
    /// Register demand of each spawn attempt, consumed in order.
    sizes: Vec<u32>,
    body: Program,
}

impl ChurnPlan {
    pub fn new(seed: u64) -> Result<ChurnPlan, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Each round makes at most one failed attempt plus one success per
        // 16 free registers of the 128-register file.
        let sizes = (0..ROUNDS * 9)
            .map(|_| ContextSizeDist::PAPER_UNIFORM.sample(&mut rng))
            .collect();
        let body = Executive::standard_body(BODY_WORK_UNITS).map_err(|e| e.to_string())?;
        Ok(ChurnPlan { sizes, body })
    }
}

/// What one job did. Every field but the timings is a function of the plan
/// alone, so all jobs of a run must agree on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRecord {
    pub instret: u64,
    pub cycles: u64,
    pub os_cycles: u64,
    /// Outcome of every spawn attempt, in order.
    pub spawns: Vec<bool>,
    /// Instructions retired inside `Executive::run` calls.
    pub run_instret: u64,
    pub retired: usize,
}

/// One job. Returns the record and each round's latency in milliseconds.
pub fn run_job<T: Tracer>(
    plan: &ChurnPlan,
    tracer: &mut T,
) -> Result<(ChurnRecord, Vec<f64>), String> {
    tracer
        .span("job", |t| job(plan, t))
        .map_err(|e| e.to_string())
}

fn job<T: Tracer>(plan: &ChurnPlan, t: &mut T) -> Result<(ChurnRecord, Vec<f64>), ExecError> {
    let mut exec = t.span("exec.boot", |_| Executive::boot())?;
    t.span("exec.install", |_| exec.install_body(&plan.body))?;
    let entry = plan.body.origin();
    let mut sizes = plan.sizes.iter().copied();
    let mut spawns = Vec::new();
    let mut run_instret = 0;
    let mut retired = 0;
    let mut rounds_ms = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let round_started = Instant::now();
        t.span("round", |t| {
            for regs in sizes.by_ref() {
                match t.span("exec.spawn", |_| exec.spawn(entry, regs)) {
                    Ok(_) => spawns.push(true),
                    Err(ExecError::OutOfRegisters { .. }) => {
                        spawns.push(false);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let before = exec.machine().instret();
            t.span("exec.run", |_| exec.run(ROUND_CYCLES))?;
            run_instret += exec.machine().instret() - before;
            let running = exec.machine().rrm(0).raw();
            let idle: Vec<usize> = exec
                .threads()
                .iter()
                .filter(|tcb| tcb.base != running)
                .map(|tcb| tcb.tid)
                .collect();
            for &tid in &idle[..idle.len().div_ceil(2)] {
                t.span("exec.retire", |_| exec.retire(tid))?;
                retired += 1;
            }
            Ok(())
        })?;
        rounds_ms.push(round_started.elapsed().as_secs_f64() * 1e3);
    }
    let record = ChurnRecord {
        instret: exec.machine().instret(),
        cycles: exec.cycles(),
        os_cycles: exec.os_cycles(),
        spawns,
        run_instret,
        retired,
    };
    Ok((record, rounds_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{count, NoSpans, Spans};

    #[test]
    fn jobs_repeat_exactly_and_churn_threads() {
        let plan = ChurnPlan::new(11).expect("plan");
        let (first, rounds) = run_job(&plan, &mut NoSpans).expect("job");
        assert_eq!(rounds.len(), ROUNDS);
        assert!(
            first.spawns.iter().filter(|&&ok| ok).count() > ROUNDS,
            "threads spawn every round"
        );
        assert!(
            first.spawns.iter().filter(|&&ok| !ok).count() >= ROUNDS / 2,
            "the file fills up"
        );
        assert!(first.retired > ROUNDS && first.run_instret > 0);
        assert!(first.os_cycles > 0 && first.os_cycles < first.cycles);

        let mut spans = Spans::new();
        spans.begin_job(0);
        let (traced, _) = run_job(&plan, &mut spans).expect("traced job");
        assert_eq!(
            traced, first,
            "tracing does not change what the machine does"
        );
        assert_eq!(count(spans.all(), "exec.spawn"), first.spawns.len());
        assert_eq!(count(spans.all(), "exec.retire"), first.retired);
        assert_eq!(count(spans.all(), "exec.run"), ROUNDS);
    }
}
