//! Per-operation microcases run inside the traced run.
//!
//! Each case drives one layer's public API with an operation mix drawn from
//! the workload's seed and distributions, in batches of at least
//! [`BATCH`], and reports the median nanoseconds per operation over
//! [`BATCHES`] batches — tens of milliseconds per case.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use register_relocation::alloc::{ContextAllocator, ContextHandle};
use register_relocation::experiments::Arch;
use register_relocation::isa::{decode, relocate_word, Rrm};
use register_relocation::runtime::{Executive, ReadyRing};
use register_relocation::sim::TimerRing;
use register_relocation::workload::{ContextSizeDist, Dist};

use crate::stats::median;

/// Minimum duration of one timed batch.
pub const BATCH: Duration = Duration::from_millis(8);
/// Batches per case.
pub const BATCHES: usize = 5;

/// The distributions a workload feeds its layers.
pub struct MicroSpec {
    pub seed: u64,
    pub file_sizes: Vec<u32>,
    pub context_size: ContextSizeDist,
    /// Fault latency distributions, one per latency grid coordinate.
    pub latencies: Vec<Dist>,
    /// Mean run length between faults.
    pub run_length: f64,
}

/// Median nanoseconds per operation of each case.
pub struct MicroResults {
    pub alloc_ns: f64,
    pub ring_ns: f64,
    pub timer_ns: f64,
    pub decode_ns: f64,
    pub relocate_ns: f64,
}

/// Runs `batch` (which returns its operation count) repeatedly until
/// [`BATCH`] has passed, [`BATCHES`] times; the median ns/op.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let mut ops = 0;
            while started.elapsed() < BATCH {
                ops += batch();
            }
            started.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_batch).expect("BATCHES > 0")
}

pub fn run(spec: &MicroSpec) -> Result<MicroResults, String> {
    let (decode_ns, relocate_ns) = decode_case()?;
    Ok(MicroResults {
        alloc_ns: alloc_case(spec)?,
        ring_ns: ring_case(spec),
        timer_ns: timer_case(spec),
        decode_ns,
        relocate_ns,
    })
}

/// Both architectures' allocators at each file size: allocate context sizes
/// in seed order until one fails, then free every other live context.
fn alloc_case(spec: &MicroSpec) -> Result<f64, String> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let sizes: Vec<u32> = (0..4096)
        .map(|_| spec.context_size.sample(&mut rng))
        .collect();
    let mut allocators = Vec::new();
    for &f in &spec.file_sizes {
        for arch in [Arch::Fixed, Arch::Flexible] {
            allocators.push(arch.make_allocator(f)?);
        }
    }
    let mut live: Vec<ContextHandle> = Vec::new();
    Ok(ns_per_op(|| {
        let mut ops = 0;
        for a in &mut allocators {
            a.reset();
            live.clear();
            for &regs in &sizes {
                ops += 1;
                match a.alloc(black_box(regs)) {
                    Some(h) => live.push(h),
                    None => {
                        let mut keep = false;
                        for h in std::mem::take(&mut live) {
                            keep = !keep;
                            if keep {
                                live.push(h);
                            } else {
                                ops += 1;
                                a.dealloc(h).expect("freeing a live context");
                            }
                        }
                    }
                }
            }
        }
        ops
    }))
}

/// A ready ring of residents: advance a seeded number of hops, remove the
/// context under the cursor, insert a fresh one behind it.
fn ring_case(spec: &MicroSpec) -> f64 {
    const RESIDENTS: usize = 8;
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5249_4e47);
    let hops: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..RESIDENTS)).collect();
    let mut ring = ReadyRing::new();
    let mut next = 0;
    for _ in 0..RESIDENTS {
        ring.insert(next);
        next += 1;
    }
    ns_per_op(|| {
        let mut ops = 0;
        for &h in &hops {
            for _ in 0..h {
                black_box(ring.advance());
            }
            let current = ring.current().expect("ring never empties");
            ring.remove(current);
            ring.insert(next);
            next += 1;
            ops += h as u64 + 2;
        }
        ops
    })
}

/// A timer ring fed by the workload's run-length and latency draws: each
/// step the clock moves by one run, due wakeups pop, and the running
/// thread faults with a fresh wake time.
fn timer_case(spec: &MicroSpec) -> f64 {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5449_4d45);
    let run = Dist::Geometric {
        mean: spec.run_length,
    };
    let rings: Vec<(f64, Vec<(u64, u64)>)> = spec
        .latencies
        .iter()
        .map(|lat| {
            (
                lat.mean(),
                (0..2048)
                    .map(|_| (run.sample(&mut rng), lat.sample(&mut rng)))
                    .collect(),
            )
        })
        .collect();
    ns_per_op(|| {
        let mut ops = 0;
        for (mean, steps) in &rings {
            let mut timers = TimerRing::for_mean_latency(*mean);
            let mut now = 0;
            for (tid, &(run, latency)) in steps.iter().enumerate() {
                now += run;
                while black_box(timers.pop_due(now)).is_some() {
                    ops += 1;
                }
                timers.push(now, now + latency, tid);
                ops += 2;
            }
        }
        ops
    })
}

/// Decode, and OR-relocate into every 16-register context base, each
/// instruction word the executive installs (runtime routines and the
/// standard thread body). Returns `(decode ns/op, relocate ns/op)`.
fn decode_case() -> Result<(f64, f64), String> {
    let mut exec = Executive::boot().map_err(|e| e.to_string())?;
    let body = Executive::standard_body(16).map_err(|e| e.to_string())?;
    exec.install_body(&body).map_err(|e| e.to_string())?;
    let end = body.origin() + body.words().len() as u32;
    let memory = exec.machine().memory();
    let words: Vec<u32> = (0..end)
        .filter_map(|addr| memory.load(i64::from(addr)).ok())
        .filter(|&w| w != 0 && decode(w).is_ok())
        .collect();
    if words.is_empty() {
        return Err("the executive installed no decodable words".to_string());
    }
    let masks: Vec<Rrm> = (2..8).map(|i| Rrm::from_raw(i * 16)).collect();
    let decode_ns = ns_per_op(|| {
        for &w in &words {
            let _ = black_box(decode(black_box(w)));
        }
        words.len() as u64
    });
    let relocate_ns = ns_per_op(|| {
        for &w in &words {
            for &m in &masks {
                black_box(relocate_word(black_box(w), m));
            }
        }
        (words.len() * masks.len()) as u64
    });
    Ok((decode_ns, relocate_ns))
}
