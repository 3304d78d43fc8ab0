//! Cycle accounting and efficiency statistics.

use serde::{Deserialize, Serialize};

/// Complete cycle accounting for one simulation run.
///
/// Every simulated cycle lands in exactly one bucket, so
/// [`SimStats::accounted_cycles`] always equals [`SimStats::total_cycles`] —
/// an invariant the test suite checks after every run.
///
/// # Example
///
/// ```
/// use rr_sim::SimStats;
///
/// let stats = SimStats {
///     total_cycles: 1000,
///     busy_cycles: 600,
///     switch_cycles: 100,
///     idle_cycles: 300,
///     ..SimStats::default()
/// };
/// assert_eq!(stats.efficiency_full(), 0.6);
/// assert_eq!(stats.overhead_cycles(), 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Useful work cycles (the numerator of efficiency).
    pub busy_cycles: u64,
    /// Successful context-switch charges (`S` per dispatch).
    pub switch_cycles: u64,
    /// Failed resume attempts during ring walks (`S` each) — the spinning
    /// the two-phase policy bounds.
    pub spin_cycles: u64,
    /// Context allocation charges, successful and failed.
    pub alloc_cycles: u64,
    /// Context deallocation charges.
    pub dealloc_cycles: u64,
    /// Context load charges (registers used + blocking overhead).
    pub load_cycles: u64,
    /// Context unload charges.
    pub unload_cycles: u64,
    /// Thread queue insert/remove charges.
    pub queue_cycles: u64,
    /// Cycles with nothing to run.
    pub idle_cycles: u64,

    /// Faults taken by running threads.
    pub faults: u64,
    /// Successful allocations.
    pub allocs: u64,
    /// Failed allocations.
    pub alloc_failures: u64,
    /// Context loads.
    pub loads: u64,
    /// Context unloads (excluding completions).
    pub unloads: u64,
    /// Threads that ran to completion.
    pub completed_threads: usize,
    /// Peak simultaneously resident contexts.
    pub max_resident: usize,
    /// Time-averaged resident contexts.
    pub avg_resident: f64,

    /// The last cycle at which the software thread queue held work. After
    /// this point the machine is draining its final residents — the
    /// "completion effects" the paper excludes from its statistics.
    pub supply_drained_at: Option<u64>,
    /// The steady-state window [`Self::efficiency`] measures, resolved when
    /// the run ends; `None` when the run was too short to place one.
    pub window: Option<EfficiencyWindow>,
}

/// The two `(cycle, cumulative busy)` samples that bound the steady-state
/// window: everything [`SimStats::efficiency`] reads of the run's busy
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EfficiencyWindow {
    /// First cycle of the window.
    pub t1: u64,
    /// Cumulative busy cycles at `t1`.
    pub b1: u64,
    /// Last cycle of the window (always after `t1`).
    pub t2: u64,
    /// Cumulative busy cycles at `t2`.
    pub b2: u64,
}

impl SimStats {
    /// Sum of all accounting buckets; must equal [`Self::total_cycles`].
    pub fn accounted_cycles(&self) -> u64 {
        self.busy_cycles
            + self.switch_cycles
            + self.spin_cycles
            + self.alloc_cycles
            + self.dealloc_cycles
            + self.load_cycles
            + self.unload_cycles
            + self.queue_cycles
            + self.idle_cycles
    }

    /// Whole-run efficiency: useful cycles over all cycles.
    pub fn efficiency_full(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Steady-state efficiency over the middle of the run, excluding
    /// startup and completion transients (the paper's methodology; its
    /// footnote notes full-run statistics "differed only slightly", which
    /// [`Self::efficiency_full`] lets callers confirm): busy cycles over
    /// all cycles inside [`Self::window`]. Runs without a window fall back
    /// to the full-run figure.
    pub fn efficiency(&self) -> f64 {
        match self.window {
            Some(w) => (w.b2 - w.b1) as f64 / (w.t2 - w.t1) as f64,
            None => self.efficiency_full(),
        }
    }

    /// Total scheduling overhead (everything that is neither useful work nor
    /// idle).
    pub fn overhead_cycles(&self) -> u64 {
        self.accounted_cycles() - self.busy_cycles - self.idle_cycles
    }
}

/// The run's `(cycle, cumulative busy)` samples, kept only while the run
/// is live: a sample every `checkpoint_interval` cycles, in a reservoir of
/// at most `checkpoint_cap` samples. When the reservoir fills, every second
/// sample is dropped (keeping indices 0, 2, 4, …) and the spacing doubles,
/// so memory stays bounded on arbitrarily long horizons while coverage
/// stays even.
///
/// Because the pairs are *cumulative*, any surviving sample is still exact
/// — decimation only coarsens where [`BusySeries::resolve`] can place the
/// window edges, it never biases the busy-cycle deltas between them.
///
/// The engine records into one as it charges cycles and the
/// [`crate::EventAccountant`] into another as it replays charges, so both
/// resolve the same window; an [`crate::EngineSnapshot`] carries it so a
/// resumed run continues the same series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct BusySeries {
    /// Reservoir capacity; reaching it triggers a decimation.
    cap: usize,
    /// Cycles between samples: `checkpoint_interval`, doubled at each
    /// decimation.
    step: u64,
    /// The cycle at or after which the next sample is taken.
    next: u64,
    /// `(cycle, cumulative busy)` samples, in cycle order.
    samples: Vec<(u64, u64)>,
}

impl BusySeries {
    /// An empty series sampling every `interval` cycles into at most `cap`
    /// samples.
    pub(crate) fn new(interval: u64, cap: usize) -> Self {
        BusySeries { cap, step: interval, next: interval, samples: Vec::new() }
    }

    /// Records the cumulative busy count after a charge that brought the
    /// clock to `now`, taking every sample whose boundary the charge crossed.
    #[inline]
    pub(crate) fn record(&mut self, now: u64, busy: u64) {
        while now >= self.next {
            self.samples.push((now, busy));
            self.next += self.step;
            if self.samples.len() >= self.cap {
                let mut i = 0usize;
                self.samples.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.step *= 2;
            }
        }
    }

    /// Places the steady-state window of a run of `total` cycles: from
    /// `trim` of the way in until the earlier of `1 - trim` and the cycle
    /// the thread supply `drained` (after which residency thins out as the
    /// final threads complete), snapped inward to recorded samples.
    /// `None` when no two samples bound a non-empty window.
    pub(crate) fn resolve(
        &self,
        total: u64,
        trim: f64,
        drained: Option<u64>,
    ) -> Option<EfficiencyWindow> {
        let lo_target = (total as f64 * trim) as u64;
        let hi_target =
            ((total as f64 * (1.0 - trim)) as u64).min(drained.unwrap_or(total));
        let &(t1, b1) = self.samples.iter().find(|(c, _)| *c >= lo_target)?;
        let &(t2, b2) = self.samples.iter().rev().find(|(c, _)| *c <= hi_target)?;
        (t2 > t1).then_some(EfficiencyWindow { t1, b1, t2, b2 })
    }

    /// Whether sampling can make progress: a zero step would never move
    /// past a boundary, and a cap below 2 cannot decimate.
    pub(crate) fn is_valid(&self) -> bool {
        self.step > 0 && self.cap >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series sampled every 100 cycles from `busy(t)`, up to `total`.
    fn series_of(total: u64, cap: usize, busy: impl Fn(u64) -> u64) -> BusySeries {
        let mut series = BusySeries::new(100, cap);
        for t in (0..=total).step_by(100) {
            series.record(t, busy(t));
        }
        series
    }

    fn stats_with(total: u64, busy: u64, window: Option<EfficiencyWindow>) -> SimStats {
        SimStats {
            total_cycles: total,
            busy_cycles: busy,
            idle_cycles: total - busy,
            window,
            ..SimStats::default()
        }
    }

    #[test]
    fn full_efficiency() {
        let s = stats_with(1000, 600, None);
        assert!((s.efficiency_full() - 0.6).abs() < 1e-12);
        assert_eq!(SimStats::default().efficiency_full(), 0.0);
    }

    #[test]
    fn windowed_efficiency_excludes_transients() {
        // Busy only between cycles 200 and 800: the middle window sees a
        // higher efficiency than the full run.
        let series = series_of(1000, 64, |t| t.clamp(200, 800) - 200);
        let window = series.resolve(1000, 0.1, None);
        assert_eq!(window, Some(EfficiencyWindow { t1: 100, b1: 0, t2: 900, b2: 600 }));
        let s = stats_with(1000, 600, window);
        assert!(s.efficiency() > s.efficiency_full());
        assert!((s.efficiency() - 600.0 / 800.0).abs() < 1e-9);
        // The drain point pulls the window's end in.
        let drained = series.resolve(1000, 0.1, Some(650)).unwrap();
        assert_eq!((drained.t2, drained.b2), (600, 400));
    }

    #[test]
    fn degenerate_checkpoints_fall_back_to_full() {
        let mut one = BusySeries::new(500, 64);
        one.record(500, 300);
        assert_eq!(one.resolve(1000, 0.1, None), None);
        assert_eq!(BusySeries::new(100, 64).resolve(0, 0.1, None), None);
        let s = stats_with(1000, 600, None);
        assert_eq!(s.efficiency(), s.efficiency_full());
    }

    #[test]
    fn decimation_keeps_even_indices() {
        // The eighth sample fills a cap of 8: samples 1, 3, 5, 7 go and the
        // spacing doubles from the boundary already set (900) onward.
        let mut series = series_of(800, 8, |t| t / 10);
        assert_eq!(series.samples, vec![(100, 10), (300, 30), (500, 50), (700, 70)]);
        assert_eq!(series.step, 200);
        series.record(900, 90);
        series.record(1000, 100);
        assert_eq!(series.samples[4..], [(900, 90)], "no boundary at 1000");
        series.record(1100, 110);
        assert_eq!(series.samples.last(), Some(&(1100, 110)));
    }

    #[test]
    fn efficiency_window_survives_decimation() {
        // Dense samples vs the same run through a reservoir small enough to
        // decimate twice: the steady window efficiency stays within one
        // sample of granularity.
        let busy = |t: u64| t.clamp(2000, 8000) - 2000;
        let dense = series_of(10_000, 1024, busy);
        let coarse = series_of(10_000, 32, busy);
        assert!(coarse.step >= 400, "decimated twice: step {}", coarse.step);
        let dense = stats_with(10_000, 6000, dense.resolve(10_000, 0.1, None));
        let coarse = stats_with(10_000, 6000, coarse.resolve(10_000, 0.1, None));
        assert!(
            (dense.efficiency() - coarse.efficiency()).abs() < 0.06,
            "dense {} vs decimated {}",
            dense.efficiency(),
            coarse.efficiency()
        );
    }

    #[test]
    fn accounting_identity() {
        let mut s = stats_with(100, 40, None);
        s.switch_cycles = 10;
        s.idle_cycles = 50;
        assert_eq!(s.accounted_cycles(), 100);
        assert_eq!(s.overhead_cycles(), 10);
    }
}
