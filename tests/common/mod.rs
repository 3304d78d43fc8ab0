//! Helpers shared by the integration-test binaries.
//!
//! Each binary compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use register_relocation::experiments::ExperimentSpec;
use register_relocation::sweep::SweepGrid;

/// A fresh, empty temp directory owned by one test, removed with everything
/// in it on drop.
///
/// The name joins the process id, a per-process counter and the caller's
/// label, so no two tests share a path: not parallel tests in one binary
/// (the counter), not concurrent binaries (the pid), and not two uses of
/// the same label.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("rr-test-{}-{n}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir is creatable");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The path of `name` inside this directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A 2-point Figure 5 panel with light workloads — fast, but end to end
/// through the real engines.
pub fn mini_grid(seed: u64) -> SweepGrid {
    let mut grid = SweepGrid::figure5_panel(64, seed);
    grid.run_lengths = vec![8.0];
    grid.latencies = vec![50, 200];
    grid.base = ExperimentSpec { threads: 8, work_per_thread: 2_000, ..grid.base };
    grid
}
