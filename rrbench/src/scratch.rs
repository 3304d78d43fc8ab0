//! The benchmark's own scratch space, inside the directory it runs from.
//!
//! Everything the benchmark writes lives under [`ROOT`]: one temp directory
//! per result store, named from the process id, a process-wide counter and
//! the workload so that no two stores ever share a path, and the span files
//! of traced runs. The benchmark never opens `.rr-store` or `$RR_STORE`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Scratch root, relative to the working directory.
pub const ROOT: &str = ".rrbench";

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory removed, with its contents, on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.rrbench/tmp/<label>-<pid>-<n>`.
    pub fn new(label: &str) -> Result<TempDir, String> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(ROOT)
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory costs disk space, not results.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dirs_vanish_on_drop() {
        let a = TempDir::new("unit").expect("create");
        let b = TempDir::new("unit").expect("create");
        assert_ne!(a.path(), b.path());
        let name = a
            .path()
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        assert!(name.starts_with(&format!("unit-{}-", std::process::id())));
        std::fs::write(a.path().join("f"), b"x").expect("write");
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
