//! The run context recorded with every result: runs are only comparable
//! on the same kernel tier and thread count.

use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunContext {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Active SIMD kernel tier (`scalar` or `avx2`).
    pub kernel: &'static str,
    /// Worker threads an inspection resolves to.
    pub workers: usize,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
}

impl RunContext {
    /// Context of the current process for `workload` at `seed`.
    pub fn current(workload: &str, seed: u64) -> RunContext {
        RunContext {
            workload: workload.to_owned(),
            seed,
            kernel: usb_tensor::kernels::tier_name(),
            workers: usb_tensor::par::worker_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: head_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"kernel\":\"{}\",\"workers\":{},\"nproc\":{},\"commit\":\"{}\"}}",
            self.workload, self.seed, self.kernel, self.workers, self.nproc, self.commit
        )
    }
}

/// Resolves `HEAD` of the git directory `git_dir` by reading its files (a
/// loose ref or `packed-refs`), without running git.
fn head_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}
