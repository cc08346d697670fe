//! What every result is stamped with, so numbers from different machines,
//! builds or sources are never compared silently.

use std::fs;
use std::path::Path;

/// The environment a run measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// Git commit of the checkout, when it is a git repository.
    pub commit: String,
    /// FNV-1a over every file under `crates/`, so checkouts without git
    /// still identify the measured source.
    pub source_hash: String,
    /// The workload seed.
    pub seed: u64,
}

impl Stamp {
    /// Collects the stamp for a run with `seed`, reading from the
    /// checkout root (the working directory).
    pub fn collect(seed: u64) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            source_hash: source_hash(Path::new("crates")),
            seed,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\
             \"source_hash\":\"{}\",\"seed\":{}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.profile,
            self.commit,
            self.source_hash,
            self.seed
        )
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `HEAD` by reading the git directory directly (no `git`
/// process, so a checkout nested in another repository cannot report
/// that repository's commit).
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&fs::read(f).unwrap_or_default());
    }
    if files.is_empty() {
        return "unknown".to_string();
    }
    format!("{:016x}", ipim_serve::fnv1a(&bytes))
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
