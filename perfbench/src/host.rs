//! Host fingerprint and process memory.
//!
//! Every result carries the fingerprint so a number is always read
//! together with the machine that produced it; nothing in the benchmark
//! compares numbers across hosts.

use crate::stats::json_string;
use std::path::Path;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Fingerprint {
    /// Probes the current host; `root` is the checkout root.
    pub fn probe(root: &Path) -> Self {
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_owned(),
            git_commit: git_commit(root).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}}}",
            self.parallelism,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.git_commit)
        )
    }
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
