//! The hpcadvisor benchmark.
//!
//! It drives the library in-process, the way the `hpcadvisor` CLI and
//! daemon do, and measures every layer from outside with spans of its
//! own. Two workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `sweep_cold` — `collect --workers 2` on an empty work directory:
//!   file-backed scenario cache, fresh run journal, 10,080-scenario
//!   OpenFOAM grid, then advice. Every scenario executes. Its traced run
//!   also measures the sampling layer (`collect --sampler aggressive`, see
//!   [`sampled`]).
//! * `serve_mixed` — the daemon (`cli::serve::serve_on`) on loopback with
//!   a state directory and a file-backed cache, driven by two closed-loop
//!   clients of two tenants, one connection per request, alternating a
//!   repeated grid (cache hits) with fresh (config, seed) pairs (misses).
//!
//! Inputs come from `--seed`: the seed selects one of [`VARIANTS`] input
//! variants (grid values and experiment seed), whose outputs are recorded
//! in `expected.json`, so every run checks its datasets and simulated
//! counts against recorded values. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it records provenance (host cores, rustc, revision, seed).

pub mod expected;
pub mod sampled;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;

use hpcadvisor::core::UserConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Number of recorded input variants; `--seed` selects `seed % VARIANTS`.
pub const VARIANTS: u64 = 8;

/// Worker threads and client connections any workload uses at most.
pub const THREADS: usize = 2;

/// The end-to-end metrics every run with `--trace 0` reports, with units.
/// A request is one `collect` + `advice` invocation on `sweep_cold` and
/// one daemon request on `serve_mixed`; its first frame is
/// the collect's returned report there and the daemon's first reply frame
/// here. Throughputs are totals over the measured requests' wall time.
/// `success_rate` is 1 − failed / attempted: an error rate would read 0.
/// The daemon's request tail is the per-layer `serve.request_p99_ms`: on
/// a shared 2-vCPU host it swung too far between runs to be bounded.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("first_frame_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every run with `--trace 1` reports, with units.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("collect.pre_run_s", "s"),
    ("collect.workers_s", "s"),
    ("collect.post_run_s", "s"),
    ("collect.worker_imbalance", "ratio"),
    ("collect.steals", "count"),
    ("collect.chunks", "count"),
    ("collector.scenario_us_p50", "us"),
    ("collector.scenario_us_p99", "us"),
    ("collector.self_us_p50", "us"),
    ("taskshell.compute_task_us_p50", "us"),
    ("taskshell.compute_task_us_p99", "us"),
    ("taskshell.setup_task_us_p50", "us"),
    ("taskshell.tasks", "count"),
    ("taskshell.busy_share", "ratio"),
    ("batchsim.pool_creates", "count"),
    ("batchsim.pool_resizes", "count"),
    ("batchsim.node_boots", "count"),
    ("cloudsim.provisions", "count"),
    ("cloudsim.releases", "count"),
    ("cloudsim.fault_rolls", "count"),
    ("cloudsim.billed_dollars", "USD"),
    ("cache.open_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.store_bytes", "bytes"),
    ("journal.append_us_p50", "us"),
    ("journal.replay_s", "s"),
    ("journal.bytes", "bytes"),
    ("telemetry.events", "count"),
    ("telemetry.to_jsonl_s", "s"),
    ("telemetry.trace_bytes", "bytes"),
    ("telemetry.overhead_frac", "ratio"),
    ("advice.render_s", "s"),
    ("sampling.batches", "count"),
    ("sampling.select_s", "s"),
    ("sampling.batch_us_per_scenario_first", "us"),
    ("sampling.batch_us_per_scenario_last", "us"),
    ("serve.hit_request_ms_p50", "ms"),
    ("serve.miss_request_ms_p50", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("serve.frames_per_request", "count"),
    ("serve.bytes_per_request", "bytes"),
    ("serve.state_bytes", "bytes"),
    ("serve.latency_growth", "ratio"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepCold,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SweepCold, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark proper, `Tiny` the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for work directories, caches and journals; it
    /// is removed when the run ends.
    pub work_root: PathBuf,
}

impl RunOpts {
    pub fn variant(&self) -> u64 {
        self.seed % VARIANTS
    }
}

/// Named metric values in the order they were put.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Output checks of one run: every failed comparison is kept and the run
/// is reported as incorrect.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }

    pub fn failures(&self) -> &[String] {
        &self.0
    }

    pub fn ok(&self) -> bool {
        self.0.is_empty()
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Operations attempted: scenarios for `sweep_cold` (and its traced
    /// run's sampled collects), requests for the daemon.
    pub attempted: u64,
    /// Attempted operations that failed, were skipped or timed out, or
    /// were answered with an error frame or a cut connection.
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample counts behind the reported timings, for the provenance line.
    pub samples: Vec<(String, usize)>,
    /// Every request's latency in ms, in run order, where there are few
    /// enough to list (`sweep_cold`).
    pub request_ms: Vec<f64>,
}

impl Outcome {
    /// Fills the end-to-end metrics shared by every workload and defaults
    /// per-layer metrics of layers this workload does not exercise to 0.
    fn finish(&mut self, trace: bool) {
        let success = if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        };
        self.metrics.put("success_rate", success);
        // `serve_mixed` reads it itself, at a fixed amount of work.
        if self.metrics.get("peak_rss_mb").is_none() {
            self.metrics.put("peak_rss_mb", stats::peak_rss_mb());
        }
        if trace {
            for (name, _) in PER_LAYER {
                if self.metrics.get(name).is_none() {
                    self.metrics.put(name, 0.0);
                }
            }
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding either every end-to-end or every
    /// per-layer metric.
    pub fn result_json(&self, trace: bool) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not report metric {name}"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.ok(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot carry, read as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Runs one workload and returns its outcome. Errors are setup failures
/// (the program could not even be driven), not output mismatches.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&opts.work_root);
    std::fs::create_dir_all(&opts.work_root).map_err(|e| format!("work dir: {e}"))?;
    let expected = expected::Expected::load()?;
    let result = match opts.workload {
        Workload::SweepCold => sweep::run(opts, &expected),
        Workload::ServeMixed => serve::run(opts, &expected),
    };
    let _ = std::fs::remove_dir_all(&opts.work_root);
    let mut outcome = result?;
    outcome.finish(opts.trace);
    Ok(outcome)
}

/// Repeats `body` until `window` has passed and at least `min` times.
pub fn repeat_for(
    window: Duration,
    min: usize,
    mut body: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed() < window {
        body(n)?;
        n += 1;
    }
    Ok(())
}

/// The OpenFOAM sweep grid of a variant: 3 SKUs × 4 node counts × `inputs`
/// meshes. Mesh sizes stay inside the bundled examples' range, where every
/// scenario completes.
pub fn sweep_config(variant: u64, scale: Scale) -> UserConfig {
    let inputs = match scale {
        Scale::Full => 840,
        Scale::Tiny => 6,
    };
    let mut config = UserConfig::example_openfoam();
    config.nnodes = vec![1, 2, 3, 4];
    config.appinputs = vec![(
        "mesh".into(),
        (0..inputs)
            .map(|i| format!("{} {} {}", 40 + i / 30 + variant, 12 + i % 30, 16 + variant))
            .collect(),
    )];
    config
}

/// Experiment seed of a variant.
pub fn experiment_seed(variant: u64) -> u64 {
    1000 + variant
}

/// Provenance of a run: host cores, toolchain, source revision, seed.
pub fn provenance(opts: &RunOpts, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = stdout_of(std::process::Command::new("rustc").arg("--version"))
        .unwrap_or_else(|| "unknown".into());
    let revision = git_revision().unwrap_or_else(|| format!("source-{}", source_digest()));
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    let request_ms: Vec<String> = outcome
        .request_ms
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    let failures: Vec<String> = outcome
        .checks
        .failures()
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"variant\": {}, \"scale\": \"{}\", \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"revision\": \"{}\", \"samples\": {{{}}}, \"request_ms\": [{}], \"check_failures\": [{}]}}}}",
        opts.workload.name(),
        opts.seed,
        opts.variant(),
        opts.scale.name(),
        opts.trace,
        num(opts.seconds),
        rustc.replace('"', "'"),
        revision,
        samples.join(", "),
        request_ms.join(", "),
        failures.join(", ")
    )
}

/// The trimmed standard output of a command that succeeded.
fn stdout_of(command: &mut std::process::Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `git rev-parse HEAD` of the current directory, never searching above
/// it for a repository.
fn git_revision() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    stdout_of(
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent()?),
    )
}

/// FNV digest over the program's sources (for checkouts without git).
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "shims", "perfbench/src"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut text = Vec::new();
    for f in files {
        text.extend_from_slice(f.to_string_lossy().as_bytes());
        text.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", stats::fnv64(&text))
}
