//! Wall-clock baseline guard for CI (the `bench-baseline` job).
//!
//! Unlike the criterion benches (statistical, local), this is a blunt
//! regression tripwire: it times the two paths PRs regress most often —
//! the 4-worker parallel collect and the cache-warm collect — as the
//! median of a few single-shot runs, writes the numbers as JSON together
//! with the host's core count (`nproc`), and in `--check` mode fails if
//! either median exceeds the checked-in baseline by more than the
//! tolerance (default 25%, override with `--tolerance` or
//! `HPCADVISOR_BENCH_TOLERANCE`). Baselines recorded before `nproc` was
//! written still check.
//!
//! ```text
//! bench_baseline --write --out BENCH_baseline.json   # refresh baseline
//! bench_baseline --check BENCH_baseline.json --out BENCH_ci.json
//! ```

use hpcadvisor_bench::timing::{load_baseline, results_json, BenchResult};
use hpcadvisor_core::cache::ScenarioCache;
use hpcadvisor_core::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

/// Samples per bench; the median damps scheduler noise without making the
/// CI job slow.
const SAMPLES: usize = 7;

/// Iterations batched into one sample. A single collect is a few
/// milliseconds, far too close to timer/scheduler noise for a 25% gate, so
/// each sample times a batch. Constant across --write and --check runs of
/// the same binary, so medians stay comparable.
const PARALLEL_ITERS: usize = 10;
const WARM_ITERS: usize = 200;

const USAGE: &str = "\
bench_baseline — single-shot timing guard for the CI bench-baseline job

USAGE:
    bench_baseline [--write] [--check <baseline.json>] [--out <file>]
                   [--tolerance <frac>]

MODES:
    --write              measure and write results to --out (default
                         BENCH_baseline.json)
    --check <baseline>   measure, write results to --out (default
                         BENCH_ci.json), and exit non-zero if any bench
                         regressed more than the tolerance vs the baseline

OPTIONS:
    --out <file>         where to write this run's results
    --tolerance <frac>   allowed fractional regression (default 0.25;
                         env HPCADVISOR_BENCH_TOLERANCE overrides)
";

fn grid_config() -> UserConfig {
    UserConfig::example_openfoam()
}

/// Times one batch of end-to-end 36-scenario grids on 4 workers.
fn parallel_collect_batch() -> f64 {
    let start = Instant::now();
    for _ in 0..PARALLEL_ITERS {
        let mut session = Session::create(grid_config(), hpcadvisor_bench::SEED).expect("session");
        let report = session
            .collect_with(&CollectPlan::new().workers(4))
            .expect("collect");
        assert_eq!(report.stats.failed, 0, "bench grid must collect cleanly");
    }
    start.elapsed().as_secs_f64()
}

/// Times one batch of the same grid served entirely from a warm cache.
fn cache_warm_batch(cache_path: &PathBuf) -> f64 {
    let start = Instant::now();
    for _ in 0..WARM_ITERS {
        let mut session = Session::builder(grid_config())
            .seed(hpcadvisor_bench::SEED)
            .cache(ScenarioCache::open(cache_path))
            .build()
            .expect("session");
        let report = session.collect_with(&CollectPlan::new()).expect("collect");
        assert_eq!(report.stats.cache_hits, 36, "cache must be warm");
    }
    start.elapsed().as_secs_f64()
}

fn run_benches() -> Vec<BenchResult> {
    // Warm the cache once outside the timed region.
    let cache_path = std::env::temp_dir().join(format!(
        "hpcadvisor-bench-baseline-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    {
        let mut session = Session::builder(grid_config())
            .seed(hpcadvisor_bench::SEED)
            .cache(ScenarioCache::open(&cache_path))
            .build()
            .expect("session");
        session.collect().expect("cache fill");
    }

    // One untimed batch first: the very first batch after a build runs with
    // cold page cache and an unramped CPU and can read 20-30% high, which
    // is exactly the noise band the tolerance is meant to cover.
    let _ = parallel_collect_batch();

    let results = vec![
        BenchResult::new(
            "parallel_collect_36x4",
            (0..SAMPLES).map(|_| parallel_collect_batch()).collect(),
        ),
        BenchResult::new(
            "cache_warm_36",
            (0..SAMPLES)
                .map(|_| cache_warm_batch(&cache_path))
                .collect(),
        ),
    ];
    let _ = std::fs::remove_file(&cache_path);
    results
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    let mut tolerance = std::env::var("HPCADVISOR_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--write" => {
                write = true;
                i += 1;
            }
            "--check" => {
                check = args.get(i + 1).cloned();
                if check.is_none() {
                    eprintln!("--check needs a baseline file\n{USAGE}");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned();
                if out.is_none() {
                    eprintln!("--out needs a file\n{USAGE}");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--tolerance" => {
                match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) if t >= 0.0 => tolerance = t,
                    _ => {
                        eprintln!("--tolerance needs a non-negative fraction\n{USAGE}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            a => {
                eprintln!("unknown argument '{a}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if write == check.is_some() {
        eprintln!("pick exactly one of --write / --check\n{USAGE}");
        std::process::exit(2);
    }

    let results = run_benches();
    for r in &results {
        println!(
            "{:<24} median {:.3}s over {} samples",
            r.name,
            r.median_secs,
            r.samples.len()
        );
    }

    let out_path = out.unwrap_or_else(|| {
        if write {
            "BENCH_baseline.json"
        } else {
            "BENCH_ci.json"
        }
        .to_string()
    });
    std::fs::write(&out_path, results_json(&results)).expect("write results");
    println!("wrote {out_path}");

    if let Some(baseline_path) = check {
        let baseline = match load_baseline(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let mut failed = false;
        for (name, base_median) in baseline {
            let Some(r) = results.iter().find(|r| r.name == name) else {
                eprintln!("error: baseline bench '{name}' was not measured");
                failed = true;
                continue;
            };
            let limit = base_median * (1.0 + tolerance);
            let verdict = if r.median_secs > limit {
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{name:<24} {:.3}s vs baseline {:.3}s (limit {:.3}s): {verdict}",
                r.median_secs, base_median, limit
            );
            if r.median_secs > limit {
                failed = true;
            }
        }
        if failed {
            eprintln!(
                "bench-baseline check failed (tolerance {:.0}%)",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "bench-baseline check passed (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
}
