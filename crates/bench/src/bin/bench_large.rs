//! Large-grid wall-clock tier for CI (the `bench-large` job).
//!
//! The paper's value proposition is sweeping thousands of scenarios, so
//! this tier times the hot paths at ~10k scenarios instead of the 36 the
//! `bench_baseline` tripwire covers:
//!
//! * `cold_10k_8w` — the full 10,080-scenario grid, cold, on 8 workers
//!   under the chunked work-stealing scheduler;
//! * `warm_10k` — the same grid served entirely from a warm cache;
//! * `hot_skew_per_sku` / `hot_skew_stealing` — a hot-SKU-skew subset
//!   (one SKU carries ~91% of the work) under the legacy per-SKU shard
//!   emulation (`chunk_size(usize::MAX)`) vs the default chunked
//!   scheduler, with a built-in balance gate: under work stealing the
//!   busiest worker's busy time is at most 1.25x the mean;
//! * `single_service_unchunked` / `single_service_chunk32` — 2,048
//!   hot-SKU scenarios on one worker, as one chunk (one batch service runs
//!   them all) vs chunks of 32, with a built-in gate that the unchunked
//!   cost per scenario stays within 1.5x of the chunked one (a cost that
//!   grows with the scenarios one service has run fails it);
//! * `cache_save_binary_10k` — appending 1,000 entries to a 10k-entry
//!   record-log store and saving (checked against the baseline only).
//!
//! ```text
//! bench_large --write --out BENCH_large.json   # refresh baseline
//! bench_large --check BENCH_large.json --out BENCH_large_ci.json
//! ```

use hpcadvisor_bench::timing::{load_baseline, results_json, BenchResult};
use hpcadvisor_core::cache::{Fingerprint, ScenarioCache};
use hpcadvisor_core::dataset::point;
use hpcadvisor_core::prelude::*;
use hpcadvisor_core::CollectStats;
use std::path::PathBuf;
use std::time::Instant;

/// Samples per bench. Each sample is a full multi-thousand-scenario run,
/// long enough to stand on its own — no iteration batching needed.
const SAMPLES: usize = 3;

/// Entries pre-loaded into the cache-save stores.
const STORE_ENTRIES: usize = 10_080;

/// Entries appended inside the timed region of the cache-save bench.
/// Large enough that the append path is well clear of timer granularity
/// (~10ms).
const STORE_APPENDS: usize = 1000;

/// Largest allowed max/mean worker busy time under work stealing on the
/// hot-SKU-skew grid. Unlike a wall-clock speedup it does not depend on
/// how many cores the host has.
const MAX_STEAL_BALANCE: f64 = 1.25;

/// Samples per bench of a gated pair. Each single-service run lasts
/// ~0.15 s, so a few extra cost little and steady the ratio's median.
const PAIR_SAMPLES: usize = 5;

/// Scenarios in the single-service scaling case.
const SINGLE_SERVICE_SCENARIOS: usize = 2048;

/// Largest allowed ratio of the unchunked to the chunk-32 cost per
/// scenario in the single-service scaling case.
const MAX_SINGLE_SERVICE_RATIO: f64 = 1.5;

const USAGE: &str = "\
bench_large — 10k-scenario timing tier for the CI bench-large job

USAGE:
    bench_large [--write] [--check <baseline.json>] [--out <file>]
                [--tolerance <frac>]

MODES:
    --write              measure and write results to --out (default
                         BENCH_large.json)
    --check <baseline>   measure, write results to --out (default
                         BENCH_large_ci.json), and exit non-zero if any
                         bench regressed more than the tolerance vs the
                         baseline

OPTIONS:
    --out <file>         where to write this run's results
    --tolerance <frac>   allowed fractional regression (default 0.5;
                         env HPCADVISOR_BENCH_TOLERANCE overrides)

Two gates always run, in both modes: on the hot-SKU-skew grid, work
stealing keeps the busiest worker's busy time within 1.25x of the mean;
and one worker running 2,048 scenarios as a single chunk costs at most
1.5x per scenario what it costs in chunks of 32. The wall-clock
speedup of work stealing is printed but not gated, since it depends on
the host's core count.
";

/// The 10k grid: 3 SKUs x 4 node counts x 840 mesh sizes = 10,080
/// scenarios. Mesh dimensions stay in the bundled examples' range so
/// every scenario completes (no OOM skews the timing).
fn grid_config() -> UserConfig {
    let mut config = UserConfig::example_openfoam();
    config.nnodes = vec![1, 2, 3, 4];
    config.appinputs = vec![(
        "mesh".into(),
        (0..840)
            .map(|i| format!("{} {} 16", 40 + i / 30, 12 + i % 30))
            .collect(),
    )];
    config
}

/// Every scenario of the grid's first ("hot") SKU: 3,360 of them.
fn hot_sku_ids(session: &Session) -> Vec<u32> {
    let scenarios = session.scenarios();
    let hot = &scenarios[0].sku;
    scenarios
        .iter()
        .filter(|s| &s.sku == hot)
        .map(|s| s.id)
        .collect()
}

/// Hot-SKU-skew subset: every scenario of the first SKU (3,360) plus a
/// 160-scenario tail of each remaining SKU. Under per-SKU shards the hot
/// SKU serializes on one worker; under work stealing its chunks spread
/// across all eight.
fn hot_subset(session: &Session) -> Vec<u32> {
    let scenarios = session.scenarios();
    let hot = scenarios[0].sku.clone();
    let mut ids = hot_sku_ids(session);
    let mut cold: Vec<String> = scenarios
        .iter()
        .filter(|s| s.sku != hot)
        .map(|s| s.sku.clone())
        .collect();
    cold.dedup();
    for sku in cold {
        ids.extend(
            scenarios
                .iter()
                .filter(|s| s.sku == sku)
                .take(160)
                .map(|s| s.id),
        );
    }
    ids
}

/// Times one cold full-grid collect on 8 workers.
fn cold_10k() -> f64 {
    let mut session = Session::create(grid_config(), hpcadvisor_bench::SEED).expect("session");
    let start = Instant::now();
    let report = session
        .collect_with(&CollectPlan::new().workers(8))
        .expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.failed, 0, "bench grid must collect cleanly");
    elapsed
}

/// Times one full-grid collect served entirely from a warm cache.
fn warm_10k(cache_path: &PathBuf) -> f64 {
    let mut session = Session::builder(grid_config())
        .seed(hpcadvisor_bench::SEED)
        .cache(ScenarioCache::open(cache_path))
        .build()
        .expect("session");
    let start = Instant::now();
    let report = session.collect_with(&CollectPlan::new()).expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.cache_hits, STORE_ENTRIES, "cache must be warm");
    elapsed
}

/// How evenly one collect spread its work over the workers.
struct Balance {
    /// Max/mean of the workers' busy seconds (1.0 is a perfect spread).
    ratio: f64,
    /// Scenarios each worker executed.
    scenarios: Vec<usize>,
}

impl Balance {
    fn of(stats: &CollectStats) -> Balance {
        let busy: Vec<f64> = stats.worker_loads.iter().map(|w| w.busy_secs).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        Balance {
            ratio: if mean > 0.0 { max / mean } else { 1.0 },
            scenarios: stats.worker_loads.iter().map(|w| w.scenarios).collect(),
        }
    }
}

/// Times one hot-SKU-skew collect on 8 workers. `Some(usize::MAX)`
/// emulates the legacy one-shard-per-SKU scheduler; `None` uses the
/// default chunked work stealing.
fn hot_skew(chunk_size: Option<usize>) -> (f64, Balance) {
    let mut session = Session::create(grid_config(), hpcadvisor_bench::SEED).expect("session");
    let ids = hot_subset(&session);
    let total = ids.len();
    let mut plan = CollectPlan::new().workers(8).subset(ids);
    if let Some(n) = chunk_size {
        plan = plan.chunk_size(n);
    }
    let start = Instant::now();
    let report = session.collect_with(&plan).expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.executed, total);
    assert_eq!(report.stats.failed, 0);
    (elapsed, Balance::of(&report.stats))
}

/// Times one untraced collect of the first `SINGLE_SERVICE_SCENARIOS`
/// hot-SKU scenarios on a single worker, in chunks of `chunk_size`.
fn single_service(chunk_size: usize) -> f64 {
    let mut session = Session::create(grid_config(), hpcadvisor_bench::SEED).expect("session");
    let mut ids = hot_sku_ids(&session);
    ids.truncate(SINGLE_SERVICE_SCENARIOS);
    let plan = CollectPlan::new()
        .workers(1)
        .chunk_size(chunk_size)
        .subset(ids);
    let start = Instant::now();
    let report = session.collect_with(&plan).expect("collect");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.executed, SINGLE_SERVICE_SCENARIOS);
    assert_eq!(report.stats.failed, 0);
    elapsed
}

/// Synthesizes the `i`-th store entry (fingerprint + completed point).
fn store_entry(i: usize) -> (Fingerprint, hpcadvisor_core::dataset::DataPoint) {
    let fp = Fingerprint::from_hex(&format!("{i:032x}")).expect("fingerprint");
    let p = point(
        i as u32,
        "openfoam",
        "Standard_HB120rs_v3",
        (i % 4 + 1) as u32,
        120,
        10.0 + (i % 97) as f64,
        0.05,
    );
    (fp, p)
}

/// Times appending `STORE_APPENDS` entries to a 10k-entry store and
/// saving. The store at `path` must already hold the first
/// `STORE_ENTRIES` synthetic entries.
fn cache_save(path: &PathBuf) -> f64 {
    let mut cache = ScenarioCache::open(path);
    assert_eq!(cache.len(), STORE_ENTRIES, "store must be pre-loaded");
    let start = Instant::now();
    for i in 0..STORE_APPENDS {
        let (fp, p) = store_entry(STORE_ENTRIES + i);
        cache.insert(fp, &p);
    }
    cache.save().expect("save");
    start.elapsed().as_secs_f64()
}

/// Builds a `STORE_ENTRIES`-entry store at `path`.
fn build_store(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut cache = ScenarioCache::open(path);
    for i in 0..STORE_ENTRIES {
        let (fp, p) = store_entry(i);
        cache.insert(fp, &p);
    }
    cache.save().expect("build store");
}

fn sample(name: &'static str, mut one: impl FnMut() -> f64) -> BenchResult {
    BenchResult::new(name, (0..SAMPLES).map(|_| one()).collect())
}

/// Samples two benches that a gate compares in alternation, so a drift in
/// machine speed lands on both alike.
fn sample_pair(
    (name_a, mut a): (&'static str, impl FnMut() -> f64),
    (name_b, mut b): (&'static str, impl FnMut() -> f64),
) -> [BenchResult; 2] {
    let (samples_a, samples_b) = (0..PAIR_SAMPLES).map(|_| (a(), b())).unzip();
    [
        BenchResult::new(name_a, samples_a),
        BenchResult::new(name_b, samples_b),
    ]
}

/// The median sample's balance, by ratio.
fn median_balance(mut balances: Vec<Balance>) -> Balance {
    balances.sort_by(|a, b| a.ratio.partial_cmp(&b.ratio).unwrap());
    balances.swap_remove(balances.len() / 2)
}

/// Worker balance of the two hot-SKU-skew schedulers.
struct SkewBalance {
    per_sku: Balance,
    stealing: Balance,
}

fn run_benches() -> (Vec<BenchResult>, SkewBalance) {
    // Warm the scenario cache once, outside any timed region, and use the
    // same run to ramp the CPU before the first sample.
    let tmp = std::env::temp_dir();
    let cache_path = tmp.join(format!("hpcadvisor-bench-large-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);
    {
        let mut session = Session::builder(grid_config())
            .seed(hpcadvisor_bench::SEED)
            .cache(ScenarioCache::open(&cache_path))
            .build()
            .expect("session");
        let report = session
            .collect_with(&CollectPlan::new().workers(8))
            .expect("cache fill");
        assert_eq!(report.stats.failed, 0);
    }

    let mut per_sku = Vec::new();
    let mut stealing = Vec::new();
    let mut results = vec![
        sample("cold_10k_8w", cold_10k),
        sample("warm_10k", || warm_10k(&cache_path)),
        sample("hot_skew_per_sku", || {
            let (secs, balance) = hot_skew(Some(usize::MAX));
            per_sku.push(balance);
            secs
        }),
        sample("hot_skew_stealing", || {
            let (secs, balance) = hot_skew(None);
            stealing.push(balance);
            secs
        }),
    ];
    results.extend(sample_pair(
        ("single_service_unchunked", || single_service(usize::MAX)),
        ("single_service_chunk32", || single_service(32)),
    ));

    let bin_store = tmp.join(format!(
        "hpcadvisor-bench-large-{}-store.bin",
        std::process::id()
    ));
    results.push(sample("cache_save_binary_10k", || {
        build_store(&bin_store);
        cache_save(&bin_store)
    }));

    for path in [&cache_path, &bin_store] {
        let _ = std::fs::remove_file(path);
    }
    let balance = SkewBalance {
        per_sku: median_balance(per_sku),
        stealing: median_balance(stealing),
    };
    (results, balance)
}

/// The built-in gates: the acceptance criteria the tier exists to prove,
/// so they run in both `--write` and `--check` mode. Both are ratios of
/// measurements on the same host, so neither depends on its core count.
fn check_gates(results: &[BenchResult], balance: &SkewBalance) -> bool {
    let get = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_secs)
            .expect("bench measured")
    };
    let mut ok = true;
    let speedup = get("hot_skew_per_sku") / get("hot_skew_stealing");
    println!("hot-SKU-skew wall-clock speedup: {speedup:.2}x (work stealing vs per-SKU shards, not gated)");
    println!(
        "hot-SKU-skew balance, per-SKU shards: {:.2} max/mean busy, scenarios per worker {:?}",
        balance.per_sku.ratio, balance.per_sku.scenarios
    );
    println!(
        "hot-SKU-skew balance, work stealing:  {:.2} max/mean busy, scenarios per worker {:?} (limit {MAX_STEAL_BALANCE:.2})",
        balance.stealing.ratio, balance.stealing.scenarios
    );
    if balance.stealing.ratio > MAX_STEAL_BALANCE {
        eprintln!(
            "FAIL: work stealing must keep max/mean worker busy time <= {MAX_STEAL_BALANCE:.2} on the hot-SKU-skew grid"
        );
        ok = false;
    }
    let per_scenario_us = |name: &str| get(name) * 1e6 / SINGLE_SERVICE_SCENARIOS as f64;
    let unchunked = per_scenario_us("single_service_unchunked");
    let chunked = per_scenario_us("single_service_chunk32");
    let ratio = unchunked / chunked;
    println!(
        "single-service scaling: {unchunked:.0} us/scenario unchunked vs {chunked:.0} us/scenario in chunks of 32 = {ratio:.2}x (limit {MAX_SINGLE_SERVICE_RATIO:.1}x)"
    );
    if ratio > MAX_SINGLE_SERVICE_RATIO {
        eprintln!(
            "FAIL: one batch service running {SINGLE_SERVICE_SCENARIOS} scenarios must cost <= {MAX_SINGLE_SERVICE_RATIO:.1}x per scenario of chunks of 32"
        );
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write = false;
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    // Wider default than bench_baseline's 25%: these are multi-second
    // grid-scale runs whose run-to-run medians swing ~30% on shared or
    // single-core machines. The real acceptance gates are the balance and
    // scaling ratios, which divide out machine speed entirely.
    let mut tolerance = std::env::var("HPCADVISOR_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.5);
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

    let (results, balance) = run_benches();
    for r in &results {
        println!(
            "{:<24} median {:.3}s over {} samples",
            r.name,
            r.median_secs,
            r.samples.len()
        );
    }
    let gates_ok = check_gates(&results, &balance);

    let out_path = out.unwrap_or_else(|| {
        if write {
            "BENCH_large.json"
        } else {
            "BENCH_large_ci.json"
        }
        .to_string()
    });
    std::fs::write(&out_path, results_json(&results)).expect("write results");
    println!("wrote {out_path}");

    let mut failed = !gates_ok;
    if let Some(baseline_path) = check {
        let baseline = match load_baseline(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        for (name, base_median) in baseline {
            let Some(r) = results.iter().find(|r| r.name == name) else {
                eprintln!("error: baseline bench '{name}' was not measured");
                failed = true;
                continue;
            };
            // Millisecond-scale medians (the binary-store saves, the warm
            // run) sit inside scheduler-noise territory where a purely
            // fractional tolerance is meaningless, so the limit also gets
            // an absolute floor. A real regression on those benches is a
            // return to whole-store behavior — tens to hundreds of ms —
            // which the floor cannot mask.
            const NOISE_FLOOR_SECS: f64 = 0.025;
            let limit = base_median * (1.0 + tolerance) + NOISE_FLOOR_SECS;
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
    }
    if failed {
        eprintln!(
            "bench-large check failed (tolerance {:.0}%)",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "bench-large check passed (tolerance {:.0}%)",
        tolerance * 100.0
    );
}
