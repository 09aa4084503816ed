//! `sweep_cold`: the `collect --workers 2` + `advice` path over one work
//! directory, as the CLI runs it.
//!
//! Each iteration starts from an empty work directory, so every scenario
//! executes through taskshell, batchsim and cloudsim, and every outcome
//! is journaled and stored.

use crate::expected::{Expected, Observed};
use crate::spans::SpanTap;
use crate::stats::{digest, tree_bytes, Samples};
use crate::{experiment_seed, repeat_for, sweep_config, Outcome, RunOpts, Scale, THREADS};
use hpcadvisor::core::journal::RunJournal;
use hpcadvisor::core::{Advice, CollectPlan, DataFilter, ScenarioCache, ScenarioStatus, Session};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One collect + advice invocation on a work directory.
struct Iteration {
    /// Cache and journal open plus session (deployment) creation.
    setup_s: f64,
    cache_open_s: f64,
    /// Collect call → report.
    collect_s: f64,
    /// Collect call → rendered advice.
    request_s: f64,
    advice_s: f64,
    attempted: u64,
    failed: u64,
    dataset_digest: String,
    advice_digest: String,
    /// Per-layer values (traced iterations only).
    layers: BTreeMap<&'static str, f64>,
    /// Simulated counts checked against recorded values (traced only).
    observed: Observed,
}

fn cache_path(dir: &Path) -> std::path::PathBuf {
    dir.join("cache").join("scenario-cache.json")
}

fn journal_path(dir: &Path) -> std::path::PathBuf {
    dir.join("journal.jsonl")
}

/// Extra set-ups timed after each iteration, so `setup_s` is a median of
/// many samples spread over the whole run rather than one moment of it.
const EXTRA_SETUPS: usize = 2;

/// Opens the work directory's cache and a fresh run journal and builds
/// the session, as `collect` does before running anything. Returns the
/// session, the set-up seconds and the cache-open share of them.
fn setup(
    dir: &Path,
    variant: u64,
    scale: Scale,
    tap: Option<Arc<SpanTap>>,
) -> Result<(Session, f64, f64), String> {
    let t0 = Instant::now();
    let cache = ScenarioCache::open(cache_path(dir));
    let cache_open_s = t0.elapsed().as_secs_f64();
    let journal = RunJournal::open_fresh(journal_path(dir));
    let mut builder = Session::builder(sweep_config(variant, scale))
        .seed(experiment_seed(variant))
        .cache(cache)
        .journal(journal);
    if let Some(tap) = tap {
        builder = builder.progress(tap);
    }
    let session = builder.build().map_err(|e| format!("session: {e}"))?;
    Ok((session, t0.elapsed().as_secs_f64(), cache_open_s))
}

/// Runs `collect --workers 2` then `advice` on the work directory `dir`.
fn iteration(dir: &Path, variant: u64, scale: Scale, traced: bool) -> Result<Iteration, String> {
    let tap = traced.then(|| Arc::new(SpanTap::new()));
    let (mut session, setup_s, cache_open_s) = setup(dir, variant, scale, tap.clone())?;

    let plan = CollectPlan::new().workers(THREADS).trace(traced);
    let t1 = Instant::now();
    let report = session
        .collect_with(&plan)
        .map_err(|e| format!("collect: {e}"))?;
    let collect_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let advice = Advice::from_dataset(&report.dataset, &DataFilter::all()).render_text();
    let advice_s = t2.elapsed().as_secs_f64();
    let request_s = t1.elapsed().as_secs_f64();

    let stats = &report.stats;
    let failed = report
        .outcomes
        .iter()
        .filter(|o| o.status != ScenarioStatus::Completed)
        .count();
    let mut it = Iteration {
        setup_s,
        cache_open_s,
        collect_s,
        request_s,
        advice_s,
        attempted: report.outcomes.len() as u64,
        failed: failed as u64,
        dataset_digest: digest(&report.dataset.to_json()),
        advice_digest: digest(&advice),
        layers: BTreeMap::new(),
        observed: Observed::default(),
    };
    if let (Some(tap), Some(trace)) = (&tap, &report.trace) {
        let spans = tap.analyze(t1);
        let t3 = Instant::now();
        let jsonl = trace.to_jsonl();
        let to_jsonl_s = t3.elapsed().as_secs_f64();
        let busy: f64 = stats.worker_loads.iter().map(|w| w.busy_secs).sum();
        let max_busy = stats
            .worker_loads
            .iter()
            .map(|w| w.busy_secs)
            .fold(0.0, f64::max);
        // The provider's ledger bills idle pool time on the shared virtual
        // clock, which depends on how the two workers' chunks interleave:
        // it is reported, but unlike the counts it is not checked against
        // a recorded value.
        let billed = session.total_cloud_cost() + 0.0;
        let layers = &mut it.layers;
        let run_start = spans.run_start.unwrap_or(0.0);
        let run_end = spans.run_end.unwrap_or(collect_s);
        let last_end = spans.last_scenario_end.unwrap_or(run_start);
        layers.insert("collect.pre_run_s", run_start);
        layers.insert("collect.workers_s", (last_end - run_start).max(0.0));
        layers.insert("collect.post_run_s", (run_end - last_end).max(0.0));
        layers.insert(
            "collect.worker_imbalance",
            if busy > 0.0 {
                max_busy / (busy / stats.worker_loads.len() as f64)
            } else {
                0.0
            },
        );
        layers.insert("collect.steals", stats.steals as f64);
        layers.insert("collect.chunks", stats.shards as f64);
        layers.insert("collector.scenario_us_p50", spans.scenario_us.median());
        layers.insert("collector.scenario_us_p99", spans.scenario_us.tail());
        layers.insert("collector.self_us_p50", spans.scenario_self_us.median());
        layers.insert(
            "taskshell.compute_task_us_p50",
            spans.compute_task_us.median(),
        );
        layers.insert(
            "taskshell.compute_task_us_p99",
            spans.compute_task_us.tail(),
        );
        layers.insert("taskshell.setup_task_us_p50", spans.setup_task_us.median());
        let tasks = (spans.setup_task_us.len() + spans.compute_task_us.len()) as u64;
        layers.insert("taskshell.tasks", tasks as f64);
        layers.insert(
            "taskshell.busy_share",
            if busy > 0.0 {
                spans.task_secs() / busy
            } else {
                0.0
            },
        );
        let counted = [
            ("batchsim.pool_creates", "pool_create"),
            ("batchsim.pool_resizes", "pool_resize"),
            ("batchsim.node_boots", "node_boot"),
            ("cloudsim.provisions", "provision"),
            ("cloudsim.releases", "release"),
            ("cloudsim.fault_rolls", "fault_roll"),
        ];
        for (metric, kind) in counted {
            layers.insert(metric, spans.count(kind) as f64);
            it.observed.int(kind, spans.count(kind));
        }
        layers.insert("cloudsim.billed_dollars", billed);
        let hits_and_misses = stats.cache_hits + stats.cache_misses;
        layers.insert(
            "cache.hit_ratio",
            if hits_and_misses > 0 {
                stats.cache_hits as f64 / hits_and_misses as f64
            } else {
                0.0
            },
        );
        layers.insert("telemetry.events", spans.events as f64);
        layers.insert("telemetry.to_jsonl_s", to_jsonl_s);
        layers.insert("telemetry.trace_bytes", jsonl.len() as f64);
        layers.insert("advice.render_s", it.advice_s);
        it.observed.int("tasks", tasks);
        it.observed.int("trace_events", trace.len() as u64);
        it.observed.text("trace_digest", digest(&jsonl));
        it.observed.int("tap_events", spans.events as u64);
    }
    drop(session);
    if traced {
        it.layers.insert("cache.open_s", it.cache_open_s);
        it.layers
            .insert("cache.store_bytes", tree_bytes(&dir.join("cache")) as f64);
    }
    Ok(it)
}

/// Times replaying the run journal (`--resume`) and re-appending its
/// entries one by one into a fresh journal.
fn journal_layers(dir: &Path, layers: &mut BTreeMap<&'static str, f64>) {
    let path = journal_path(dir);
    let t = Instant::now();
    let journal = RunJournal::open(&path);
    layers.insert("journal.replay_s", t.elapsed().as_secs_f64());
    layers.insert("journal.bytes", tree_bytes(&path) as f64);
    let mut fresh = RunJournal::open_fresh(dir.join("journal-append.jsonl"));
    let mut appends = Samples::new();
    for entry in journal.entries() {
        let t = Instant::now();
        fresh.append(entry.clone());
        appends.push(t.elapsed().as_secs_f64() * 1e6);
    }
    layers.insert("journal.append_us_p50", appends.median());
}

/// The values of an iteration that are recorded: its outputs, plus the
/// simulated counts of a traced one.
fn observed(it: &Iteration) -> Observed {
    let mut observed = it.observed.clone();
    observed.text("dataset_digest", it.dataset_digest.clone());
    observed.text("advice_digest", it.advice_digest.clone());
    observed.int("points", it.attempted);
    observed
}

pub fn run(opts: &RunOpts, expected: &Expected) -> Result<Outcome, String> {
    let variant = opts.variant();
    // Extra set-ups run in an empty directory of their own, so they never
    // reset the journal of a measured iteration.
    let setup_dir = opts.work_root.join("setup");
    let mut out = Outcome::default();
    let (mut setup_times, mut request, mut collect) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut untraced_wall = Samples::new();
    let mut traced_wall = Samples::new();
    let mut layers: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut journal_dir = None;
    let mut scenarios = 0u64;
    let mut request_ms = Vec::new();
    // One untimed (but checked) iteration first, so timing starts with
    // the code, the allocator and the page cache warm.
    let warm_dir = opts.work_root.join("warm-up");
    let warm = iteration(&warm_dir, variant, opts.scale, false);
    let _ = std::fs::remove_dir_all(&warm_dir);
    let warm = warm?;
    expected.compare(
        &mut out.checks,
        opts.scale,
        "sweep",
        variant,
        &observed(&warm),
    );
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    let window = Duration::from_secs_f64(opts.seconds);
    // Traced runs alternate untraced and traced iterations, so the
    // tracing overhead is measured on the same host state.
    let min = if opts.trace { 4 } else { 3 };
    repeat_for(window, min, |k| {
        let traced = opts.trace && k % 2 == 1;
        let dir = opts.work_root.join(format!("cold-{k}"));
        let it = iteration(&dir, variant, opts.scale, traced)?;
        expected.compare(
            &mut out.checks,
            opts.scale,
            "sweep",
            variant,
            &observed(&it),
        );
        out.attempted += it.attempted;
        out.failed += it.failed;
        scenarios += it.attempted;
        setup_times.push(it.setup_s);
        for _ in 0..EXTRA_SETUPS {
            let (session, setup_s, _) = setup(&setup_dir, variant, opts.scale, None)?;
            drop(session);
            setup_times.push(setup_s);
        }
        request.push(it.request_s);
        request_ms.push(it.request_s * 1e3);
        collect.push(it.collect_s);
        if traced {
            traced_wall.push(it.request_s);
            for (k, v) in &it.layers {
                layers.entry(k).or_default().push(*v);
            }
            // Keep the latest traced work directory for the journal
            // measurements below.
            if let Some(old) = journal_dir.replace(dir) {
                let _ = std::fs::remove_dir_all(old);
            }
        } else {
            untraced_wall.push(it.request_s);
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(())
    })?;
    if let Some(dir) = journal_dir {
        let mut journal = BTreeMap::new();
        journal_layers(&dir, &mut journal);
        for (k, v) in journal {
            layers.entry(k).or_default().push(v);
        }
    }
    let m = &mut out.metrics;
    m.put("setup_s", setup_times.median());
    m.put("scenarios_per_s", scenarios as f64 / request.sum());
    m.put("requests_per_s", request.len() as f64 / request.sum());
    m.put("request_p50_ms", request.median() * 1e3);
    m.put("first_frame_p50_ms", collect.median() * 1e3);
    for (k, v) in &layers {
        m.put(k, v.median());
    }
    if opts.trace {
        let base = untraced_wall.median();
        m.put(
            "telemetry.overhead_frac",
            if base > 0.0 {
                traced_wall.median() / base - 1.0
            } else {
                0.0
            },
        );
    }
    out.samples.push(("requests".into(), request.len()));
    out.request_ms = request_ms;
    out.samples
        .push(("traced_requests".into(), traced_wall.len()));
    out.samples.push(("setups".into(), setup_times.len()));
    if opts.trace {
        crate::sampled::measure(opts, expected, &mut out)?;
    }
    Ok(out)
}

/// Recorded values of a variant: one traced cold iteration in `dir`.
pub fn record(variant: u64, scale: Scale, dir: &Path) -> Result<Observed, String> {
    let it = iteration(dir, variant, scale, true)?;
    if it.failed > 0 {
        return Err(format!(
            "sweep variant {variant}: {} scenarios did not complete",
            it.failed
        ));
    }
    Ok(observed(&it))
}
