//! The sampling layer: the `collect --sampler aggressive` path, measured
//! by the traced `sweep_cold` run.
//!
//! `AggressiveDiscard` probes every (SKU, input) group at its smallest
//! and largest node counts, then runs the rest of the grid only for SKUs
//! whose probes stay near the front. Each batch goes through
//! `Session::collect_subset`: one `BatchService` on one shared
//! filesystem, single-threaded, with no chunk scheduler and no trace tap,
//! so the benchmark drives the sampler loop itself and times each batch.
//!
//! It is not a workload of its own: its end-to-end timings spread too far
//! between runs on a shared 2-vCPU host for any bound the benchmark may
//! set, so only its per-layer figures and its output checks are kept.

use crate::expected::{Expected, Observed};
use crate::stats::{digest, Samples};
use crate::{Outcome, RunOpts, Scale};
use hpcadvisor::core::sampling::{AggressiveDiscard, Sampler, SamplingReport};
use hpcadvisor::core::{
    Advice, DataFilter, Dataset, ScenarioCache, ScenarioStatus, Session, ToolError, UserConfig,
};
use std::path::Path;
use std::time::Instant;

/// The discard margin `collect --sampler aggressive` uses.
const THRESHOLD: f64 = 0.15;

/// Experiment seed of every sampled variant; variants differ in their
/// step-count inputs only.
const SAMPLED_SEED: u64 = 1000;

/// The sampled LAMMPS grid of a variant: 3 SKUs × 6 node counts × 20
/// BOXFACTOR values × 2 step counts. BOXFACTOR stays at most 25, where
/// one node of every SKU holds the atoms, so every scenario completes.
/// With step counts from 340 up, every variant's probes discard exactly
/// one SKU at both scales, so runs of any seed execute the same number of
/// scenarios (560 of 720 at full scale). The grid is half the size where
/// the shared-filesystem cost first shows clearly: at 1,440 candidates
/// the run-to-run spread of a 2-vCPU virtual machine was twice as wide.
pub fn sampled_config(variant: u64, scale: Scale) -> UserConfig {
    let (boxes, steps) = match scale {
        Scale::Full => (20, 2),
        Scale::Tiny => (2, 2),
    };
    let mut config = UserConfig::example_lammps();
    config.nnodes = vec![1, 2, 3, 4, 8, 16];
    config.appinputs = vec![
        (
            "BOXFACTOR".into(),
            (0..boxes).map(|i| (6 + i).to_string()).collect(),
        ),
        (
            "steps".into(),
            (0..steps)
                .map(|j| (340 + 10 * variant + 50 * j).to_string())
                .collect(),
        ),
    ];
    config
}

/// Wall time of each sampler step.
#[derive(Debug, Default)]
pub struct LoopTimes {
    /// Total time inside `Sampler::next_batch`.
    pub select_s: f64,
    /// Per batch: wall microseconds of `collect_subset` per scenario.
    pub batch_us_per_scenario: Vec<f64>,
}

/// The sampler loop of `sampling::run_sampled`, step for step, with
/// spans around each `next_batch` and `collect_subset` call.
pub fn drive(
    session: &mut Session,
    sampler: &mut dyn Sampler,
) -> Result<(Dataset, SamplingReport, LoopTimes), ToolError> {
    let total = session.scenarios().len();
    let mut observed = Dataset::new();
    let mut executed = 0usize;
    let mut batches = 0usize;
    let mut times = LoopTimes::default();
    loop {
        let candidates = session.scenarios().to_vec();
        let t = Instant::now();
        let batch = sampler.next_batch(&candidates, &observed);
        times.select_s += t.elapsed().as_secs_f64();
        if batch.is_empty() {
            break;
        }
        batches += 1;
        executed += batch.len();
        let t = Instant::now();
        let increment = session.collect_subset(&batch)?;
        times
            .batch_us_per_scenario
            .push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        observed.extend(increment);
        if executed > total * 2 {
            return Err(ToolError::NoData(format!(
                "sampler '{}' issued more executions than scenarios exist",
                sampler.name()
            )));
        }
    }
    let report = SamplingReport {
        strategy: sampler.name().to_string(),
        total,
        executed,
        skipped: total.saturating_sub(executed),
        batches,
    };
    Ok((observed, report, times))
}

/// The dataset in scenario-id order, as JSON.
fn id_ordered_json(ds: &Dataset) -> String {
    let mut points = ds.points.clone();
    points.sort_by_key(|p| p.scenario_id);
    let mut sorted = Dataset::new();
    for p in points {
        sorted.push(p);
    }
    sorted.to_json()
}

/// Sampled collects one traced `sweep_cold` run measures.
const ITERATIONS: usize = 6;

/// Opens a cache in `dir` and builds the session, as `collect` does
/// before sampling.
fn setup(dir: &Path, variant: u64, scale: Scale) -> Result<Session, String> {
    let cache = ScenarioCache::open(dir.join("cache").join("scenario-cache.json"));
    Session::builder(sampled_config(variant, scale))
        .seed(SAMPLED_SEED)
        .cache(cache)
        .build()
        .map_err(|e| format!("session: {e}"))
}

struct Iteration {
    points: usize,
    failed: u64,
    times: LoopTimes,
    observed: Observed,
}

/// One `collect --sampler aggressive` + `advice` on a fresh work
/// directory `dir`.
fn iteration(dir: &Path, variant: u64, scale: Scale) -> Result<Iteration, String> {
    let mut session = setup(dir, variant, scale)?;
    let mut sampler = AggressiveDiscard::new(THRESHOLD);
    let (dataset, report, times) =
        drive(&mut session, &mut sampler).map_err(|e| format!("sampled collect: {e}"))?;
    let advice = Advice::from_dataset(&dataset, &DataFilter::all()).render_text();
    drop(session);
    let failed = dataset
        .points
        .iter()
        .filter(|p| p.status != ScenarioStatus::Completed)
        .count() as u64;
    let mut observed = Observed::default();
    observed.text("dataset_digest", digest(&id_ordered_json(&dataset)));
    observed.text("advice_digest", digest(&advice));
    observed.int("total", report.total as u64);
    observed.int("executed", report.executed as u64);
    observed.int("skipped", report.skipped as u64);
    observed.int("batches", report.batches as u64);
    Ok(Iteration {
        points: dataset.len(),
        failed,
        times,
        observed,
    })
}

/// Checks that [`drive`] is `run_sampled`: same dataset, same report
/// counts, on the tiny grid.
pub fn check_against_run_sampled(variant: u64) -> Result<bool, String> {
    let config = sampled_config(variant, Scale::Tiny);
    let session = || {
        Session::builder(config.clone())
            .seed(SAMPLED_SEED)
            .build()
            .map_err(|e| format!("session: {e}"))
    };
    let mut a = session()?;
    let (ds_a, rep_a, _) = drive(&mut a, &mut AggressiveDiscard::new(THRESHOLD))
        .map_err(|e| format!("driven sampler: {e}"))?;
    let mut b = session()?;
    let (ds_b, rep_b) =
        hpcadvisor::core::sampling::run_sampled(&mut b, &mut AggressiveDiscard::new(THRESHOLD))
            .map_err(|e| format!("run_sampled: {e}"))?;
    Ok(ds_a.to_json() == ds_b.to_json()
        && (rep_a.total, rep_a.executed, rep_a.skipped, rep_a.batches)
            == (rep_b.total, rep_b.executed, rep_b.skipped, rep_b.batches))
}

/// Runs [`ITERATIONS`] sampled collects of the run's variant, checks each
/// against its recorded values and the sampler loop against
/// `run_sampled`, and puts the `sampling.*` metrics (medians over the
/// iterations) into `out`. Its scenarios count as attempted.
pub fn measure(opts: &RunOpts, expected: &Expected, out: &mut Outcome) -> Result<(), String> {
    let variant = opts.variant();
    out.checks.check(check_against_run_sampled(variant)?, || {
        "the benchmark's sampler loop differs from sampling::run_sampled".into()
    });
    let (mut select, mut first, mut last) = (Samples::new(), Samples::new(), Samples::new());
    let mut batches = 0usize;
    for k in 0..ITERATIONS {
        let dir = opts.work_root.join(format!("sampled-{k}"));
        let it = iteration(&dir, variant, opts.scale);
        let _ = std::fs::remove_dir_all(&dir);
        let it = it?;
        expected.compare(
            &mut out.checks,
            opts.scale,
            "sampled",
            variant,
            &it.observed,
        );
        out.attempted += it.points as u64;
        out.failed += it.failed;
        select.push(it.times.select_s);
        batches = it.times.batch_us_per_scenario.len();
        if let (Some(f), Some(l)) = (
            it.times.batch_us_per_scenario.first(),
            it.times.batch_us_per_scenario.last(),
        ) {
            first.push(*f);
            last.push(*l);
        }
    }
    let m = &mut out.metrics;
    m.put("sampling.batches", batches as f64);
    m.put("sampling.select_s", select.median());
    m.put("sampling.batch_us_per_scenario_first", first.median());
    m.put("sampling.batch_us_per_scenario_last", last.median());
    out.samples.push(("sampled_collects".into(), ITERATIONS));
    Ok(())
}

/// Recorded values of a variant: one iteration in `dir`.
pub fn record(variant: u64, scale: Scale, dir: &Path) -> Result<Observed, String> {
    let it = iteration(dir, variant, scale)?;
    if it.failed > 0 {
        return Err(format!(
            "sampled variant {variant}: {} scenarios did not complete",
            it.failed
        ));
    }
    Ok(it.observed)
}
