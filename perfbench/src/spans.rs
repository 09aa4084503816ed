//! Wall-clock spans recorded from outside the program.
//!
//! [`SpanTap`] is attached to a session through `SessionBuilder::progress`.
//! The program hands it every trace event on the emitting thread; the tap
//! only stamps the event with wall time and a thread number and keeps it
//! in memory. [`SpanTap::analyze`] turns the stamps into per-layer spans
//! after the run, so no analysis cost lands inside the measured collect.
//!
//! Span pairing is per thread: a `scenario_start` opens a collector span
//! that the next `scenario_end` on the same thread closes, and likewise
//! `task_start`/`task_end` bracket one task script run by taskshell. A
//! scenario's self time is its span minus the task spans inside it.

use crate::stats::Samples;
use hpcadvisor::telemetry::{EventTap, TraceEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One observed event: wall-clock instant, emitting thread, kind, and
/// the task kind for task events.
struct Stamp {
    at: Instant,
    thread: u32,
    kind: String,
    task_kind: Option<String>,
}

/// An [`EventTap`] that records wall-stamped events in memory.
#[derive(Default)]
pub struct SpanTap {
    stamps: Mutex<Vec<Stamp>>,
}

impl SpanTap {
    pub fn new() -> SpanTap {
        SpanTap::default()
    }

    /// Pairs the recorded stamps into spans and counts, with times in
    /// seconds since `epoch` (the instant the collect call was made).
    pub fn analyze(&self, epoch: Instant) -> SpanReport {
        let stamps = self.stamps.lock().expect("span tap poisoned");
        let secs = |n: u64| n as f64 / 1e9;
        let mut report = SpanReport {
            events: stamps.len(),
            ..SpanReport::default()
        };
        // Per thread: the open scenario start, the open task start and
        // kind, and the task time accumulated inside the open scenario.
        let mut open_scenario: BTreeMap<u32, u64> = BTreeMap::new();
        let mut open_task: BTreeMap<u32, (u64, bool)> = BTreeMap::new();
        let mut task_inside: BTreeMap<u32, u64> = BTreeMap::new();
        let mut last_scenario_end = None;
        for s in stamps.iter() {
            let nanos = s.at.saturating_duration_since(epoch).as_nanos() as u64;
            *report.counts.entry(s.kind.clone()).or_insert(0) += 1;
            match s.kind.as_str() {
                "run_start" => report.run_start = Some(secs(nanos)),
                "run_end" => report.run_end = Some(secs(nanos)),
                "scenario_start" => {
                    open_scenario.insert(s.thread, nanos);
                    task_inside.insert(s.thread, 0);
                }
                "scenario_end" => {
                    last_scenario_end = Some(nanos);
                    if let Some(start) = open_scenario.remove(&s.thread) {
                        let span = nanos.saturating_sub(start);
                        let tasks = task_inside.remove(&s.thread).unwrap_or(0);
                        report.scenario_us.push(span as f64 / 1e3);
                        report
                            .scenario_self_us
                            .push(span.saturating_sub(tasks) as f64 / 1e3);
                    }
                }
                "task_start" => {
                    let setup = s.task_kind.as_deref() == Some("setup");
                    open_task.insert(s.thread, (nanos, setup));
                }
                "task_end" => {
                    if let Some((start, setup)) = open_task.remove(&s.thread) {
                        let span = nanos.saturating_sub(start);
                        if let Some(inside) = task_inside.get_mut(&s.thread) {
                            *inside += span;
                        }
                        let us = span as f64 / 1e3;
                        if setup {
                            report.setup_task_us.push(us);
                        } else {
                            report.compute_task_us.push(us);
                        }
                    }
                }
                _ => {}
            }
        }
        report.last_scenario_end = last_scenario_end.map(secs);
        report
    }
}

impl EventTap for SpanTap {
    fn on_event(&self, event: &TraceEvent) {
        let at = Instant::now();
        let thread = THREAD.with(|t| *t);
        let task_kind = event.str_field("task_kind").map(str::to_string);
        if let Ok(mut stamps) = self.stamps.lock() {
            stamps.push(Stamp {
                at,
                thread,
                kind: event.kind.clone(),
                task_kind,
            });
        }
    }
}

/// Spans and counts of one traced collect, in seconds since the call.
#[derive(Debug, Default)]
pub struct SpanReport {
    pub events: usize,
    pub counts: BTreeMap<String, u64>,
    pub run_start: Option<f64>,
    pub last_scenario_end: Option<f64>,
    pub run_end: Option<f64>,
    pub scenario_us: Samples,
    pub scenario_self_us: Samples,
    pub setup_task_us: Samples,
    pub compute_task_us: Samples,
}

impl SpanReport {
    /// Number of events of `kind`.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Total task-span time in seconds.
    pub fn task_secs(&self) -> f64 {
        (self.setup_task_us.sum() + self.compute_task_us.sum()) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: &str, task_kind: Option<&str>) -> TraceEvent {
        TraceEvent::pending(kind, "s0", |m| {
            if let Some(k) = task_kind {
                m.insert("task_kind", hpcadvisor::formats::Value::str(k));
            }
        })
    }

    #[test]
    fn pairs_spans_per_thread_and_subtracts_tasks() {
        let epoch = Instant::now();
        let tap = SpanTap::new();
        for (kind, tk) in [
            ("run_start", None),
            ("scenario_start", None),
            ("task_start", Some("setup")),
            ("task_end", Some("setup")),
            ("task_start", Some("compute")),
            ("task_end", Some("compute")),
            ("scenario_end", None),
            ("run_end", None),
        ] {
            tap.on_event(&event(kind, tk));
        }
        let r = tap.analyze(epoch);
        assert_eq!(r.events, 8);
        assert_eq!(r.scenario_us.len(), 1);
        assert_eq!(r.setup_task_us.len(), 1);
        assert_eq!(r.compute_task_us.len(), 1);
        assert!(r.scenario_self_us.sum() <= r.scenario_us.sum());
        assert!(r.run_start <= r.last_scenario_end && r.last_scenario_end <= r.run_end);
    }
}
