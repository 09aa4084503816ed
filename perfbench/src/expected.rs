//! Recorded outputs every run is checked against.
//!
//! `expected.json` maps scale → workload family → variant → values: the
//! digest of each id-ordered dataset and of its rendered advice, the
//! simulated counts (pools, nodes, provisions, fault rolls, tasks, trace
//! events and the trace's own digest) and the sampler's batch counts. They are
//! produced by `perfbench --record` and change only when the program's
//! simulated output changes on purpose.

use crate::{Checks, Scale, VARIANTS};
use hpcadvisor::formats::{json, OrderedMap, Value};
use std::path::Path;

/// The recorded values, compiled into the benchmark.
pub struct Expected(Value);

impl Expected {
    pub fn load() -> Result<Expected, String> {
        json::parse(include_str!("../expected.json"))
            .map(Expected)
            .map_err(|e| format!("expected.json: {e}"))
    }

    fn entry(&self, scale: Scale, family: &str, variant: u64) -> Option<&OrderedMap> {
        self.0
            .get(scale.name())?
            .get(family)?
            .get(&variant.to_string())?
            .as_map()
    }

    /// Checks every observed value against the recorded one.
    pub fn compare(
        &self,
        checks: &mut Checks,
        scale: Scale,
        family: &str,
        variant: u64,
        observed: &Observed,
    ) {
        let Some(entry) = self.entry(scale, family, variant) else {
            checks.check(false, || {
                format!(
                    "no recorded values for {family} variant {variant} at {} scale",
                    scale.name()
                )
            });
            return;
        };
        for (key, got) in observed.0.iter() {
            let what = || format!("{family}.{key}");
            match entry.get(key) {
                None => checks.check(false, || format!("{}: not recorded", what())),
                Some(want) => checks.check(got == want, || {
                    format!(
                        "{}: got {}, recorded {}",
                        what(),
                        json::to_string(got),
                        json::to_string(want)
                    )
                }),
            }
        }
    }
}

/// Values observed by one run, in the shape `expected.json` records.
#[derive(Debug, Default, Clone)]
pub struct Observed(pub OrderedMap);

impl Observed {
    pub fn text(&mut self, key: &str, value: impl Into<String>) {
        self.0.insert(key, Value::str(value));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.0.insert(key, Value::Int(value as i64));
    }
}

type Recorder = fn(u64, Scale, &Path) -> Result<Observed, String>;

/// Records every family's values for every variant at both scales, using
/// `work_root` for scratch files, and returns the `expected.json` text.
pub fn record(work_root: &Path) -> Result<String, String> {
    let mut root = OrderedMap::new();
    for scale in [Scale::Full, Scale::Tiny] {
        let mut families = OrderedMap::new();
        for (family, one) in [
            ("sweep", crate::sweep::record as Recorder),
            ("sampled", crate::sampled::record),
            ("serve", crate::serve::record),
        ] {
            let mut variants = OrderedMap::new();
            for variant in 0..VARIANTS {
                eprintln!(
                    "recording {family} variant {variant} at {} scale",
                    scale.name()
                );
                let dir = work_root.join(format!("record-{family}-{variant}"));
                let _ = std::fs::remove_dir_all(&dir);
                let observed = one(variant, scale, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                variants.insert(variant.to_string(), Value::Map(observed?.0));
            }
            families.insert(family, Value::Map(variants));
        }
        root.insert(scale.name(), Value::Map(families));
    }
    Ok(json::to_string_pretty(&Value::Map(root)))
}
