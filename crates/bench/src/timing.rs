//! The timing files the `bench_baseline` and `bench_large` guards write
//! and check: `{"version", "nproc", "benches": {name: {median_secs,
//! samples}}}`.

use hpcadvisor_formats::{json, OrderedMap, Value};

/// One timed bench: its samples in seconds and their median.
pub struct BenchResult {
    /// Bench name, the key in the timing file.
    pub name: &'static str,
    /// Median of `samples`.
    pub median_secs: f64,
    /// Every sample, sorted ascending.
    pub samples: Vec<f64>,
}

impl BenchResult {
    /// A result over `samples` (at least one).
    pub fn new(name: &'static str, mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        BenchResult {
            name,
            median_secs: samples[samples.len() / 2],
            samples,
        }
    }
}

/// Cores available to this process, recorded beside the timings.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The timing file for `results`, recording this host's core count.
pub fn results_json(results: &[BenchResult]) -> String {
    let mut benches = OrderedMap::new();
    for r in results {
        let mut m = OrderedMap::new();
        m.insert("median_secs", Value::Float(r.median_secs));
        m.insert(
            "samples",
            Value::Seq(r.samples.iter().map(|s| Value::Float(*s)).collect()),
        );
        benches.insert(r.name, Value::Map(m));
    }
    let mut doc = OrderedMap::new();
    doc.insert("version", Value::Int(1));
    doc.insert("nproc", Value::Int(nproc() as i64));
    doc.insert("benches", Value::Map(benches));
    let mut text = json::to_string_pretty(&Value::Map(doc));
    text.push('\n');
    text
}

/// Reads `{bench name -> median_secs}` out of a timing file. Only
/// `benches` is read: files recorded before `nproc` was written still
/// check.
pub fn load_baseline(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("bad baseline {path}: {e}"))?;
    let benches = doc
        .get("benches")
        .and_then(|v| v.as_map())
        .ok_or_else(|| format!("baseline {path} has no 'benches' map"))?;
    let mut out = Vec::new();
    for (name, entry) in benches.iter() {
        let median = entry
            .get("median_secs")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline bench '{name}' has no median_secs"))?;
        out.push((name.to_string(), median));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_record_nproc_and_baselines_without_it_still_load() {
        let results = [BenchResult::new("b", vec![0.3, 0.1, 0.2])];
        assert_eq!(results[0].median_secs, 0.2);
        let text = results_json(&results);
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("nproc").and_then(Value::as_int),
            Some(nproc() as i64)
        );

        let path = std::env::temp_dir().join(format!(
            "hpcadvisor-bench-timing-{}.json",
            std::process::id()
        ));
        let path = path.to_str().unwrap();
        std::fs::write(path, &text).unwrap();
        assert_eq!(load_baseline(path).unwrap(), vec![("b".to_string(), 0.2)]);
        let without = text.replace(&format!("  \"nproc\": {},\n", nproc()), "");
        assert!(!without.contains("nproc"));
        std::fs::write(path, without).unwrap();
        assert_eq!(load_baseline(path).unwrap(), vec![("b".to_string(), 0.2)]);
        let _ = std::fs::remove_file(path);
    }
}
