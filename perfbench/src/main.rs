//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record > perfbench/expected.json
//! ```
//!
//! Prints a provenance line, then the result object as the last line of
//! standard output. Exits non-zero, without a result, when the workload
//! cannot be run at all.

use perfbench::{provenance, run, RunOpts, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sweep_cold|serve_mixed> \
--seed <n> --seconds <s> --trace <0|1> | --record";

/// Scratch space for work directories, inside the directory the
/// benchmark runs from.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_build").join(format!("perfbench-work-{}", std::process::id()))
}

fn parse(args: &[String]) -> Result<RunOpts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed = value("--seed")?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| format!("--seed must be a whole number, got '{seed}'"))?;
    let seconds = value("--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("--seconds must be a positive number, got '{seconds}'"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(RunOpts {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_root: work_root(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record") {
        let root = work_root();
        let recorded = perfbench::expected::record(&root);
        let _ = std::fs::remove_dir_all(&root);
        return match recorded {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for failure in outcome.checks.failures() {
                eprintln!("perfbench: check failed: {failure}");
            }
            println!("{}", provenance(&opts, &outcome));
            println!("{}", outcome.result_json(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
