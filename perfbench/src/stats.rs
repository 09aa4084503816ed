//! Sample statistics, digests and process measurements.

/// A set of timing (or size) samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
    /// closest ranks; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The quantile a `_p99` metric reports: the highest one, at most
    /// 0.99, that leaves at least [`TAIL_BEYOND`] samples above it, and
    /// never below the median. It is p99 from 1,001 samples on, lower
    /// with fewer, and the median with 21 or fewer.
    pub fn tail_q(&self) -> f64 {
        let n = self.0.len();
        if n <= TAIL_BEYOND + 1 {
            return 0.5;
        }
        let beyond = (n - 1 - TAIL_BEYOND) as f64 / (n - 1) as f64;
        beyond.clamp(0.5, 0.99)
    }

    /// The value at [`Samples::tail_q`].
    pub fn tail(&self) -> f64 {
        self.quantile(self.tail_q())
    }
}

/// Fewest samples a reported tail percentile leaves above it.
pub const TAIL_BEYOND: usize = 10;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex digest of a text, as recorded in `expected.json`.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size in bytes of the regular files under `path` (0 if missing).
pub fn tree_bytes(path: &std::path::Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| tree_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above_it() {
        let of = |n: usize| {
            let mut s = Samples::new();
            for v in 0..n {
                s.push(v as f64);
            }
            s
        };
        assert_eq!(of(15).tail_q(), 0.5);
        assert_eq!(of(51).tail(), 40.0);
        assert_eq!(of(5001).tail_q(), 0.99);
        for n in [22, 51, 500, 1001] {
            let s = of(n);
            let above = (0..n).filter(|&v| v as f64 > s.tail()).count();
            assert!(above >= TAIL_BEYOND, "{n} samples: {above} above the tail");
        }
    }
}
