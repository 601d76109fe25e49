//! Small shared pieces: order statistics, a JSON number writer, and the
//! `/proc` readers behind the memory and CPU-time metrics.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of `values` (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule for this benchmark is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(0.25), at(0.75))
}

/// Largest minus smallest of `values`.
pub fn range(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    hi - lo
}

/// The run-to-run spread every bound in this benchmark is compared
/// against: interquartile range ÷ median with four or more runs, range
/// ÷ median with two or three, unknown (0) with one.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values);
        q3 - q1
    } else {
        range(values)
    };
    width / m.abs()
}

/// Whether `value` is above `limit` — or not a number: a NaN measurement
/// must fail a check, never slip through one.
pub fn exceeds(value: f64, limit: f64) -> bool {
    value.is_nan() || value > limit
}

/// A finite number as JSON (Rust's shortest round-trip form); non-finite
/// values have no JSON spelling and become 0 — callers treat a
/// non-finite measurement as a failed operation before it gets here.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// `(user, system)` CPU seconds this process (all threads) has consumed,
/// from `/proc/self/stat`. The kernel reports ticks of `1/USER_HZ`;
/// `USER_HZ` is 100 on every Linux ABI this repo targets and cannot be
/// queried without libc, so it is fixed here.
pub fn cpu_times_s() -> (f64, f64) {
    const USER_HZ: f64 = 100.0;
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // the command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// Size in bytes of cpu0's cache at sysfs `index`, if the kernel says.
pub fn cache_bytes(index: usize) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let text = std::fs::read_to_string(path).ok()?;
    let text = text.trim();
    let (digits, unit) = text.split_at(
        text.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len()),
    );
    let n: usize = digits.parse().ok()?;
    Some(match unit {
        "K" => n << 10,
        "M" => n << 20,
        "G" => n << 30,
        _ => n,
    })
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// FNV-1a over the bit patterns of `values`: the fingerprint two final
/// fields must share to count as bit-identical.
pub fn fnv_bits(values: impl Iterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        assert!((spread(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
