//! Process-level measurements (CPU time, peak RSS) and the order
//! statistics the report is built from.

/// Kernel clock ticks per second of `/proc/self/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux ABI).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, finished threads
/// included, from `/proc/self/stat` (10 ms resolution).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime), counted from 1 over the whole
    // line; `rest` starts at field 3.
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / CLOCK_TICKS_PER_S
}

/// Reset the peak-RSS high-water mark, so that [`peak_rss_mb`] reads the
/// peak of what runs next.
pub fn reset_peak_rss() {
    // Best effort: where clear_refs is not writable the next reading
    // also covers earlier work, which only overstates the peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Linear-interpolation quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Index of the sample's lower median: the element a report takes
/// whole, so that numbers measured together stay together.
pub fn median_index(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    order[(xs.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median_index(&[5.0, 1.0, 9.0, 3.0]), 3);
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_s() >= 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
