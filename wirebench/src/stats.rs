//! Percentiles, medians and the `/proc` counters every run records.

/// Samples a percentile must have beyond it before it is reported: a
/// tail percentile resting on a handful of samples tracks scheduler
/// noise, not the system.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of an odd number of samples (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    assert!(values.len() % 2 == 1, "median of {} samples is ambiguous", values.len());
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 per
/// second for user space regardless of the kernel's own tick rate.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat`.
pub fn process_cpu_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name is parenthesized and may contain spaces: the
    // numeric fields start after the last ')'. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the name.
    let rest = &text[text.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Host steal seconds from `/proc/stat`: the total over the CPUs it lists
/// and that total per CPU — the wall time the host took, on average, from
/// each CPU the process could run on (0 when the kernel reports no steal).
pub fn host_steal_seconds() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let total = text
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / USER_HZ;
    let cpus = text
        .lines()
        .filter(|line| {
            line.strip_prefix("cpu")
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count()
        .max(1);
    (total, total / cpus as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = text
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 12.5), Some(13.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // Rank 90 of 99 leaves 9 samples beyond it.
        assert_eq!(percentile(&samples, 90.0), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(process_cpu_seconds() >= 0.0);
        let (total, per_cpu) = host_steal_seconds();
        assert!(total >= per_cpu && per_cpu >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
