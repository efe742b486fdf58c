//! Clocks, process counters and the summary statistics every workload
//! reports with.

use std::time::Instant;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time consumed by every thread of
/// this process. Unlike wall time it does not advance while the hypervisor
/// steals the core, which makes it the steadier cost measure on a shared
/// host.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Process CPU time in nanoseconds (all threads, user + system).
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Host-wide steal time in seconds since boot (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`, in clock ticks of 1/100 s), or 0
/// where unavailable.
pub fn host_steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Wall time, process CPU time and host steal over one measured phase.
pub struct Phase {
    wall: Instant,
    cpu_ns: u64,
    steal_s: f64,
}

/// What a [`Phase`] measured.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimes {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
            steal_s: host_steal_s(),
        }
    }

    pub fn stop(&self) -> PhaseTimes {
        PhaseTimes {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: (process_cpu_ns() - self.cpu_ns) as f64 * 1e-9,
            steal_s: host_steal_s() - self.steal_s,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the numbers match an outside check of the same runs. A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no values");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The values of the quietest quarter of the blocks they were measured in:
/// every block whose host steal (`steal[i]` for `values[i]`) is at most
/// that of the `ceil(n / 4)`-th quietest block, so at least a quarter of
/// them, and all of them when none saw steal. Steal stalls whatever is
/// running, so a throughput or a tail measured across it shows the host
/// more than the program; on a host that steals from every block, the
/// quietest quarter is closer to the program than the quieter half. Ties
/// are all kept rather than broken by position, which would favour the
/// first blocks of a run.
pub fn quiet(steal: &[f64], values: &[f64]) -> Vec<f64> {
    assert_eq!(steal.len(), values.len(), "one steal reading per block");
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let threshold = sorted[values.len().div_ceil(4) - 1];
    values
        .iter()
        .zip(steal)
        .filter(|(_, &st)| st <= threshold)
        .map(|(&v, _)| v)
        .collect()
}

/// Median of the [`quiet`] quarter of `values`.
pub fn quiet_median(steal: &[f64], values: &[f64]) -> f64 {
    median(&quiet(steal, values))
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The tail percentile a sample of `n` supports: the highest percentile of
/// the ladder with at least ten samples beyond it, or the median (50) when
/// there are fewer than forty samples — with fewer, a "tail" would be one
/// or two values.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 40 {
        return 50.0;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`; the median for p = 50.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if p == 50.0 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_rule_reports_the_median_alone_under_forty_samples() {
        for n in [1, 2, 10, 39] {
            assert_eq!(tail_percentile(n), 50.0, "n = {n}");
        }
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond_the_tail() {
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(50_000), 99.0);
        for n in 40..3000 {
            let p = tail_percentile(n);
            assert!(
                n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9,
                "n = {n}, p = {p}"
            );
        }
    }

    #[test]
    fn percentile_and_median_on_known_data() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_median_keeps_the_blocks_with_least_steal() {
        let steal = [0.4, 0.5, 0.1, 0.3, 0.2, 0.6, 0.7, 0.8];
        let values = [40.0, 50.0, 10.0, 30.0, 20.0, 60.0, 70.0, 80.0];
        assert_eq!(quiet(&steal, &values), vec![10.0, 20.0]);
        assert_eq!(quiet_median(&steal, &values), 15.0);
        // Ties at the threshold are all kept, wherever they sit.
        assert_eq!(
            quiet(&[0.2, 0.3, 0.2, 0.3], &[5.0, 1.0, 3.0, 7.0]),
            vec![5.0, 3.0]
        );
        // No steal at all: every block counts.
        assert_eq!(quiet_median(&[0.0; 4], &[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let _serial = crate::testutil::serial();
        let wall = Instant::now();
        let c0 = process_cpu_ns();
        // Spin until the clock shows 30 ms of CPU: a process clock can run
        // ahead of one thread's wall time only with other busy threads.
        let mut x = 0u64;
        while process_cpu_ns() - c0 < 30_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(wall.elapsed() >= Duration::from_millis(25));
        let c1 = process_cpu_ns();
        std::thread::sleep(Duration::from_millis(100));
        let slept = process_cpu_ns() - c1;
        assert!(slept < 20_000_000, "sleeping burned {slept} ns of CPU");
    }

    #[test]
    fn cpu_clock_agrees_with_proc_self_stat() {
        let _serial = crate::testutil::serial();
        fn stat_ticks() -> u64 {
            let s = std::fs::read_to_string("/proc/self/stat").unwrap();
            let rest = &s[s.rfind(')').unwrap() + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            // utime and stime are fields 14 and 15; `rest` starts at field 3.
            f[11].parse::<u64>().unwrap() + f[12].parse::<u64>().unwrap()
        }
        let (c0, t0) = (process_cpu_ns(), stat_ticks());
        let mut x = 0u64;
        while process_cpu_ns() - c0 < 200_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (c1, t1) = (process_cpu_ns(), stat_ticks());
        let clock_ms = (c1 - c0) as f64 / 1e6;
        let stat_ms = (t1 - t0) as f64 * 10.0;
        // /proc/self/stat counts in 10 ms ticks.
        assert!(
            (clock_ms - stat_ms).abs() < 0.1 * clock_ms + 30.0,
            "clock {clock_ms} ms vs /proc {stat_ms} ms"
        );
    }
}
