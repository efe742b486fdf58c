//! `perfbench compare <runs-a> <runs-b>`: sets two groups of untraced run
//! records side by side, per workload and end-to-end metric, against the
//! bounds in `BENCHMARK.json`. Side A is the base of every ratio.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{parse, Json};
use crate::measure::quartiles;

/// How a metric moved from side A to side B.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, no clear gain.
    Ok,
    /// Better by more than A's own spread.
    Improved,
    /// Worse by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, so a move of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

/// The verdict for one metric. `bound` is the share of A's median by which
/// B may be worse; spreads are quartile distances as shares of medians.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    let spread = |q1: f64, m: f64, q3: f64| (q3 - q1) / m.abs().max(f64::MIN_POSITIVE);
    let (sa, sb) = (spread(a1, am, a3), spread(b1, bm, b3));
    // Signed change of B against A; positive is worse.
    let worse = if lower_is_better { bm - am } else { am - bm } / am.abs().max(f64::MIN_POSITIVE);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if sa.max(sb) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regression
    } else if -worse > sa {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

struct Side {
    /// workload → metric → values, untraced runs only.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    tiers: Vec<String>,
    not_comparable: usize,
    failed_runs: usize,
}

fn load(path: &Path) -> Result<Side, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut side = Side {
        values: BTreeMap::new(),
        tiers: Vec::new(),
        not_comparable: 0,
        failed_runs: 0,
    };
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let rec = parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", f.display()))?
            .to_string();
        let prov = rec.get("provenance");
        if prov
            .and_then(|p| p.get("comparable"))
            .and_then(Json::as_bool)
            != Some(true)
        {
            side.not_comparable += 1;
        }
        if let Some(t) = prov
            .and_then(|p| p.get("kernel_tier"))
            .and_then(Json::as_str)
        {
            if !side.tiers.iter().any(|x| x == t) {
                side.tiers.push(t.to_string());
            }
        }
        let result = rec.get("result");
        if result
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            != Some(true)
        {
            side.failed_runs += 1;
            continue;
        }
        let metrics = result
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", f.display()))?;
        let w = side.values.entry(workload).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                w.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(side)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare <runs-a> <runs-b>");
        return ExitCode::from(2);
    };
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    match compare(Path::new(a), Path::new(b), &bench) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("[perfbench] compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; returns whether it found no regression and both
/// sides were comparable.
fn compare(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let spec =
        parse(&std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?)?;
    let (sa, sb) = (load(a)?, load(b)?);
    let mut clean = true;
    if sa.not_comparable + sb.not_comparable > 0 || sa.tiers != sb.tiers {
        println!(
            "NOT COMPARABLE: A has {} and B {} runs with guarded environment variables set; \
             kernel tiers A {:?}, B {:?}",
            sa.not_comparable, sb.not_comparable, sa.tiers, sb.tiers
        );
        clean = false;
    }
    if sa.failed_runs + sb.failed_runs > 0 {
        println!(
            "runs whose output checks failed, left out: A {}, B {}",
            sa.failed_runs, sb.failed_runs
        );
        clean = false;
    }
    println!(
        "{:<12} {:<12} {:>30} {:>30} {:>16}  verdict (bound)",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A"
    );
    for (workload, metrics_a) in &sa.values {
        let Some(metrics_b) = sb.values.get(workload) else {
            println!("{workload}: no runs in B");
            clean = false;
            continue;
        };
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let [a1, am, a3] = quartiles(va);
            let [b1, bm, b3] = quartiles(vb);
            let v = verdict(va, vb, lower, bound);
            if v == Verdict::Regression {
                clean = false;
            }
            println!(
                "{:<12} {:<12} {:>30} {:>30} {:>16}  {:?} ({:.0}%)",
                workload,
                name,
                format!("{am:.4} [{a1:.4}, {a3:.4}] ({})", va.len()),
                format!("{bm:.4} [{b1:.4}, {b3:.4}] ({})", vb.len()),
                format!("{:.4} of {am:.4}", bm / am),
                v,
                bound * 100.0
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.2, 100.1, 99.9];
        assert_eq!(verdict(&a, &same, true, 0.05), Verdict::Ok);
        let slower: Vec<f64> = a.iter().map(|v| v * 1.10).collect();
        assert_eq!(verdict(&a, &slower, true, 0.05), Verdict::Regression);
        // The same move is a gain where higher is better.
        assert_eq!(verdict(&a, &slower, false, 0.05), Verdict::Improved);
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&a, &noisy, true, 0.05), Verdict::Unresolved);
        // A noisy side still shows a gain when every run of B beats A.
        let far = [40.0, 60.0, 50.0, 45.0, 55.0];
        assert_eq!(verdict(&a, &far, true, 0.05), Verdict::Improved);
    }
}
