//! The repository's benchmark: three workloads that stand for CDMPP's three
//! kinds of users, each checked for correct output and reported as
//! end-to-end metrics (untraced run) or a per-layer split (traced run).
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload serve-zoo --seed 1 --seconds 10 --trace 0
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       compare runs-before/ runs-after/
//! ```
//!
//! See `perfbench/README.md` for the workloads, metrics and reference
//! figures.

mod compare;
mod json;
mod measure;
mod model;
mod report;
mod search_tune;
mod serve_zoo;
mod trace;
mod xdev_train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use measure::PhaseTimes;
use report::{Outcome, Provenance, PER_LAYER};
use trace::{LayerSplit, Span, UNATTRIBUTED};

/// Closed-loop client threads of serve-zoo (the host has two cores).
pub const CALLERS: usize = 2;
/// Default for engine workers, the encode pool, the `parallel` pool and
/// training shards.
const DEFAULT_THREADS: usize = 2;
pub const WORKLOADS: [&str; 3] = ["serve-zoo", "search-tune", "xdev-train"];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    pub out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--threads <n>] [--out <dir>]\n       perfbench compare <runs-a> <runs-b>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The `i`-th seed of stream `stream` derived from the run's seed
/// (SplitMix64 over the three).
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-layer metrics every traced run reports from its timed phase.
pub fn set_common_layers(out: &mut Outcome, split: &LayerSplit, t: &PhaseTimes, overhead_ms: f64) {
    out.set("cpu_per_wall", t.cpu_s / t.wall_s);
    out.set("unattributed_ms", split.ms_per_op(UNATTRIBUTED));
    out.set("trace.overhead_ms", overhead_ms);
    out.set("host.steal_s", t.steal_s);
    out.steal_s = t.steal_s;
}

/// Writes a traced run's spans as JSON lines next to its run record.
pub fn write_spans(args: &RunArgs, spans: &[Span]) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    trace::write_jsonl(spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "[perfbench] {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

fn parse_run(args: &[String]) -> Option<RunArgs> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        threads: DEFAULT_THREADS,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("runs"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next()?;
        match a.as_str() {
            "--workload" => r.workload = v.clone(),
            "--seed" => seed = Some(v.parse().ok()?),
            "--seconds" => seconds = Some(v.parse().ok().filter(|&s| s >= 1)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--threads" => r.threads = v.parse().ok().filter(|&t| t >= 1)?,
            "--out" => r.out_dir = PathBuf::from(v),
            _ => return None,
        }
    }
    if !WORKLOADS.contains(&r.workload.as_str()) {
        return None;
    }
    r.seed = seed?;
    r.seconds = seconds?;
    r.trace = trace?;
    Some(r)
}

/// Trains the served model and writes its snapshot in a child process, so
/// preparation leaves no trace in the measured process's memory peak.
fn prepare_snapshot(path: &Path, threads: usize) -> Result<(), String> {
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("prepare-snapshot")
        .arg(path)
        .arg(threads.to_string())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting the preparation process: {e}"))?;
    if !status.success() {
        return Err(format!("preparing the served model failed ({status})"));
    }
    Ok(())
}

fn run(args: RunArgs) -> ExitCode {
    let prov = Provenance::capture(args.threads);
    // Pin the process-wide `parallel` pool (the GEMM layer's) to the
    // benchmark's thread count before anything creates it.
    std::env::set_var("PARALLEL_THREADS", args.threads.to_string());
    eprintln!(
        "[perfbench] {} seed {} for {} s, trace {}: {} host cores, kernel tier {}, \
         {} threads, commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prov.host_cores,
        prov.kernel_tier,
        args.threads,
        prov.commit
    );
    if !prov.comparable() {
        eprintln!(
            "[perfbench] NOT COMPARABLE: {} set in the environment; this run must not be \
             set against plain runs",
            prov.env_set
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("[perfbench] creating {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut out = Outcome::new();
    let snapshot = args
        .out_dir
        .join(format!("served-{}.cdmppsnap", std::process::id()));
    let result = match args.workload.as_str() {
        "xdev-train" => xdev_train::run(&args, &mut out),
        read_side => prepare_snapshot(&snapshot, args.threads).and_then(|()| {
            let r = if read_side == "serve-zoo" {
                serve_zoo::run(&args, &snapshot, &mut out)
            } else {
                search_tune::run(&args, &snapshot, &mut out)
            };
            let _ = std::fs::remove_file(&snapshot);
            r
        }),
    };
    if let Err(e) = result {
        eprintln!("[perfbench] {} did not run to its end: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    for t in &out.tables {
        println!("{t}");
    }
    let line = out.result_line(args.trace);
    let record = args.out_dir.join(format!(
        "{}-seed{}-trace{}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    ));
    if let Err(e) = std::fs::write(&record, out.record(&args, &prov, &line)) {
        eprintln!("[perfbench] writing {}: {e}", record.display());
    }
    println!("{line}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("prepare-snapshot") => {
            let (Some(path), Some(threads)) = (
                args.get(1),
                args.get(2).and_then(|t| t.parse::<usize>().ok()),
            ) else {
                return usage();
            };
            std::env::set_var("PARALLEL_THREADS", threads.to_string());
            let model = model::train_served_model(threads);
            match model::write_snapshot(&model, Path::new(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("[perfbench] writing the snapshot: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => match parse_run(&args) {
            Some(r) => run(r),
            None => usage(),
        },
    }
}

/// Shared by the unit tests: a lock for tests that time CPU or train, and
/// a small model trained in well under a second.
#[cfg(test)]
pub mod testutil {
    use std::sync::{Mutex, MutexGuard};

    use cdmpp::core::{pretrain, PredictorConfig, TrainConfig, TrainedModel};
    use cdmpp::dataset::{Dataset, GenConfig, SplitIndices};

    static SERIAL: Mutex<()> = Mutex::new(());

    /// Serializes tests whose CPU use would disturb the CPU-clock tests.
    pub fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn tiny_dataset() -> Dataset {
        Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 3,
                devices: vec![cdmpp::devsim::t4()],
                seed: 1,
                noise_sigma: 0.0,
            },
            vec![cdmpp::tir::zoo::mlp_mixer(1)],
        )
    }

    pub fn tiny_model(
        ds: &Dataset,
        epochs: usize,
    ) -> (TrainedModel, cdmpp::core::TrainStats, usize) {
        let split = SplitIndices::for_device(ds, "T4", &[], 1);
        let pcfg = PredictorConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            ..Default::default()
        };
        let tcfg = TrainConfig {
            epochs,
            threads: 1,
            ..Default::default()
        };
        let (m, stats) = pretrain(ds, &split.train, &split.valid, pcfg, tcfg);
        (m, stats, split.train.len())
    }

    /// A per-test scratch path inside the benchmark's run directory.
    pub fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("test-{name}-{}", std::process::id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        let a = derive_seed(1, 0, 0);
        assert_eq!(a, derive_seed(1, 0, 0));
        assert_ne!(a, derive_seed(1, 0, 1));
        assert_ne!(a, derive_seed(1, 1, 0));
        assert_ne!(a, derive_seed(2, 0, 0));
    }

    #[test]
    fn run_arguments_are_all_required() {
        let s = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ok = s(&[
            "--workload",
            "serve-zoo",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]);
        let r = parse_run(&ok).unwrap();
        assert_eq!((r.seed, r.seconds, r.trace, r.threads), (3, 5, true, 2));
        assert!(parse_run(&ok[..6]).is_none());
        let mut bad = ok.clone();
        bad[1] = "serve".into();
        assert!(parse_run(&bad).is_none());
    }
}
