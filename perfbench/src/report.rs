//! What a run reports: the metric catalogue, the run's provenance, the
//! result line a run ends with, and the run record `compare`
//! reads back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{num, quote};

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_cpu_us", "us"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("adapt_s", "s"),
    ("mape_pct", "%"),
    ("tuned_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload; a
/// layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("snapshot.load_ms", "ms"),
    ("runtime.start_ms", "ms"),
    ("tir.lower_ms", "ms"),
    ("tir.programs", "count"),
    ("search.loop_ms", "ms"),
    ("search.score_ms", "ms"),
    ("search.unique_ratio", "ratio"),
    ("features.encode_ms", "ms"),
    ("features.arena_growth", "count"),
    ("runtime.dispatch_ms", "ms"),
    ("runtime.busy_ms", "ms"),
    ("runtime.chunks", "count"),
    ("runtime.rows_per_chunk", "count"),
    ("runtime.promotions", "count"),
    ("devsim.truth_ms", "ms"),
    ("replayer.replay_ms", "ms"),
    ("dataset.generate_ms", "ms"),
    ("trainer.epoch_ms", "ms"),
    ("trainer.samples", "count"),
    ("trainer.latents_ms", "ms"),
    ("trainer.eval_ms", "ms"),
    ("sampler.select_ms", "ms"),
    ("finetune.step_ms", "ms"),
    ("cpu_per_wall", "ratio"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.steal_s", "s"),
];

/// Environment variables that change what the program computes or how it
/// runs. A run with any of them set is not comparable with a plain one.
pub const GUARDED_ENV: [&str; 5] = [
    "PARALLEL_THREADS",
    "CDMPP_SIMD",
    "CDMPP_QUANT",
    "CDMPP_FAULTS",
    "CDMPP_BATCH_WINDOW_MS",
];

/// Where and how a run ran.
pub struct Provenance {
    pub host_cores: usize,
    pub kernel_tier: &'static str,
    pub threads: usize,
    pub commit: String,
    /// Guarded variables found set, with their values.
    pub env_set: Vec<(String, String)>,
}

impl Provenance {
    /// Reads the environment; call before the benchmark pins anything.
    pub fn capture(threads: usize) -> Provenance {
        Provenance {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_tier: cdmpp::tensor::kernel_tier_name(),
            threads,
            commit: commit(),
            env_set: GUARDED_ENV
                .iter()
                .filter_map(|k| std::env::var(k).ok().map(|v| (k.to_string(), v)))
                .collect(),
        }
    }

    pub fn comparable(&self) -> bool {
        self.env_set.is_empty()
    }

    fn json(&self, steal_s: f64) -> String {
        let env: Vec<String> = self
            .env_set
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        format!(
            "{{\"host_cores\":{},\"kernel_tier\":{},\"engine_workers\":{t},\"encode_threads\":{t},\
             \"parallel_threads\":{t},\"train_threads\":{t},\"callers\":{},\"commit\":{},\
             \"host.steal_s\":{},\"env_set\":{{{}}},\"comparable\":{}}}",
            self.host_cores,
            quote(self.kernel_tier),
            crate::CALLERS,
            quote(&self.commit),
            num(steal_s),
            env.join(","),
            self.comparable(),
            t = self.threads,
        )
    }
}

/// The commit of the checkout the benchmark was built from, read from
/// `.git` when there is one.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// One run's outcome.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, in the order they ran.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable tables printed above the result line.
    pub tables: Vec<String>,
    /// Host steal accrued during the timed phase.
    pub steal_s: f64,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            tables: Vec::new(),
            steal_s: 0.0,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the outcome of one output check.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("[perfbench] CHECK FAILED: {e}");
            self.errors.push(e);
        }
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// catalogue's metrics for this kind of run.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            let _ = write!(
                metrics,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i == 0 { "" } else { "," },
                quote(name),
                num(value),
                quote(unit)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics
        )
    }

    /// The run record `compare` reads: the result line plus what the run
    /// was and where it ran.
    pub fn record(&self, args: &crate::RunArgs, prov: &Provenance, result: &str) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"result\":{},\
             \"provenance\":{},\"errors\":[{}]}}\n",
            quote(&args.workload),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            result,
            prov.json(self.steal_s),
            errors.join(",")
        )
    }
}
