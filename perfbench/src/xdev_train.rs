//! xdev-train: cross-device adaptation as in `examples/cross_device.rs`
//! (§5.2–5.3, Algorithm 1): pre-train on two GPUs, select representative
//! tasks with Algorithm 1, fine-tune on the unseen CPU with CMD, and
//! evaluate there. The write side of the system: tape autodiff,
//! data-parallel gradient shards, GEMM at training shapes and KMeans; no
//! serving runtime and no inference plans.
//!
//! The training dataset is the example's (seed [`DATASET_SEED`]) and is
//! generated during set-up; pass `p` trains, selects and fine-tunes with
//! seed `p`, so every run does the same training work. The run's seed
//! draws the evaluation set: fresh target-device programs, labelled by the
//! simulator, that no pass trains on.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use cdmpp::core::{
    encode_records, evaluate, finetune, pretrain, select_tasks, FineTuneConfig, PredictorConfig,
    TrainConfig, TrainStats, TrainedModel,
};
use cdmpp::dataset::{Dataset, GenConfig, SplitIndices};
use cdmpp::devsim::DeviceSpec;

use crate::measure::{
    geomean, host_steal_s, median, percentile, quiet_median, tail_percentile, Phase, PhaseTimes,
};
use crate::report::Outcome;
use crate::trace::{check_accounting, maybe, LayerSplit, OpTrace, Tracer};
use crate::{derive_seed, RunArgs};

pub const SOURCES: [&str; 2] = ["T4", "V100"];
pub const TARGET: &str = "EPYC-7452";
pub const DATASET_SEED: u64 = 9;
pub const SCHEDULES_PER_TASK: usize = 12;
pub const EPOCHS: usize = 12;
/// Algorithm 1's κ.
pub const KAPPA: usize = 15;
/// Source records whose latents feed Algorithm 1.
pub const LATENT_RECORDS: usize = 600;
pub const FINETUNE_STEPS: usize = 150;
/// Schedules per task in the seed-drawn target evaluation set.
pub const EVAL_SCHEDULES: usize = 24;
/// Pipeline passes per second of `--seconds`, calibrated so one run
/// measures about that long on a 2-vCPU host. The training dataset is
/// generated afresh before each pass, so `setup_s` has one sample per
/// pass, spread over the whole run.
const PASSES_PER_SECOND: f64 = 0.4;
/// Stages of one pass, each one op: pre-training, zero-shot evaluation,
/// Algorithm 1 selection, CMD fine-tuning and adapted evaluation.
const STAGES: usize = 5;

fn device(name: &str) -> DeviceSpec {
    cdmpp::devsim::device_by_name(name).expect("device exists")
}

pub fn generate() -> Dataset {
    let mut devices: Vec<DeviceSpec> = SOURCES.iter().map(|d| device(d)).collect();
    devices.push(device(TARGET));
    Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: SCHEDULES_PER_TASK,
        devices,
        seed: DATASET_SEED,
        noise_sigma: 0.03,
    })
}

/// Target-device programs no pass trains on, with their labels.
struct EvalSet {
    ds: Dataset,
    idx: Vec<usize>,
}

/// The evaluation set of run seed `seed`.
fn evaluation_set(seed: u64) -> EvalSet {
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: EVAL_SCHEDULES,
        devices: vec![device(TARGET)],
        seed: derive_seed(seed, 5, 0),
        noise_sigma: 0.03,
    });
    let idx = (0..ds.records.len()).collect();
    EvalSet { ds, idx }
}

struct Splits {
    src: SplitIndices,
    tgt: SplitIndices,
    /// The records whose latents Algorithm 1 clusters.
    latent_idx: Vec<usize>,
}

fn splits(ds: &Dataset) -> Splits {
    let src_idx: Vec<usize> = SOURCES.iter().flat_map(|d| ds.device_records(d)).collect();
    Splits {
        src: SplitIndices::from_indices(ds, src_idx, &[], DATASET_SEED),
        tgt: SplitIndices::for_device(ds, TARGET, &[], DATASET_SEED),
        latent_idx: ds
            .device_records(SOURCES[1])
            .into_iter()
            .take(LATENT_RECORDS)
            .collect(),
    }
}

fn train_config(epochs: usize, seed: u64, threads: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        seed,
        threads,
        ..Default::default()
    }
}

/// One pass of the pipeline.
struct Pass {
    model: TrainedModel,
    stats: TrainStats,
    /// Algorithm 1's input and output.
    task_feats: HashMap<u32, Vec<Vec<f64>>>,
    chosen: Vec<u32>,
    zero_shot_mape: f64,
    adapted_mape: f64,
    /// Wall time, process CPU time and host steal of each stage.
    stage: [PhaseTimes; STAGES],
}

/// Runs one stage as its own op; returns its value and what it cost.
fn stage<R>(
    tracer: Option<&Tracer>,
    op: u64,
    f: impl FnOnce(&mut Option<OpTrace<'_>>) -> R,
) -> (R, PhaseTimes) {
    let mut t = tracer.map(|tr| tr.op(op, "xdev.stage"));
    let phase = Phase::start();
    let r = f(&mut t);
    let cost = phase.stop();
    if let Some(t) = t {
        t.finish();
    }
    (r, cost)
}

fn run_pass(
    ds: &Dataset,
    sp: &Splits,
    eval: &EvalSet,
    seed: u64,
    threads: usize,
    tracer: Option<&Tracer>,
    pass: u64,
) -> Pass {
    let op = |stage: u64| pass * 10 + stage;
    let ((mut model, stats), s0) = stage(tracer, op(0), |t| {
        maybe(t, "trainer.pretrain", || {
            pretrain(
                ds,
                &sp.src.train,
                &sp.src.valid,
                PredictorConfig::default(),
                train_config(EPOCHS, seed, threads),
            )
        })
    });
    let (zero_shot_mape, s1) = stage(tracer, op(1), |t| {
        maybe(t, "trainer.eval", || {
            evaluate(&model, &eval.ds, &eval.idx).mape
        })
    });
    let ((task_feats, chosen), s2) = stage(tracer, op(2), |t| {
        let mut feats: HashMap<u32, Vec<Vec<f64>>> = HashMap::new();
        maybe(t, "trainer.latents", || {
            for &i in &sp.latent_idx {
                let z = model.latents(ds, &[i]).pop().expect("one latent");
                feats.entry(ds.records[i].task_id).or_default().push(z);
            }
        });
        let chosen = maybe(t, "sampler.select", || select_tasks(&feats, KAPPA, seed));
        (feats, chosen)
    });
    let labeled: Vec<usize> = sp
        .tgt
        .train
        .iter()
        .copied()
        .filter(|&i| chosen.contains(&ds.records[i].task_id))
        .collect();
    let ((), s3) = stage(tracer, op(3), |t| {
        maybe(t, "finetune.run", || {
            finetune(
                &mut model,
                ds,
                &sp.src.train,
                &labeled,
                &FineTuneConfig {
                    steps: FINETUNE_STEPS,
                    use_target_labels: true,
                    seed,
                    ..Default::default()
                },
            );
        })
    });
    let (adapted_mape, s4) = stage(tracer, op(4), |t| {
        maybe(t, "trainer.eval", || {
            evaluate(&model, &eval.ds, &eval.idx).mape
        })
    });
    Pass {
        model,
        stats,
        task_feats,
        chosen,
        zero_shot_mape,
        adapted_mape,
        stage: [s0, s1, s2, s3, s4],
    }
}

/// `pretrain` must visit every training record once per epoch.
fn check_samples(stats: &TrainStats, epochs: usize, train_len: usize) -> Result<(), String> {
    let want = epochs * train_len;
    if stats.samples != want {
        return Err(format!(
            "pretrain reports {} samples, {epochs} epochs of {train_len} records make {want}",
            stats.samples
        ));
    }
    Ok(())
}

/// The checks on one pass that need no second training run.
fn check_pass(sp: &Splits, eval: &EvalSet, p: &Pass, preds: &[f64]) -> Result<(), String> {
    check_samples(&p.stats, EPOCHS, sp.src.train.len())?;
    if !p.stats.final_loss.is_finite() {
        return Err(format!("final training loss is {}", p.stats.final_loss));
    }
    if let Some(i) = preds.iter().position(|v| !(v.is_finite() && *v > 0.0)) {
        return Err(format!("target prediction {i} is {}", preds[i]));
    }
    let mape = preds
        .iter()
        .zip(&eval.idx)
        .map(|(p, &i)| {
            let t = eval.ds.records[i].latency_s;
            (p - t).abs() / t
        })
        .sum::<f64>()
        / preds.len() as f64;
    if (mape - p.adapted_mape).abs() > 1e-12 * mape.max(p.adapted_mape) {
        return Err(format!(
            "evaluate reports MAPE {}, the predictions give {mape}",
            p.adapted_mape
        ));
    }
    let distinct: BTreeSet<u32> = p.chosen.iter().copied().collect();
    if p.chosen.len() > KAPPA
        || distinct.len() != p.chosen.len()
        || !distinct.iter().all(|t| p.task_feats.contains_key(t))
    {
        return Err(format!(
            "Algorithm 1 returned {:?}: not at most {KAPPA} distinct source tasks",
            p.chosen
        ));
    }
    Ok(())
}

/// A short pre-training with 1 and with 2 threads must predict the same
/// bits.
fn check_thread_invariance(ds: &Dataset, sp: &Splits) -> Result<(), String> {
    let train: Vec<usize> = sp.src.train.iter().copied().take(400).collect();
    let probe: Vec<usize> = sp.tgt.test.iter().copied().take(100).collect();
    let predict = |threads| {
        let (m, _) = pretrain(
            ds,
            &train,
            &[],
            PredictorConfig::default(),
            train_config(2, 7, threads),
        );
        m.predict_records(ds, &probe)
    };
    crate::model::check_bit_identical(
        "2-thread against 1-thread pre-training",
        &predict(2),
        &predict(1),
    )
}

pub fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let passes = ((args.seconds as f64 * PASSES_PER_SECOND).round() as u64).max(1);
    let tracer = args.trace.then(Tracer::new);
    let eval = evaluation_set(args.seed);

    // Timed phase: before each pass the dataset is generated afresh (a
    // set-up sample), then the pass runs on it.
    let mut setup_s = Vec::new();
    let mut setup_steal = Vec::new();
    let mut ds = None;
    let mut runs = Vec::new();
    let phase = Phase::start();
    for p in 0..passes {
        drop(ds.take());
        let mut t = tracer.as_ref().map(|tr| tr.op(u64::MAX - p, "setup"));
        let (t0, steal0) = (Instant::now(), host_steal_s());
        let fresh = ds.insert(maybe(&mut t, "dataset.generate", generate));
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_steal.push(host_steal_s() - steal0);
        if let Some(t) = t {
            t.finish();
        }
        let sp = splits(fresh);
        runs.push(run_pass(fresh, &sp, &eval, p, args.threads, None, p));
    }
    let times = phase.stop();
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let ds = ds.expect("at least one pass");
    let sp = splits(&ds);
    out.steal_s = times.steal_s;
    // Pre-training throughput is wall-clock, over the passes that saw the
    // least host steal. Op and adaptation times are process CPU times
    // over every stage and pass: past pre-training the stages keep about
    // one core busy, so CPU time is the wall time they take on a host
    // that steals none of it.
    let pretrain_steal: Vec<f64> = runs.iter().map(|r| r.stage[0].steal_s).collect();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        quiet_median(&pretrain_steal, &runs.iter().map(f).collect::<Vec<_>>())
    };
    let stage_cpu_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.stage.iter().map(|s| s.cpu_s * 1e3))
        .collect();
    out.attempted = stage_cpu_ms.len() as u64;
    out.set("setup_s", quiet_median(&setup_steal, &setup_s));
    out.set(
        "items_per_s",
        per_pass(&|r| r.stats.samples as f64 / r.stage[0].wall_s),
    );
    out.set(
        "item_cpu_us",
        per_pass(&|r| r.stage[0].cpu_s / r.stats.samples as f64 * 1e6),
    );
    out.set("op_p50_ms", median(&stage_cpu_ms));
    out.set(
        "op_p99_ms",
        percentile(&stage_cpu_ms, tail_percentile(stage_cpu_ms.len())),
    );
    out.set(
        "adapt_s",
        median(
            &runs
                .iter()
                .map(|r| r.stage[2..].iter().map(|s| s.cpu_s).sum())
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "mape_pct",
        100.0 * runs.iter().map(|r| r.adapted_mape).sum::<f64>() / runs.len() as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb);

    let mut preds_us = Vec::new();
    for r in &runs {
        let preds = r.model.predict_records(&eval.ds, &eval.idx);
        out.check(check_pass(&sp, &eval, r, &preds));
        preds_us.extend(preds.iter().map(|p| p * 1e6));
    }
    out.set("tuned_us", geomean(&preds_us));
    out.check(check_thread_invariance(&ds, &sp));
    out.tables.push(format!(
        "xdev-train: target {TARGET} MAPE zero-shot {:.1}%, adapted {:.1}% (mean of {} passes \
         over {} evaluation programs; {} source training records)\n",
        100.0 * runs.iter().map(|r| r.zero_shot_mape).sum::<f64>() / runs.len() as f64,
        100.0 * runs.iter().map(|r| r.adapted_mape).sum::<f64>() / runs.len() as f64,
        runs.len(),
        eval.idx.len(),
        sp.src.train.len()
    ));

    let Some(tracer) = tracer else {
        return Ok(());
    };
    // The pre-training set's encoding, timed apart: `pretrain` repeats it
    // inside, where no span can reach.
    let t = tracer.op(u64::MAX - passes, "xdev.encode");
    let mut t = Some(t);
    maybe(&mut t, "features.encode", || {
        let theta = PredictorConfig::default().theta;
        let use_pe = TrainConfig::default().use_pe;
        std::hint::black_box(encode_records(&ds, &sp.src.train, theta, use_pe));
    });
    t.expect("traced").finish();

    let phase = Phase::start();
    let traced: Vec<Pass> = (0..passes)
        .map(|p| run_pass(&ds, &sp, &eval, p, args.threads, Some(&tracer), p))
        .collect();
    let ttimes = phase.stop();
    out.attempted += (traced.len() * STAGES) as u64;
    for (a, b) in runs.iter().zip(&traced) {
        if a.adapted_mape.to_bits() != b.adapted_mape.to_bits() {
            out.check(Err("the traced pass adapted to a different model".into()));
        }
    }
    let traced_cpu_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.stage.iter().map(|s| s.cpu_s * 1e3))
        .collect();
    let spans = tracer.spans();
    out.check(check_accounting(&spans));
    let split = LayerSplit::of(&spans, "xdev.stage");
    let setup = LayerSplit::of(&spans, "setup");
    let encode = LayerSplit::of(&spans, "xdev.encode");
    let n = traced.len() as f64;
    crate::set_common_layers(
        out,
        &split,
        &ttimes,
        median(&traced_cpu_ms) - median(&stage_cpu_ms),
    );
    let per_pass = |layer| split.ms_per_op(layer) * split.ops as f64 / n;
    out.set("dataset.generate_ms", setup.ms_per_op("dataset.generate"));
    out.set("features.encode_ms", encode.ms_per_op("features.encode"));
    out.set(
        "trainer.epoch_ms",
        per_pass("trainer.pretrain") / EPOCHS as f64,
    );
    out.set(
        "trainer.samples",
        traced.iter().map(|r| r.stats.samples as f64).sum::<f64>() / n,
    );
    out.set("trainer.latents_ms", per_pass("trainer.latents"));
    out.set("sampler.select_ms", per_pass("sampler.select"));
    out.set(
        "finetune.step_ms",
        per_pass("finetune.run") / FINETUNE_STEPS as f64,
    );
    out.set("trainer.eval_ms", per_pass("trainer.eval") / 2.0);
    out.tables
        .push(setup.table("xdev-train dataset generation"));
    out.tables.push(split.table("xdev-train stages"));
    crate::write_spans(args, &spans)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sample_check_catches_a_miscounted_total() {
        let _serial = crate::testutil::serial();
        let ds = crate::testutil::tiny_dataset();
        let (_, stats, train_len) = crate::testutil::tiny_model(&ds, 2);
        check_samples(&stats, 2, train_len).unwrap();
        let mut wrong = stats;
        wrong.samples += 1;
        assert!(check_samples(&wrong, 2, train_len).is_err());
        assert!(check_samples(&stats, 3, train_len).is_err());
    }
}
