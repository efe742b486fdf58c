//! serve-zoo: whole-network latency queries through
//! `runtime::end_to_end_opts`, the `cdmpp serve` path, from closed-loop
//! callers that each wait for a reply before sending the next query.
//!
//! The mix is every zoo network at each of [`BATCHES`] on each served
//! device. Every call gets a fresh seed, so it samples, lowers and encodes
//! new schedules; a call carries one program per distinct task of its
//! network, a few ragged chunks for the engine.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cdmpp::core::{
    build_dfg, encode_programs, engine_count, measured_end_to_end, replay, sample_network_programs,
    E2eResult, InferenceModel,
};
use cdmpp::devsim::{DeviceSpec, Simulator};
use cdmpp::runtime::{end_to_end_opts, EngineConfig, EngineError, InferenceEngine, SubmitOptions};
use cdmpp::tir::{build_tasks, layer_task_ids, Network, TensorProgram};

use crate::measure::{
    geomean, host_steal_s, median, percentile, quiet_median, tail_percentile, Phase,
};
use crate::model::{check_bit_identical, served_devices, TapeModel};
use crate::report::Outcome;
use crate::trace::{check_accounting, maybe, LayerSplit, OpTrace, Tracer};
use crate::{derive_seed, RunArgs, CALLERS};

/// Batch sizes of the mix.
pub const BATCHES: [u64; 3] = [1, 4, 16];
/// Passes over the mix per timed block: just over 1000 calls, so each
/// block has a p99 with ten calls beyond it.
const BLOCK_PASSES: usize = 19;
/// Blocks per second of `--seconds`, calibrated so one run measures about
/// that long on a 2-vCPU host. A cold start precedes each block, so
/// `setup_s` has one sample per block, spread over the whole run like the
/// blocks themselves.
const BLOCKS_PER_SECOND: f64 = 1.25;
/// Calls whose ground truth and Algorithm 2 bounds are re-derived.
const CHECKED_CALLS: usize = 96;
/// Calls whose engine predictions are compared with the tape's.
const TAPE_CALLS: usize = 6;

/// One (network, device) query of the mix.
pub struct Query {
    pub net: Network,
    pub dev: DeviceSpec,
}

pub fn mix() -> Vec<Query> {
    let devices = served_devices();
    let mut out = Vec::new();
    for batch in BATCHES {
        for net in cdmpp::tir::all_networks(batch) {
            for dev in &devices {
                out.push(Query {
                    net: net.clone(),
                    dev: dev.clone(),
                });
            }
        }
    }
    out
}

fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        workers: threads,
        ..Default::default()
    }
}

/// One call's outcome.
struct Call {
    latency_s: f64,
    result: Result<E2eResult, String>,
}

/// Loads the snapshot, starts the engine and makes one warm pass over the
/// mix. Returns the engine, the whole cold start's wall time and the warm
/// pass's.
fn cold_start(
    snapshot: &Path,
    threads: usize,
    mix: &[Query],
    seed: u64,
    mut t: Option<OpTrace<'_>>,
) -> Result<(InferenceEngine, f64, f64), String> {
    let t0 = Instant::now();
    let model = maybe(&mut t, "snapshot.load", || {
        InferenceModel::from_snapshot_file(snapshot)
    })
    .map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
    let engine = maybe(&mut t, "runtime.start", || {
        InferenceEngine::new(model, engine_config(threads))
    });
    let t1 = Instant::now();
    maybe(&mut t, "serve.warm", || {
        for (i, q) in mix.iter().enumerate() {
            let s = derive_seed(seed, 1, i as u64);
            end_to_end_opts(&engine, &q.net, &q.dev, s, &SubmitOptions::default())
                .map_err(|e| format!("warm call {i}: {e}"))?;
        }
        Ok::<(), String>(())
    })?;
    if let Some(t) = t {
        t.finish();
    }
    Ok((
        engine,
        t0.elapsed().as_secs_f64(),
        t1.elapsed().as_secs_f64(),
    ))
}

/// `runtime::end_to_end_opts` rebuilt from its public parts, one span per
/// layer. Returns the result and the number of programs the call scored.
fn traced_call(
    t: &mut OpTrace<'_>,
    engine: &InferenceEngine,
    q: &Query,
    seed: u64,
) -> Result<(E2eResult, usize), EngineError> {
    let model = engine.model();
    let (task_ids, programs) = t.span("tir.lower", |_| sample_network_programs(&q.net, seed));
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let enc = t.span("features.encode", |_| {
        encode_programs(&refs, &q.dev, model.predictor.config().theta, model.use_pe)
    });
    let per = t.span("runtime.dispatch", |_| {
        engine.predict_samples_opts(&enc, &SubmitOptions::default())
    })?;
    let predicted = per.into_iter().collect::<Result<Vec<f64>, _>>()?;
    let measured: Vec<f64> = t.span("devsim.truth", |_| {
        let sim = Simulator::new(q.dev.clone());
        programs.iter().map(|p| sim.latency_seconds(p)).collect()
    });
    let r = t.span("replayer.replay", |_| {
        let tasks = build_tasks(std::slice::from_ref(&q.net));
        let layer_ids = layer_task_ids(&q.net, &tasks);
        let layer_durations = |durs: &[f64]| -> Vec<f64> {
            let by_task: HashMap<u32, f64> =
                task_ids.iter().copied().zip(durs.iter().copied()).collect();
            layer_ids.iter().map(|id| by_task[id]).collect()
        };
        let engines = engine_count(&q.dev);
        E2eResult {
            predicted_s: replay(
                &build_dfg(&q.net, &layer_durations(&predicted), &q.dev),
                engines,
            ),
            measured_s: replay(
                &build_dfg(&q.net, &layer_durations(&measured), &q.dev),
                engines,
            ),
        }
    });
    Ok((r, programs.len()))
}

/// Sends calls `range` (indices into the mix, cyclically, and into
/// `seeds`) from [`CALLERS`] closed-loop callers; with a tracer, through
/// [`traced_call`]. Returns the calls in call order and the programs
/// scored.
fn serve(
    engine: &InferenceEngine,
    mix: &[Query],
    seeds: &[u64],
    range: std::ops::Range<usize>,
    tracer: Option<&Tracer>,
) -> (Vec<Call>, usize) {
    let next = AtomicUsize::new(range.start);
    let mut calls: Vec<Option<Call>> = range.clone().map(|_| None).collect();
    let mut programs = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    let mut programs = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            break;
                        }
                        let q = &mix[i % mix.len()];
                        let t0 = Instant::now();
                        let result = match tracer {
                            None => end_to_end_opts(
                                engine,
                                &q.net,
                                &q.dev,
                                seeds[i],
                                &SubmitOptions::default(),
                            ),
                            Some(tr) => {
                                let mut t = tr.op(i as u64, "serve.call");
                                let r = traced_call(&mut t, engine, q, seeds[i]);
                                t.finish();
                                r.map(|(r, n)| {
                                    programs += n;
                                    r
                                })
                            }
                        };
                        let latency_s = t0.elapsed().as_secs_f64();
                        mine.push((
                            i,
                            Call {
                                latency_s,
                                result: result.map_err(|e| e.to_string()),
                            },
                        ));
                    }
                    (mine, programs)
                })
            })
            .collect();
        for h in handles {
            let (mine, n) = h.join().expect("caller thread panicked");
            programs += n;
            for (i, c) in mine {
                calls[i - range.start] = Some(c);
            }
        }
    });
    let calls = calls
        .into_iter()
        .map(|c| c.expect("every call index is served once"))
        .collect();
    (calls, programs)
}

/// Re-derives a call's ground truth and checks its prediction against the
/// bounds Algorithm 2 puts on a replay of the per-layer predictions.
fn check_call(engine: &InferenceEngine, q: &Query, seed: u64, r: &E2eResult) -> Result<(), String> {
    let what = format!(
        "{} (batch {}) on {} seed {seed}",
        q.net.name, q.net.batch, q.dev.name
    );
    let truth = measured_end_to_end(&q.net, &q.dev, seed);
    if truth.to_bits() != r.measured_s.to_bits() {
        return Err(format!(
            "{what}: measured_s {:e} differs from measured_end_to_end {:e}",
            r.measured_s, truth
        ));
    }
    let (task_ids, programs) = sample_network_programs(&q.net, seed);
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let model = engine.model();
    let enc = encode_programs(&refs, &q.dev, model.predictor.config().theta, model.use_pe);
    let predicted = engine
        .predict_samples(&enc)
        .map_err(|e| format!("{what}: {e}"))?;
    let by_task: HashMap<u32, f64> = task_ids.iter().copied().zip(predicted).collect();
    let tasks = build_tasks(std::slice::from_ref(&q.net));
    let layers: Vec<f64> = layer_task_ids(&q.net, &tasks)
        .iter()
        .map(|id| by_task[id])
        .collect();
    let work: f64 = layers.iter().sum();
    let gaps: f64 = build_dfg(&q.net, &layers, &q.dev)
        .iter()
        .map(|n| n.gap_s)
        .sum();
    let lower = work / engine_count(&q.dev) as f64;
    let upper = work + gaps;
    let slack = 1e-9 * upper;
    if !(r.predicted_s >= lower - slack && r.predicted_s <= upper + slack) {
        return Err(format!(
            "{what}: predicted_s {:e} outside the Algorithm 2 bounds [{lower:e}, {upper:e}]",
            r.predicted_s
        ));
    }
    Ok(())
}

/// The engine's and the tape's predictions for one call's programs.
fn engine_and_tape(
    engine: &InferenceEngine,
    tape: &TapeModel,
    q: &Query,
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (_, programs) = sample_network_programs(&q.net, seed);
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let enc = encode_programs(&refs, &q.dev, tape.theta(), tape.use_pe);
    let got = engine.predict_samples(&enc).map_err(|e| e.to_string())?;
    Ok((got, tape.predict(&enc)?))
}

/// The tail latency the mix sets: the percentile the percentile rule gives
/// for `ms.len()` calls, over the calls each counted at the median latency
/// of its query within `ms` (call `first + j` asks query
/// `(first + j) % queries`). The heaviest queries make the tail; a host
/// stall that delays a few single calls, whatever their query, does not.
fn mix_tail(ms: &[f64], first: usize, queries: usize) -> f64 {
    let query = |j: usize| (first + j) % queries;
    let mut by_query: Vec<Vec<f64>> = vec![Vec::new(); queries];
    for (j, &v) in ms.iter().enumerate() {
        by_query[query(j)].push(v);
    }
    let counted: Vec<f64> = (0..ms.len()).map(|j| median(&by_query[query(j)])).collect();
    percentile(&counted, tail_percentile(counted.len()))
}

/// Evenly spaced indices into `0..n`, at most `k` of them.
fn spread(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let k = k.min(n);
    (0..k).map(move |j| j * n / k)
}

pub fn run(args: &RunArgs, snapshot: &Path, out: &mut Outcome) -> Result<(), String> {
    let mix = mix();
    let blocks = ((args.seconds as f64 * BLOCKS_PER_SECOND).round() as usize).max(1);
    let block_len = BLOCK_PASSES * mix.len();
    let seeds: Vec<u64> = (0..blocks * block_len)
        .map(|i| derive_seed(args.seed, 0, i as u64))
        .collect();
    let tracer = args.trace.then(Tracer::new);

    // Timed phase, untraced, in blocks. The first cold start's engine
    // serves every block, the checks and the traced phase; before each
    // later block a second engine is cold-started and dropped. Set-up
    // time, throughput, CPU per call, median and tail latency are medians
    // over the quietest cold starts and blocks, so host steal moves few of
    // the samples that count.
    let mut setup_s = Vec::with_capacity(blocks);
    let mut warm_s = Vec::with_capacity(blocks);
    let mut setup_steal = Vec::with_capacity(blocks);
    let mut engine = None;
    let mut calls = Vec::with_capacity(seeds.len());
    let mut per_block = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let t = tracer
            .as_ref()
            .map(|tr| tr.op(u64::MAX - b as u64, "setup"));
        let steal0 = host_steal_s();
        let (cold, total, warm) = cold_start(snapshot, args.threads, &mix, args.seed, t)?;
        setup_steal.push(host_steal_s() - steal0);
        setup_s.push(total);
        warm_s.push(warm);
        let engine: &InferenceEngine = match &engine {
            Some(serving) => {
                drop(cold);
                serving
            }
            None => engine.insert(cold),
        };
        let block = Phase::start();
        let (c, _) = serve(
            engine,
            &mix,
            &seeds,
            b * block_len..(b + 1) * block_len,
            None,
        );
        let t = block.stop();
        let ms: Vec<f64> = c.iter().map(|c| c.latency_s * 1e3).collect();
        let n = c.len() as f64;
        per_block.push([
            n / t.wall_s,
            t.cpu_s / n * 1e6,
            median(&ms),
            mix_tail(&ms, b * block_len, mix.len()),
            t.steal_s,
        ]);
        calls.extend(c);
    }
    let engine = engine.expect("at least one block");
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let column = |k: usize| per_block.iter().map(|b| b[k]).collect::<Vec<_>>();
    out.steal_s = column(4).iter().sum();
    let block_median = |k: usize| quiet_median(&column(4), &column(k));
    out.attempted = calls.len() as u64;
    out.failed = calls.iter().filter(|c| c.result.is_err()).count() as u64;
    if let Some(e) = calls.iter().find_map(|c| c.result.as_ref().err()) {
        out.check(Err(format!("a serve call failed: {e}")));
    }
    let ok: Vec<(usize, &E2eResult)> = calls
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.result.as_ref().ok().map(|r| (i, r)))
        .collect();
    let latencies_ms: Vec<f64> = calls.iter().map(|c| c.latency_s * 1e3).collect();
    out.set("setup_s", quiet_median(&setup_steal, &setup_s));
    out.set("adapt_s", quiet_median(&setup_steal, &warm_s));
    out.set("items_per_s", block_median(0));
    out.set("item_cpu_us", block_median(1));
    out.set("op_p50_ms", block_median(2));
    out.set("op_p99_ms", block_median(3));
    out.set(
        "mape_pct",
        100.0 * ok.iter().map(|(_, r)| r.error()).sum::<f64>() / ok.len().max(1) as f64,
    );
    out.set(
        "tuned_us",
        geomean(
            &ok.iter()
                .map(|(_, r)| r.predicted_s * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("peak_rss_mb", peak_rss_mb);

    // Output checks, outside the timed phase.
    for (i, r) in &ok {
        if !(r.predicted_s.is_finite() && r.predicted_s > 0.0) {
            out.check(Err(format!("call {i}: predicted_s = {}", r.predicted_s)));
            break;
        }
    }
    for i in spread(calls.len(), CHECKED_CALLS) {
        if let Ok(r) = &calls[i].result {
            out.check(check_call(&engine, &mix[i % mix.len()], seeds[i], r));
        }
    }
    let tape = TapeModel::from_snapshot_file(snapshot)?;
    for i in spread(calls.len(), TAPE_CALLS) {
        let q = &mix[i % mix.len()];
        out.check(
            engine_and_tape(&engine, &tape, q, seeds[i]).and_then(|(got, want)| {
                check_bit_identical(&format!("{} on {}", q.net.name, q.dev.name), &got, &want)
            }),
        );
    }

    let Some(tracer) = tracer else {
        return Ok(());
    };
    // Traced phase: the same calls, rebuilt from their parts with spans.
    let before = engine.stats();
    let phase = Phase::start();
    let (traced, programs) = serve(&engine, &mix, &seeds, 0..seeds.len(), Some(&tracer));
    let ttimes = phase.stop();
    let after = engine.stats();
    out.attempted += traced.len() as u64;
    out.failed += traced.iter().filter(|c| c.result.is_err()).count() as u64;
    for (i, (a, b)) in calls.iter().zip(&traced).enumerate() {
        let same = match (&a.result, &b.result) {
            (Ok(a), Ok(b)) => {
                a.predicted_s.to_bits() == b.predicted_s.to_bits()
                    && a.measured_s.to_bits() == b.measured_s.to_bits()
            }
            _ => false,
        };
        if !same {
            out.check(Err(format!(
                "call {i}: the rebuilt call returned {:?}, end_to_end_opts {:?}",
                b.result, a.result
            )));
            break;
        }
    }
    let spans = tracer.spans();
    out.check(check_accounting(&spans));
    let split = LayerSplit::of(&spans, "serve.call");
    let setup = LayerSplit::of(&spans, "setup");
    let ops = traced.len() as f64;
    let chunks = (after.completed_chunks - before.completed_chunks) as f64;
    let traced_ms: Vec<f64> = traced.iter().map(|c| c.latency_s * 1e3).collect();
    crate::set_common_layers(
        out,
        &split,
        &ttimes,
        median(&traced_ms) - median(&latencies_ms),
    );
    out.set("snapshot.load_ms", setup.ms_per_op("snapshot.load"));
    out.set("runtime.start_ms", setup.ms_per_op("runtime.start"));
    out.set("tir.lower_ms", split.ms_per_op("tir.lower"));
    out.set("tir.programs", programs as f64 / ops);
    out.set("features.encode_ms", split.ms_per_op("features.encode"));
    out.set("runtime.dispatch_ms", split.ms_per_op("runtime.dispatch"));
    out.set(
        "runtime.busy_ms",
        (after.predict_ns - before.predict_ns) as f64 / 1e6 / ops,
    );
    out.set("runtime.chunks", chunks / ops);
    out.set("runtime.rows_per_chunk", programs as f64 / chunks.max(1.0));
    out.set("runtime.promotions", after.promotions as f64);
    out.set("devsim.truth_ms", split.ms_per_op("devsim.truth"));
    out.set("replayer.replay_ms", split.ms_per_op("replayer.replay"));
    out.tables.push(setup.table("serve-zoo cold starts"));
    out.tables.push(split.table("serve-zoo calls"));
    crate::write_spans(args, &spans)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmpp::runtime::{BatchWindow, FaultPlan};

    #[test]
    fn mix_tail_follows_the_heaviest_query_and_not_single_stalls() {
        // Three queries called in turn 40 times each; the third is the
        // heaviest. 120 calls give a p90 under the percentile rule.
        let mut ms: Vec<f64> = (0..120).map(|j| [1.0, 2.0, 3.0][j % 3]).collect();
        assert_eq!(tail_percentile(ms.len()), 90.0);
        assert_eq!(mix_tail(&ms, 0, 3), 3.0);
        // Thirteen stalled calls of the lightest query move a plain p90,
        // not the mix's tail.
        for j in (0..39).step_by(3) {
            ms[j] = 50.0;
        }
        assert_eq!(percentile(&ms, 90.0), 50.0);
        assert_eq!(mix_tail(&ms, 0, 3), 3.0);
        // A slower heaviest query moves it; `first` keeps the call-to-query
        // mapping of a block that starts mid-mix.
        for j in (2..120).step_by(3) {
            ms[j] = 4.0;
        }
        assert_eq!(mix_tail(&ms, 0, 3), 4.0);
        assert_eq!(mix_tail(&ms[2..], 2, 3), 4.0);
    }

    #[test]
    fn serve_checks_catch_a_flipped_bit_and_an_impossible_replay() {
        let _serial = crate::testutil::serial();
        let ds = crate::testutil::tiny_dataset();
        let (model, _, _) = crate::testutil::tiny_model(&ds, 2);
        let path = crate::testutil::scratch("serve.cdmppsnap");
        crate::model::write_snapshot(&model, &path).unwrap();
        let engine = InferenceEngine::from_snapshot_file(
            &path,
            EngineConfig {
                workers: 1,
                faults: Some(FaultPlan::none()),
                batch_window: Some(BatchWindow::off()),
                ..Default::default()
            },
        )
        .unwrap();
        let tape = TapeModel::from_snapshot_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let q = Query {
            net: cdmpp::tir::zoo::mlp_mixer(1),
            dev: cdmpp::devsim::t4(),
        };

        let (mut got, want) = engine_and_tape(&engine, &tape, &q, 11).unwrap();
        check_bit_identical("engine", &got, &want).unwrap();
        got[1] = f64::from_bits(got[1].to_bits() ^ 1);
        assert!(check_bit_identical("engine", &got, &want).is_err());

        let r = end_to_end_opts(&engine, &q.net, &q.dev, 11, &SubmitOptions::default()).unwrap();
        check_call(&engine, &q, 11, &r).unwrap();
        let flipped = E2eResult {
            measured_s: f64::from_bits(r.measured_s.to_bits() ^ 1),
            ..r
        };
        assert!(check_call(&engine, &q, 11, &flipped).is_err());
        for scale in [0.2, 5.0] {
            let off = E2eResult {
                predicted_s: r.predicted_s * scale,
                ..r
            };
            assert!(check_call(&engine, &q, 11, &off).is_err(), "scale {scale}");
        }
    }
}
