//! search-tune: `generational_search` scored through `EngineCostModel`, the
//! way an autotuner ranks thousands of candidate programs per round.
//!
//! The tasks are a fixed draw (seed [`DRAW_SEED`]) of one unique zoo task
//! per operator kind; the run's seed drives the searches' own proposal
//! RNG. Rounds propose [`CANDIDATES`] schedules and measure the model's
//! top [`MEASURE`] on the simulator; the oracle-regret sweep is off, as in
//! a tuning run where measurements are the budget.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cdmpp::core::{
    encode_programs, generational_search, CostModel, GenSearchConfig, GenSearchTrace,
    InferenceModel,
};
use cdmpp::devsim::{DeviceSpec, Simulator};
use cdmpp::runtime::{EngineConfig, EngineCostModel, InferenceEngine};
use cdmpp::tir::{build_tasks, lower, Nest, Task, TensorProgram};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

use crate::measure::{
    geomean, host_steal_s, median, percentile, process_cpu_ns, quiet, quiet_median,
    tail_percentile, Phase,
};
use crate::model::{check_bit_identical, served_devices, TapeModel};
use crate::report::Outcome;
use crate::trace::{check_accounting, LayerSplit, Span, Tracer};
use crate::{derive_seed, RunArgs};

/// Seed of the task draw; fixed, so every run tunes the same tasks.
pub const DRAW_SEED: u64 = 2024;
/// Candidates proposed per round.
pub const CANDIDATES: usize = 2048;
/// Candidates measured on the simulator per round.
pub const MEASURE: usize = 64;
/// Every this-many-th scored candidate is kept to measure the model's
/// error on the candidates the search proposes.
const SAMPLE_STRIDE: usize = 16;
/// Search rounds per second of `--seconds`, over all tasks, calibrated so
/// one run measures about that long on a 2-vCPU host.
const ROUNDS_PER_SECOND: f64 = 16.0;
const COLD_STARTS: usize = 9;

/// One task to tune, with the device it is tuned for.
pub struct TuneTask {
    pub task: Task,
    pub nest: Nest,
    pub dev: DeviceSpec,
}

/// One task per operator kind of the batch-1 zoo, drawn with
/// [`DRAW_SEED`], alternating over the served devices.
pub fn tasks() -> Vec<TuneTask> {
    let mut by_kind: BTreeMap<usize, Vec<Task>> = BTreeMap::new();
    for t in build_tasks(&cdmpp::tir::all_networks(1)) {
        by_kind.entry(t.spec.class_id()).or_default().push(t);
    }
    let devices = served_devices();
    let mut rng = StdRng::seed_from_u64(DRAW_SEED);
    by_kind
        .into_values()
        .enumerate()
        .map(|(i, kind)| {
            let task = kind.choose(&mut rng).expect("kind has tasks").clone();
            TuneTask {
                nest: task.spec.canonical_nest(),
                dev: devices[i % devices.len()].clone(),
                task,
            }
        })
        .collect()
}

fn config(rounds: usize, seed: u64) -> GenSearchConfig {
    GenSearchConfig {
        rounds,
        candidates_per_round: CANDIDATES,
        measure_per_round: MEASURE,
        population: 16,
        seed,
        oracle_regret: false,
        ..Default::default()
    }
}

/// Wall clock, process CPU time and host steal at one instant.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ns: u64,
    steal_s: f64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_ns: process_cpu_ns(),
            steal_s: host_steal_s(),
        }
    }
}

/// One `score_batch` call as the wrapper saw it.
struct ScoreLog {
    start: Instant,
    end: Mark,
    /// The model's top [`MEASURE`] (the candidates the search measures):
    /// score and program.
    top: Vec<(f64, TensorProgram)>,
    /// Every [`SAMPLE_STRIDE`]-th candidate: score and program.
    sample: Vec<(f64, TensorProgram)>,
    /// Traced runs only: encode / dispatch / worker-busy ns and completed
    /// chunks this call added.
    deltas: Option<[u64; 4]>,
}

/// The engine-backed cost model with a timestamp at each call, so round
/// boundaries are known: a round ends when its one `score_batch` returns.
struct Logged<'a> {
    inner: &'a EngineCostModel,
    traced: bool,
    log: RefCell<Vec<ScoreLog>>,
}

impl Logged<'_> {
    fn counters(&self) -> [u64; 4] {
        let t = self.inner.timings();
        let s = self.inner.engine().stats();
        [t.encode_ns, t.dispatch_ns, s.predict_ns, s.completed_chunks]
    }
}

impl CostModel for Logged<'_> {
    fn score(&self, prog: &TensorProgram, dev: &DeviceSpec) -> f64 {
        self.score_batch(&[prog], dev)[0]
    }

    fn score_batch(&self, progs: &[&TensorProgram], dev: &DeviceSpec) -> Vec<f64> {
        let before = self.traced.then(|| self.counters());
        let start = Instant::now();
        let scores = self.inner.score_batch(progs, dev);
        let end = Mark::now();
        let deltas = before.map(|b| {
            let a = self.counters();
            [a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]]
        });
        // The search ranks with a stable sort on `total_cmp`; its first
        // MEASURE entries are these.
        let mut order: Vec<usize> = (0..scores.len()).collect();
        let k = MEASURE.min(order.len());
        if k < order.len() {
            order.select_nth_unstable_by(k, |&a, &b| {
                scores[a].total_cmp(&scores[b]).then(a.cmp(&b))
            });
        }
        order.truncate(k);
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        let top = order
            .into_iter()
            .map(|i| (scores[i], progs[i].clone()))
            .collect();
        let sample = (0..scores.len())
            .step_by(SAMPLE_STRIDE)
            .map(|i| (scores[i], progs[i].clone()))
            .collect();
        self.log.borrow_mut().push(ScoreLog {
            start,
            end,
            top,
            sample,
            deltas,
        });
        scores
    }
}

/// One task's search, with its round boundaries.
struct Searched {
    trace: GenSearchTrace,
    start: Mark,
    end: Mark,
    log: Vec<ScoreLog>,
}

/// One round of a search and what it cost.
struct Round {
    start: Instant,
    end: Instant,
    wall_s: f64,
    cpu_s: f64,
    steal_s: f64,
}

impl Searched {
    /// The rounds: each from the end of the previous round's scoring (or
    /// the search's start) to the end of its own; the last round also
    /// holds the measurement after its scoring.
    fn rounds(&self) -> Vec<Round> {
        let n = self.log.len();
        (0..n)
            .map(|r| {
                let a = if r == 0 {
                    self.start
                } else {
                    self.log[r - 1].end
                };
                let b = if r + 1 == n {
                    self.end
                } else {
                    self.log[r].end
                };
                Round {
                    start: a.at,
                    end: b.at,
                    wall_s: (b.at - a.at).as_secs_f64(),
                    cpu_s: (b.cpu_ns - a.cpu_ns) as f64 * 1e-9,
                    steal_s: b.steal_s - a.steal_s,
                }
            })
            .collect()
    }
}

fn search_all(
    cost: &EngineCostModel,
    tasks: &[TuneTask],
    rounds: usize,
    seed: u64,
    traced: bool,
) -> Vec<Searched> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let logged = Logged {
                inner: cost,
                traced,
                log: RefCell::new(Vec::new()),
            };
            let cfg = config(rounds, derive_seed(seed, 2, i as u64));
            let start = Mark::now();
            let trace = generational_search(&t.nest, &t.dev, &logged, &cfg);
            let end = Mark::now();
            Searched {
                trace,
                start,
                end,
                log: logged.log.into_inner(),
            }
        })
        .collect()
}

/// Checks one task's search against the simulator and its own invariants.
fn check_search(
    t: &TuneTask,
    tr: &GenSearchTrace,
    scoring_calls: usize,
    rounds: usize,
) -> Result<(), String> {
    let what = format!("{} on {}", t.task.name, t.dev.name);
    if scoring_calls != tr.rounds.len() || tr.rounds.len() != rounds {
        return Err(format!(
            "{what}: {} rounds and {scoring_calls} scoring calls for {rounds} configured rounds",
            tr.rounds.len(),
        ));
    }
    let prog = lower(&t.nest, &tr.best_schedule).map_err(|e| format!("{what}: {e}"))?;
    let sim = Simulator::new(t.dev.clone()).latency_seconds(&prog);
    if sim.to_bits() != tr.best_measured.to_bits() {
        return Err(format!(
            "{what}: best_measured {:e} but the best schedule simulates to {sim:e}",
            tr.best_measured
        ));
    }
    if let Some(r) = tr
        .rounds
        .iter()
        .find(|r| tr.best_measured > r.round_measured)
    {
        return Err(format!(
            "{what}: best_measured {:e} exceeds a round's measurement {:e}",
            tr.best_measured, r.round_measured
        ));
    }
    let budget: usize = tr.rounds.iter().map(|r| r.unique.min(MEASURE)).sum();
    if tr.measurements != budget {
        return Err(format!(
            "{what}: {} measurements, expected {budget}",
            tr.measurements
        ));
    }
    Ok(())
}

pub fn run(args: &RunArgs, snapshot: &Path, out: &mut Outcome) -> Result<(), String> {
    let tasks = tasks();
    let rounds =
        ((args.seconds as f64 * ROUNDS_PER_SECOND / tasks.len() as f64).round() as usize).max(2);
    let tracer = args.trace.then(Tracer::new);

    // Set-up: repeated cold starts, each ending in one warm round.
    let mut setup_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut setup_steal = Vec::new();
    let mut cost = None;
    for k in 0..COLD_STARTS {
        drop(cost.take());
        let op = u64::MAX - k as u64;
        let steal0 = host_steal_s();
        let t0 = Instant::now();
        let model = InferenceModel::from_snapshot_file(snapshot)
            .map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
        let t1 = Instant::now();
        let engine = Arc::new(InferenceEngine::new(
            model,
            EngineConfig {
                workers: args.threads,
                ..Default::default()
            },
        ));
        let c = EngineCostModel::new(engine, args.threads);
        let t2 = Instant::now();
        let warm = &tasks[0];
        generational_search(
            &warm.nest,
            &warm.dev,
            &c,
            &config(1, derive_seed(args.seed, 3, 0)),
        );
        let t3 = Instant::now();
        setup_steal.push(host_steal_s() - steal0);
        setup_s.push((t3 - t0).as_secs_f64());
        warm_s.push((t3 - t2).as_secs_f64());
        if let Some(tr) = &tracer {
            let span = |name, id, parent, a, b| Span {
                name,
                op,
                id,
                parent,
                start_ns: tr.at(a),
                end_ns: tr.at(b),
            };
            tr.add(vec![
                span("setup", 0, None, t0, t3),
                span("snapshot.load", 1, Some(0), t0, t1),
                span("runtime.start", 2, Some(0), t1, t2),
                span("search.warm", 3, Some(0), t2, t3),
            ]);
        }
        cost = Some(c);
    }
    let cost = cost.expect("at least one cold start");

    // One untimed round of every task, so the timed phase starts with the
    // arena, plans and batch classes at the workload's high-water mark.
    for (i, t) in tasks.iter().enumerate() {
        generational_search(
            &t.nest,
            &t.dev,
            &cost,
            &config(1, derive_seed(args.seed, 3, 1 + i as u64)),
        );
    }
    let growth0 = cost.arena_growth();

    // Timed phase, untraced.
    let scored0 = cost.timings().scored;
    let phase = Phase::start();
    let searched = search_all(&cost, &tasks, rounds, args.seed, false);
    let times = phase.stop();
    let peak_rss_mb = crate::measure::peak_rss_mb();
    out.steal_s = times.steal_s;
    let rounds_of: Vec<Vec<Round>> = searched.iter().map(Searched::rounds).collect();
    let round_ms: Vec<f64> = rounds_of.iter().flatten().map(|r| r.wall_s * 1e3).collect();
    let unique: usize = searched
        .iter()
        .flat_map(|s| s.trace.rounds.iter().map(|r| r.unique))
        .sum();
    out.attempted = round_ms.len() as u64;
    out.set("setup_s", quiet_median(&setup_steal, &setup_s));
    out.set("adapt_s", quiet_median(&setup_steal, &warm_s));
    // Each task's rounds counted at the median wall and CPU time of its
    // quietest rounds, and the round-time percentiles taken over those, so
    // host steal moves few rounds that count and every task keeps its
    // share.
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut quiet_ms = Vec::new();
    for rs in &rounds_of {
        let st: Vec<f64> = rs.iter().map(|r| r.steal_s).collect();
        let n = rs.len() as f64;
        let walls = quiet(&st, &rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        wall_s += n * median(&walls);
        cpu_s += n * quiet_median(&st, &rs.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
        quiet_ms.extend(walls.iter().map(|w| w * 1e3));
    }
    out.set("items_per_s", unique as f64 / wall_s);
    out.set("item_cpu_us", cpu_s / unique as f64 * 1e6);
    out.set("op_p50_ms", median(&quiet_ms));
    out.set(
        "op_p99_ms",
        percentile(&quiet_ms, tail_percentile(round_ms.len() / 4)),
    );
    out.set(
        "tuned_us",
        geomean(
            &searched
                .iter()
                .map(|s| s.trace.best_measured * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("peak_rss_mb", peak_rss_mb);

    // Output checks, outside the timed phase.
    let scored = cost.timings().scored - scored0;
    if scored != unique as u64 {
        out.check(Err(format!(
            "{scored} candidates scored, {unique} unique proposed"
        )));
    }
    let sheds = cost.engine().stats().score_sheds;
    if sheds != 0 {
        out.check(Err(format!("{sheds} candidates shed by the engine")));
    }
    let tape = TapeModel::from_snapshot_file(snapshot)?;
    let mut apes = Vec::new();
    for (t, s) in tasks.iter().zip(&searched) {
        out.check(check_search(t, &s.trace, s.log.len(), rounds));
        let sim = Simulator::new(t.dev.clone());
        let progs: Vec<&TensorProgram> = s
            .log
            .iter()
            .flat_map(|l| l.top.iter().map(|(_, p)| p))
            .collect();
        let got: Vec<f64> = s
            .log
            .iter()
            .flat_map(|l| l.top.iter().map(|(v, _)| *v))
            .collect();
        let enc = encode_programs(&progs, &t.dev, tape.theta(), tape.use_pe);
        out.check(tape.predict(&enc).and_then(|want| {
            check_bit_identical(&format!("top candidates of {}", t.task.name), &got, &want)
        }));
        for (v, p) in s.log.iter().flat_map(|l| &l.sample) {
            let m = sim.latency_seconds(p);
            apes.push((v - m).abs() / m);
        }
    }
    out.set(
        "mape_pct",
        100.0 * apes.iter().sum::<f64>() / apes.len() as f64,
    );

    let Some(tracer) = tracer else {
        return Ok(());
    };
    // Traced phase: the same searches, with per-round counter deltas.
    let phase = Phase::start();
    let traced = search_all(&cost, &tasks, rounds, args.seed, true);
    let ttimes = phase.stop();
    let growth = cost.arena_growth() - growth0;
    out.attempted += traced.iter().map(|s| s.log.len() as u64).sum::<u64>();
    let mut traced_ms = Vec::new();
    let (mut proposed, mut chunks, mut busy_ns) = (0usize, 0u64, 0u64);
    for (ti, (a, b)) in searched.iter().zip(&traced).enumerate() {
        if a.trace.best_schedule != b.trace.best_schedule
            || a.trace.best_measured.to_bits() != b.trace.best_measured.to_bits()
        {
            out.check(Err(format!(
                "task {ti}: the traced search found a different best"
            )));
        }
        proposed += b.trace.rounds.iter().map(|r| r.proposed).sum::<usize>();
        for (r, (round, log)) in b.rounds().iter().zip(&b.log).enumerate() {
            let (ra, rb) = (round.start, round.end);
            traced_ms.push(round.wall_s * 1e3);
            let [enc, disp, busy, ch] = log.deltas.expect("traced rounds carry deltas");
            busy_ns += busy;
            chunks += ch;
            let at = |t: Instant| tracer.at(t);
            let s0 = at(log.start);
            let s1 = at(log.end.at);
            let mk = |name, id, parent, start_ns: u64, end_ns: u64| Span {
                name,
                op: (ti * 100_000 + r) as u64,
                id,
                parent,
                start_ns,
                end_ns: end_ns.max(start_ns),
            };
            let mut spans = vec![
                mk("search.round", 0, None, at(ra), at(rb)),
                mk("search.loop", 1, Some(0), at(ra), s0),
                mk("search.score", 2, Some(0), s0, s1),
                mk("features.encode", 3, Some(2), s0, (s0 + enc).min(s1)),
                mk(
                    "runtime.dispatch",
                    4,
                    Some(2),
                    (s0 + enc).min(s1),
                    (s0 + enc + disp).min(s1),
                ),
            ];
            if log.end.at < rb {
                spans.push(mk("search.loop", 5, Some(0), s1, at(rb)));
            }
            tracer.add(spans);
        }
    }
    let spans = tracer.spans();
    out.check(check_accounting(&spans));
    let split = LayerSplit::of(&spans, "search.round");
    let setup = LayerSplit::of(&spans, "setup");
    let ops = traced_ms.len() as f64;
    crate::set_common_layers(out, &split, &ttimes, median(&traced_ms) - median(&round_ms));
    out.set("snapshot.load_ms", setup.ms_per_op("snapshot.load"));
    out.set("runtime.start_ms", setup.ms_per_op("runtime.start"));
    out.set("search.loop_ms", split.ms_per_op("search.loop"));
    out.set(
        "search.score_ms",
        ["search.score", "features.encode", "runtime.dispatch"]
            .iter()
            .map(|l| split.ms_per_op(l))
            .sum(),
    );
    out.set("search.unique_ratio", unique as f64 / proposed as f64);
    out.set("features.encode_ms", split.ms_per_op("features.encode"));
    out.set("features.arena_growth", growth as f64);
    out.set("runtime.dispatch_ms", split.ms_per_op("runtime.dispatch"));
    out.set("runtime.busy_ms", busy_ns as f64 / 1e6 / ops);
    out.set("runtime.chunks", chunks as f64 / ops);
    out.set(
        "runtime.rows_per_chunk",
        unique as f64 / chunks.max(1) as f64,
    );
    out.set(
        "runtime.promotions",
        cost.engine().stats().promotions as f64,
    );
    out.tables.push(setup.table("search-tune cold starts"));
    out.tables.push(split.table("search-tune rounds"));
    crate::write_spans(args, &spans)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmpp::core::OracleCost;
    use cdmpp::tir::Schedule;

    #[test]
    fn the_search_check_catches_a_wrong_best_schedule_and_budget() {
        let _serial = crate::testutil::serial();
        let tasks = tasks();
        let kinds: std::collections::BTreeSet<_> =
            tasks.iter().map(|t| t.task.spec.kind_name()).collect();
        assert_eq!(kinds.len(), tasks.len(), "one task per operator kind");
        let t = &tasks[0];
        let cfg = GenSearchConfig {
            candidates_per_round: 64,
            ..config(3, 5)
        };
        let trace = generational_search(&t.nest, &t.dev, &OracleCost, &cfg);
        check_search(t, &trace, 3, 3).unwrap();
        let mut wrong = trace.clone();
        wrong.best_schedule = Schedule::default();
        assert!(check_search(t, &wrong, 3, 3).is_err());
        let mut miscounted = trace.clone();
        miscounted.measurements += 1;
        assert!(check_search(t, &miscounted, 3, 3).is_err());
        assert!(check_search(t, &trace, 2, 3).is_err());
    }
}
