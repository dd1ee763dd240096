//! Runs a workload and assembles the one-line result.
//!
//! Every run prints every metric, so every run executes turns of every
//! stage; the workload names the stage that gets half the measured
//! time, and so the most samples. The traced run executes one traced
//! turn of every stage on one thread and reports the layer tree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use femux::model::FemuxModel;
use femux_forecast::ForecasterKind;
use femux_obs::walltime::monotonic_micros;

use crate::engine::{phase_jobs, replay, replay_traced, Replay, PHASES};
use crate::offline::{replay_test, rum, traced_replay, traced_train, train};
use crate::serve::{
    forecasts_attempted, forecasts_failed, incomplete_apps, serve_round, traced_replica,
};
use crate::setup::{generate, Inputs};
use crate::stats::{median, percentile, reportable_tail};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The stages of a run, in the order their turns break ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `femux_serve::run` on one shard.
    Serve,
    /// Label + train, or the test-split replay, in alternate turns.
    Offline,
    /// One pass of each timed engine phase.
    Sim,
}

const STAGES: [Stage; 3] = [Stage::Serve, Stage::Offline, Stage::Sim];

/// The stage a workload name focuses on.
pub fn stage_of(workload: &str) -> Option<Stage> {
    match workload {
        "serve-paper" => Some(Stage::Serve),
        "sim-engine" => Some(Stage::Sim),
        _ => None,
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted: forecasts served plus apps simulated.
    pub attempted: u64,
    /// Operations failed: forecasts that fell back to the moving
    /// average, plus simulated apps that broke conservation.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (deterministic
    /// outputs, the layer tree, failed checks).
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("check failed: {what}"));
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of µs samples.
fn median_us(us: &[u64]) -> Option<f64> {
    median(&us.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Nearest-rank percentile of a unit's times that the end-to-end timings
/// report (throughputs report invocations over it).
///
/// The reference host runs a unit of work at one of two speeds, as
/// neighbours' load comes and goes: the slow speed recurs in every run,
/// the share of time at the fast speed does not. A median follows that
/// share and moved by up to 40 % between sets of runs; the 90th
/// percentile follows the slow speed and stayed within about 10 %.
const SLOW_SIDE: f64 = 90.0;

/// The [`SLOW_SIDE`] percentile of µs samples (0 when empty).
fn slow_side_us(us: &[u64]) -> f64 {
    let mut sorted = us.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, SLOW_SIDE).unwrap_or(0) as f64
}

/// Engine phases the untraced run times. The sparse phase's passes
/// spread too widely between runs to gate (see `README.md`); the traced
/// run still reports it.
const TIMED_PHASES: [&str; 3] = ["dense", "cluster", "crash"];

/// Set-up: trace generation plus the serving model's training.
fn setup(seed: u64) -> (Inputs, Arc<FemuxModel>, Vec<u64>) {
    let mut setup_us = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's inputs before generating the
        // next, so the process never holds two sets and `peak_rss_mb`
        // measures the program, not the repetitions.
        drop(last.take());
        let t0 = monotonic_micros();
        let inputs = generate(seed);
        let model = train(&inputs.train_apps).model;
        setup_us.push(monotonic_micros().saturating_sub(t0));
        last = Some((inputs, model));
    }
    let (inputs, model) = last.expect("at least one set-up repetition");
    (inputs, model, setup_us)
}

/// What a serving turn leaves behind once summarized.
struct ServeSummary {
    steady_us: Vec<u64>,
    boundary_us: Vec<u64>,
    digest: u64,
}

/// What a test-split replay turn leaves behind once summarized.
struct ReplaySummary {
    replay_us: u64,
    rum_femux: f64,
    rum_knative: f64,
}

struct Untraced<'a> {
    inputs: &'a Inputs,
    model: &'a Arc<FemuxModel>,
    seed: u64,
    out: Outcome,
    serve: Vec<ServeSummary>,
    serve_mix: Vec<String>,
    /// Wall time of every label + train turn, µs.
    train_us: Vec<u64>,
    /// The model the last label + train turn produced; the next replay
    /// turn replays the test split with it.
    trained: Option<Arc<FemuxModel>>,
    replays: Vec<ReplaySummary>,
    /// Sim turns run.
    sim_turns: usize,
    /// Per timed phase: invocations simulated in one pass (0 before the
    /// first).
    sim_invocations: [u64; 3],
    /// Per timed phase: wall time of every pass, µs.
    sim_pass_us: [Vec<u64>; 3],
}

impl Untraced<'_> {
    fn turn(&mut self, stage: Stage) {
        match stage {
            Stage::Serve => self.serve_turn(),
            Stage::Offline => match self.trained.take() {
                None => self.train_turn(),
                Some(model) => self.replay_turn(&model),
            },
            Stage::Sim => self.sim_turn(),
        }
    }

    fn serve_turn(&mut self) {
        let round = serve_round(&self.inputs.serve_trace, self.model);
        let report = &round.report;
        self.out.attempted += forecasts_attempted(report);
        self.out.failed += forecasts_failed(report);
        let incomplete = incomplete_apps(report, self.model.cfg.block_len);
        self.out.check(
            incomplete == 0,
            "every served app completes steps / block_len blocks",
        );
        let mut mix: BTreeMap<&str, usize> = BTreeMap::new();
        for app in &report.apps {
            if let Some(k) = app.decisions.last() {
                *mix.entry(k.name()).or_default() += 1;
            }
        }
        self.serve_mix.push(format!("{mix:?}"));
        self.serve.push(ServeSummary {
            steady_us: round.steady_us,
            boundary_us: round.boundary_us,
            digest: report.digest(),
        });
    }

    fn train_turn(&mut self) {
        let trained = train(&self.inputs.train_apps);
        self.train_us.push(trained.train_us);
        self.trained = Some(trained.model);
    }

    fn replay_turn(&mut self, model: &Arc<FemuxModel>) {
        let r = replay_test(model, &self.inputs.test_trace);
        self.account(&r.femux, "offline femux replay");
        self.account(&r.knative, "offline knative replay");
        self.out
            .check(r.rum_ratio().is_finite(), "rum.femux_vs_knative is finite");
        self.replays.push(ReplaySummary {
            replay_us: r.replay_us,
            rum_femux: rum(&r.femux),
            rum_knative: rum(&r.knative),
        });
    }

    /// One pass of every timed phase, so each phase's samples spread over
    /// the run as evenly as the sim stage's turns do.
    fn sim_turn(&mut self) {
        for (p, phase) in TIMED_PHASES.iter().enumerate() {
            let (jobs, cfg) = phase_jobs(self.inputs, phase, self.seed);
            let r = replay(&jobs, &cfg);
            self.account(&r, phase);
            if self.sim_invocations[p] == 0 {
                self.sim_invocations[p] = r.invocations;
                self.out.notes.push(format!(
                    "sim {phase}: {} jobs, {} invocations",
                    r.jobs.len(),
                    r.invocations
                ));
            }
            self.out.check(
                self.sim_invocations[p] == r.invocations,
                "sim invocations repeat across passes",
            );
            self.sim_pass_us[p].push(r.wall_us.max(1));
        }
        self.sim_turns += 1;
    }

    fn account(&mut self, r: &Replay, what: &str) {
        self.out.attempted += r.jobs.len() as u64;
        self.out.failed += r.failed;
        self.out.check(
            r.failed == 0,
            &format!("{what}: every app conserves invocations and its cluster ledger"),
        );
    }

    fn finish(mut self, setup_us: &[u64]) -> Outcome {
        let block_len = self.model.cfg.block_len;
        let apps = self.inputs.serve_trace.apps.len().max(1) as f64;
        let steady: Vec<u64> = self
            .serve
            .iter()
            .flat_map(|s| s.steady_us.iter().copied())
            .collect();
        let boundary: Vec<u64> = self
            .serve
            .iter()
            .flat_map(|s| s.boundary_us.iter().copied())
            .collect();
        let digests: Vec<u64> = self.serve.iter().map(|s| s.digest).collect();
        self.out.check(
            digests.windows(2).all(|w| w[0] == w[1]),
            "serve digest repeats across turns",
        );
        let rums: Vec<(u64, u64)> = self
            .replays
            .iter()
            .map(|o| (o.rum_femux.to_bits(), o.rum_knative.to_bits()))
            .collect();
        self.out.check(
            rums.windows(2).all(|w| w[0] == w[1]),
            "RUM repeats across turns",
        );

        if let Some(d) = digests.first() {
            self.out.notes.push(format!(
                "serve digest {d:016x} ({} apps, {} steps, block {block_len})",
                self.inputs.serve_trace.apps.len(),
                crate::setup::SERVE_STEPS
            ));
        }
        self.out.notes.push(model_line(self.model));
        if let Some(mix) = self.serve_mix.first() {
            self.out
                .notes
                .push(format!("serve forecaster mix after the last block: {mix}"));
        }
        if let Some(o) = self.replays.first() {
            self.out.notes.push(format!(
                "rum femux {:?} knative-default {:?}",
                o.rum_femux, o.rum_knative
            ));
        }
        self.out.notes.push(format!(
            "turns: serve {}, train {}, replay {}, sim {}; steady ticks {}, boundary ticks {}",
            self.serve.len(),
            self.train_us.len(),
            self.replays.len(),
            self.sim_turns,
            steady.len(),
            boundary.len()
        ));

        let ms = |us: f64| us / 1_000.0;
        let s = |us: f64| us / 1_000_000.0;
        self.out
            .put("setup_s", s(median_us(setup_us).unwrap_or(0.0)), "s");
        self.out
            .put("serve.app_tick_us", slow_side_us(&steady) / apps, "us");
        self.out
            .put("serve.boundary_tick_ms", ms(slow_side_us(&boundary)), "ms");
        let rep: Vec<u64> = self.replays.iter().map(|o| o.replay_us).collect();
        self.out
            .put("train_s", s(slow_side_us(&self.train_us)), "s");
        self.out.put("replay_s", s(slow_side_us(&rep)), "s");
        let ratio = self
            .replays
            .first()
            .map_or(0.0, |o| o.rum_femux / o.rum_knative);
        self.out.put("rum.femux_vs_knative", ratio, "ratio");
        for ((pass_us, phase), inv) in self
            .sim_pass_us
            .iter()
            .zip(TIMED_PHASES)
            .zip(self.sim_invocations)
        {
            let rate = |us: f64| inv as f64 * 1e6 / us.max(1.0);
            let (lo, hi) = (pass_us.iter().min(), pass_us.iter().max());
            self.out.notes.push(format!(
                "sim {phase}: {} passes, inv/s min {:.4e} median {:.4e} max {:.4e}",
                pass_us.len(),
                rate(hi.copied().unwrap_or(0) as f64),
                rate(median_us(pass_us).unwrap_or(0.0)),
                rate(lo.copied().unwrap_or(0) as f64),
            ));
            self.out.put(
                format!("sim.{phase}_inv_per_s"),
                rate(slow_side_us(pass_us)),
                "1/s",
            );
        }
        self.out
    }
}

/// The untraced run: set-up [`SETUP_REPS`] times, then stage turns until
/// `seconds` have passed since measurement began and every stage has
/// had two turns (offline alternates label + train with the replay).
///
/// The next turn goes to the stage furthest behind its share of the
/// measured time: half for the focus stage, a quarter for each other.
/// Turns last a few seconds at most, so every stage's samples spread
/// across the whole run, and a slow stretch of the shared host, which
/// comes in episodes of seconds, touches a few samples of each metric
/// instead of all samples of one.
pub fn run_untraced(focus: Stage, seed: u64, seconds: u64) -> Outcome {
    // One femux-par thread: the run measures what one vCPU does, the
    // unit of the paper's capacity claim, and a host that takes time
    // from another vCPU cannot stall half of a parallel stage.
    let _one_vcpu = femux_par::override_threads(1);
    let (inputs, model, setup_us) = setup(seed);
    let mut run = Untraced {
        inputs: &inputs,
        model: &model,
        seed,
        out: Outcome {
            correct: true,
            ..Outcome::default()
        },
        serve: Vec::new(),
        serve_mix: Vec::new(),
        train_us: Vec::new(),
        trained: None,
        replays: Vec::new(),
        sim_turns: 0,
        sim_invocations: [0; 3],
        sim_pass_us: Default::default(),
    };
    let weight = STAGES.map(|s| if s == focus { 2 } else { 1 });
    let mut spent = [0u64; 3];
    let mut turns = [0usize; 3];
    let t0 = monotonic_micros();
    while turns.iter().any(|&n| n < 2)
        || monotonic_micros().saturating_sub(t0) < seconds * 1_000_000
    {
        let i = (0..STAGES.len())
            .min_by_key(|&i| spent[i] / weight[i])
            .expect("three stages");
        let t = monotonic_micros();
        run.turn(STAGES[i]);
        spent[i] += monotonic_micros().saturating_sub(t);
        turns[i] += 1;
    }
    run.finish(&setup_us)
}

/// The traced run: every stage once, untraced then traced, on one
/// thread so every layer time is busy time and the rows sum to the
/// traced total.
pub fn run_traced(seed: u64) -> Outcome {
    let _one_thread = femux_par::override_threads(1);
    let inputs = generate(seed);
    let model = train(&inputs.train_apps).model;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    traced_serve(&inputs, &model, &mut out);
    traced_offline(&inputs, &mut out);
    traced_sim(&inputs, seed, &mut out);
    out
}

/// The model's default forecaster and cluster → forecaster map.
fn model_line(model: &FemuxModel) -> String {
    let clusters = match &model.classifier {
        femux::model::Classifier::KMeans {
            cluster_forecasters,
            ..
        } => cluster_forecasters
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(","),
        _ => String::new(),
    };
    format!(
        "model default {} clusters [{clusters}]",
        model.default_forecaster.name()
    )
}

fn s(us: u64) -> f64 {
    us as f64 / 1_000_000.0
}

fn mean_us(calls: &[u64]) -> f64 {
    calls.iter().sum::<u64>() as f64 / calls.len().max(1) as f64
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn tree(out: &mut Outcome, title: &str, rows: &[(&str, u64)], total: u64) {
    let attributed: u64 = rows.iter().map(|r| r.1).sum();
    let unattributed = total.saturating_sub(attributed);
    out.notes
        .push(format!("layer tree: {title} (busy µs, one thread)"));
    for (name, us) in rows.iter().chain(&[("unattributed", unattributed)]) {
        out.notes.push(format!(
            "  {name:<28} {us:>12} {:>6.1}%",
            100.0 * share(*us, total)
        ));
    }
    out.notes.push(format!("  {:<28} {total:>12}", "total"));
    out.check(
        rows.iter().map(|r| r.1).sum::<u64>() + unattributed == total,
        &format!("{title}: rows plus unattributed equal the total"),
    );
}

fn traced_serve(inputs: &Inputs, model: &Arc<FemuxModel>, out: &mut Outcome) {
    let round = serve_round(&inputs.serve_trace, model);
    let tr = traced_replica(&inputs.serve_trace, model);
    let fidelity = round.report.apps.len() == tr.outcomes.len()
        && round
            .report
            .apps
            .iter()
            .zip(&tr.outcomes)
            .all(|(a, r)| r.matches(a));
    out.check(
        fidelity,
        "serve replica decisions and pod targets equal femux_serve::run's",
    );
    out.attempted += forecasts_attempted(&round.report);
    out.failed += forecasts_failed(&round.report);

    let mut kinds: Vec<ForecasterKind> = femux::config::FemuxConfig::default().forecasters;
    kinds.push(ForecasterKind::MovingAverage);
    for kind in kinds {
        let calls = tr
            .predict_us
            .get(kind.name())
            .map_or(&[][..], Vec::as_slice);
        out.put(
            format!("forecast.{}.predict_us", kind.name()),
            median_us(calls).unwrap_or(0.0),
            "us",
        );
        out.put(
            format!("forecast.{}.calls", kind.name()),
            calls.len() as f64,
            "count",
        );
    }
    // Non-boundary pushes and selections take well under a µs, below
    // the clock's resolution: report the mean per call, whose
    // truncation errors average out, rather than a median of zeros.
    out.put("features.push_us", mean_us(&tr.push_us), "us");
    out.put(
        "features.boundary_us",
        median_us(&tr.boundary_push_us).unwrap_or(0.0),
        "us",
    );
    out.put("features.blocks", tr.boundary_push_us.len() as f64, "count");
    out.put("classify.select_us", mean_us(&tr.select_us), "us");
    out.put("serve.switches", tr.switches as f64, "count");
    // The steady-tick tail moves by more than a tenth between runs on a
    // shared host, so it is a diagnostic here, not a gated metric: the
    // highest percentile with at least ten of the untraced turn's
    // steady ticks beyond it.
    let mut sorted = round.steady_us.clone();
    sorted.sort_unstable();
    let tail = reportable_tail(sorted.len()).unwrap_or(50.0);
    out.put(
        "serve.tick_p99_ms",
        percentile(&sorted, tail).unwrap_or(0) as f64 / 1_000.0,
        "ms",
    );
    let [steady, boundary] = tr.tick_us;
    let steady_layers: u64 = tr.layer_us[0].iter().sum();
    out.put(
        "serve.unattributed_share",
        1.0 - share(steady_layers, steady),
        "ratio",
    );
    out.put("serve.traced_wall_s", s(tr.wall_us), "s");
    out.put("serve.untraced_wall_s", s(round.wall_us), "s");
    let layer = |i: usize| tr.layer_us[0][i] + tr.layer_us[1][i];
    tree(
        out,
        "serve ticks",
        &[
            ("forecast", layer(0)),
            ("features", layer(1)),
            ("classify", layer(2)),
        ],
        steady + boundary,
    );
    out.notes.push(format!(
        "serve steady ticks attributed {:.1}%; {} of {} blocks idle; boundary pushes p50 {:?} max {:?} us",
        100.0 * share(steady_layers, steady),
        tr.idle_blocks,
        tr.boundary_push_us.len(),
        median_us(&tr.boundary_push_us),
        tr.boundary_push_us.iter().max(),
    ));
}

fn traced_offline(inputs: &Inputs, out: &mut Outcome) {
    let trained = train(&inputs.train_apps);
    let untraced = replay_test(&trained.model, &inputs.test_trace);
    let tr = traced_train(&inputs.train_apps, &trained);
    out.check(
        tr.records_match,
        "label replica cost records equal label_fleet's",
    );
    out.check(
        tr.model_match,
        "train replica scaler, centroids and forecaster map equal train_from_labels's",
    );
    let traced = traced_replay(&trained.model, &inputs.test_trace);
    let (femux, knative) = (&traced.femux, &traced.knative);
    out.check(
        femux.wrapper_mismatches + knative.wrapper_mismatches == 0
            && femux.jobs == untraced.femux.jobs
            && knative.jobs == untraced.knative.jobs,
        "timing wrapper leaves every SimResult and EngineStats unchanged (offline replay)",
    );
    for r in [femux, knative] {
        out.attempted += r.jobs.len() as u64;
        out.failed += r.failed;
    }
    let kinds = femux::config::FemuxConfig::default().forecasters;
    for (k, kind) in kinds.iter().enumerate() {
        out.put(format!("label.{}_s", kind.name()), s(tr.strided_us[k]), "s");
    }
    out.put("label.costs_s", s(tr.costs_us), "s");
    out.put("features.extract_all_s", s(tr.extract_us), "s");
    out.put("classify.fit_s", s(tr.fit_us), "s");
    out.put(
        "train.unattributed_share",
        1.0 - share(tr.attributed_us(), tr.total_us),
        "ratio",
    );
    out.put("train.traced_wall_s", s(tr.total_us), "s");
    out.put("train.untraced_wall_s", s(trained.train_us), "s");
    let mut rows: Vec<(String, u64)> = kinds
        .iter()
        .enumerate()
        .map(|(k, kind)| (format!("label.{}", kind.name()), tr.strided_us[k]))
        .collect();
    rows.push(("label.costs".into(), tr.costs_us));
    rows.push(("features.extract_all".into(), tr.extract_us));
    rows.push(("classify.fit".into(), tr.fit_us));
    let rows: Vec<(&str, u64)> = rows.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    tree(out, "train", &rows, tr.total_us);

    let policy = femux.policy_us + knative.policy_us;
    out.put("replay.policy_s", s(policy), "s");
    out.put(
        "replay.engine_s",
        s(traced.replay_us.saturating_sub(policy)),
        "s",
    );
    let ticks = femux.stats.ticks + knative.stats.ticks;
    let batched = femux.stats.batched_ticks + knative.stats.batched_ticks;
    out.put("replay.ticks", ticks as f64, "count");
    out.put("replay.batched_ticks", batched as f64, "count");
    out.put(
        "replay.idle_share",
        share(batched, ticks + batched),
        "ratio",
    );
    out.put("replay.traced_wall_s", s(traced.replay_us), "s");
    out.put("replay.untraced_wall_s", s(untraced.replay_us), "s");
}

fn traced_sim(inputs: &Inputs, seed: u64, out: &mut Outcome) {
    let mut traced_wall = 0;
    let mut untraced_wall = 0;
    for phase in PHASES {
        let (jobs, cfg) = phase_jobs(inputs, phase, seed);
        let plain = replay(&jobs, &cfg);
        let r = replay_traced(&jobs, &cfg);
        out.check(
            r.wrapper_mismatches == 0 && plain.jobs == r.jobs,
            &format!("timing wrapper leaves every SimResult and EngineStats unchanged ({phase})"),
        );
        out.attempted += r.jobs.len() as u64;
        out.failed += r.failed;
        traced_wall += r.wall_us;
        untraced_wall += plain.wall_us;
        let st = r.stats;
        out.put(
            format!("sim.{phase}.engine_s"),
            s(r.wall_us.saturating_sub(r.policy_us)),
            "s",
        );
        out.put(format!("sim.{phase}.policy_s"), s(r.policy_us), "s");
        if phase == "sparse" {
            out.put(
                "sim.sparse_inv_per_s",
                plain.invocations as f64 * 1e6 / plain.wall_us.max(1) as f64,
                "1/s",
            );
        }
        out.put(format!("sim.{phase}.arrivals"), st.arrivals as f64, "count");
        out.put(format!("sim.{phase}.ticks"), st.ticks as f64, "count");
        out.put(
            format!("sim.{phase}.idle_transitions"),
            st.idle_transitions as f64,
            "count",
        );
        out.put(
            format!("sim.{phase}.batched_ticks"),
            st.batched_ticks as f64,
            "count",
        );
        out.put(
            format!("sim.{phase}.batched_share"),
            share(st.batched_ticks, st.ticks + st.batched_ticks),
            "ratio",
        );
        if let Some(c) = &r.cluster {
            out.put(format!("cluster.{phase}.placed"), c.placed as f64, "count");
            out.put(
                format!("cluster.{phase}.evictions"),
                c.evictions as f64,
                "count",
            );
            out.put(
                format!("cluster.{phase}.saturated_overcommits"),
                c.saturated_overcommits as f64,
                "count",
            );
            out.put(
                format!("cluster.{phase}.placement_denials"),
                c.placement_denials as f64,
                "count",
            );
            if phase == "crash" {
                out.put("fault.node_crashes", c.node_crashes as f64, "count");
                out.put("fault.pods_displaced", c.pods_displaced as f64, "count");
            }
        }
    }
    out.put("sim.traced_wall_s", s(traced_wall), "s");
    out.put("sim.untraced_wall_s", s(untraced_wall), "s");
}
