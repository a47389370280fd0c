//! One benchmark invocation: set-up, the timed phase (or the traced
//! phase), the checks and the metrics.

use crate::checks::{self, Failures, Reference};
use crate::mirror::{served_matches, Exit, Mirror};
use crate::trace::{Totals, Tracer};
use crate::workload::{
    self, closed_loop, new_server, Env, Kind, Order, Record, Size, WorkloadSpec, SLOTS,
};
use crate::Result;
use dtsnn_core::DynamicEvaluation;
use dtsnn_serve::{RealClock, Server};
use dtsnn_snn::{LayerGeometry, Snn};
use dtsnn_tensor::{Conv2dSpec, Tensor, Workspace};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line options of one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Seed of the round orders.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work besides the measured phase.
    pub size: Size,
    /// Where the traced mode writes its spans (none: not written).
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What an invocation reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Inferences attempted in the measured phase.
    pub attempted: u64,
    /// Inferences that failed (an error aborts the run instead, so 0).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Host and run context, as `(key, JSON value)` pairs.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The context line.
    pub fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"context\": {{{}}}}}", fields.join(", "))
    }

    /// The value of a metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN or infinity; a non-finite metric is a benchmark bug
        // and must not pass as a measurement
        "null".into()
    }
}

fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    // nearest rank
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Conv MACs of one sample's timestep (`Conv2dSpec::macs` over the
/// backbone's conv geometry, residual-block convs included).
///
/// # Errors
///
/// Propagates geometry errors.
pub fn conv_macs_per_row(env: &Env) -> Result<u64> {
    let mut macs = 0u64;
    for g in env.spec.fixture.arch.geometry(&env.model_cfg) {
        if let LayerGeometry::Conv {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_h,
            in_w,
        } = g
        {
            macs += Conv2dSpec::new(in_channels, out_channels, kernel, stride, padding)?
                .macs(in_h, in_w)? as u64;
        }
    }
    Ok(macs)
}

/// Runs one invocation. `process_start` anchors the first set-up.
///
/// # Errors
///
/// Propagates library errors (an operation that errors aborts the run).
pub fn run(opts: &Options, process_start: Instant) -> Result<Report> {
    dtsnn_tensor::parallel::set_threads(1);
    let spec = opts.spec;
    let mut setup_tracer = Tracer::new();
    let mut setup_times = Vec::with_capacity(opts.size.setup_reps);
    let mut env: Option<Env> = None;
    for rep in 0..opts.size.setup_reps.max(1) {
        // free the previous set-up first, so each one starts from the same heap
        drop(env.take());
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let tracer = if opts.trace {
            Some(&mut setup_tracer)
        } else {
            None
        };
        env = Some(workload::setup(&spec, opts.size, tracer)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut env = env.ok_or("no set-up ran")?;
    let mut order = Order::new(opts.seed);
    let mut fails = Failures::default();

    let report = if opts.trace {
        traced(opts, &mut env, &mut order, &setup_tracer, &mut fails)?
    } else {
        let (rec, _) = workload::timed_rounds(&mut env, &mut order, opts.seconds, 1)?;
        let reference = check_all(&mut env, &rec, &mut fails)?;
        let mut lat = rec.latencies_ns.clone();
        let dynamic = env
            .profile
            .dynamic_cost(&reference.activity, reference.avg_timesteps)?;
        let metrics = vec![
            Metric {
                name: "setup_s",
                value: median(&setup_times),
                unit: "s",
            },
            // the median round resists seconds-long bursts of host contention
            Metric {
                name: "samples_per_s",
                value: env.len() as f64 / median(&rec.round_walls),
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_ms",
                value: quantile(&mut lat, 0.5) / 1e6,
                unit: "ms",
            },
            Metric {
                name: "latency_p90_ms",
                value: quantile(&mut lat, 0.9) / 1e6,
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: rec.peak_rss_kb as f64 / 1024.0,
                unit: "MB",
            },
            Metric {
                name: "avg_timesteps",
                value: reference.avg_timesteps,
                unit: "timesteps",
            },
            Metric {
                name: "imc_edp_per_sample",
                value: dynamic.edp(),
                unit: "pJ.ns",
            },
        ];
        let mut context = context(&env, &reference);
        context.push(("rounds", rec.rounds.to_string()));
        context.push(("latency_samples", rec.latencies_ns.len().to_string()));
        context.push(("setup_runs_s", format!("{setup_times:?}")));
        Report {
            correct: fails.0.is_empty(),
            attempted: rec.samples as u64,
            failed: 0,
            metrics,
            failures: fails.0,
            context,
        }
    };
    Ok(report)
}

/// The reference pass and every check of the record against it.
fn check_all(env: &mut Env, rec: &Record, fails: &mut Failures) -> Result<Reference> {
    let reference = checks::reference(env)?;
    checks::check_reference(env, &reference, fails)?;
    checks::check_imc(env, &reference, fails)?;
    checks::check_record(env, &reference, rec, fails);
    Ok(reference)
}

fn context(env: &Env, reference: &Reference) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        ("workload", format!("\"{}\"", env.spec.name)),
        ("host_cores", cores.to_string()),
        (
            "cpu_features",
            format!("\"{}\"", dtsnn_tensor::simd::cpu_features()),
        ),
        (
            "simd_level",
            format!("\"{}\"", dtsnn_tensor::simd::level().name()),
        ),
        (
            "worker_threads",
            dtsnn_tensor::parallel::num_threads().to_string(),
        ),
        ("samples_per_round", env.len().to_string()),
        ("theta", env.spec.theta.to_string()),
        ("accuracy", reference.accuracy.to_string()),
        ("exit_histogram", format!("{:?}", reference.histogram)),
    ]
}

/// Spans and side observations of the traced phase.
struct Traced {
    /// The workload's own calls and its mirror.
    main: Tracer,
    /// Calls the workload does not make itself, recorded elsewhere: a
    /// serving probe over the same inputs (single and batched paths) or
    /// the solo runs behind the serving parity check.
    other: Tracer,
    /// Queue waits of served requests, nanoseconds.
    queue_waits: Vec<u64>,
    /// Dispatch counters of the main mirror.
    bitset: u64,
    dispatches: u64,
    /// Arena misses and timesteps of the serving replays.
    misses: u64,
    replay_steps: u64,
    /// Wall time of the traced rounds.
    wall: f64,
    rounds: usize,
}

fn traced(
    opts: &Options,
    env: &mut Env,
    order: &mut Order,
    setup: &Tracer,
    fails: &mut Failures,
) -> Result<Report> {
    env.net.reset_workspace_stats();
    let (rec, wall_untraced) = workload::timed_rounds(env, order, opts.seconds / 2.0, 1)?;
    // arena misses per timestep of the workload's own calls; the serving
    // engine's net is private, so there they come from the replays
    let (misses, miss_steps) = if env.spec.kind == Kind::Serve {
        (0, 0)
    } else {
        let forwards = rec
            .seen
            .chunks(env.group())
            .map(|c| c.iter().map(|s| s.timesteps).max().unwrap_or(0) as u64);
        (env.net.workspace_stats().misses, forwards.sum::<u64>())
    };
    let mut t = traced_rounds(
        env,
        order,
        opts.seconds / 2.0,
        1 + rec.rounds,
        opts.size,
        fails,
    )?;
    if env.spec.kind != Kind::Serve {
        t.other = probe(env, order, opts.size, &mut t.queue_waits, fails)?;
    }
    let reference = check_all(env, &rec, fails)?;
    t.main.begin("imc.dynamic_cost", 0);
    let dynamic = env
        .profile
        .dynamic_cost(&reference.activity, reference.avg_timesteps);
    t.main.end();
    let dynamic = dynamic?;

    if let Some(path) = &opts.trace_out {
        setup.write_tsv(&path.with_extension("setup.tsv"))?;
        t.main.write_tsv(&path.with_extension("main.tsv"))?;
        t.other.write_tsv(&path.with_extension("other.tsv"))?;
    }

    let main = t.main.summary();
    let other = t.other.summary();
    let get = |name: &str| -> Totals {
        main.get(name)
            .or_else(|| other.get(name))
            .copied()
            .unwrap_or_default()
    };
    // the totals of `name` and of forward calls, taken from the same tracer
    let with_forward = |name: &str| -> (Totals, Totals) {
        let src = if main.contains_key(name) {
            &main
        } else {
            &other
        };
        let fwd = src.get("snn.forward_timestep").copied().unwrap_or_default();
        (src.get(name).copied().unwrap_or_default(), fwd)
    };
    let sum_ns = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| main.get(n).map_or(0, |t| t.dur_ns))
            .sum()
    };
    let forward = main
        .get("snn.forward_timestep")
        .copied()
        .unwrap_or_default();
    let steps = forward.count.max(1) as f64;
    let conv_ns = sum_ns(&["conv2d", "residual"]);
    let conv_macs = conv_macs_per_row(env)? as f64 * forward.rows as f64;
    let (harness, harness_fwd) = if env.spec.kind == Kind::Batched {
        with_forward("core.run_batched")
    } else {
        with_forward("core.run")
    };
    let (step, step_fwd) = with_forward("serve.step");
    let policy = get("core.policy_score");
    let setup_ms = |name: &str| setup.totals(name).mean_ms();
    let mut waits = t.queue_waits.clone();

    let metrics = vec![
        Metric {
            name: "datasets.generate_ms",
            value: setup_ms("datasets.generate"),
            unit: "ms",
        },
        Metric {
            name: "setup.fixture_load_ms",
            value: setup_ms("setup.fixture_load"),
            unit: "ms",
        },
        Metric {
            name: "setup.recalibrate_ms",
            value: setup_ms("setup.recalibrate"),
            unit: "ms",
        },
        Metric {
            name: "tensor.conv_ms_per_step",
            value: conv_ns as f64 / 1e6 / steps,
            unit: "ms",
        },
        Metric {
            name: "tensor.conv_gmac_per_s",
            value: conv_macs / conv_ns.max(1) as f64,
            unit: "GMAC/s",
        },
        Metric {
            name: "tensor.linear_ms_per_step",
            value: sum_ns(&["linear"]) as f64 / 1e6 / steps,
            unit: "ms",
        },
        Metric {
            name: "tensor.bitset_dispatch_share",
            value: t.bitset as f64 / t.dispatches.max(1) as f64,
            unit: "share",
        },
        Metric {
            name: "snn.forward_ms_per_step",
            value: forward.mean_ms(),
            unit: "ms",
        },
        Metric {
            name: "snn.neuron_ms_per_step",
            value: sum_ns(&["lif", "batchnorm2d", "avgpool2d", "flatten", "dropout"]) as f64
                / 1e6
                / steps,
            unit: "ms",
        },
        Metric {
            name: "snn.compact_ms_per_call",
            value: get("snn.compact_batch").mean_ms(),
            unit: "ms",
        },
        Metric {
            name: "snn.admit_ms_per_call",
            value: get("snn.admit_batch_rows").mean_ms(),
            unit: "ms",
        },
        Metric {
            name: "snn.spike_density",
            value: reference.activity.mean() as f64,
            unit: "share",
        },
        Metric {
            name: "snn.arena_misses_per_step",
            value: (misses + t.misses) as f64 / (miss_steps + t.replay_steps).max(1) as f64,
            unit: "count",
        },
        Metric {
            name: "core.overhead_ms_per_sample",
            value: (harness.dur_ns as f64 - harness_fwd.dur_ns as f64)
                / 1e6
                / harness.rows.max(1) as f64,
            unit: "ms",
        },
        Metric {
            name: "core.policy_us_per_row",
            value: policy.dur_ns as f64 / 1e3 / policy.count.max(1) as f64,
            unit: "us",
        },
        Metric {
            name: "core.rows_per_forward",
            value: forward.rows as f64 / steps,
            unit: "rows",
        },
        Metric {
            name: "serve.step_ms",
            value: step.mean_ms(),
            unit: "ms",
        },
        Metric {
            name: "serve.queue_wait_ms_p50",
            value: quantile(&mut waits, 0.5) / 1e6,
            unit: "ms",
        },
        Metric {
            name: "serve.overhead_ms_per_step",
            value: step.mean_ms() - step_fwd.mean_ms(),
            unit: "ms",
        },
        Metric {
            name: "serve.slot_occupancy",
            value: step_fwd.rows as f64 / step_fwd.count.max(1) as f64 / SLOTS as f64,
            unit: "share",
        },
        Metric {
            name: "imc.energy_pj_per_sample",
            value: dynamic.energy_pj(),
            unit: "pJ",
        },
        Metric {
            name: "imc.latency_cycles_per_sample",
            value: dynamic.latency_cycles as f64,
            unit: "cycles",
        },
        Metric {
            name: "trace.overhead_share",
            value: (t.wall / t.rounds as f64) / (wall_untraced / rec.rounds as f64),
            unit: "ratio",
        },
    ];
    let mut context = context(env, &reference);
    context.push(("untraced_rounds", rec.rounds.to_string()));
    context.push(("traced_rounds", t.rounds.to_string()));
    Ok(Report {
        correct: fails.0.is_empty(),
        attempted: (rec.samples + t.rounds * env.len()) as u64,
        failed: 0,
        metrics,
        failures: std::mem::take(&mut fails.0),
        context,
    })
}

/// Whole traced rounds until `seconds` have passed (at least one), after
/// an untimed round over the warm-up samples.
fn traced_rounds(
    env: &mut Env,
    order: &mut Order,
    seconds: f64,
    first_round: usize,
    size: Size,
    fails: &mut Failures,
) -> Result<Traced> {
    let mut p = Passes {
        mirror: Mirror::new(&env.spec)?,
        solo: Mirror::new(&env.spec)?,
        layers: env.net.clone(),
        ws: Workspace::new(),
        server: match env.spec.kind {
            Kind::Serve => Some(new_server(&env.net, &env.spec, true)?),
            _ => None,
        },
        queue_waits: Vec::new(),
        misses: 0,
    };
    let warm: Vec<usize> = (0..size.warmup_samples.min(env.len())).collect();
    traced_round(
        env,
        &mut p,
        &mut Tracer::new(),
        &mut Tracer::new(),
        &warm,
        0,
        fails,
    )?;
    p.queue_waits.clear();
    p.misses = 0;
    let (warm_steps, warm_dispatches, warm_bitset) =
        (p.mirror.steps, p.mirror.dispatches, p.mirror.bitset);

    let (mut main, mut other) = (Tracer::new(), Tracer::new());
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        let perm = order.permutation(env.len(), env.group());
        traced_round(
            env,
            &mut p,
            &mut main,
            &mut other,
            &perm,
            first_round + rounds,
            fails,
        )?;
        rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Traced {
        main,
        other,
        queue_waits: p.queue_waits,
        bitset: p.mirror.bitset - warm_bitset,
        dispatches: p.mirror.dispatches - warm_dispatches,
        misses: p.misses,
        replay_steps: if env.spec.kind == Kind::Serve {
            p.mirror.steps - warm_steps
        } else {
            0
        },
        wall: start.elapsed().as_secs_f64(),
        rounds,
    })
}

/// State the traced rounds carry from round to round.
struct Passes {
    /// Mirror of the workload's own calls.
    mirror: Mirror,
    /// Mirror of the solo runs behind the serving parity check.
    solo: Mirror,
    /// Clone of the net for the layer pass, and its arena.
    layers: Snn,
    ws: Workspace,
    /// The serving workload's traced engine (`record_schedule` on).
    server: Option<Server<RealClock>>,
    queue_waits: Vec<u64>,
    /// Arena misses of the serving replays.
    misses: u64,
}

/// One traced round: each of the workload's own calls under a span,
/// followed at once by its mirror on the same net; then the layer pass.
fn traced_round(
    env: &mut Env,
    p: &mut Passes,
    tr: &mut Tracer,
    other: &mut Tracer,
    perm: &[usize],
    round: usize,
    fails: &mut Failures,
) -> Result<()> {
    match env.spec.kind {
        Kind::Single => {
            solo_pass(env, &mut p.mirror, tr, perm, fails)?;
        }
        Kind::Batched => {
            for chunk in perm.chunks(workload::BATCH) {
                let frames: Vec<_> = chunk.iter().map(|&i| env.frames[i].clone()).collect();
                let labels: Vec<usize> = chunk.iter().map(|&i| env.labels[i]).collect();
                tr.begin("core.run_batched", chunk.len());
                let eval = DynamicEvaluation::run_batched(
                    &mut env.net,
                    &env.runner,
                    &frames,
                    &labels,
                    None,
                    workload::BATCH,
                );
                tr.end();
                let eval = eval?;
                let exits = p.mirror.batched(&mut env.net, tr, &env.frames, chunk)?;
                for ((s, e), &i) in eval.samples.iter().zip(&exits).zip(chunk) {
                    fails.check(
                        s.timesteps_used == e.timesteps
                            && s.correct == (e.prediction == env.labels[i]),
                        || format!("sample {i}: mirrored batch differs from run_batched"),
                    );
                }
            }
        }
        Kind::Serve => {
            let server = p
                .server
                .as_mut()
                .ok_or("serving workload without a server")?;
            // the engine's net is private: count the misses of the replay,
            // which makes the same calls on `env.net` in the same order
            let before = env.net.workspace_stats().misses;
            let served = serve_pass(
                server,
                &mut p.mirror,
                &mut env.net,
                tr,
                &env.frames,
                perm,
                round,
                &mut p.queue_waits,
                fails,
            )?;
            p.misses += env.net.workspace_stats().misses - before;
            // the solo runs behind the parity check, under their own spans
            let solos = solo_pass(env, &mut p.solo, other, perm, fails)?;
            p.solo.clear_script();
            for ((&i, exit), solo) in perm.iter().zip(&served).zip(&solos) {
                fails.check(exit == solo, || {
                    format!("sample {i}: served and solo runs disagree")
                });
            }
        }
    }
    p.mirror.replay_layers(&mut p.layers, &mut p.ws, tr)
}

/// `DynamicInference::run` on each sample of `perm` under a span, each
/// followed by its mirror, which must agree with it. Returns the mirrored
/// exits.
fn solo_pass(
    env: &mut Env,
    m: &mut Mirror,
    tr: &mut Tracer,
    perm: &[usize],
    fails: &mut Failures,
) -> Result<Vec<Exit>> {
    let mut exits = Vec::with_capacity(perm.len());
    for &i in perm {
        tr.begin("core.run", 1);
        let out = env.runner.run(&mut env.net, &env.frames[i]);
        tr.end();
        let out = out?;
        let e = m.solo(&mut env.net, tr, &env.frames[i])?;
        fails.check(
            e.timesteps == out.timesteps_used
                && e.prediction == out.prediction
                && e.scores == out.scores,
            || format!("sample {i}: mirrored solo run differs from DynamicInference::run"),
        );
        exits.push(e);
    }
    Ok(exits)
}

/// One closed-loop round with each engine step under a span, then the
/// round's schedule replayed on `net`. The replay waits for the round to
/// end because the engine's net and `net` hold separate weights, which
/// would evict each other from the cache if they alternated step by step.
/// Appends the requests' queue waits and returns each request's mirrored
/// exit in `perm` order.
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    server: &mut Server<RealClock>,
    m: &mut Mirror,
    net: &mut Snn,
    tr: &mut Tracer,
    frames: &[Vec<Tensor>],
    perm: &[usize],
    round: usize,
    queue_waits: &mut Vec<u64>,
    fails: &mut Failures,
) -> Result<Vec<Exit>> {
    let sample_of = |id: u64| perm[(id & 0xffff_ffff) as usize];
    let mut outcomes = Vec::with_capacity(perm.len());
    let mut exits: HashMap<u64, Exit> = HashMap::with_capacity(perm.len());
    closed_loop(
        server,
        frames,
        perm,
        round,
        |o, _| outcomes.push(o),
        |s| {
            tr.begin("serve.step", 0);
            let worked = s.step();
            tr.end();
            Ok(worked?)
        },
    )?;
    let mut admitted_at: Vec<(u64, u64)> = Vec::with_capacity(perm.len());
    for rec in server.take_schedule() {
        admitted_at.extend(rec.admitted.iter().map(|&id| (id, rec.start_nanos)));
        exits.extend(m.replay_step(net, tr, frames, sample_of, &rec)?);
    }
    if m.window_open() {
        return Err("the replayed serving window is still open after the round".into());
    }
    let arrival: HashMap<u64, u64> = outcomes.iter().map(|o| (o.id, o.arrival_nanos)).collect();
    for (id, start) in admitted_at {
        queue_waits.push(start.saturating_sub(arrival[&id]));
    }
    for o in &outcomes {
        let same = exits.get(&o.id).is_some_and(|e| served_matches(o, e));
        fails.check(same, || {
            format!(
                "request {:#x}: mirrored replay differs from the served outcome",
                o.id
            )
        });
    }
    (0..perm.len())
        .map(|pos| {
            exits
                .remove(&workload::request_id(round, pos))
                .ok_or_else(|| "request without an exit".into())
        })
        .collect()
}

/// Serving probe for workloads that never call the serving engine,
/// admission or (single path) compaction themselves: one traced
/// closed-loop round over the same inputs and net after a warm-up round, so
/// those layers' metrics are defined on every workload.
fn probe(
    env: &mut Env,
    order: &mut Order,
    size: Size,
    queue_waits: &mut Vec<u64>,
    fails: &mut Failures,
) -> Result<Tracer> {
    let mut server = new_server(&env.net, &env.spec, true)?;
    let mut m = Mirror::new(&env.spec)?;
    let warm: Vec<usize> = (0..size.warmup_samples.min(env.len())).collect();
    let perm = order.permutation(env.len(), env.group());
    let mut tr = Tracer::new();
    for (samples, round, tracer, waits) in [
        (&warm[..], 0, &mut Tracer::new(), &mut Vec::new()),
        (&perm[..], 1, &mut tr, queue_waits),
    ] {
        serve_pass(
            &mut server,
            &mut m,
            &mut env.net,
            tracer,
            &env.frames,
            samples,
            round,
            waits,
            fails,
        )?;
        m.clear_script();
    }
    Ok(tr)
}
