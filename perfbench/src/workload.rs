//! The three workloads: their inputs, their set-up and their timed loops.
//!
//! Every workload runs a fixed input set (a test split of the fixture's
//! dataset) in whole rounds. The seed only permutes the order of the set
//! within each round, so the work of a round, its T̂ and its modeled EDP are
//! the same for every seed, while batch compositions and serving schedules
//! change with it.

use crate::fixtures::{self, batch1, FixtureSpec};
use crate::trace::Tracer;
use crate::Result;
use dtsnn_bench::hardware_profile_for;
use dtsnn_core::{DynamicEvaluation, DynamicInference, ExitPolicy, HardwareProfile};
use dtsnn_serve::{
    CompletionStatus, RealClock, Request, RequestOutcome, Server, ServerConfig, ServiceModel,
    ThetaController,
};
use dtsnn_snn::{ModelConfig, Snn};
use dtsnn_tensor::Tensor;
use std::time::Instant;

/// Rows per `run_batched` call on the batch-16 workload.
pub const BATCH: usize = 16;
/// Serving slots (the engine's batch-width ceiling).
pub const SLOTS: usize = 16;
/// In-process closed-loop clients of the serving workload.
pub const CLIENTS: usize = 32;

/// Which public path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `DynamicInference::run`, one sample per call.
    Single,
    /// `DynamicEvaluation::run_batched` on [`BATCH`]-sample slices.
    Batched,
    /// `serve::Server` under a closed loop of [`CLIENTS`] clients.
    Serve,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Trained net and dataset.
    pub fixture: FixtureSpec,
    /// Entropy threshold θ.
    pub theta: f32,
    /// Driven path.
    pub kind: Kind,
    /// Test samples in one round (a multiple of [`BATCH`] for batched runs).
    pub samples: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "cifar-vgg-b1",
        fixture: fixtures::VGG_CIFAR,
        // at 0.5 the median sample sits two ranks below the jump from
        // two-step to four-step latencies, so p50 flips between the modes
        // under host contention; at 0.6 it lies 16 ranks inside one mode
        theta: 0.6,
        kind: Kind::Single,
        samples: 300,
    },
    WorkloadSpec {
        name: "cifar-resnet-b16",
        fixture: fixtures::RESNET_CIFAR,
        theta: 0.85,
        kind: Kind::Batched,
        samples: 288,
    },
    WorkloadSpec {
        name: "dvs-vgg-serve",
        fixture: fixtures::VGG_DVS,
        theta: 0.5,
        kind: Kind::Serve,
        samples: 200,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work one invocation does besides its timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Cap on the samples of a round (the workload's own count when larger).
    pub samples: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Operations of the untimed warm-up inside each set-up.
    pub warmup_samples: usize,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        samples: usize::MAX,
        setup_reps: 3,
        warmup_samples: 32,
    };
    /// A few-second size that still runs every check.
    pub const SMOKE: Size = Size {
        samples: 48,
        setup_reps: 1,
        warmup_samples: 16,
    };
}

/// A workload ready to run: the recalibrated net, the inputs and the
/// hardware profile.
pub struct Env {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Model hyperparameters of the fixture.
    pub model_cfg: ModelConfig,
    /// The recalibrated fixture net driven by the single and batched paths.
    pub net: Snn,
    /// Per-sample frames, `[c, h, w]` each (one, or `T` for event data).
    pub frames: Vec<Vec<Tensor>>,
    /// Per-sample labels.
    pub labels: Vec<usize>,
    /// The dynamic-inference runner (entropy policy at the workload's θ).
    pub runner: DynamicInference,
    /// IMC mapping and cost model of the backbone.
    pub profile: HardwareProfile,
    /// The serving engine (serving workload only), driven by a clone of
    /// [`Env::net`].
    pub server: Option<Server<RealClock>>,
}

impl Env {
    /// Window `T`.
    pub fn timesteps(&self) -> usize {
        self.spec.fixture.timesteps
    }

    /// Samples in one round.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Samples the seed's shuffle keeps together: whole batches on the
    /// batched path, so every round runs the same batch compositions (the
    /// allocation pattern of compaction depends on them) in a seeded order.
    pub fn group(&self) -> usize {
        if self.spec.kind == Kind::Batched {
            BATCH
        } else {
            1
        }
    }

    /// Whether the input set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Builds a serving engine for the closed loop around a clone of `net`.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn new_server(
    net: &Snn,
    spec: &WorkloadSpec,
    record_schedule: bool,
) -> Result<Server<RealClock>> {
    let config = ServerConfig {
        max_timesteps: spec.fixture.timesteps,
        slots: SLOTS,
        queue_capacity: 2 * CLIENTS,
        theta: ThetaController::fixed(spec.theta)?,
        // ignored under a real clock
        service: ServiceModel {
            step_fixed_nanos: 0,
            step_per_row_nanos: 0,
        },
        default_deadline_nanos: None,
        record_schedule,
    };
    Ok(Server::new(net.clone(), config, RealClock::new())?)
}

/// Generates the data, loads and checks the fixture, recalibrates its
/// BatchNorm statistics, builds the workload's engine and warms it up.
/// With a tracer, each phase is recorded as a span.
///
/// # Errors
///
/// Fails on a bad fixture and propagates library errors.
pub fn setup(spec: &WorkloadSpec, size: Size, mut tr: Option<&mut Tracer>) -> Result<Env> {
    let data = in_span(&mut tr, "datasets.generate", || {
        fixtures::dataset(&spec.fixture)
    })?;
    let (mut net, model_cfg) = in_span(&mut tr, "setup.fixture_load", || {
        fixtures::load(&spec.fixture, &data)
    })?;
    in_span(&mut tr, "setup.recalibrate", || {
        fixtures::recalibrate(&spec.fixture, &mut net, &data)
    })?;
    release_free_heap();

    let n = spec.samples.min(size.samples).min(data.test.len());
    let test = &data.test.samples[..n];
    let frames: Vec<Vec<Tensor>> = test.iter().map(|s| s.frames.clone()).collect();
    let labels: Vec<usize> = test.iter().map(|s| s.label).collect();
    let runner = DynamicInference::new(ExitPolicy::entropy(spec.theta)?, spec.fixture.timesteps)?;
    let profile = hardware_profile_for(spec.fixture.arch, &model_cfg)?;
    let server = match spec.kind {
        Kind::Serve => Some(new_server(&net, spec, false)?),
        _ => None,
    };
    let mut env = Env {
        spec: *spec,
        model_cfg,
        net,
        frames,
        labels,
        runner,
        profile,
        server,
    };

    let warm: Vec<usize> = (0..size.warmup_samples.min(env.len())).collect();
    in_span(&mut tr, "setup.warmup", || {
        run_round(&mut env, &warm, 0, &mut Record::default())
    })?;
    Ok(env)
}

/// Runs `f` inside a span named `name` when a tracer is given.
fn in_span<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if let Some(t) = tr.as_deref_mut() {
        t.begin(name, 0);
    }
    let r = f();
    if let Some(t) = tr.as_deref_mut() {
        t.end();
    }
    r
}

/// One terminated inference, as the timed loop saw it. Entries are
/// fixed-size so the record's own growth barely touches the heap the
/// workload is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seen {
    /// Round (serving request ids are tagged with it).
    pub round: u32,
    /// Sample index.
    pub sample: u32,
    /// Timesteps used.
    pub timesteps: u32,
    /// Predicted class, where the path reports one.
    pub prediction: Option<u32>,
    /// Whether the prediction was correct, where the path reports only that.
    pub correct: Option<bool>,
    /// Early-exit flag, where the path reports one.
    pub exited_early: Option<bool>,
    /// FNV-1a of the score trace's bits, where the path reports one.
    pub scores: Option<u64>,
}

/// FNV-1a of a score trace's bit patterns.
pub fn scores_hash(scores: &[f32]) -> u64 {
    fixtures::fnv1a64(scores.iter().flat_map(|s| s.to_bits().to_le_bytes()))
}

/// What the timed loop observed.
#[derive(Debug, Default)]
pub struct Record {
    /// One latency per operation, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Every terminated inference.
    pub seen: Vec<Seen>,
    /// Samples completed.
    pub samples: usize,
    /// Rounds completed.
    pub rounds: usize,
    /// Wall time of each timed round, seconds.
    pub round_walls: Vec<f64>,
    /// Resident-set high-water sampled during the loop, kB.
    pub peak_rss_kb: u64,
}

impl Record {
    /// A record whose vectors are reserved up front: untouched reserved
    /// pages are not resident, and no reallocation happens mid-loop.
    pub fn reserved() -> Self {
        Record {
            latencies_ns: Vec::with_capacity(1 << 20),
            seen: Vec::with_capacity(1 << 20),
            round_walls: Vec::with_capacity(1 << 12),
            peak_rss_kb: rss_kb(),
            ..Record::default()
        }
    }
}

/// Runs one round over `order` (sample indices) through the workload's
/// path, appending to `rec`. `round` tags serving request ids.
///
/// # Errors
///
/// Propagates library errors and fails when the server refuses or loses a
/// request.
pub fn run_round(env: &mut Env, order: &[usize], round: usize, rec: &mut Record) -> Result<()> {
    match env.spec.kind {
        Kind::Single => {
            for (k, &i) in order.iter().enumerate() {
                let start = Instant::now();
                let out = env.runner.run(&mut env.net, &env.frames[i])?;
                rec.latencies_ns.push(start.elapsed().as_nanos() as u64);
                rec.seen.push(Seen {
                    round: round as u32,
                    sample: i as u32,
                    timesteps: out.timesteps_used as u32,
                    prediction: Some(out.prediction as u32),
                    correct: None,
                    exited_early: Some(out.exited_early),
                    scores: Some(scores_hash(&out.scores)),
                });
                sample_rss(rec, k);
            }
        }
        Kind::Batched => {
            let frames: Vec<Vec<Tensor>> = order.iter().map(|&i| env.frames[i].clone()).collect();
            let labels: Vec<usize> = order.iter().map(|&i| env.labels[i]).collect();
            for (k, ((f, l), idx)) in frames
                .chunks(BATCH)
                .zip(labels.chunks(BATCH))
                .zip(order.chunks(BATCH))
                .enumerate()
            {
                let start = Instant::now();
                let eval =
                    DynamicEvaluation::run_batched(&mut env.net, &env.runner, f, l, None, BATCH)?;
                rec.latencies_ns.push(start.elapsed().as_nanos() as u64);
                for (s, &i) in eval.samples.iter().zip(idx) {
                    rec.seen.push(Seen {
                        round: round as u32,
                        sample: i as u32,
                        timesteps: s.timesteps_used as u32,
                        prediction: None,
                        correct: Some(s.correct),
                        exited_early: None,
                        scores: None,
                    });
                }
                sample_rss(rec, k);
            }
        }
        Kind::Serve => {
            let server = env
                .server
                .as_mut()
                .ok_or("serving workload without a server")?;
            let record = |o: RequestOutcome, sample: usize| {
                rec.latencies_ns.push(o.latency_nanos());
                let completed = o.status == CompletionStatus::Completed;
                rec.seen.push(Seen {
                    round: round as u32,
                    sample: sample as u32,
                    timesteps: o.timesteps_used as u32,
                    // a request that did not complete has no valid prediction
                    prediction: o.prediction.filter(|_| completed).map(|p| p as u32),
                    correct: None,
                    exited_early: Some(o.exited_early),
                    scores: Some(scores_hash(&o.scores)),
                });
                let k = rec.seen.len();
                sample_rss(rec, k);
            };
            closed_loop(server, &env.frames, order, round, record, |s| Ok(s.step()?))?;
        }
    }
    rec.samples += order.len();
    Ok(())
}

/// Request id of position `pos` of round `round`.
pub fn request_id(round: usize, pos: usize) -> u64 {
    ((round as u64) << 32) | pos as u64
}

/// Drives `server` with a closed loop: [`CLIENTS`] clients each keep one
/// request outstanding and submit the next sample of `order` as soon as
/// theirs terminates, until every request of the round has terminated.
/// `step` makes one engine step (plainly, or traced); `done` sees each
/// outcome with its sample.
///
/// # Errors
///
/// Propagates engine errors and fails when a request is refused, when an
/// id terminates twice or when the engine idles with requests outstanding.
pub fn closed_loop(
    server: &mut Server<RealClock>,
    frames: &[Vec<Tensor>],
    order: &[usize],
    round: usize,
    mut done: impl FnMut(RequestOutcome, usize),
    mut step: impl FnMut(&mut Server<RealClock>) -> Result<bool>,
) -> Result<()> {
    let n = order.len();
    let mut terminated = vec![false; n];
    let mut left = n;
    let mut next = 0usize;
    let submit = |server: &mut Server<RealClock>, next: &mut usize| -> Result<()> {
        let pos = *next;
        let request = Request {
            id: request_id(round, pos),
            frames: frames[order[pos]].clone(),
            deadline_nanos: None,
            priority: 0,
        };
        if !server.submit(request)? {
            return Err(format!("server refused request {pos} of round {round}").into());
        }
        *next += 1;
        Ok(())
    };
    while next < n.min(CLIENTS) {
        submit(server, &mut next)?;
    }
    while left > 0 {
        if !step(server)? {
            return Err(format!("server idle with {left} requests outstanding").into());
        }
        for o in server.take_outcomes() {
            let pos = (o.id & 0xffff_ffff) as usize;
            if o.id >> 32 != round as u64 || pos >= n || terminated[pos] {
                return Err(
                    format!("request id {:#x} terminated twice or is unknown", o.id).into(),
                );
            }
            terminated[pos] = true;
            left -= 1;
            done(o, order[pos]);
            if next < n {
                submit(server, &mut next)?;
            }
        }
    }
    Ok(())
}

fn sample_rss(rec: &mut Record, k: usize) {
    if k.is_multiple_of(8) {
        rec.peak_rss_kb = rec.peak_rss_kb.max(rss_kb());
    }
}

/// Hands freed heap pages back to the OS. The recalibration pass frees
/// 80–100 MB of Train-mode caches that the allocator would otherwise keep
/// resident, and resident-but-free pages would absorb, and so hide, any
/// growth in inference memory that `peak_rss_mb` is there to show.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only returns free memory to the OS; it
    // takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Hands freed heap pages back to the OS (no-op off glibc).
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// Current resident set size of this process in kB (0 where unavailable).
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Seeded order source: a SplitMix64 stream driving Fisher–Yates shuffles.
#[derive(Debug, Clone)]
pub struct Order {
    state: u64,
}

impl Order {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Order {
            state: seed ^ 0x5eed_0f0e_de12_a11c,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fresh permutation of `0..n` that keeps consecutive groups of
    /// `group` indices together: the groups are shuffled, then the indices
    /// within each group. With `group` 1 it is a plain shuffle.
    pub fn permutation(&mut self, n: usize, group: usize) -> Vec<usize> {
        let mut groups: Vec<Vec<usize>> = (0..n)
            .collect::<Vec<_>>()
            .chunks(group.max(1))
            .map(<[usize]>::to_vec)
            .collect();
        self.shuffle(&mut groups);
        for g in &mut groups {
            self.shuffle(g);
        }
        groups.concat()
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Runs whole rounds until `seconds` have passed (at least one round).
/// Returns the record and the wall time of the rounds.
///
/// # Errors
///
/// Propagates [`run_round`] errors.
pub fn timed_rounds(
    env: &mut Env,
    order: &mut Order,
    seconds: f64,
    first_round: usize,
) -> Result<(Record, f64)> {
    let mut rec = Record::reserved();
    let start = Instant::now();
    let mut round = first_round;
    loop {
        let perm = order.permutation(env.len(), env.group());
        let round_start = Instant::now();
        run_round(env, &perm, round, &mut rec)?;
        rec.round_walls.push(round_start.elapsed().as_secs_f64());
        round += 1;
        rec.rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    rec.peak_rss_kb = rec.peak_rss_kb.max(rss_kb());
    Ok((rec, wall))
}

/// `[1, c, h, w]` input of one sample at (0-based) timestep `t`.
///
/// # Errors
///
/// Propagates shape errors.
pub fn input_at(frames: &[Tensor], t: usize) -> Result<Tensor> {
    batch1(if frames.len() == 1 {
        &frames[0]
    } else {
        &frames[t]
    })
}
