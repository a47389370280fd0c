//! The traced mode's mirrors: each workload re-executed from the public
//! per-timestep functions, with a span around every call.
//!
//! A mirror pass drives the workload's own net through
//! `Snn::forward_timestep`, `compact_batch` and `admit_batch_rows` as the
//! program's harnesses do, and folds and scores each row with the
//! harnesses' f32 chain around `ExitPolicy::score`, so every mirrored exit
//! must match the outcome the program reported. It also records what it
//! did as a script. A layer pass then plays the script on a second clone
//! of the net, one timestep at a time through `Snn::layers_mut()` and
//! `Layer::forward_ws` on a benchmark-owned `Workspace`, with a span per
//! layer, and each timestep's logits must equal the mirror's bitwise.
//! A single or batched program call is followed at once by its mirror on
//! the same net, so the two see the same host speed and a warm cache; a
//! serving round is replayed once it ends, and the layer pass, on its own
//! copy of the weights, runs once the round is over.

use crate::trace::Tracer;
use crate::workload::{input_at, WorkloadSpec};
use crate::Result;
use dtsnn_core::ExitPolicy;
use dtsnn_serve::{RequestOutcome, StepRecord};
use dtsnn_snn::{Mode, Snn};
use dtsnn_tensor::{softmax_rows, Tensor, Workspace};

/// One recorded call of a mirror pass.
#[derive(Debug, Clone)]
enum Op {
    Reset,
    Admit(usize),
    Compact(Vec<usize>),
    /// The input and the logits it produced.
    Forward(Tensor, Vec<f32>),
}

/// Re-executes a workload's harness loop from public per-timestep calls.
pub struct Mirror {
    policy: ExitPolicy,
    theta: f32,
    t_max: usize,
    script: Vec<Op>,
    /// Open window of a serving replay: request id and row state.
    window: Vec<(u64, Row)>,
    /// Dispatched kernels seen after each forward.
    pub dispatches: u64,
    /// Bitset dispatches among [`Mirror::dispatches`].
    pub bitset: u64,
    /// Forward calls made.
    pub steps: u64,
}

/// One active row of a mirrored window.
#[derive(Debug, Clone)]
struct Row {
    /// Sample index into the caller's frames.
    sample: usize,
    /// Timesteps this row has run.
    t: usize,
    /// Eq. 5 numerator.
    acc: Vec<f32>,
    scores: Vec<f32>,
}

impl Row {
    fn new(sample: usize) -> Self {
        Row {
            sample,
            t: 0,
            acc: Vec::new(),
            scores: Vec::new(),
        }
    }
}

/// What a mirrored row ended with.
#[derive(Debug, Clone, PartialEq)]
pub struct Exit {
    /// Timesteps used.
    pub timesteps: usize,
    /// Argmax of the accumulated output.
    pub prediction: usize,
    /// Policy score at each timestep.
    pub scores: Vec<f32>,
}

impl Mirror {
    /// A mirror for `spec`'s policy and window.
    ///
    /// # Errors
    ///
    /// Fails on an invalid θ.
    pub fn new(spec: &WorkloadSpec) -> Result<Self> {
        Ok(Mirror {
            policy: ExitPolicy::entropy(spec.theta)?,
            theta: spec.theta,
            t_max: spec.fixture.timesteps,
            script: Vec::new(),
            window: Vec::new(),
            dispatches: 0,
            bitset: 0,
            steps: 0,
        })
    }

    /// Drops the calls recorded since the last layer pass.
    pub fn clear_script(&mut self) {
        self.script.clear();
    }

    fn reset(&mut self, net: &mut Snn) {
        net.reset_state();
        self.script.push(Op::Reset);
    }

    fn admit(&mut self, net: &mut Snn, tr: &mut Tracer, extra: usize) -> Result<()> {
        tr.begin("snn.admit_batch_rows", extra);
        let r = net.admit_batch_rows(extra);
        tr.end();
        r?;
        self.script.push(Op::Admit(extra));
        Ok(())
    }

    fn compact(&mut self, net: &mut Snn, tr: &mut Tracer, keep: &[usize]) -> Result<()> {
        tr.begin("snn.compact_batch", keep.len());
        let r = net.compact_batch(keep);
        tr.end();
        r?;
        self.script.push(Op::Compact(keep.to_vec()));
        Ok(())
    }

    /// One timestep; returns the logits (from `net`'s arena).
    fn forward(&mut self, net: &mut Snn, tr: &mut Tracer, input: Tensor) -> Result<Tensor> {
        tr.begin("snn.forward_timestep", input.dims()[0]);
        let logits = net.forward_timestep(&input, Mode::Eval);
        tr.end();
        let logits = logits?;
        self.steps += 1;
        for (_, backend) in net.layer_backends() {
            self.dispatches += 1;
            self.bitset += (backend == "bitset") as u64;
        }
        self.script.push(Op::Forward(input, logits.data().to_vec()));
        Ok(logits)
    }

    /// Folds one row's logits and scores the policy, exactly as the
    /// program's per-row fold does. Returns the exit when the row exits.
    fn fold(&self, tr: &mut Tracer, row: &mut Row, l_row: &[f32]) -> Result<Option<Exit>> {
        row.t += 1;
        if row.acc.is_empty() {
            row.acc.extend_from_slice(l_row);
        } else {
            for (a, &l) in row.acc.iter_mut().zip(l_row) {
                *a += l;
            }
        }
        let inv_t = 1.0 / row.t as f32;
        let f_t = Tensor::from_vec(
            row.acc.iter().map(|&a| a * inv_t).collect(),
            &[1, l_row.len()],
        )?;
        let probs = softmax_rows(&f_t)?;
        tr.begin("core.policy_score", 1);
        let score = self.policy.score(probs.data());
        tr.end();
        row.scores.push(score);
        if score < self.theta || row.t >= self.t_max {
            let prediction = probs.row(0)?.argmax()?;
            return Ok(Some(Exit {
                timesteps: row.t,
                prediction,
                scores: std::mem::take(&mut row.scores),
            }));
        }
        Ok(None)
    }

    /// Runs one sample alone (the `DynamicInference::run` loop).
    ///
    /// # Errors
    ///
    /// Propagates library errors.
    pub fn solo(&mut self, net: &mut Snn, tr: &mut Tracer, frames: &[Tensor]) -> Result<Exit> {
        self.reset(net);
        let mut row = Row::new(0);
        loop {
            let logits = self.forward(net, tr, input_at(frames, row.t)?)?;
            let exit = self.fold(tr, &mut row, logits.data());
            net.recycle(logits);
            if let Some(e) = exit? {
                return Ok(e);
            }
        }
    }

    /// Runs one batch with active-set compaction (the
    /// `DynamicEvaluation::run_batched` loop). Returns one exit per sample,
    /// in `samples` order.
    ///
    /// # Errors
    ///
    /// Propagates library errors.
    pub fn batched(
        &mut self,
        net: &mut Snn,
        tr: &mut Tracer,
        frames: &[Vec<Tensor>],
        samples: &[usize],
    ) -> Result<Vec<Exit>> {
        self.reset(net);
        let mut exits: Vec<Option<Exit>> = vec![None; samples.len()];
        let mut active: Vec<(usize, Row)> = samples
            .iter()
            .enumerate()
            .map(|(k, &i)| (k, Row::new(i)))
            .collect();
        while !active.is_empty() {
            let logits = self.forward(net, tr, stack(frames, &active)?)?;
            let classes = logits.dims()[1];
            let mut keep = Vec::with_capacity(active.len());
            for (r, (k, row)) in active.iter_mut().enumerate() {
                match self.fold(tr, row, &logits.data()[r * classes..(r + 1) * classes])? {
                    Some(e) => exits[*k] = Some(e),
                    None => keep.push(r),
                }
            }
            net.recycle(logits);
            if keep.len() < active.len() && !keep.is_empty() {
                self.compact(net, tr, &keep)?;
            }
            active = keep.iter().map(|&r| active[r].clone()).collect();
        }
        exits
            .into_iter()
            .map(|e| e.ok_or_else(|| "a batched row never exited".into()))
            .collect()
    }

    /// Replays one engine step from its record: the same admission or
    /// window reset, row order, timestep and compaction, on `net`. The open
    /// window carries over between calls. `sample_of` maps a request id to its sample. Returns the
    /// exits of the rows the step retired.
    ///
    /// # Errors
    ///
    /// Propagates library errors and fails when the step's rows or
    /// retirements differ from the engine's record.
    pub fn replay_step(
        &mut self,
        net: &mut Snn,
        tr: &mut Tracer,
        frames: &[Vec<Tensor>],
        sample_of: impl Fn(u64) -> usize,
        rec: &StepRecord,
    ) -> Result<Vec<(u64, Exit)>> {
        if !rec.admitted.is_empty() {
            if self.window.is_empty() {
                self.reset(net);
            } else {
                self.admit(net, tr, rec.admitted.len())?;
            }
            for &id in &rec.admitted {
                self.window.push((id, Row::new(sample_of(id))));
            }
        }
        if self.window.iter().map(|a| a.0).ne(rec.rows.iter().copied()) {
            return Err(format!(
                "step at {} ns: mirrored rows differ from the engine's",
                rec.start_nanos
            )
            .into());
        }
        let mut active = std::mem::take(&mut self.window);
        let logits = self.forward(net, tr, stack(frames, &active)?)?;
        let classes = logits.dims()[1];
        let mut keep = Vec::with_capacity(active.len());
        let mut retired = Vec::new();
        for (r, (id, row)) in active.iter_mut().enumerate() {
            match self.fold(tr, row, &logits.data()[r * classes..(r + 1) * classes])? {
                Some(e) => retired.push((*id, e)),
                None => keep.push(r),
            }
        }
        net.recycle(logits);
        if retired.iter().map(|r| r.0).ne(rec.retired.iter().copied()) {
            return Err(format!(
                "step at {} ns: mirrored retirements differ",
                rec.start_nanos
            )
            .into());
        }
        if keep.is_empty() {
            self.reset(net);
        } else if keep.len() < active.len() {
            self.compact(net, tr, &keep)?;
        }
        self.window = keep.iter().map(|&r| active[r].clone()).collect();
        Ok(retired)
    }

    /// Whether a replayed serving window is still open.
    pub fn window_open(&self) -> bool {
        !self.window.is_empty()
    }

    /// Plays the calls recorded since the last layer pass on `net` (a clone
    /// of the mirrored net), every timestep layer by layer on `ws` with a
    /// span per layer, and checks each timestep's logits against the
    /// recorded ones bitwise. Clears the script.
    ///
    /// # Errors
    ///
    /// Propagates library errors and fails on a logit mismatch.
    pub fn replay_layers(
        &mut self,
        net: &mut Snn,
        ws: &mut Workspace,
        tr: &mut Tracer,
    ) -> Result<()> {
        for op in self.script.drain(..) {
            match op {
                Op::Reset => net.reset_state(),
                Op::Admit(extra) => net.admit_batch_rows(extra)?,
                Op::Compact(keep) => net.compact_batch(&keep)?,
                Op::Forward(input, expected) => {
                    let rows = input.dims()[0];
                    let mut x: Option<Tensor> = None;
                    for node in net.layers_mut() {
                        tr.begin(node.layer.kind(), rows);
                        let y = node
                            .layer
                            .forward_ws(x.as_ref().unwrap_or(&input), Mode::Eval, ws);
                        tr.end();
                        if let Some(prev) = x.take() {
                            ws.recycle_tensor(prev);
                        }
                        x = Some(y?);
                    }
                    let logits = x.ok_or("network without layers")?;
                    let same = logits.len() == expected.len()
                        && logits
                            .data()
                            .iter()
                            .zip(&expected)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    ws.recycle_tensor(logits);
                    if !same {
                        return Err("layer-by-layer replay differs from forward_timestep".into());
                    }
                }
            }
        }
        Ok(())
    }
}

/// The active rows' frames at their own timesteps, as one batch.
fn stack<K>(frames: &[Vec<Tensor>], active: &[(K, Row)]) -> Result<Tensor> {
    let views: Vec<Tensor> = active
        .iter()
        .map(|(_, r)| input_at(&frames[r.sample], r.t))
        .collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = views.iter().collect();
    Ok(Tensor::concat_axis0(&refs)?)
}

/// Whether a served outcome matches a mirrored exit.
pub fn served_matches(o: &RequestOutcome, e: &Exit) -> bool {
    o.prediction == Some(e.prediction) && o.timesteps_used == e.timesteps && o.scores == e.scores
}
