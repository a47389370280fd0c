//! Checks made apart from the program under test.
//!
//! The reference is a solo `DynamicInference::run` of every sample in index
//! order. Every timed operation must reproduce it bitwise, and the reference
//! itself is held against an f64 recomputation of Eqs. 5 and 7–8 from the
//! solo `forward_timestep` logits, against an accuracy floor, and against
//! the event-driven chip simulator.

use crate::workload::{input_at, scores_hash, Env, Kind, Record};
use crate::Result;
use dtsnn_core::DynamicOutcome;
use dtsnn_imc::{EventSim, Placement, SimOptions};
use dtsnn_snn::{Mode, SpikeActivity};
use std::collections::HashMap;

/// Normalized entropies this close to θ may exit on either side between
/// the f32 program and the f64 recomputation, so they are not compared.
pub const THETA_MARGIN: f64 = 1e-5;
/// Accuracy floor of each 10-class split (chance is 0.1).
pub const MIN_ACCURACY: f64 = 0.5;

/// The reference evaluation of a workload's input set.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Solo outcome of each sample, index order.
    pub outcomes: Vec<DynamicOutcome>,
    /// Spike activity accumulated over the solo runs.
    pub activity: SpikeActivity,
    /// Mean T̂.
    pub avg_timesteps: f64,
    /// Top-1 accuracy.
    pub accuracy: f64,
    /// `histogram[t-1]`: samples that exited at `t`.
    pub histogram: Vec<usize>,
}

/// Failed checks, collected so one run reports all of them.
#[derive(Debug, Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    /// Records a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Runs the solo reference pass on the workload's net.
///
/// # Errors
///
/// Propagates library errors.
pub fn reference(env: &mut Env) -> Result<Reference> {
    let _ = env.net.take_activity();
    let mut outcomes = Vec::with_capacity(env.len());
    for f in &env.frames {
        outcomes.push(env.runner.run(&mut env.net, f)?);
    }
    let activity = env.net.take_activity();
    let mut histogram = vec![0usize; env.timesteps()];
    for o in &outcomes {
        histogram[o.timesteps_used - 1] += 1;
    }
    let n = outcomes.len() as f64;
    let total: usize = outcomes.iter().map(|o| o.timesteps_used).sum();
    let correct = outcomes
        .iter()
        .zip(&env.labels)
        .filter(|(o, &l)| o.prediction == l)
        .count();
    Ok(Reference {
        outcomes,
        activity,
        avg_timesteps: total as f64 / n,
        accuracy: correct as f64 / n,
        histogram,
    })
}

/// Eqs. 5, 7 and 8 in f64 over one sample's per-timestep logits: returns
/// the exit timestep, the prediction and whether any normalized entropy
/// up to the exit lay within [`THETA_MARGIN`] of θ.
pub fn exit_f64(logits: &[Vec<f32>], theta: f64) -> (usize, usize, bool) {
    let classes = logits[0].len();
    let mut acc = vec![0f64; classes];
    let mut near = false;
    for (t, l) in logits.iter().enumerate() {
        for (a, &v) in acc.iter_mut().zip(l) {
            *a += v as f64;
        }
        let steps = (t + 1) as f64;
        let mean: Vec<f64> = acc.iter().map(|a| a / steps).collect();
        let max = mean.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = mean.iter().map(|m| (m - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let entropy: f64 = exps
            .iter()
            .map(|e| e / z)
            .filter(|&p| p > 0.0)
            .map(|p| -p * p.ln())
            .sum::<f64>();
        let normalized = entropy / (classes as f64).ln();
        near |= (normalized - theta).abs() < THETA_MARGIN;
        if normalized < theta || t + 1 == logits.len() {
            let pred = (0..classes).fold(0, |b, i| if mean[i] > mean[b] { i } else { b });
            return (t + 1, pred, near);
        }
    }
    unreachable!("the loop returns at the last timestep")
}

/// Checks the reference against the f64 recomputation from solo
/// `forward_timestep` logits over the full window, and the accuracy
/// floor. Returns the samples skipped as near-θ.
///
/// # Errors
///
/// Propagates library errors.
pub fn check_reference(
    env: &mut Env,
    reference: &Reference,
    fails: &mut Failures,
) -> Result<usize> {
    let theta = env.spec.theta as f64;
    let t_max = env.timesteps();
    let mut near_theta = 0usize;
    for (i, f) in env.frames.iter().enumerate() {
        env.net.reset_state();
        let mut logits = Vec::with_capacity(t_max);
        for t in 0..t_max {
            let out = env.net.forward_timestep(&input_at(f, t)?, Mode::Eval)?;
            logits.push(out.data().to_vec());
            env.net.recycle(out);
        }
        let (exit, pred, near) = exit_f64(&logits, theta);
        if near {
            near_theta += 1;
            continue;
        }
        let o = &reference.outcomes[i];
        fails.check(o.timesteps_used == exit && o.prediction == pred, || {
            format!(
                "sample {i}: program exits at t={} with class {}, f64 Eqs. 5/7-8 give t={exit} class {pred}",
                o.timesteps_used, o.prediction
            )
        });
    }
    let _ = env.net.take_activity();
    fails.check(reference.accuracy >= MIN_ACCURACY, || {
        format!(
            "accuracy {:.3} below {MIN_ACCURACY}: the fixture did not load",
            reference.accuracy
        )
    });
    Ok(near_theta)
}

/// Energy is affine in T: the mean over samples of analytical-parity
/// `EventSim` runs at each sample's exit timestep must equal the ledger's
/// `dynamic_cost` at T̂. Dynamic EDP must also undercut static EDP at the
/// full window.
///
/// # Errors
///
/// Propagates cost-model errors.
pub fn check_imc(env: &Env, reference: &Reference, fails: &mut Failures) -> Result<()> {
    let cost = env.profile.cost_model();
    let sim = EventSim::new(
        cost,
        Placement::linear(cost.mapping())?,
        SimOptions::analytical_parity(),
    )?;
    let densities = env.profile.densities(&reference.activity);
    let classes = env.model_cfg.num_classes;
    let mut sum = 0f64;
    for (t, &count) in reference.histogram.iter().enumerate() {
        if count > 0 {
            sum += count as f64 * sim.run(&densities, t + 1, Some(classes))?.cost.energy_pj();
        }
    }
    let simulated = sum / env.len() as f64;
    let dynamic = env
        .profile
        .dynamic_cost(&reference.activity, reference.avg_timesteps)?;
    let ledger = dynamic.energy_pj();
    fails.check((simulated - ledger).abs() <= 1e-9 * ledger.abs(), || {
        format!("EventSim mean energy {simulated} pJ differs from the ledger's {ledger} pJ")
    });
    let stat = env
        .profile
        .static_cost(&reference.activity, env.timesteps() as f64)?;
    fails.check(dynamic.edp() < stat.edp(), || {
        format!(
            "dynamic EDP {} is not below static EDP {} at T={}",
            dynamic.edp(),
            stat.edp(),
            env.timesteps()
        )
    });
    Ok(())
}

/// Every operation of the timed loop must reproduce the reference bitwise:
/// each sample's T̂, and wherever the path reports them its prediction (or
/// correctness), early-exit flag and score trace. A served request must
/// complete, and every round must terminate each sample exactly once.
pub fn check_record(env: &Env, reference: &Reference, rec: &Record, fails: &mut Failures) {
    let mut per_round: HashMap<u32, Vec<u32>> = HashMap::new();
    for s in &rec.seen {
        let i = s.sample as usize;
        let r = &reference.outcomes[i];
        let same = s.timesteps as usize == r.timesteps_used
            && s.prediction.is_none_or(|p| p as usize == r.prediction)
            && s.correct
                .is_none_or(|c| c == (r.prediction == env.labels[i]))
            && s.exited_early.is_none_or(|e| e == r.exited_early)
            && s.scores.is_none_or(|h| h == scores_hash(&r.scores));
        fails.check(same, || {
            format!(
                "round {} sample {i}: {s:?} differs from the reference run",
                s.round
            )
        });
        fails.check(
            env.spec.kind != Kind::Serve || s.prediction.is_some(),
            || format!("round {} sample {i}: the request did not complete", s.round),
        );
        *per_round
            .entry(s.round)
            .or_insert_with(|| vec![0; env.len()])
            .get_mut(i)
            .expect("sample in range") += 1;
    }
    fails.check(per_round.len() == rec.rounds, || {
        format!("{} rounds seen, {} run", per_round.len(), rec.rounds)
    });
    for (round, counts) in &per_round {
        fails.check(counts.iter().all(|&c| c == 1), || {
            format!("round {round} did not terminate every sample once")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_exit_follows_the_entropy_rule() {
        // uniform logits: normalized entropy 1, never below θ = 0.5
        let flat = vec![vec![0.0f32; 10]; 4];
        assert_eq!(exit_f64(&flat, 0.5), (4, 0, false));
        // a confident first timestep exits at t = 1 with its argmax
        let mut sharp = vec![vec![0.0f32; 10]; 4];
        sharp[0][3] = 20.0;
        assert_eq!(exit_f64(&sharp, 0.5).0, 1);
        assert_eq!(exit_f64(&sharp, 0.5).1, 3);
    }
}
