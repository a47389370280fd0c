//! Trained fixture nets: committed parameter checkpoints, their hash
//! manifest, the seeded recipe that regenerates them, and the BatchNorm
//! recalibration pass that makes a reloaded net usable.
//!
//! `save_params`/`load_params` store learnable parameters only; BatchNorm
//! running statistics are dropped, so a reloaded net normalizes with the
//! initial mean 0 / variance 1 and loses most of its accuracy. The load
//! path therefore restores the statistics with a fixed Train-mode pass over
//! fixed training samples (no optimizer step): the same samples in the same
//! order every time, so the restored net is identical on every load.

use crate::Result;
use dtsnn_bench::{model_config_for, train_model, Arch, ExpConfig};
use dtsnn_data::{Dataset, Preset};
use dtsnn_snn::{load_params, save_params, LossKind, Mode, ModelConfig, Snn};
use dtsnn_tensor::{Tensor, TensorRng};
use std::path::{Path, PathBuf};

/// Seed of the synthetic datasets and of the training recipe.
pub const DATA_SEED: u64 = 7;
/// Training epochs of the fixture recipe.
pub const EPOCHS: usize = 2;
/// Training samples per recalibration batch.
pub const CALIB_BATCH: usize = 32;

/// One trained (backbone, dataset) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixtureSpec {
    /// File stem under `fixtures/` and key in the manifest.
    pub name: &'static str,
    /// Dataset preset the net is trained and evaluated on.
    pub preset: Preset,
    /// Backbone.
    pub arch: Arch,
    /// Training and inference window `T`.
    pub timesteps: usize,
    /// Recalibration batches of [`CALIB_BATCH`] training samples. The
    /// shared statistics are an EMA with momentum 0.1 fed once per
    /// timestep, so 8 static batches (32 updates) or 4 event batches of
    /// T = 10 (40 updates) leave under 4% of the initial statistics.
    pub calib_batches: usize,
}

/// VGG* on CIFAR-10*.
pub const VGG_CIFAR: FixtureSpec = FixtureSpec {
    name: "vgg-cifar10",
    preset: Preset::Cifar10,
    arch: Arch::Vgg,
    timesteps: 4,
    calib_batches: 8,
};
/// ResNet* on CIFAR-10*.
pub const RESNET_CIFAR: FixtureSpec = FixtureSpec {
    name: "resnet-cifar10",
    preset: Preset::Cifar10,
    arch: Arch::ResNet,
    timesteps: 4,
    calib_batches: 8,
};
/// VGG* on CIFAR10-DVS*.
pub const VGG_DVS: FixtureSpec = FixtureSpec {
    name: "vgg-dvs",
    preset: Preset::Cifar10Dvs,
    arch: Arch::Vgg,
    timesteps: 10,
    calib_batches: 4,
};

/// Every committed fixture.
pub const ALL: [FixtureSpec; 3] = [VGG_CIFAR, RESNET_CIFAR, VGG_DVS];

/// Directory of the committed checkpoints and manifest.
pub fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Manifest file name inside a fixture directory.
pub const MANIFEST: &str = "MANIFEST";

/// 64-bit FNV-1a of `bytes`: the manifest's content hash.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checkpoint path of `spec` inside `dir`.
pub fn checkpoint_path(dir: &Path, spec: &FixtureSpec) -> PathBuf {
    dir.join(format!("{}.params", spec.name))
}

/// One manifest line: `<name> <bytes> <fnv1a64 hex>`.
pub fn manifest_line(name: &str, bytes: &[u8]) -> String {
    format!(
        "{name} {} {:016x}",
        bytes.len(),
        fnv1a64(bytes.iter().copied())
    )
}

/// The manifest entry recorded for `name` in `dir`.
///
/// # Errors
///
/// Fails when the manifest is unreadable or has no entry for `name`.
pub fn manifest_entry(dir: &Path, name: &str) -> Result<String> {
    let path = dir.join(MANIFEST);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .map(str::to_string)
        .ok_or_else(|| format!("{} has no entry for {name}", path.display()).into())
}

/// The dataset a fixture was trained on (scale 1, [`DATA_SEED`]).
///
/// # Errors
///
/// Propagates generator errors.
pub fn dataset(spec: &FixtureSpec) -> Result<Dataset> {
    Ok(spec.preset.generate(1, DATA_SEED)?)
}

/// Trains a fixture from scratch with the seeded repository recipe
/// (`dtsnn_bench::train_model`, per-timestep loss, [`EPOCHS`] epochs).
///
/// # Errors
///
/// Propagates training errors.
pub fn train(spec: &FixtureSpec, data: &Dataset) -> Result<Snn> {
    let exp = ExpConfig {
        scale: 1,
        epochs: EPOCHS,
        seed: DATA_SEED,
    };
    let (net, _, _) = train_model(data, spec.arch, LossKind::PerTimestep, spec.timesteps, &exp)?;
    Ok(net)
}

/// Saves `net`'s parameters as `spec`'s checkpoint in `dir` and returns the
/// checkpoint's manifest line.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save(spec: &FixtureSpec, net: &mut Snn, dir: &Path) -> Result<String> {
    let path = checkpoint_path(dir, spec);
    save_params(net, &path)?;
    let bytes = std::fs::read(&path)?;
    Ok(manifest_line(spec.name, &bytes))
}

/// Builds `spec`'s architecture and loads the committed checkpoint into it.
/// See [`load_from`].
///
/// # Errors
///
/// Fails on a missing or mismatched checkpoint.
pub fn load(spec: &FixtureSpec, data: &Dataset) -> Result<(Snn, ModelConfig)> {
    load_from(&fixture_dir(), spec, data)
}

/// Builds `spec`'s architecture and loads the checkpoint in `dir` into it,
/// refusing a checkpoint whose size or hash differs from `dir`'s manifest.
/// BatchNorm statistics are *not* restored here; see [`recalibrate`].
///
/// # Errors
///
/// Fails on a missing or mismatched checkpoint.
pub fn load_from(dir: &Path, spec: &FixtureSpec, data: &Dataset) -> Result<(Snn, ModelConfig)> {
    let path = checkpoint_path(dir, spec);
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let expected = manifest_entry(dir, spec.name)?;
    let found = manifest_line(spec.name, &bytes);
    if found != expected {
        return Err(format!(
            "checkpoint {} does not match the manifest: found `{found}`, expected `{expected}`",
            path.display()
        )
        .into());
    }
    let model_cfg = model_config_for(data);
    // the initial weights are overwritten by the checkpoint; the seed only
    // keeps construction deterministic
    let mut net = spec
        .arch
        .build(&model_cfg, &mut TensorRng::seed_from(DATA_SEED))?;
    load_params(&mut net, &path)?;
    Ok((net, model_cfg))
}

/// Stacks one timestep's frame of each sample into a `[n, c, h, w]` batch.
///
/// # Errors
///
/// Propagates shape errors.
pub fn stack_frames(samples: &[&[Tensor]], t: usize) -> Result<Tensor> {
    let views: Vec<Tensor> = samples
        .iter()
        .map(|fs| batch1(if fs.len() == 1 { &fs[0] } else { &fs[t] }))
        .collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = views.iter().collect();
    Ok(Tensor::concat_axis0(&refs)?)
}

/// A `[c, h, w]` frame as a `[1, c, h, w]` batch.
///
/// # Errors
///
/// Propagates shape errors.
pub fn batch1(frame: &Tensor) -> Result<Tensor> {
    if frame.dims().len() == 4 {
        return Ok(frame.clone());
    }
    let mut dims = vec![1];
    dims.extend_from_slice(frame.dims());
    Ok(frame.reshape(&dims)?)
}

/// Restores BatchNorm running statistics with a fixed Train-mode pass over
/// the first `calib_batches × CALIB_BATCH` training samples, in index
/// order. No gradient is applied; the pass only feeds the statistics' EMA.
///
/// # Errors
///
/// Fails when the training split is too small, and propagates forward
/// errors.
pub fn recalibrate(spec: &FixtureSpec, net: &mut Snn, data: &Dataset) -> Result<()> {
    let need = spec.calib_batches * CALIB_BATCH;
    if data.train.len() < need {
        return Err(format!(
            "recalibration needs {need} training samples, have {}",
            data.train.len()
        )
        .into());
    }
    for b in 0..spec.calib_batches {
        let batch: Vec<&[Tensor]> = data.train.samples[b * CALIB_BATCH..(b + 1) * CALIB_BATCH]
            .iter()
            .map(|s| s.frames.as_slice())
            .collect();
        let frames: Vec<Tensor> = if data.frames_per_sample == 1 {
            vec![stack_frames(&batch, 0)?]
        } else {
            (0..spec.timesteps)
                .map(|t| stack_frames(&batch, t))
                .collect::<Result<_>>()?
        };
        let _ = net.forward_sequence(&frames, spec.timesteps, Mode::Train)?;
    }
    // reset_state parks the pass's batch-32 buffers in the net's arena; a
    // clone starts with an empty arena, so inference memory is measured
    // without the pass's leftovers
    net.reset_state();
    let _ = net.take_activity();
    *net = net.clone();
    Ok(())
}
