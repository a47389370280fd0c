//! Regenerates the committed fixture checkpoints from the seeded training
//! recipe and compares each with the manifest.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin regen_fixtures -- [--out DIR] [--bless]
//! ```
//!
//! Without `--out` the checkpoints are written over the committed ones in
//! `perfbench/fixtures`. A checkpoint whose hash differs from the manifest
//! is refused (exit code 1) unless `--bless` is given, which rewrites the
//! manifest instead.

use perfbench::fixtures::{self, fixture_dir, manifest_entry, MANIFEST};
use perfbench::Result;
use std::path::PathBuf;

fn main() {
    if let Err(e) = run() {
        eprintln!("regen_fixtures: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let mut out = fixture_dir();
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a directory")?),
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    std::fs::create_dir_all(&out)?;
    dtsnn_tensor::parallel::set_threads(1);
    let mut lines = Vec::new();
    let mut mismatched = Vec::new();
    for spec in fixtures::ALL {
        let start = std::time::Instant::now();
        let data = fixtures::dataset(&spec)?;
        let mut net = fixtures::train(&spec, &data)?;
        let line = fixtures::save(&spec, &mut net, &out)?;
        let expected = manifest_entry(&fixture_dir(), spec.name).ok();
        let verdict = match &expected {
            Some(e) if *e == line => "matches the manifest",
            Some(_) => {
                mismatched.push(spec.name);
                "DIFFERS from the manifest"
            }
            None => "has no manifest entry",
        };
        eprintln!(
            "{line}  ({verdict}, {:.1} s)",
            start.elapsed().as_secs_f64()
        );
        lines.push(line);
    }
    if bless {
        let path = out.join(MANIFEST);
        std::fs::write(&path, lines.join("\n") + "\n")?;
        eprintln!("wrote {}", path.display());
        return Ok(());
    }
    if !mismatched.is_empty() {
        return Err(
            format!("regenerated checkpoints differ from the manifest: {mismatched:?}").into(),
        );
    }
    Ok(())
}
