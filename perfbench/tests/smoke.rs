//! Smoke size of every workload: a short round set that still runs every
//! check, in both the end-to-end and the traced mode, and reports exactly
//! the metrics `BENCHMARK.json` lists.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::run::{run, Options};
use perfbench::workload::{Size, WORKLOADS};
use std::path::Path;
use std::time::Instant;

/// Metric names listed under `section` in the repository's `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(end_to_end.len(), 7);
    for spec in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                spec,
                seed: 5,
                seconds: 0.2,
                trace,
                size: Size::SMOKE,
                trace_out: None,
            };
            let report = run(&opts, Instant::now()).expect("the run completes");
            let mode = if trace { "traced" } else { "end-to-end" };
            assert!(
                report.correct,
                "{} {mode}: {:?}",
                spec.name, report.failures
            );
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= Size::SMOKE.samples as u64);
            let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(
                names,
                if trace {
                    per_layer.clone()
                } else {
                    end_to_end.clone()
                },
                "{}",
                spec.name
            );
            for m in &report.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {mode}: {} = {}",
                    spec.name,
                    m.name,
                    m.value
                );
            }
            if !trace {
                for name in [
                    "setup_s",
                    "samples_per_s",
                    "latency_p50_ms",
                    "avg_timesteps",
                    "imc_edp_per_sample",
                ] {
                    assert!(
                        report.metric(name).is_some_and(|v| v > 0.0),
                        "{}: {name}",
                        spec.name
                    );
                }
            }
            let json = report.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn a_checkpoint_that_differs_from_the_manifest_is_refused() {
    use perfbench::fixtures::{
        checkpoint_path, dataset, fixture_dir, load_from, MANIFEST, VGG_CIFAR,
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tampered-fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture_dir().join(MANIFEST), dir.join(MANIFEST)).unwrap();
    let mut bytes = std::fs::read(checkpoint_path(&fixture_dir(), &VGG_CIFAR)).unwrap();
    let data = dataset(&VGG_CIFAR).unwrap();
    std::fs::write(checkpoint_path(&dir, &VGG_CIFAR), &bytes).unwrap();
    assert!(load_from(&dir, &VGG_CIFAR, &data).is_ok());
    // one flipped bit in the last weight
    let last = bytes.len() - 1;
    bytes[last] ^= 1;
    std::fs::write(checkpoint_path(&dir, &VGG_CIFAR), &bytes).unwrap();
    let err = load_from(&dir, &VGG_CIFAR, &data).expect_err("refused");
    assert!(
        err.to_string().contains("does not match the manifest"),
        "{err}"
    );
}
