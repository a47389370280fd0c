//! Benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cifar-vgg-b1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a context line and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Errors exit with code 2 and print no result.

use perfbench::run::{run, Options};
use perfbench::workload::{by_name, Size, WORKLOADS};
use perfbench::Result;
use std::path::Path;
use std::time::Instant;

fn main() {
    let process_start = Instant::now();
    match parse(std::env::args().skip(1)).and_then(|opts| Ok((run(&opts, process_start)?, opts))) {
        Ok((report, _)) => {
            for f in &report.failures {
                eprintln!("check failed: {f}");
            }
            println!("{}", report.context_json());
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse()?,
            "--seconds" => seconds = value()?.parse()?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = *by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{name}-seed{seed}"));
    Ok(Options {
        spec,
        seed,
        seconds,
        trace,
        size: Size::FULL,
        trace_out: trace.then_some(out),
    })
}
