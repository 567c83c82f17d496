//! `perfbench --workload <typing|mixed|admit|collab> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `README.md`), prints the untraced and traced
//! numbers side by side, and ends with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any op failed or any framebuffer mismatched, 2 on bad
//! arguments.

use std::path::Path;
use std::process::ExitCode;

use atk_perfbench::{probe, report, run, Budget, Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--resident-probe") {
        let seed = argv.nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        return match probe::resident_kb_in_process(seed) {
            Ok(kb) => {
                println!("{kb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("resident probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints the report; `Ok(false)` when the
/// correctness gate failed.
fn bench(args: &Args) -> Result<bool, String> {
    let sizes = Sizes::standard(args.workload);
    let outcome = run(
        args.workload,
        args.seed,
        Budget::Seconds(args.seconds),
        sizes,
        |_| {},
    )?;
    let resident_kb = probe::resident_kb(args.seed)?;
    let per_layer = report::per_layer(&outcome, resident_kb);
    println!(
        "perfbench seed={} seconds={} cores={}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print!("{}", report::tables(&outcome, &per_layer));
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.json", args.workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.replay.tracer.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            outcome.replay.tracer.spans().len(),
            path.display()
        );
    }
    let metrics = if args.trace {
        per_layer
    } else {
        report::end_to_end(&outcome)
    };
    println!("{}", report::json_line(&outcome, &metrics));
    Ok(outcome.correct())
}
