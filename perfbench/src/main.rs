//! `perfbench --workload <registry|large_n|phy_radio|all> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! With `--trace 0` a run reports the end-to-end metrics of one workload,
//! with `--trace 1` its per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! 0 only when every checked cell passed (1 when some failed, 2 on a
//! usage or set-up error).
//!
//! `--forge-mismatch` flips one digest of the loaded reference, so the
//! run must report failed cells; `--write-reference` records the
//! generated workloads' default-seed results under `reference/`.

use std::process::ExitCode;

use perfbench::workload::{reference_paths, Workload, DEFAULT_SEED};
use perfbench::{e2e, traced};
use wan_bench::{Scale, SweepRunner};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    forge: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        forge: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--forge-mismatch" => args.forge = true,
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() && !args.write_reference {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The result line: one JSON object with the run's counts and metrics.
fn json_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn write_reference() -> Result<(), String> {
    for workload in [Workload::LargeN, Workload::PhyRadio] {
        let specs = workload.specs(DEFAULT_SEED);
        let frame = SweepRunner::serial().run_fresh(&specs);
        let summary = wan_bench::sweep::SweepSummary::from_results(Scale::Full, &specs, &frame);
        let (summary_path, fingerprint_path) = reference_paths(workload);
        let parent = summary_path
            .parent()
            .expect("reference files live in a directory");
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        std::fs::write(&summary_path, summary.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(&fingerprint_path, format!("{:016x}\n", frame.fingerprint()))
            .map_err(|e| e.to_string())?;
        println!("wrote {}", summary_path.display());
    }
    Ok(())
}

/// Runs one workload and prints its report; returns its failed cells.
fn run(args: &Args, workload: Workload, threads: usize) -> Result<u64, String> {
    let name = workload.name();
    println!(
        "workload {name} seed {} seconds {} trace {} threads {threads}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (attempted, failed, metrics, drift) = if args.trace {
        let r = traced::run(workload, args.seed, args.seconds, threads, args.forge)?;
        println!(
            "  identity: {} cells covered, {} uncovered",
            r.covered_cells, r.uncovered_cells
        );
        if let Some(path) = &r.spans_path {
            println!("  per-round spans: {}", path.display());
        }
        (r.attempted, r.failed, r.metrics, r.drift)
    } else {
        let r = e2e::run(workload, args.seed, args.seconds, threads, args.forge)?;
        println!(
            "  {} timed passes of {} cells / {} rounds; pass time p{:.0} {:.6} s",
            r.passes, r.cells_per_pass, r.rounds_per_pass, r.tail.0, r.tail.1
        );
        let metrics = vec![
            ("sweep_s", r.sweep_s, "s"),
            ("rounds_per_s", r.rounds_per_s, "1/s"),
            ("cells_per_s", r.cells_per_s, "1/s"),
            ("setup_s", r.setup_s, "s"),
            ("peak_rss_mb", r.peak_rss_mb, "MiB"),
        ];
        (r.attempted, r.failed, metrics, r.drift)
    };
    for (metric, value, unit) in &metrics {
        println!("  {metric:<32} {value:>14.6} {unit}");
    }
    println!(
        "  {:<32} {:>14.6} ratio ({failed} of {attempted} cells)",
        "failed_cell_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    for line in &drift {
        println!("  FAILED: {line}");
    }
    if let Some((metric, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{metric} measured {value}"));
    }
    println!("{}", json_line(attempted, failed, &metrics));
    Ok(failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.write_reference {
        return match write_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("perfbench: {err}");
                ExitCode::from(2)
            }
        };
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut any_failed = false;
    for &workload in &args.workloads {
        match run(&args, workload, threads) {
            Ok(failed) => any_failed |= failed > 0,
            Err(err) => {
                eprintln!("perfbench: {}: {err}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if any_failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
