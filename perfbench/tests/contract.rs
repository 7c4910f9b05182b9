//! The benchmark's own gates: a forged reference mismatch must fail the
//! run, a clean run must report exactly the metrics `BENCHMARK.json`
//! names, and the named exact counts must repeat bit for bit.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

struct Run {
    code: Option<i32>,
    last_line: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        code: out.status.code(),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// The raw JSON text of `"<key>": <value>` in `line` (up to the next `,`
/// or `}` at the same depth).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The raw value text of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<String> {
    let start = line.find(&format!("\"{name}\": {{"))? + name.len() + 4;
    raw_field(&line[start..], "value").map(str::to_string)
}

/// Metric names listed under `section` of the repository's BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.match_indices("\"name\": \"")
        .map(|(i, m)| {
            let rest = &body[i + m.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn forged_reference_mismatch_fails_the_run() {
    let r = run(&[
        "--workload",
        "registry",
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--forge-mismatch",
    ]);
    assert_eq!(r.code, Some(1), "a forged mismatch must exit nonzero");
    assert_eq!(raw_field(&r.last_line, "correct"), Some("false"));
    let failed: u64 = raw_field(&r.last_line, "failed")
        .and_then(|v| v.parse().ok())
        .expect("failed count");
    assert!(failed > 0, "failed_cell_ratio must be > 0: {}", r.last_line);
}

#[test]
fn clean_runs_report_exactly_the_declared_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let r = run(&[
            "--workload",
            "phy_radio",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert_eq!(r.code, Some(0), "{}", r.last_line);
        assert_eq!(raw_field(&r.last_line, "correct"), Some("true"));
        assert_eq!(raw_field(&r.last_line, "failed"), Some("0"));
        let names = declared(section);
        assert!(!names.is_empty());
        for name in &names {
            assert!(
                metric(&r.last_line, name).is_some(),
                "{section} metric {name} missing from {}",
                r.last_line
            );
        }
        assert_eq!(
            r.last_line.matches("\"value\"").count(),
            names.len(),
            "no undeclared metrics"
        );
    }
}

#[test]
fn exact_counts_repeat_bit_for_bit() {
    const COUNTS: [&str; 7] = [
        "alg.allocs_per_round",
        "engine.allocs_per_round",
        "spec.setup_allocs_per_cell",
        "trace.bytes_per_round",
        "engine.deliveries_per_round",
        "cm.solo_round_ratio",
        "loss.delivery_ratio",
    ];
    for workload in ["phy_radio", "large_n"] {
        let args = [
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
        ];
        let (a, b) = (run(&args), run(&args));
        assert_eq!((a.code, b.code), (Some(0), Some(0)));
        for name in COUNTS {
            let first = metric(&a.last_line, name).expect("count reported");
            assert_eq!(
                Some(&first),
                metric(&b.last_line, name).as_ref(),
                "{workload}: {name} must repeat exactly"
            );
        }
    }
}
