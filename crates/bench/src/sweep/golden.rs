//! Golden sweep summaries: the experiment matrix as a CI regression gate.
//!
//! `run_experiments check` re-executes the standard scenario registry,
//! summarizes the resulting [`ResultsFrame`] per spec, and compares against
//! the committed golden file under `golden/sweeps/` — any drift (a changed
//! worst-case bound, a safety or termination flip, a moved probe metric, or
//! any cell-level change via the per-spec digests) exits nonzero. `bless`
//! regenerates the golden file after an *intentional* behavior change.
//! [`gate`] is that post-measurement half: the safety gate, the observed
//! summary record, then bless or compare.
//!
//! The summary is deliberately cell-exact at two depths: each spec row
//! carries a stable FNV digest over every cell's core outcome columns
//! (continuity with the pre-probe gate) **and** a frame digest over every
//! metric column the spec's probe manifest emitted — so the gate catches
//! drift in any probe measurement, not just the four core metrics, while
//! the committed file stays a reviewable handful of lines per spec.

use super::frame::ResultsFrame;
use super::json::{escape, field_opt, field_str, field_u64, opt_token};
use super::probe::MetricId;
use super::spec::ScenarioSpec;
use crate::Scale;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use wan_sim::fingerprint::StableHasher;

/// Bumped when the summary schema changes; a mismatch fails `check`
/// with a regeneration hint. v2: frame digests and probe summary fields
/// joined the per-spec rows.
pub const FORMAT_VERSION: u32 = 2;
const HEADER_TAG: &str = "ccwan-golden-sweep";

/// The committed file name for a scale's registry summary.
pub fn golden_file_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "registry_quick.json",
        Scale::Full => "registry_full.json",
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// One agreement/validity violation surfaced by a sweep — the unit of the
/// sweep-wide safety gate. Every registry environment (including every
/// fault-injection timeline in the `churn/*` family) is constructed so
/// that consensus safety holds; a cell whose outcome checker flags
/// disagreement or an invalid decision is therefore always a bug, never
/// an expected measurement, and [`gate`] fails loudly with these
/// coordinates before anything is blessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The registry spec name.
    pub spec: String,
    /// The cell's case index within the spec.
    pub case: u64,
    /// The cell's derived RNG seed (reproduce with a single-cell run).
    pub cell_seed: u64,
}

impl std::fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spec `{}` case {} seed {:#018x}",
            self.spec, self.case, self.cell_seed
        )
    }
}

/// Scans every cell of an executed sweep for safety violations
/// (`safe == false`: broken agreement or validity).
pub fn scan_safety(specs: &[ScenarioSpec], results: &ResultsFrame) -> Vec<SafetyViolation> {
    let mut violations = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let frame = results.spec(i);
        for (idx, &safe) in frame.core().safe.iter().enumerate() {
            if !safe {
                violations.push(SafetyViolation {
                    spec: spec.name.clone(),
                    case: frame.cases()[idx],
                    cell_seed: frame.seeds()[idx],
                });
            }
        }
    }
    violations
}

/// One spec's row in a summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecSummary {
    /// The registry name.
    pub name: String,
    /// Number of cells executed.
    pub cells: u64,
    /// How many cells were safe (agreement + validity).
    pub safe: u64,
    /// How many cells terminated within the cap.
    pub terminated: u64,
    /// Worst rounds past the measurement reference, over deciding cells
    /// (saturating: a decision before the reference counts as 0).
    pub worst_rounds_past: Option<u64>,
    /// Worst *signed* decision latency (`max` of the `decision_latency`
    /// metric over deciding cells — can be negative when every decision
    /// beat the reference).
    pub worst_latency: Option<i64>,
    /// Total broadcasts across the spec's cells (`None` for outcome-only
    /// manifests, which record no round-derived metrics).
    pub broadcasts: Option<u64>,
    /// Stable digest over every cell's coordinates and core outcome
    /// columns (order-sensitive, independent of the spec's position in the
    /// registry).
    pub digest: u64,
    /// Stable digest over the spec's full metric columns
    /// (`SpecFrame::digest`) — catches drift in any probe measurement.
    pub frame_digest: u64,
}

/// A full registry summary at one scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// One row per registry spec, in registration order.
    pub specs: Vec<SpecSummary>,
}

impl SweepSummary {
    /// Summarizes an already-assembled results frame.
    pub fn from_results(
        scale: Scale,
        specs: &[ScenarioSpec],
        results: &ResultsFrame,
    ) -> SweepSummary {
        let specs = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let frame = results.spec(i);
                let mut row = SpecSummary {
                    name: spec.name.clone(),
                    cells: frame.len() as u64,
                    safe: 0,
                    terminated: 0,
                    worst_rounds_past: None,
                    worst_latency: None,
                    broadcasts: None,
                    digest: 0,
                    frame_digest: frame.digest(),
                };
                let core = frame.core();
                let mut h = StableHasher::new();
                for idx in 0..frame.len() {
                    let (safe, terminated) = (core.safe[idx], core.terminated[idx]);
                    let (reference, last_decision) = (core.reference[idx], core.last_decision[idx]);
                    row.safe += u64::from(safe);
                    row.terminated += u64::from(terminated);
                    if let Some(decided) = last_decision {
                        let past = decided.saturating_sub(reference);
                        row.worst_rounds_past =
                            Some(row.worst_rounds_past.map_or(past, |w| w.max(past)));
                    }
                    h.write_u64(frame.cases()[idx]);
                    h.write_u64(frame.seeds()[idx]);
                    h.write_u64(reference);
                    h.write_u64(last_decision.map_or(u64::MAX, |d| d));
                    h.write_u64(u64::from(terminated));
                    h.write_u64(u64::from(safe));
                }
                row.digest = h.finish();
                row.worst_latency = frame
                    .column(MetricId::DecisionLatency)
                    .and_then(|col| col.max())
                    .map(|v| v as i64);
                row.broadcasts = frame
                    .column(MetricId::BroadcastsTotal)
                    .map(|col| col.sum() as u64);
                row
            })
            .collect();
        SweepSummary {
            scale: scale_name(scale).to_string(),
            specs,
        }
    }

    /// Renders the committed format: a header line, one line per spec
    /// (diff-friendly), a closing line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"{HEADER_TAG}\":{FORMAT_VERSION},\"scale\":\"{}\",\"specs\":[\n",
            escape(&self.scale)
        );
        for (i, spec) in self.specs.iter().enumerate() {
            let comma = if i + 1 == self.specs.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cells\":{},\"safe\":{},\"terminated\":{},\"worst\":{},\"latency\":{},\"broadcasts\":{},\"digest\":\"{:016x}\",\"frame\":\"{:016x}\"}}{comma}\n",
                escape(&spec.name),
                spec.cells,
                spec.safe,
                spec.terminated,
                opt_token(spec.worst_rounds_past),
                opt_token(spec.worst_latency),
                opt_token(spec.broadcasts),
                spec.digest,
                spec.frame_digest,
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Parses [`SweepSummary::to_json`]'s rendering. Errors carry enough
    /// context for a CI log.
    pub fn parse(text: &str) -> Result<SweepSummary, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty golden summary file")?;
        match field_u64(header, HEADER_TAG) {
            Some(v) if v == u64::from(FORMAT_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "golden summary format v{v}, this binary writes v{FORMAT_VERSION}: regenerate with `run_experiments bless`"
                ))
            }
            None => return Err("not a golden sweep summary (bad header)".to_string()),
        }
        let scale = field_str(header, "scale").ok_or("header missing \"scale\"")?;
        let mut specs = Vec::new();
        for line in lines {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("\"name\":") {
                continue;
            }
            let parse = || -> Option<SpecSummary> {
                Some(SpecSummary {
                    name: field_str(line, "name")?,
                    cells: field_u64(line, "cells")?,
                    safe: field_u64(line, "safe")?,
                    terminated: field_u64(line, "terminated")?,
                    worst_rounds_past: field_opt(line, "worst")?,
                    worst_latency: field_opt(line, "latency")?,
                    broadcasts: field_opt(line, "broadcasts")?,
                    digest: u64::from_str_radix(&field_str(line, "digest")?, 16).ok()?,
                    frame_digest: u64::from_str_radix(&field_str(line, "frame")?, 16).ok()?,
                })
            };
            specs.push(parse().ok_or_else(|| format!("malformed spec row: {line}"))?);
        }
        Ok(SweepSummary { scale, specs })
    }

    /// Describes every difference between a golden summary (`self`) and an
    /// observed one. Empty means the gate passes.
    pub fn diff(&self, observed: &SweepSummary) -> Vec<String> {
        let mut drift = Vec::new();
        if self.scale != observed.scale {
            drift.push(format!(
                "scale mismatch: golden {:?}, observed {:?}",
                self.scale, observed.scale
            ));
        }
        for expected in &self.specs {
            let Some(actual) = observed.specs.iter().find(|s| s.name == expected.name) else {
                drift.push(format!(
                    "spec {:?} missing from this registry",
                    expected.name
                ));
                continue;
            };
            let fields = [
                (
                    "cells",
                    expected.cells.to_string(),
                    actual.cells.to_string(),
                ),
                ("safe", expected.safe.to_string(), actual.safe.to_string()),
                (
                    "terminated",
                    expected.terminated.to_string(),
                    actual.terminated.to_string(),
                ),
                (
                    "worst_rounds_past",
                    format!("{:?}", expected.worst_rounds_past),
                    format!("{:?}", actual.worst_rounds_past),
                ),
                (
                    "worst_latency",
                    format!("{:?}", expected.worst_latency),
                    format!("{:?}", actual.worst_latency),
                ),
                (
                    "broadcasts",
                    format!("{:?}", expected.broadcasts),
                    format!("{:?}", actual.broadcasts),
                ),
                (
                    "digest",
                    format!("{:016x}", expected.digest),
                    format!("{:016x}", actual.digest),
                ),
                (
                    "frame_digest",
                    format!("{:016x}", expected.frame_digest),
                    format!("{:016x}", actual.frame_digest),
                ),
            ];
            for (field, want, got) in fields {
                if want != got {
                    drift.push(format!(
                        "spec {:?}: {field} drifted (golden {want}, observed {got})",
                        expected.name
                    ));
                }
            }
        }
        for actual in &observed.specs {
            if !self.specs.iter().any(|s| s.name == actual.name) {
                drift.push(format!(
                    "spec {:?} observed but absent from the golden summary",
                    actual.name
                ));
            }
        }
        drift
    }
}

/// The post-measurement half of `check` and `bless`, applied to the
/// summary and the safety violations of one sweep:
///
/// 1. the safety gate, first and unconditionally — every registry
///    environment (fault-injection timelines included) is constructed so
///    consensus safety holds, so a violated cell is a bug that must fail
///    loudly and must never be blessed into a golden file;
/// 2. the observed summary is recorded under `observed_dir` for CI
///    artifact upload (best-effort: a failed write only warns);
/// 3. with `bless`, the summary becomes the golden file under
///    `golden_dir`; otherwise it is diffed against that file.
///
/// `Ok` carries the stdout line of a pass or a bless, `Err` the stderr
/// report of a failure.
pub fn gate(
    scale: Scale,
    observed: &SweepSummary,
    violations: &[SafetyViolation],
    bless: bool,
    golden_dir: &Path,
    observed_dir: &Path,
) -> Result<String, String> {
    if !violations.is_empty() {
        let mut report = format!(
            "check: {} cell(s) violated consensus safety (agreement/validity):",
            violations.len()
        );
        for violation in violations {
            report.push_str(&format!("\n  {violation}"));
        }
        return Err(report);
    }
    let file = golden_file_name(scale);
    let json = observed.to_json();
    let observed_path = observed_dir.join(file);
    if let Err(err) = atomic_write(&observed_path, json.as_bytes()) {
        eprintln!(
            "check: could not record observed summary at {}: {err}",
            observed_path.display()
        );
    }

    let golden_path = golden_dir.join(file);
    if bless {
        atomic_write(&golden_path, json.as_bytes())
            .map_err(|err| format!("bless: writing {} failed: {err}", golden_path.display()))?;
        return Ok(format!(
            "--bless: wrote {} spec summaries to {}",
            observed.specs.len(),
            golden_path.display()
        ));
    }
    let text = fs::read_to_string(&golden_path).map_err(|err| {
        format!(
            "check: cannot read golden summary {}: {err}\n\
             (generate it with `run_experiments bless{}`)",
            golden_path.display(),
            if scale == Scale::Quick {
                " --quick"
            } else {
                ""
            },
        )
    })?;
    let expected = SweepSummary::parse(&text)
        .map_err(|err| format!("check: {}: {err}", golden_path.display()))?;
    let drift = expected.diff(observed);
    if drift.is_empty() {
        return Ok(format!(
            "--check: {} specs match {}",
            observed.specs.len(),
            golden_path.display()
        ));
    }
    let mut report = format!(
        "check: {} drift(s) against {}:",
        drift.len(),
        golden_path.display()
    );
    for line in &drift {
        report.push_str(&format!("\n  {line}"));
    }
    report.push_str("\n(if this change is intentional, regenerate with `bless`)");
    Err(report)
}

/// Writes `bytes` to `path` atomically: the content goes to a sibling
/// temp file (suffixed with this process id, so concurrent writers never
/// share one), is fsynced, and is renamed over `path`; on Unix the parent
/// directory is fsynced afterwards so the rename itself is durable. A
/// kill at any instant leaves either the old file or the new one — never
/// a torn mix — which is what lets `check` and `bless` be interrupted
/// with impunity.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let write = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    write?;
    #[cfg(unix)]
    if let Some(dir) = dir {
        // Durability of the rename, not correctness, so best-effort.
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::probe::{MetricRow, MetricValue};
    use crate::sweep::runner::SweepRunner;
    use crate::sweep::spec::{lattice_specs, CellRow};

    fn summary() -> SweepSummary {
        let specs = &lattice_specs(Scale::Quick)[..2];
        let results = SweepRunner::with_threads(2).run_fresh(specs);
        SweepSummary::from_results(Scale::Quick, specs, &results)
    }

    #[test]
    fn scan_safety_reports_only_unsafe_cells() {
        let specs = &lattice_specs(Scale::Quick)[..1];
        let spec = &specs[0];
        let rows: Vec<CellRow> = (0..3).map(|case| spec.run_cell(0, case)).collect();
        let clean = ResultsFrame::from_rows(specs, rows.clone());
        assert!(
            scan_safety(specs, &clean).is_empty(),
            "clean sweeps scan clean"
        );

        // Forge a safety flip in cell 1 only (rebuild the row — MetricRow
        // is append-only and a duplicate `safe` entry would not column-ize).
        let mut rows = rows;
        let mut forged = MetricRow::new();
        for (id, value) in rows[1].metrics.iter() {
            forged.set(
                id,
                if id == MetricId::Safe {
                    MetricValue::Bool(false)
                } else {
                    value
                },
            );
        }
        rows[1].metrics = forged;
        let poisoned = ResultsFrame::from_rows(specs, rows);
        let violations = scan_safety(specs, &poisoned);
        assert_eq!(violations.len(), 1, "{violations:#?}");
        let v = &violations[0];
        assert_eq!(v.spec, spec.name);
        assert_eq!(v.case, 1);
        assert_eq!(v.cell_seed, spec.cell_seed(1));
        let line = v.to_string();
        assert!(line.contains(&spec.name), "{line}");
        assert_eq!(
            line,
            format!(
                "spec `{}` case 1 seed {:#018x}",
                spec.name,
                spec.cell_seed(1)
            )
        );
    }

    #[test]
    fn gate_blesses_then_passes_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("ccwan-golden-gate-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (golden, observed) = (dir.join("golden"), dir.join("observed"));
        let s = summary();
        let missing = gate(Scale::Quick, &s, &[], false, &golden, &observed).unwrap_err();
        assert!(
            missing.contains("run_experiments bless --quick"),
            "{missing}"
        );
        let blessed = gate(Scale::Quick, &s, &[], true, &golden, &observed).expect("bless");
        assert!(
            blessed.starts_with("--bless: wrote 2 spec summaries"),
            "{blessed}"
        );
        let pass = gate(Scale::Quick, &s, &[], false, &golden, &observed).expect("check");
        assert!(pass.starts_with("--check: 2 specs match"), "{pass}");
        let file = golden_file_name(Scale::Quick);
        for written in [golden.join(file), observed.join(file)] {
            assert_eq!(fs::read_to_string(&written).expect("written"), s.to_json());
        }
        for sub in [&golden, &observed] {
            let names: Vec<_> = fs::read_dir(sub)
                .expect("read dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            assert_eq!(names, [file], "no temp files may survive an atomic write");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_parse_roundtrips() {
        let s = summary();
        let parsed = SweepSummary::parse(&s.to_json()).expect("own rendering parses");
        assert_eq!(parsed, s);
        assert!(s.diff(&parsed).is_empty());
        // The probe columns flow into the summary.
        assert!(s.specs[0].broadcasts.is_some());
        assert!(s.specs[0].worst_latency.is_some());
    }

    #[test]
    fn diff_reports_each_kind_of_drift() {
        let golden = summary();
        let mut observed = golden.clone();
        observed.specs[0].worst_rounds_past = Some(999);
        observed.specs[1].digest ^= 1;
        observed.specs[1].frame_digest ^= 1;
        let renamed = observed.specs[1].name.clone() + "-renamed";
        observed.specs.push(SpecSummary {
            name: renamed,
            ..observed.specs[1].clone()
        });
        let drift = golden.diff(&observed);
        assert_eq!(drift.len(), 4, "{drift:#?}");
        assert!(drift[0].contains("worst_rounds_past"));
        assert!(drift[1].contains("digest"));
        assert!(drift[2].contains("frame_digest"));
        assert!(drift[3].contains("absent from the golden"));
    }

    #[test]
    fn frame_digest_moves_with_probe_metrics_the_core_digest_ignores() {
        // Two summaries of the same specs where only a round-derived
        // metric differs would agree on the core digest but disagree on
        // the frame digest — simulate by perturbing the frame lane only.
        let golden = summary();
        let mut observed = golden.clone();
        observed.specs[0].frame_digest ^= 0xDEAD;
        let drift = golden.diff(&observed);
        assert_eq!(drift.len(), 1, "{drift:#?}");
        assert!(drift[0].contains("frame_digest"));
    }

    #[test]
    fn parse_rejects_alien_and_future_headers() {
        assert!(SweepSummary::parse("").is_err());
        assert!(SweepSummary::parse("{\"something\":1}\n").is_err());
        let future = summary().to_json().replacen(
            &format!("\"{HEADER_TAG}\":{FORMAT_VERSION}"),
            &format!("\"{HEADER_TAG}\":{}", FORMAT_VERSION + 1),
            1,
        );
        let err = SweepSummary::parse(&future).unwrap_err();
        assert!(err.contains("run_experiments bless"), "{err}");
    }

    #[test]
    fn parse_rejects_v1_summaries_with_a_bless_hint() {
        // The pre-probe (v1) golden format: no latency/broadcasts/frame
        // fields. The version gate must fail it cleanly.
        let v1 = format!(
            "{{\"{HEADER_TAG}\":1,\"scale\":\"quick\",\"specs\":[\n\
             {{\"name\":\"x\",\"cells\":5,\"safe\":5,\"terminated\":5,\"worst\":2,\"digest\":\"00000000000000aa\"}}\n]}}\n"
        );
        let err = SweepSummary::parse(&v1).unwrap_err();
        assert!(err.contains("run_experiments bless"), "{err}");
    }
}
