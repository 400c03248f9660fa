//! Bench regression gate: compare one benchmark case of a fresh
//! `BENCH_JSON` run against the committed baseline and fail (exit 1)
//! when ns/element regressed beyond a ratio.
//!
//! The bound is deliberately loose — it exists to catch architectural
//! regressions (e.g. accidentally reintroducing the per-unit line
//! interpreter, a ~3.6x slowdown), not scheduler noise on shared CI
//! hosts.
//!
//! JSON scanning is `ipass_report::json` — the shared string- and
//! nesting-aware object scanner (this binary used to carry its own
//! brace-splitting copy).
//!
//! ```text
//! bench_gate <baseline.json> <current.json> <case-id> <max-ratio> [baseline-id]
//! bench_gate BENCH_moe.json target/bench_smoke.json mc_units/100000 3.0
//! bench_gate BENCH_moe.json target/bench_smoke.json mc_units_batch/100000 0.5 mc_units/100000
//! ```
//!
//! The optional fifth argument compares the current `case-id` against a
//! *different* baseline case. That turns the gate into a **speedup
//! floor**: with `max-ratio` 0.5, the batched kernel's per-unit time
//! must stay at most half the committed *scalar* baseline — i.e. the
//! lane kernel must remain at least 2x faster than the scalar kernel it
//! replaced, or CI fails.

use ipass_report::json::{number_field, objects, string_field};
use std::process::ExitCode;

/// Extract a numeric field from the JSON object whose `"id"` equals
/// `id`.
fn lookup(json: &str, id: &str, field: &str) -> Option<f64> {
    objects(json)
        .into_iter()
        .find(|obj| string_field(obj, "id") == Some(id))
        .and_then(|obj| number_field(obj, field))
}

/// Mean ns/element for a case: the recorded `ns_per_elem` when present,
/// otherwise derived from `mean_ns` and `elements` (older baselines),
/// otherwise plain `mean_ns` (cases without throughput).
fn ns_per_element(json: &str, id: &str) -> Option<f64> {
    if let Some(npe) = lookup(json, id, "ns_per_elem") {
        return Some(npe);
    }
    let mean = lookup(json, id, "mean_ns")?;
    match lookup(json, id, "elements") {
        Some(elements) if elements > 0.0 => Some(mean / elements),
        _ => Some(mean),
    }
}

/// Parsed command line. The 4-arg form gates `id` against the same id
/// in the baseline file; the 5-arg form names a *different* baseline
/// case, turning the gate into a cross-case speedup floor.
#[derive(Debug, PartialEq)]
struct GateArgs<'a> {
    baseline_path: &'a str,
    current_path: &'a str,
    id: &'a str,
    max_ratio: f64,
    baseline_id: &'a str,
}

fn parse_args(args: &[String]) -> Result<GateArgs<'_>, String> {
    let (baseline_path, current_path, id, max_ratio, baseline_id) = match args {
        [b, c, i, r] => (b, c, i, r, i),
        [b, c, i, r, bi] => (b, c, i, r, bi),
        _ => {
            return Err(
                "usage: bench_gate <baseline.json> <current.json> <case-id> <max-ratio> \
                 [baseline-id]"
                    .to_string(),
            )
        }
    };
    let max_ratio = max_ratio
        .parse::<f64>()
        .map_err(|_| format!("bench_gate: max-ratio {max_ratio:?} is not a number"))?;
    Ok(GateArgs {
        baseline_path,
        current_path,
        id,
        max_ratio,
        baseline_id,
    })
}

/// The gate decision on already-loaded JSON: the human-readable report
/// line, plus the regression message when the ratio exceeds the limit.
fn evaluate(
    baseline: &str,
    current: &str,
    args: &GateArgs<'_>,
) -> Result<(String, Option<String>), String> {
    let base = ns_per_element(baseline, args.baseline_id).ok_or_else(|| {
        format!(
            "bench_gate: case {:?} not found in {}",
            args.baseline_id, args.baseline_path
        )
    })?;
    let now = ns_per_element(current, args.id).ok_or_else(|| {
        format!(
            "bench_gate: case {:?} not found in {}",
            args.id, args.current_path
        )
    })?;
    let ratio = now / base;
    let vs = if args.baseline_id == args.id {
        String::new()
    } else {
        format!(" (vs {})", args.baseline_id)
    };
    let report = format!(
        "bench_gate {}{vs}: baseline {base:.2} ns/elem, current {now:.2} ns/elem, \
         ratio {ratio:.2} (limit {:.2})",
        args.id, args.max_ratio
    );
    let regression = (ratio > args.max_ratio).then(|| {
        format!(
            "bench_gate: REGRESSION — {}{vs} at {ratio:.2}x of baseline (limit {:.2}x)",
            args.id, args.max_ratio
        )
    });
    Ok((report, regression))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(args.baseline_path), read(args.current_path))
    else {
        return ExitCode::FAILURE;
    };
    match evaluate(&baseline, &current, &args) {
        Ok((report, regression)) => {
            println!("{report}");
            if let Some(message) = regression {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "mc_units/100000", "mean_ns": 2800000.0, "min_ns": 2600000.0, "max_ns": 3100000.0, "samples": 20, "iters_per_sample": 5, "elements": 100000, "ns_per_elem": 28.00, "threads": 1, "git_rev": "abc1234"},
  {"id": "legacy/no_npe", "mean_ns": 500.0, "min_ns": 400.0, "max_ns": 600.0, "samples": 20, "iters_per_sample": 5, "elements": null}
]"#;

    #[test]
    fn reads_recorded_ns_per_elem() {
        assert_eq!(ns_per_element(SAMPLE, "mc_units/100000"), Some(28.0));
    }

    #[test]
    fn falls_back_to_mean_without_elements() {
        assert_eq!(ns_per_element(SAMPLE, "legacy/no_npe"), Some(500.0));
    }

    #[test]
    fn derives_from_mean_and_elements() {
        let old = r#"[
  {"id": "mc_units/100000", "mean_ns": 9995084.2, "min_ns": 9632445.5, "max_ns": 11672631.8, "samples": 20, "iters_per_sample": 4, "elements": 100000}
]"#;
        let npe = ns_per_element(old, "mc_units/100000").unwrap();
        assert!((npe - 99.950842).abs() < 1e-6);
    }

    #[test]
    fn missing_case_is_none() {
        assert_eq!(ns_per_element(SAMPLE, "absent/case"), None);
    }

    #[test]
    fn lookup_tolerates_reformatted_whitespace() {
        let compact = r#"[{"id":"a/1","mean_ns":100.0,"elements":10,"ns_per_elem":10.0}]"#;
        assert_eq!(lookup(compact, "a/1", "ns_per_elem"), Some(10.0));
        let spaced = r#"[{"id"  :  "a/1" , "mean_ns" : 100.0 , "ns_per_elem" : 10.0}]"#;
        assert_eq!(lookup(spaced, "a/1", "ns_per_elem"), Some(10.0));
        let pretty = "[\n  {\n    \"id\": \"a/1\",\n    \"mean_ns\": 100.0,\n    \"elements\": 10,\n    \"ns_per_elem\": 10.0\n  },\n  {\n    \"id\": \"b/2\",\n    \"mean_ns\": 7.0\n  }\n]\n";
        assert_eq!(lookup(pretty, "a/1", "ns_per_elem"), Some(10.0));
        assert_eq!(lookup(pretty, "b/2", "mean_ns"), Some(7.0));
        assert_eq!(ns_per_element(pretty, "a/1"), Some(10.0));
    }

    #[test]
    fn lookup_distinguishes_similar_field_names() {
        // "min_ns"/"max_ns" share a suffix with "mean_ns"; a value
        // spelling a field name must not shadow the real key. The
        // shared scanner also survives escaped quotes and nested
        // objects (pinned in `ipass_report::json`'s own tests).
        let entry = r#"[{"id": "weird", "git_rev": "mean_ns", "min_ns": 1.0, "mean_ns": 5.0, "max_ns": 9.0}]"#;
        assert_eq!(lookup(entry, "weird", "mean_ns"), Some(5.0));
        assert_eq!(lookup(entry, "weird", "min_ns"), Some(1.0));
        assert_eq!(lookup(entry, "weird", "absent"), None);
    }

    #[test]
    fn ns_per_element_fallback_order_is_npe_then_derived_then_mean() {
        let both = r#"[{"id": "x", "mean_ns": 1000.0, "elements": 10, "ns_per_elem": 3.0}]"#;
        assert_eq!(ns_per_element(both, "x"), Some(3.0));
        let zero = r#"[{"id": "x", "mean_ns": 1000.0, "elements": 0}]"#;
        assert_eq!(ns_per_element(zero, "x"), Some(1000.0));
        let bare = r#"[{"id": "x", "elements": 10}]"#;
        assert_eq!(ns_per_element(bare, "x"), None);
    }

    #[test]
    fn cross_case_speedup_floor_inputs_resolve() {
        // The 5-arg form reads `baseline-id` from the baseline file and
        // `case-id` from the current file; both lookups go through
        // `ns_per_element`, so a two-entry file must resolve each id to
        // its own throughput.
        let two = r#"[
  {"id": "mc_units/100000", "mean_ns": 2200000.0, "elements": 100000, "ns_per_elem": 22.0},
  {"id": "mc_units_batch/100000", "mean_ns": 880000.0, "elements": 100000, "ns_per_elem": 8.8}
]"#;
        let scalar = ns_per_element(two, "mc_units/100000").unwrap();
        let batch = ns_per_element(two, "mc_units_batch/100000").unwrap();
        assert_eq!(scalar, 22.0);
        assert_eq!(batch, 8.8);
        assert!(batch / scalar <= 0.5, "speedup floor would fail");
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn four_args_gate_the_case_against_itself() {
        let args = strings(&["base.json", "now.json", "mc_units/100000", "3.0"]);
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.baseline_id, "mc_units/100000");
        assert_eq!(parsed.id, "mc_units/100000");
        assert_eq!(parsed.max_ratio, 3.0);
        assert_eq!(parsed.baseline_path, "base.json");
        assert_eq!(parsed.current_path, "now.json");
    }

    #[test]
    fn fifth_arg_selects_a_different_baseline_case() {
        let args = strings(&[
            "base.json",
            "now.json",
            "mc_units_batch/100000",
            "0.5",
            "mc_units/100000",
        ]);
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.id, "mc_units_batch/100000");
        assert_eq!(parsed.baseline_id, "mc_units/100000");
        assert_eq!(parsed.max_ratio, 0.5);
    }

    #[test]
    fn wrong_arity_and_bad_ratio_are_rejected() {
        assert!(parse_args(&strings(&["a", "b", "c"]))
            .unwrap_err()
            .contains("usage"));
        assert!(parse_args(&strings(&["a", "b", "c", "1.0", "d", "e"]))
            .unwrap_err()
            .contains("usage"));
        assert!(parse_args(&strings(&["a", "b", "c", "fast"]))
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn same_id_gate_passes_and_fails_on_the_ratio() {
        let baseline = r#"[{"id": "x", "ns_per_elem": 10.0}]"#;
        let slow = r#"[{"id": "x", "ns_per_elem": 35.0}]"#;
        let raw = strings(&["b", "c", "x", "3.0"]);
        let args = parse_args(&raw).unwrap();
        let (report, regression) = evaluate(baseline, baseline, &args).unwrap();
        assert!(report.contains("ratio 1.00"));
        assert!(
            !report.contains("(vs "),
            "self-gate must not print a vs clause"
        );
        assert!(regression.is_none());
        let (_, regression) = evaluate(baseline, slow, &args).unwrap();
        assert!(regression.unwrap().contains("REGRESSION"));
    }

    #[test]
    fn cross_case_gate_reads_each_id_from_its_own_file() {
        // With a fifth arg the baseline id resolves in the baseline
        // file and the case id in the current file — here the same
        // two-entry run gates the batch case against the scalar one.
        let run = r#"[
  {"id": "scalar", "ns_per_elem": 22.0},
  {"id": "batch", "ns_per_elem": 8.8}
]"#;
        let raw = strings(&["b", "c", "batch", "0.5", "scalar"]);
        let args = parse_args(&raw).unwrap();
        let (report, regression) = evaluate(run, run, &args).unwrap();
        assert!(report.contains("(vs scalar)"));
        assert!(report.contains("ratio 0.40"));
        assert!(regression.is_none());
        // A floor of 0.25 the 0.40 ratio misses must fail the gate.
        let raw_floor = strings(&["b", "c", "batch", "0.25", "scalar"]);
        let floor = parse_args(&raw_floor).unwrap();
        let (_, regression) = evaluate(run, run, &floor).unwrap();
        assert!(regression.unwrap().contains("(vs scalar)"));
    }

    #[test]
    fn missing_ids_name_the_file_they_were_expected_in() {
        let run = r#"[{"id": "x", "ns_per_elem": 1.0}]"#;
        let raw = strings(&["base.json", "now.json", "x", "1.0", "y"]);
        let args = parse_args(&raw).unwrap();
        let err = evaluate(run, run, &args).unwrap_err();
        assert!(err.contains("\"y\"") && err.contains("base.json"), "{err}");
        let raw = strings(&["base.json", "now.json", "z", "1.0", "x"]);
        let args = parse_args(&raw).unwrap();
        let err = evaluate(run, run, &args).unwrap_err();
        assert!(err.contains("\"z\"") && err.contains("now.json"), "{err}");
    }

    #[test]
    fn gate_tolerates_probe_metadata_fields_in_either_file() {
        // Newer baselines carry probe snapshots such as
        // `draws_per_elem`, and the committed ones still carry
        // `memo_hit_rate`, which fresh runs no longer write; the oldest
        // carry neither. The gate must read its timing fields
        // identically from every generation, in either position
        // (baseline or current).
        let old = r#"[{"id": "mc_units_batch/100000", "mean_ns": 961000.0, "elements": 100000, "ns_per_elem": 9.61, "threads": 1, "lane_width": 64}]"#;
        let new = r#"[{"id": "mc_units_batch/100000", "mean_ns": 961000.0, "elements": 100000, "ns_per_elem": 9.61, "threads": 1, "lane_width": 64, "draws_per_elem": 6.7413, "memo_hit_rate": null}]"#;
        assert_eq!(ns_per_element(old, "mc_units_batch/100000"), Some(9.61));
        assert_eq!(ns_per_element(new, "mc_units_batch/100000"), Some(9.61));
        let raw = strings(&["b", "c", "mc_units_batch/100000", "1.1"]);
        let args = parse_args(&raw).unwrap();
        for (baseline, current) in [(old, new), (new, old)] {
            let (report, regression) = evaluate(baseline, current, &args).unwrap();
            assert!(report.contains("ratio 1.00"), "{report}");
            assert!(regression.is_none());
        }
        // And the probe fields themselves are readable where present.
        assert_eq!(
            lookup(new, "mc_units_batch/100000", "draws_per_elem"),
            Some(6.7413)
        );
        assert_eq!(lookup(old, "mc_units_batch/100000", "draws_per_elem"), None);
    }

    #[test]
    fn lookup_survives_escapes_and_nesting() {
        // The cases the old brace-splitting scanner got wrong.
        let tricky = r#"[
  {"id": "a/1", "note": "brace \" } in a string", "meta": {"mean_ns": 1.0}, "mean_ns": 42.0}
]"#;
        assert_eq!(lookup(tricky, "a/1", "mean_ns"), Some(42.0));
    }
}
