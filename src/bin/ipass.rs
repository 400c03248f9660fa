//! `ipass` — the scriptable front end of the paper-artifact pipeline.
//!
//! ```text
//! ipass list                                  # registered artifacts
//! ipass artifact fig6 --format txt            # one artifact to stdout
//! ipass artifact fig6 --format svg --out f.svg
//! ipass regen [docs/artifacts/]               # rewrite the committed tree
//! ipass regen --check [docs/artifacts/]       # drift check, no writes
//! ipass stats solution2                       # probed counters vs proven bounds
//! ipass profile solution2 --json              # live wall-clock phase spans
//! ```
//!
//! `regen` is byte-deterministic: running it twice produces identical
//! files, and CI regenerates into the checkout and fails on any diff —
//! the committed docs cannot drift from the code.

use integrated_passives::artifacts;
use integrated_passives::report::Format;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: ipass <command>\n\
    \n\
    commands:\n\
    \x20 list                                     list registered artifacts\n\
    \x20 artifact <name> [--format F] [--out P]   render one artifact (F: txt|csv|md|json|svg; default txt)\n\
    \x20 regen [--check] [dir]                    regenerate the committed artifact tree (default docs/artifacts/)\n\
    \x20 lint [--deny-warnings]                   statically verify every committed solution flow (CI gate)\n\
    \x20 stats <solution>                         probed-run counters vs the statically proven bounds (solution1..4)\n\
    \x20 profile <solution> [--json]              live wall-clock phase spans of the stats pipeline\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("artifact") => artifact(&args[1..]),
        Some("regen") => regen(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some(other) => {
            eprintln!("ipass: unknown command {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn list() -> ExitCode {
    let width = artifacts::specs()
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(0);
    for spec in artifacts::specs() {
        println!("{:width$}  {}", spec.name, spec.what);
    }
    ExitCode::SUCCESS
}

fn artifact(args: &[String]) -> ExitCode {
    let mut name: Option<&str> = None;
    let mut format = Format::Txt;
    let mut out: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let Some(f) = it.next().and_then(|v| Format::parse(v)) else {
                    eprintln!("ipass: --format needs one of txt|csv|md|json|svg");
                    return ExitCode::FAILURE;
                };
                format = f;
            }
            "--out" => {
                let Some(path) = it.next() else {
                    eprintln!("ipass: --out needs a path");
                    return ExitCode::FAILURE;
                };
                out = Some(path);
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other),
            other => {
                eprintln!("ipass: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("ipass: artifact needs a name (see `ipass list`)");
        return ExitCode::FAILURE;
    };
    let Some(spec) = artifacts::find(name) else {
        eprintln!("ipass: unknown artifact {name:?} (see `ipass list`)");
        return ExitCode::FAILURE;
    };
    let value = match spec.build() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ipass: building {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let content = match value.render(format) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ipass: {e}");
            return ExitCode::FAILURE;
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &content) {
                eprintln!("ipass: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{content}"),
    }
    ExitCode::SUCCESS
}

/// `ipass lint [--deny-warnings]` — run the `moe::verify` static pass
/// over every committed solution flow. Errors always fail; warnings
/// fail under `--deny-warnings` (the CI configuration); infos never do.
fn lint(args: &[String]) -> ExitCode {
    use integrated_passives::moe::Severity;
    let mut deny_warnings = false;
    for arg in args {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            other => {
                eprintln!("ipass: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let targets = match artifacts::lint_targets() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ipass: building the committed flows failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut errors, mut warnings, mut infos) = (0, 0, 0);
    for (label, compiled) in &targets {
        let diags = compiled.verify();
        errors += diags.count(Severity::Error);
        warnings += diags.count(Severity::Warning);
        infos += diags.count(Severity::Info);
        for d in diags.iter() {
            println!("{label}: {d}");
        }
    }
    println!(
        "ipass lint: {} flow(s) verified — {errors} error(s), {warnings} warning(s), \
         {infos} info(s)",
        targets.len(),
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `ipass stats <solution>` — run the selected committed flow through
/// the probed Monte Carlo engine and cross-check every measured counter
/// against the statically proven bounds. Any violation fails.
fn stats(args: &[String]) -> ExitCode {
    let mut selector: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            other if selector.is_none() && !other.starts_with('-') => selector = Some(other),
            other => {
                eprintln!("ipass: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(index) = selector.and_then(artifacts::solution_index) else {
        eprintln!("ipass: stats needs a flow selector (solution1..solution4)");
        return ExitCode::FAILURE;
    };
    let run = match artifacts::measure_solution(index, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ipass: measuring the flow failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", artifacts::runstats_table_for(&run).to_txt());
    for v in &run.violations {
        eprintln!("ipass stats: BOUND VIOLATION: {v}");
    }
    if run.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `ipass profile <solution> [--json]` — the same pipeline as
/// `ipass stats`, timed: live wall-clock spans (build / bounds / mc /
/// executor chunks), as a table or as the trace's JSON form. Timings
/// are real here — only the committed `profile` artifact redacts them.
fn profile(args: &[String]) -> ExitCode {
    use integrated_passives::obs::Profiler;
    let mut json = false;
    let mut selector: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if selector.is_none() && !other.starts_with('-') => selector = Some(other),
            other => {
                eprintln!("ipass: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(index) = selector.and_then(artifacts::solution_index) else {
        eprintln!("ipass: profile needs a flow selector (solution1..solution4)");
        return ExitCode::FAILURE;
    };
    let profiler = Profiler::default();
    if let Err(e) = artifacts::measure_solution(index, Some(&profiler)) {
        eprintln!("ipass: profiling the flow failed: {e}");
        return ExitCode::FAILURE;
    }
    let trace = profiler.trace();
    if json {
        println!("{}", trace.to_json());
    } else {
        print!("{}", artifacts::profile_table_for(&trace, false).to_txt());
    }
    ExitCode::SUCCESS
}

fn regen(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut dir: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            other if dir.is_none() && !other.starts_with('-') => dir = Some(other),
            other => {
                eprintln!("ipass: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let dir = dir.unwrap_or("docs/artifacts/");
    if check {
        match artifacts::check(Path::new(dir)) {
            Ok(stale) if stale.is_empty() => {
                println!("ipass: {dir} is current");
                ExitCode::SUCCESS
            }
            Ok(stale) => {
                eprintln!(
                    "ipass: {dir} has drifted from the code — stale: {}",
                    stale.join(", ")
                );
                eprintln!("run `cargo run --release --bin ipass -- regen {dir}` and commit");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("ipass: check failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match artifacts::regen(Path::new(dir)) {
            Ok(count) => {
                println!("ipass: wrote {count} files under {dir}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ipass: regen failed: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
