//! `serve_engine`: the seeded `ipassd` request stream answered by
//! `Engine::handle_line` in fresh processes — the server's request
//! evaluation (parse, registry lookup, patched walk, report encoding)
//! as a library caller runs it, without the socket and the batcher.
//!
//! Each child builds its engine (set-up), rebuilds the reference
//! answers from the public calls the engine makes and keeps only their
//! hashes, runs one untimed warm-up pass over the stream and then
//! `PASSES` timed passes, timing every request. Every answer must hash
//! to its reference, and the child's references must match the ones
//! the parent computed.

use crate::stats;
use crate::{run_children, serve, sys, Outcome, Paths, Run};
use ipass_serve::Engine;
use std::process::ExitCode;
use std::time::Instant;

/// First argument that makes this binary a serving child process.
pub const CHILD_FLAG: &str = "--engine-child";
/// Timed passes over the stream per fresh process.
const PASSES: usize = 10;
/// Requests a run needs at least: a p99 in each of `stats::BLOCKS`
/// blocks wants 1000.
const MIN_SAMPLES: usize = 1000 * stats::BLOCKS;

/// FNV-1a over the hashes of every reference answer, in stream order.
fn digest(expected: &[Option<u64>]) -> u64 {
    expected.iter().fold(stats::FNV_OFFSET, |h, e| {
        stats::fnv1a(h, &e.unwrap_or(0).to_le_bytes())
    })
}

/// The child process. Prints `ready` once its engine has answered one
/// `analyze` per flow, then `reference <digest>`, one `pass` line per
/// pass (`-` for a failed request, else its nanoseconds) and finally
/// `rss <MB>`.
pub fn child_main(args: &[String]) -> ExitCode {
    let Some(seed) = args.first().and_then(|s| s.parse().ok()) else {
        eprintln!("perfbench: {CHILD_FLAG} needs a seed");
        return ExitCode::FAILURE;
    };
    let registry = match serve::registry() {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("perfbench: serving child set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let probes: Vec<String> = registry
        .names()
        .into_iter()
        .map(serve::analyze_line)
        .collect();
    let engine = Engine::new(registry);
    let answers: Vec<String> = probes.iter().map(|l| engine.handle_line(l)).collect();
    println!("ready");
    let stream = match serve::stream(seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: serving child reference failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("reference {:016x}", digest(&stream.expected));
    let probed = answers.len() == stream.probes.len()
        && answers
            .iter()
            .zip(&stream.probes)
            .all(|(answer, (_, expected))| serve::owed(*expected, answer));
    for pass in 0..=PASSES {
        let mut line = String::from(if pass == 0 { "warmup" } else { "pass" });
        for (request, &expected) in stream.lines.iter().zip(&stream.expected) {
            let began = Instant::now();
            let answer = engine.handle_line(request);
            let ns = began.elapsed().as_nanos();
            if probed && serve::owed(expected, &answer) {
                line.push_str(&format!(" {ns}"));
            } else {
                line.push_str(" -");
            }
        }
        println!("{line}");
    }
    let rss = sys::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    println!("rss {rss}");
    ExitCode::SUCCESS
}

/// The untraced run: fresh serving children until the budget is spent
/// and there are enough samples for the set-up median and the blocked
/// percentiles.
pub fn run(paths: &Paths, run: Run, outcome: &mut Outcome) -> Result<(), String> {
    let expected = digest(&serve::stream(run.seed)?.expected);
    let seed = run.seed.to_string();
    let child = (
        paths.me.as_path(),
        &[CHILD_FLAG, seed.as_str()][..],
        PASSES + 1,
    );
    run_children(
        child,
        run.budget,
        outcome,
        (MIN_SAMPLES, 0.99),
        |fields, report, tally| match fields {
            ["reference", d] => {
                tally.record(u64::from_str_radix(d, 16) == Ok(expected));
            }
            ["warmup", samples @ ..] => {
                report.ops += 1;
                tally.record(samples.iter().all(|s| *s != "-"));
            }
            ["pass", samples @ ..] => {
                report.ops += 1;
                for s in samples {
                    let ns = s.parse::<f64>().ok();
                    tally.record(ns.is_some());
                    report
                        .latencies_ms
                        .push(ns.map_or(f64::INFINITY, |ns| ns / 1e6));
                    if let Some(ns) = ns {
                        report.work += 1.0;
                        report.busy_s += ns / 1e9;
                    }
                }
            }
            other => {
                tally.record(false);
                eprintln!("perfbench: serving child said {other:?}");
            }
        },
    )
}
