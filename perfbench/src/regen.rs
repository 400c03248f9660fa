//! The `ipass regen` layers, timed in the traced run: every artifact
//! build, every report sink, the file writes, and the `ipass regen`
//! process around them. Every rendered file and every regenerated tree
//! must equal the committed `docs/artifacts/` byte for byte.
//!
//! `regen_book` is not an end-to-end workload: a loop of `ipass regen`
//! processes slowed from run to run on the host it was tuned on, and
//! slowed the other workloads after it (see `README.md`).

use crate::stats;
use crate::trace::Tracer;
use crate::{Outcome, Paths, Run};
use integrated_passives::artifacts;
use integrated_passives::report::Format;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Repetitions of each traced measurement.
const TRACE_REPS: u64 = 5;

/// A directory's files by name, with their bytes.
type Tree = BTreeMap<String, Vec<u8>>;

fn read_tree(dir: &Path) -> std::io::Result<Tree> {
    let mut tree = Tree::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        tree.insert(name, std::fs::read(entry.path())?);
    }
    Ok(tree)
}

/// One `ipass regen` into `dir`, which must not exist yet: wall
/// seconds, and whether the tree equals `book`.
fn regen_once(paths: &Paths, dir: &Path, book: &Tree) -> Result<(f64, bool), String> {
    let start = Instant::now();
    let status = Command::new(&paths.ipass)
        .arg("regen")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run ipass regen: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let same = read_tree(dir).is_ok_and(|tree| tree == *book);
    Ok((seconds, status.success() && same))
}

/// Build and render every artifact the way `artifacts::render_all`
/// does, one span per build and per render. Returns the rendered
/// (name.ext, text) pairs.
fn render_book(tracer: &Tracer, rep: u64) -> Result<Vec<(String, String)>, String> {
    let mut rendered = Vec::new();
    for spec in artifacts::specs() {
        let artifact = tracer
            .time(format!("artifact.{}.build", spec.name), rep, None, |_| {
                spec.build()
            })
            .map_err(|e| format!("{}: {e}", spec.name))?;
        for format in artifact.formats() {
            let text = tracer
                .time(format!("report.{format}.render"), rep, None, |_| {
                    artifact.render(format)
                })
                .map_err(|e| e.to_string())?;
            rendered.push((format!("{}.{format}", spec.name), text));
        }
    }
    Ok(rendered)
}

/// Sum of the durations (ns) of spans called `name`, per repetition.
fn per_rep_sums(tracer: &Tracer, name: &str) -> Vec<f64> {
    let mut sums = BTreeMap::new();
    for s in tracer.spans().iter().filter(|s| s.name == name) {
        *sums.entry(s.op).or_insert(0.0) += s.ns();
    }
    sums.into_values().collect()
}

fn median_ms(samples: &[f64]) -> f64 {
    stats::median(samples) / 1e6
}

/// The traced regeneration layers.
pub fn trace(
    paths: &Paths,
    run: Run,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let book =
        read_tree(&paths.docs).map_err(|e| format!("cannot read the committed book: {e}"))?;
    let root = paths.scratch.join(format!("regen-trace-{:016x}", run.seed));
    if root.exists() {
        std::fs::remove_dir_all(&root)
            .map_err(|e| format!("cannot clear {}: {e}", root.display()))?;
    }
    // The raw sinks must match the committed files; md is composed into
    // a page and checked through the full regeneration below.
    let check = |rendered: &[(String, String)]| {
        rendered.iter().all(|(name, text)| {
            name.ends_with(".md") || book.get(name).is_some_and(|b| b == text.as_bytes())
        })
    };
    // Warm-up, on a tracer of its own so its spans stay out of the medians.
    let warm = render_book(&Tracer::default(), 0)?;
    outcome.tally.record(check(&warm));
    let bytes: usize = warm.iter().map(|(_, t)| t.len()).sum();

    let mut cli = Vec::new();
    for rep in 0..TRACE_REPS {
        let spanned = render_book(tracer, rep)?;
        outcome.tally.record(check(&spanned));

        let sink = tracer
            .time("regen.render_all", rep, None, |_| artifacts::render_all())
            .map_err(|e| e.to_string())?;
        outcome.tally.record(sink.entries().len() == book.len());
        let dir = root.join(format!("in-process-{rep}"));
        let written = tracer
            .time("regen.in_process", rep, None, |_| artifacts::regen(&dir))
            .map_err(|e| e.to_string())?;
        outcome
            .tally
            .record(written == book.len() && read_tree(&dir).is_ok_and(|t| t == book));
        let (seconds, ok) = regen_once(paths, &root.join(format!("cli-{rep}")), &book)?;
        cli.push(seconds * 1e9);
        outcome.tally.record(ok);
    }
    let _ = std::fs::remove_dir_all(&root);

    for spec in artifacts::specs() {
        let name = format!("artifact.{}.build", spec.name);
        outcome.metric(
            format!("{name}_ms"),
            median_ms(&per_rep_sums(tracer, &name)),
            "ms",
        );
    }
    for format in Format::ALL {
        let name = format!("report.{format}.render");
        outcome.metric(
            format!("{name}_ms"),
            median_ms(&per_rep_sums(tracer, &name)),
            "ms",
        );
    }
    outcome.metric("report.bytes", bytes as f64, "B");
    let in_process = median_ms(&tracer.durations("regen.in_process"));
    outcome.metric(
        "sink.write_ms",
        in_process - median_ms(&tracer.durations("regen.render_all")),
        "ms",
    );
    outcome.metric("regen.cli_ms", median_ms(&cli), "ms");
    outcome.metric("regen.exec_ms", median_ms(&cli) - in_process, "ms");
    Ok(())
}
