//! `ipass-perfbench` — the repository's end-to-end benchmark.
//!
//! Two seeded closed-loop workloads drive what a user of the cost
//! engine waits for: answering the `ipassd` request stream through the
//! serving engine (`serve_engine`) and design-space frontier
//! exploration (`explore_frontier`), each in fresh processes. Every
//! output is checked; every failed operation is counted. `--trace 1`
//! runs the separate traced pass that times each layer's public calls
//! instead, including `ipassd` round-trips and the layers of
//! `ipass regen`.
//!
//! ```text
//! bash perfbench/run.sh --workload serve_engine --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `run.sh` builds `ipassd`, `ipass` and this binary into
//! `CARGO_TARGET_DIR` (default `target`) and runs it from the
//! repository root. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/README.md` explains the workloads and metrics.

mod engine;
mod explore;
mod regen;
mod serve;
mod stats;
mod sys;
mod trace;

use stats::Tally;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Load-generator threads, and connections (one per thread), of the
/// traced run's `ipassd` segments. The benchmark refuses to start on a
/// host with fewer hardware threads.
pub const LOAD_THREADS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["serve_engine", "explore_frontier"];

/// Where the programs under test live, and the benchmark's own scratch
/// space (inside the build directory, so inside the checkout).
#[derive(Debug, Clone)]
pub struct Paths {
    /// The shipped server binary (traced run only).
    pub ipassd: PathBuf,
    /// The shipped artifact CLI (traced run only).
    pub ipass: PathBuf,
    /// This benchmark binary (re-spawned for fresh measuring processes).
    pub me: PathBuf,
    /// Scratch directory for regenerated trees and span dumps.
    pub scratch: PathBuf,
    /// The committed docs book every regeneration must reproduce.
    pub docs: PathBuf,
}

impl Paths {
    fn locate() -> Result<Paths, String> {
        let target = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));
        let release = target.join("release");
        let paths = Paths {
            ipassd: release.join("ipassd"),
            ipass: release.join("ipass"),
            me: std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?,
            scratch: target.join("perfbench"),
            docs: PathBuf::from("docs/artifacts"),
        };
        for program in [&paths.ipassd, &paths.ipass] {
            if !program.is_file() {
                return Err(format!(
                    "{} is missing; build it with `bash perfbench/run.sh`",
                    program.display()
                ));
            }
        }
        if !paths.docs.is_dir() {
            return Err("run from the repository root: docs/artifacts/ not found".into());
        }
        std::fs::create_dir_all(&paths.scratch)
            .map_err(|e| format!("cannot create {}: {e}", paths.scratch.display()))?;
        Ok(paths)
    }
}

/// One run's seed and measuring time.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub budget: Duration,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports: operations counted, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Report one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }

    /// The result object: the last line of standard output.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(",")
        )
    }
}

/// What one measuring child reported about its timed operations.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the child reported, timed or not.
    pub ops: usize,
    /// Latencies of the timed operations, in order; a failed operation
    /// is infinite.
    pub latencies_ms: Vec<f64>,
    /// Work the timed operations did: requests or design points.
    pub work: f64,
    /// Seconds the timed operations took.
    pub busy_s: f64,
    /// The child's peak resident set.
    pub peak_rss_mb: Option<f64>,
}

/// How long a measuring child may run before it is killed and counted
/// as failed. A healthy child ends within a second or two.
const CHILD_LIMIT: Duration = Duration::from_secs(30);

/// The untraced run of a workload: spawn the measuring child `exe args`
/// again and again until `budget` is spent and there are at least
/// `min_samples` latencies, then report the five end-to-end metrics,
/// the tail at quantile `tail`.
///
/// `line` reads each line a child prints into its [`Report`] and counts
/// its checks; a child must also print `ready` and `rss <MB>`, report
/// `ops` operations and exit 0 within [`CHILD_LIMIT`]. A child that does
/// not counts as one failed operation with an infinite latency. Past the
/// budget, children are spawned for more samples only while none has
/// failed; a metric the run's failures leave without enough samples is
/// reported as infinite.
///
/// # Errors
///
/// When a child cannot be started, or a run without failures cannot
/// take a metric.
pub fn run_children(
    (exe, args, ops): (&Path, &[&str], usize),
    budget: Duration,
    outcome: &mut Outcome,
    (min_samples, tail): (usize, f64),
    mut line: impl FnMut(&[&str], &mut Report, &mut Tally),
) -> Result<(), String> {
    let (mut setups, mut latencies, mut rss) = (vec![], vec![], vec![]);
    let mut pool = stats::Pool::default();
    let began = std::time::Instant::now();
    let mut spawned = 0;
    while began.elapsed() < budget
        || (outcome.tally.failed == 0
            && (spawned < stats::MIN_COLD_STARTS || latencies.len() < min_samples))
    {
        spawned += 1;
        let mut report = Report::default();
        let tally = &mut outcome.tally;
        let exit = sys::run_child(exe, args, CHILD_LIMIT, |fields| match fields {
            ["rss", mb] => report.peak_rss_mb = mb.parse().ok().filter(|m: &f64| m.is_finite()),
            _ => line(fields, &mut report, tally),
        })?;
        let complete = report.ops == ops && report.peak_rss_mb.is_some();
        if !outcome
            .tally
            .record(exit.ok && exit.ready.is_some() && complete)
        {
            // The operation the child hung or died in misses every limit.
            report.latencies_ms.push(f64::INFINITY);
        }
        setups.extend(exit.ready);
        latencies.extend(report.latencies_ms);
        rss.extend(report.peak_rss_mb);
        pool.add(report.work, report.busy_s);
    }
    let failed = outcome.tally.failed > 0;
    let or_missed = |metric: Result<f64, String>| match metric {
        Err(_) if failed => Ok(f64::INFINITY),
        metric => metric,
    };
    outcome.metric("setup_s", or_missed(stats::setup_seconds(&setups))?, "s");
    let peak = if rss.is_empty() {
        f64::INFINITY
    } else {
        stats::median(&rss)
    };
    outcome.metric("peak_rss_mb", peak, "MB");
    let blocks = stats::blocks(&latencies, stats::BLOCKS);
    outcome.metric(
        "latency_p50_ms",
        or_missed(stats::blocked(&blocks, 0.5))?,
        "ms",
    );
    outcome.metric(
        "latency_tail_ms",
        or_missed(stats::blocked(&blocks, tail))?,
        "ms",
    );
    let rate = pool.rate();
    outcome.metric("work_per_s", if rate.is_nan() { 0.0 } else { rate }, "1/s");
    Ok(())
}

/// A JSON number. A latency that includes failed operations can be
/// infinite; it is written as the largest finite `f64`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's random streams so a change to those never changes the
/// benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

const USAGE: &str = "usage: ipass-perfbench --workload serve_engine|explore_frontier \
     --seed N --seconds S [--trace 0|1]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(engine::CHILD_FLAG) => return engine::child_main(&args[1..]),
        Some(explore::CHILD_FLAG) => return explore::child_main(&args[1..]),
        _ => {}
    }
    match run(&args) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<Outcome, String> {
    let args = parse_args(args)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if LOAD_THREADS > cores {
        return Err(format!(
            "refusing to start: {LOAD_THREADS} load threads and connections exceed \
             available_parallelism() = {cores}"
        ));
    }
    let paths = Paths::locate()?;
    let run = Run {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
    };
    let mut outcome = Outcome::default();
    if args.trace {
        trace_run(&args.workload, &paths, run, &mut outcome)?;
    } else {
        match args.workload.as_str() {
            "serve_engine" => engine::run(&paths, run, &mut outcome)?,
            _ => explore::run(&paths, run, &mut outcome)?,
        }
    }
    Ok(outcome)
}

/// The traced run: every layer of the serve, exploration and `ipass
/// regen` pipelines, timed from outside through its public calls, plus
/// the tracing overhead on the named workload. Spans are dumped to the scratch directory at the
/// end.
fn trace_run(workload: &str, paths: &Paths, run: Run, outcome: &mut Outcome) -> Result<(), String> {
    let tracer = trace::Tracer::default();
    let overhead = [
        serve::trace(paths, run, &tracer, outcome)?,
        explore::trace(paths, run, &tracer, outcome)?,
    ];
    regen::trace(paths, run, &tracer, outcome)?;
    let index = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .expect("workload validated");
    outcome.metric("trace.overhead_pct", overhead[index], "%");
    let dump = paths
        .scratch
        .join(format!("trace-{workload}-seed{}.jsonl", run.seed));
    std::fs::write(&dump, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    eprint!("{}", trace::summary(&tracer.spans()));
    eprintln!("perfbench: spans written to {}", dump.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.tally.record(true);
        outcome.metric("latency_p50_ms", 0.08125, "ms");
        outcome.metric("latency_tail_ms", f64::INFINITY, "ms");
        let line = outcome.result_line();
        assert!(line.starts_with(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""latency_p50_ms":{"value":0.08125,"unit":"ms"}"#));
        assert!(!line.contains("inf"), "{line}");
        outcome.tally.record(false);
        assert!(outcome
            .result_line()
            .starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#));
    }

    /// A report line reader for the test children: `sample <ms>`.
    fn samples(fields: &[&str], report: &mut Report, tally: &mut Tally) {
        report.ops += 1;
        let ms = match fields {
            ["sample", ms] => ms.parse().ok(),
            _ => None,
        };
        tally.record(ms.is_some());
        report.latencies_ms.push(ms.unwrap_or(f64::INFINITY));
        report.work += 1.0;
        report.busy_s += ms.unwrap_or(0.0) / 1e3;
    }

    fn sh(script: &str) -> (&Path, [&str; 2], usize) {
        (Path::new("sh"), ["-c", script], 2)
    }

    #[test]
    fn run_children_pools_healthy_children() {
        let (exe, args, ops) = sh("echo ready; echo sample 2; echo sample 4; echo rss 1.5");
        let mut outcome = Outcome::default();
        let budget = Duration::from_millis(1);
        // A p50 in each of five blocks needs 100 samples: 50 children.
        run_children((exe, &args, ops), budget, &mut outcome, (100, 0.5), samples).unwrap();
        // Two samples and one lifecycle check per child.
        assert_eq!(
            outcome.tally,
            Tally {
                attempted: 150,
                failed: 0
            }
        );
        assert!(outcome.correct());
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("setup_s") > 0.0);
        assert_eq!(value("peak_rss_mb"), 1.5);
        assert_eq!(value("latency_p50_ms"), 2.0);
        assert_eq!(value("latency_tail_ms"), 2.0);
        // 100 samples over 50 × 6 ms of busy time.
        assert!((value("work_per_s") - 100.0 / 0.3).abs() < 1e-6);
    }

    #[test]
    fn run_children_counts_a_broken_child_and_still_reports() {
        // Dies before its first timed operation.
        let (exe, args, ops) = sh("echo ready; exit 1");
        let mut outcome = Outcome::default();
        let budget = Duration::from_millis(1);
        run_children((exe, &args, ops), budget, &mut outcome, (100, 0.5), samples).unwrap();
        assert_eq!(
            outcome.tally,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
        let line = outcome.result_line();
        assert!(
            line.starts_with(r#"{"correct":false,"attempted":1,"failed":1,"#),
            "{line}"
        );
        let max = format!(r#""latency_p50_ms":{{"value":{},"unit":"ms"}}"#, f64::MAX);
        assert!(line.contains(&max), "{line}");
        assert!(
            line.contains(r#""work_per_s":{"value":0,"unit":"1/s"}"#),
            "{line}"
        );
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
        for _ in 0..1000 {
            let x = a.range(0.5, 1.5);
            assert!((0.5..1.5).contains(&x));
            assert!(a.below(4) < 4);
        }
    }

    #[test]
    fn args_are_validated() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve_engine --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse_args(&args("--workload serve_query --seed 3 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload serve_engine --seed -1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload serve_engine --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args(
            "--workload serve_engine --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve_engine --seconds 1")).is_err());
    }
}
