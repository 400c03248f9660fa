//! Request evaluation: one pure function from request line to response
//! line, plus the server's counter plane.
//!
//! Every response-producing path is a pure function of the request
//! content (the `stats` verb excepted, by design) — this is what makes
//! the wire-level determinism property testable: connection threads
//! and client interleaving can change *when* a request is evaluated
//! but never *what* it answers.

use crate::protocol::{derived_seed, parse_request, ErrorCode, Request, ServeError};
use crate::registry::FlowRegistry;
use ipass_moe::{CostReport, Probe, SimOptions};
use ipass_obs::{RunStats, ServeStats};
use ipass_report::json::Json;
use ipass_report::Artifact;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Relaxed lifetime counters of the serving plane (the atomics behind
/// [`ServeStats`]). Totals are exact once the server is quiescent.
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub responses_ok: AtomicU64,
    pub responses_err: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub evaluated: AtomicU64,
}

impl ServeCounters {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            responses_err: self.responses_err.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
        }
    }
}

/// The serving core: registry, counters and the shutdown latch. Shared
/// (via `Arc`) between the accept loop and every connection thread.
#[derive(Debug)]
pub struct Engine {
    registry: FlowRegistry,
    pub(crate) serve: ServeCounters,
    /// Slot writes applied by answered `patch` requests (relaxed, like
    /// the serve counters).
    patch_writes: AtomicU64,
    /// Portable cores of every probed Monte Carlo run, merged — the
    /// engine-side half of the `stats` verb.
    engine_stats: Mutex<RunStats>,
    shutdown: AtomicBool,
}

impl Engine {
    /// An engine serving `registry`.
    pub fn new(registry: FlowRegistry) -> Engine {
        Engine {
            registry,
            serve: ServeCounters::default(),
            patch_writes: AtomicU64::new(0),
            engine_stats: Mutex::new(RunStats::default()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Trigger shutdown programmatically (the `shutdown` verb does the
    /// same).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The cumulative [`RunStats`] of this server: merged engine
    /// counters from probed runs, the slot writes of answered `patch`
    /// requests, and the serve plane from the connection counters.
    pub fn run_stats(&self) -> RunStats {
        let mut stats = *self.engine_stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.patch_writes += self.patch_writes.load(Ordering::Relaxed);
        stats.serve = self.serve.snapshot();
        stats
    }

    /// Evaluate one request line to one response line (no trailing
    /// newline). Never panics: handler panics are caught and answered
    /// as typed `internal-error` responses.
    pub fn handle_line(&self, line: &str) -> String {
        self.serve.requests.fetch_add(1, Ordering::Relaxed);
        self.serve.evaluated.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse_request(line).and_then(|req| self.dispatch(req))
        }));
        let (response, ok) = match outcome {
            Ok(Ok(json)) => (json.render_compact(), true),
            Ok(Err(err)) => (err.response_line(), false),
            Err(_) => (
                ServeError::new(
                    ErrorCode::InternalError,
                    "request handler panicked; the server keeps serving",
                )
                .response_line(),
                false,
            ),
        };
        self.count_response(ok);
        response
    }

    /// A connection-level (framing) error as a counted response line:
    /// oversized lines, invalid UTF-8 and idle timeouts never reach the
    /// parser but still produce typed, counted responses.
    pub fn frame_error(&self, code: ErrorCode, message: impl Into<String>) -> String {
        self.serve.requests.fetch_add(1, Ordering::Relaxed);
        self.count_response(false);
        ServeError::new(code, message).response_line()
    }

    fn count_response(&self, ok: bool) {
        if ok {
            &self.serve.responses_ok
        } else {
            &self.serve.responses_err
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn dispatch(&self, req: Request) -> Result<Json, ServeError> {
        match req {
            Request::List => Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str("list")),
                ("flows", Json::strs(self.registry.names())),
            ])),
            Request::Analyze { flow } => {
                let report = self
                    .registry
                    .compiled(&flow)?
                    .analyze()
                    .map_err(engine_error)?;
                Ok(report_response("analyze", &flow, Vec::new(), &report))
            }
            Request::Patch {
                flow,
                directives,
                volume,
            } => {
                let compiled = self.registry.compiled(&flow)?;
                let mut patch = compiled.patch();
                for directive in &directives {
                    patch.apply(directive).map_err(engine_error)?;
                }
                if let Some(v) = volume {
                    patch.set_volume(v);
                }
                let report = patch.analyze().map_err(engine_error)?;
                self.patch_writes
                    .fetch_add(patch.writes(), Ordering::Relaxed);
                let extra = vec![("writes", Json::Int(patch.writes() as i64))];
                Ok(report_response("patch", &flow, extra, &report))
            }
            Request::Mc { flow, units, seed } => {
                let effective = derived_seed(&flow, seed);
                let options = SimOptions::new(units)
                    .with_seed(effective)
                    .with_threads(1)
                    .with_probe(Probe::ON);
                let summary = self
                    .registry
                    .compiled(&flow)?
                    .simulate_summary(&options)
                    .map_err(engine_error)?;
                if let Some(stats) = &summary.stats {
                    let mut cumulative =
                        self.engine_stats.lock().unwrap_or_else(|p| p.into_inner());
                    cumulative.merge(&stats.invariant_core());
                }
                let extra = vec![
                    ("units", Json::Int(units as i64)),
                    ("seed", Json::str(seed.to_string())),
                    ("derived_seed", Json::str(effective.to_string())),
                ];
                Ok(report_response("mc", &flow, extra, &summary.report))
            }
            Request::Stats => Ok(self.stats_response()),
            Request::Shutdown => {
                self.request_shutdown();
                Ok(Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("verb", Json::str("shutdown")),
                ]))
            }
        }
    }

    fn stats_response(&self) -> Json {
        let stats = self.run_stats();
        let count = |v: u64| Json::Int(v as i64);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("verb", Json::str("stats")),
            (
                "serve",
                Json::obj(vec![
                    ("connections", count(stats.serve.connections)),
                    ("requests", count(stats.serve.requests)),
                    ("responses_ok", count(stats.serve.responses_ok)),
                    ("responses_err", count(stats.serve.responses_err)),
                    ("bytes_in", count(stats.serve.bytes_in)),
                    ("bytes_out", count(stats.serve.bytes_out)),
                    // Each evaluated request is its own dispatch; the
                    // two keys keep the wire shape readers rely on.
                    ("batches", count(stats.serve.evaluated)),
                    ("batched_requests", count(stats.serve.evaluated)),
                ]),
            ),
            (
                "cache",
                // The registry in the legacy cache shape: misses are the
                // flows compiled at registration, hits the lookups
                // served from them.
                Json::obj(vec![
                    ("hits", count(self.registry.lookups())),
                    ("misses", count(self.registry.len() as u64)),
                ]),
            ),
            (
                "engine",
                Json::obj(vec![
                    ("units", count(stats.units)),
                    ("draws", count(stats.draws)),
                    ("rework_attempts", count(stats.rework_attempts)),
                    ("sub_units_built", count(stats.sub_units_built)),
                    ("patch_writes", count(stats.patch_writes)),
                ]),
            ),
        ])
    }
}

fn engine_error(e: ipass_moe::FlowError) -> ServeError {
    ServeError::new(ErrorCode::EngineError, e.to_string())
}

/// The shared `ok` response layout: verb, flow, verb-specific members,
/// then the cost report in the artifact JSON encoding (the same
/// [`Artifact::to_json`] tree `ipass artifact --format json` commits).
fn report_response(verb: &str, flow: &str, extra: Vec<(&str, Json)>, report: &CostReport) -> Json {
    let mut members = vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::str(verb)),
        ("flow", Json::str(flow)),
    ];
    members.extend(extra);
    members.push(("report", Artifact::Table(report.artifact_table()).to_json()));
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testflow::demo_flow;
    use ipass_report::json;

    fn engine() -> Engine {
        let mut reg = FlowRegistry::new();
        reg.register("demo", demo_flow());
        Engine::new(reg)
    }

    #[test]
    fn responses_are_pure_functions_of_the_request() {
        let e = engine();
        for line in [
            r#"{"verb":"list"}"#,
            r#"{"verb":"analyze","flow":"demo"}"#,
            r#"{"verb":"patch","flow":"demo","directives":[{"scale":"cost","slot":"c","factor":2}]}"#,
            r#"{"verb":"mc","flow":"demo","units":2000,"seed":42}"#,
        ] {
            assert_eq!(e.handle_line(line), e.handle_line(line), "{line}");
        }
    }

    #[test]
    fn mc_seed_defaults_and_derivation_show_up_in_the_response() {
        let e = engine();
        let with_default = e.handle_line(r#"{"verb":"mc","flow":"demo","units":500}"#);
        let with_zero = e.handle_line(r#"{"verb":"mc","flow":"demo","units":500,"seed":0}"#);
        assert_eq!(with_default, with_zero);
        assert_eq!(
            json::string_field(&with_default, "derived_seed").unwrap(),
            derived_seed("demo", 0).to_string()
        );
    }

    #[test]
    fn engine_errors_are_typed_responses() {
        let e = engine();
        let resp = e.handle_line(r#"{"verb":"analyze","flow":"ghost"}"#);
        assert_eq!(json::string_field(&resp, "ok"), Some("false"));
        let err = json::field_value(&resp, "error").unwrap();
        assert_eq!(json::string_field(err, "code"), Some("unknown-flow"));
        // An unknown slot, then costs the verifier would reject: scaled
        // below zero, set below zero, and scaled past f64::MAX (which
        // used to panic inside the report). Last, two costs that are
        // each valid but overflow when summed (which also used to
        // panic inside the report).
        for directives in [
            r#"{"set":"cost","slot":"ghost","value":1}"#,
            r#"{"scale":"cost","slot":"c","factor":-1}"#,
            r#"{"set":"cost","slot":"c","value":-5}"#,
            r#"{"scale":"cost","slot":"c","factor":1e308}"#,
            r#"{"set":"cost","slot":"c","value":1e308},{"set":"cost","slot":"ft","value":1e308}"#,
        ] {
            let resp = e.handle_line(&format!(
                r#"{{"verb":"patch","flow":"demo","directives":[{directives}]}}"#
            ));
            let err = json::field_value(&resp, "error").unwrap_or_else(|| panic!("{resp}"));
            assert_eq!(
                json::string_field(err, "code"),
                Some("engine-error"),
                "{resp}"
            );
        }
    }

    #[test]
    fn stats_counts_requests_and_cache_traffic() {
        let e = engine();
        let _ = e.handle_line(r#"{"verb":"analyze","flow":"demo"}"#);
        let _ = e.handle_line(
            r#"{"verb":"patch","flow":"demo","directives":[{"scale":"cost","slot":"c","factor":2},{"set":"coverage","slot":"ft","value":0.9}]}"#,
        );
        let _ = e.handle_line(r#"{"verb":"nope"}"#);
        let _ = e.frame_error(ErrorCode::InvalidUtf8, "not evaluated");
        let resp = e.handle_line(r#"{"verb":"stats"}"#);
        let serve = json::field_value(&resp, "serve").unwrap();
        assert_eq!(json::number_field(serve, "requests"), Some(5.0));
        assert_eq!(json::number_field(serve, "responses_ok"), Some(2.0));
        assert_eq!(json::number_field(serve, "responses_err"), Some(2.0));
        // Both batch keys report the lines the engine evaluated.
        assert_eq!(json::number_field(serve, "batches"), Some(4.0));
        assert_eq!(json::number_field(serve, "batched_requests"), Some(4.0));
        // One flow compiled at registration; both lookups served from it.
        let cache = json::field_value(&resp, "cache").unwrap();
        assert_eq!(json::number_field(cache, "hits"), Some(2.0));
        assert_eq!(json::number_field(cache, "misses"), Some(1.0));
        assert_eq!(json::number_field(cache, "dropped"), None);
        assert_eq!(json::number_field(cache, "poisoned"), None);
        // The patch's two slot writes reach the engine plane.
        let engine = json::field_value(&resp, "engine").unwrap();
        assert_eq!(json::number_field(engine, "patch_writes"), Some(2.0));
    }

    #[test]
    fn mc_merges_portable_probe_cores() {
        let e = engine();
        let _ = e.handle_line(r#"{"verb":"mc","flow":"demo","units":1000,"seed":1}"#);
        let _ = e.handle_line(r#"{"verb":"mc","flow":"demo","units":500,"seed":2}"#);
        let stats = e.run_stats();
        assert_eq!(stats.units, 1500);
        assert!(stats.draws > 0);
    }

    #[test]
    fn shutdown_verb_latches() {
        let e = engine();
        assert!(!e.shutdown_requested());
        let resp = e.handle_line(r#"{"verb":"shutdown"}"#);
        assert_eq!(resp, r#"{"ok":true,"verb":"shutdown"}"#);
        assert!(e.shutdown_requested());
    }
}
