//! `ipassd` — the long-running serving daemon for compiled flows.
//!
//! Compiles the four committed paper solutions into a
//! [`FlowRegistry`] and serves the
//! newline-delimited JSON protocol (verbs `list`, `analyze`, `patch`,
//! `mc`, `stats`, `shutdown`) on a TCP listener, answering each
//! connection's requests on that connection's own thread:
//!
//! ```text
//! ipassd                                # serve on 127.0.0.1:7171
//! ipassd --addr 127.0.0.1:9000         # serve elsewhere
//! ipassd --smoke                       # boot, self-test every verb, exit
//! echo '{"verb":"analyze","flow":"solution2"}' | nc 127.0.0.1 7171
//! ```
//!
//! All diagnostics go to stderr prefixed `info:`; anything else on
//! stderr is a bug (CI's serve-smoke step asserts exactly that).

use ipass_serve::{Client, FlowRegistry, Server, ServerConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: ipassd [--addr HOST:PORT] [--smoke]\n\
    \n\
    options:\n\
    \x20 --addr HOST:PORT   listen address (default 127.0.0.1:7171)\n\
    \x20 --smoke            boot on an ephemeral port, run one query per verb\n\
    \x20                    plus one malformed request, then shut down\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7171");
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(a) = it.next() else {
                    eprintln!("ipassd: --addr needs HOST:PORT\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                addr = a.clone();
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprint!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ipassd: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let registry = match build_registry() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ipassd: building the flow registry failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if smoke {
        return smoke_test(registry);
    }

    let server = match Server::start(registry, &addr, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipassd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("info: ipassd serving on {}", server.addr());
    eprintln!("info: send {{\"verb\":\"shutdown\"}} to stop");
    // Blocks until a client sends the shutdown verb; in-flight requests
    // are answered before the connection threads join.
    server.wait();
    eprintln!("info: ipassd shut down cleanly");
    ExitCode::SUCCESS
}

/// The committed paper solutions under `ipass stats`-style short keys
/// (`solution1`..`solution4`), each announced on stderr with the
/// paper's descriptive label.
fn build_registry() -> Result<FlowRegistry, ipass_gps::experiments::ExperimentError> {
    let mut registry = FlowRegistry::new();
    for (index, (label, flow)) in ipass_gps::experiments::solution_flows()?
        .into_iter()
        .enumerate()
    {
        let key = format!("solution{}", index + 1);
        eprintln!("info: registered {key} — {label}");
        registry.register(&key, flow);
    }
    Ok(registry)
}

/// Boot on an ephemeral loopback port, drive one request per verb plus
/// one malformed line through a real client, check every answer, and
/// shut down cleanly. Exercises the same code path CI's serve-smoke
/// step gates on.
fn smoke_test(registry: FlowRegistry) -> ExitCode {
    let server = match Server::start(registry, "127.0.0.1:0", ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipassd: smoke bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("info: smoke server on {}", server.addr());
    let mut client = match Client::connect(server.addr()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ipassd: smoke connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (request, must-contain fragment) — one per verb, plus the typed
    // errors for a refused cost, a summed cost overflow and a
    // malformed line.
    let checks: &[(&str, &str)] = &[
        (
            r#"{"verb":"list"}"#,
            r#""flows":["solution1","solution2","solution3","solution4"]"#,
        ),
        (r#"{"verb":"analyze","flow":"solution2"}"#, r#""ok":true"#),
        (
            r#"{"verb":"patch","flow":"solution2","directives":[{"scale":"cost","slot":"functional test","factor":1.1}]}"#,
            r#""ok":true,"verb":"patch""#,
        ),
        (
            r#"{"verb":"mc","flow":"solution2","units":2000,"seed":42}"#,
            r#""ok":true,"verb":"mc""#,
        ),
        // Only an `ok` stats answer carries the engine counters, and it
        // must count the one slot write of the patch above.
        (r#"{"verb":"stats"}"#, r#""patch_writes":1}"#),
        // A cost the verifier would reject gets its typed error, not a
        // caught panic.
        (
            r#"{"verb":"patch","flow":"solution2","directives":[{"scale":"cost","slot":"functional test","factor":1e308}]}"#,
            r#""code":"engine-error""#,
        ),
        // So do two costs that are each valid but overflow when summed.
        (
            r#"{"verb":"patch","flow":"solution2","directives":[{"set":"cost","slot":"functional test","value":1e308},{"set":"cost","slot":"wire bonding","value":1e308}]}"#,
            r#""code":"engine-error""#,
        ),
        ("definitely not json", r#""code":"malformed-json""#),
    ];
    for (request, fragment) in checks {
        let response = match client.request(request) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ipassd: smoke request {request:?} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !response.contains(fragment) {
            eprintln!("ipassd: smoke check failed: {request:?} answered {response}");
            return ExitCode::FAILURE;
        }
        eprintln!("info: smoke ok: {request}");
    }
    match client.request(r#"{"verb":"shutdown"}"#) {
        Ok(bye) if bye == r#"{"ok":true,"verb":"shutdown"}"# => {}
        Ok(bye) => {
            eprintln!("ipassd: smoke shutdown answered {bye}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ipassd: smoke shutdown failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    server.wait();
    eprintln!(
        "info: smoke passed — all verbs answered, typed errors on a refused cost, a summed cost overflow and malformed input, clean shutdown"
    );
    ExitCode::SUCCESS
}
