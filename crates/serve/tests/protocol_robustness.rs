//! Protocol fuzz/robustness battery: every malformed input in the
//! corpus must yield a *typed* error response and leave the server
//! serving — never a panic, a hang, or a silently closed connection.

use ipass_report::json;
use ipass_serve::{testflow, Client, ErrorCode, FlowRegistry, Server, ServerConfig, MAX_MC_UNITS};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server() -> Server {
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    Server::start(registry, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

fn error_code(response: &str) -> String {
    assert_eq!(
        json::string_field(response, "ok"),
        Some("false"),
        "expected an error response, got {response}"
    );
    let err = json::field_value(response, "error").expect("error member");
    json::string_field(err, "code")
        .expect("code member")
        .to_owned()
}

/// The server is still alive iff a well-formed request round-trips.
fn assert_still_serving(client: &mut Client) {
    let resp = client
        .request(r#"{"verb":"list"}"#)
        .expect("server must keep serving after a malformed request");
    assert_eq!(resp, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
}

#[test]
fn malformed_corpus_yields_typed_errors_and_the_server_survives() {
    // (input line, expected error code) — the seeded corpus of the
    // ISSUE: truncated JSON, unknown verbs, missing/bad fields,
    // unknown flows. Every entry runs on the SAME connection, which
    // must stay usable throughout.
    let corpus: &[(&str, ErrorCode)] = &[
        ("hello world", ErrorCode::MalformedJson),
        ("[1,2,3]", ErrorCode::MalformedJson),
        ("42", ErrorCode::MalformedJson),
        ("{}", ErrorCode::MissingField),
        (r#"{"verb":"frobnicate"}"#, ErrorCode::UnknownVerb),
        (r#"{"verb":17}"#, ErrorCode::UnknownVerb),
        (r#"{"verb":"analyze"}"#, ErrorCode::MissingField),
        (
            r#"{"verb":"analyze","flow":"ghost"}"#,
            ErrorCode::UnknownFlow,
        ),
        (r#"{"verb":"analyze","flow":""}"#, ErrorCode::BadField),
        (r#"{"verb":"mc","flow":"demo"}"#, ErrorCode::MissingField),
        (
            r#"{"verb":"mc","flow":"demo","units":0}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"mc","flow":"demo","units":10000000000}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"mc","flow":"demo","units":"many"}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"mc","flow":"demo","units":100,"seed":-1}"#,
            ErrorCode::BadField,
        ),
        (r#"{"verb":"patch","flow":"demo"}"#, ErrorCode::MissingField),
        (
            r#"{"verb":"patch","flow":"demo","directives":[]}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"slot":"c"}]}"#,
            ErrorCode::MissingField,
        ),
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"set":"yield","slot":"p","value":1.5}]}"#,
            ErrorCode::BadField,
        ),
        (
            r#"{"verb":"patch","flow":"demo","directives":[{"set":"cost","slot":"ghost","value":1}]}"#,
            ErrorCode::EngineError,
        ),
        // Truncated JSON: the tolerant scanner still fails typed-ly.
        // (A string truncated only at its closing quote, like
        // `"flow":"demo`, is *recovered* by design — see the separate
        // truncated-flow test.)
        (r#"{"verb":"analyze","flo"#, ErrorCode::MissingField),
        (r#"{"verb"#, ErrorCode::MissingField),
        ("{", ErrorCode::MissingField),
    ];
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    for (input, expected) in corpus {
        let resp = client
            .request(input)
            .expect("a typed response, not a close");
        assert_eq!(
            error_code(&resp),
            expected.as_str(),
            "input {input:?} answered {resp}"
        );
        assert_still_serving(&mut client);
    }
    server.shutdown();
    server.join();
}

#[test]
fn truncated_flow_string_resolves_or_errors_but_never_hangs() {
    // A truncated string value swallows the rest of the line; whatever
    // the scanner resolves, the answer must be typed and prompt.
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.request(r#"{"verb":"analyze","flow":"de"#).unwrap();
    assert_eq!(json::string_field(&resp, "ok"), Some("false"));
    assert_still_serving(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_line_is_refused_and_the_connection_keeps_serving() {
    let config = ServerConfig {
        max_request_bytes: 1024,
        ..ServerConfig::default()
    };
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // One giant junk line (sent in pieces, to also exercise the
    // over-budget-before-newline path), then a valid request.
    let junk = vec![b'a'; 8 * 1024];
    for piece in junk.chunks(3000) {
        client.send_raw(piece).unwrap();
    }
    client.send_raw(b"\n").unwrap();
    let resp = client.read_line().unwrap();
    assert_eq!(error_code(&resp), "oversized-request");
    assert_still_serving(&mut client);

    // An oversized line that fits no newline for a while must be
    // answered as soon as the budget is blown, not after the newline.
    client.send_raw(&vec![b'b'; 4 * 1024]).unwrap();
    let resp = client.read_line().unwrap();
    assert_eq!(error_code(&resp), "oversized-request");
    client.send_raw(b"ccc\n").unwrap(); // the tail, discarded silently
    assert_still_serving(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn non_utf8_bytes_get_a_typed_error() {
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(b"\xff\xfe{\"verb\":\"list\"}\n").unwrap();
    let resp = client.read_line().unwrap();
    assert_eq!(error_code(&resp), "invalid-utf8");
    assert_still_serving(&mut client);
    server.shutdown();
    server.join();
}

#[test]
fn interleaved_partial_writes_frame_correctly() {
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    // Half a request, a pause, the rest: the newline is the frame, so
    // the response must be the same as for a single write.
    client.send_raw(br#"{"verb":"ana"#).unwrap();
    std::thread::sleep(Duration::from_millis(120));
    client.send_raw(b"lyze\",\"flow\":\"demo\"}\n").unwrap();
    let split = client.read_line().unwrap();
    let whole = client
        .request(r#"{"verb":"analyze","flow":"demo"}"#)
        .unwrap();
    assert_eq!(split, whole);
    // Two requests in one write: two responses, in order.
    client
        .send_raw(b"{\"verb\":\"list\"}\n{\"verb\":\"stats\"}\n")
        .unwrap();
    let first = client.read_line().unwrap();
    let second = client.read_line().unwrap();
    assert_eq!(first, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
    assert_eq!(json::string_field(&second, "verb"), Some("stats"));
    server.shutdown();
    server.join();
}

#[test]
fn blank_lines_are_ignored_not_answered() {
    let server = server();
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(b"\n\r\n").unwrap();
    let resp = client.request(r#"{"verb":"list"}"#).unwrap();
    assert_eq!(resp, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_time_out_with_a_typed_error_then_close() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        read_poll: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    let server = Server::start(registry, "127.0.0.1:0", config).unwrap();
    let mut idle = Client::connect(server.addr()).unwrap();
    let resp = idle.read_line().expect("timeout notice before close");
    assert_eq!(error_code(&resp), "timeout");
    assert!(idle.is_closed(), "connection must close after the notice");
    // The *server* is still serving fresh connections.
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_still_serving(&mut fresh);
    server.shutdown();
    server.join();
}

#[test]
fn a_dead_client_does_not_take_the_server_down() {
    let server = server();
    {
        let mut doomed = Client::connect(server.addr()).unwrap();
        doomed
            .send_raw(br#"{"verb":"analyze","flow":"demo"}"#)
            .unwrap();
        // Drop mid-request without the newline: the connection closes
        // from our side with a partial frame outstanding.
    }
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_still_serving(&mut fresh);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let server = server();
    let addr = server.addr();
    let mut worker = Client::connect(addr).unwrap();
    let mut killer = Client::connect(addr).unwrap();
    // Queue real work and the shutdown concurrently; the worker's
    // response must still arrive complete and well-formed.
    worker
        .send_raw(b"{\"verb\":\"mc\",\"flow\":\"demo\",\"units\":200000,\"seed\":9}\n")
        .unwrap();
    // Give the worker's connection thread time to pick the request up,
    // so the shutdown latch finds it genuinely in flight.
    std::thread::sleep(Duration::from_millis(150));
    let bye = killer.request(r#"{"verb":"shutdown"}"#).unwrap();
    assert_eq!(bye, r#"{"ok":true,"verb":"shutdown"}"#);
    let resp = worker.read_line().expect("in-flight work must be answered");
    assert_eq!(json::string_field(&resp, "ok"), Some("true"), "{resp}");
    assert_eq!(json::string_field(&resp, "verb"), Some("mc"));
    server.wait();
}

#[test]
fn a_long_request_does_not_delay_another_connection() {
    let server = server();
    let addr = server.addr();
    // Connection A: the longest Monte Carlo run the protocol accepts
    // (shorter runs can finish within one scheduler slice of an
    // optimized build), on a raw socket so its answer can be looked for
    // without blocking.
    let mut slow = TcpStream::connect(addr).unwrap();
    let mc = format!(r#"{{"verb":"mc","flow":"demo","units":{MAX_MC_UNITS},"seed":9}}"#);
    slow.write_all(format!("{mc}\n").as_bytes()).unwrap();
    // Connection B polls `stats` until the server has seen one request
    // beyond B's own polls: A's line is then inside the engine.
    let mut other = Client::connect(addr).unwrap();
    let began = Instant::now();
    let mut polls = 0.0;
    loop {
        let stats = other.request(r#"{"verb":"stats"}"#).unwrap();
        polls += 1.0;
        let serve = json::field_value(&stats, "serve").expect("serve member");
        if json::number_field(serve, "requests").expect("requests") > polls {
            break;
        }
        assert!(
            began.elapsed() < Duration::from_secs(60),
            "the mc request never reached the engine"
        );
    }
    let resp = other
        .request(r#"{"verb":"analyze","flow":"demo"}"#)
        .unwrap();
    assert_eq!(json::string_field(&resp, "verb"), Some("analyze"), "{resp}");
    // B has its answer; A's has not arrived yet.
    slow.set_nonblocking(true).unwrap();
    let pending = slow.peek(&mut [0u8; 1]).map_err(|e| e.kind());
    assert_eq!(
        pending,
        Err(ErrorKind::WouldBlock),
        "the analyze answer waited for the mc answer"
    );
    slow.set_nonblocking(false).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut answer = String::new();
    BufReader::new(slow).read_line(&mut answer).unwrap();
    assert_eq!(json::string_field(&answer, "verb"), Some("mc"), "{answer}");
    server.shutdown();
    server.join();
}
