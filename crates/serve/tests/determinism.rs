//! Concurrency determinism on the wire: N in-process clients issuing
//! shuffled request streams must get responses byte-identical to the
//! same requests evaluated serially, on several fresh servers — the
//! bit-identity contract of the engines extended to the serving layer.
//! The `stats` verb is excluded by design (it reports live counters);
//! everything else is a pure function of request content.

use ipass_serve::{testflow, Client, FlowRegistry, Server, ServerConfig};
use std::collections::HashMap;

fn registry() -> FlowRegistry {
    let mut registry = FlowRegistry::new();
    registry.register("demo", testflow::demo_flow());
    registry.register("demo2", testflow::demo_flow());
    registry
}

/// The request mix: every verb with a pure response, several flows,
/// several seeds, overlapping patch directives.
fn requests() -> Vec<String> {
    let mut reqs = vec![
        r#"{"verb":"list"}"#.to_owned(),
        r#"{"verb":"analyze","flow":"demo"}"#.to_owned(),
        r#"{"verb":"analyze","flow":"demo2"}"#.to_owned(),
        r#"{"verb":"analyze","flow":"ghost"}"#.to_owned(),
        r#"{"verb":"patch","flow":"demo","directives":[{"set":"cost","slot":"c","value":12.5}]}"#
            .to_owned(),
        r#"{"verb":"patch","flow":"demo","directives":[{"scale":"cost","slot":"c","factor":1.5},{"set":"yield","slot":"p","value":0.8}],"volume":50000}"#
            .to_owned(),
        r#"{"verb":"patch","flow":"demo","directives":[{"set":"coverage","slot":"ft","value":0.9}]}"#
            .to_owned(),
        r#"{"verb":"frobnicate"}"#.to_owned(),
    ];
    for seed in [0u64, 1, 7, 42, u64::MAX] {
        reqs.push(format!(
            r#"{{"verb":"mc","flow":"demo","units":1500,"seed":{seed}}}"#
        ));
        reqs.push(format!(
            r#"{{"verb":"mc","flow":"demo2","units":800,"seed":{seed}}}"#
        ));
    }
    reqs
}

/// Deterministic in-place shuffle (xorshift64*), so every client
/// stream has its own fixed order without pulling in an RNG crate.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let j = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[test]
fn concurrent_responses_are_byte_identical_to_serial() {
    let reqs = requests();
    // The serial reference: one fresh server, one client, request
    // order as written.
    let reference: HashMap<String, String> = {
        let server = Server::start(registry(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let map = reqs
            .iter()
            .map(|r| (r.clone(), client.request(r).unwrap()))
            .collect();
        server.shutdown();
        server.join();
        map
    };

    for round in 0..3u64 {
        let server = Server::start(registry(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();
        std::thread::scope(|scope| {
            for client_id in 0..6u64 {
                let reference = &reference;
                let mut stream = reqs.clone();
                scope.spawn(move || {
                    shuffle(&mut stream, 0x9e37_79b9 * (client_id + 1) + round);
                    let mut client = Client::connect(addr).unwrap();
                    for req in &stream {
                        let resp = client.request(req).unwrap();
                        assert_eq!(
                            &resp, &reference[req],
                            "round={round} client={client_id} req={req}"
                        );
                    }
                });
            }
        });
        server.shutdown();
        server.join();
    }
}

#[test]
fn equal_mc_requests_agree_across_distinct_servers() {
    // Seed derivation is a pure function of request content, so two
    // independent servers must return identical bytes for an identical
    // request.
    let req = r#"{"verb":"mc","flow":"demo","units":2000,"seed":123}"#;
    let mut answers = Vec::new();
    for _ in 0..2 {
        let server = Server::start(registry(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // Serve another request first, so the mc is not the first.
        let _ = client.request(r#"{"verb":"analyze","flow":"demo2"}"#);
        answers.push(client.request(req).unwrap());
        server.shutdown();
        server.join();
    }
    assert_eq!(answers[0], answers[1]);
}
