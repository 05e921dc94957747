//! Byte pins of what a reader of the flight ring is served: the
//! `/explain` and `/snapshot` bodies of the blocks-world run of
//! `telemetry_provenance.rs`, under the sequential matcher and the
//! node-parallel engine on one thread.
//!
//! The pins were recorded before the ring's representation changed
//! (one `FlightRecord` per slot of a `VecDeque`, filed under the lock
//! one at a time). A pin that moves means a consumer of `/explain` sees
//! different bytes — sequence numbers, cycle stamps, record order or
//! rendering — so never re-record one for a refactor of the ring.

use std::sync::Arc;

use psm::core::{ParallelOptions, ParallelReteMatcher};
use psm::obs::Obs;
use psm::ops5::{parse_program, parse_wmes, Interpreter, Matcher, Program};
use psm::rete::ReteMatcher;
use psm::telemetry::http::Request;
use psm::telemetry::route;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn get(obs: &Obs, path: &str, query: &[(&str, &str)]) -> String {
    let req = Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    };
    let resp = route(obs, &req);
    assert_eq!(resp.status, 200, "{path} {query:?}");
    resp.body
}

/// The `"flight":{…}` object of a `/snapshot` body (the rest of the
/// body holds phase timings).
fn flight_object(snapshot: &str) -> &str {
    let start = snapshot.find("\"flight\":").expect("flight key");
    let end = snapshot.find(",\"profile\":").expect("profile key");
    &snapshot[start..end]
}

/// Runs the blocks world under `matcher` (already attached to `obs`)
/// and hashes the four bodies.
fn pins<M: Matcher>(obs: &Arc<Obs>, program: Program, wm_src: &str, matcher: M) -> [u64; 4] {
    let mut program = program;
    let initial = parse_wmes(wm_src, &mut program.symbols).expect("wm parses");
    let mut interp = Interpreter::new(program, matcher);
    interp.attach_obs(Arc::clone(obs));
    interp.insert_all(initial);
    assert_eq!(interp.run(10_000).expect("runs"), 2);
    let bodies = [
        get(obs, "/explain", &[("rule", "put-on")]),
        get(obs, "/explain", &[("cycle", "1")]),
        get(obs, "/explain", &[("cycle", "2")]),
        flight_object(&get(obs, "/snapshot", &[])).to_string(),
    ];
    for body in &bodies {
        println!("{:#018x} {} bytes", fnv1a(body.as_bytes()), body.len());
    }
    bodies.map(|body| fnv1a(body.as_bytes()))
}

fn blocks() -> (Program, String) {
    let root = env!("CARGO_MANIFEST_DIR");
    let src = std::fs::read_to_string(format!("{root}/assets/blocks.ops")).expect("blocks.ops");
    let wm_src = std::fs::read_to_string(format!("{root}/assets/blocks.wm")).expect("blocks.wm");
    (parse_program(&src).expect("parses"), wm_src)
}

/// The bodies the sequential matcher serves.
const SEQUENTIAL: [u64; 4] = [
    0x5aa1_46e6_5f4e_688a,
    0x9bf0_ae77_5328_0120,
    0x18c1_b47e_3892_85a5,
    0x0ea9_7d5e_cc9e_8b5e,
];

#[test]
fn sequential_matcher_serves_the_pinned_bodies() {
    let (program, wm_src) = blocks();
    let obs = Arc::new(Obs::with_flight(1024, 8192));
    let mut matcher = ReteMatcher::compile(&program).expect("compiles");
    matcher.attach_obs(Arc::clone(&obs));
    assert_eq!(pins(&obs, program, &wm_src, matcher), SEQUENTIAL);
}

#[test]
fn one_thread_parallel_engine_serves_the_pinned_bodies() {
    let (program, wm_src) = blocks();
    let obs = Arc::new(Obs::with_flight(1024, 8192));
    let options = ParallelOptions {
        threads: 1,
        share: true,
    };
    let mut matcher = ParallelReteMatcher::compile(&program, options).expect("compiles");
    matcher.attach_obs(Arc::clone(&obs));
    // Every batch of the run is shorter than the engine's phase
    // threshold, so it runs through the sequential matcher's own loop:
    // the bodies are the sequential ones. The bodies the phases serve
    // on this run, which were this test's pins while the one-thread
    // engine ran every batch in phases, are pinned by
    // `engine::tests::one_thread_phases_serve_the_pinned_flight_bodies`.
    assert_eq!(pins(&obs, program, &wm_src, matcher), SEQUENTIAL);
}
