//! Golden `/v1/eval` responses: a table of requests crossing named and
//! inline targets, count and range seeds, and every knob, each run through
//! `parse_request` and `execute` on a fresh engine (so the cache counters
//! in the body are deterministic) and compared byte for byte with
//! `golden/eval_responses.jsonl`, one response per line in table order.
//! Regenerate it deliberately with `UPDATE_GOLDEN=1`.

use simt_sim::CancelToken;
use specrecon_server::api::{execute, parse_request};
use specrecon_server::json::Json;
use workloads::Engine;

const LISTING1: &str = include_str!("../../../examples/kernels/listing1.sr");
const FIG2A: &str = include_str!("../../../examples/kernels/fig2a.sr");
const COMMON_CALL: &str = include_str!("../../../examples/kernels/common_call.sr");
const GOLDEN: &str = include_str!("golden/eval_responses.jsonl");

const HIER: &str = "l1:lines=4,cells=16,lat=2,mshrs=2;dram:lat=24,extra=2";

/// The request bodies, in the golden file's order.
fn requests() -> Vec<String> {
    let text = |src: &str| Json::str(src).render();
    vec![
        r#"{"workload":"microbench","warps":1}"#.to_string(),
        r#"{"workload":"microbench","mode":"baseline","warps":1,"seed":5,"seeds":3}"#.to_string(),
        r#"{"workload":"microbench","warps":1,"seeds":[3,7],"policy":"minpc"}"#.to_string(),
        r#"{"workload":"srad","repair":"sr+meld","warps":1,"policy":"min-pc"}"#.to_string(),
        r#"{"workload":"rsbench","mode":"auto","warps":1,"deconflict":"static","barrier_alloc":true}"#
            .to_string(),
        format!(r#"{{"workload":"mcb","warps":1,"threshold":4,"mem_hier":"{HIER}"}}"#),
        r#"{"workload":"microbench","warps":1,"seeds":2,"recon_model":"ipdom-stack"}"#.to_string(),
        r#"{"workload":"seed-storm","seeds":[0,8],"mode":"speculative"}"#.to_string(),
        format!(
            r#"{{"kernel":{},"seeds":3,"policy":"minpc","recon_model":"ipdom-stack"}}"#,
            text(LISTING1)
        ),
        format!(
            r#"{{"kernel":{},"seeds":[0,4],"mode":"baseline","mem":2048,"warps":2}}"#,
            text(LISTING1)
        ),
        format!(
            r#"{{"kernel":{},"repair":"pdom","policy":"roundrobin","recon_model":"warp-split:window=4,compact"}}"#,
            text(FIG2A)
        ),
        format!(
            r#"{{"kernel":{},"entry":"common_call","threshold":2,"policy":"maxpc","seed":9,"barrier_alloc":false,"deconflict":"dynamic"}}"#,
            text(COMMON_CALL)
        ),
        format!(
            r#"{{"workload":"pathtracer","warps":1,"seeds":[0,2],"mem_hier":"{HIER}","repair":"sr"}}"#
        ),
    ]
}

fn respond(body: &str) -> String {
    let req = parse_request(body.as_bytes()).unwrap_or_else(|e| panic!("{body}: {}", e.message));
    let out = execute(&Engine::new(1), &req, &CancelToken::new(), None)
        .unwrap_or_else(|e| panic!("{body}: {} {}", e.status, e.message));
    out.render()
}

#[test]
fn eval_responses_match_the_golden_bytes() {
    let requests = requests();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text: String = requests.iter().map(|body| respond(body) + "\n").collect();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/eval_responses.jsonl");
        std::fs::write(path, text).expect("golden written");
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), requests.len(), "one golden line per request");
    for (i, (body, want)) in requests.iter().zip(golden).enumerate() {
        let got = respond(body);
        assert_eq!(got, want, "request {i}: {body}");
    }
}
