//! The command line and `/v1/eval` are two spellings of one run-spec
//! grammar: the same keys, as flags or as JSON fields, give the same
//! per-seed results.

use specrecon::server::api::{execute, parse_request};
use specrecon::server::json::Json;
use specrecon::sim::CancelToken;
use specrecon::workloads::Engine;
use std::process::Command;

const KERNEL: &str = "examples/kernels/listing1.sr";

/// `(seed, cycles, SIMT efficiency in %)` as `specrecon run` prints them.
type Run = (u64, u64, String);

fn cli_runs(flags: &[&str]) -> Vec<Run> {
    let out = Command::new(env!("CARGO_BIN_EXE_specrecon"))
        .args(["run", KERNEL])
        .args(flags)
        .output()
        .expect("binary runs");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&out.stderr));
    // `  seed 0xc0ffee: 1508 cycles, SIMT efficiency 31.0%, 9760 barrier ops`
    text.lines()
        .filter_map(|l| l.strip_prefix("  seed 0x"))
        .map(|l| {
            let words: Vec<&str> = l.split(' ').collect();
            let seed = u64::from_str_radix(words[0].trim_end_matches(':'), 16).expect("seed");
            let cycles = words[1].parse().expect("cycles");
            (seed, cycles, words[5].trim_end_matches("%,").to_string())
        })
        .collect()
}

fn server_runs(fields: &str) -> Vec<Run> {
    let text = std::fs::read_to_string(KERNEL).expect("kernel file");
    let body = format!(r#"{{"kernel":{},{fields}}}"#, Json::str(text).render());
    let req = parse_request(body.as_bytes()).unwrap_or_else(|e| panic!("{fields}: {}", e.message));
    let out = execute(&Engine::new(1), &req, &CancelToken::new(), None)
        .unwrap_or_else(|e| panic!("{fields}: {}", e.message));
    let runs = out.get("runs").and_then(Json::as_arr).expect("runs");
    runs.iter()
        .map(|r| {
            let field = |k: &str| r.get(k).unwrap_or_else(|| panic!("no {k}"));
            let eff = 100.0 * field("simt_efficiency").as_f64().expect("efficiency");
            (
                field("seed").as_u64().unwrap(),
                field("cycles").as_u64().unwrap(),
                format!("{eff:.1}"),
            )
        })
        .collect()
}

#[test]
fn run_prints_what_the_service_answers() {
    let cli = cli_runs(&["--seeds", "3", "--policy", "minpc", "--recon-model", "ipdom-stack"]);
    let served = server_runs(r#""seeds":3,"policy":"minpc","recon_model":"ipdom-stack""#);
    assert_eq!(cli.len(), 3);
    assert_eq!(cli, served);
}

/// Every key but the target has a flag, `--a-b` for the field `a_b`
/// (`--kernel` for `entry`; FILE is `kernel`), and means what the field
/// means. `--workload` is `sweep`'s.
#[test]
fn every_key_has_a_flag_spelling() {
    let hier = "l1:lines=4,cells=16,lat=2,mshrs=2;dram:lat=24,extra=2";
    let cli = cli_runs(&[
        "--kernel",
        "listing1",
        "--mem",
        "2048",
        "--warps",
        "2",
        "--seed",
        "7",
        "--seeds",
        "5..7",
        "--threshold",
        "3",
        "--mode",
        "baseline",
        "--repair",
        "sr",
        "--deconflict",
        "static",
        "--barrier-alloc",
        "true",
        "--policy",
        "min-pc",
        "--mem-hier",
        hier,
        "--recon-model",
        "warp-split:window=4,compact",
    ]);
    let served = server_runs(&format!(
        r#""entry":"listing1","mem":2048,"warps":2,"seed":7,"seeds":[5,7],"threshold":3,
            "mode":"baseline","repair":"sr","deconflict":"static","barrier_alloc":true,
            "policy":"min-pc","mem_hier":"{hier}","recon_model":"warp-split:window=4,compact""#
    ));
    assert_eq!(cli.len(), 2);
    assert_eq!(cli, served);
    // The keys change the run: the defaults give other numbers.
    assert_ne!(cli_runs(&["--seeds", "5..7"]), cli);
}

/// `compile`, `dot` and `lint` build no launch: they take the compile
/// keys alone, name any other key they are given, and accept a module
/// with no kernel to launch.
#[test]
fn commands_that_only_compile_take_the_compile_keys() {
    let specrecon = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_specrecon")).args(args).output();
        let out = out.expect("binary runs");
        (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let compile_keys = ["--threshold", "4", "--deconflict", "static", "--barrier-alloc", "true"];
    for cmd in ["compile", "dot", "lint"] {
        let (ok, err) = specrecon(&[&[cmd, KERNEL, "--baseline"][..], &compile_keys].concat());
        assert!(ok, "{cmd}: {err}");
        for flag in ["--warps", "--seeds", "--policy", "--mem-hier"] {
            let (ok, err) = specrecon(&[cmd, KERNEL, flag, "2"]);
            assert!(!ok && err.contains(&format!("{flag}: not a compile key")), "{cmd}: {err}");
        }
    }
    // Launch keys shape the profiling run of `--pgo`, which is one launch.
    assert!(specrecon(&["compile", KERNEL, "--pgo", "--warps", "2"]).0);
    let (ok, err) = specrecon(&["compile", KERNEL, "--pgo", "--seeds", "3"]);
    assert!(!ok && err.contains("drop --seeds"), "{err}");

    let device_only = std::env::temp_dir().join(format!("device-only-{}.sr", std::process::id()));
    let src = "device @f(params=1, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r1 = mul %r0, 2\n  ret %r1\n}\n";
    std::fs::write(&device_only, src).expect("temp file");
    let path = device_only.to_str().expect("utf-8 path");
    for cmd in ["compile", "dot", "lint"] {
        let (ok, err) = specrecon(&[cmd, path]);
        assert!(ok, "{cmd} of a module with no kernel: {err}");
    }
    std::fs::remove_file(&device_only).ok();
}
