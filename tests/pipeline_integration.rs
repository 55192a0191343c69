//! Cross-crate integration: textual IR → passes → simulator, exercising
//! the public API exactly as a downstream user would.

use specrecon::ir::{parse_and_link, parse_module, Value};
use specrecon::passes::{compile, CompileOptions, DeconflictMode, DetectOptions};
use specrecon::sim::{run, Launch, SimConfig};

const LISTING1: &str = r#"
kernel @k(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> label L1
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r5 = mov 0
  jmp bb1
bb1:
  %r1 = rng.unit
  %r3 = lt %r1, 0.25f
  brdiv %r3, bb2, bb3
bb2 (label=L1, roi):
  work 160
  %r5 = add %r5, 1
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r3 = lt %r2, 24
  brdiv %r3, bb1, bb4
bb4:
  store global[%r0], %r5
  exit
}
"#;

fn launch() -> Launch {
    let mut l = Launch::new("k", 3);
    l.global_mem = vec![Value::I64(0); 96];
    l
}

#[test]
fn text_to_metrics_full_flow() {
    let module = parse_module(LISTING1).unwrap();
    let compiled = compile(&module, &CompileOptions::speculative()).unwrap();
    let out = run(&compiled.module, &SimConfig::default(), &launch()).unwrap();
    assert!(out.metrics.simt_efficiency() > 0.0);
    assert!(out.metrics.cycles > 0);
    // Every thread counted some branch-taken iterations.
    let nonzero = out.global_mem.iter().filter(|v| v.as_i64() > 0).count();
    assert!(nonzero > 80, "only {nonzero} threads took the branch");
}

#[test]
fn all_option_combinations_agree_on_results() {
    let module = parse_module(LISTING1).unwrap();
    let cfg = SimConfig::default();
    let mut reference: Option<Vec<Value>> = None;
    let combos: Vec<(&str, CompileOptions)> = vec![
        ("baseline", CompileOptions::baseline()),
        ("speculative-dynamic", CompileOptions::speculative()),
        (
            "speculative-static",
            CompileOptions { deconflict: DeconflictMode::Static, ..CompileOptions::speculative() },
        ),
        ("automatic", CompileOptions::automatic(DetectOptions::default())),
        ("no-pdom-spec", CompileOptions { pdom: false, ..CompileOptions::speculative() }),
    ];
    for (name, opts) in combos {
        let compiled = compile(&module, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = run(&compiled.module, &cfg, &launch()).unwrap_or_else(|e| panic!("{name}: {e}"));
        match &reference {
            None => reference = Some(out.global_mem),
            Some(r) => assert_eq!(r, &out.global_mem, "{name} changed kernel results"),
        }
    }
}

#[test]
fn compiled_module_round_trips_through_text() {
    let module = parse_module(LISTING1).unwrap();
    let compiled = compile(&module, &CompileOptions::speculative()).unwrap();
    // Print the *transformed* module (with barriers) and re-parse it.
    let printed = compiled.module.to_string();
    let reparsed = parse_and_link(&printed).unwrap();
    assert_eq!(compiled.module, reparsed);
    // The re-parsed module runs identically.
    let cfg = SimConfig::default();
    let a = run(&compiled.module, &cfg, &launch()).unwrap();
    let b = run(&reparsed, &cfg, &launch()).unwrap();
    assert_eq!(a.global_mem, b.global_mem);
    assert_eq!(a.metrics.cycles, b.metrics.cycles);
}

#[test]
fn runs_are_bit_deterministic() {
    let module = parse_module(LISTING1).unwrap();
    let compiled = compile(&module, &CompileOptions::speculative()).unwrap();
    let cfg = SimConfig::default();
    let a = run(&compiled.module, &cfg, &launch()).unwrap();
    let b = run(&compiled.module, &cfg, &launch()).unwrap();
    assert_eq!(a.global_mem, b.global_mem);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn speculative_improves_this_kernel() {
    let module = parse_module(LISTING1).unwrap();
    let cfg = SimConfig::default();
    let base = run(&compile(&module, &CompileOptions::baseline()).unwrap().module, &cfg, &launch())
        .unwrap();
    let spec =
        run(&compile(&module, &CompileOptions::speculative()).unwrap().module, &cfg, &launch())
            .unwrap();
    assert!(
        spec.metrics.roi_simt_efficiency() > base.metrics.roi_simt_efficiency() + 0.2,
        "roi: {} -> {}",
        base.metrics.roi_simt_efficiency(),
        spec.metrics.roi_simt_efficiency()
    );
    assert!(spec.metrics.cycles < base.metrics.cycles);
}

#[test]
fn warp_width_is_configurable() {
    let module = parse_module(LISTING1).unwrap();
    let opts = CompileOptions { warp_width: 16, ..CompileOptions::speculative() };
    let compiled = compile(&module, &opts).unwrap();
    let cfg = SimConfig { warp_width: 16, ..SimConfig::default() };
    let mut l = Launch::new("k", 2);
    l.global_mem = vec![Value::I64(0); 32];
    let out = run(&compiled.module, &cfg, &l).unwrap();
    assert!(out.metrics.simt_efficiency() > 0.0);
    assert_eq!(out.metrics.warp_width, 16);
}

/// The lint reads the analyses compile already built — in compile's own
/// lint stage and in a standalone `lint_compiled` after it: over the
/// registry and the 520-kernel corpus under every repair, each function
/// gets one reverse post-order, not a second one for the lint.
/// Lint findings are a function of the CFG alone, so sharing the views
/// cannot change them.
#[test]
fn the_lint_reuses_the_views_compile_built() {
    use specrecon::analysis::rpo_builds;
    use specrecon::passes::RepairStrategy;
    use specrecon::workloads::{corpus, registry};

    let corpus: Vec<_> = corpus::generate(520, 0x5eed).into_iter().map(|e| e.workload).collect();
    // `compile`'s own lint stage, and a standalone `lint_compiled` after a
    // compile without one (the `specrecon lint` command's path).
    for lint in [true, false] {
        let (mut builds, mut functions) = (0, 0);
        for w in registry().into_iter().chain(corpus.clone()) {
            for repair in RepairStrategy::ALL {
                let opts = CompileOptions { lint, ..repair.options() };
                let start = rpo_builds();
                let compiled = compile(&w.module, &opts)
                    .unwrap_or_else(|e| panic!("{} under {repair}: {e}", w.name));
                if !lint {
                    specrecon::passes::lint_compiled(&compiled);
                }
                builds += rpo_builds() - start;
                functions += compiled.module.functions.len();
            }
        }
        let per_function = builds as f64 / functions as f64;
        let at = format!("lint in compile: {lint}");
        assert_eq!(per_function, 1.0, "{at}: {builds} RPO builds over {functions} functions");
    }
}
