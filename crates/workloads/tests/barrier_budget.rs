//! Hardware-resource check: every Table-2 workload (and the Fig. 2(c)
//! microbenchmark), compiled with the full speculative pipeline *and*
//! barrier register allocation, fits within Volta's 16 barrier registers
//! — and allocation never changes kernel results.

use simt_sim::{run, SimConfig};
use specrecon_core::{compile, CompileOptions, VOLTA_BARRIER_REGISTERS};
use workloads::{microbench, registry};

#[test]
fn all_workloads_fit_in_volta_barrier_registers() {
    let alloc_opts = CompileOptions {
        barrier_allocation: true,
        barrier_limit: Some(VOLTA_BARRIER_REGISTERS),
        ..CompileOptions::speculative()
    };
    let cfg = SimConfig::default();

    let mut all = registry();
    all.push(microbench::build_common_call(&microbench::Params::default()));
    for mut w in all {
        w.launch.num_warps = 1;
        let plain = compile(&w.module, &CompileOptions::speculative())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let allocated =
            compile(&w.module, &alloc_opts).unwrap_or_else(|e| panic!("{}: {e}", w.name));

        let a = allocated.barrier_alloc.as_ref().expect("allocation ran");
        assert!(a.after <= VOLTA_BARRIER_REGISTERS, "{}: {} registers", w.name, a.after);
        assert!(a.after <= a.before);

        let a =
            run(&plain.module, &cfg, &w.launch).unwrap_or_else(|e| panic!("{} plain: {e}", w.name));
        let b = run(&allocated.module, &cfg, &w.launch)
            .unwrap_or_else(|e| panic!("{} allocated: {e}", w.name));
        assert_eq!(a.global_mem, b.global_mem, "{}: allocation changed results", w.name);
        assert_eq!(a.metrics.cycles, b.metrics.cycles, "{}: allocation changed timing", w.name);
    }
}
