//! The text reports of the `specrecon run` and `sweep` commands: one
//! launch (what the `run --hot` golden pins) and a multi-seed run (what
//! the sweep golden pins).

use crate::{RunOutput, Seeds};
use simt_ir::Module;
use simt_sim::{Metrics, SimError, SimOutput, SweepStats};
use std::fmt::Write;

/// Blocks listed by each of the hot report's rankings.
const HOT_BLOCKS: usize = 8;

/// The report of one launch of `module`: the [`Metrics`]
/// block and, when the launch was profiled (`run --hot`), how the engine
/// served its rounds, the hottest blocks and the divergence attribution.
/// Every line ends in a newline.
pub fn render_run(out: &SimOutput, module: &Module) -> String {
    let mut text = format!("{}\n", out.metrics);
    let Some(profile) = &out.profile else { return text };
    let (e, width) = (&out.engine, out.metrics.warp_width);
    let name = |func: simt_ir::FuncId| &module.functions[func].name;
    // Writing to a String cannot fail.
    let _ = writeln!(
        text,
        "\nengine: {} rounds ({} hinted, {} general split rounds), {} of {} issues batched, \
         {} mixed rows, {} split-base issues",
        e.rounds,
        e.hinted_rounds,
        e.general_split_rounds,
        e.batched_issues,
        out.metrics.issues,
        e.mixed_rows,
        e.split_base_issues
    );
    text.push_str("\nhottest blocks:\n");
    for ((func, block), stats) in profile.hottest(HOT_BLOCKS) {
        let _ = writeln!(
            text,
            "  @{}/{block}: {} issues, {} cycles, avg {:.1} lanes",
            name(func),
            stats.issues,
            stats.cost,
            stats.active_lanes as f64 / stats.issues.max(1) as f64
        );
    }
    text.push_str("\ndivergence attribution (lost lane-cycles):\n");
    for ((func, block), stats) in profile.attribution(width, HOT_BLOCKS) {
        let _ = writeln!(
            text,
            "  @{}/{block}: {} lost lane-cycles, {:.1}% SIMT efficiency",
            name(func),
            stats.lost_lane_cycles(width),
            100.0 * stats.simt_efficiency(width)
        );
    }
    text
}

/// What a multi-seed run keeps of each seed: its seed and its metrics,
/// or its own fault.
pub type SeedMetrics = (u64, Result<Metrics, SimError>);

/// The report of a multi-seed run, as `specrecon run --seeds` and
/// `specrecon sweep` print it: a header (`name` heads a range, `jobs` is
/// the engine's worker count), one line per seed, an aggregate over the
/// seeds that finished and, for a lockstep range, the sweep engine's
/// counters. Every line ends in a newline.
pub fn render_seeds(name: &str, jobs: usize, seeds: Seeds, out: &RunOutput<SeedMetrics>) -> String {
    let mut text = match seeds {
        Seeds::Count(n) => format!("{n} seeds on {jobs} worker(s):\n"),
        Seeds::Range(lo, hi) => format!("{name} over seeds {lo}..{hi} on {jobs} worker(s):\n"),
    };
    let mut ok: Vec<&Metrics> = Vec::new();
    for (seed, result) in &out.runs {
        match result {
            Ok(m) => {
                let _ = writeln!(
                    text,
                    "  seed {seed:#x}: {} cycles, SIMT efficiency {:.1}%, {} barrier ops",
                    m.cycles,
                    100.0 * m.simt_efficiency(),
                    m.barrier_ops
                );
                ok.push(m);
            }
            Err(e) => {
                let _ = writeln!(text, "  seed {seed:#x}: FAILED: {e}");
            }
        }
    }
    if !ok.is_empty() {
        let n = ok.len() as f64;
        let mean_cycles = ok.iter().map(|m| m.cycles as f64).sum::<f64>() / n;
        let mean_eff = ok.iter().map(|m| m.simt_efficiency()).sum::<f64>() / n;
        let min = ok.iter().map(|m| m.cycles).min().unwrap_or(0);
        let max = ok.iter().map(|m| m.cycles).max().unwrap_or(0);
        let _ = writeln!(
            text,
            "aggregate: mean {mean_cycles:.0} cycles (min {min}, max {max}), \
             mean SIMT efficiency {:.1}%",
            100.0 * mean_eff
        );
    }
    if let Some(s) = &out.sweep {
        text.push_str(&render_sweep(s));
    }
    text
}

/// The sweep engine's counters: the `sweep engine:` line, the `data
/// plane:` and `lane spans:` lines, and the `escape hatch:` line if a
/// seed ever stepped a standalone scalar machine (none does: every
/// reconvergence model runs in the cohort).
fn render_sweep(s: &SweepStats) -> String {
    let mut text = format!(
        "sweep engine: {} instances, {} lockstep issues, {} forks, {} merges, \
         mean occupancy {:.1} (peak {} sub-cohorts)\n",
        s.instances,
        s.lockstep_issues,
        s.forks,
        s.merges,
        s.mean_occupancy(),
        s.peak_subcohorts
    );
    let _ = writeln!(
        text,
        "  data plane: {} dense / {} mixed operand rows, {} uniform / {} scattered global \
         accesses",
        s.dense_rows, s.mixed_rows, s.uniform_accesses, s.scattered_accesses
    );
    let _ = writeln!(
        text,
        "  lane spans: {} hoisted / {} per-lane issues, {} lane runs",
        s.hoisted_issues, s.per_lane_issues, s.lane_runs
    );
    if s.scalar_steps > 0 {
        let _ = writeln!(text, "  escape hatch: {} scalar steps", s.scalar_steps);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::counters::Counters;
    use simt_sim::{EngineStats, MemStats, Profile, ReconStats};

    /// `T` with every counter set to a distinct seven-digit sentinel
    /// (`base + i`), and the sentinels by counter name.
    fn sentinels<T: Counters>(base: u64) -> (T, Vec<(String, u64)>) {
        let (mut t, mut named) = (T::default(), Vec::new());
        t.zip(&T::default(), |c, v, _| {
            *v = base + named.len() as u64;
            let level = c.level.map_or(String::new(), |l| format!(" of L{}", l + 1));
            named.push((format!("{}{level}", c.name), *v));
        });
        (t, named)
    }

    /// Every sentinel of `named` is printed in `text`, except `skip`.
    fn assert_printed(text: &str, named: &[(String, u64)], skip: &[&str]) {
        for (name, v) in named {
            let printed = text.contains(&v.to_string());
            assert!(printed || skip.contains(&name.as_str()), "`{name}` ({v}) missing:\n{text}");
        }
    }

    /// The human CLI prose is hand-written, so a field added to a stats
    /// struct would go unprinted silently: every counter of every
    /// struct's visitor must appear in the lines that report the struct.
    #[test]
    fn the_cli_prose_prints_every_counter() {
        let (mem, mem_named) = sentinels::<MemStats>(1_000_000);
        let (recon, recon_named) = sentinels::<ReconStats>(2_000_000);
        let mut metrics = Metrics::new(1, 32);
        (metrics.mem, metrics.recon) = (mem, recon);
        let text = metrics.to_string();
        assert_printed(&text, &mem_named, &[]);
        assert_printed(&text, &recon_named, &[]);

        let (engine, engine_named) = sentinels::<EngineStats>(3_000_000);
        let out = SimOutput {
            metrics,
            engine,
            global_mem: Vec::new(),
            trace: None,
            profile: Some(Profile::new()),
            journal: None,
        };
        assert_printed(&render_run(&out, &Module::new()), &engine_named, &[]);

        // The sweep lines print `occupancy_sum` as the mean occupancy.
        let (sweep, sweep_named) = sentinels::<SweepStats>(4_000_000);
        let text = render_sweep(&sweep);
        assert_printed(&text, &sweep_named, &["occupancy_sum"]);
        assert!(text.contains(&format!("mean occupancy {:.1}", sweep.mean_occupancy())), "{text}");
    }
}
