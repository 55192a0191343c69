//! Experiment grids: base runs crossed with values of the run grammar's
//! keys. A cell is one base with one value of every axis applied by
//! [`RunSpec::apply`], so a key takes effect as on every other surface;
//! what no key can say (an unrolled or de-annotated module, a warp width,
//! options with no sync at all, a module run as it is) is set on a base.

use crate::eval::{first_difference, EvalError};
use crate::spec::{Key, SpecError};
use crate::{Engine, RunSpec};
use simt_sim::{CancelToken, Metrics, SimOutput};

/// An experiment grid: every base crossed with every value of each axis.
#[derive(Clone, Debug)]
pub struct Grid {
    /// The runs the axes vary, each complete on its own.
    pub bases: Vec<RunSpec>,
    /// Each axis: a key's name and the values it takes, in order.
    pub axes: Vec<(String, Vec<String>)>,
}

/// One cell of a grid, as [`Engine::run_grid`] returns it.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Index of the cell's base in [`Grid::bases`].
    pub base: usize,
    /// The cell's value of each axis, as `(key, value)` in axis order.
    pub pairs: Vec<(String, String)>,
    /// The base with `pairs` applied.
    pub spec: RunSpec,
    /// Each seed's output, in seed order.
    pub runs: Vec<SimOutput>,
}

impl Cell {
    /// The first seed's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.runs[0].metrics
    }

    /// The workload, the base's index and the axis values, as errors name
    /// the cell.
    pub fn name(&self) -> String {
        let pairs: String = self.pairs.iter().map(|(k, v)| format!(", {k}={v}")).collect();
        format!("{} [base {}{pairs}]", self.spec.workload.name, self.base)
    }
}

impl Grid {
    /// A grid of `bases` with no axes yet: one cell per base.
    pub fn new(bases: Vec<RunSpec>) -> Grid {
        Grid { bases, axes: Vec::new() }
    }

    /// Adds an axis, which varies faster than every axis before it.
    pub fn axis<V: ToString>(mut self, key: &str, values: impl IntoIterator<Item = V>) -> Grid {
        self.axes.push((key.to_string(), values.into_iter().map(|v| v.to_string()).collect()));
        self
    }

    /// Every cell, not yet run: base-major, the last axis fastest. An
    /// error names the key and the value the key table refused.
    fn expand(&self) -> Result<Vec<Cell>, SpecError> {
        let mut points = vec![Vec::new()];
        for (key, values) in &self.axes {
            let extend =
                |p: &Vec<_>, v: &String| [p.clone(), vec![(key.clone(), v.clone())]].concat();
            points = points.iter().flat_map(|p| values.iter().map(move |v| extend(p, v))).collect();
        }
        let mut cells = Vec::new();
        for (base, spec) in self.bases.iter().enumerate() {
            for pairs in &points {
                let mut spec = spec.clone();
                if let Err(mut e) = spec.apply(pairs) {
                    if let Some((_, v)) = pairs.iter().find(|(k, _)| Some(k) == e.key.as_ref()) {
                        e.reason += &format!(" (axis value `{v}`)");
                    }
                    return Err(e);
                }
                cells.push(Cell { base, pairs: pairs.clone(), spec, runs: Vec::new() });
            }
        }
        Ok(cells)
    }
}

impl Engine {
    /// Runs every cell of `grid` on the worker pool and checks that the
    /// cells of one base and machine point — the same value on every axis
    /// but the compile keys' — agree on each seed's final memory (floats
    /// to one part in 10^9). Cells come back in grid order.
    ///
    /// # Errors
    ///
    /// An axis value the key table refuses, before anything runs
    /// ([`EvalError::Spec`]); the first cell in grid order that fails to
    /// compile or run, after which the cells still running are cancelled
    /// ([`EvalError::Cell`]); two cells that disagree
    /// ([`EvalError::ResultMismatch`]).
    ///
    /// # Panics
    ///
    /// When a base turns [`SimConfig::final_mem`](simt_sim::SimConfig::final_mem)
    /// off: its cells would compare empty memories and always agree.
    pub fn run_grid(&self, grid: &Grid) -> Result<Vec<Cell>, EvalError> {
        let mut cells = grid.expand().map_err(EvalError::Spec)?;
        assert!(
            cells.iter().all(|c| c.spec.cfg.final_mem),
            "grid cells compare final memories; keep `SimConfig::final_mem` on"
        );
        let cancel = CancelToken::new();
        let mut outs = self.par_map(&cells, |cell| {
            let out = self.run(&cell.spec, Some(&cancel), |run| run.result);
            let runs = out.and_then(|out| Ok(out.runs.into_iter().collect::<Result<_, _>>()?));
            if runs.is_err() {
                cancel.cancel();
            }
            runs
        });
        // A cancelled cell only echoes another's failure.
        let failed = outs.iter().position(|o| o.as_ref().is_err_and(|e| !e.is_cancelled()));
        if let Some(i) = failed.or_else(|| outs.iter().position(Result::is_err)) {
            let e = outs.swap_remove(i).expect_err("a failed cell");
            return Err(EvalError::Cell(cells[i].name(), Box::new(e)));
        }
        for (cell, runs) in cells.iter_mut().zip(outs) {
            cell.runs = runs.expect("no cell failed");
        }

        let machine = |c: &Cell| {
            let keys = c.pairs.iter().filter(|(k, _)| !Key::named(k).is_some_and(Key::is_compile));
            (c.base, keys.cloned().collect::<Vec<_>>())
        };
        for (i, cell) in cells.iter().enumerate() {
            let Some(first) = cells[..i].iter().find(|c| machine(c) == machine(cell)) else {
                continue;
            };
            for (a, b) in first.runs.iter().zip(&cell.runs) {
                if let Some(first_diff) = first_difference(&a.global_mem, &b.global_mem) {
                    let cells = [first.name(), cell.name()];
                    return Err(EvalError::ResultMismatch { cells, first_diff });
                }
            }
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rsbench() -> RunSpec {
        RunSpec::parse(&[("workload", "rsbench"), ("warps", "1")]).expect("a valid spec")
    }

    #[test]
    fn cells_run_base_major_with_the_last_axis_fastest() {
        let grid = Grid::new(vec![rsbench(), rsbench()])
            .axis("policy", ["greedy", "min-pc"])
            .axis("mode", ["baseline", "speculative"]);
        let names: Vec<String> =
            Engine::new(2).run_grid(&grid).unwrap().iter().map(Cell::name).collect();
        let mut want = Vec::new();
        for base in 0..2 {
            for policy in ["greedy", "min-pc"] {
                for mode in ["baseline", "speculative"] {
                    want.push(format!("rsbench [base {base}, policy={policy}, mode={mode}]"));
                }
            }
        }
        assert_eq!(names, want);
        assert_eq!(Engine::new(1).run_grid(&Grid::new(vec![rsbench()])).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "grid cells compare final memories")]
    fn a_base_without_final_memory_is_refused() {
        let mut base = rsbench();
        base.cfg.final_mem = false;
        let _ = Engine::new(1).run_grid(&Grid::new(vec![rsbench(), base]));
    }

    #[test]
    fn a_refused_axis_names_key_and_value_before_anything_runs() {
        let engine = Engine::new(1);
        for (key, value, reason) in [
            ("mdoe", "baseline", "unknown option"),
            ("mode", "turbo", "unknown mode"),
            ("threshold", "x", "expects a number"),
            ("workload", "srad", "names a target"),
            ("kernel", "kernel @k", "names a target"),
            ("entry", "k", "names a target"),
            ("mem", "64", "names a target"),
        ] {
            let grid = Grid::new(vec![rsbench()]).axis("warps", [1, 2]).axis(key, [value]);
            let Err(EvalError::Spec(e)) = engine.run_grid(&grid) else { panic!("{key} accepted") };
            assert_eq!(e.key.as_deref(), Some(key));
            assert!(e.reason.contains(reason) && e.reason.contains(&format!("`{value}`")), "{e}");
        }
        assert_eq!(engine.cache_stats().misses, 0, "nothing compiled");
    }

    #[test]
    fn a_base_keeps_what_no_axis_sets() {
        let mut base = rsbench();
        base.compile.as_mut().unwrap().pdom = false;
        (base.cfg.warp_width, base.cfg.max_cycles) = (16, 1 << 30);
        let mut bare = rsbench();
        bare.compile = None;
        let grid = Grid::new(vec![base, bare]).axis("policy", ["min-pc"]);
        let cells = Engine::new(1).run_grid(&grid).unwrap();
        let (cfg, opts) = (&cells[0].spec.cfg, cells[0].spec.compile.as_ref().unwrap());
        assert_eq!((cfg.warp_width, cfg.max_cycles, opts.pdom), (16, 1 << 30, false));
        assert_eq!(cfg.scheduler, simt_sim::SchedulerPolicy::MinPc);
        assert!(cells[1].spec.compile.is_none(), "runs its module as it is");
        // A compile key amends the base's options, or `mode` replaces them.
        let mut s = cells[0].spec.clone();
        s.apply(&[("deconflict", "static")]).unwrap();
        assert!(!s.compile.as_ref().unwrap().pdom);
        s.apply(&[("mode", "baseline")]).unwrap();
        assert!(s.compile.as_ref().unwrap().pdom);
        let e = cells[1].spec.clone().apply(&[("barrier_alloc", "true")]).unwrap_err();
        assert!(e.reason.contains("module as it is"), "{e}");
    }

    /// Lanes store their id to one cell from inside a divergent branch
    /// that Speculative Reconvergence delays: the last writer, and so the
    /// final memory, depends on the compile mode.
    const RACY: &str = "kernel @k(params=0, regs=5, barriers=0, entry=bb0) {
  predict bb0 -> label L1
bb0:
  %r0 = special.tid
  rngseed %r0
  %r1 = mov 0
  jmp bb1
bb1:
  %r2 = rng.unit
  %r3 = lt %r2, 0.2f
  brdiv %r3, bb2, bb3
bb2 (label=L1):
  work 60
  store global[0], %r0
  jmp bb3
bb3:
  %r1 = add %r1, 1
  %r4 = lt %r1, 20
  brdiv %r4, bb1, bb4
bb4:
  exit
}
";

    #[test]
    fn cells_that_differ_only_in_compile_keys_must_agree() {
        let racy = RunSpec::parse(&[("kernel", RACY), ("warps", "1"), ("mem", "4")]).unwrap();
        let grid = Grid::new(vec![racy]).axis("mode", ["baseline", "speculative"]);
        let Err(EvalError::ResultMismatch { cells, first_diff: 0 }) =
            Engine::new(1).run_grid(&grid)
        else {
            panic!("the race went unnoticed")
        };
        assert_eq!(cells, ["inline [base 0, mode=baseline]", "inline [base 0, mode=speculative]"]);
        // Cells at two machine points are not compared.
        let grid =
            Grid { axes: vec![("policy".into(), vec!["greedy".into(), "min-pc".into()])], ..grid };
        Engine::new(1).run_grid(&grid).expect("no two cells are compared");
    }
}
