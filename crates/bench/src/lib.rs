//! # specrecon-bench — regenerates every table and figure of the paper
//!
//! Each artifact of the evaluation section of *Speculative Reconvergence
//! for Improved SIMT Efficiency* (CGO 2020), and each ablation beyond it,
//! is a [`Table`]: a title, headers and either a [`Grid`] of runs with a
//! row formatter over its cells or, where the experiment is not a grid,
//! rows computed in code. [`TABLES`] lists them in the order `figures
//! all` prints them; the `figures` binary renders them as markdown/CSV.
//! Throughput is measured by the `benchmark/` ledger, not here.
//!
//! | `figures` target | artifact | module |
//! |---|---|---|
//! | `table2`            | Table 2 (benchmarks)                    | [`table2`] |
//! | `fig7`, `fig8`      | Figures 7 and 8 (SIMT efficiency, gain vs speedup) | [`fig7`] |
//! | `fig9`              | Figure 9 (soft-barrier threshold sweep) | [`fig9`]   |
//! | `fig10`, `funnel`   | Figure 10 and the §5.4 funnel (automatic SR) | [`fig10`] |
//! | `ablate-deconflict` | §4.3 static vs dynamic deconfliction    | [`ablate`] |
//! | `ablate-unroll`     | §6 partial unrolling × Loop Merge       | [`ablate`] |
//! | `ablate-sched`      | scheduler-policy sensitivity            | [`ablate`] |
//! | `ablate-sync`       | no sync vs PDOM vs SR                   | [`ablate`] |
//! | `ablate-width`      | warp width                              | [`ablate`] |
//! | `ablate-cache`      | L1 cache cost model                     | [`ablate`] |
//! | `ablate-mem`        | memory-hierarchy L1 capacity            | [`ablate`] |
//! | `ablate-hw`         | hardware reconvergence models           | [`ablate`] |
//! | `ablate-meld`       | divergence-repair strategies            | [`ablate`] |
//! | `ablate-threshold`  | best soft-barrier threshold per workload | [`ablate`] |

#![warn(missing_docs)]

pub mod ablate;
pub mod fig10;
pub mod fig7;
pub mod fig9;
pub mod report;
pub mod table2;

use report::{csv, markdown_table};
use workloads::{Cell, Engine, Grid, RunSpec};

/// Every table, in the order `figures all` prints them.
pub const TABLES: [Table; 16] = [
    table2::TABLE,
    fig7::FIG7,
    fig7::FIG8,
    fig9::TABLE,
    fig10::TABLE,
    fig10::FUNNEL,
    ablate::DECONFLICT,
    ablate::UNROLL,
    ablate::SCHED,
    ablate::SYNC,
    ablate::WIDTH,
    ablate::CACHE,
    ablate::MEM,
    ablate::HW,
    ablate::MELD,
    ablate::THRESHOLD,
];

/// Problem-size selector: `Quick` shrinks launches for CI/tests, `Full`
/// uses the workloads' default parameters (what EXPERIMENTS.md records).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small launches (1 warp) for fast iteration.
    Quick,
    /// Default workload parameters.
    Full,
}

impl Scale {
    /// The built-in workload `name` at this scale, compiled and run at the
    /// run grammar's defaults.
    pub fn spec(self, name: &str) -> RunSpec {
        let mut spec = RunSpec::parse(&[("workload", name)]).expect("a built-in workload");
        if self == Scale::Quick {
            spec.apply(&[("warps", "1")]).expect("one warp");
        }
        spec
    }

    /// The nine Table-2 workloads at this scale, in the paper's order.
    pub fn registry(self) -> Vec<RunSpec> {
        workloads::names()[..9].iter().map(|name| self.spec(name)).collect()
    }

    /// Kernels in the synthetic corpus the §5.4 funnel scans (the paper
    /// scans 520 applications).
    pub fn corpus(self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Full => 520,
        }
    }
}

/// One table or figure: what `figures` prints under a heading and writes
/// as a CSV.
#[derive(Clone, Copy)]
pub struct Table {
    /// The `figures` target; with `_` for `-`, the CSV's file name.
    pub name: &'static str,
    /// The heading; `{corpus}` stands for [`Scale::corpus`].
    pub title: &'static str,
    /// A paragraph under the heading, or empty.
    pub note: &'static str,
    /// A paragraph under the table, or empty.
    pub footer: &'static str,
    /// The column headers.
    pub headers: &'static [&'static str],
    /// Where the rows come from.
    pub body: Body,
    /// The paper's qualitative claim over the grid's cells; `Ok` where the
    /// table makes none.
    pub check: fn(&[Cell]) -> Result<(), String>,
}

/// Where a table's rows come from.
#[derive(Clone, Copy)]
pub enum Body {
    /// The grid at a scale, and the rows formatted from its cells.
    Grid(fn(Scale) -> Grid, fn(&[Cell]) -> Vec<Vec<String>>),
    /// Rows computed in code, for an experiment that is not a grid.
    Code(fn(&Engine, Scale) -> Vec<Vec<String>>),
}

impl Table {
    /// A table with no note, footer or check.
    pub const fn new(
        name: &'static str,
        title: &'static str,
        headers: &'static [&'static str],
        body: Body,
    ) -> Table {
        Table { name, title, note: "", footer: "", headers, body, check: |_| Ok(()) }
    }

    /// Runs the table at `scale`: its grid's cells (none for rows computed
    /// in code) and its rows.
    ///
    /// # Panics
    ///
    /// If a cell fails to compile or run, or two cells that must agree
    /// leave different memory: the test suite guards all three.
    pub fn run(&self, engine: &Engine, scale: Scale) -> (Vec<Cell>, Vec<Vec<String>>) {
        match self.body {
            Body::Grid(grid, rows) => {
                let cells =
                    engine.run_grid(&grid(scale)).unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let rows = rows(&cells);
                (cells, rows)
            }
            Body::Code(rows) => (Vec::new(), rows(engine, scale)),
        }
    }

    /// The markdown section `figures` prints for `rows`.
    pub fn markdown(&self, scale: Scale, rows: &[Vec<String>]) -> String {
        let title = self.title.replace("{corpus}", &scale.corpus().to_string());
        let mut out = format!("\n## {title}\n\n");
        if !self.note.is_empty() {
            out += &format!("{}\n\n", self.note);
        }
        out += &markdown_table(self.headers, rows);
        out += "\n";
        if !self.footer.is_empty() {
            out += &format!("{}\n\n", self.footer);
        }
        out
    }

    /// The CSV `figures --csv` writes for `rows`, and its file name.
    pub fn csv(&self, rows: &[Vec<String>]) -> (String, String) {
        (format!("{}.csv", self.name.replace('-', "_")), csv(self.headers, rows))
    }
}

/// The workload a cell ran.
fn name(cell: &Cell) -> String {
    cell.spec.workload.name.to_string()
}

/// A cell's whole-kernel SIMT efficiency.
fn eff(cell: &Cell) -> f64 {
    cell.metrics().simt_efficiency()
}

/// A cell's cycles.
fn cycles(cell: &Cell) -> u64 {
    cell.metrics().cycles
}

/// `base`'s cycles over `sr`'s.
fn speedup(base: &Cell, sr: &Cell) -> f64 {
    cycles(base) as f64 / cycles(sr) as f64
}

/// The `mode` axis of a PDOM-vs-SR comparison.
const MODES: [&str; 2] = ["baseline", "speculative"];

/// Every table rendered once at quick scale: the golden CSVs and each
/// table's shape tests read this one render, so the suite simulates each
/// grid once.
#[cfg(test)]
pub(crate) mod golden {
    use super::*;
    use std::sync::OnceLock;

    const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

    type Rendered = (Table, Vec<Cell>, Vec<Vec<String>>);

    fn render() -> &'static [Rendered] {
        static RENDER: OnceLock<Vec<Rendered>> = OnceLock::new();
        RENDER.get_or_init(|| {
            let engine = Engine::with_default_parallelism();
            TABLES
                .iter()
                .map(|t| {
                    let (cells, rows) = t.run(&engine, Scale::Quick);
                    (*t, cells, rows)
                })
                .collect()
        })
    }

    /// The cells of the table called `name`, at quick scale.
    pub(crate) fn cells(name: &str) -> &'static [Cell] {
        &render().iter().find(|r| r.0.name == name).expect("a table of that name").1
    }

    /// The first line where `got` and `want` differ, 1-based.
    fn first_difference(got: &str, want: &str) -> Option<String> {
        if got == want {
            return None;
        }
        let (g, w): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
        let i = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)).unwrap_or(g.len());
        Some(format!("line {}: got {:?}, golden {:?}", i + 1, g.get(i), w.get(i)))
    }

    /// The CSVs of `figures all --quick --csv` are byte-identical to
    /// `tests/golden/`. A difference is a real change in a figure or
    /// ablation (a cost model, the scheduler, a pass, the rendering);
    /// regenerate the goldens deliberately with `UPDATE_GOLDEN=1`.
    #[test]
    fn csvs_match_the_goldens() {
        let dir = std::path::Path::new(DIR);
        for (table, _, rows) in render() {
            let (file, got) = table.csv(rows);
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                std::fs::write(dir.join(&file), &got).expect("golden written");
                continue;
            }
            let want = std::fs::read_to_string(dir.join(&file));
            let want = want.unwrap_or_else(|e| panic!("{file}: {e} (UPDATE_GOLDEN=1 writes it)"));
            if let Some(diff) = first_difference(&got, &want) {
                panic!("{file}: {diff}");
            }
        }
        let goldens = std::fs::read_dir(dir).expect("the golden directory").count();
        assert_eq!(goldens, TABLES.len(), "a golden CSV no table writes");
    }
}
