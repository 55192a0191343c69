//! # specrecon-bench — regenerates every table and figure of the paper
//!
//! Each artifact of the evaluation section of *Speculative Reconvergence
//! for Improved SIMT Efficiency* (CGO 2020), and each ablation beyond it,
//! is a [`Table`]: a title, headers and either a [`Grid`] of runs with a
//! row formatter over its cells or, where the experiment is not a grid,
//! rows computed in code. [`TABLES`] lists them in the order `figures
//! all` prints them; the `figures` binary renders them as markdown/CSV.
//!
//! EXPERIMENTS.md holds each table's markdown between
//! `<!-- figures:NAME -->` and `<!-- /figures -->` markers, and its prose
//! states what each table shows: those statements are the table's
//! [`Claim`]s. The crate's `experiments` test renders every table once and
//! fails on a block that differs from the render or a claim the render
//! breaks. Throughput is measured by the `benchmark/` ledger, not here.
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

/// The built-in workload `name`, compiled and run at the run grammar's
/// defaults.
fn spec(name: &str) -> RunSpec {
    RunSpec::parse(&[("workload", name)]).expect("a built-in workload")
}

/// The nine Table-2 workloads, in the paper's order.
fn registry() -> Vec<RunSpec> {
    workloads::names()[..9].iter().map(|name| spec(name)).collect()
}

/// A claim EXPERIMENTS.md makes about a table: its wording and a
/// predicate over what the table rendered.
pub type Claim = (&'static str, fn(&Rendered) -> bool);

/// One table or figure: what `figures` prints under a heading and writes
/// as a CSV.
#[derive(Clone, Copy)]
pub struct Table {
    /// The `figures` target; with `_` for `-`, the CSV's file name.
    pub name: &'static str,
    /// The heading.
    pub title: &'static str,
    /// A paragraph under the heading, or empty.
    pub note: &'static str,
    /// A paragraph under the table, or empty.
    pub footer: &'static str,
    /// The column headers.
    pub headers: &'static [&'static str],
    /// Where the rows come from.
    pub body: Body,
    /// What EXPERIMENTS.md's prose says the table shows.
    pub claims: &'static [Claim],
}

/// Where a table's rows come from.
#[derive(Clone, Copy)]
pub enum Body {
    /// The grid, and the rows formatted from its cells.
    Grid(fn() -> Grid, fn(&[Cell]) -> Vec<Vec<String>>),
    /// Rows computed in code, for an experiment that is not a grid.
    Code(fn(&Engine) -> Vec<Vec<String>>),
}

/// What a table rendered.
pub struct Rendered {
    /// Its grid's cells, in grid order; none for rows computed in code.
    pub cells: Vec<Cell>,
    /// Its rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with no note, footer or claims.
    pub const fn new(
        name: &'static str,
        title: &'static str,
        headers: &'static [&'static str],
        body: Body,
    ) -> Table {
        Table { name, title, note: "", footer: "", headers, body, claims: &[] }
    }

    /// Runs the table.
    ///
    /// # Panics
    ///
    /// If a cell fails to compile or run, or two cells that must agree
    /// leave different memory.
    pub fn run(&self, engine: &Engine) -> Rendered {
        match self.body {
            Body::Grid(grid, rows) => {
                let cells =
                    engine.run_grid(&grid()).unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let rows = rows(&cells);
                Rendered { cells, rows }
            }
            Body::Code(rows) => Rendered { cells: Vec::new(), rows: rows(engine) },
        }
    }

    /// The wording of each claim `rendered` breaks.
    pub fn broken_claims(&self, rendered: &Rendered) -> Vec<&'static str> {
        self.claims.iter().filter(|(_, holds)| !holds(rendered)).map(|(claim, _)| *claim).collect()
    }

    /// The markdown section `figures` prints for `rows`.
    pub fn markdown(&self, rows: &[Vec<String>]) -> String {
        let mut out = format!("\n## {}\n\n", self.title);
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

/// The speedup of each (baseline, SR) pair of `cells`.
fn speedups(cells: &[Cell]) -> Vec<f64> {
    cells.chunks(2).map(|c| speedup(&c[0], &c[1])).collect()
}

/// Whether `values` fall strictly, first to last.
fn falling<T: PartialOrd>(values: impl IntoIterator<Item = T>) -> bool {
    let values: Vec<T> = values.into_iter().collect();
    values.windows(2).all(|w| w[1] < w[0])
}

/// The `mode` axis of a PDOM-vs-SR comparison.
const MODES: [&str; 2] = ["baseline", "speculative"];
