//! EXPERIMENTS.md is the figures golden. Each table of
//! `specrecon_bench::TABLES` has a block in it, between
//! `<!-- figures:NAME -->` and `<!-- /figures -->`, that holds exactly
//! the markdown `figures NAME` prints; the prose around the blocks states
//! what the tables show, and those statements are the tables' claims.
//! Every table is rendered once, in-process: a block that differs from
//! the render fails naming the table and its first differing line, and so
//! does a claim the render breaks. `UPDATE_GOLDEN=1` rewrites the blocks
//! — for a deliberate change to the model, never to make a refactor pass.

use specrecon_bench::{Rendered, TABLES};
use std::ops::Range;
use std::process::Command;
use std::sync::OnceLock;
use workloads::Engine;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
const END: &str = "<!-- /figures -->";

/// Every table rendered once, with its markdown, in `TABLES` order.
fn render() -> &'static [(Rendered, String)] {
    static RENDER: OnceLock<Vec<(Rendered, String)>> = OnceLock::new();
    RENDER.get_or_init(|| {
        let engine = Engine::with_default_parallelism();
        TABLES
            .iter()
            .map(|t| {
                let rendered = t.run(&engine);
                let markdown = t.markdown(&rendered.rows);
                (rendered, markdown)
            })
            .collect()
    })
}

fn doc() -> String {
    std::fs::read_to_string(DOC).expect("EXPERIMENTS.md")
}

/// Where the block of the table `name` sits in `doc`, markers excluded.
fn block(doc: &str, name: &str) -> Range<usize> {
    let begin = format!("<!-- figures:{name} -->\n");
    let start =
        doc.find(&begin).unwrap_or_else(|| panic!("{name}: no `{begin}` in EXPERIMENTS.md"));
    let start = start + begin.len();
    let end = doc[start..].find(END).unwrap_or_else(|| panic!("{name}: no `{END}` after it"));
    start..start + end
}

/// The first line where `got` and `want` differ, 1-based.
fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let (g, w): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let i = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)).unwrap_or(g.len());
    Some(format!("line {}: rendered {:?}, EXPERIMENTS.md {:?}", i + 1, g.get(i), w.get(i)))
}

#[test]
fn every_block_matches_the_render() {
    let mut doc = doc();
    for (table, (_, markdown)) in TABLES.iter().zip(render()) {
        let range = block(&doc, table.name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            doc.replace_range(range, markdown);
        } else if let Some(diff) = first_difference(markdown, &doc[range]) {
            panic!("{}: {diff}", table.name);
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(DOC, doc).expect("EXPERIMENTS.md written");
    }
}

#[test]
fn the_render_keeps_every_claim() {
    let mut broken = Vec::new();
    for (table, (rendered, _)) in TABLES.iter().zip(render()) {
        broken.extend(table.broken_claims(rendered).iter().map(|c| format!("{}: {c}", table.name)));
    }
    assert!(broken.is_empty(), "claims the render breaks:\n{}", broken.join("\n"));
}

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs")
}

/// One worker prints what the in-process render (every worker) pinned.
#[test]
fn the_binary_prints_the_blocks() {
    let out = figures(&["fig9", "funnel", "--jobs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = doc();
    let want = [&doc[block(&doc, "fig9")], &doc[block(&doc, "funnel")]].concat();
    let got = String::from_utf8(out.stdout).expect("utf-8");
    if let Some(diff) = first_difference(&got, &want) {
        panic!("figures fig9 funnel --jobs 1: {diff}");
    }
}

#[test]
fn quick_is_gone() {
    let out = figures(&["--quick"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: figures [--csv] [--jobs N] [TARGET ...]"), "{stderr}");
    assert!(out.stdout.is_empty());
}
