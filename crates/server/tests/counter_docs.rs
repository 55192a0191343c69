//! The simulator-counter table of `docs/SERVING.md` is generated: each
//! stats struct's [`Counters`] visitor gives every counter's `/v1/eval`
//! JSON path, Prometheus series, kind and help, and the rendered table
//! must equal the block between the `counters:begin`/`counters:end`
//! markers. A field added to a stats struct fails here until the docs
//! list it; `UPDATE_GOLDEN=1` rewrites the block.

use simt_sim::counters::{Counter, CounterKind, Counters};
use simt_sim::{EngineStats, MemStats, ReconStats, SweepStats};
use specrecon_server::metrics::series;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVING.md");
const BEGIN: &str = "<!-- counters:begin -->\n";
const END: &str = "<!-- counters:end -->\n";

/// One row per counter of `T` (one per name for a per-level counter).
fn rows<T: Counters>(out: &mut String) {
    let mut seen = Vec::new();
    T::default().visit(|c: Counter| {
        if seen.contains(&c.name) {
            return;
        }
        seen.push(c.name);
        let (mut name, kind) = series(T::GROUP, &c);
        let mut path = format!("{}.{}", T::GROUP, c.name);
        if c.level.is_some() {
            path = format!("{}.l<n>.{}", T::GROUP, c.name);
            name.push_str("{level=\"L<n>\"}");
        }
        let fold = match c.kind {
            CounterKind::Sum => "sum",
            CounterKind::Max => "max",
        };
        out.push_str(&format!("| `{path}` | `{name}` | {kind}, {fold} | {} |\n", c.help));
    });
}

fn table() -> String {
    let mut out = String::from(
        "| `/v1/eval` JSON path | Prometheus series | type, fold | meaning |\n|---|---|---|---|\n",
    );
    rows::<MemStats>(&mut out);
    rows::<ReconStats>(&mut out);
    rows::<SweepStats>(&mut out);
    rows::<EngineStats>(&mut out);
    out
}

#[test]
fn serving_md_lists_every_counter() {
    let doc = std::fs::read_to_string(DOC).expect("docs/SERVING.md");
    let start = doc.find(BEGIN).expect("the begin marker") + BEGIN.len();
    let end = doc.find(END).expect("the end marker");
    let want = table();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(DOC, format!("{}{want}{}", &doc[..start], &doc[end..])).expect("written");
        return;
    }
    assert_eq!(&doc[start..end], want, "docs/SERVING.md's counter table is stale");
}
