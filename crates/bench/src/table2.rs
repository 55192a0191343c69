//! Table 2: the benchmark inventory.

use crate::{Body, Table};
use workloads::{microbench, registry, DivergencePattern, Engine};

/// All Table-2 rows plus the common-function-call microbenchmark the
/// paper mentions in §5.1.
pub const TABLE: Table = Table {
    claims: &[("nine applications plus the common-function-call microbenchmark", |r| {
        let common = DivergencePattern::CommonFunctionCall.to_string();
        r.rows.len() == 10 && r.rows[9][1] == common && r.rows.iter().all(|row| !row[2].is_empty())
    })],
    ..Table::new(
        "table2",
        "Table 2 — benchmarks",
        &["benchmark", "pattern", "description"],
        Body::Code(rows),
    )
};

fn rows(_: &Engine) -> Vec<Vec<String>> {
    let mut ws = registry();
    ws.push(microbench::build_common_call(&microbench::Params::default()));
    ws.iter().map(|w| vec![w.name.into(), w.pattern.to_string(), w.description.into()]).collect()
}
