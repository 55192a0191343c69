//! Table 2: the benchmark inventory.

use crate::{Body, Scale, Table};
use workloads::{microbench, registry, Engine};

/// All Table-2 rows plus the common-function-call microbenchmark the
/// paper mentions in §5.1.
pub const TABLE: Table = Table::new(
    "table2",
    "Table 2 — benchmarks",
    &["benchmark", "pattern", "description"],
    Body::Code(rows),
);

fn rows(_: &Engine, _: Scale) -> Vec<Vec<String>> {
    let mut ws = registry();
    ws.push(microbench::build_common_call(&microbench::Params::default()));
    ws.iter().map(|w| vec![w.name.into(), w.pattern.to_string(), w.description.into()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::DivergencePattern;

    #[test]
    fn table_has_nine_apps_plus_microbenchmark() {
        let rows = rows(&Engine::new(1), Scale::Quick);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[9][1], DivergencePattern::CommonFunctionCall.to_string());
        assert!(rows.iter().all(|r| !r[2].is_empty()));
    }
}
