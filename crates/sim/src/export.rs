//! Trace and journal exporters: JSON Lines and Chrome trace format.
//!
//! Both exporters are hand-rolled (this workspace deliberately has no
//! serde dependency; the service's reader, `specrecon_server::json`,
//! makes the same choice on the parse side) and deterministic: the same [`SimOutput`]
//! always renders byte-identical text, which the golden-file test
//! relies on.
//!
//! - [`jsonl`] emits one JSON object per line: trace issues and journal
//!   events merged into one stream ordered by cycle (issues before
//!   journal events on ties, matching cause before effect — the issue
//!   of a `wait` precedes the release it completes).
//! - [`chrome_trace`] emits a `chrome://tracing` / Perfetto JSON
//!   document: one named track per warp, a duration slice per issue, a
//!   lane-occupancy counter series, and an instant marker per journal
//!   event.

use crate::journal::{JournalEvent, JournalKind};
use crate::machine::SimOutput;
use crate::trace::TraceEvent;
use std::fmt::Write as _;

/// Whether the warp filter admits warp `w` (`None` = all warps).
fn included(warps: Option<&[usize]>, w: usize) -> bool {
    warps.is_none_or(|ws| ws.contains(&w))
}

/// The event-specific JSON fields of a journal event, rendered as
/// `"key":value` pairs (no braces), shared by both exporters.
fn journal_fields(e: &JournalEvent) -> String {
    let mut s = String::new();
    match e.kind {
        JournalKind::BranchDiverge { func, block, inst, taken, not_taken } => {
            let _ = write!(
                s,
                r#""loc":"{func}/{block}:{inst}","taken":"{taken:#x}","not_taken":"{not_taken:#x}""#
            );
        }
        JournalKind::BarrierJoin { barrier, mask }
        | JournalKind::BarrierCancel { barrier, mask }
        | JournalKind::BarrierWait { barrier, mask }
        | JournalKind::BarrierRelease { barrier, mask } => {
            let _ = write!(s, r#""barrier":"{barrier}","mask":"{mask:#x}""#);
        }
        JournalKind::SyncArrive { mask } | JournalKind::SyncRelease { mask } => {
            let _ = write!(s, r#""mask":"{mask:#x}""#);
        }
        JournalKind::GroupMerge { func, block, inst, mask, absorbed } => {
            let _ = write!(
                s,
                r#""loc":"{func}/{block}:{inst}","mask":"{mask:#x}","absorbed":"{absorbed:#x}""#
            );
        }
        JournalKind::DeadlockOnset => {}
        JournalKind::MemStall { level, stall } => {
            let _ = write!(s, r#""level":"L{}","stall":{stall}"#, level + 1);
        }
    }
    s
}

fn jsonl_issue(out: &mut String, e: &TraceEvent) {
    let lanes = e.mask.count_ones();
    let _ = writeln!(
        out,
        r#"{{"type":"issue","cycle":{},"warp":{},"loc":"{}/{}:{}","mask":"{:#x}","lanes":{},"cost":{},"roi":{}}}"#,
        e.cycle, e.warp, e.func, e.block, e.inst, e.mask, lanes, e.cost, e.roi
    );
}

fn jsonl_journal(out: &mut String, e: &JournalEvent) {
    let fields = journal_fields(e);
    let sep = if fields.is_empty() { "" } else { "," };
    let _ = writeln!(
        out,
        r#"{{"type":"{}","cycle":{},"warp":{}{sep}{fields}}}"#,
        e.kind.name(),
        e.cycle,
        e.warp
    );
}

/// Renders the run as JSON Lines: one object per trace issue and per
/// journal event, merged by cycle (issues first on ties). `warps`
/// restricts the output to the given warp indices; `None` exports all.
///
/// Works from whatever the run recorded: with only a trace it exports
/// issues, with only a journal it exports events, with neither it
/// returns an empty string.
pub fn jsonl(out: &SimOutput, warps: Option<&[usize]>) -> String {
    let trace: &[TraceEvent] = out.trace.as_ref().map(|t| t.events()).unwrap_or(&[]);
    let journal: Vec<&JournalEvent> =
        out.journal.as_ref().map(|j| j.events().collect()).unwrap_or_default();
    let mut s = String::new();
    let (mut ti, mut ji) = (0, 0);
    // Both streams are recorded in nondecreasing cycle order, so a
    // two-pointer merge keeps the combined stream ordered.
    while ti < trace.len() || ji < journal.len() {
        let take_trace = match (trace.get(ti), journal.get(ji)) {
            (Some(t), Some(j)) => t.cycle <= j.cycle,
            (Some(_), None) => true,
            _ => false,
        };
        if take_trace {
            let e = &trace[ti];
            ti += 1;
            if included(warps, e.warp) {
                jsonl_issue(&mut s, e);
            }
        } else {
            let e = journal[ji];
            ji += 1;
            if included(warps, e.warp) {
                jsonl_journal(&mut s, e);
            }
        }
    }
    s
}

/// Renders the run as a Chrome trace (`chrome://tracing` / Perfetto
/// "trace event format" JSON): per-warp named tracks, one `X` duration
/// slice per issue (`ts` = issue cycle, `dur` = issue cost), a `C`
/// lane-occupancy counter per issue, and an `i` instant per journal
/// event. `warps` restricts the output; `None` exports all.
pub fn chrome_trace(out: &SimOutput, warps: Option<&[usize]>) -> String {
    let trace: &[TraceEvent] = out.trace.as_ref().map(|t| t.events()).unwrap_or(&[]);
    let journal: Vec<&JournalEvent> =
        out.journal.as_ref().map(|j| j.events().collect()).unwrap_or_default();

    // Name a track for every warp that appears in the export.
    let mut tracked: Vec<usize> = trace
        .iter()
        .map(|e| e.warp)
        .chain(journal.iter().map(|e| e.warp))
        .filter(|&w| included(warps, w))
        .collect();
    tracked.sort_unstable();
    tracked.dedup();

    let mut s = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |s: &mut String| {
        if !std::mem::take(&mut first) {
            s.push(',');
        }
        s.push('\n');
    };
    for &w in &tracked {
        sep(&mut s);
        let _ = write!(
            s,
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{w},"args":{{"name":"warp {w}"}}}}"#
        );
    }
    for e in trace {
        if !included(warps, e.warp) {
            continue;
        }
        let lanes = e.mask.count_ones();
        sep(&mut s);
        let _ = write!(
            s,
            r#"{{"name":"{}/{}:{}","ph":"X","pid":0,"tid":{},"ts":{},"dur":{},"args":{{"mask":"{:#x}","lanes":{},"roi":{}}}}}"#,
            e.func,
            e.block,
            e.inst,
            e.warp,
            e.cycle,
            e.cost.max(1),
            e.mask,
            lanes,
            e.roi
        );
        sep(&mut s);
        let _ = write!(
            s,
            r#"{{"name":"active lanes w{}","ph":"C","pid":0,"tid":{},"ts":{},"args":{{"active":{lanes}}}}}"#,
            e.warp, e.warp, e.cycle
        );
    }
    for e in &journal {
        if !included(warps, e.warp) {
            continue;
        }
        let fields = journal_fields(e);
        let args = if fields.is_empty() { String::from("{}") } else { format!("{{{fields}}}") };
        sep(&mut s);
        let _ = write!(
            s,
            r#"{{"name":"{}","ph":"i","s":"t","pid":0,"tid":{},"ts":{},"args":{args}}}"#,
            e.kind.name(),
            e.warp,
            e.cycle
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use crate::metrics::Metrics;
    use crate::trace::Trace;
    use simt_ir::{BarrierId, BlockId, FuncId};

    fn output_with(trace: Option<Trace>, journal: Option<Journal>) -> SimOutput {
        SimOutput {
            metrics: Metrics::new(2, 4),
            engine: Default::default(),
            global_mem: Vec::new(),
            trace,
            profile: None,
            journal,
        }
    }

    fn issue(cycle: u64, warp: usize, mask: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            warp,
            func: FuncId(0),
            block: BlockId(1),
            inst: 2,
            mask,
            cost: 3,
            roi: false,
        }
    }

    #[test]
    fn jsonl_merges_streams_by_cycle() {
        let mut t = Trace::new(4);
        t.push(issue(0, 0, 0b1111));
        t.push(issue(5, 0, 0b0011));
        let mut j = Journal::new(&JournalConfig::default());
        let kind = JournalKind::BarrierWait { barrier: BarrierId(0), mask: 0b11 };
        j.push(JournalEvent { cycle: 5, warp: 0, kind });
        let s = jsonl(&output_with(Some(t), Some(j)), None);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""cycle":0"#), "{s}");
        assert!(lines[1].contains(r#""type":"issue""#), "issue first on cycle tie: {s}");
        assert!(lines[2].contains(r#""type":"barrier-wait""#), "{s}");
        assert!(lines[2].contains(r#""barrier":"b0""#), "{s}");
    }

    #[test]
    fn warp_filter_restricts_both_exports() {
        let mut t = Trace::new(4);
        t.push(issue(0, 0, 0b1111));
        t.push(issue(1, 1, 0b0001));
        let out = output_with(Some(t), None);
        let s = jsonl(&out, Some(&[1]));
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains(r#""warp":1"#));
        let c = chrome_trace(&out, Some(&[1]));
        assert!(c.contains(r#""name":"warp 1""#));
        assert!(!c.contains(r#""name":"warp 0""#));
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Trace::new(4);
        t.push(issue(0, 0, 0b0111));
        let mut j = Journal::new(&JournalConfig::default());
        j.push(JournalEvent { cycle: 0, warp: 0, kind: JournalKind::SyncArrive { mask: 0b0111 } });
        let s = chrome_trace(&output_with(Some(t), Some(j)), None);
        assert!(s.starts_with("{\"traceEvents\":["), "{s}");
        assert!(s.trim_end().ends_with("]}"), "{s}");
        assert!(s.contains(r#""ph":"M""#), "{s}");
        assert!(s.contains(r#""ph":"X""#), "{s}");
        assert!(s.contains(r#""ph":"C""#), "{s}");
        assert!(s.contains(r#""ph":"i""#), "{s}");
        assert!(s.contains(r#""dur":3"#), "{s}");
        assert!(s.contains(r#""active":3"#), "{s}");
    }

    #[test]
    fn empty_output_exports_cleanly() {
        let out = output_with(None, None);
        assert_eq!(jsonl(&out, None), "");
        assert_eq!(chrome_trace(&out, None), "{\"traceEvents\":[\n]}\n");
    }
}
