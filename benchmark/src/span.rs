//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name, a layer, a start and an end, the span that caused
//! it, and the id of the operation it belongs to. Spans are kept in
//! memory and written out once, when the run ends. With tracing off
//! nothing is recorded and no clock is read.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root; a span's id is its
/// position in the tracer's list, counted from 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Operation the span belongs to: every span of one launch, compile
    /// or request shares it. 0 outside any operation.
    pub op: u32,
    /// The program layer the time is charged to (`ir`, `sim.exec`, ...).
    pub layer: &'static str,
    pub name: &'static str,
    /// Index of the script entry (kernel, image, request) the span ran.
    pub tag: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans for one thread. A disabled tracer does nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// On a forked tracer, the span of the tracer it was forked from
    /// under which its roots hang once absorbed.
    base_parent: u32,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            base_parent: 0,
            op: 0,
        }
    }

    /// A tracer for a helper thread: same clock, and once absorbed its
    /// roots hang under the span that is open here now.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
            base_parent: self.open.last().map_or(0, |&i| i as u32 + 1),
            op: 0,
        }
    }

    /// Takes over the spans of a tracer forked from this one, renumbering
    /// them to follow the spans already here.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = if s.parent == 0 { other.base_parent } else { s.parent + shift };
            s
        }));
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str, tag: u32) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        let parent = self.open.last().map_or(0, |&i| i as u32 + 1);
        self.open.push(idx);
        self.spans.push(Span {
            id: idx as u32 + 1,
            parent,
            op: self.op,
            layer,
            name,
            tag,
            start_ns: 0,
            end_ns: 0,
        });
        // Read the clock last, so that bookkeeping lands in the parent.
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        tag: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name, tag);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count and total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.total_where(|s| s.name == name)
    }

    /// Count and total duration of the spans called `name` with `tag`.
    pub fn total_tagged(&self, name: &str, tag: u32) -> (u64, u64) {
        self.total_where(|s| s.name == name && s.tag == tag)
    }

    fn total_where(&self, keep: impl Fn(&Span) -> bool) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| keep(s))
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap (two client threads
/// under one pass), so the covered part is the union of their intervals,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time per layer, as a share of all self time recorded. Spans of
/// threads that ran beside each other each count in full, so the shares
/// are of busy time, not of elapsed time, and add up to one.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer).or_default() += own;
    }
    let total: u64 = by_layer.values().sum();
    by_layer.into_iter().map(|(l, ns)| (l, ns as f64 / total.max(1) as f64)).collect()
}

/// The trace file: one object with a `spans` array, times in
/// microseconds since the tracer was made.
pub fn render_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"unit\": \"us\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"layer\": {}, \"name\": {}, \"tag\": {}, \
             \"start\": {:.3}, \"end\": {:.3}}}",
            s.id,
            s.parent,
            s.op,
            escape(s.layer),
            escape(s.name),
            s.tag,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, layer, name: "t", tag: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(1, 0, "harness", 0, 100),
            span(2, 1, "ir", 10, 40),
            span(3, 2, "core", 20, 30),
            span(4, 1, "sim.exec", 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span(1, 0, "harness", 100, 200),
            span(2, 1, "server", 110, 160),
            span(3, 1, "server", 140, 180),
            span(4, 1, "server", 150, 155),
            span(5, 1, "server", 190, 250),
        ];
        // Union of the children inside [100, 200] is [110, 180] + [190, 200].
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn layer_shares_add_up_to_one() {
        let spans = [
            span(1, 0, "harness", 0, 100),
            span(2, 1, "sim.exec", 0, 90),
            span(3, 0, "harness", 100, 200),
            span(4, 3, "sim.exec", 105, 195),
        ];
        let shares = layer_shares(&spans);
        assert!((shares["sim.exec"] - 0.9).abs() < 1e-12);
        assert!((shares["harness"] - 0.1).abs() < 1e-12);
        // Two clients busy at once under one pass: 180 of 190 busy units.
        let spans = [
            span(1, 0, "harness", 0, 100),
            span(2, 1, "server", 5, 95),
            span(3, 1, "server", 5, 95),
        ];
        let shares = layer_shares(&spans);
        assert!((shares["server"] - 180.0 / 190.0).abs() < 1e-12);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_forks() {
        let mut t = Tracer::new(true);
        t.enter("harness", "pass", 0);
        t.set_op(7);
        t.time("ir", "ir.parse", 3, || ());
        let mut helper = t.fork();
        helper.enter("server", "request", 0);
        helper.time("server", "read", 0, || ());
        helper.exit();
        t.exit();
        t.absorb(helper);
        let s = t.spans();
        assert_eq!((s[0].id, s[0].parent), (1, 0));
        assert_eq!((s[1].id, s[1].parent, s[1].op, s[1].tag), (2, 1, 7, 3));
        assert_eq!((s[2].id, s[2].parent), (3, 1));
        assert_eq!((s[3].id, s[3].parent), (4, 3));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.total("ir.parse").0, 1);
        assert_eq!(t.total_tagged("ir.parse", 4).0, 0);
        let text = render_trace(s);
        assert!(crate::json::Json::parse(&text).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("harness", "pass", 0);
        assert_eq!(t.time("ir", "ir.parse", 0, || 5), 5);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
