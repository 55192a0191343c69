//! The brute-force barrier oracle and its regression corpus.
//!
//! [`check_joined`] and [`check_live`] compare the two §4.2.1 dataflow
//! analyses with path enumeration on one CFG; they are the only copy of
//! that oracle, and `tests/proptest_barrier_oracle.rs` drives them over
//! random CFGs built by [`build_cfg`].
//!
//! That proptest's failure cases live in
//! `crates/conformance/tests/proptest_barrier_oracle.proptest-regressions`,
//! beside the test. The vendored proptest neither shrinks a failing case
//! nor reads or writes that file, so this module does both halves: a
//! failing property reports through [`failure_report`], which shrinks
//! the case greedily (`shrink`) while the same check still fails and
//! prints a complete `cc … # shrinks to …` line (`regression_line`)
//! to paste into the file; [`cases`] parses the file's annotations back
//! (the file is embedded with `include_str!`), and `corpus_replay`'s
//! `regression_file_cases_replay_clean` rebuilds each CFG with
//! [`build_cfg`] and re-checks both analyses against the oracle.

use simt_analysis::{BarrierJoined, BarrierLiveness, FunctionAnalyses};
use simt_ir::{BarrierId, BarrierOp, BlockId, FuncKind, Function, Inst, Operand, Terminator};

/// Barriers per CFG, matching the original test's `NB`.
pub const NB: usize = 3;

/// The embedded regression corpus file.
const CORPUS: &str = include_str!("../tests/proptest_barrier_oracle.proptest-regressions");

/// One minimized regression case: the arguments the shrunk test ran
/// with.
#[derive(Clone, Debug, PartialEq)]
pub struct RegressionCase {
    /// Number of blocks actually instantiated.
    pub n: usize,
    /// Instruction templates, indexed modulo their length.
    pub blocks: Vec<Vec<Inst>>,
    /// `(then, else, is_branch)` link templates, indexed modulo length.
    pub links: Vec<(usize, usize, bool)>,
}

/// The `# shrinks to …` annotation text, which [`cases`] parses back.
impl std::fmt::Display for RegressionCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n = {}, blocks = {:?}, links = {:?}", self.n, self.blocks, self.links)
    }
}

fn parse_inst(tok: &str) -> Result<Inst, String> {
    let tok = tok.trim();
    if tok == "Nop" {
        return Ok(Inst::Nop);
    }
    let inner = tok
        .strip_prefix("Barrier(")
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| format!("unrecognized instruction token {tok:?}"))?;
    let (op, rest) =
        inner.split_once('(').ok_or_else(|| format!("malformed barrier op {inner:?}"))?;
    let idx: u32 = rest
        .strip_suffix(')')
        .and_then(|s| s.strip_prefix('b'))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed barrier id in {inner:?}"))?;
    let b = BarrierId(idx);
    Ok(Inst::Barrier(match op {
        "Join" => BarrierOp::Join(b),
        "Rejoin" => BarrierOp::Rejoin(b),
        "Wait" => BarrierOp::Wait(b),
        "Cancel" => BarrierOp::Cancel(b),
        other => return Err(format!("unknown barrier op {other:?}")),
    }))
}

/// Splits the contents of a bracketed list at top-level commas.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' | '(' => {
                depth += 1;
                cur.push(c);
            }
            ']' | ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Extracts `key = [...]`, returning the bracketed body.
fn extract_list<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("{key} = [");
    let start = line.find(&pat).ok_or_else(|| format!("missing {key:?} in {line:?}"))? + pat.len();
    let mut depth = 1usize;
    for (off, c) in line[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(&line[start..start + off]);
                }
            }
            _ => {}
        }
    }
    Err(format!("unterminated {key:?} list in {line:?}"))
}

fn parse_case(annotation: &str) -> Result<RegressionCase, String> {
    let n: usize = annotation
        .split("n = ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| format!("missing n in {annotation:?}"))?;

    let blocks_src = extract_list(annotation, "blocks")?;
    let mut blocks = Vec::new();
    for item in split_top_level(blocks_src) {
        let body = item
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("malformed block list {item:?}"))?;
        let insts = if body.trim().is_empty() {
            Vec::new()
        } else {
            split_top_level(body).iter().map(|t| parse_inst(t)).collect::<Result<_, _>>()?
        };
        blocks.push(insts);
    }
    if blocks.is_empty() {
        return Err(format!("empty blocks list in {annotation:?}"));
    }

    let links_src = extract_list(annotation, "links")?;
    let mut links = Vec::new();
    for item in split_top_level(links_src) {
        let body = item
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| format!("malformed link tuple {item:?}"))?;
        let parts: Vec<&str> = body.split(',').map(str::trim).collect();
        if parts.len() != 3 {
            return Err(format!("link tuple arity != 3 in {item:?}"));
        }
        let a = parts[0].parse().map_err(|_| format!("bad link index {:?}", parts[0]))?;
        let b = parts[1].parse().map_err(|_| format!("bad link index {:?}", parts[1]))?;
        let branch = match parts[2] {
            "true" => true,
            "false" => false,
            other => return Err(format!("bad link flag {other:?}")),
        };
        links.push((a, b, branch));
    }
    if links.is_empty() {
        return Err(format!("empty links list in {annotation:?}"));
    }

    Ok(RegressionCase { n, blocks, links })
}

/// Parses every `# shrinks to …` annotation out of the embedded
/// corpus.
pub fn cases() -> Result<Vec<RegressionCase>, String> {
    let mut out = Vec::new();
    for line in CORPUS.lines() {
        let line = line.trim();
        if !line.starts_with("cc ") {
            continue;
        }
        let Some((_, annotation)) = line.split_once("# shrinks to ") else {
            continue;
        };
        out.push(parse_case(annotation)?);
    }
    Ok(out)
}

/// Greedily shrinks a case `fails` holds for: it tries one-step
/// simplifications — fewer blocks (`n`), fewer instruction and link
/// templates, fewer instructions, a jump for a branch, smaller link
/// targets — takes the first that still fails, and repeats until none
/// does. Every step lowers the case's size, so it terminates.
fn shrink(case: &RegressionCase, fails: impl Fn(&RegressionCase) -> bool) -> RegressionCase {
    let mut best = case.clone();
    while let Some(smaller) = simpler(&best).into_iter().find(|c| fails(c)) {
        best = smaller;
    }
    best
}

/// The one-step simplifications of `case`, boldest first.
fn simpler(case: &RegressionCase) -> Vec<RegressionCase> {
    let mut out = Vec::new();
    let mut with = |edit: &dyn Fn(&mut RegressionCase)| {
        let mut c = case.clone();
        edit(&mut c);
        out.push(c);
    };
    if case.n > 1 {
        with(&|c| c.n -= 1);
    }
    for (i, insts) in case.blocks.iter().enumerate() {
        if case.blocks.len() > 1 {
            with(&|c| {
                c.blocks.remove(i);
            });
        }
        for j in 0..insts.len() {
            with(&|c| {
                c.blocks[i].remove(j);
            });
        }
    }
    for (i, &(a, b, branch)) in case.links.iter().enumerate() {
        if case.links.len() > 1 {
            with(&|c| {
                c.links.remove(i);
            });
        }
        if branch {
            with(&|c| c.links[i].2 = false);
        }
        // Smaller targets: `build_cfg` reads them modulo `n`, and a jump
        // ignores its else target.
        let lower_b = if branch { b.saturating_sub(1) } else { 0 };
        for t in [(a % case.n, b), (a.saturating_sub(1), b), (a, b % case.n), (a, lower_b)] {
            if t != (a, b) {
                with(&|c| (c.links[i].0, c.links[i].1) = t);
            }
        }
    }
    out
}

/// The regression-file line for `case`: `cc <hash> # shrinks to <case>`.
/// [`cases`] reads only the annotation; the hash (FNV-1a of the
/// annotation) just keeps the line's shape and names it.
fn regression_line(case: &RegressionCase) -> String {
    let text = case.to_string();
    let hash = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    format!("cc {hash:016x} # shrinks to {text}")
}

/// What a property reports for a case `check` rejects: `check`'s message
/// on the case `shrink` reduces it to while `check` still fails, then
/// its `regression_line` to paste into the regression file.
pub fn failure_report(
    case: &RegressionCase,
    check: impl Fn(&Function) -> Result<(), String>,
) -> String {
    let small = shrink(case, |c| check(&build_cfg(c)).is_err());
    let err = check(&build_cfg(&small)).expect_err("a shrunk case still fails");
    format!("{err}\n{}", regression_line(&small))
}

/// Builds the CFG a case describes: `n` blocks, block `i` taking
/// `blocks[i % len]` and `links[i % len]`, the last block exiting.
pub fn build_cfg(case: &RegressionCase) -> Function {
    let RegressionCase { n, blocks, links } = case;
    let n = *n;
    let mut f = Function::new("oracle", FuncKind::Kernel, 0);
    f.num_barriers = NB;
    for _ in 1..n {
        f.add_block(None);
    }
    for bi in 0..n {
        let id = BlockId::new(bi);
        f.blocks[id].insts = blocks[bi % blocks.len()].clone();
        let (a, b, branch) = links[bi % links.len()];
        f.blocks[id].term = if bi == n - 1 {
            Terminator::Exit
        } else if branch {
            Terminator::Branch {
                cond: Operand::imm_i64(1),
                then_bb: BlockId::new(a % n),
                else_bb: BlockId::new(b % n),
                divergent: false,
            }
        } else {
            Terminator::Jump(BlockId::new(a % n))
        };
    }
    f
}

fn apply_forward_ops(insts: &[Inst], state: &mut [bool; NB]) {
    for inst in insts {
        if let Inst::Barrier(op) = inst {
            match op {
                BarrierOp::Join(b) | BarrierOp::Rejoin(b) => state[b.index()] = true,
                BarrierOp::Wait(b) | BarrierOp::Cancel(b) => state[b.index()] = false,
                _ => {}
            }
        }
    }
}

fn brute_joined_in(f: &Function, max_visits: usize) -> Vec<[bool; NB]> {
    let n = f.blocks.len();
    let mut result = vec![[false; NB]; n];
    let mut stack: Vec<(BlockId, [bool; NB], Vec<usize>)> =
        vec![(f.entry, [false; NB], vec![0; n])];
    while let Some((b, state, mut visits)) = stack.pop() {
        if visits[b.index()] >= max_visits {
            continue;
        }
        visits[b.index()] += 1;
        for (i, &on) in state.iter().enumerate() {
            result[b.index()][i] |= on;
        }
        let mut out = state;
        apply_forward_ops(&f.blocks[b].insts, &mut out);
        for s in f.successors(b) {
            stack.push((s, out, visits.clone()));
        }
    }
    result
}

fn apply_backward_ops(insts: &[Inst], state: &mut [bool; NB]) {
    for inst in insts.iter().rev() {
        if let Inst::Barrier(op) = inst {
            match op {
                BarrierOp::Wait(b) => state[b.index()] = true,
                BarrierOp::Join(b) | BarrierOp::Rejoin(b) => state[b.index()] = false,
                _ => {}
            }
        }
    }
}

fn brute_live_in(f: &Function, max_visits: usize) -> Vec<[bool; NB]> {
    let n = f.blocks.len();
    let mut result = vec![[false; NB]; n];
    let mut stack: Vec<(BlockId, Vec<BlockId>, Vec<usize>)> = vec![(f.entry, vec![], vec![0; n])];
    while let Some((b, mut path, mut visits)) = stack.pop() {
        if visits[b.index()] >= max_visits {
            continue;
        }
        visits[b.index()] += 1;
        path.push(b);
        let succs = f.successors(b);
        if succs.is_empty() {
            let mut state = [false; NB];
            for &blk in path.iter().rev() {
                apply_backward_ops(&f.blocks[blk].insts, &mut state);
                for (i, &on) in state.iter().enumerate() {
                    result[blk.index()][i] |= on;
                }
            }
        } else {
            for s in succs {
                stack.push((s, path.clone(), visits.clone()));
            }
        }
    }
    result
}

/// Re-checks one regression case against both analyses; `Err` carries
/// the first disagreement.
pub fn replay(case: &RegressionCase) -> Result<(), String> {
    let f = build_cfg(case);
    check_joined(&f)?;
    check_live(&f)
}

/// Checks the joined-barrier analysis (Eq. 1) of `f` against path
/// enumeration: a barrier is joined at a block entry iff some
/// entry→block path leaves it joined. `Err` names the first mismatch.
#[allow(clippy::needless_range_loop)] // indices name blocks/barriers in the error text
pub fn check_joined(f: &Function) -> Result<(), String> {
    let joined = BarrierJoined::analyze(f, &mut FunctionAnalyses::default());
    // Four visits per block expose everything a union fixpoint can
    // accumulate for 3 barriers (each extra lap can only add bits, and
    // bits saturate after |B| laps).
    let brute = brute_joined_in(f, 4);
    for b in 0..f.blocks.len() {
        let id = BlockId::new(b);
        if brute[b] == [false; NB] && joined.joined_in(id).is_empty() {
            continue;
        }
        for bar in 0..NB {
            if joined.joined_in(id).contains(bar) != brute[b][bar] {
                return Err(format!("joined_in(bb{b}, b{bar}) mismatch on:\n{f}"));
            }
        }
    }
    Ok(())
}

/// Checks barrier liveness (Eq. 2) of `f` against path enumeration: a
/// barrier live on some enumerated block→exit path (a wait before any
/// join) must be live at that block's entry. One-sided: the enumeration
/// only sees paths that reach an exit within its visit bound, and the
/// analysis may be a superset on longer cycles.
pub fn check_live(f: &Function) -> Result<(), String> {
    let live = BarrierLiveness::analyze(f, &mut FunctionAnalyses::default());
    let brute = brute_live_in(f, 3);
    for (b, brute) in brute.iter().enumerate() {
        for (bar, &on) in brute.iter().enumerate() {
            if on && !live.live_in(BlockId::new(b)).contains(bar) {
                return Err(format!("live_in(bb{b}, b{bar}) missing on:\n{f}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses_and_is_nonempty() {
        let cs = cases().unwrap();
        assert!(!cs.is_empty(), "regression corpus should contain at least one case");
        let first = &cs[0];
        assert_eq!(first.n, 4);
        assert_eq!(first.blocks, vec![vec![Inst::Barrier(BarrierOp::Join(BarrierId(0)))]]);
        assert_eq!(first.links.len(), 6);
        assert_eq!(first.links[0], (3, 3, false));
    }

    #[test]
    fn a_case_prints_the_annotation_it_parses_from() {
        for case in cases().unwrap() {
            assert_eq!(parse_case(&case.to_string()), Ok(case));
        }
    }

    #[test]
    fn a_failing_case_shrinks_to_its_minimal_cause() {
        let (join, wait, cancel) = (BarrierOp::Join, BarrierOp::Wait, BarrierOp::Cancel);
        let op = |f: fn(BarrierId) -> BarrierOp, b| Inst::Barrier(f(BarrierId(b)));
        let big = RegressionCase {
            n: 5,
            blocks: vec![vec![op(join, 0), Inst::Nop], vec![op(wait, 1), op(cancel, 2)], vec![]],
            links: vec![(3, 4, true), (1, 2, false), (5, 0, true)],
        };
        // The synthetic failure: some block of the CFG waits on b1.
        let fails = |c: &RegressionCase| {
            build_cfg(c).blocks.iter().any(|(_, b)| b.insts.contains(&op(wait, 1)))
        };
        let small = shrink(&big, fails);
        let minimal =
            RegressionCase { n: 1, blocks: vec![vec![op(wait, 1)]], links: vec![(0, 0, false)] };
        assert_eq!(small, minimal);
        // A passing case stays as it is.
        assert_eq!(shrink(&minimal, |_| false), minimal);
        // The report's line parses back to the shrunk case.
        let line = regression_line(&small);
        assert!(line.starts_with("cc ") && line.contains(" # shrinks to "), "{line}");
        let annotation = line.split_once("# shrinks to ").unwrap().1;
        assert_eq!(parse_case(annotation), Ok(small));
    }

    #[test]
    fn parse_inst_handles_all_ops() {
        assert_eq!(parse_inst("Nop").unwrap(), Inst::Nop);
        assert_eq!(
            parse_inst("Barrier(Wait(b2))").unwrap(),
            Inst::Barrier(BarrierOp::Wait(BarrierId(2)))
        );
        assert_eq!(
            parse_inst("Barrier(Rejoin(b1))").unwrap(),
            Inst::Barrier(BarrierOp::Rejoin(BarrierId(1)))
        );
        assert!(parse_inst("Barrier(Explode(b9))").is_err());
    }
}
