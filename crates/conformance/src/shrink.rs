//! Spec-level shrinking.
//!
//! The vendored proptest core has no shrink support, and shrinking raw
//! IR would produce malformed programs anyway. Instead we shrink the
//! [`ProgramSpec`] genome directly: greedily try structure-reducing
//! mutations (drop a statement, inline a branch arm, collapse a loop,
//! drop a prediction, shrink the launch), keep any mutation under which
//! the grid still fails, and repeat to a fixpoint or until the
//! check budget runs out. Every intermediate candidate is a
//! well-formed spec, so the final result is a minimal *valid* program.

use crate::program::{collect_constructs, contains_call, PredTarget, ProgramSpec, Stmt};

/// Default number of grid checks a shrink may spend.
pub const DEFAULT_BUDGET: usize = 150;

/// All single-step reductions of a statement list: per index, removal,
/// arm/body splicing, attribute simplification, and recursive
/// reductions inside nested constructs.
fn stmt_variants(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        let splice = |replacement: Vec<Stmt>| {
            let mut v = stmts.to_vec();
            v.splice(i..=i, replacement);
            v
        };
        let replace = |with: Stmt| {
            let mut v = stmts.to_vec();
            v[i] = with;
            v
        };
        out.push(splice(Vec::new()));
        match s {
            Stmt::If { cond, then_b, else_b, id } => {
                out.push(splice(then_b.clone()));
                out.push(splice(else_b.clone()));
                for t in stmt_variants(then_b) {
                    out.push(replace(Stmt::If {
                        cond: *cond,
                        then_b: t,
                        else_b: else_b.clone(),
                        id: *id,
                    }));
                }
                for e in stmt_variants(else_b) {
                    out.push(replace(Stmt::If {
                        cond: *cond,
                        then_b: then_b.clone(),
                        else_b: e,
                        id: *id,
                    }));
                }
            }
            Stmt::Loop { trips, rng_trips, early, body, id } => {
                out.push(splice(body.clone()));
                let base = |body: Vec<Stmt>, trips, rng_trips, early| Stmt::Loop {
                    trips,
                    rng_trips,
                    early,
                    body,
                    id: *id,
                };
                if early.is_some() {
                    out.push(replace(base(body.clone(), *trips, *rng_trips, None)));
                }
                if *rng_trips {
                    out.push(replace(base(body.clone(), 2, false, *early)));
                }
                if !*rng_trips && *trips > 1 {
                    out.push(replace(base(body.clone(), 1, false, *early)));
                }
                for bv in stmt_variants(body) {
                    out.push(replace(base(bv, *trips, *rng_trips, *early)));
                }
            }
            Stmt::Work(n) if *n > 1 => out.push(replace(Stmt::Work(1))),
            Stmt::CallShared => out.push(replace(Stmt::Work(1))),
            _ => {}
        }
    }
    out
}

/// Spec-level single-step reductions (launch shape, callee,
/// predictions, then the statement-tree reductions).
fn candidates(spec: &ProgramSpec) -> Vec<ProgramSpec> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut ProgramSpec)| {
        let mut c = spec.clone();
        f(&mut c);
        out.push(c);
    };
    if spec.warps > 1 {
        push(&|c| c.warps = 1);
    }
    if spec.warp_width > 4 {
        push(&|c| c.warp_width = 4);
    }
    if spec.callee.as_ref().is_some_and(|c| c.recursion.is_some()) {
        push(&|c| c.callee.as_mut().unwrap().recursion = None);
    }
    if let Some(callee) = &spec.callee {
        if !callee.stmts.is_empty() {
            push(&|c| c.callee.as_mut().unwrap().stmts.clear());
        }
    }
    for i in 0..spec.predictions.len() {
        push(&move |c| {
            c.predictions.remove(i);
        });
        if spec.predictions[i].threshold.is_some() {
            push(&move |c| c.predictions[i].threshold = None);
        }
    }
    for stmts in stmt_variants(&spec.stmts) {
        let mut c = spec.clone();
        c.stmts = stmts;
        out.push(c);
    }
    out
}

/// Re-establishes the generator's invariants after a mutation: no
/// dangling prediction targets, no callee without a call site.
fn normalize(mut spec: ProgramSpec) -> ProgramSpec {
    if spec.callee.is_some() && !contains_call(&spec.stmts) {
        spec.callee = None;
    }
    let constructs = collect_constructs(&spec.stmts);
    let callee_ok = spec.callee.is_some();
    spec.predictions.retain(|p| match p.target {
        PredTarget::Construct(id) => constructs.contains(&id),
        PredTarget::Callee => callee_ok,
    });
    spec
}

/// Greedily shrinks a failing spec, spending at most `budget` grid
/// calls. Returns the smallest spec found that still fails (which is
/// `spec` itself if no reduction reproduces the failure).
pub fn shrink(spec: &ProgramSpec, budget: usize) -> ProgramSpec {
    let mut best = spec.clone();
    let mut calls = 0usize;
    'outer: loop {
        for cand in candidates(&best) {
            if calls >= budget {
                break 'outer;
            }
            let cand = normalize(cand);
            if cand == best {
                continue;
            }
            calls += 1;
            if crate::check(&cand).is_err() {
                best = cand;
                continue 'outer;
            }
        }
        break;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Cond, PredSpec, Shape};

    fn passing_spec() -> ProgramSpec {
        ProgramSpec {
            seed: 7,
            shape: Shape::Mixed,
            warps: 2,
            warp_width: 4,
            callee: None,
            stmts: vec![
                Stmt::AccAdd(3),
                Stmt::If {
                    cond: Cond::TidBit(0),
                    then_b: vec![Stmt::Work(30), Stmt::AccAdd(1)],
                    else_b: vec![],
                    id: 0,
                },
                Stmt::StoreAcc,
            ],
            predictions: vec![PredSpec { target: PredTarget::Construct(0), threshold: None }],
        }
    }

    #[test]
    fn shrinking_a_passing_spec_returns_it_unchanged() {
        let spec = passing_spec();
        assert_eq!(shrink(&spec, 40), spec);
    }

    #[test]
    fn normalize_prunes_dangling_predictions() {
        let mut spec = passing_spec();
        spec.stmts = vec![Stmt::StoreAcc];
        let n = normalize(spec);
        assert!(n.predictions.is_empty());
    }

    #[test]
    fn stmt_variants_cover_removal_and_splicing() {
        let spec = passing_spec();
        let vs = stmt_variants(&spec.stmts);
        // Removal of each of the three statements, then-arm splice,
        // (empty) else-arm splice, and nested reductions all appear.
        assert!(vs.len() >= 6);
        assert!(vs.iter().any(|v| v.len() == 2 && !v.iter().any(|s| matches!(s, Stmt::If { .. }))));
    }
}
