//! The compiler and the hardware model reconverge at the same points.
//!
//! `pdom` puts each divergent branch's `wait` at the branch block's
//! immediate post-dominator, and the IPDOM stack pops where
//! `DecodedImage::reconvergence_pc` says. Both read one post-dominator
//! tree, so on every registry workload each instrumented branch's
//! reconvergence pc is the entry pc of the block holding its `wait`, and
//! each branch `pdom` skipped (its arms meet only at exit) has none. No
//! registry kernel has such a branch, so one small kernel adds them.

use simt_ir::{parse_and_link, BarrierOp, BlockId, Function, Inst, Module};
use simt_sim::DecodedImage;
use specrecon_core::{compile, RepairStrategy};
use workloads::registry;

/// Entry pc of every block, per function, in the decoded layout:
/// functions in id order, blocks in id order, each block's terminator
/// right after its instructions.
fn block_starts(module: &Module) -> Vec<Vec<usize>> {
    let mut pc = 0;
    let mut starts = Vec::new();
    for (_, f) in module.functions.iter() {
        let mut fs = Vec::new();
        for (_, b) in f.blocks.iter() {
            fs.push(pc);
            pc += b.insts.len() + 1;
        }
        starts.push(fs);
    }
    starts
}

/// Two divergent branches whose arms meet only at exit (one of them in
/// a device function) around a diamond that reconverges.
const EXITS_EARLY: &str = "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = and %r0, 1
  brdiv %r1, bb1, bb4
bb1:
  %r2 = and %r0, 2
  brdiv %r2, bb2, bb3
bb2:
  call @f(%r0) -> (%r3)
  jmp bb3
bb3:
  exit
bb4:
  exit
}
device @f(params=1, regs=2, barriers=0, entry=bb0) {
bb0:
  brdiv %r0, bb1, bb2
bb1:
  ret %r0
bb2:
  %r1 = add %r0, 1
  ret %r1
}
";

/// Pc of block `b`'s terminator.
fn term_pc(f: &Function, starts: &[usize], b: BlockId) -> usize {
    starts[b.index()] + f.blocks[b].insts.len()
}

#[test]
fn ipdom_stack_reconverges_where_pdom_waits() {
    let (mut inserted, mut skipped) = (0, 0);
    let small = ("exits-early", parse_and_link(EXITS_EARLY).expect("kernel parses"));
    let modules = registry().into_iter().map(|w| (w.name, w.module)).chain([small]);
    for (name, source) in modules {
        let compiled = compile(&source, &RepairStrategy::Pdom.options())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let module = &compiled.module;
        let image = DecodedImage::decode(module);
        let starts = block_starts(module);
        for (fid, report) in &compiled.reports {
            let (f, fs) = (&module.functions[*fid], &starts[fid.index()]);
            for &(branch, _, bar) in &report.pdom.inserted {
                let wait = Inst::Barrier(BarrierOp::Wait(bar));
                let holder = f
                    .blocks
                    .iter()
                    .find(|(_, b)| b.insts.contains(&wait))
                    .map(|(id, _)| id)
                    .unwrap_or_else(|| panic!("{name}: no wait on {bar}"));
                assert_eq!(
                    image.reconvergence_pc(term_pc(f, fs, branch)),
                    Some(fs[holder.index()]),
                    "{name} @{}: branch in {branch} waits on {bar} in {holder}",
                    f.name,
                );
                inserted += 1;
            }
            for &branch in &report.pdom.skipped {
                assert_eq!(
                    image.reconvergence_pc(term_pc(f, fs, branch)),
                    None,
                    "{name} @{}: pdom skipped the branch in {branch}",
                    f.name,
                );
                skipped += 1;
            }
        }
    }
    assert!(inserted > 0 && skipped == 2, "{inserted} inserted, {skipped} skipped");
}
