//! Path-enumeration oracle for the paper's two dataflow analyses
//! (§4.2.1, Equations 1 and 2).
//!
//! On small random CFGs sprinkled with random barrier operations, the
//! fixpoint analyses must agree with brute force
//! (`conformance::regressions`, the oracle the regression corpus
//! replays too):
//!
//! - **joined**: a barrier is joined at a block entry iff some entry→block
//!   path leaves it joined (scanning join/rejoin/wait/cancel along the
//!   path);
//! - **live**: a barrier is live at a block entry iff some block→exit
//!   path hits a wait before any join.
//!
//! Paths are enumerated with bounded repetition so loops contribute the
//! extra iterations the union-meet fixpoint can see. A failing case is
//! shrunk while the same check still fails, and the message ends with a
//! complete `cc <hash> # shrinks to …` line
//! (`regressions::failure_report`): paste it into
//! `proptest_barrier_oracle.proptest-regressions` beside this file, which
//! `corpus_replay`'s `regression_file_cases_replay_clean` replays.

use conformance::regressions::{
    build_cfg, check_joined, check_live, failure_report, RegressionCase, NB,
};
use proptest::prelude::*;
use simt_ir::{BarrierId, BarrierOp, Inst};

fn barrier_op_strategy() -> impl Strategy<Value = Inst> {
    let bar = (0u32..NB as u32).prop_map(BarrierId);
    prop_oneof![
        bar.clone().prop_map(|b| Inst::Barrier(BarrierOp::Join(b))),
        bar.clone().prop_map(|b| Inst::Barrier(BarrierOp::Rejoin(b))),
        bar.clone().prop_map(|b| Inst::Barrier(BarrierOp::Wait(b))),
        bar.prop_map(|b| Inst::Barrier(BarrierOp::Cancel(b))),
        Just(Inst::Nop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn joined_analysis_matches_path_enumeration(
        n in 2usize..6,
        blocks in prop::collection::vec(prop::collection::vec(barrier_op_strategy(), 0..4), 1..6),
        links in prop::collection::vec((0usize..6, 0usize..6, any::<bool>()), 6),
    ) {
        let case = RegressionCase { n, blocks, links };
        if check_joined(&build_cfg(&case)).is_err() {
            prop_assert!(false, "{}", failure_report(&case, check_joined));
        }
    }

    #[test]
    fn liveness_analysis_matches_path_enumeration(
        n in 2usize..5,
        blocks in prop::collection::vec(prop::collection::vec(barrier_op_strategy(), 0..3), 1..5),
        links in prop::collection::vec((0usize..5, 0usize..5, any::<bool>()), 5),
    ) {
        let case = RegressionCase { n, blocks, links };
        if check_live(&build_cfg(&case)).is_err() {
            prop_assert!(false, "{}", failure_report(&case, check_live));
        }
    }
}
