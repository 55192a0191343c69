//! Negative parser coverage: every class of malformed input is rejected
//! with a line-numbered, human-readable diagnostic (never a panic).

use simt_ir::{parse_and_link, parse_module};

fn wrap(body: &str) -> String {
    format!("kernel @k(params=0, regs=4, barriers=2, entry=bb0) {{\nbb0:\n{body}\n  exit\n}}\n")
}

fn expect_err(src: &str, needle: &str) {
    let err = parse_module(src).unwrap_err();
    assert!(
        err.message.contains(needle),
        "expected error containing {needle:?}, got line {}: {}",
        err.line,
        err.message
    );
}

#[test]
fn unknown_instruction() {
    expect_err(&wrap("  %r0 = frobnicate 1"), "unknown instruction");
}

#[test]
fn unknown_special_and_rng_kinds() {
    expect_err(&wrap("  %r0 = special.blockid"), "unknown special value");
    expect_err(&wrap("  %r0 = rng.gauss"), "unknown rng kind");
}

#[test]
fn unknown_memory_space() {
    expect_err(&wrap("  %r0 = load shared[0]"), "unknown memory space");
}

#[test]
fn malformed_register_and_barrier() {
    expect_err(&wrap("  %rx = mov 1"), "expected register number");
    expect_err(&wrap("  join q0"), "expected b<N>");
}

#[test]
fn bad_block_references() {
    expect_err(
        "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n  jmp nowhere\n}\n",
        "expected bb<N>",
    );
}

#[test]
fn negative_work_rejected() {
    expect_err(&wrap("  work -3"), "non-negative");
}

#[test]
fn missing_header_fields() {
    expect_err(
        "kernel @k(params=0, regs=0, entry=bb0) {\nbb0:\n  exit\n}\n",
        "expected `barriers`",
    );
}

#[test]
fn wrong_function_keyword() {
    expect_err(
        "global @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n",
        "expected `kernel` or `device`",
    );
}

#[test]
fn truncated_input() {
    let err =
        parse_module("kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0:\n").unwrap_err();
    assert!(err.message.contains("unexpected end of input"));
}

#[test]
fn stray_characters() {
    expect_err(&wrap("  %r0 = mov $5"), "unexpected character");
    expect_err(&wrap("  %r0 = mov - 5"), "stray `-`");
}

#[test]
fn unknown_block_attribute() {
    expect_err(
        "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\nbb0 (hot):\n  exit\n}\n",
        "unknown block attribute",
    );
}

/// Three-line kernels that used to abort the process — an allocation
/// failure is not a panic, so nothing upstream can catch it: a block
/// table sized from the largest `bb<N>` (352 GB; `max + 1` also wrapped at
/// `bb4294967295`), a register arena from `regs=` (709 GB), the barrier
/// analyses' bit sets from `barriers=` (32 GB). The first is a parse
/// error before the table exists; the other two parse and are the
/// verifier's to refuse.
#[test]
fn headers_and_block_ids_cannot_size_an_allocation() {
    for id in ["4000000000", "4294967295", "2"] {
        let src = format!(
            "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {{\nbb0:\n  jmp bb{id}\nbb{id}:\n  exit\n}}\n"
        );
        expect_err(&src, "block bb1 is missing");
    }
    for (header, needle) in [
        ("regs=4000000000000, barriers=0", "num_regs 4000000000000 exceeds the limit of 65536"),
        ("regs=1, barriers=4000000000", "num_barriers 4000000000 exceeds the limit of 4096"),
    ] {
        let src = format!(
            "kernel @k(params=0, {header}, entry=bb0) {{\nbb0:\n  %r0 = special.tid\n  \
             brdiv %r0, bb1, bb1\nbb1:\n  exit\n}}\n"
        );
        let module = parse_and_link(&src).expect("the text itself is well formed");
        let errs = simt_ir::verify_module(&module).expect_err(header);
        assert!(errs.iter().any(|e| e.message.contains(needle)), "{header}: {errs:?}");
    }
}

#[test]
fn undefined_entry_block() {
    expect_err(
        "kernel @k(params=0, regs=0, barriers=0, entry=bb7) {\nbb0:\n  exit\n}\n",
        "entry bb7 undefined",
    );
}

#[test]
fn bad_predict_targets() {
    expect_err(
        "kernel @k(params=0, regs=0, barriers=0, entry=bb0) {\n  predict bb0 -> block L1\nbb0:\n  exit\n}\n",
        "expected `label` or `func`",
    );
}

#[test]
fn error_line_numbers_point_at_the_problem() {
    let src = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r0 = mov 1\n  %r1 = bogus 2\n  exit\n}\n";
    let err = parse_module(src).unwrap_err();
    assert_eq!(err.line, 4);
}

#[test]
fn linking_error_names_the_callee() {
    let src = "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  call @missing()\n  exit\n}\n";
    let err = parse_and_link(src).unwrap_err();
    assert!(err.message.contains("@missing"));
}

#[test]
fn display_of_errors_is_prefixed() {
    let err = parse_module("junk").unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("parse error at line 1"), "{msg}");
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let src = "\n; leading comment\nkernel @k(params=0, regs=1, barriers=0, entry=bb0) {\n\n; another\nbb0:\n  nop ; trailing\n  exit\n}\n";
    let m = parse_module(src).unwrap();
    assert_eq!(m.functions.len(), 1);
}
