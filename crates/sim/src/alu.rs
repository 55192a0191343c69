//! Scalar ALU semantics shared by both interpreters (the lockstep cohort
//! in [`crate::sweep`], which runs every scalar launch at one slot, and
//! the tree-walking oracle in [`crate::reference`]), plus the `special`
//! values they read.
//!
//! Operations are polymorphic over [`Value`]: integer inputs use wrapping
//! integer semantics, and if either input is a float the operation is
//! performed in `f64`. Relational ops always produce an integer 0/1.
//!
//! The semantics exist once, as small monomorphic per-op *kernels*.
//! [`with_bin`]/[`with_un`] match the op **once** and hand the kernel to
//! an [`AluLoop`] — the caller's own loop shape (`exec`: the lanes of one
//! issue; `sweep`: lanes × slot runs; [`eval_bin`]/[`eval_un`]: a single
//! element) — so an engine pays the op dispatch per issue, not per
//! element, and the loop body inlines to the one operation it runs.

use crate::decode::DecodedInst;
use simt_ir::{BinOp, Operand, SpecialValue, UnOp, Value};

/// A loop over the elements of one issue, waiting for the kernel it
/// applies to each `(lhs, rhs)` pair. Unary kernels ignore `rhs`.
pub(crate) trait AluLoop {
    type Out;
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) -> Self::Out;
}

/// Runs `l` with the kernel of binary op `op`.
#[inline]
pub(crate) fn with_bin<L: AluLoop>(op: BinOp, l: L) -> L::Out {
    use BinOp::*;
    use Value::{F64, I64};
    macro_rules! arith {
        ($int:expr, $flt:expr) => {
            l.run(|a, b| {
                Ok(match (a, b) {
                    (I64(x), I64(y)) => I64($int(x, y)),
                    _ => F64($flt(a.as_f64(), b.as_f64())),
                })
            })
        };
    }
    macro_rules! cmp {
        ($int:expr, $flt:expr) => {
            l.run(|a, b| {
                Ok(Value::bool(match (a, b) {
                    (I64(x), I64(y)) => $int(&x, &y),
                    _ => $flt(&a.as_f64(), &b.as_f64()),
                }))
            })
        };
    }
    // Fallible on integers (`$f`); `$mixed` is what a float operand does.
    macro_rules! ints {
        ($f:expr, $mixed:expr) => {
            l.run(|a, b| match (a, b) {
                (I64(x), I64(y)) => $f(x, y),
                _ => $mixed(a.as_f64(), b.as_f64()),
            })
        };
    }
    macro_rules! bits {
        ($f:expr) => {
            ints!(|x: i64, y: i64| Ok(I64($f(x, y))), |_, _| Err(bitwise_on_float(op.mnemonic())))
        };
    }
    match op {
        Add => arith!(i64::wrapping_add, |x: f64, y: f64| x + y),
        Sub => arith!(i64::wrapping_sub, |x: f64, y: f64| x - y),
        Mul => arith!(i64::wrapping_mul, |x: f64, y: f64| x * y),
        Min => arith!(i64::min, f64::min),
        Max => arith!(i64::max, f64::max),
        Div => ints!(
            |x: i64, y: i64| match y {
                0 => Err(by_zero("division")),
                _ => Ok(I64(x.wrapping_div(y))),
            },
            |x: f64, y: f64| Ok(F64(x / y))
        ),
        Rem => ints!(
            |x: i64, y: i64| match y {
                0 => Err(by_zero("remainder")),
                _ => Ok(I64(x.wrapping_rem(y))),
            },
            |x: f64, y: f64| Ok(F64(x % y))
        ),
        And => bits!(|x, y| x & y),
        Or => bits!(|x, y| x | y),
        Xor => bits!(|x, y| x ^ y),
        Shl => bits!(|x, y| ((x as u64) << (y as u64 & 63)) as i64),
        Shr => bits!(|x, y| ((x as u64) >> (y as u64 & 63)) as i64),
        Eq => cmp!(i64::eq, f64::eq),
        Ne => cmp!(i64::ne, f64::ne),
        Lt => cmp!(i64::lt, f64::lt),
        Le => cmp!(i64::le, f64::le),
        Gt => cmp!(i64::gt, f64::gt),
        Ge => cmp!(i64::ge, f64::ge),
    }
}

#[cold]
#[inline(never)]
fn bitwise_on_float(mnemonic: &str) -> String {
    format!("bitwise `{mnemonic}` applied to a float")
}

#[cold]
#[inline(never)]
fn by_zero(what: &str) -> String {
    format!("integer {what} by zero")
}

/// Runs `l` with the kernel of unary op `op`.
#[inline]
pub(crate) fn with_un<L: AluLoop>(op: UnOp, l: L) -> L::Out {
    use Value::{F64, I64};
    match op {
        UnOp::Not => l.run(|a, _| match a {
            I64(v) => Ok(I64(!v)),
            F64(_) => Err(bitwise_on_float("not")),
        }),
        UnOp::Neg => l.run(|a, _| {
            Ok(match a {
                I64(v) => I64(v.wrapping_neg()),
                F64(v) => F64(-v),
            })
        }),
        UnOp::Sqrt => l.run(|a, _| Ok(F64(a.as_f64().sqrt()))),
        UnOp::Exp => l.run(|a, _| Ok(F64(a.as_f64().exp()))),
        UnOp::Log => l.run(|a, _| Ok(F64(a.as_f64().ln()))),
        UnOp::Abs => l.run(|a, _| {
            Ok(match a {
                I64(v) => I64(v.wrapping_abs()),
                F64(v) => F64(v.abs()),
            })
        }),
        UnOp::ItoF => l.run(|a, _| Ok(F64(a.as_f64()))),
        UnOp::FtoI => l.run(|a, _| Ok(I64(a.as_i64()))),
    }
}

/// How a faultable instruction faults — the one statement of the fault
/// conditions the kernels above implement, for the straight-line
/// batchers' pre-check ([`crate::cols::fault_free`]).
#[derive(Clone, Copy)]
pub(crate) enum FaultCond {
    /// `div`/`rem`: an integer pair with a zero divisor.
    ZeroIntDivisor,
    /// Bitwise ops and `not`: a float operand.
    FloatOperand,
}

/// For an instruction that can fault, its operands and its
/// [`FaultCond`]; `None` for infallible instructions.
#[inline]
pub(crate) fn fault_cond(inst: &DecodedInst) -> Option<(Operand, Operand, FaultCond)> {
    use BinOp::*;
    match *inst {
        DecodedInst::Bin { op: Div | Rem, lhs, rhs, .. } => {
            Some((lhs, rhs, FaultCond::ZeroIntDivisor))
        }
        DecodedInst::Bin { op: And | Or | Xor | Shl | Shr, lhs, rhs, .. } => {
            Some((lhs, rhs, FaultCond::FloatOperand))
        }
        DecodedInst::Un { op: UnOp::Not, src, .. } => Some((src, src, FaultCond::FloatOperand)),
        _ => None,
    }
}

/// What `special` `kind` reads in lane `lane` of warp `warp`, in a launch
/// of `warps` warps of `width` lanes.
#[inline]
pub(crate) fn special(
    kind: SpecialValue,
    warp: usize,
    lane: usize,
    width: usize,
    warps: usize,
) -> i64 {
    (match kind {
        SpecialValue::Tid => warp * width + lane,
        SpecialValue::LaneId => lane,
        SpecialValue::WarpId => warp,
        SpecialValue::NumThreads => warps * width,
        SpecialValue::WarpWidth => width,
    }) as i64
}

/// The one-element loop behind [`eval_bin`] and [`eval_un`].
struct Once(Value, Value);

impl AluLoop for Once {
    type Out = Result<Value, String>;
    #[inline]
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) -> Self::Out {
        k(self.0, self.1)
    }
}

/// Evaluates a binary ALU operation.
#[inline]
pub(crate) fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    with_bin(op, Once(a, b))
}

/// Evaluates a unary ALU operation.
#[inline]
pub(crate) fn eval_un(op: UnOp, a: Value) -> Result<Value, String> {
    with_un(op, Once(a, Value::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Value::{F64, I64};

    #[test]
    fn eval_bin_int_and_float() {
        assert_eq!(eval_bin(BinOp::Add, Value::I64(2), Value::I64(3)).unwrap(), Value::I64(5));
        assert_eq!(eval_bin(BinOp::Add, Value::I64(2), Value::F64(0.5)).unwrap(), Value::F64(2.5));
        assert_eq!(eval_bin(BinOp::Lt, Value::I64(1), Value::I64(2)).unwrap(), Value::TRUE);
        assert!(eval_bin(BinOp::Div, Value::I64(1), Value::I64(0)).is_err());
        assert!(eval_bin(BinOp::And, Value::F64(1.0), Value::I64(1)).is_err());
        assert_eq!(eval_bin(BinOp::Shl, Value::I64(1), Value::I64(4)).unwrap(), Value::I64(16));
    }

    #[test]
    fn eval_un_cases() {
        assert_eq!(eval_un(UnOp::Neg, Value::I64(3)).unwrap(), Value::I64(-3));
        assert_eq!(eval_un(UnOp::Sqrt, Value::F64(4.0)).unwrap(), Value::F64(2.0));
        assert_eq!(eval_un(UnOp::FtoI, Value::F64(2.9)).unwrap(), Value::I64(2));
        assert!(eval_un(UnOp::Not, Value::F64(1.0)).is_err());
    }

    // The edge semantics docs/SYNTAX.md states ("ALU edge semantics"),
    // one literal table per op. A row expects a value — its type and,
    // for floats, its bits (`-0.0` is not `0.0`; any NaN matches NaN) —
    // or an error whose message contains the given text.

    const NAN: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;
    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;
    const FLOAT: Result<Value, &str> = Err("applied to a float");

    fn same(x: Value, y: Value) -> bool {
        match (x, y) {
            (I64(a), I64(b)) => a == b,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan(),
            _ => false,
        }
    }

    fn check(what: String, got: Result<Value, String>, want: Result<Value, &str>) {
        match (&got, want) {
            (Ok(g), Ok(w)) if same(*g, w) => {}
            (Err(g), Err(w)) if g.contains(w) => {}
            _ => panic!("{what}: got {got:?}, want {want:?}"),
        }
    }

    fn bin(op: BinOp, rows: &[(Value, Value, Result<Value, &str>)]) {
        for &(a, b, want) in rows {
            check(format!("{a:?} {} {b:?}", op.mnemonic()), eval_bin(op, a, b), want);
        }
    }

    fn un(op: UnOp, rows: &[(Value, Result<Value, &str>)]) {
        for &(a, want) in rows {
            check(format!("{op:?} {a:?}"), eval_un(op, a), want);
        }
    }

    #[test]
    fn add_wraps_and_promotes() {
        bin(
            BinOp::Add,
            &[
                (I64(2), I64(3), Ok(I64(5))),
                (I64(MAX), I64(1), Ok(I64(MIN))),
                (I64(1), F64(0.5), Ok(F64(1.5))),
                (F64(0.5), I64(1), Ok(F64(1.5))),
                // An integer past 2^53 rounds on promotion.
                (I64((1 << 53) + 1), F64(0.0), Ok(F64(9007199254740992.0))),
                (F64(INF), F64(-INF), Ok(F64(NAN))),
            ],
        );
    }

    #[test]
    fn sub_wraps_and_promotes() {
        bin(
            BinOp::Sub,
            &[
                (I64(2), I64(3), Ok(I64(-1))),
                (I64(MIN), I64(1), Ok(I64(MAX))),
                (I64(1), F64(0.25), Ok(F64(0.75))),
                (F64(0.0), F64(0.0), Ok(F64(0.0))),
            ],
        );
    }

    #[test]
    fn mul_wraps_and_promotes() {
        bin(
            BinOp::Mul,
            &[
                (I64(-4), I64(3), Ok(I64(-12))),
                (I64(MAX), I64(2), Ok(I64(-2))),
                (I64(MIN), I64(-1), Ok(I64(MIN))),
                (I64(3), F64(0.5), Ok(F64(1.5))),
                (F64(-0.0), I64(5), Ok(F64(-0.0))),
            ],
        );
    }

    #[test]
    fn div_truncates_and_faults_on_an_integer_zero() {
        bin(
            BinOp::Div,
            &[
                (I64(7), I64(2), Ok(I64(3))),
                (I64(-7), I64(2), Ok(I64(-3))),
                (I64(7), I64(-2), Ok(I64(-3))),
                (I64(MIN), I64(-1), Ok(I64(MIN))),
                (I64(1), I64(0), Err("integer division by zero")),
                (I64(7), F64(2.0), Ok(F64(3.5))),
                (I64(1), F64(0.0), Ok(F64(INF))),
                (F64(0.0), I64(0), Ok(F64(NAN))),
            ],
        );
    }

    #[test]
    fn rem_truncates_and_faults_on_an_integer_zero() {
        bin(
            BinOp::Rem,
            &[
                (I64(7), I64(2), Ok(I64(1))),
                (I64(-7), I64(2), Ok(I64(-1))),
                (I64(7), I64(-2), Ok(I64(1))),
                (I64(-7), I64(-2), Ok(I64(-1))),
                (I64(MIN), I64(-1), Ok(I64(0))),
                (I64(1), I64(0), Err("integer remainder by zero")),
                (F64(-7.5), I64(2), Ok(F64(-1.5))),
                (I64(1), F64(0.0), Ok(F64(NAN))),
            ],
        );
    }

    #[test]
    fn and_is_bitwise_on_integers_only() {
        bin(
            BinOp::And,
            &[
                (I64(0b1100), I64(0b1010), Ok(I64(0b1000))),
                (I64(-1), I64(MIN), Ok(I64(MIN))),
                (F64(1.0), I64(1), FLOAT),
                (I64(1), F64(1.0), FLOAT),
            ],
        );
    }

    #[test]
    fn or_is_bitwise_on_integers_only() {
        bin(
            BinOp::Or,
            &[
                (I64(0b1100), I64(0b1010), Ok(I64(0b1110))),
                (I64(MIN), I64(1), Ok(I64(MIN + 1))),
                (F64(0.0), I64(0), FLOAT),
            ],
        );
    }

    #[test]
    fn xor_is_bitwise_on_integers_only() {
        bin(
            BinOp::Xor,
            &[
                (I64(0b1100), I64(0b1010), Ok(I64(0b0110))),
                (I64(-1), I64(0), Ok(I64(-1))),
                (I64(0), F64(0.0), FLOAT),
            ],
        );
    }

    #[test]
    fn shl_masks_its_amount_to_six_bits() {
        bin(
            BinOp::Shl,
            &[
                (I64(1), I64(4), Ok(I64(16))),
                (I64(1), I64(40), Ok(I64(1 << 40))),
                (I64(1), I64(63), Ok(I64(MIN))),
                (I64(1), I64(64), Ok(I64(1))),
                (I64(1), I64(70), Ok(I64(64))),
                (I64(1), I64(-1), Ok(I64(MIN))),
                (I64(-1), I64(1), Ok(I64(-2))),
                (F64(1.0), I64(1), FLOAT),
            ],
        );
    }

    #[test]
    fn shr_is_logical_and_masks_its_amount_to_six_bits() {
        bin(
            BinOp::Shr,
            &[
                (I64(16), I64(4), Ok(I64(1))),
                (I64(-8), I64(1), Ok(I64(MAX - 3))),
                (I64(MIN), I64(63), Ok(I64(1))),
                (I64(1 << 40), I64(40), Ok(I64(1))),
                (I64(16), I64(64), Ok(I64(16))),
                (I64(16), I64(68), Ok(I64(1))),
                (I64(16), F64(1.0), FLOAT),
            ],
        );
    }

    #[test]
    fn min_prefers_a_number_to_nan() {
        bin(
            BinOp::Min,
            &[
                (I64(-3), I64(2), Ok(I64(-3))),
                (I64(MIN), I64(MAX), Ok(I64(MIN))),
                (I64(2), F64(2.5), Ok(F64(2.0))),
                (F64(NAN), I64(1), Ok(F64(1.0))),
                (F64(1.0), F64(NAN), Ok(F64(1.0))),
                (F64(NAN), F64(NAN), Ok(F64(NAN))),
            ],
        );
    }

    #[test]
    fn max_prefers_a_number_to_nan() {
        bin(
            BinOp::Max,
            &[
                (I64(-3), I64(2), Ok(I64(2))),
                (I64(2), F64(1.5), Ok(F64(2.0))),
                (F64(NAN), I64(1), Ok(F64(1.0))),
                (F64(1.0), F64(NAN), Ok(F64(1.0))),
                (F64(NAN), F64(NAN), Ok(F64(NAN))),
            ],
        );
    }

    #[test]
    fn eq_compares_promoted_values_and_nan_equals_nothing() {
        bin(
            BinOp::Eq,
            &[
                (I64(2), I64(2), Ok(I64(1))),
                (I64(2), F64(2.0), Ok(I64(1))),
                (F64(0.0), F64(-0.0), Ok(I64(1))),
                (F64(NAN), F64(NAN), Ok(I64(0))),
            ],
        );
    }

    #[test]
    fn ne_compares_promoted_values_and_nan_differs_from_everything() {
        bin(
            BinOp::Ne,
            &[
                (I64(2), I64(3), Ok(I64(1))),
                (I64(2), F64(2.0), Ok(I64(0))),
                (F64(NAN), F64(NAN), Ok(I64(1))),
            ],
        );
    }

    #[test]
    fn lt_compares_promoted_values_and_is_false_on_nan() {
        bin(
            BinOp::Lt,
            &[
                (I64(MIN), I64(MAX), Ok(I64(1))),
                (I64(1), F64(1.5), Ok(I64(1))),
                (F64(NAN), I64(1), Ok(I64(0))),
                (I64(1), F64(NAN), Ok(I64(0))),
            ],
        );
    }

    #[test]
    fn le_compares_promoted_values_and_is_false_on_nan() {
        bin(
            BinOp::Le,
            &[
                (I64(2), I64(2), Ok(I64(1))),
                (F64(2.5), I64(2), Ok(I64(0))),
                (F64(NAN), F64(NAN), Ok(I64(0))),
            ],
        );
    }

    #[test]
    fn gt_compares_promoted_values_and_is_false_on_nan() {
        bin(
            BinOp::Gt,
            &[
                (I64(3), I64(2), Ok(I64(1))),
                (F64(-0.0), F64(0.0), Ok(I64(0))),
                (F64(NAN), I64(0), Ok(I64(0))),
            ],
        );
    }

    #[test]
    fn ge_compares_promoted_values_and_is_false_on_nan() {
        bin(
            BinOp::Ge,
            &[
                (I64(2), I64(2), Ok(I64(1))),
                (I64(2), F64(2.5), Ok(I64(0))),
                (F64(INF), F64(NAN), Ok(I64(0))),
            ],
        );
    }

    #[test]
    fn not_is_bitwise_on_integers_only() {
        un(UnOp::Not, &[(I64(0), Ok(I64(-1))), (I64(MIN), Ok(I64(MAX))), (F64(0.0), FLOAT)]);
    }

    #[test]
    fn neg_wraps_and_flips_a_float_sign() {
        un(
            UnOp::Neg,
            &[
                (I64(3), Ok(I64(-3))),
                (I64(MIN), Ok(I64(MIN))),
                (F64(0.0), Ok(F64(-0.0))),
                (F64(NAN), Ok(F64(NAN))),
            ],
        );
    }

    #[test]
    fn sqrt_promotes_and_is_nan_below_zero() {
        un(
            UnOp::Sqrt,
            &[(I64(9), Ok(F64(3.0))), (F64(-0.0), Ok(F64(-0.0))), (I64(-1), Ok(F64(NAN)))],
        );
    }

    #[test]
    fn exp_promotes() {
        un(
            UnOp::Exp,
            &[(I64(0), Ok(F64(1.0))), (F64(-INF), Ok(F64(0.0))), (F64(INF), Ok(F64(INF)))],
        );
    }

    #[test]
    fn log_promotes_and_is_minus_infinity_at_zero() {
        un(
            UnOp::Log,
            &[(I64(1), Ok(F64(0.0))), (I64(0), Ok(F64(-INF))), (F64(-1.0), Ok(F64(NAN)))],
        );
    }

    #[test]
    fn abs_wraps_at_the_integer_minimum() {
        un(
            UnOp::Abs,
            &[
                (I64(-3), Ok(I64(3))),
                (I64(MIN), Ok(I64(MIN))),
                (F64(-0.0), Ok(F64(0.0))),
                (F64(-INF), Ok(F64(INF))),
            ],
        );
    }

    #[test]
    fn itof_rounds_to_the_nearest_float() {
        un(
            UnOp::ItoF,
            &[
                (I64(-3), Ok(F64(-3.0))),
                (I64(MAX), Ok(F64(9223372036854775808.0))),
                (I64((1 << 53) + 1), Ok(F64(9007199254740992.0))),
                (F64(0.5), Ok(F64(0.5))),
            ],
        );
    }

    #[test]
    fn ftoi_truncates_and_saturates() {
        un(
            UnOp::FtoI,
            &[
                (F64(2.9), Ok(I64(2))),
                (F64(-2.9), Ok(I64(-2))),
                (F64(1e300), Ok(I64(MAX))),
                (F64(-INF), Ok(I64(MIN))),
                (F64(NAN), Ok(I64(0))),
                (I64(-7), Ok(I64(-7))),
            ],
        );
    }
}
