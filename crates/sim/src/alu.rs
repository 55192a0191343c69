//! Scalar ALU semantics shared by every interpreter (the decoded engine
//! in [`crate::exec`], the lockstep cohort in [`crate::sweep`] and the
//! tree-walking oracle in [`crate::reference`]), plus the `special`
//! values both decoded engines read.
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
}
