//! Typed slot columns: the structure-of-arrays value store of the
//! lockstep cohort ([`crate::sweep`]) — its registers, local memory and
//! global memory, whose columns are the seeds, or at one slot (every
//! scalar launch, [`crate::exec::run_image`]) a warp's lanes and the one
//! slot of global memory — and the typed loops and cell kernels over
//! their rows.
//!
//! Values are stored untagged: a row of `u64` payload bits per register
//! or memory cell plus one float-mask word per row. A row whose live
//! slots share a type runs a kernel from [`crate::alu`] as one dense loop
//! over `&[u64]` with the tags as loop constants; a row typed differently
//! by slot takes the same loop reading its mask per slot. The float words
//! also answer the straight-line batchers' fault pre-check
//! ([`fault_free`]) without reading a payload, except a divisor's. The
//! memory arms' per-cell work — the bounds check ([`cell`]), the load or
//! store ([`move_cell`]) and the atomic add ([`add_cell`]) — is written
//! once here, and each layout's cell map calls it with its own rows and
//! columns.

use crate::alu::FaultCond;
use crate::sched::{lanes, mask_runs};
use simt_ir::{Operand, Reg, Value};
use std::ops::Range;

/// Typed slot columns — the one data representation of the cohort. A
/// *row* is `ns` payload words — an `i64` reinterpreted, or
/// `f64::to_bits`, so NaN payloads and `-0.0` round-trip — plus one
/// float-mask word (bit `s` set ⇔ slot `s` holds an `f64`; there are at
/// most 64 slots, a cohort's [`COHORT_SLOTS`](crate::sweep::COHORT_SLOTS)
/// or a warp's lanes, so one word always suffices). [`Value`] exists only
/// at the edges: launch inputs, immediates, fault messages and the final
/// memory image.
///
/// Register windows sit in each lane's stack at the offsets the control
/// plane's frame table gives
/// ([`WarpCtl::bases`](crate::barrier::WarpCtl::bases)).
/// In the cohort a row is one register (or memory cell) of one lane
/// across every seed slot. Registers and local memory are *warp-major*,
/// one column set per warp: register `r` of the frame based at offset
/// `base` sits at row `(base + r) * width + lane`, local cell `c` at row
/// `c * width + lane` — so a run of adjacent lanes at one frame base is a
/// run of adjacent rows, `n * ns` contiguous payload words. Global memory
/// has one row per address. A row is shared by every sub-cohort, each
/// owning a disjoint slot set: every write commits payload *and* mask
/// bits under the writer's own slot mask only.
///
/// At one slot the columns are a warp's lanes: register `r` of the frame
/// based at offset `base` is row `base + r`, whose payload word `l` is
/// lane `l`'s — the same warp-major layout with the lane axis inside the
/// row — and local cell `c` is row `c`. Lanes at one frame base share
/// every register row; each write commits under the issued lanes only.
/// Global memory is one slot wide then, one row per address.
#[derive(Clone, Debug)]
pub(crate) struct SlotCols {
    /// Slots per row (the cohort width, or the warp width).
    pub(crate) ns: usize,
    /// Payload bits, `[row * ns + slot]`.
    pub(crate) bits: Vec<u64>,
    /// Float masks, `[row]`; only bits below `ns` are ever set.
    pub(crate) floats: Vec<u64>,
}

/// One row of a [`SlotCols`] (or an immediate broadcast to row shape).
#[derive(Clone, Copy)]
pub(crate) struct RowRef<'a> {
    pub(crate) bits: &'a [u64],
    pub(crate) floats: u64,
}

impl RowRef<'_> {
    #[inline]
    pub(crate) fn get(self, s: usize) -> Value {
        decode(self.bits[s], self.floats >> s & 1 != 0)
    }
}

/// An operand resolved once per issue: an immediate as `(payload, float
/// word)`, or a register as a row — first its offset `reg * width` from
/// the row of a frame's register 0, then ([`Src::at`]) the row itself.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    Imm(u64, u64),
    Row(usize),
}

impl Src {
    #[inline(always)]
    pub(crate) fn of(op: Operand, width: usize) -> Src {
        match op {
            Operand::Reg(r) => Src::Row(r.index() * width),
            Operand::Imm(v) => {
                let (bits, float) = encode(v);
                Src::Imm(bits, if float { u64::MAX } else { 0 })
            }
        }
    }

    /// The operand of the lane (or span starting at the lane) whose
    /// frame has register 0 at row `at`.
    #[inline(always)]
    pub(crate) fn at(self, at: usize) -> Src {
        match self {
            Src::Row(off) => Src::Row(at + off),
            imm => imm,
        }
    }

    /// Fills `buf` with an immediate's payload, for [`Src::row`].
    #[inline]
    pub(crate) fn broadcast(self, buf: &mut [u64]) {
        if let Src::Imm(bits, _) = self {
            buf.fill(bits);
        }
    }

    /// The operand as a row: the register's, in place, or an immediate's
    /// broadcast `imm`.
    #[inline(always)]
    pub(crate) fn row<'a>(self, cols: &'a SlotCols, imm: &'a [u64]) -> RowRef<'a> {
        match self {
            Src::Imm(_, floats) => RowRef { bits: imm, floats },
            Src::Row(r) => cols.row(r),
        }
    }

    /// How the live slots of the operand's `n` adjacent rows are typed.
    #[inline(always)]
    pub(crate) fn class(self, floats: &[u64], n: usize, live: u64) -> Class {
        let (any, all) = match self {
            Src::Imm(_, f) => (f, f),
            Src::Row(r) => {
                floats[r..r + n].iter().fold((0, u64::MAX), |(any, all), f| (any | f, all & f))
            }
        };
        // Int where no row has a live float, float where every row has
        // only live floats; the two words agree for a single row.
        match class(any, live) {
            Class::Int => Class::Int,
            _ if all & live == live => Class::Float,
            _ => Class::Mixed,
        }
    }

    /// The operand's `i`-th row for cell-by-cell reads: where its payload
    /// starts (`None` for an immediate), the immediate's payload, and the
    /// float word.
    #[inline(always)]
    pub(crate) fn lane(self, cols: &SlotCols, i: usize) -> (Option<usize>, u64, u64) {
        match self {
            Src::Imm(bits, floats) => (None, bits, floats),
            Src::Row(r) => (Some((r + i) * cols.ns), 0, cols.floats[r + i]),
        }
    }

    /// The operand's float word (of its row, when a register).
    #[inline(always)]
    pub(crate) fn floats(self, cols: &SlotCols) -> u64 {
        match self {
            Src::Imm(_, floats) => floats,
            Src::Row(r) => cols.floats[r],
        }
    }

    /// Slot `s` of the operand (resolved to a row).
    #[inline(always)]
    pub(crate) fn get(self, cols: &SlotCols, s: usize) -> Value {
        match self {
            Src::Imm(bits, floats) => decode(bits, floats != 0),
            Src::Row(r) => cols.get(r, s),
        }
    }

    /// Slots of `live` where the operand (resolved to a row) is truthy.
    #[inline]
    pub(crate) fn truthy(self, cols: &SlotCols, live: u64) -> u64 {
        match self {
            Src::Imm(bits, floats) if decode(bits, floats != 0).is_truthy() => live,
            Src::Imm(..) => 0,
            Src::Row(r) => truthy(cols.row(r), live),
        }
    }
}

/// Whether `cond`'s instruction is guaranteed not to fault on any slot of
/// `live` in `n` adjacent rows, its operands resolved to their first
/// rows: the float words settle it — a float operand for the bitwise ops,
/// one OR over the rows' words; an integer pair for `div`/`rem` — and
/// only `div`/`rem` then read payloads, scanning the divisor of each
/// row's integer pairs for a zero.
#[inline(always)]
pub(crate) fn fault_free(
    cols: &SlotCols,
    cond: FaultCond,
    a: Src,
    b: Src,
    n: usize,
    live: u64,
) -> bool {
    let any_float = |o: Src| match o {
        Src::Imm(_, floats) => floats,
        Src::Row(r) => cols.floats[r..r + n].iter().fold(0, |m, f| m | f),
    };
    match cond {
        FaultCond::FloatOperand => (any_float(a) | any_float(b)) & live == 0,
        FaultCond::ZeroIntDivisor => (0..n).all(|i| {
            let floats = (a.at(i).floats(cols) | b.at(i).floats(cols)) & live;
            match b.at(i) {
                Src::Imm(bits, _) => bits != 0 || floats == live,
                Src::Row(r) => {
                    let row = &cols.bits[cols.span(r, 1)];
                    lanes(live & !floats).all(|s| row[s] != 0)
                }
            }
        }),
    }
}

/// A value as `(payload bits, is-float)`. Bit-exact: floats go through
/// `to_bits`, never `as`.
#[inline(always)]
pub(crate) fn encode(v: Value) -> (u64, bool) {
    match v {
        Value::I64(x) => (x as u64, false),
        Value::F64(x) => (x.to_bits(), true),
    }
}

/// The inverse of [`encode`].
#[inline(always)]
pub(crate) fn decode(bits: u64, float: bool) -> Value {
    if float {
        Value::F64(f64::from_bits(bits))
    } else {
        Value::I64(bits as i64)
    }
}

/// `live` as one run `lo..hi`, when its set bits are contiguous — a
/// whole cohort, or a sub-cohort of neighbouring seeds. Masked row
/// operations take such a mask as one dense slice operation; any other
/// mask is walked slot by slot, so a fragmented sub-cohort pays for the
/// slots it owns and not per fragment.
#[inline(always)]
pub(crate) fn single_run(live: u64) -> Option<(usize, usize)> {
    let mut runs = mask_runs(live);
    match (runs.next(), runs.next()) {
        (Some(run), None) => Some(run),
        _ => None,
    }
}

/// `dst[s] = src[s]` for every live slot: a lone slot (a one-slot
/// sub-cohort, a single issued lane) as one word, a run as one slice copy.
#[inline(always)]
pub(crate) fn store_live(dst: &mut [u64], src: &[u64], live: u64) {
    if live.is_power_of_two() {
        let s = live.trailing_zeros() as usize;
        dst[s] = src[s];
    } else if let Some((lo, hi)) = single_run(live) {
        dst[lo..hi].copy_from_slice(&src[lo..hi]);
    } else {
        for s in lanes(live) {
            dst[s] = src[s];
        }
    }
}

impl SlotCols {
    /// `rows` rows of `ns` slots, every cell [`Value::default`] (integer
    /// zero: zero bits, clear mask).
    pub(crate) fn new(rows: usize, ns: usize) -> SlotCols {
        SlotCols { ns, bits: vec![0; rows * ns], floats: vec![0; rows] }
    }

    /// One row per value, every slot holding it: a launch's memory image
    /// as columns, built in one pass (each value encoded once).
    pub(crate) fn of_values(values: &[Value], ns: usize) -> SlotCols {
        let all = u64::MAX >> (64 - ns);
        let mut bits = Vec::with_capacity(values.len() * ns);
        let mut floats = Vec::with_capacity(values.len());
        for v in values {
            let (payload, float) = encode(*v);
            bits.resize(bits.len() + ns, payload);
            floats.push(if float { all } else { 0 });
        }
        SlotCols { ns, bits, floats }
    }

    /// The final memory images of `slots` (each slot's value in every
    /// row), in ascending slot order, decoded in one row-major pass.
    pub(crate) fn columns(&self, slots: u64) -> Vec<Vec<Value>> {
        let mut images: Vec<Vec<Value>> =
            lanes(slots).map(|_| Vec::with_capacity(self.rows())).collect();
        for (row, &floats) in self.bits.chunks_exact(self.ns).zip(&self.floats) {
            for (image, s) in images.iter_mut().zip(lanes(slots)) {
                image.push(decode(row[s], floats >> s & 1 != 0));
            }
        }
        images
    }

    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.floats.len()
    }

    /// Grows to at least `rows` rows; never shrinks.
    pub(crate) fn grow(&mut self, rows: usize) {
        if self.floats.len() < rows {
            self.bits.resize(rows * self.ns, 0);
            self.floats.resize(rows, 0);
        }
    }

    /// Whether `live` (a set of this row's slots) is every slot of it.
    #[inline(always)]
    pub(crate) fn whole(&self, live: u64) -> bool {
        live == u64::MAX >> (64 - self.ns)
    }

    /// The payload range of rows `r .. r + n`.
    #[inline(always)]
    pub(crate) fn span(&self, r: usize, n: usize) -> Range<usize> {
        debug_assert!(r + n <= self.floats.len(), "rows {r}+{n} of {}", self.floats.len());
        r * self.ns..(r + n) * self.ns
    }

    #[inline(always)]
    pub(crate) fn row(&self, r: usize) -> RowRef<'_> {
        RowRef { bits: &self.bits[self.span(r, 1)], floats: self.floats[r] }
    }

    #[inline]
    pub(crate) fn get(&self, r: usize, s: usize) -> Value {
        decode(self.bits[r * self.ns + s], self.floats[r] >> s & 1 != 0)
    }

    #[inline]
    pub(crate) fn set(&mut self, r: usize, s: usize, v: Value) {
        let (bits, float) = encode(v);
        self.bits[r * self.ns + s] = bits;
        self.floats[r] = self.floats[r] & !(1 << s) | u64::from(float) << s;
    }

    /// Commits `src` to row `r` under `live`: the payload of the live
    /// slots plus a masked merge of the float word.
    #[inline(always)]
    pub(crate) fn put(&mut self, r: usize, src: RowRef<'_>, live: u64) {
        let span = self.span(r, 1);
        store_live(&mut self.bits[span], src.bits, live);
        self.floats[r] = self.floats[r] & !live | src.floats & live;
    }

    /// Rows `dst .. dst + n` ← `src` of these same columns (resolved to
    /// rows), under `live`. Source and destination are distinct registers
    /// or windows of the same lanes, so they are equal or disjoint.
    #[inline]
    pub(crate) fn assign_rows(&mut self, dst: usize, n: usize, src: Src, live: u64) {
        let from = match src {
            Src::Imm(bits, f) => return self.fill_rows_with(dst, n, f != 0, live, |_, _| bits),
            Src::Row(from) if from == dst => return,
            Src::Row(from) => from,
        };
        if self.whole(live) {
            let span = self.span(from, n);
            self.bits.copy_within(span, dst * self.ns);
            return self.floats.copy_within(from..from + n, dst);
        }
        for i in 0..n {
            let spans = [self.span(dst + i, 1), self.span(from + i, 1)];
            let [d, s] = self.bits.get_disjoint_mut(spans).expect("distinct rows");
            store_live(d, s, live);
            self.floats[dst + i] = self.floats[dst + i] & !live | self.floats[from + i] & live;
        }
    }

    /// Sets the live slots of rows `r .. r + n` to the payloads
    /// `bits(row - r, slot)`, all of one type.
    #[inline]
    pub(crate) fn fill_rows_with(
        &mut self,
        r: usize,
        n: usize,
        float: bool,
        live: u64,
        mut bits: impl FnMut(usize, usize) -> u64,
    ) {
        let (ns, span) = (self.ns, self.span(r, n));
        let rows = self.bits[span].chunks_exact_mut(ns).zip(&mut self.floats[r..]);
        for (i, (dst, f)) in rows.enumerate() {
            if let Some((lo, hi)) = single_run(live) {
                for (j, d) in dst[lo..hi].iter_mut().enumerate() {
                    *d = bits(i, lo + j);
                }
            } else {
                for s in lanes(live) {
                    dst[s] = bits(i, s);
                }
            }
            *f = if float { *f | live } else { *f & !live };
        }
    }

    /// Sets rows `r .. r + n` to `v` under `live`.
    #[inline]
    pub(crate) fn fill_rows(&mut self, r: usize, n: usize, v: Value, live: u64) {
        let (bits, float) = encode(v);
        self.fill_rows_with(r, n, float, live, |_, _| bits);
    }
}

/// One lane's memory access with every live slot at row `m` of `mem`: a
/// load commits that row to register row `reg`, a store commits `reg`
/// (a register row, or an immediate broadcast in `imm`) to it. Forced
/// inline, like the other per-lane memory helpers: out of line, each
/// costs a call per lane, more than the move itself.
#[inline(always)]
pub(crate) fn move_row(
    regs: &mut SlotCols,
    mem: &mut SlotCols,
    load: bool,
    reg: Src,
    m: usize,
    imm: &[u64],
    live: u64,
) {
    match reg {
        Src::Row(dst) if load => regs.put(dst, mem.row(m), live),
        _ => mem.put(m, reg.row(regs, imm), live),
    }
}

/// A memory instruction's data direction.
#[derive(Clone, Copy)]
pub(crate) enum MemOp {
    Load(Reg),
    Store(Operand),
}

impl MemOp {
    pub(crate) fn is_load(self) -> bool {
        matches!(self, MemOp::Load(_))
    }

    /// The access's register side, as an offset from a frame's register 0
    /// ([`Src::of`]): a load's destination, a store's value.
    pub(crate) fn reg(self, width: usize) -> Src {
        match self {
            MemOp::Load(dst) => Src::Row(dst.index() * width),
            MemOp::Store(v) => Src::of(v, width),
        }
    }
}

/// The cell address `a` names in a memory of `len` cells; `None` when it
/// is out of range, and the access faults.
#[inline(always)]
pub(crate) fn cell(a: i64, len: usize) -> Option<usize> {
    usize::try_from(a).ok().filter(|&a| a < len)
}

/// One cell of a load or store: a load copies memory cell `(m, ms)`
/// (row, slot) to register cell `(reg, rs)`, a store the register side
/// (a register row, or an immediate) to the memory cell.
#[inline(always)]
pub(crate) fn move_cell(
    regs: &mut SlotCols,
    (reg, rs): (Src, usize),
    mem: &mut SlotCols,
    (m, ms): (usize, usize),
    load: bool,
) {
    match reg {
        Src::Row(dst) if load => regs.set(dst, rs, mem.get(m, ms)),
        _ => mem.set(m, ms, reg.get(regs, rs)),
    }
}

/// One cell of `atomic_add`: memory cell `(m, ms)` ← `add(old, value)`,
/// then register `dst` ← `old`, both at register slot `rs`. A faulting
/// add writes neither and returns the kernel's message.
#[inline(always)]
pub(crate) fn add_cell(
    regs: &mut SlotCols,
    (dst, value, rs): (usize, Src, usize),
    mem: &mut SlotCols,
    (m, ms): (usize, usize),
    add: impl Fn(Value, Value) -> Result<Value, String>,
) -> Result<(), String> {
    let old = mem.get(m, ms);
    mem.set(m, ms, add(old, value.get(regs, rs))?);
    regs.set(dst, rs, old);
    Ok(())
}

/// The one in-range integer address every live slot of `row` holds, if
/// there is one — the precondition of the row-copy memory paths.
#[inline(always)]
pub(crate) fn uniform_addr(row: RowRef<'_>, live: u64, len: usize) -> Option<usize> {
    if live == 0 {
        return None;
    }
    let a0 = row.bits[live.trailing_zeros() as usize];
    let differs = |d, &x| d | (x ^ a0);
    let diff = match single_run(live) {
        Some((lo, hi)) => row.bits[lo..hi].iter().fold(0, differs),
        None => lanes(live).map(|s| &row.bits[s]).fold(0, differs),
    };
    cell(a0 as i64, len).filter(|_| diff | (row.floats & live) == 0)
}

/// How the live slots of a row (or of a span's rows) are typed.
#[derive(Clone, Copy)]
pub(crate) enum Class {
    Int,
    Float,
    Mixed,
}

/// Classifies a float-mask word over the live slots only: a dead slot's
/// stale type must not demote a row to the mixed loop.
#[inline]
pub(crate) fn class(floats: u64, live: u64) -> Class {
    match floats & live {
        0 => Class::Int,
        m if m == live => Class::Float,
        _ => Class::Mixed,
    }
}

// Operand tags of the typed loops: a loop-constant type, or the row's
// float mask consulted per slot.
pub(crate) const INT: u8 = 0;
pub(crate) const FLOAT: u8 = 1;
pub(crate) const PER_SLOT: u8 = 2;

/// Slot `s`'s payload under tag `T`. With `INT`/`FLOAT` the `Value`
/// carries a loop-constant tag, so a kernel from [`crate::alu`] inlines
/// to its bare `i64`/`f64` operation; `PER_SLOT` reads the row's mask.
#[inline(always)]
pub(crate) fn tagged<const T: u8>(bits: u64, floats: u64, s: usize) -> Value {
    decode(bits, if T == PER_SLOT { floats >> s & 1 != 0 } else { T == FLOAT })
}

/// One typed loop over the live slots of two rows read in place:
/// `f(slot, a, b)` under the tags `A`/`B`.
#[inline(always)]
pub(crate) fn zip_rows<const A: u8, const B: u8>(
    a: RowRef<'_>,
    b: RowRef<'_>,
    live: u64,
    mut f: impl FnMut(usize, Value, Value),
) {
    let mut cell =
        |s: usize, x: u64, y: u64| f(s, tagged::<A>(x, a.floats, s), tagged::<B>(y, b.floats, s));
    if let Some((lo, hi)) = single_run(live) {
        for (i, (&x, &y)) in a.bits[lo..hi].iter().zip(&b.bits[lo..hi]).enumerate() {
            cell(lo + i, x, y);
        }
    } else {
        for s in lanes(live) {
            cell(s, a.bits[s], b.bits[s]);
        }
    }
}

/// `$f::<A, B>(args)` under the operand tags two classes allow: one of
/// the four dense instantiations when both operands are uniformly typed
/// over the live slots, the per-slot one for a mixed operand (a `sel`
/// between an int and a float on a seed-dependent predicate, a load of
/// cells whose type differs by seed). Evaluates to the call's result and
/// whether a dense instantiation ran.
macro_rules! typed {
    ($a:expr, $b:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match ($a, $b) {
            (Class::Int, Class::Int) => ($f::<INT, INT>($($arg),*), true),
            (Class::Int, Class::Float) => ($f::<INT, FLOAT>($($arg),*), true),
            (Class::Float, Class::Int) => ($f::<FLOAT, INT>($($arg),*), true),
            (Class::Float, Class::Float) => ($f::<FLOAT, FLOAT>($($arg),*), true),
            _ => ($f::<PER_SLOT, PER_SLOT>($($arg),*), false),
        }
    };
}

/// Slots of `live` where `row` is truthy. Type-aware through
/// [`Value::is_truthy`]: `-0.0` is false though its bits are not zero.
#[inline]
pub(crate) fn truthy(row: RowRef<'_>, live: u64) -> u64 {
    match (single_run(live), class(row.floats, live)) {
        (None, _) | (_, Class::Mixed) => {
            lanes(live).fold(0, |t, s| t | u64::from(row.get(s).is_truthy()) << s)
        }
        // One run of one type: the mask is shifted in from the top slot
        // down, which needs no per-slot shift count.
        (Some((lo, hi)), c) => {
            let bit = |x: u64| u64::from(decode(x, matches!(c, Class::Float)).is_truthy());
            row.bits[lo..hi].iter().rev().fold(0, |t, &x| t << 1 | bit(x)) << lo
        }
    }
}

pub(crate) use typed;

#[cfg(test)]
mod tests {
    use super::*;

    /// A launch's memory image as columns: every slot of a row holds its
    /// value bit for bit (NaN, `-0.0`, `i64::MIN`), at 1, 5 and 64 slots.
    #[test]
    fn of_values_broadcasts_each_value_bit_exactly() {
        let values = [Value::I64(i64::MIN), Value::F64(-0.0), Value::F64(f64::NAN), Value::I64(7)];
        for ns in [1, 5, 64] {
            let cols = SlotCols::of_values(&values, ns);
            assert_eq!(cols.rows(), values.len());
            for (r, v) in values.iter().enumerate() {
                for s in 0..ns {
                    assert_eq!(encode(cols.get(r, s)), encode(*v), "row {r} slot {s} of {ns}");
                }
            }
        }
        assert_eq!(SlotCols::of_values(&[], 3).rows(), 0);
    }

    /// The dense form of [`truthy`] (one run of one type, shifted in from
    /// the top) agrees with [`Value::is_truthy`] slot by slot: `-0.0` and
    /// `0` are false, NaN and `i64::MIN` (the bits of `-0.0`) are true.
    #[test]
    fn truthy_matches_is_truthy_on_every_mask_shape() {
        let sign = 1u64 << 63;
        let bits = [0, sign, f64::NAN.to_bits(), 1, 0, 2.5f64.to_bits(), sign, 0];
        for floats in [0u64, 0xff, 0b0110_0101] {
            let row = RowRef { bits: &bits, floats };
            for live in [0xffu64, 0b0011_1100, 0b1010_0101, 1, 0] {
                let want = lanes(live).fold(0, |t, s| t | u64::from(row.get(s).is_truthy()) << s);
                assert_eq!(truthy(row, live), want, "floats {floats:#b} live {live:#b}");
            }
        }
        let as_ints = truthy(RowRef { bits: &bits, floats: 0 }, 0xff);
        let as_floats = truthy(RowRef { bits: &bits, floats: 0xff }, 0xff);
        assert_eq!((as_ints, as_floats), (0b0110_1110, 0b0010_1100));
    }
}
