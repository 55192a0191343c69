//! The admission gate: at most `workers` evals run and at most `depth`
//! wait for a running slot.
//!
//! A connection thread that read `POST /v1/eval` calls [`Gate::admit`]
//! and, once admitted, runs the eval itself; the returned [`Slot`] frees
//! its place when dropped. A request that finds every slot taken waits
//! if fewer than `depth` already do, and is refused with [`Refused::Full`]
//! otherwise — the service sheds load at the door (`503 Retry-After`)
//! instead of buffering unboundedly. A waiter whose deadline passes
//! leaves with [`Refused::Expired`]. [`Gate::close`] refuses newcomers
//! while every admitted waiter still runs: accepted work is finished,
//! nothing new is admitted.
//!
//! The gate also holds the deadline and [`CancelToken`] of each running
//! eval, so whoever calls [`Gate::cancel_expired`] (the accept loop, on
//! every wake) stops the evals past their deadline without a thread of
//! its own.

use simt_sim::CancelToken;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct State {
    /// `(ticket, deadline, token)` of every running eval.
    running: Vec<(u64, Instant, CancelToken)>,
    /// Requests waiting for a running slot.
    waiting: usize,
    /// High-water mark of `waiting` over the gate's lifetime.
    peak: usize,
    closed: bool,
    next_ticket: u64,
}

/// Bounds the evals that run and the requests that wait for them.
pub struct Gate {
    state: Mutex<State>,
    /// Signalled when a running slot frees.
    freed: Condvar,
    workers: usize,
    depth: usize,
}

/// Why [`Gate::admit`] turned a request away.
#[derive(Debug, PartialEq, Eq)]
pub enum Refused {
    /// Every slot runs and `depth` requests already wait (backpressure).
    Full,
    /// The gate is closed (shutdown); no new work is admitted.
    Closed,
    /// The request's deadline passed while it waited.
    Expired,
}

/// A running slot, held for as long as its eval runs.
pub struct Slot<'a> {
    gate: &'a Gate,
    ticket: u64,
}

impl Gate {
    /// A gate running at most `workers` evals with at most `depth`
    /// waiting (each clamped to ≥ 1).
    pub fn new(workers: usize, depth: usize) -> Self {
        let state =
            State { running: Vec::new(), waiting: 0, peak: 0, closed: false, next_ticket: 0 };
        Self {
            state: Mutex::new(state),
            freed: Condvar::new(),
            workers: workers.max(1),
            depth: depth.max(1),
        }
    }

    // Every update leaves the state valid, so a poisoned lock is usable.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn has_room(&self, st: &State) -> bool {
        st.running.len() < self.workers
    }

    /// The bound on waiting requests.
    pub fn capacity(&self) -> usize {
        self.depth
    }

    /// Requests waiting for a slot right now.
    pub fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// The most requests that ever waited at once (proves the bound held).
    pub fn peak(&self) -> usize {
        self.lock().peak
    }

    /// Admitted requests not yet finished: running plus waiting.
    pub fn in_flight(&self) -> usize {
        let st = self.lock();
        st.running.len() + st.waiting
    }

    /// Takes a running slot for an eval due by `deadline`, waiting for
    /// one if there is room in the line; `token` is cancelled if the eval
    /// still runs when [`Gate::cancel_expired`] passes its deadline.
    pub fn admit(&self, deadline: Instant, token: &CancelToken) -> Result<Slot<'_>, Refused> {
        let mut st = self.lock();
        if st.closed {
            return Err(Refused::Closed);
        }
        if !self.has_room(&st) {
            if st.waiting >= self.depth {
                return Err(Refused::Full);
            }
            st.waiting += 1;
            st.peak = st.peak.max(st.waiting);
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    st.waiting -= 1;
                    // A wake-up meant for a waiter goes to the next one.
                    if self.has_room(&st) {
                        self.freed.notify_one();
                    }
                    return Err(Refused::Expired);
                }
                if self.has_room(&st) {
                    break;
                }
                st = self.freed.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0;
            }
            st.waiting -= 1;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.running.push((ticket, deadline, token.clone()));
        Ok(Slot { gate: self, ticket })
    }

    /// Cancels every running eval whose deadline is at or before `now`.
    pub fn cancel_expired(&self, now: Instant) {
        for (_, deadline, token) in &self.lock().running {
            if *deadline <= now {
                token.cancel();
            }
        }
    }

    /// Refuses every later [`Gate::admit`]; admitted waiters still run.
    /// Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        if let Some(i) = st.running.iter().position(|(t, ..)| *t == self.ticket) {
            st.running.swap_remove(i);
        }
        drop(st);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn in_secs(s: u64) -> Instant {
        Instant::now() + Duration::from_secs(s)
    }

    /// Sleeps until `cond` holds, failing after a few seconds.
    fn until(cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn running_never_exceeds_workers() {
        let gate = Gate::new(2, 8);
        let token = CancelToken::new();
        let held =
            [gate.admit(in_secs(60), &token).unwrap(), gate.admit(in_secs(60), &token).unwrap()];
        let soon = Instant::now() + Duration::from_millis(20);
        assert_eq!(gate.admit(soon, &token).err(), Some(Refused::Expired), "a third eval waited");
        drop(held);

        let (running, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    let _slot = gate.admit(in_secs(60), &token).expect("room to wait");
                    most.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(most.load(Ordering::SeqCst) <= 2, "two slots, six requests");
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn waiting_never_exceeds_depth() {
        let gate = Gate::new(1, 2);
        let token = CancelToken::new();
        let held = gate.admit(in_secs(60), &token).expect("a free slot");
        std::thread::scope(|s| {
            let waiters: Vec<_> =
                (0..2).map(|_| s.spawn(|| gate.admit(in_secs(60), &token).map(drop))).collect();
            until(|| gate.waiting() == 2);
            assert_eq!(gate.admit(in_secs(60), &token).err(), Some(Refused::Full));
            assert_eq!(gate.in_flight(), 3);
            drop(held);
            for w in waiters {
                assert_eq!(w.join().unwrap(), Ok(()));
            }
        });
        assert_eq!((gate.peak(), gate.capacity(), gate.waiting()), (2, 2, 0));
    }

    #[test]
    fn a_closed_gate_refuses_newcomers_but_runs_its_waiters() {
        let gate = Gate::new(1, 4);
        let token = CancelToken::new();
        let held = gate.admit(in_secs(60), &token).expect("a free slot");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.admit(in_secs(60), &token).map(drop));
            until(|| gate.waiting() == 1);
            gate.close();
            assert_eq!(gate.admit(in_secs(60), &token).err(), Some(Refused::Closed));
            drop(held);
            assert_eq!(waiter.join().unwrap(), Ok(()), "an admitted waiter still runs");
        });
        assert_eq!(gate.admit(in_secs(60), &token).err(), Some(Refused::Closed));
    }

    #[test]
    fn a_waiter_past_its_deadline_expires_and_the_slot_stays_usable() {
        let gate = Gate::new(1, 4);
        let (slow, quick) = (CancelToken::new(), CancelToken::new());
        let held = gate.admit(Instant::now() + Duration::from_millis(30), &slow).unwrap();
        let t0 = Instant::now();
        let refused = gate.admit(t0 + Duration::from_millis(30), &quick).err();
        assert_eq!(refused, Some(Refused::Expired));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(gate.waiting(), 0);

        // The running eval's deadline has passed too: the tick cancels it
        // and leaves the waiter's token alone.
        gate.cancel_expired(Instant::now());
        assert!(slow.is_cancelled() && !quick.is_cancelled());
        drop(held);
        assert!(gate.admit(in_secs(60), &quick).is_ok(), "the slot came back");
    }
}
