//! The timed event queue.

use crate::sanitizer;
use crate::snap::{snap_enum, snap_newtype, Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, TryReserveError};

/// How the queue orders entries scheduled for the same instant *within one
/// semantic class* (see [`EventQueue::set_classifier`]). Cross-class order
/// is always fixed by the class rank; the tie-break policy only permutes
/// entries the simulation claims are order-insensitive. Running the same
/// scenario under several policies and diffing report digests is the
/// repo's determinism-race detector (`race_detector` bench bin): any
/// digest divergence means a handler silently depended on same-instant
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Insertion order (the default, and the historical behaviour).
    Fifo,
    /// Reverse insertion order — the cheapest adversarial permutation.
    Lifo,
    /// A deterministic pseudo-random permutation keyed by the given seed
    /// (mix of seed and insertion sequence — never wall-clock).
    SeededShuffle(u64),
}

impl TieBreak {
    /// The heap ordering key for insertion sequence `seq` under this
    /// policy. Lower keys pop first among same-time, same-class entries.
    fn key(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => u64::MAX - seq,
            TieBreak::SeededShuffle(seed) => splitmix64(seed ^ seq),
        }
    }

    /// Parses an environment override: `fifo`, `lifo`, `shuffle` (seed 1)
    /// or `shuffle:<seed>`. Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<TieBreak> {
        match s {
            "fifo" => Some(TieBreak::Fifo),
            "lifo" => Some(TieBreak::Lifo),
            "shuffle" => Some(TieBreak::SeededShuffle(1)),
            _ => s
                .strip_prefix("shuffle:")
                .and_then(|n| n.parse().ok())
                .map(TieBreak::SeededShuffle),
        }
    }

    /// Folds the scenario seed into a shuffle so the permutation is drawn
    /// from the run's own randomness (`Fifo`/`Lifo` are unaffected).
    #[must_use]
    pub fn derive(self, scenario_seed: u64) -> TieBreak {
        match self {
            TieBreak::SeededShuffle(s) => {
                TieBreak::SeededShuffle(splitmix64(s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ scenario_seed))
            }
            other => other,
        }
    }
}

snap_enum!(TieBreak, "TieBreak tag" {
    0 => Fifo,
    1 => Lifo,
    2 => SeededShuffle(seed),
});

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An entry in the queue: ordered by time, then semantic class, then the
/// tie-break key (insertion sequence under FIFO), with the raw sequence as
/// the final total-order anchor so shuffle-key collisions stay
/// deterministic.
struct Entry<E> {
    time: SimTime,
    class: u8,
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A handle to a cancellable entry, returned by
/// [`EventQueue::schedule_cancellable`]. The token is generation-stamped:
/// it wraps the entry's unique insertion sequence number, so a stale token
/// (from an entry that already fired) can never alias a newer one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CancelToken(u64);

snap_newtype!(CancelToken);

/// A priority queue of `(SimTime, E)` pairs with deterministic FIFO
/// tie-breaking for events scheduled at the same instant.
///
/// Entries scheduled through [`Self::schedule_cancellable`] can later be
/// revoked with [`Self::cancel`]; dead entries are skipped by [`Self::pop`]
/// and never surface through [`Self::peek_time`] (the queue eagerly purges
/// a cancelled head so the reported horizon is always a live event).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    cancelled: BTreeSet<u64>,
    tiebreak: TieBreak,
    classify: fn(&E) -> u8,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with FIFO tie-breaking and a single event
    /// class.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: BTreeSet::new(),
            tiebreak: TieBreak::Fifo,
            classify: |_| 0,
        }
    }

    /// Creates an empty queue with heap capacity for `capacity` pending
    /// entries pre-reserved. Fleet-scale scenarios size this from their
    /// expected concurrent event count so the heap never regrows mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..Self::new()
        }
    }

    /// Reserves heap capacity for at least `additional` more pending
    /// entries.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Fallible [`Self::reserve`]: an unrepresentable or unallocatable
    /// capacity is an error instead of a panic or abort. Restore paths
    /// use it, since their capacity comes off the wire.
    pub fn try_reserve(&mut self, additional: usize) -> Result<(), TryReserveError> {
        self.heap.try_reserve(additional)
    }

    /// The heap's current allocated capacity (pending + free slots).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Sets the same-instant, same-class ordering policy. Must be called
    /// before any events are scheduled (already-pushed entries keep the
    /// keys they were assigned at insertion).
    pub fn set_tiebreak(&mut self, tiebreak: TieBreak) {
        debug_assert!(
            self.heap.is_empty(),
            "tie-break policy must be set before scheduling"
        );
        self.tiebreak = tiebreak;
    }

    /// The active same-instant ordering policy.
    pub fn tiebreak(&self) -> TieBreak {
        self.tiebreak
    }

    /// Sets the semantic event classifier. Same-instant entries always pop
    /// in ascending class order regardless of the tie-break policy; the
    /// policy only permutes within a class. Simulations use this to pin
    /// the cross-kind orderings that are part of their semantics (e.g.
    /// "metric samples observe state before same-instant completions land")
    /// while leaving genuinely commutative orderings free for the race
    /// detector to perturb. Must be called before any events are scheduled.
    pub fn set_classifier(&mut self, classify: fn(&E) -> u8) {
        debug_assert!(
            self.heap.is_empty(),
            "classifier must be set before scheduling"
        );
        self.classify = classify;
    }

    /// The single insertion point: assigns the next sequence number and
    /// the tie-break key, pushes the entry, and returns the sequence. All
    /// scheduling paths (`schedule`, `schedule_batch`,
    /// `schedule_cancellable`) funnel through here so the tie-break policy
    /// lives in exactly one place.
    fn push_entry(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            class: (self.classify)(&event),
            key: self.tiebreak.key(seq),
            seq,
            event,
        });
        seq
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.push_entry(at, event);
    }

    /// Schedules `event` to fire at absolute time `at` and returns a token
    /// that can later revoke it via [`Self::cancel`]. The entry otherwise
    /// behaves exactly like one from [`Self::schedule`] (same tie-break
    /// policy, same sequence space).
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> CancelToken {
        CancelToken(self.push_entry(at, event))
    }

    /// Revokes the entry behind `token`. Returns `true` if the entry was
    /// still pending and is now dead, `false` if it had already fired or
    /// been cancelled. Must only be called with tokens whose entry has not
    /// been popped (the caller clears its token when the event fires);
    /// cancelling an already-delivered token is detected and ignored.
    pub fn cancel(&mut self, token: CancelToken) -> bool {
        // Tokens for entries that already popped have seq < next_seq too, so
        // membership in the heap is what decides. We cannot look inside the
        // heap cheaply; instead rely on the caller contract and keep the
        // cancelled set consistent by purging on pop. A double-cancel is
        // caught by the set insert.
        if sanitizer::active() {
            self.sanitize_cancel(token);
        }
        if token.0 >= self.next_seq || !self.cancelled.insert(token.0) {
            return false;
        }
        // Eagerly drop a dead head so `peek_time` never reports a cancelled
        // entry's timestamp (which would make drivers overrun deadlines).
        self.purge_dead_head();
        true
    }

    /// Shadow-check for [`Self::cancel`]: a token must come from this
    /// queue's own sequence space (generation validity) and, if it is not
    /// a detected double-cancel, its entry must still be live in the heap.
    /// O(n) heap scan — only ever runs under `FASTG_SANITIZE=1`.
    #[cfg(debug_assertions)]
    fn sanitize_cancel(&self, token: CancelToken) {
        sanitizer::check(token.0 < self.next_seq, "cancel-token-generation", || {
            format!(
                "token seq {} is from the future (next_seq {}): token from another queue?",
                token.0, self.next_seq
            )
        });
        if token.0 < self.next_seq && !self.cancelled.contains(&token.0) {
            sanitizer::check(
                self.heap.iter().any(|e| e.seq == token.0),
                "cancel-token-generation",
                || {
                    format!(
                        "token seq {} names an entry that already fired — stale token",
                        token.0
                    )
                },
            );
        }
    }

    /// Release builds compile the cancel shadow-check out entirely.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn sanitize_cancel(&self, _token: CancelToken) {}

    /// Schedules a batch of `(time, event)` pairs, reserving exact heap
    /// capacity up front (the iterator must be [`ExactSizeIterator`]) so a
    /// multi-kernel burst pays one allocation check instead of one per
    /// push. Sequence numbers are assigned in iteration order, so
    /// same-instant batch entries pop in the same order as individual
    /// [`Self::schedule`] calls would under the active tie-break policy.
    pub fn schedule_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
        I::IntoIter: ExactSizeIterator,
    {
        let iter = events.into_iter();
        self.heap.reserve(iter.len());
        for (at, event) in iter {
            self.push_entry(at, event);
        }
    }

    /// Schedules `event` to fire `delay` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimTime, event: E) {
        self.schedule(now + delay, event);
    }

    /// Removes and returns the earliest live event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(e) = self.heap.pop() {
            if self.cancelled.remove(&e.seq) {
                continue;
            }
            // An entry cancelled while buried in the heap may have risen
            // to the head just now; keep the head-is-live invariant that
            // `peek_time` relies on.
            self.purge_dead_head();
            return Some((e.time, e.event));
        }
        None
    }

    /// Removes and returns the earliest live event if its timestamp is at
    /// or before `deadline` (events at exactly `deadline` are delivered).
    /// A single heap operation replaces the peek-then-pop dance drivers
    /// would otherwise do.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the earliest live pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        debug_assert!(
            self.heap
                .peek()
                .map_or(true, |e| !self.cancelled.contains(&e.seq)),
            "queue head must never be a cancelled entry"
        );
        self.heap.peek().map(|e| e.time)
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }

    /// Serializes the queue's full ordering state: tie-break policy, the
    /// sequence counter, and every *live* entry with its stored
    /// time/class/key/seq verbatim (cancelled entries are dropped — their
    /// tokens are dead and nothing restores them). Entries are written in
    /// canonical pop order so the encoding is independent of the heap's
    /// internal layout. The classifier is a function pointer and is not
    /// encoded; [`Self::restore_state`] keeps whichever classifier the
    /// restored queue was constructed with.
    pub fn snap_state(&self, w: &mut SnapWriter)
    where
        E: Snap,
    {
        self.tiebreak.snap(w);
        w.u64(self.next_seq);
        let mut live: Vec<&Entry<E>> = self
            .heap
            .iter()
            .filter(|e| !self.cancelled.contains(&e.seq))
            .collect();
        live.sort_by(|a, b| {
            (a.time, a.class, a.key, a.seq).cmp(&(b.time, b.class, b.key, b.seq))
        });
        w.len_prefix(live.len());
        for e in live {
            let Entry {
                time,
                class,
                key,
                seq,
                event,
            } = e;
            time.snap(w);
            class.snap(w);
            key.snap(w);
            seq.snap(w);
            event.snap(w);
        }
    }

    /// Restores state captured by [`Self::snap_state`], replacing all
    /// pending entries. Stored tie-break keys are reused verbatim (not
    /// recomputed), so the restored queue pops in exactly the order the
    /// original would have; the sequence counter resumes where it left
    /// off, so future scheduling continues the same sequence space and
    /// outstanding [`CancelToken`]s stay valid.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>
    where
        E: Snap,
    {
        self.tiebreak = TieBreak::unsnap(r)?;
        self.next_seq = r.u64()?;
        self.heap.clear();
        self.cancelled.clear();
        let n = r.len_prefix()?;
        self.heap.reserve(n.min(r.remaining()));
        for _ in 0..n {
            let time = SimTime::unsnap(r)?;
            let class = r.u8()?;
            let key = r.u64()?;
            let seq = r.u64()?;
            if seq >= self.next_seq {
                return Err(SnapError::new("queue entry seq"));
            }
            let event = E::unsnap(r)?;
            self.heap.push(Entry {
                time,
                class,
                key,
                seq,
                event,
            });
        }
        Ok(())
    }

    /// Pops cancelled entries off the head so the next live event (or
    /// nothing) is on top.
    fn purge_dead_head(&mut self) {
        while let Some(e) = self.heap.peek() {
            if !self.cancelled.contains(&e.seq) {
                break;
            }
            let seq = e.seq;
            self.heap.pop();
            self.cancelled.remove(&seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn schedule_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_micros(100), SimTime::from_micros(50), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(150)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let events = [
            (SimTime::from_micros(30), "c"),
            (SimTime::from_micros(10), "a"),
            (SimTime::from_micros(10), "b"),
            (SimTime::from_micros(20), "x"),
        ];
        for &(t, e) in &events {
            a.schedule(t, e);
        }
        b.schedule_batch(events.iter().copied());
        for _ in 0..events.len() {
            assert_eq!(a.pop(), b.pop());
        }
        assert_eq!(a.pop(), None);
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn cancelled_entry_is_skipped() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "live");
        let tok = q.schedule_cancellable(SimTime::from_micros(20), "dead");
        q.schedule(SimTime::from_micros(30), "later");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "live")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_head_updates_peek_time() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(SimTime::from_micros(10), "head");
        q.schedule(SimTime::from_micros(40), "next");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
        assert!(q.cancel(tok));
        // The dead head must not pin the horizon at t=10.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(40)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "x");
        let tok = q.schedule_cancellable(SimTime::from_micros(20), "dead");
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_before_respects_deadline_inclusively() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        q.schedule(SimTime::from_micros(30), "c");
        assert_eq!(
            q.pop_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(10), "a"))
        );
        // Exactly at the deadline: delivered.
        assert_eq!(
            q.pop_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(20), "b"))
        );
        // Strictly after: held back.
        assert_eq!(q.pop_before(SimTime::from_micros(20)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lifo_reverses_same_instant_order() {
        let mut q = EventQueue::new();
        q.set_tiebreak(TieBreak::Lifo);
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        // Later time still pops later regardless of policy.
        q.schedule(SimTime::from_micros(6), 99);
        for i in (0..10).rev() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), Some((SimTime::from_micros(6), 99)));
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let drain = |seed: u64| {
            let mut q = EventQueue::new();
            q.set_tiebreak(TieBreak::SeededShuffle(seed));
            let t = SimTime::from_micros(5);
            for i in 0..32 {
                q.schedule(t, i);
            }
            let mut order = Vec::new();
            while let Some((_, i)) = q.pop() {
                order.push(i);
            }
            order
        };
        let a = drain(7);
        assert_eq!(a, drain(7), "same seed must replay the same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "must be a permutation");
        assert_ne!(a, drain(8), "different seeds should permute differently");
        assert_ne!(a, (0..32).collect::<Vec<_>>(), "should not be identity");
    }

    #[test]
    fn class_order_beats_tiebreak_policy() {
        // Odd events are class 0, even events class 1: all odds pop first
        // at a shared instant, even under LIFO within each class.
        let mut q = EventQueue::new();
        q.set_classifier(|e: &i32| if e % 2 == 0 { 1 } else { 0 });
        q.set_tiebreak(TieBreak::Lifo);
        let t = SimTime::from_micros(5);
        for i in 0..6 {
            q.schedule(t, i);
        }
        let mut order = Vec::new();
        while let Some((_, i)) = q.pop() {
            order.push(i);
        }
        assert_eq!(order, vec![5, 3, 1, 4, 2, 0]);
    }

    #[test]
    fn tiebreak_parse_round_trips() {
        assert_eq!(TieBreak::parse("fifo"), Some(TieBreak::Fifo));
        assert_eq!(TieBreak::parse("lifo"), Some(TieBreak::Lifo));
        assert_eq!(TieBreak::parse("shuffle"), Some(TieBreak::SeededShuffle(1)));
        assert_eq!(
            TieBreak::parse("shuffle:42"),
            Some(TieBreak::SeededShuffle(42))
        );
        assert_eq!(TieBreak::parse("random"), None);
        assert_eq!(TieBreak::parse("shuffle:x"), None);
    }

    #[test]
    fn derive_mixes_scenario_seed_into_shuffle_only() {
        assert_eq!(TieBreak::Fifo.derive(9), TieBreak::Fifo);
        assert_eq!(TieBreak::Lifo.derive(9), TieBreak::Lifo);
        let a = TieBreak::SeededShuffle(1).derive(9);
        let b = TieBreak::SeededShuffle(1).derive(10);
        assert_ne!(a, b, "scenario seed must perturb the permutation");
        assert_eq!(a, TieBreak::SeededShuffle(1).derive(9), "derive is pure");
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_and_seq_space() {
        use crate::snap::{SnapReader, SnapWriter};
        for tiebreak in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::SeededShuffle(7),
        ] {
            let mut q = EventQueue::new();
            q.set_tiebreak(tiebreak);
            q.set_classifier(|e: &u64| u8::try_from(e % 3).unwrap());
            let t = SimTime::from_micros(5);
            for i in 0..20u64 {
                q.schedule(t, i);
            }
            let dead = q.schedule_cancellable(SimTime::from_micros(9), 99);
            q.schedule(SimTime::from_micros(12), 100);
            assert!(q.cancel(dead));
            // Pop a few so the heap layout diverges from insertion order.
            let mut popped = Vec::new();
            for _ in 0..5 {
                popped.push(q.pop().unwrap());
            }

            let mut w = SnapWriter::new();
            q.snap_state(&mut w);
            let bytes = w.finish();
            let mut restored: EventQueue<u64> = EventQueue::new();
            restored.set_classifier(|e: &u64| u8::try_from(e % 3).unwrap());
            restored
                .restore_state(&mut SnapReader::new(&bytes))
                .expect("restore");

            assert_eq!(restored.len(), q.len());
            assert_eq!(restored.tiebreak(), q.tiebreak());
            // Future scheduling lands in the same sequence space: schedule
            // one more same-instant event into both and drain.
            q.schedule(t, 7777);
            restored.schedule(t, 7777);
            let mut a = Vec::new();
            let mut b = Vec::new();
            while let Some(e) = q.pop() {
                a.push(e);
            }
            while let Some(e) = restored.pop() {
                b.push(e);
            }
            assert_eq!(a, b, "tiebreak {tiebreak:?} diverged after restore");
        }
    }

    #[test]
    fn snapshot_rejects_future_seq() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        TieBreak::Fifo.snap(&mut w);
        w.u64(1); // next_seq = 1
        w.len_prefix(1);
        SimTime::ZERO.snap(&mut w);
        w.u8(0); // class
        w.u64(5); // key
        w.u64(5); // seq — from the future
        3u64.snap(&mut w); // event
        let bytes = w.finish();
        let mut q: EventQueue<u64> = EventQueue::new();
        assert!(q.restore_state(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn pop_before_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let tok = q.schedule_cancellable(SimTime::from_micros(10), "dead");
        q.schedule(SimTime::from_micros(15), "live");
        q.cancel(tok);
        assert_eq!(
            q.pop_before(SimTime::from_micros(20)),
            Some((SimTime::from_micros(15), "live"))
        );
    }
}
