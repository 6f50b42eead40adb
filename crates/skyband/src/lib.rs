#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! k-skyband maintenance in the 2-dimensional *(score, expiry-time)* space
//! (paper §3.1 and §5).
//!
//! A tuple belongs to some current-or-future top-k result **iff** fewer than
//! `k` tuples *dominate* it (paper §3.1). With the workspace-wide candidate
//! order (`Scored`: score descending, ties won by the older tuple), tuple
//! `b` dominates `a` exactly when `b` arrives after `a` — hence expires
//! later, windows being FIFO — *and* `b` ranks strictly higher. Equal-score
//! tuples never dominate each other: the older one outranks the newer while
//! both are valid, and the newer outlives the older, so both may appear in
//! results. (The paper assumes distinct scores, where this reduces to
//! `score(b) ≥ score(a)`.)
//!
//! [`Skyband`] maintains exactly the book-keeping SMA needs:
//!
//! * entries ordered by descending `Scored` — the first `k` *are* the
//!   current top-k result, so no separate result list is stored;
//! * a *dominance counter* (DC) per entry: an insert increments the DC of
//!   every entry it dominates and evicts entries whose DC reaches `k`
//!   (they can never appear in any result again);
//! * expiry of the oldest entry, which — provably (paper footnote 5) — is
//!   in the current top-k and dominates nobody, so no counters change;
//! * a from-scratch rebuild that derives the DCs of a fresh top-k list in
//!   `O(k·log k)` using the order-statistic tree of `tkm-ostree`.
//!
//! Counters never need decrementing: a dominator always expires after the
//! entries it dominates.
//!
//! Storage is two parallel arrays (`Vec<Scored>` + `Vec<u32>` counters)
//! rather than an array of structs: the scored column is contiguous, so a
//! monitor that stores its result *inside* the skyband (TMA with `k_max`
//! refill keeps a `k_max`-band and answers top-k queries from its prefix)
//! can hand out `&[Scored]` result slices without copying.
//!
//! The dominance parameter need not equal the result size: maintaining a
//! band with parameter `k_max > k` (see [`tuned_kmax`]) keeps `k_max`-ish
//! candidates alive so that result expiries are absorbed from the band and
//! a from-scratch recomputation is needed only when the band itself drops
//! below `k` — the refill policy the paper's §8 borrows from the TSL
//! baseline.

use tkm_common::{Result, Scored, TkmError, TupleId};
use tkm_ostree::OsTree;

/// The paper's fine-tuned `k_max` table (§8: "we also fine-tune the value
/// of kmax … the optimal values (4, 10, 20, 30, 70, 120) for the values
/// (1, 5, 10, 20, 50, 100) of k"); other `k` interpolate as
/// `k + max(3, k/2)`.
pub fn tuned_kmax(k: usize) -> usize {
    match k {
        1 => 4,
        5 => 10,
        10 => 20,
        20 => 30,
        50 => 70,
        100 => 120,
        _ => k + (k / 2).max(3),
    }
}

/// A k-skyband over the (score, expiry-time) space.
///
/// ```
/// use tkm_common::{Scored, TupleId};
/// use tkm_skyband::Skyband;
///
/// let mut band = Skyband::new(2).unwrap();
/// band.insert(Scored::new(0.9, TupleId(0)));
/// band.insert(Scored::new(0.5, TupleId(1)));
/// band.insert(Scored::new(0.7, TupleId(2)));
/// // The first k entries are the current top-k…
/// assert_eq!(band.top_scored()[0].id, TupleId(0));
/// assert_eq!(band.top_scored()[1].id, TupleId(2));
/// // …and future results are already queued: when the leader expires,
/// // the band answers without recomputation.
/// band.expire(TupleId(0));
/// assert_eq!(band.top_scored()[0].id, TupleId(2));
/// assert_eq!(band.top_scored()[1].id, TupleId(1));
/// ```
#[derive(Debug)]
pub struct Skyband {
    k: usize,
    /// Scored entries in descending order (best first).
    scored: Vec<Scored>,
    /// Dominance counters, parallel to `scored`.
    dcs: Vec<u32>,
    /// Lower bound on every entry's id (conservative: removals may leave
    /// it stale-low). Expiry replay probes every query listed in the
    /// expiring tuple's cell, and almost all of those probes miss — this
    /// bound turns a miss into one comparison instead of an O(len) scan.
    min_id: TupleId,
}

impl Skyband {
    /// Creates an empty k-skyband.
    pub fn new(k: usize) -> Result<Skyband> {
        if k == 0 {
            return Err(TkmError::InvalidParameter(
                "Skyband: k must be positive".into(),
            ));
        }
        Ok(Skyband {
            k,
            scored: Vec::with_capacity(k + k / 2 + 1),
            dcs: Vec::with_capacity(k + k / 2 + 1),
            min_id: TupleId(u64::MAX),
        })
    }

    /// The dominance parameter `k` of this skyband.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently kept (usually slightly more than `k` —
    /// Table 2 of the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.scored.len()
    }

    /// Whether the skyband holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scored.is_empty()
    }

    /// Whether fewer than `k` entries remain — the condition that forces
    /// SMA to recompute from scratch (paper Figure 11, lines 20–22).
    #[inline]
    pub fn is_deficient(&self) -> bool {
        self.scored.len() < self.k
    }

    /// All scored entries, best first (contiguous).
    #[inline]
    pub fn scored(&self) -> &[Scored] {
        &self.scored
    }

    /// The dominance counters, parallel to [`Skyband::scored`].
    #[inline]
    pub fn dcs(&self) -> &[u32] {
        &self.dcs
    }

    /// The current top-k result: the first `min(k, len)` scored entries,
    /// as a borrowable contiguous slice.
    #[inline]
    pub fn top_scored(&self) -> &[Scored] {
        &self.scored[..self.k.min(self.scored.len())]
    }

    /// The first `min(n, len)` scored entries — the top-n prefix of a band
    /// whose dominance parameter exceeds the result size (`n ≤ k`).
    #[inline]
    pub fn prefix(&self, n: usize) -> &[Scored] {
        debug_assert!(n <= self.k, "prefix size must not exceed the band's k");
        &self.scored[..n.min(self.scored.len())]
    }

    /// Score/id of the k-th best entry if the skyband has `k` of them.
    #[inline]
    pub fn kth(&self) -> Option<Scored> {
        (self.scored.len() >= self.k).then(|| self.scored[self.k - 1])
    }

    /// Whether a tuple id is currently in the skyband (O(len) scan over the
    /// ~k entries).
    pub fn contains(&self, id: TupleId) -> bool {
        self.scored.iter().any(|e| e.id == id)
    }

    /// Rebuilds from a fresh best-first candidate list, deriving dominance
    /// counters with an order-statistic tree: processing best-first, the DC
    /// of an entry is the number of already-processed entries that arrived
    /// later.
    ///
    /// The input is typically the top-k list of the computation module,
    /// optionally extended with candidates tying the k-th score (SMA needs
    /// those: a tie-loser can enter a future result). Every dominator of a
    /// listed candidate ranks above it and therefore appears earlier in the
    /// list, so the DCs are exact; candidates with ≥ k dominators are not
    /// stored (they can never appear in a result) but still count as
    /// dominators of later candidates.
    ///
    /// A buffer above twice the rebuilt size (or `k`, or 8) — left by a
    /// band that admitted every arrival over a sparse window — is cut
    /// back to that.
    pub fn rebuild(&mut self, top: &[Scored]) {
        debug_assert!(
            top.windows(2).all(|w| w[0] > w[1]),
            "rebuild input must be strictly descending"
        );
        self.scored.clear();
        self.dcs.clear();
        let keep = 2 * top.len().max(self.k).max(8);
        if self.scored.capacity() > keep {
            self.scored.shrink_to(keep);
            self.dcs.shrink_to(keep);
        }
        let mut arrivals = OsTree::new();
        self.min_id = TupleId(u64::MAX);
        for s in top {
            let dc = arrivals.count_greater(&s.id.0);
            arrivals.insert(s.id.0);
            if dc < self.k {
                self.min_id = self.min_id.min(s.id);
                self.scored.push(*s);
                self.dcs.push(dc as u32);
            }
        }
    }

    /// Inserts an arrived tuple. Increments the dominance counter of every
    /// entry it dominates (present, strictly lower-ranked *and* older) and
    /// evicts entries whose counter reaches `k`. Returns the insertion rank
    /// (0 = new best) when the tuple was stored, `None` when it already had
    /// `k` dominators and was dropped on arrival. O(len).
    ///
    /// Arrivals of one processing cycle may be inserted in any order
    /// (cell-grouped event replay delivers them per cell, not globally by
    /// id): the dominance tests compare ids explicitly instead of assuming
    /// the newcomer is newest. A dominator of `s` that was itself already
    /// evicted is not counted toward `s`'s counter — an *undercount*, which
    /// can only keep `s` longer than strictly necessary, never evict a
    /// future result.
    // lint: hot-path
    pub fn insert(&mut self, s: Scored) -> Option<usize> {
        debug_assert!(
            self.scored.iter().all(|e| e.id != s.id),
            "an id is inserted at most once"
        );
        self.min_id = self.min_id.min(s.id);
        // Position in descending order: first index whose entry ranks
        // below `s`.
        let pos = self.scored.partition_point(|e| *e > s);
        // In-band dominators of `s`: higher-ranked entries that are newer.
        let dc = self.scored[..pos].iter().filter(|e| e.id > s.id).count();
        let k = self.k as u32;
        let stored = dc < self.k;
        let mut write = pos;
        if stored {
            self.scored.insert(pos, s);
            self.dcs.insert(pos, dc as u32);
            write = pos + 1;
        }
        // Entries `s` dominates: lower-ranked and older. Same-cycle
        // arrivals with larger ids that rank below `s` are *not* dominated
        // (they outlive `s`) and keep their counter.
        let scan_from = write;
        for read in scan_from..self.scored.len() {
            let e = self.scored[read];
            let mut d = self.dcs[read];
            if e.id < s.id {
                d += 1;
            }
            if d < k {
                self.scored[write] = e;
                self.dcs[write] = d;
                write += 1;
            }
        }
        self.scored.truncate(write);
        self.dcs.truncate(write);
        stored.then_some(pos)
    }

    /// Removes an expiring tuple. An expiring member dominates nobody that
    /// outlives it (everything it dominates is older and thus expires
    /// first), so no counters change. Returns the position the tuple held
    /// (0 = best) when it was present.
    // lint: hot-path
    pub fn expire(&mut self, id: TupleId) -> Option<usize> {
        if id < self.min_id {
            // Older than everything ever retained: cannot be present.
            return None;
        }
        let pos = self.scored.iter().position(|e| e.id == id)?;
        // Footnote 5: at most k−1 in-band dominators plus the
        // still-present older entries (same-cycle batch expiries
        // may be processed in any order) can rank above it.
        debug_assert!(
            self.scored[..pos].iter().filter(|e| e.id > id).count() < self.k,
            "an expiring skyband member must be in the top-k (footnote 5)"
        );
        self.scored.remove(pos);
        self.dcs.remove(pos);
        Some(pos)
    }

    /// Removes every entry older than `cutoff` (id `< cutoff`) in one
    /// pass. Windows expire strictly in arrival (id) order, so after a
    /// synchronized expiry wave the live window is exactly the ids
    /// `>= cutoff` — one sweep per band replaces the per-tuple
    /// [`Skyband::expire`] replay that a wave would otherwise turn
    /// quadratic (every expired tuple probed against every covering
    /// query). No counters change, for the same reason as in `expire`.
    /// Returns the smallest position among the removed entries (0 = best;
    /// `None` when nothing was removed).
    // lint: hot-path
    pub fn expire_before(&mut self, cutoff: TupleId) -> Option<usize> {
        if self.min_id >= cutoff {
            // Every retained entry is at least as new as the cutoff.
            return None;
        }
        let mut first = None;
        let mut write = 0;
        for read in 0..self.scored.len() {
            if self.scored[read].id < cutoff {
                if first.is_none() {
                    first = Some(read);
                }
            } else {
                self.scored[write] = self.scored[read];
                self.dcs[write] = self.dcs[read];
                write += 1;
            }
        }
        self.scored.truncate(write);
        self.dcs.truncate(write);
        // Everything below the cutoff is gone, so it becomes the new
        // presence lower bound.
        self.min_id = cutoff;
        first
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.scored.clear();
        self.dcs.clear();
        self.min_id = TupleId(u64::MAX);
    }

    /// Deep size estimate in bytes. Matches the paper's `O(d + 3k)` per
    /// query: id, score and dominance counter per entry.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.scored.capacity() * std::mem::size_of::<Scored>()
            + self.dcs.capacity() * std::mem::size_of::<u32>()
    }

    /// Validates internal invariants (tests/debugging).
    pub fn check_invariants(&self) {
        // lint: allow(panic, reason=opt-in invariant checker; aborting on breach is its contract)
        assert_eq!(self.scored.len(), self.dcs.len(), "parallel arrays");
        for w in self.scored.windows(2) {
            // lint: allow(panic, reason=opt-in invariant checker; aborting on breach is its contract)
            assert!(w[0] > w[1], "entries must be strictly descending");
        }
        for &dc in &self.dcs {
            // lint: allow(panic, reason=opt-in invariant checker; aborting on breach is its contract)
            assert!((dc as usize) < self.k, "DC must stay below k");
        }
        // An entry's counter is at least its number of in-band dominators
        // (out-of-band dominators — entries since evicted — may add more).
        for (i, e) in self.scored.iter().enumerate() {
            let in_band = self.scored[..i].iter().filter(|d| d.id > e.id).count();
            // lint: allow(panic, reason=opt-in invariant checker; aborting on breach is its contract)
            assert!(
                self.dcs[i] as usize >= in_band,
                "DC below in-band dominator count"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(score: f64, id: u64) -> Scored {
        Scored::new(score, TupleId(id))
    }

    fn band_pairs(sky: &Skyband) -> Vec<(u64, u32)> {
        sky.scored()
            .iter()
            .zip(sky.dcs())
            .map(|(e, &dc)| (e.id.0, dc))
            .collect()
    }

    #[test]
    fn k_must_be_positive() {
        assert!(Skyband::new(0).is_err());
    }

    #[test]
    fn tuned_kmax_matches_paper_table() {
        for (k, kmax) in [(1, 4), (5, 10), (10, 20), (20, 30), (50, 70), (100, 120)] {
            assert_eq!(tuned_kmax(k), kmax);
        }
        // Interpolated values stay sane: strictly above k, monotone-ish.
        for k in [2usize, 3, 7, 15, 33, 64, 200] {
            assert!(tuned_kmax(k) > k);
            assert!(tuned_kmax(k) <= 2 * k + 3);
        }
    }

    /// The running example of Figure 10, with arrival ids assigned in
    /// expiry order (p3 expires first, then p2, p7, p5; p9 arrives last and
    /// outlives everyone) and scores p2 > p9 > p3 > p5 > p7.
    #[test]
    fn figure_10_example() {
        let p3 = s(0.6, 0);
        let p2 = s(0.9, 1);
        let p7 = s(0.3, 2);
        let p5 = s(0.5, 3);
        let p9 = s(0.8, 4);

        let mut sky = Skyband::new(2).unwrap();
        for p in [p3, p2, p7, p5] {
            sky.insert(p);
        }
        sky.check_invariants();
        // Figure 10(a): band {p2(0), p3(1), p5(0), p7(1)}, top-2 {p2, p3}.
        assert_eq!(band_pairs(&sky), vec![(1, 0), (0, 1), (3, 0), (2, 1)]);
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![1, 0], "top-2 = {{p2, p3}}");

        // p9 arrives: p3 and p7 hit DC = 2 and leave; p5 survives at DC 1.
        sky.insert(p9);
        sky.check_invariants();
        assert_eq!(
            band_pairs(&sky),
            vec![(1, 0), (4, 0), (3, 1)],
            "band = {{p2, p9, p5}}"
        );
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![1, 4], "new top-2 = {{p2, p9}}");

        // p3 expires first — it already left the band; then p2 expires and
        // the result becomes {p9, p5} as in the paper.
        assert_eq!(sky.expire(TupleId(0)), None);
        assert_eq!(sky.expire(TupleId(1)), Some(0));
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![4, 3]);
    }

    #[test]
    fn rebuild_derives_dominance_counters() {
        let mut sky = Skyband::new(4).unwrap();
        // Best-first list; arrival ids deliberately shuffled.
        sky.rebuild(&[s(0.9, 7), s(0.8, 2), s(0.7, 9), s(0.6, 1)]);
        // id7: nothing processed before it           → 0
        // id2: {7} arrived later                     → 1
        // id9: neither 7 nor 2 arrived later than 9  → 0
        // id1: {7, 2, 9} all arrived later           → 3
        assert_eq!(sky.dcs(), &[0, 1, 0, 3]);
        sky.check_invariants();
    }

    #[test]
    fn rebuild_accepts_fewer_than_k() {
        let mut sky = Skyband::new(5).unwrap();
        sky.rebuild(&[s(0.9, 1), s(0.5, 0)]);
        assert_eq!(sky.len(), 2);
        assert!(sky.is_deficient());
        assert_eq!(sky.kth(), None);
        assert_eq!(sky.top_scored().len(), 2);
    }

    /// A band that admitted a long run without dominance pruning (scores
    /// falling with arrival order) gives its buffer back on rebuild.
    #[test]
    fn rebuild_releases_flood_capacity() {
        let mut sky = Skyband::new(3).unwrap();
        for i in 0..500u64 {
            sky.insert(s(1.0 - i as f64 / 1000.0, i));
        }
        assert_eq!(sky.len(), 500);
        let flooded = sky.space_bytes();
        sky.rebuild(&[s(0.99, 600), s(0.98, 601), s(0.97, 602)]);
        sky.check_invariants();
        assert_eq!(sky.len(), 3);
        assert!(
            sky.space_bytes() * 8 < flooded,
            "rebuild kept {} of {flooded} bytes",
            sky.space_bytes()
        );
    }

    #[test]
    fn insert_evicts_at_k_dominators() {
        let mut sky = Skyband::new(1).unwrap();
        sky.rebuild(&[s(0.5, 0)]);
        // A better, newer tuple replaces the old top immediately (k = 1).
        assert_eq!(sky.insert(s(0.6, 1)), Some(0));
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.top_scored()[0].id, TupleId(1));
        // Worse, newer tuples are dominated by nothing *newer* — kept as
        // future results.
        assert_eq!(sky.insert(s(0.4, 2)), Some(1));
        sky.insert(s(0.3, 3));
        assert_eq!(sky.len(), 3);
        // A newer better tuple sweeps them all out.
        sky.insert(s(0.9, 4));
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.top_scored()[0].id, TupleId(4));
        // An arrival that is already dominated k times is dropped on
        // arrival and reports `None`.
        assert_eq!(sky.insert(s(0.2, 0)), None);
        assert_eq!(sky.len(), 1);
        sky.check_invariants();
    }

    #[test]
    fn equal_scores_never_dominate() {
        let mut sky = Skyband::new(1).unwrap();
        sky.rebuild(&[s(0.5, 0)]);
        sky.insert(s(0.5, 1));
        // The older tuple outranks the newer while valid; the newer
        // outlives it. Both appear in some top-1 result, so both stay.
        assert_eq!(sky.len(), 2);
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![0], "older equal-score tuple is the result now");
        assert_eq!(sky.expire(TupleId(0)), Some(0));
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![1], "newer takes over after expiry");
    }

    /// Same-cycle arrivals may be inserted in any order (cell-grouped
    /// event replay delivers them per cell): the resulting band must match
    /// the id-ordered outcome.
    #[test]
    fn out_of_order_inserts_within_a_cycle() {
        let mut in_order = Skyband::new(2).unwrap();
        let mut shuffled = Skyband::new(2).unwrap();
        let batch = [s(0.7, 10), s(0.9, 11), s(0.4, 12), s(0.8, 13)];
        for p in batch {
            in_order.insert(p);
        }
        for p in [batch[1], batch[3], batch[0], batch[2]] {
            shuffled.insert(p);
        }
        in_order.check_invariants();
        shuffled.check_invariants();
        assert_eq!(in_order.scored(), shuffled.scored());
        assert_eq!(in_order.dcs(), shuffled.dcs());
        // Batch expiry may also drain in any order.
        assert!(shuffled.expire(TupleId(13)).is_some());
        assert!(shuffled.expire(TupleId(11)).is_some());
        let top: Vec<u64> = shuffled.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![12]);
    }

    /// A band with dominance parameter `k_max > k` serves exact top-k
    /// results from its prefix — the refill configuration TMA runs by
    /// default.
    #[test]
    fn prefix_of_wider_band_is_exact_topk() {
        let k = 2;
        let mut sky = Skyband::new(tuned_kmax(k)).unwrap();
        let mut valid: Vec<Scored> = Vec::new();
        for (i, score) in [9, 3, 7, 5, 8, 1, 6, 4, 2, 9].iter().enumerate() {
            let cand = s(*score as f64 / 10.0, i as u64);
            sky.insert(cand);
            valid.push(cand);
            if i % 3 == 2 {
                let victim = valid.remove(0);
                sky.expire(victim.id);
            }
            let mut want = valid.clone();
            want.sort_by(|a, b| b.cmp(a));
            want.truncate(k);
            assert_eq!(sky.prefix(k), &want[..], "step {i}");
        }
    }

    #[test]
    fn expire_non_member_is_noop() {
        let mut sky = Skyband::new(2).unwrap();
        sky.rebuild(&[s(0.9, 5), s(0.8, 6)]);
        assert_eq!(sky.expire(TupleId(4)), None);
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn deficiency_detection() {
        let mut sky = Skyband::new(2).unwrap();
        sky.rebuild(&[s(0.9, 0), s(0.8, 1)]);
        assert!(!sky.is_deficient());
        assert_eq!(sky.kth(), Some(s(0.8, 1)));
        sky.expire(TupleId(0));
        assert!(sky.is_deficient());
        assert_eq!(sky.kth(), None);
    }

    #[test]
    fn clear_empties() {
        let mut sky = Skyband::new(2).unwrap();
        sky.insert(s(0.5, 0));
        sky.clear();
        assert!(sky.is_empty());
    }

    /// Naive model: the k-skyband of a set of valid tuples is the set with
    /// fewer than k strict dominators (newer arrival, strictly better
    /// `Scored` — which given distinct ids means strictly higher score).
    fn naive_skyband(tuples: &[Scored], k: usize) -> Vec<TupleId> {
        let mut out: Vec<Scored> = tuples
            .iter()
            .filter(|p| {
                tuples
                    .iter()
                    .filter(|q| q.id > p.id && q.score > p.score)
                    .count()
                    < k
            })
            .copied()
            .collect();
        out.sort_by(|a, b| b.cmp(a));
        out.into_iter().map(|sc| sc.id).collect()
    }

    proptest! {
        /// Streaming inserts + FIFO expiries match the naive k-skyband of
        /// the valid tuples at every step. Discrete scores force plenty of
        /// ties through the tie-break logic.
        #[test]
        fn matches_naive_skyband(
            scores in prop::collection::vec(0u32..50, 1..60),
            k in 1usize..6,
            expire_every in 2usize..5,
        ) {
            let mut sky = Skyband::new(k).unwrap();
            let mut valid: Vec<Scored> = Vec::new();
            for (i, sc) in scores.iter().enumerate() {
                let cand = Scored::new(*sc as f64 / 50.0, TupleId(i as u64));
                sky.insert(cand);
                valid.push(cand);
                if i % expire_every == 0 && !valid.is_empty() {
                    let victim = valid.remove(0);
                    sky.expire(victim.id);
                }
                sky.check_invariants();
                let got: Vec<TupleId> =
                    sky.scored().iter().map(|e| e.id).collect();
                let want = naive_skyband(&valid, k);
                prop_assert_eq!(got, want);
            }
        }

        /// The first k entries of the skyband equal the brute-force top-k
        /// of the valid tuples at every step.
        #[test]
        fn top_prefix_is_true_topk(
            scores in prop::collection::vec(0u32..50, 1..60),
            k in 1usize..6,
        ) {
            let mut sky = Skyband::new(k).unwrap();
            let mut valid: Vec<Scored> = Vec::new();
            for (i, sc) in scores.iter().enumerate() {
                let cand = Scored::new(*sc as f64 / 50.0, TupleId(i as u64));
                sky.insert(cand);
                valid.push(cand);
                if i % 2 == 0 {
                    let victim = valid.remove(0);
                    sky.expire(victim.id);
                }
                let mut want = valid.clone();
                want.sort_by(|a, b| b.cmp(a));
                want.truncate(k);
                let got: Vec<Scored> = sky.top_scored().to_vec();
                prop_assert_eq!(got, want);
            }
        }
    }
}
