//! The Skyband Monitoring Algorithm (SMA), paper §5 / Figure 11.
//!
//! SMA exploits the reduction from top-k monitoring to k-skyband
//! maintenance in (score, expiry-time) space: instead of just the current
//! top-k, each query keeps the k-skyband of the tuples scoring at least
//! `q.top_score` — the k-th score as of the last from-scratch computation.
//! Arrivals reaching that threshold enter the skyband (dominance counters
//! prune tuples that can never appear in a result); expiring result tuples
//! simply leave, and the next k best are already in the skyband. A
//! from-scratch recomputation is needed only when the skyband itself drops
//! below `k` entries — which, as the paper's analysis and experiments show,
//! is rare to nonexistent under steady workloads.
//!
//! [`SmaMonitor`] is a thin sandwich of the shared
//! [`crate::ingest::IngestState`] (window + grid, fed once per tick) and a
//! single [`crate::maintenance::SmaMaintenance`] stage — the same
//! maintenance code a [`crate::parallel::SharedParallelMonitor`] partitions
//! across shards.

use crate::ingest::IngestState;
use crate::maintenance::{QueryMaintenance, SmaMaintenance};
use crate::query::Query;
use crate::stats::EngineStats;
use crate::tma::GridSpec;
use tkm_common::{QueryId, Result, Scored, Timestamp};
use tkm_grid::{Grid, InfluenceTable};
use tkm_window::{Window, WindowSpec};

/// Continuous top-k monitor based on skyband maintenance (the paper's SMA).
#[derive(Debug)]
pub struct SmaMonitor {
    shared: IngestState,
    maint: SmaMaintenance,
}

impl SmaMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<SmaMonitor> {
        let shared = IngestState::new(dims, window, grid)?;
        let maint = SmaMaintenance::new_for(&shared);
        Ok(SmaMonitor { shared, maint })
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.shared.dims()
    }

    /// The underlying window (read access).
    #[inline]
    pub fn window(&self) -> &Window {
        self.shared.window()
    }

    /// The underlying grid (read access, for diagnostics).
    #[inline]
    pub fn grid(&self) -> &Grid {
        self.shared.grid()
    }

    /// The influence lists (read access, for diagnostics).
    #[inline]
    pub fn influence(&self) -> &InfluenceTable {
        self.maint.influence()
    }

    /// The dense slot a live query's influence-list entries carry
    /// (diagnostics).
    #[inline]
    pub fn query_slot(&self, id: QueryId) -> Option<tkm_common::QuerySlot> {
        self.maint.query_slot(id)
    }

    /// Registers a query, computing its initial skyband.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        self.maint.register_query(&self.shared, id, query)
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.maint.remove_query(&self.shared, id)
    }

    /// Registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.maint.query_ids()
    }

    /// The current top-k result (the first k skyband entries), best first.
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        QueryMaintenance::result(&self.maint, id)
    }

    /// Current skyband size of a query (Table 2 reports its average).
    pub fn skyband_len(&self, id: QueryId) -> Result<usize> {
        self.maint.skyband_len(id)
    }

    /// Mean skyband size across queries.
    pub fn avg_skyband_len(&self) -> f64 {
        self.maint.avg_skyband_len()
    }

    /// Queries whose skyband changed during the last tick (sorted, deduped).
    pub fn changed_queries(&self) -> &[QueryId] {
        self.maint.changed_queries()
    }

    /// Enables or disables batched shared recomputation (default: on).
    /// With batching off every deficiency fallback recomputes solo.
    pub fn set_batched_recompute(&mut self, on: bool) {
        self.maint.set_batched_recompute(on);
    }

    /// One-shot (snapshot) top-k over the current window contents, without
    /// registering anything.
    pub fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        self.maint.snapshot(&self.shared, query)
    }

    /// Executes one processing cycle (Figure 11).
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        self.shared.ingest(now, arrivals)?;
        self.maint.apply_events(&self.shared)
    }

    /// Cumulative counters.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.maint.stats().with_ingest(self.shared.stats())
    }

    /// Deep size estimate in bytes: window + grid + influence lists +
    /// per-query skyband (`O(d + 3k)` per query as analysed in §6).
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.shared.space_bytes() + self.maint.space_bytes()
    }

    /// Validates the influence-region and admission invariants of every
    /// query (see [`QueryMaintenance::check_invariants`]).
    pub fn check_invariants(&self) -> Result<()> {
        self.maint.check_invariants(&self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::{Rect, ScoreFn, TkmError};

    fn lcg_stream(seed: u64, n: usize, dims: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        let mut out = Vec::with_capacity(n * dims);
        for _ in 0..n * dims {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push(((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0));
        }
        out
    }

    fn brute(window: &Window, q: &Query) -> Vec<Scored> {
        let mut all: Vec<Scored> = window
            .iter()
            .filter(|(_, c)| q.constraint.as_ref().is_none_or(|r| r.contains(c)))
            .map(|(id, c)| Scored::new(q.f.score(c), id))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(q.k);
        all
    }

    #[test]
    fn tracks_brute_force_over_stream() {
        let mut m = SmaMonitor::new(2, WindowSpec::Count(50), GridSpec::PerDim(8)).unwrap();
        let q1 = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 3).unwrap();
        let q2 = Query::top_k(ScoreFn::quadratic(vec![1.0, 0.3]).unwrap(), 6).unwrap();
        m.register_query(QueryId(1), q1.clone()).unwrap();
        m.register_query(QueryId(2), q2.clone()).unwrap();
        for tick in 0..60u64 {
            let arrivals = lcg_stream(tick + 1, 8, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(m.result(QueryId(1)).unwrap(), brute(m.window(), &q1));
            assert_eq!(m.result(QueryId(2)).unwrap(), brute(m.window(), &q2));
        }
        // The headline claim: SMA rarely/never recomputes in steady state
        // (two initial computations only, for uniform data).
        let s = m.stats();
        assert!(
            s.recomputations() <= 6,
            "SMA recomputed {} times — skyband maintenance is broken",
            s.recomputations()
        );
    }

    #[test]
    fn skyband_stays_small() {
        let mut m = SmaMonitor::new(2, WindowSpec::Count(100), GridSpec::PerDim(8)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![0.7, 0.9]).unwrap(), 10).unwrap();
        m.register_query(QueryId(0), q).unwrap();
        for tick in 0..50u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick, 10, 2)).unwrap();
        }
        let len = m.skyband_len(QueryId(0)).unwrap();
        assert!(len >= 10);
        assert!(
            len <= 40,
            "skyband grew to {len}; dominance pruning is broken"
        );
        assert_eq!(m.avg_skyband_len(), len as f64);
    }

    #[test]
    fn constrained_query_tracks_brute_force() {
        let mut m = SmaMonitor::new(2, WindowSpec::Count(40), GridSpec::PerDim(6)).unwrap();
        let r = Rect::new(vec![0.3, 0.1], vec![0.9, 0.6]).unwrap();
        let q = Query::constrained(ScoreFn::linear(vec![2.0, 1.0]).unwrap(), 4, r).unwrap();
        m.register_query(QueryId(5), q.clone()).unwrap();
        for tick in 0..40u64 {
            let arrivals = lcg_stream(tick + 31, 6, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(m.result(QueryId(5)).unwrap(), brute(m.window(), &q));
        }
    }

    #[test]
    fn time_window_tracks_brute_force() {
        let mut m = SmaMonitor::new(2, WindowSpec::Time(6), GridSpec::PerDim(6)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 0.5]).unwrap(), 3).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        for tick in 0..30u64 {
            let n = 2 + (tick % 5) as usize;
            m.tick(Timestamp(tick), &lcg_stream(tick + 7, n, 2))
                .unwrap();
            assert_eq!(m.result(QueryId(0)).unwrap(), brute(m.window(), &q));
        }
    }

    #[test]
    fn window_smaller_than_k_no_thrash() {
        let mut m = SmaMonitor::new(1, WindowSpec::Count(100), GridSpec::PerDim(4)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 50).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        for tick in 0..10u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick, 3, 1)).unwrap();
            assert_eq!(m.result(QueryId(0)).unwrap(), brute(m.window(), &q));
        }
        // One initial computation; deficiency with an exhausted window must
        // not recompute every tick.
        assert_eq!(m.stats().recomputations(), 1);
    }

    #[test]
    fn registration_and_removal() {
        let mut m = SmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        assert!(matches!(
            m.register_query(QueryId(0), q),
            Err(TkmError::DuplicateQuery(_))
        ));
        m.remove_query(QueryId(0)).unwrap();
        assert!(m.remove_query(QueryId(0)).is_err());
        assert_eq!(m.influence().total_entries(), 0);
    }
}
