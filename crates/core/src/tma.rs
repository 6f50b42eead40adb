//! The Top-k Monitoring Algorithm (TMA), paper §4 / Figure 9.
//!
//! Per processing cycle TMA handles the arrival set before the expiry set:
//!
//! 1. **Pins** — each arrival is placed into its grid cell; for every query
//!    registered in the cell's influence list whose threshold the new score
//!    reaches, the tuple is inserted into the query's top-list (displacing
//!    the k-th). Thresholds rise lazily: influence lists are *not* shrunk.
//! 2. **Pdel** — each expiring tuple leaves its cell; queries listing the
//!    cell whose result book-keeping contained the tuple are marked
//!    *affected*.
//! 3. Affected queries that can no longer serve an exact top-k are
//!    recomputed with the top-k computation module, followed by the
//!    frontier clean-up walk that removes the query from cells it no
//!    longer influences.
//!
//! Recomputations were the cost the paper's TMA paid for storing only the
//! exact top-k. This implementation defaults to the **skyband refill**
//! configuration (paper §8 / the `tkm_tsl` idea applied to the grid
//! engine): each query keeps a [`tkm_skyband::tuned_kmax`]-deep band whose
//! k-prefix is the result, so result expiries refill from the band and a
//! grid traversal happens only when the band itself drains below `k`.
//! Queries that do fall back in the same tick share one grid traversal per
//! monotonicity group (batched shared recomputation, toggled by
//! [`TmaMonitor::set_batched_recompute`]).
//!
//! [`TmaMonitor`] is a thin sandwich of the shared
//! [`crate::ingest::IngestState`] (window + grid, fed once per tick) and a
//! single [`crate::maintenance::TmaMaintenance`] stage — the same
//! maintenance code a [`crate::parallel::SharedParallelMonitor`] partitions
//! across shards.

use crate::ingest::IngestState;
use crate::maintenance::{QueryMaintenance, TmaMaintenance};
use crate::query::Query;
use crate::stats::EngineStats;
use tkm_common::{QueryId, Result, Scored, Timestamp};
use tkm_grid::{CellMode, Grid, InfluenceTable};
use tkm_window::{Window, WindowSpec};

/// How the grid is dimensioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridSpec {
    /// Approximately this many cells in total (`m = round(budget^(1/d))`
    /// per axis) — the paper's sizing rule, default 12⁴.
    CellBudget(usize),
    /// Exactly this many cells per axis.
    PerDim(usize),
}

impl GridSpec {
    /// The paper's default budget of 12⁴ ≈ 20.7k cells.
    pub const DEFAULT_BUDGET: usize = 20_736;

    /// Builds the grid.
    pub fn build(self, dims: usize, mode: CellMode) -> Result<Grid> {
        match self {
            GridSpec::CellBudget(b) => Grid::with_cell_budget(dims, b, mode),
            GridSpec::PerDim(m) => Grid::new(dims, m, mode),
        }
    }
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec::CellBudget(Self::DEFAULT_BUDGET)
    }
}

/// Continuous top-k monitor that recomputes affected queries from scratch
/// (the paper's TMA).
#[derive(Debug)]
pub struct TmaMonitor {
    shared: IngestState,
    maint: TmaMaintenance,
}

impl TmaMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<TmaMonitor> {
        let shared = IngestState::new(dims, window, grid)?;
        let maint = TmaMaintenance::new_for(&shared);
        Ok(TmaMonitor { shared, maint })
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

    /// Registers a query and computes its initial result.
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

    /// The current top-k result of a query, best first.
    pub fn result(&self, id: QueryId) -> Result<&[Scored]> {
        self.maint.result_slice(id)
    }

    /// Queries whose result changed during the last tick (sorted, deduped).
    pub fn changed_queries(&self) -> &[QueryId] {
        self.maint.changed_queries()
    }

    /// Current refill-band size of a query (between `k` and ~`k_max`).
    pub fn band_len(&self, id: QueryId) -> Result<usize> {
        self.maint.band_len(id)
    }

    /// Enables or disables batched shared recomputation (default: on).
    /// With batching off every fallback recomputes solo.
    pub fn set_batched_recompute(&mut self, on: bool) {
        self.maint.set_batched_recompute(on);
    }

    /// One-shot (snapshot) top-k over the current window contents, without
    /// registering anything: the computation module runs but leaves no
    /// influence-list entries behind.
    pub fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        self.maint.snapshot(&self.shared, query)
    }

    /// Executes one processing cycle (Figure 9). `arrivals` is a flat
    /// coordinate buffer, one tuple per `dims` chunk.
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
    /// per-query state (`O(d + 2k)` per query as analysed in §6).
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
    use tkm_common::TkmError;
    use tkm_common::{Rect, ScoreFn};

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
    fn registration_validation() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap();
        let f1 = ScoreFn::linear(vec![1.0]).unwrap();
        let q = Query::top_k(f1, 1).unwrap();
        assert!(m.register_query(QueryId(0), q).is_err(), "dims mismatch");
        let f2 = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let q = Query::top_k(f2, 2).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        assert!(matches!(
            m.register_query(QueryId(0), q),
            Err(TkmError::DuplicateQuery(_))
        ));
        assert!(m.remove_query(QueryId(9)).is_err());
        m.remove_query(QueryId(0)).unwrap();
    }

    #[test]
    fn tracks_brute_force_over_stream() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(50), GridSpec::PerDim(8)).unwrap();
        let q1 = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 3).unwrap();
        let q2 = Query::top_k(ScoreFn::linear(vec![1.0, -1.0]).unwrap(), 5).unwrap();
        m.register_query(QueryId(1), q1.clone()).unwrap();
        m.register_query(QueryId(2), q2.clone()).unwrap();
        for tick in 0..50u64 {
            let arrivals = lcg_stream(tick + 1, 8, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(m.result(QueryId(1)).unwrap(), &brute(m.window(), &q1)[..]);
            assert_eq!(m.result(QueryId(2)).unwrap(), &brute(m.window(), &q2)[..]);
        }
        let s = m.stats();
        assert!(
            s.recompute_queries >= 2,
            "registrations run the computation module"
        );
        assert!(s.cells_processed > 0);
        // The refill band absorbs result expiries: recomputations stay far
        // below the once-per-affected-tick rate of the paper's bare TMA.
        assert!(
            s.recompute_queries <= 20,
            "refill failed to absorb expiries: {} recomputes",
            s.recompute_queries
        );
    }

    #[test]
    fn constrained_query_tracks_brute_force() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(40), GridSpec::PerDim(6)).unwrap();
        let r = Rect::new(vec![0.2, 0.2], vec![0.7, 0.7]).unwrap();
        let q = Query::constrained(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 3, r).unwrap();
        m.register_query(QueryId(5), q.clone()).unwrap();
        for tick in 0..40u64 {
            let arrivals = lcg_stream(tick + 77, 6, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(m.result(QueryId(5)).unwrap(), &brute(m.window(), &q)[..]);
        }
    }

    #[test]
    fn time_window_tracks_brute_force() {
        let mut m = TmaMonitor::new(3, WindowSpec::Time(5), GridSpec::PerDim(5)).unwrap();
        let q = Query::top_k(ScoreFn::product(vec![0.1, 0.1, 0.1]).unwrap(), 4).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        for tick in 0..30u64 {
            let n = 3 + (tick % 4) as usize; // variable rate
            let arrivals = lcg_stream(tick + 13, n, 3);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(m.result(QueryId(0)).unwrap(), &brute(m.window(), &q)[..]);
        }
    }

    #[test]
    fn changed_queries_reported() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 1).unwrap();
        m.register_query(QueryId(3), q).unwrap();
        // First arrival becomes the top-1 → changed.
        m.tick(Timestamp(0), &[0.9, 0.9]).unwrap();
        assert_eq!(m.changed_queries(), &[QueryId(3)]);
        // A hopeless arrival changes nothing.
        m.tick(Timestamp(1), &[0.01, 0.01]).unwrap();
        assert!(m.changed_queries().is_empty());
    }

    #[test]
    fn rejects_bad_input() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        assert!(m.tick(Timestamp(0), &[0.5]).is_err());
        assert!(m.tick(Timestamp(0), &[0.5, 1.2]).is_err());
        assert!(m.result(QueryId(0)).is_err());
    }

    #[test]
    fn query_removal_clears_influence() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(5)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap();
        m.tick(Timestamp(0), &lcg_stream(3, 5, 2)).unwrap();
        m.register_query(QueryId(1), q).unwrap();
        assert!(m.influence().total_entries() > 0);
        m.remove_query(QueryId(1)).unwrap();
        assert_eq!(m.influence().total_entries(), 0);
        // Subsequent ticks must not touch the removed query.
        m.tick(Timestamp(1), &lcg_stream(4, 5, 2)).unwrap();
    }

    /// Burst larger than the count window: same-cycle transients must not
    /// corrupt results (they are skipped in Pins, see maintenance docs).
    #[test]
    fn burst_overrunning_window_stays_exact() {
        let mut m = TmaMonitor::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap();
        m.register_query(QueryId(0), q.clone()).unwrap();
        // 7 arrivals into a 4-window: the first 3 expire within the cycle.
        m.tick(Timestamp(0), &lcg_stream(99, 7, 2)).unwrap();
        assert_eq!(m.window().len(), 4);
        assert_eq!(m.result(QueryId(0)).unwrap(), &brute(m.window(), &q)[..]);
        m.tick(Timestamp(1), &lcg_stream(100, 9, 2)).unwrap();
        assert_eq!(m.result(QueryId(0)).unwrap(), &brute(m.window(), &q)[..]);
    }
}
