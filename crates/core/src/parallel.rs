//! Query-sharded parallel monitoring.
//!
//! The paper's server is single-threaded and CPU-bound, and its per-cycle
//! cost is essentially linear in the number of queries `Q` (Figure 18).
//! That makes *query sharding* the natural scale-out. Two designs live
//! here:
//!
//! * [`SharedParallelMonitor`] — the intended architecture: **one** shared
//!   [`IngestState`] (window + grid) is populated per tick, and `S`
//!   [`QueryMaintenance`] shards replay the recorded arrival/expiry events
//!   against their own queries from scoped threads, reading the shared
//!   state through immutable views. Tuple storage is O(1) in `S`; only the
//!   per-query state (influence lists, top-lists/skybands, scratch) is
//!   per-shard.
//! * [`ParallelMonitor`] — the naive baseline kept for comparison: `S`
//!   full engine replicas, each re-ingesting every arrival into its own
//!   window and grid, so memory and ingest work grow `S`-fold. The
//!   `scaleout` experiment puts the two side by side.
//!
//! Both report exactly the results of an unsharded engine; the
//! differential test suite (`tests/shared_parallel.rs`) pins that under
//! query churn, time windows and score ties.

use std::collections::BTreeMap;

use crate::engine::ContinuousTopK;
use crate::ingest::IngestState;
use crate::maintenance::{QueryMaintenance, SmaMaintenance, TmaMaintenance};
use crate::query::Query;
use crate::stats::EngineStats;
use crate::tma::GridSpec;
use tkm_common::{QueryId, Result, Scored, Timestamp, TkmError};
use tkm_window::WindowSpec;

/// Estimated per-entry overhead of the `assignment`/`load` bookkeeping
/// (BTreeMap node amortisation), mirroring the per-entry constants the
/// other `space_bytes` impls use for hash containers.
const MAP_ENTRY_OVERHEAD: usize = 16;

fn bookkeeping_bytes(assignment: &BTreeMap<QueryId, usize>, load: &[usize]) -> usize {
    assignment.len()
        * (std::mem::size_of::<QueryId>() + std::mem::size_of::<usize>() + MAP_ENTRY_OVERHEAD)
        + std::mem::size_of_val(load)
}

/// Converts a scoped-thread join outcome into an engine result, surfacing
/// a shard panic as [`TkmError::Internal`] instead of aborting the server.
fn join_outcome(joined: std::thread::Result<Result<()>>) -> Result<()> {
    match joined {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "shard thread panicked".into());
            Err(TkmError::Internal(format!("shard panicked: {msg}")))
        }
    }
}

/// Picks the least-loaded shard (shard 0 when the pool is empty, which
/// the constructors reject).
fn least_loaded(load: &[usize]) -> usize {
    load.iter()
        .enumerate()
        .min_by_key(|(_, l)| **l)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// A pool of engine replicas with queries sharded across them (replicated
/// windows and grids — the memory-hungry baseline).
pub struct ParallelMonitor<E> {
    shards: Vec<E>,
    /// Which shard serves each query.
    assignment: BTreeMap<QueryId, usize>,
    /// Queries per shard (for balanced placement).
    load: Vec<usize>,
}

impl<E: ContinuousTopK + Send> ParallelMonitor<E> {
    /// Builds a pool from pre-constructed engine replicas (all must share
    /// the same dimensionality and window configuration).
    pub fn new(shards: Vec<E>) -> Result<ParallelMonitor<E>> {
        if shards.is_empty() {
            return Err(TkmError::InvalidParameter(
                "ParallelMonitor: at least one shard required".into(),
            ));
        }
        let dims = shards[0].dims();
        if shards.iter().any(|s| s.dims() != dims) {
            return Err(TkmError::InvalidParameter(
                "ParallelMonitor: shards disagree on dimensionality".into(),
            ));
        }
        let load = vec![0; shards.len()];
        Ok(ParallelMonitor {
            shards,
            assignment: BTreeMap::new(),
            load,
        })
    }

    /// Builds a pool of `n` replicas from a constructor closure.
    pub fn with_replicas(
        n: usize,
        mut build: impl FnMut() -> Result<E>,
    ) -> Result<ParallelMonitor<E>> {
        let shards: Result<Vec<E>> = (0..n).map(|_| build()).collect();
        ParallelMonitor::new(shards?)
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Dimensionality of the monitored stream.
    #[inline]
    pub fn dims(&self) -> usize {
        self.shards[0].dims()
    }

    /// Registers a query on the least-loaded shard.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        if self.assignment.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        let shard = least_loaded(&self.load);
        self.shards[shard].register_query(id, query)?;
        self.assignment.insert(id, shard);
        self.load[shard] += 1;
        Ok(())
    }

    /// Terminates a query.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let shard = self
            .assignment
            .remove(&id)
            .ok_or(TkmError::UnknownQuery(id))?;
        self.load[shard] -= 1;
        self.shards[shard].remove_query(id)
    }

    /// The current top-k result of a query, best first.
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        let shard = *self.assignment.get(&id).ok_or(TkmError::UnknownQuery(id))?;
        self.shards[shard].result(id)
    }

    /// Executes one processing cycle on every shard in parallel. All
    /// shards consume the same arrival batch, so their windows stay
    /// identical; only their query sets differ.
    ///
    /// A panicking shard is reported as [`TkmError::Internal`] (after every
    /// shard has been joined) rather than poisoning the whole process.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let mut outcomes: Vec<Result<()>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || shard.tick(now, arrivals)))
                .collect();
            outcomes = handles
                .into_iter()
                .map(|h| join_outcome(h.join()))
                .collect();
        });
        outcomes.into_iter().collect()
    }

    /// Deep size estimate: all shards (memory is replicated; this is the
    /// price of this design) plus the assignment bookkeeping.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.shards.iter().map(|s| s.space_bytes()).sum::<usize>()
            + bookkeeping_bytes(&self.assignment, &self.load)
    }

    /// Queries per shard, for observability.
    pub fn shard_loads(&self) -> &[usize] {
        &self.load
    }
}

/// Query-sharded monitor over **one** shared window and grid.
///
/// Per tick, [`IngestState::ingest`] applies the arrival and expiry sets
/// once; the maintenance shards then replay the recorded events in
/// parallel through immutable `&IngestState` views from within
/// [`std::thread::scope`]. Per-query state (influence lists, result
/// book-keeping, traversal scratch) is partitioned by query across shards.
pub struct SharedParallelMonitor<M> {
    shared: IngestState,
    shards: Vec<M>,
    assignment: BTreeMap<QueryId, usize>,
    load: Vec<usize>,
}

/// Shared-ingest monitor with TMA maintenance shards.
pub type SharedTmaMonitor = SharedParallelMonitor<TmaMaintenance>;
/// Shared-ingest monitor with SMA maintenance shards.
pub type SharedSmaMonitor = SharedParallelMonitor<SmaMaintenance>;

impl<M: QueryMaintenance> SharedParallelMonitor<M> {
    /// Creates a monitor with `shards` maintenance shards over one shared
    /// window and grid.
    pub fn new(
        dims: usize,
        window: WindowSpec,
        grid: GridSpec,
        shards: usize,
    ) -> Result<SharedParallelMonitor<M>> {
        if shards == 0 {
            return Err(TkmError::InvalidParameter(
                "SharedParallelMonitor: at least one shard required".into(),
            ));
        }
        let shared = IngestState::new(dims, window, grid)?;
        let shards: Vec<M> = (0..shards).map(|_| M::new_for(&shared)).collect();
        let load = vec![0; shards.len()];
        Ok(SharedParallelMonitor {
            shared,
            shards,
            assignment: BTreeMap::new(),
            load,
        })
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Dimensionality of the monitored stream.
    #[inline]
    pub fn dims(&self) -> usize {
        self.shared.dims()
    }

    /// The shared ingest state (read access, for diagnostics).
    #[inline]
    pub fn ingest_state(&self) -> &IngestState {
        &self.shared
    }

    /// Registers a query on the least-loaded shard.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        if self.assignment.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        let shard = least_loaded(&self.load);
        self.shards[shard].register_query(&self.shared, id, query)?;
        self.assignment.insert(id, shard);
        self.load[shard] += 1;
        Ok(())
    }

    /// Terminates a query.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let shard = self
            .assignment
            .remove(&id)
            .ok_or(TkmError::UnknownQuery(id))?;
        self.load[shard] -= 1;
        self.shards[shard].remove_query(&self.shared, id)
    }

    /// The current top-k result of a query, best first.
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        let shard = *self.assignment.get(&id).ok_or(TkmError::UnknownQuery(id))?;
        self.shards[shard].result(id)
    }

    /// Executes one processing cycle: the arrival/expiry sets are applied
    /// to the shared window and grid exactly once, then every shard
    /// replays the recorded events against its own queries in parallel.
    ///
    /// A panicking shard is reported as [`TkmError::Internal`] (after every
    /// shard has been joined) rather than poisoning the whole process.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        self.shared.ingest(now, arrivals)?;
        let shared = &self.shared;
        if self.shards.len() == 1 {
            // No point paying thread spawn for a single shard.
            return self.shards[0].apply_events(shared);
        }
        let mut outcomes: Vec<Result<()>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || shard.apply_events(shared)))
                .collect();
            outcomes = handles
                .into_iter()
                .map(|h| join_outcome(h.join()))
                .collect();
        });
        outcomes.into_iter().collect()
    }

    /// One-shot (snapshot) top-k over the shared window contents.
    pub fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        self.shards[0].snapshot(&self.shared, query)
    }

    /// Enables or disables batched shared recomputation on every shard
    /// (default: on).
    pub fn set_batched_recompute(&mut self, on: bool) {
        for s in &mut self.shards {
            s.set_batched_recompute(on);
        }
    }

    /// Cumulative counters: the shared ingest stage plus every shard's
    /// maintenance counters.
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default().with_ingest(self.shared.stats());
        for s in &self.shards {
            total.absorb(s.stats());
        }
        total
    }

    /// Deep size estimate: the shared tuple storage **once**, the
    /// per-shard query state, and the assignment bookkeeping.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.shared.space_bytes()
            + self.shards.iter().map(|s| s.space_bytes()).sum::<usize>()
            + bookkeeping_bytes(&self.assignment, &self.load)
    }

    /// Queries per shard, for observability.
    pub fn shard_loads(&self) -> &[usize] {
        &self.load
    }

    /// Validates every shard's per-query invariants against the shared
    /// grid (see [`QueryMaintenance::check_invariants`]).
    pub fn check_invariants(&self) -> Result<()> {
        self.shards
            .iter()
            .try_for_each(|s| s.check_invariants(&self.shared))
    }
}

impl<M: QueryMaintenance> ContinuousTopK for SharedParallelMonitor<M> {
    fn name(&self) -> &'static str {
        M::SHARED_LABEL
    }
    fn dims(&self) -> usize {
        SharedParallelMonitor::dims(self)
    }
    fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        SharedParallelMonitor::register_query(self, id, query)
    }
    fn remove_query(&mut self, id: QueryId) -> Result<()> {
        SharedParallelMonitor::remove_query(self, id)
    }
    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        SharedParallelMonitor::tick(self, now, arrivals)
    }
    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        SharedParallelMonitor::result(self, id)
    }
    fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        SharedParallelMonitor::snapshot(self, query)
    }
    fn space_bytes(&self) -> usize {
        SharedParallelMonitor::space_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sma::SmaMonitor;
    use tkm_common::ScoreFn;

    fn build_sma() -> Result<SmaMonitor> {
        SmaMonitor::new(2, WindowSpec::Count(50), GridSpec::PerDim(5))
    }

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

    #[test]
    fn construction_validation() {
        assert!(ParallelMonitor::<SmaMonitor>::new(vec![]).is_err());
        let mixed = vec![
            SmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap(),
            SmaMonitor::new(3, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap(),
        ];
        assert!(ParallelMonitor::new(mixed).is_err());
        assert!(
            SharedSmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4), 0).is_err(),
            "zero shards"
        );
    }

    #[test]
    fn replicated_matches_unsharded_engine() {
        let mut sharded = ParallelMonitor::with_replicas(3, build_sma).unwrap();
        let mut single = build_sma().unwrap();
        let queries: Vec<Query> = (0..7)
            .map(|i| {
                Query::top_k(
                    ScoreFn::linear(vec![1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2]).unwrap(),
                    3,
                )
                .unwrap()
            })
            .collect();
        for (i, q) in queries.iter().enumerate() {
            sharded
                .register_query(QueryId(i as u64), q.clone())
                .unwrap();
            single.register_query(QueryId(i as u64), q.clone()).unwrap();
        }
        // Balanced placement: 7 queries over 3 shards → loads 3/2/2.
        let mut loads = sharded.shard_loads().to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![2, 2, 3]);

        for tick in 0..30u64 {
            let batch = lcg_stream(tick + 1, 8, 2);
            sharded.tick(Timestamp(tick), &batch).unwrap();
            single.tick(Timestamp(tick), &batch).unwrap();
            for i in 0..queries.len() {
                let id = QueryId(i as u64);
                assert_eq!(
                    sharded.result(id).unwrap(),
                    single.result(id).unwrap(),
                    "query {id} diverged at tick {tick}"
                );
            }
        }
    }

    #[test]
    fn shared_matches_unsharded_engine() {
        let mut sharded =
            SharedSmaMonitor::new(2, WindowSpec::Count(50), GridSpec::PerDim(5), 3).unwrap();
        let mut single = build_sma().unwrap();
        assert_eq!(ContinuousTopK::name(&sharded), "SMA-SHARED");
        let queries: Vec<Query> = (0..7)
            .map(|i| {
                Query::top_k(
                    ScoreFn::linear(vec![1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2]).unwrap(),
                    3,
                )
                .unwrap()
            })
            .collect();
        for (i, q) in queries.iter().enumerate() {
            sharded
                .register_query(QueryId(i as u64), q.clone())
                .unwrap();
            single.register_query(QueryId(i as u64), q.clone()).unwrap();
        }
        let mut loads = sharded.shard_loads().to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![2, 2, 3]);

        for tick in 0..30u64 {
            let batch = lcg_stream(tick + 1, 8, 2);
            sharded.tick(Timestamp(tick), &batch).unwrap();
            single.tick(Timestamp(tick), &batch).unwrap();
            for i in 0..queries.len() {
                let id = QueryId(i as u64);
                assert_eq!(
                    sharded.result(id).unwrap(),
                    single.result(id).unwrap(),
                    "query {id} diverged at tick {tick}"
                );
            }
        }
        // Stream-side counters are counted once, not per shard.
        let st = sharded.stats();
        assert_eq!(st.ticks, 30);
        assert_eq!(st.arrivals, 240);
    }

    #[test]
    fn shared_tma_matches_unsharded_engine() {
        let mut sharded =
            SharedTmaMonitor::new(2, WindowSpec::Count(40), GridSpec::PerDim(6), 2).unwrap();
        let mut single =
            crate::tma::TmaMonitor::new(2, WindowSpec::Count(40), GridSpec::PerDim(6)).unwrap();
        let q = |w: f64| Query::top_k(ScoreFn::linear(vec![w, 1.0]).unwrap(), 4).unwrap();
        for i in 0..4u64 {
            sharded
                .register_query(QueryId(i), q(i as f64 * 0.5))
                .unwrap();
            single
                .register_query(QueryId(i), q(i as f64 * 0.5))
                .unwrap();
        }
        for tick in 0..25u64 {
            let batch = lcg_stream(tick + 5, 6, 2);
            sharded.tick(Timestamp(tick), &batch).unwrap();
            single.tick(Timestamp(tick), &batch).unwrap();
            for i in 0..4u64 {
                assert_eq!(
                    sharded.result(QueryId(i)).unwrap(),
                    single.result(QueryId(i)).unwrap().to_vec(),
                    "query {i} diverged at tick {tick}"
                );
            }
        }
    }

    #[test]
    fn query_churn_rebalances() {
        let mut m =
            SharedSmaMonitor::new(2, WindowSpec::Count(50), GridSpec::PerDim(5), 2).unwrap();
        let q = |w: f64| Query::top_k(ScoreFn::linear(vec![w, 1.0]).unwrap(), 2).unwrap();
        m.register_query(QueryId(0), q(0.5)).unwrap();
        m.register_query(QueryId(1), q(1.5)).unwrap();
        assert!(matches!(
            m.register_query(QueryId(0), q(1.0)),
            Err(TkmError::DuplicateQuery(_))
        ));
        m.remove_query(QueryId(0)).unwrap();
        assert!(m.remove_query(QueryId(0)).is_err());
        assert!(m.result(QueryId(0)).is_err());
        // The freed slot is reused by the next registration.
        m.register_query(QueryId(2), q(0.7)).unwrap();
        let mut loads = m.shard_loads().to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![1, 1]);
        m.tick(Timestamp(0), &[0.4, 0.6]).unwrap();
        assert_eq!(m.result(QueryId(2)).unwrap().len(), 1);
    }

    #[test]
    fn shared_space_stays_flat_as_shards_grow() {
        let build = |shards| {
            let mut m =
                SharedSmaMonitor::new(2, WindowSpec::Count(2000), GridSpec::PerDim(12), shards)
                    .unwrap();
            for i in 0..8u64 {
                m.register_query(
                    QueryId(i),
                    Query::top_k(ScoreFn::linear(vec![1.0, 1.0 + i as f64]).unwrap(), 4).unwrap(),
                )
                .unwrap();
            }
            for tick in 0..10u64 {
                m.tick(Timestamp(tick), &lcg_stream(tick, 200, 2)).unwrap();
            }
            m.space_bytes()
        };
        let s1 = build(1);
        let s4 = build(4);
        assert!(
            (s4 as f64) < 1.5 * s1 as f64,
            "shared monitor at S=4 uses {s4} bytes vs {s1} at S=1 — tuple storage is replicated?"
        );
    }

    /// Satellite regression: a panicking shard must surface as
    /// `TkmError::Internal`, not abort the process.
    struct PanicEngine {
        armed: bool,
    }

    impl ContinuousTopK for PanicEngine {
        fn name(&self) -> &'static str {
            "PANIC"
        }
        fn dims(&self) -> usize {
            1
        }
        fn register_query(&mut self, _: QueryId, _: Query) -> Result<()> {
            Ok(())
        }
        fn remove_query(&mut self, _: QueryId) -> Result<()> {
            Ok(())
        }
        fn tick(&mut self, _: Timestamp, _: &[f64]) -> Result<()> {
            if self.armed {
                panic!("injected shard failure");
            }
            Ok(())
        }
        fn result(&self, _: QueryId) -> Result<Vec<Scored>> {
            Ok(Vec::new())
        }
        fn snapshot(&mut self, _: &Query) -> Result<Vec<Scored>> {
            Ok(Vec::new())
        }
        fn space_bytes(&self) -> usize {
            std::mem::size_of::<Self>()
        }
    }

    #[test]
    fn panicking_shard_reports_internal_error() {
        let mut m = ParallelMonitor::new(vec![
            PanicEngine { armed: false },
            PanicEngine { armed: true },
            PanicEngine { armed: false },
        ])
        .unwrap();
        // Silence the default panic hook for the injected panic; restore
        // afterwards so unrelated failures still print. The tick runs under
        // catch_unwind so the hook is restored even if it panics itself.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.tick(Timestamp(0), &[0.5])
        }));
        std::panic::set_hook(hook);
        match out.expect("tick itself must not panic") {
            Err(TkmError::Internal(msg)) => {
                assert!(msg.contains("injected shard failure"), "got: {msg}")
            }
            other => panic!("expected Internal error, got {other:?}"),
        }
    }

    /// Satellite regression: the bookkeeping maps count toward space.
    #[test]
    fn space_bytes_includes_assignment_bookkeeping() {
        let mut m = ParallelMonitor::with_replicas(2, || {
            SmaMonitor::new(1, WindowSpec::Count(10), GridSpec::PerDim(4))
        })
        .unwrap();
        let empty = m.space_bytes();
        for i in 0..512u64 {
            m.register_query(
                QueryId(i),
                Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 1).unwrap(),
            )
            .unwrap();
        }
        let loaded = m.space_bytes();
        // Per-query state + per-entry assignment overhead must both show.
        assert!(
            loaded >= empty + 512 * (std::mem::size_of::<QueryId>() + std::mem::size_of::<usize>()),
            "space_bytes ignores the assignment map: {empty} -> {loaded}"
        );
    }
}
