//! Per-query maintenance stages, decoupled from tuple ingest.
//!
//! A [`QueryMaintenance`] value owns everything that is *per-query*: the
//! queries themselves, their result book-keeping (refill skybands for TMA,
//! k-skybands for SMA), the influence lists covering them, and the
//! traversal scratch. It never mutates the shared window or grid — every
//! cycle it *replays* the event lists recorded by [`IngestState::ingest`]
//! against an immutable `&IngestState` view. That is what makes the stage
//! shardable: partition the queries over several `QueryMaintenance` values
//! and run [`QueryMaintenance::apply_events`] on each from its own thread,
//! all reading the same window and grid.
//!
//! [`TmaMaintenance`] and [`SmaMaintenance`] are the paper's two
//! maintenance modules (Figures 9 and 11) restated over event lists; the
//! single-engine monitors [`crate::TmaMonitor`] / [`crate::SmaMonitor`] are
//! thin ingest+maintenance sandwiches, so the sharded and unsharded paths
//! execute literally the same maintenance code.
//!
//! The recomputation path is tiered to kill the worst-tick cliff:
//!
//! 1. **Skyband refill (default TMA configuration).** Each TMA query keeps
//!    a `k_max`-skyband ([`tkm_skyband::tuned_kmax`] entries) instead of a
//!    bare top-k list; its k-prefix *is* the result. Result expiries are
//!    absorbed from the band without touching the grid, and a traversal is
//!    needed only when the band itself drains below `k` — the paper §8
//!    refill idea applied to the grid engines.
//! 2. **Batched shared recomputation.** Queries that do fall back in the
//!    same tick are grouped by per-axis monotonicity (constrained queries
//!    recompute solo) and served by **one**
//!    [`crate::compute::compute_topk_group`] grid traversal per group,
//!    which scans each visited cell block once per member instead of
//!    re-walking the grid per query. A synchronized expiry wave that
//!    forces hundreds of queries to recompute costs one traversal, not
//!    hundreds.
//! 3. **Solo recomputation** remains as the fallback for constrained
//!    queries, singleton groups, and `set_batched_recompute(false)`.
//!
//! The replay loop is built for throughput:
//!
//! * per-query state lives in a dense [`QueryRegistry`] and the influence
//!   lists carry 4-byte [`QuerySlot`]s, so resolving an influence entry is
//!   a `Vec` index instead of a `BTreeMap` probe;
//! * events arrive **grouped by cell** ([`IngestState::arrival_runs`]),
//!   and a run's coordinates are the tail of its cell's coordinate-inline
//!   point block ([`IngestState::arrival_run_coords`]): each cell's
//!   influence list is walked once per tick and the run's packed block
//!   streams through the dim-specialized [`crate::kernel`] scan for every
//!   listed query with that query's state hot in cache (the loop order is
//!   cell → query → tuple) — replay scoring never resolves a tuple
//!   through the window ring and never copies a coordinate;
//! * the traversal heap and frontier live in [`ComputeScratch`], so
//!   steady-state ticks allocate nothing.
//!
//! One deliberate difference from the interleaved originals: an arrival
//! that expires within its own cycle (count window overrun by a burst) is
//! skipped instead of being offered and then removed. Such a tuple is
//! evicted only after every older tuple (windows are FIFO), so skipping it
//! never hides a result candidate, and the recompute-on-expiry path
//! restores exactness for whatever the burst displaced — the differential
//! suite pins sharded and unsharded results to the oracle either way.
//!
//! Influence regions follow the window's growth: a query whose region was
//! sized over a much smaller window than the current one — typically one
//! registered before the data arrived — is resynced by an ordinary
//! from-scratch recomputation (the `outgrown` rule), so cold
//! registrations settle at the probe rate and footprint of warm ones.

use crate::compute::{
    compute_topk, compute_topk_group, ComputeScratch, ComputeStats, GroupMember, GroupOutcome,
    InfluenceUpdate,
};
use crate::influence::{cleanup_from_frontier, cleanup_group_from_frontier, remove_query_walk};
use crate::ingest::IngestState;
use crate::kernel;
use crate::query::Query;
use crate::registry::QueryRegistry;
use crate::result::TopList;
use crate::stats::EngineStats;
use tkm_common::{
    Monotonicity, OrderedF64, QueryId, QuerySlot, Result, ScoreFn, Scored, TkmError, TupleId,
    MAX_DIMS,
};
use tkm_grid::{CellId, Grid, InfluenceTable};
use tkm_skyband::{tuned_kmax, Skyband};
use tkm_window::Window;

/// One shard's worth of per-query monitoring state.
///
/// Implementations must be [`Send`] so a sharded monitor can drive them
/// from scoped threads; the shared state they read is only borrowed
/// immutably.
pub trait QueryMaintenance: Send {
    /// Label reported by a shared-ingest sharded monitor built on this
    /// maintenance stage.
    const SHARED_LABEL: &'static str;

    /// Creates an empty maintenance stage sized for `shared`'s grid.
    fn new_for(shared: &IngestState) -> Self
    where
        Self: Sized;

    /// Registers a query and computes its initial result against the
    /// current shared window.
    fn register_query(&mut self, shared: &IngestState, id: QueryId, query: Query) -> Result<()>;

    /// Terminates a query, clearing its influence-list entries.
    fn remove_query(&mut self, shared: &IngestState, id: QueryId) -> Result<()>;

    /// Replays the shared state's last recorded cycle (arrival events, then
    /// expiry events, then recomputation of affected queries) against this
    /// stage's queries.
    fn apply_events(&mut self, shared: &IngestState) -> Result<()>;

    /// The current top-k result of a query, best first.
    fn result(&self, id: QueryId) -> Result<Vec<Scored>>;

    /// One-shot top-k over the shared window, leaving no state behind.
    fn snapshot(&mut self, shared: &IngestState, query: &Query) -> Result<Vec<Scored>>;

    /// Number of queries maintained by this stage.
    fn query_count(&self) -> usize;

    /// This stage's influence lists (read access, for diagnostics).
    fn influence(&self) -> &InfluenceTable;

    /// Cumulative maintenance-side counters (stream-side counters live in
    /// [`IngestState::stats`]).
    fn stats(&self) -> EngineStats;

    /// Deep size estimate of the per-query state in bytes.
    fn space_bytes(&self) -> usize;

    /// Enables or disables batched shared recomputation (default: on).
    /// With batching off every fallback recomputes solo — the reference
    /// behaviour the differential suite compares the batched path against.
    fn set_batched_recompute(&mut self, on: bool);

    /// Validates the per-query invariants against `shared`'s grid, for
    /// tests and debugging; O(queries × cells). Two properties:
    ///
    /// * every query is listed in each cell whose traversal key lies
    ///   strictly above its region bound (influence regions are
    ///   upward-closed, and a listing is never missing inside one);
    /// * every band / skyband entry scores at least the query's admission
    ///   threshold.
    ///
    /// Returns [`TkmError::Internal`] naming the first breach.
    fn check_invariants(&self, shared: &IngestState) -> Result<()>;
}

/// Cap on the member count of one shared recomputation traversal.
///
/// A shared traversal costs O(members × envelope cells): every popped
/// cell runs a retire check and a bound test per still-active member, and
/// the group heap key (the max over active members' bounds) keeps
/// *everyone* active until the group's deepest member is satisfied. A
/// recompute storm that throws thousands of queries into one group would
/// make each of them pay the whole union envelope. Chunking the
/// signature run — pre-sorted by descending stale threshold, a cheap
/// proxy for traversal depth — bounds that product: members of similar
/// depth retire together, so each chunk's traversal is only as deep as
/// its own members need.
const GROUP_CHUNK: usize = 64;

fn check_dims(shared: &IngestState, query: &Query) -> Result<()> {
    if query.dims() != shared.dims() {
        return Err(TkmError::DimensionMismatch {
            expected: shared.dims(),
            got: query.dims(),
        });
    }
    Ok(())
}

/// The still-live suffix of an arrival run, skipping same-cycle transients
/// (already expired: cannot be in the final window, so they never have to
/// enter any result book-keeping).
///
/// Tuple ids are dense arrival sequence numbers and windows expire
/// strictly in id order, so the live window is the contiguous id range
/// `[oldest, newest]`; within a run the ids ascend, which makes the live
/// subset a suffix that can be sliced off without copying and without
/// resolving a single tuple through the window's storage. Returns `None`
/// when nothing of the run survived (or the window is empty). The matching
/// coordinates come from [`IngestState::arrival_run_coords`] — the tail of
/// the cell's own point block.
fn live_suffix<'a>(window: &Window, ids: &'a [TupleId]) -> Option<&'a [TupleId]> {
    let oldest = window.oldest()?;
    let start = ids.partition_point(|&id| id < oldest);
    if start == ids.len() {
        return None;
    }
    Some(&ids[start..])
}

/// Per-axis monotonicity signature: bit `d` set iff the function is
/// decreasing on axis `d`. Queries sharing a signature traverse the grid
/// in the same order and can share one group traversal.
fn mono_signature(f: &ScoreFn, dims: usize) -> u32 {
    let mut sig = 0u32;
    for d in 0..dims {
        if f.monotonicity(d) == Monotonicity::Decreasing {
            sig |= 1 << d;
        }
    }
    sig
}

fn absorb_compute(stats: &mut EngineStats, cs: ComputeStats) {
    stats.cells_processed += cs.cells_processed;
    stats.points_scanned += cs.points_scanned;
    stats.heap_pushes += cs.heap_pushes;
}

/// The traversal key of `cell` for `query` — the cell's maxscore, clipped to
/// the constraint box for a constrained query — exactly as the computation
/// module orders its heap; `None` for cells a constrained traversal never
/// visits.
fn traversal_key(grid: &Grid, query: &Query, cell: CellId) -> Option<f64> {
    let (cell_lo, cell_hi) = grid.cell_lo_hi(cell);
    let Some(r) = query.constraint.as_ref() else {
        return Some(kernel::cell_bound(&query.f, cell_lo, cell_hi));
    };
    let (range_lo, range_hi) = grid.cell_range(r);
    let at = grid.cell_coords(cell);
    let dims = grid.dims();
    if (0..dims).any(|d| at[d] < range_lo[d] || at[d] > range_hi[d]) {
        return None;
    }
    let mut lo = [0.0f64; MAX_DIMS];
    let mut hi = [0.0f64; MAX_DIMS];
    for d in 0..dims {
        lo[d] = cell_lo[d].max(r.lo()[d]);
        hi[d] = cell_hi[d].min(r.hi()[d]);
        if lo[d] > hi[d] {
            return Some(f64::NEG_INFINITY);
        }
    }
    Some(kernel::cell_bound(&query.f, &lo[..dims], &hi[..dims]))
}

/// One query's half of [`QueryMaintenance::check_invariants`].
fn check_query(
    grid: &Grid,
    influence: &InfluenceTable,
    (id, slot): (QueryId, QuerySlot),
    query: &Query,
    region_bound: f64,
    (band, admit): (&Skyband, f64),
) -> Result<()> {
    if let Some(e) = band.scored().iter().find(|e| e.score.get() < admit) {
        return Err(TkmError::Internal(format!(
            "query {id}: entry {:?} scores {} below its admission threshold {admit}",
            e.id,
            e.score.get()
        )));
    }
    for cell in (0..grid.num_cells() as u32).map(CellId) {
        match traversal_key(grid, query, cell) {
            Some(key) if key > region_bound && !influence.contains(cell, slot) => {
                return Err(TkmError::Internal(format!(
                    "query {id}: cell {} (key {key}) lies above region bound \
                     {region_bound} but does not list the query",
                    cell.0
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Growth-resync rule: whether a query whose influence region was assigned
/// (at its last resync) over a window of `region_len` tuples holds a region
/// sized for a much sparser window than the current one. `depth` is the
/// number of candidates the query keeps (k for SMA, `k_max` for TMA).
///
/// A region is bounded by the `depth`-th score of its computation. Over a
/// filling window — a query registered before the data arrived — that
/// bound sits far below the steady-state one, and neither engine would
/// ever shrink it again: SMA's skyband never turns deficient, and the
/// monotone region floor pins whatever the next traversal finds.
///
/// The rule compares the window with `base`, the larger of `region_len`
/// and `16 × depth`. The floor leaves small windows alone: while a window
/// holds only a few dozen candidates per result slot, probing all of it
/// costs about as much as the extra deficiency recomputations a tight
/// region brings (a region computed over fewer than `depth` tuples spans
/// the whole grid, and its skyband, holding every candidate, never drains).
/// Past the floor the rule fires
///
/// * while the window is still filling (no expiry this cycle), once it
///   holds more than `4 × base` tuples — a few geometric steps keep the
///   fill cheap;
/// * once the window expires tuples (a full count window, a time window
///   spanning its duration), as soon as it holds more than `1.25 × base`
///   — so the region a query settles with is sized for at least 80% of
///   the window a warm registration sees.
///
/// Warm registrations and steady-state windows never meet it.
fn outgrown(region_len: usize, depth: usize, shared: &IngestState) -> bool {
    let len = shared.window().len();
    let base = region_len.max(16 * depth);
    if shared.expiry_events().is_empty() {
        len > 4 * base
    } else {
        4 * len > 5 * base
    }
}

#[derive(Debug)]
struct TmaQuery {
    query: Query,
    /// The `k_max` refill band; its `query.k`-prefix is the current
    /// result. Keeping `k_max > k` candidates means result expiries are
    /// refilled from the band instead of triggering a grid traversal.
    band: Skyband,
    /// Dominance parameter of `band` ([`tuned_kmax`] of `query.k`).
    kmax: usize,
    /// Admission threshold: the `k_max`-th score at the last from-scratch
    /// computation, or −∞ when that computation found fewer than `k_max`
    /// candidates (as it does for a query registered before data
    /// arrives). Every band entry scores ≥ this, so while the band holds
    /// ≥ k entries its prefix is provably the exact top-k.
    ///
    /// The threshold is *static between recomputations* (that is what
    /// makes the exactness argument a one-liner), so a band started over a
    /// sparse window admits generously until a traversal tightens it: the
    /// band-size cap ([`TmaMaintenance::fat_cap`]) bounds the band, the
    /// growth resync ([`outgrown`]) the influence region.
    admit: f64,
    /// Window length when `region_bound` was last assigned — the last
    /// resync (see [`outgrown`]).
    region_len: usize,
    /// Recycled top-list buffers for recomputations.
    rec: TopList,
    affected: bool,
    /// Monotone floor of [`ComputeOutcome::region_bound`] over the
    /// computations since the last *resync* (see [`TmaQuery::resyncs`]):
    /// cells with traversal keys strictly above this already
    /// carry the slot. Recomputations only lower it — a tightening
    /// traversal keeps the old superset listing instead of shrinking the
    /// region, so alternating thresholds stop churning the influence
    /// lists (see [`TmaMaintenance::recompute`]).
    ///
    /// [`ComputeOutcome::region_bound`]: crate::compute::ComputeOutcome
    region_bound: f64,
}

impl TmaQuery {
    /// Whether the next computation must *resync* — assign its fresh
    /// region bound and sweep the stale band — rather than floor the
    /// bound: the last computation under-filled the band, or its region
    /// was sized for a much sparser window.
    fn resyncs(&self, shared: &IngestState) -> bool {
        self.admit == f64::NEG_INFINITY || outgrown(self.region_len, self.kmax, shared)
    }
}

/// TMA maintenance (paper Figure 9) with `k_max` skyband refill as the
/// default configuration: exact top-k prefixes served from a per-query
/// refill band, from-scratch (and, when several queries fall back in one
/// tick, *batched*) recomputation only when the band drains below `k`.
#[derive(Debug)]
pub struct TmaMaintenance {
    influence: InfluenceTable,
    scratch: ComputeScratch,
    queries: QueryRegistry<TmaQuery>,
    stats: EngineStats,
    changed: Vec<QueryId>,
    /// Reused per-tick scratch: slots whose band lost a tuple this cycle
    /// (deduplicated via the per-query `affected` flag).
    affected: Vec<QuerySlot>,
    batched: bool,
    /// Reused per-tick scratch of the batching machinery.
    pending: Vec<(QuerySlot, u32, OrderedF64)>,
    members: Vec<GroupMember>,
    outcomes: Vec<GroupOutcome>,
    group_slots: Vec<QuerySlot>,
    seed: Vec<Scored>,
}

impl TmaMaintenance {
    /// The current top-k result of a query as a borrowed slice (the
    /// k-prefix of its refill band).
    pub fn result_slice(&self, id: QueryId) -> Result<&[Scored]> {
        self.queries
            .get(id)
            .map(|q| q.band.prefix(q.query.k))
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.queries.ids()
    }

    /// The dense slot of a live query — the index its influence-list
    /// entries carry (diagnostics).
    pub fn query_slot(&self, id: QueryId) -> Option<QuerySlot> {
        self.queries.slot_of(id)
    }

    /// Queries whose result changed during the last cycle (sorted, deduped).
    pub fn changed_queries(&self) -> &[QueryId] {
        &self.changed
    }

    /// Current refill-band size of a query (between `k` and ~`k_max`).
    pub fn band_len(&self, id: QueryId) -> Result<usize> {
        self.queries
            .get(id)
            .map(|q| q.band.len())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Runs the computation module for `slot` at `k_max` depth and
    /// reseeds its refill band.
    // lint: hot-path
    fn recompute(
        influence: &mut InfluenceTable,
        scratch: &mut ComputeScratch,
        shared: &IngestState,
        stats: &mut EngineStats,
        seed: &mut Vec<Scored>,
        slot: QuerySlot,
        st: &mut TmaQuery,
    ) {
        // Resync (assign the fresh bound and sweep the stale band) only
        // when the previous traversal underfilled the band — registration,
        // or a window drained below k_max — or the window has outgrown
        // the region. Otherwise the region bound is a monotone floor: a
        // tightening recomputation keeps the old, larger listing (a
        // superset region is sound — arrivals in the extra cells fail the
        // admission test, expirations miss the band — it only costs
        // replay probes), so a threshold flip-flop between recomputations
        // stops churning the influence lists.
        let resync = st.resyncs(shared);
        let out = compute_topk(
            shared.grid(),
            scratch,
            Some(InfluenceUpdate {
                table: influence,
                slot,
                listed_above: st.region_bound,
            }),
            &st.query.f,
            st.kmax,
            st.query.constraint.as_ref(),
            true,
            Some(std::mem::take(&mut st.rec)),
        );
        stats.recompute_queries += 1;
        stats.recompute_groups += 1;
        absorb_compute(stats, out.stats);
        // Seed the band with the top-k_max plus the candidates tying the
        // k_max-th score: a tie-loser outlives the tied band member and
        // can enter a future result.
        seed.clear();
        seed.extend_from_slice(out.top.as_slice());
        seed.extend_from_slice(&out.boundary_ties);
        st.band.rebuild(seed);
        st.admit = out.top.threshold();
        st.rec = out.top;
        if resync {
            st.region_bound = out.region_bound;
            st.region_len = shared.window().len();
            stats.cleanup_cells += cleanup_from_frontier(
                shared.grid(),
                influence,
                scratch,
                slot,
                &st.query.f,
                st.query.constraint.as_ref(),
            );
        } else {
            st.region_bound = st.region_bound.min(out.region_bound);
        }
    }

    /// Band-size cap above which a *tightening* recomputation fires even
    /// though the band is healthy. The admission threshold is static
    /// between recomputations, so a query registered over a sparse window
    /// (admit −∞) would otherwise admit every arrival into its band until
    /// the growth resync ([`outgrown`]) fires — never, on a window below
    /// that rule's floor. One traversal resets the band to ~`k_max`
    /// entries and raises the threshold to the `k_max`-th score (the
    /// admit-−∞ trigger also makes that traversal a *resync*, so the
    /// flood-sized influence region is swept rather than floored).
    fn fat_cap(kmax: usize) -> usize {
        2 * kmax + 8
    }

    /// Whether `st` must fall back to a from-scratch computation: either
    /// the band can no longer serve an exact k-prefix while the window
    /// could supply more candidates (when the band holds the *whole*
    /// window it is exact by construction, however small), or the band
    /// outgrew [`Self::fat_cap`] and wants its threshold tightened, or
    /// the window outgrew the query's region (a growth resync).
    fn needs_recompute(st: &TmaQuery, shared: &IngestState) -> bool {
        (st.band.len() < st.query.k && st.band.len() < shared.window().len())
            || st.band.len() > Self::fat_cap(st.kmax)
            || outgrown(st.region_len, st.kmax, shared)
    }
}

impl QueryMaintenance for TmaMaintenance {
    const SHARED_LABEL: &'static str = "TMA-SHARED";

    fn new_for(shared: &IngestState) -> TmaMaintenance {
        let cells = shared.grid().num_cells();
        TmaMaintenance {
            influence: InfluenceTable::new(cells),
            scratch: ComputeScratch::new(cells),
            queries: QueryRegistry::new(),
            stats: EngineStats::default(),
            changed: Vec::new(),
            affected: Vec::new(),
            batched: true,
            pending: Vec::new(),
            members: Vec::new(),
            outcomes: Vec::new(),
            group_slots: Vec::new(),
            seed: Vec::new(),
        }
    }

    fn register_query(&mut self, shared: &IngestState, id: QueryId, query: Query) -> Result<()> {
        check_dims(shared, &query)?;
        let kmax = tuned_kmax(query.k);
        let band = Skyband::new(kmax)?;
        let slot = self.queries.insert(
            id,
            TmaQuery {
                query,
                band,
                kmax,
                admit: f64::NEG_INFINITY,
                region_len: 0,
                rec: TopList::default(),
                affected: false,
                region_bound: f64::INFINITY,
            },
        )?;
        let Self {
            influence,
            scratch,
            queries,
            stats,
            seed,
            ..
        } = self;
        let (_, st) = queries.slot_mut(slot);
        st.rec = TopList::with_tie_tracking(st.kmax);
        Self::recompute(influence, scratch, shared, stats, seed, slot, st);
        Ok(())
    }

    fn remove_query(&mut self, shared: &IngestState, id: QueryId) -> Result<()> {
        let (slot, st) = self.queries.remove(id)?;
        self.stats.cleanup_cells += remove_query_walk(
            shared.grid(),
            &mut self.influence,
            &mut self.scratch,
            slot,
            &st.query.f,
            st.query.constraint.as_ref(),
        );
        Ok(())
    }

    // lint: hot-path
    fn apply_events(&mut self, shared: &IngestState) -> Result<()> {
        self.changed.clear();
        let dims = shared.dims();
        let Self {
            influence,
            scratch,
            queries,
            stats,
            changed,
            affected,
            batched,
            pending,
            members,
            outcomes,
            group_slots,
            seed,
        } = self;
        affected.clear();

        // ---- Pins (Figure 9, lines 3-7), inverted: cell → query → tuple.
        // The run's packed coordinate block (the tail of the cell's own
        // point block, still warm from ingest) streams through the scoring
        // kernel once per listed query; no window resolution per tuple.
        // Arrivals scoring at/above the admission threshold enter the
        // refill band; they change the *visible* result only when they
        // land inside the k-prefix.
        for (cell, ids) in shared.arrival_runs() {
            let slots = influence.as_slice(cell);
            if slots.is_empty() {
                continue;
            }
            let Some(ids) = live_suffix(shared.window(), ids) else {
                continue;
            };
            let coords = shared.arrival_run_coords(cell, ids.len());
            for &slot in slots {
                stats.cell_probes += 1;
                stats.tuple_probes += ids.len() as u64;
                let (qid, st) = queries.slot_mut(slot);
                let k = st.query.k;
                let admit = st.admit;
                let band = &mut st.band;
                let mut stored = 0u64;
                let mut visible = false;
                kernel::scan_block(
                    &st.query.f,
                    dims,
                    ids,
                    coords,
                    st.query.constraint.as_ref(),
                    |id, score| {
                        if score >= admit {
                            if let Some(pos) = band.insert(Scored::new(score, id)) {
                                stored += 1;
                                visible |= pos < k;
                            }
                        }
                    },
                );
                if stored > 0 {
                    stats.result_updates += stored;
                    // A band past the cap, or a region the window has
                    // outgrown, schedules a tightening recomputation
                    // (checked with the deficient ones).
                    if !st.affected
                        && (st.band.len() > Self::fat_cap(st.kmax)
                            || outgrown(st.region_len, st.kmax, shared))
                    {
                        st.affected = true;
                        affected.push(slot);
                    }
                }
                if visible {
                    changed.push(qid);
                }
            }
        }

        // ---- Pdel (lines 8-11), same inversion; no coordinates needed.
        // An expiry inside the band is absorbed by the refill: the next
        // band entry slides into the k-prefix with no grid work at all.
        //
        // A synchronized expiry wave turns the per-tuple replay quadratic:
        // the wave's tuples are the very top scorers, so every one of them
        // lands in cells that every query covers, and each (cell, covering
        // query, tuple) triple costs a linear band probe. Once the probe
        // count exceeds the fleet size, one sweep per band against the
        // oldest live id is strictly cheaper — windows expire in id order,
        // so "older than the oldest live tuple" identifies the expired
        // band entries exactly.
        let mut probes = 0usize;
        for (cell, tuples) in shared.expiry_runs() {
            probes += influence.as_slice(cell).len() * tuples.len();
        }
        if probes > 2 * queries.len() {
            let cutoff = shared.window().oldest().unwrap_or(TupleId(u64::MAX));
            for (slot, qid, st) in queries.slots_mut() {
                stats.tuple_probes += 1;
                if let Some(pos) = st.band.expire_before(cutoff) {
                    if pos < st.query.k {
                        changed.push(qid);
                    }
                    if !st.affected {
                        st.affected = true;
                        affected.push(slot);
                    }
                }
            }
        } else {
            for (cell, tuples) in shared.expiry_runs() {
                for &slot in influence.as_slice(cell) {
                    stats.cell_probes += 1;
                    let (qid, st) = queries.slot_mut(slot);
                    let k = st.query.k;
                    for &id in tuples {
                        stats.tuple_probes += 1;
                        if let Some(pos) = st.band.expire(id) {
                            if pos < k {
                                changed.push(qid);
                            }
                            if !st.affected {
                                st.affected = true;
                                affected.push(slot);
                            }
                        }
                    }
                }
            }
        }

        // ---- Fallback recomputation (lines 12-21) — only for queries
        // whose band drained below k. Unconstrained fallbacks are grouped
        // by monotonicity signature and served by one shared traversal
        // per group; constrained ones (and singleton groups) go solo.
        // (A recomputation never has to mark `changed` itself: a
        // deficiency implies an expiry inside the k-prefix, which already
        // pushed the query; a cap-tightening rebuild reproduces the exact
        // prefix the band was already serving.)
        pending.clear();
        for &slot in affected.iter() {
            let (_, st) = queries.slot_mut(slot);
            st.affected = false;
            if !Self::needs_recompute(st, shared) {
                continue;
            }
            if *batched && st.query.constraint.is_none() {
                pending.push((
                    slot,
                    mono_signature(&st.query.f, dims),
                    OrderedF64::new(st.admit),
                ));
            } else {
                Self::recompute(influence, scratch, shared, stats, seed, slot, st);
            }
        }

        // Within a depth, slots descend: when a mass resync sweeps many
        // members out of the same long lists (queries registered on an
        // empty window all list every cell), each chunk's members are the
        // highest slots left, at the tail of every sorted list — so each
        // sweep touches only that tail (see `InfluenceTable::sweep`).
        pending.sort_unstable_by_key(|&(slot, sig, depth)| {
            (sig, std::cmp::Reverse(depth), std::cmp::Reverse(slot.0))
        });
        let mut i = 0;
        while i < pending.len() {
            let sig = pending[i].1;
            let mut sig_end = i + 1;
            while sig_end < pending.len() && pending[sig_end].1 == sig {
                sig_end += 1;
            }
            // One traversal per GROUP_CHUNK members, sliced off the
            // signature run in descending-threshold order: a shared
            // traversal costs O(members x envelope cells), and mixing a
            // deep (stale or deficient) member into a shallow group makes
            // every member pay its envelope. Depth-sorted chunks keep
            // each traversal as shallow as its own members need.
            let j = sig_end.min(i + GROUP_CHUNK);
            if j - i == 1 {
                let slot = pending[i].0;
                let (_, st) = queries.slot_mut(slot);
                Self::recompute(influence, scratch, shared, stats, seed, slot, st);
            } else {
                members.clear();
                // `group_slots` collects only the members that resync
                // (see `TmaQuery::resyncs`); everyone else keeps their
                // superset listing (monotone region floor, see
                // `recompute`) and needs no frontier sweep.
                group_slots.clear();
                let mut walk_f: Option<ScoreFn> = None;
                let mut total = 0u64;
                for &(slot, _, _) in &pending[i..j] {
                    let (_, st) = queries.slot_mut(slot);
                    if walk_f.is_none() {
                        // lint: allow(alloc, reason=one O(dims) coefficient copy per refill group, amortised by the traversal it seeds)
                        walk_f = Some(st.query.f.clone());
                    }
                    let resync = st.resyncs(shared);
                    members.push(GroupMember {
                        slot,
                        // lint: allow(alloc, reason=one O(dims) coefficient copy per member per refill, amortised by the shared traversal)
                        f: st.query.f.clone(),
                        k: st.kmax,
                        listed_above: st.region_bound,
                        keep_superset: !resync,
                        track_ties: true,
                        reuse: Some(std::mem::take(&mut st.rec)),
                    });
                    if resync {
                        group_slots.push(slot);
                    }
                    total += 1;
                }
                let gstats =
                    compute_topk_group(shared.grid(), scratch, influence, members, outcomes);
                stats.recompute_groups += 1;
                stats.recompute_queries += total;
                absorb_compute(stats, gstats);
                debug_assert!(walk_f.is_some() || group_slots.is_empty());
                if let Some(walk) = walk_f.as_ref().filter(|_| !group_slots.is_empty()) {
                    group_slots.sort_unstable();
                    stats.cleanup_cells += cleanup_group_from_frontier(
                        shared.grid(),
                        influence,
                        scratch,
                        group_slots,
                        walk,
                    );
                }
                for out in outcomes.drain(..) {
                    let (_, st) = queries.slot_mut(out.slot);
                    seed.clear();
                    seed.extend_from_slice(out.top.as_slice());
                    seed.extend_from_slice(&out.boundary_ties);
                    st.band.rebuild(seed);
                    if st.resyncs(shared) {
                        st.region_bound = out.region_bound;
                        st.region_len = shared.window().len();
                    } else {
                        st.region_bound = st.region_bound.min(out.region_bound);
                    }
                    st.admit = out.top.threshold();
                    st.rec = out.top;
                }
            }
            i = j;
        }

        self.changed.sort_unstable();
        self.changed.dedup();
        Ok(())
    }

    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        self.result_slice(id).map(<[Scored]>::to_vec)
    }

    fn snapshot(&mut self, shared: &IngestState, query: &Query) -> Result<Vec<Scored>> {
        check_dims(shared, query)?;
        let out = compute_topk(
            shared.grid(),
            &mut self.scratch,
            None,
            &query.f,
            query.k,
            query.constraint.as_ref(),
            false,
            None,
        );
        Ok(out.top.as_slice().to_vec())
    }

    fn query_count(&self) -> usize {
        self.queries.len()
    }

    fn influence(&self) -> &InfluenceTable {
        &self.influence
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.influence.space_bytes()
            + self.scratch.space_bytes()
            + self.queries.space_bytes()
            + (self.changed.capacity() * std::mem::size_of::<QueryId>())
            + (self.affected.capacity() * std::mem::size_of::<QuerySlot>())
            + (self.pending.capacity() * std::mem::size_of::<(QuerySlot, u32, OrderedF64)>())
            + (self.members.capacity() * std::mem::size_of::<GroupMember>())
            + (self.outcomes.capacity() * std::mem::size_of::<GroupOutcome>())
            + (self.group_slots.capacity() * std::mem::size_of::<QuerySlot>())
            + (self.seed.capacity() * std::mem::size_of::<Scored>())
            + self
                .queries
                .iter()
                .map(|(_, q)| {
                    std::mem::size_of::<TmaQuery>() + q.band.space_bytes() + q.rec.space_bytes()
                })
                .sum::<usize>()
    }

    fn set_batched_recompute(&mut self, on: bool) {
        self.batched = on;
    }

    fn check_invariants(&self, shared: &IngestState) -> Result<()> {
        for (slot, id, st) in self.queries.slots() {
            check_query(
                shared.grid(),
                &self.influence,
                (id, slot),
                &st.query,
                st.region_bound,
                (&st.band, st.admit),
            )?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct SmaQuery {
    query: Query,
    skyband: Skyband,
    /// Monotone floor of [`ComputeOutcome::region_bound`] over the
    /// computations since the last resync (see the TMA twin of this
    /// field): cells with traversal keys strictly above this already
    /// carry the slot.
    ///
    /// [`ComputeOutcome::region_bound`]: crate::compute::ComputeOutcome
    region_bound: f64,
    /// k-th score at the last from-scratch computation: the skyband
    /// admission threshold. It is −∞ when that computation found fewer
    /// than k candidates (the window, or the constraint box, held fewer
    /// than k tuples — always so for a query registered before data
    /// arrives). The traversal then listed the query in every cell, every
    /// arrival is admitted, and the skyband is the k-skyband of the whole
    /// window, which never turns deficient; only a growth resync
    /// ([`outgrown`]) ends that state.
    top_score: f64,
    /// Window length when `region_bound` was last assigned — the last
    /// resync (see [`outgrown`]).
    region_len: usize,
    touched: bool,
}

impl SmaQuery {
    /// Whether the next computation must *resync* — assign its fresh
    /// region bound and sweep the stale band — rather than floor the
    /// bound: the last computation under-filled the skyband, or its
    /// region was sized for a much sparser window.
    fn resyncs(&self, shared: &IngestState) -> bool {
        self.top_score == f64::NEG_INFINITY || outgrown(self.region_len, self.query.k, shared)
    }
}

/// SMA maintenance (paper Figure 11): k-skyband upkeep in (score,
/// expiry-time) space, recomputing only on deficiency — and, when several
/// queries turn deficient in the same tick, recomputing them with one
/// shared traversal per monotonicity group.
#[derive(Debug)]
pub struct SmaMaintenance {
    influence: InfluenceTable,
    scratch: ComputeScratch,
    queries: QueryRegistry<SmaQuery>,
    stats: EngineStats,
    changed: Vec<QueryId>,
    /// Reused per-tick scratch: slots whose skyband was touched this cycle
    /// (deduplicated via the per-query `touched` flag).
    affected: Vec<QuerySlot>,
    batched: bool,
    /// Reused per-tick scratch of the batching machinery.
    pending: Vec<(QuerySlot, u32, OrderedF64)>,
    members: Vec<GroupMember>,
    outcomes: Vec<GroupOutcome>,
    group_slots: Vec<QuerySlot>,
    seed: Vec<Scored>,
}

impl SmaMaintenance {
    /// Runs the computation module for `slot` and reseeds its skyband.
    // lint: hot-path
    fn recompute(
        influence: &mut InfluenceTable,
        scratch: &mut ComputeScratch,
        shared: &IngestState,
        stats: &mut EngineStats,
        seed: &mut Vec<Scored>,
        slot: QuerySlot,
        st: &mut SmaQuery,
    ) {
        // Monotone region floor, as in the TMA engine: resync (assign the
        // fresh bound, sweep the stale band) only when the previous
        // traversal underfilled the skyband or the window outgrew it;
        // otherwise keep the superset listing and floor the bound.
        let resync = st.resyncs(shared);
        let out = compute_topk(
            shared.grid(),
            scratch,
            Some(InfluenceUpdate {
                table: influence,
                slot,
                listed_above: st.region_bound,
            }),
            &st.query.f,
            st.query.k,
            st.query.constraint.as_ref(),
            true,
            None,
        );
        stats.recompute_queries += 1;
        stats.recompute_groups += 1;
        absorb_compute(stats, out.stats);
        // Seed the skyband with the top-k plus the candidates tying the
        // k-th score: a tie-loser outlives the tied result member and can
        // enter a future result, so dropping it would lose exactness.
        seed.clear();
        seed.extend_from_slice(out.top.as_slice());
        seed.extend_from_slice(&out.boundary_ties);
        st.skyband.rebuild(seed);
        st.top_score = out.top.threshold();
        if resync {
            st.region_bound = out.region_bound;
            st.region_len = shared.window().len();
            stats.cleanup_cells += cleanup_from_frontier(
                shared.grid(),
                influence,
                scratch,
                slot,
                &st.query.f,
                st.query.constraint.as_ref(),
            );
        } else {
            st.region_bound = st.region_bound.min(out.region_bound);
        }
    }

    /// Current skyband size of a query (Table 2 reports its average).
    pub fn skyband_len(&self, id: QueryId) -> Result<usize> {
        self.queries
            .get(id)
            .map(|q| q.skyband.len())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Mean skyband size across queries.
    pub fn avg_skyband_len(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .map(|(_, q)| q.skyband.len())
            .sum::<usize>() as f64
            / self.queries.len() as f64
    }

    /// Registered query ids.
    pub fn query_ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.queries.ids()
    }

    /// The dense slot of a live query — the index its influence-list
    /// entries carry (diagnostics).
    pub fn query_slot(&self, id: QueryId) -> Option<QuerySlot> {
        self.queries.slot_of(id)
    }

    /// Queries whose skyband changed during the last cycle (sorted,
    /// deduped).
    pub fn changed_queries(&self) -> &[QueryId] {
        &self.changed
    }
}

impl QueryMaintenance for SmaMaintenance {
    const SHARED_LABEL: &'static str = "SMA-SHARED";

    fn new_for(shared: &IngestState) -> SmaMaintenance {
        let cells = shared.grid().num_cells();
        SmaMaintenance {
            influence: InfluenceTable::new(cells),
            scratch: ComputeScratch::new(cells),
            queries: QueryRegistry::new(),
            stats: EngineStats::default(),
            changed: Vec::new(),
            affected: Vec::new(),
            batched: true,
            pending: Vec::new(),
            members: Vec::new(),
            outcomes: Vec::new(),
            group_slots: Vec::new(),
            seed: Vec::new(),
        }
    }

    fn register_query(&mut self, shared: &IngestState, id: QueryId, query: Query) -> Result<()> {
        check_dims(shared, &query)?;
        let skyband = Skyband::new(query.k)?;
        let slot = self.queries.insert(
            id,
            SmaQuery {
                skyband,
                query,
                region_bound: f64::INFINITY,
                top_score: f64::NEG_INFINITY,
                region_len: 0,
                touched: false,
            },
        )?;
        let Self {
            influence,
            scratch,
            queries,
            stats,
            seed,
            ..
        } = self;
        let (_, st) = queries.slot_mut(slot);
        Self::recompute(influence, scratch, shared, stats, seed, slot, st);
        Ok(())
    }

    fn remove_query(&mut self, shared: &IngestState, id: QueryId) -> Result<()> {
        let (slot, st) = self.queries.remove(id)?;
        self.stats.cleanup_cells += remove_query_walk(
            shared.grid(),
            &mut self.influence,
            &mut self.scratch,
            slot,
            &st.query.f,
            st.query.constraint.as_ref(),
        );
        Ok(())
    }

    // lint: hot-path
    fn apply_events(&mut self, shared: &IngestState) -> Result<()> {
        self.changed.clear();
        let dims = shared.dims();
        let Self {
            influence,
            scratch,
            queries,
            stats,
            changed,
            affected,
            batched,
            pending,
            members,
            outcomes,
            group_slots,
            seed,
        } = self;
        affected.clear();

        // ---- Pins (Figure 11, lines 4-11), inverted: cell → query →
        // tuple; the run's coordinate block (the tail of the cell's own
        // point block) streams through the scoring kernel once per listed
        // query.
        for (cell, ids) in shared.arrival_runs() {
            let slots = influence.as_slice(cell);
            if slots.is_empty() {
                continue;
            }
            let Some(ids) = live_suffix(shared.window(), ids) else {
                continue;
            };
            let coords = shared.arrival_run_coords(cell, ids.len());
            for &slot in slots {
                stats.cell_probes += 1;
                stats.tuple_probes += ids.len() as u64;
                let (_, st) = queries.slot_mut(slot);
                let admit = st.top_score;
                let skyband = &mut st.skyband;
                let mut inserted = 0u64;
                kernel::scan_block(
                    &st.query.f,
                    dims,
                    ids,
                    coords,
                    st.query.constraint.as_ref(),
                    |id, score| {
                        if score >= admit {
                            skyband.insert(Scored::new(score, id));
                            inserted += 1;
                        }
                    },
                );
                if inserted > 0 {
                    stats.result_updates += inserted;
                    if !st.touched {
                        st.touched = true;
                        affected.push(slot);
                    }
                }
            }
        }

        // ---- Pdel (lines 12-16) ----
        // Same mass-expiry escape hatch as TMA: when a synchronized wave
        // would probe more (cell, query, tuple) triples than there are
        // queries, sweep each skyband once against the oldest live id
        // instead of replaying tuple by tuple.
        let mut probes = 0usize;
        for (cell, tuples) in shared.expiry_runs() {
            probes += influence.as_slice(cell).len() * tuples.len();
        }
        if probes > 2 * queries.len() {
            let cutoff = shared.window().oldest().unwrap_or(TupleId(u64::MAX));
            for (slot, _, st) in queries.slots_mut() {
                stats.tuple_probes += 1;
                if st.skyband.expire_before(cutoff).is_some() && !st.touched {
                    st.touched = true;
                    affected.push(slot);
                }
            }
        } else {
            for (cell, tuples) in shared.expiry_runs() {
                for &slot in influence.as_slice(cell) {
                    stats.cell_probes += 1;
                    let (_, st) = queries.slot_mut(slot);
                    for &id in tuples {
                        stats.tuple_probes += 1;
                        if st.skyband.expire(id).is_some() && !st.touched {
                            st.touched = true;
                            affected.push(slot);
                        }
                    }
                }
            }
        }

        // ---- Deficiency handling (lines 17-22) ----
        // Recompute only if the skyband lost too many entries AND the
        // window could supply more (a window smaller than k can never
        // fill the band — recomputing every tick would be wasted work,
        // and the influence lists already cover the whole grid then), or
        // if the window outgrew the query's region (a growth resync).
        // Unconstrained queries are grouped by monotonicity signature and
        // recomputed with one shared traversal per group.
        pending.clear();
        for &slot in affected.iter() {
            let (qid, st) = queries.slot_mut(slot);
            st.touched = false;
            if (st.skyband.is_deficient() && st.skyband.len() < shared.window().len())
                || outgrown(st.region_len, st.query.k, shared)
            {
                if *batched && st.query.constraint.is_none() {
                    pending.push((
                        slot,
                        mono_signature(&st.query.f, dims),
                        OrderedF64::new(st.top_score),
                    ));
                } else {
                    Self::recompute(influence, scratch, shared, stats, seed, slot, st);
                }
            }
            changed.push(qid);
        }

        // Slots descend within a depth, as in the TMA engine.
        pending.sort_unstable_by_key(|&(slot, sig, depth)| {
            (sig, std::cmp::Reverse(depth), std::cmp::Reverse(slot.0))
        });
        let mut i = 0;
        while i < pending.len() {
            let sig = pending[i].1;
            let mut sig_end = i + 1;
            while sig_end < pending.len() && pending[sig_end].1 == sig {
                sig_end += 1;
            }
            // One traversal per GROUP_CHUNK members, sliced off the
            // signature run in descending-threshold order: a shared
            // traversal costs O(members x envelope cells), and mixing a
            // deep (stale or deficient) member into a shallow group makes
            // every member pay its envelope. Depth-sorted chunks keep
            // each traversal as shallow as its own members need.
            let j = sig_end.min(i + GROUP_CHUNK);
            if j - i == 1 {
                let slot = pending[i].0;
                let (_, st) = queries.slot_mut(slot);
                Self::recompute(influence, scratch, shared, stats, seed, slot, st);
            } else {
                members.clear();
                // As in the TMA engine: `group_slots` collects only the
                // resyncing members; the rest keep their superset listing
                // (monotone region floor) and skip the frontier sweep.
                group_slots.clear();
                let mut walk_f: Option<ScoreFn> = None;
                let mut total = 0u64;
                for &(slot, _, _) in &pending[i..j] {
                    let (_, st) = queries.slot_mut(slot);
                    if walk_f.is_none() {
                        // lint: allow(alloc, reason=one O(dims) coefficient copy per refill group, amortised by the traversal it seeds)
                        walk_f = Some(st.query.f.clone());
                    }
                    let resync = st.resyncs(shared);
                    members.push(GroupMember {
                        slot,
                        // lint: allow(alloc, reason=one O(dims) coefficient copy per member per refill, amortised by the shared traversal)
                        f: st.query.f.clone(),
                        k: st.query.k,
                        listed_above: st.region_bound,
                        keep_superset: !resync,
                        track_ties: true,
                        reuse: None,
                    });
                    if resync {
                        group_slots.push(slot);
                    }
                    total += 1;
                }
                let gstats =
                    compute_topk_group(shared.grid(), scratch, influence, members, outcomes);
                stats.recompute_groups += 1;
                stats.recompute_queries += total;
                absorb_compute(stats, gstats);
                debug_assert!(walk_f.is_some() || group_slots.is_empty());
                if let Some(walk) = walk_f.as_ref().filter(|_| !group_slots.is_empty()) {
                    group_slots.sort_unstable();
                    stats.cleanup_cells += cleanup_group_from_frontier(
                        shared.grid(),
                        influence,
                        scratch,
                        group_slots,
                        walk,
                    );
                }
                for out in outcomes.drain(..) {
                    let (_, st) = queries.slot_mut(out.slot);
                    seed.clear();
                    seed.extend_from_slice(out.top.as_slice());
                    seed.extend_from_slice(&out.boundary_ties);
                    st.skyband.rebuild(seed);
                    if st.resyncs(shared) {
                        st.region_bound = out.region_bound;
                        st.region_len = shared.window().len();
                    } else {
                        st.region_bound = st.region_bound.min(out.region_bound);
                    }
                    st.top_score = out.top.threshold();
                }
            }
            i = j;
        }

        self.changed.sort_unstable();
        self.changed.dedup();
        Ok(())
    }

    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        self.queries
            .get(id)
            .map(|q| q.skyband.top_scored().to_vec())
            .ok_or(TkmError::UnknownQuery(id))
    }

    fn snapshot(&mut self, shared: &IngestState, query: &Query) -> Result<Vec<Scored>> {
        check_dims(shared, query)?;
        let out = compute_topk(
            shared.grid(),
            &mut self.scratch,
            None,
            &query.f,
            query.k,
            query.constraint.as_ref(),
            false,
            None,
        );
        Ok(out.top.as_slice().to_vec())
    }

    fn query_count(&self) -> usize {
        self.queries.len()
    }

    fn influence(&self) -> &InfluenceTable {
        &self.influence
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.influence.space_bytes()
            + self.scratch.space_bytes()
            + self.queries.space_bytes()
            + (self.changed.capacity() * std::mem::size_of::<QueryId>())
            + (self.affected.capacity() * std::mem::size_of::<QuerySlot>())
            + (self.pending.capacity() * std::mem::size_of::<(QuerySlot, u32, OrderedF64)>())
            + (self.members.capacity() * std::mem::size_of::<GroupMember>())
            + (self.outcomes.capacity() * std::mem::size_of::<GroupOutcome>())
            + (self.group_slots.capacity() * std::mem::size_of::<QuerySlot>())
            + (self.seed.capacity() * std::mem::size_of::<Scored>())
            + self
                .queries
                .iter()
                .map(|(_, q)| std::mem::size_of::<SmaQuery>() + q.skyband.space_bytes())
                .sum::<usize>()
    }

    fn set_batched_recompute(&mut self, on: bool) {
        self.batched = on;
    }

    fn check_invariants(&self, shared: &IngestState) -> Result<()> {
        for (slot, id, st) in self.queries.slots() {
            check_query(
                shared.grid(),
                &self.influence,
                (id, slot),
                &st.query,
                st.region_bound,
                (&st.skyband, st.top_score),
            )?;
        }
        Ok(())
    }
}
