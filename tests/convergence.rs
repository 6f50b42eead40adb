//! Cold-start convergence: queries registered before any data arrives
//! must settle to the cost of queries registered on a warm window.
//!
//! Every scenario registers its queries on an empty window, runs one window
//! turnover, churns a quarter of the queries and sends a burst. A warm twin
//! fed the same stream then registers the same live queries on the same
//! window contents, and both run one more turnover. Throughout, both
//! engines must be bit-exact with [`OracleMonitor`] and pass their
//! `check_invariants`; over the last turnover the cold engine may probe at
//! most 1.5× the tuples the warm one does and hold at most 2× its
//! per-query state.
//!
//! Covered: SMA and TMA, count and time windows, the single-engine
//! monitors and the shared-ingest monitors at S ∈ {1, 3}.

mod common;

use common::BatchGen;
use topk_monitor::engines::GridSpec;
use topk_monitor::{
    ContinuousTopK, DataDist, EngineStats, FnFamily, OracleMonitor, Query, QueryGen, QueryId,
    Result, ScoreFn, SharedSmaMonitor, SharedTmaMonitor, SmaMonitor, Timestamp, TmaMonitor,
    WindowSpec,
};

const DIMS: usize = 2;
const K: usize = 10;
const QUERIES: usize = 48;
/// Tuples per tick.
const RATE: usize = 200;
/// Ticks per window turnover.
const TURNOVER: u64 = 10;
const GRID: GridSpec = GridSpec::CellBudget(1024);

/// The engine surface the scenarios drive: the common engine interface
/// plus the counters and the invariant walk.
trait Monitor: ContinuousTopK {
    fn counters(&self) -> EngineStats;
    fn check(&self) -> Result<()>;
}

macro_rules! monitor {
    ($($t:ty),*) => {$(
        impl Monitor for $t {
            fn counters(&self) -> EngineStats {
                self.stats()
            }
            fn check(&self) -> Result<()> {
                self.check_invariants()
            }
        }
    )*};
}

monitor!(SmaMonitor, TmaMonitor, SharedSmaMonitor, SharedTmaMonitor);

type Factory = fn(WindowSpec) -> Box<dyn Monitor>;

/// The cold engine, its warm twin and a query-less twin (whose size is the
/// shared ingest state every engine pays), fed in lockstep with the oracle.
struct Run {
    cold: Box<dyn Monitor>,
    warm: Box<dyn Monitor>,
    bare: Box<dyn Monitor>,
    oracle: OracleMonitor,
    batches: BatchGen,
    now: u64,
    live: Vec<(QueryId, Query)>,
    warm_live: bool,
}

impl Run {
    fn tick(&mut self, n: usize) {
        let batch = self.batches.batch(n);
        let now = Timestamp(self.now);
        self.now += 1;
        for m in [&mut self.cold, &mut self.warm, &mut self.bare] {
            m.tick(now, &batch).expect("tick");
        }
        self.oracle.tick(now, &batch).expect("oracle tick");
        let mut engines = vec![("cold", &self.cold)];
        if self.warm_live {
            engines.push(("warm", &self.warm));
        }
        for (label, m) in engines {
            for (id, _) in &self.live {
                let want = self.oracle.result(*id).expect("oracle result");
                assert_eq!(
                    m.result(*id).expect("result"),
                    want,
                    "{label} engine diverged from the oracle on {id} at {now}"
                );
            }
            if let Err(e) = m.check() {
                panic!("{label} engine at {now}: {e}");
            }
        }
    }

    /// Query-side bytes of an engine: its size minus the bare twin's.
    fn query_bytes(&self, m: &dyn Monitor) -> usize {
        m.space_bytes() - self.bare.space_bytes()
    }
}

fn converge(label: &str, make: Factory, window: WindowSpec, seed: u64) {
    let mut gen = QueryGen::new(DIMS, FnFamily::Linear, seed).expect("query gen");
    let mut next = 0u64;
    let mut fresh = |gen: &mut QueryGen| {
        next += 1;
        (
            QueryId(next),
            Query::top_k(gen.next_fn(), K).expect("query"),
        )
    };
    let mut run = Run {
        cold: make(window),
        warm: make(window),
        bare: make(window),
        oracle: OracleMonitor::new(DIMS, window).expect("oracle"),
        batches: BatchGen::new(DIMS, DataDist::Ind, seed),
        now: 0,
        live: Vec::new(),
        warm_live: false,
    };

    // Cold registration: nothing has arrived yet.
    for _ in 0..QUERIES {
        let (id, q) = fresh(&mut gen);
        run.cold.register_query(id, q.clone()).expect("register");
        run.oracle.register_query(id, q.clone()).expect("register");
        run.live.push((id, q));
    }
    // One window turnover.
    for _ in 0..TURNOVER {
        run.tick(RATE);
    }
    // Churn a quarter of the queries, two pairs per tick.
    for _ in 0..QUERIES / 8 {
        for _ in 0..2 {
            let (old, _) = run.live.remove(0);
            run.cold.remove_query(old).expect("remove");
            run.oracle.remove_query(old).expect("remove");
            let (id, q) = fresh(&mut gen);
            run.cold.register_query(id, q.clone()).expect("register");
            run.oracle.register_query(id, q.clone()).expect("register");
            run.live.push((id, q));
        }
        run.tick(RATE);
    }
    // A burst.
    run.tick(3 * RATE);

    // The warm twin registers the same live queries on the same window.
    for (id, q) in &run.live {
        run.warm.register_query(*id, q.clone()).expect("register");
    }
    run.warm_live = true;
    let (cold0, warm0) = (run.cold.counters(), run.warm.counters());
    for _ in 0..TURNOVER {
        run.tick(RATE);
    }
    let cold_probes = run.cold.counters().tuple_probes - cold0.tuple_probes;
    let warm_probes = run.warm.counters().tuple_probes - warm0.tuple_probes;
    let cold_bytes = run.query_bytes(run.cold.as_ref());
    let warm_bytes = run.query_bytes(run.warm.as_ref());
    assert!(
        cold_probes as f64 <= 1.5 * warm_probes as f64,
        "{label}: cold registration probes {cold_probes} tuples per turnover, warm {warm_probes}"
    );
    assert!(
        cold_bytes <= 2 * warm_bytes,
        "{label}: cold registration holds {cold_bytes} query-side bytes, warm {warm_bytes}"
    );
}

const WINDOWS: [(&str, WindowSpec); 2] = [
    ("count", WindowSpec::Count(RATE * TURNOVER as usize)),
    ("time", WindowSpec::Time(TURNOVER)),
];

fn converge_all(engine: &str, make: Factory) {
    for (seed, (kind, window)) in WINDOWS.into_iter().enumerate() {
        converge(&format!("{engine}/{kind}"), make, window, 11 + seed as u64);
    }
}

#[test]
fn sma_cold_registration_converges() {
    converge_all("SMA", |w| {
        Box::new(SmaMonitor::new(DIMS, w, GRID).expect("sma"))
    });
}

#[test]
fn tma_cold_registration_converges() {
    converge_all("TMA", |w| {
        Box::new(TmaMonitor::new(DIMS, w, GRID).expect("tma"))
    });
}

#[test]
fn shared_sma_cold_registration_converges() {
    converge_all("SMA-SHARED/S=1", |w| {
        Box::new(SharedSmaMonitor::new(DIMS, w, GRID, 1).expect("shared sma"))
    });
    converge_all("SMA-SHARED/S=3", |w| {
        Box::new(SharedSmaMonitor::new(DIMS, w, GRID, 3).expect("shared sma"))
    });
}

#[test]
fn shared_tma_cold_registration_converges() {
    converge_all("TMA-SHARED/S=1", |w| {
        Box::new(SharedTmaMonitor::new(DIMS, w, GRID, 1).expect("shared tma"))
    });
    converge_all("TMA-SHARED/S=3", |w| {
        Box::new(SharedTmaMonitor::new(DIMS, w, GRID, 3).expect("shared tma"))
    });
}

/// The cold-registration twin of the SMA unit test
/// `tracks_brute_force_over_stream`, through the sharded monitor: two
/// queries registered before the first tick on a small count window stay
/// exact, and SMA's headline claim — almost no recomputation — survives
/// the growth-resync rule under the same budget of 6.
#[test]
fn cold_small_window_keeps_recompute_budget() {
    fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        (0..n * DIMS)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
            })
            .collect()
    }
    let q1 = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).expect("fn"), 3).expect("query");
    let q2 = Query::top_k(ScoreFn::quadratic(vec![1.0, 0.3]).expect("fn"), 6).expect("query");
    for shards in [1, 3] {
        let window = WindowSpec::Count(50);
        let mut m =
            SharedSmaMonitor::new(DIMS, window, GridSpec::PerDim(8), shards).expect("monitor");
        let mut oracle = OracleMonitor::new(DIMS, window).expect("oracle");
        for (id, q) in [(QueryId(1), &q1), (QueryId(2), &q2)] {
            m.register_query(id, q.clone()).expect("register");
            oracle.register_query(id, q.clone()).expect("register");
        }
        for tick in 0..60u64 {
            let arrivals = lcg_stream(tick + 1, 8);
            m.tick(Timestamp(tick), &arrivals).expect("tick");
            oracle.tick(Timestamp(tick), &arrivals).expect("tick");
            for id in [QueryId(1), QueryId(2)] {
                assert_eq!(
                    m.result(id).expect("result"),
                    oracle.result(id).expect("oracle")
                );
            }
            m.check_invariants().expect("invariants");
        }
        let recomputes = m.stats().recomputations();
        assert!(
            recomputes <= 6,
            "S={shards}: SMA recomputed {recomputes} times from a cold registration"
        );
    }
}
