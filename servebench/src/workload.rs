//! The workloads and the inputs each one generates from its seed.

use tkm_common::{QueryId, Result, ScoreFn, TkmError};
use tkm_core::{GridSpec, Query, ServerConfig};
use tkm_datagen::{DataDist, FnFamily, PointGen, QueryGen};
use tkm_service::{Family, QuerySpec, Request, MAX_REQUEST_LINE};

/// Result size of every query.
pub const K: usize = 10;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ingest-heavy", "many-queries", "cold-start"];

/// One traffic mix. Every workload runs SMA over IND data with linear
/// query functions from [`QueryGen`].
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Tuple dimensionality.
    pub dims: usize,
    /// Count-window size.
    pub window: usize,
    /// Tuples per `TICK`.
    pub rate: usize,
    /// Standing queries registered at set-up.
    pub queries: usize,
    /// The subscriber follows every `follow_every`-th standing query.
    pub follow_every: usize,
    /// Unsubscribed queries kept registered for churn.
    pub churn_pool: usize,
    /// `UNREGISTER`+`REGISTER` pairs sent with every tick.
    pub churn_pairs: usize,
    /// Register before the first tick (and turn the window over once
    /// during set-up) instead of on a warm window.
    pub cold: bool,
    /// Grid sizing.
    pub grid: GridSpec,
    /// `TICK`s per second in the open-loop freshness phase.
    pub paced_ticks_per_s: f64,
}

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "",
            dims: 2,
            window: 0,
            rate: 0,
            queries: 0,
            follow_every: 1,
            churn_pool: 0,
            churn_pairs: 0,
            cold: false,
            grid: GridSpec::default(),
            paced_ticks_per_s: 0.0,
        };
        Some(match name {
            "ingest-heavy" => Workload {
                name: "ingest-heavy",
                dims: 4,
                window: 200_000,
                rate: 5000,
                queries: 16,
                paced_ticks_per_s: 12.0,
                ..base
            },
            "many-queries" => Workload {
                name: "many-queries",
                window: 50_000,
                rate: 2000,
                queries: 4096,
                follow_every: 16,
                churn_pool: 64,
                churn_pairs: 8,
                paced_ticks_per_s: 20.0,
                ..base
            },
            "cold-start" => Workload {
                name: "cold-start",
                window: 4000,
                rate: 200,
                queries: 256,
                cold: true,
                grid: GridSpec::CellBudget(4096),
                paced_ticks_per_s: 15.0,
                ..base
            },
            _ => return None,
        })
    }

    /// A reduced copy (window, rate and query counts divided by `by`)
    /// for the harness's own tests.
    pub fn shrunk(&self, by: usize) -> Workload {
        let by = by.max(1);
        Workload {
            window: (self.window / by).max(self.rate / by).max(1),
            rate: (self.rate / by).max(1),
            queries: (self.queries / by).max(self.follow_every),
            churn_pool: (self.churn_pool / by).max(self.churn_pairs),
            ..self.clone()
        }
    }

    /// The engine configuration the service and the reference share.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig::sma(self.dims, self.window).with_grid(self.grid)
    }

    /// Ticks for one full window turnover.
    pub fn turnover_ticks(&self) -> usize {
        self.window.div_ceil(self.rate)
    }

    /// The standing queries the subscriber follows (ids are assigned in
    /// registration order from 0).
    pub fn followed(&self) -> Vec<QueryId> {
        (0..self.queries as u64)
            .step_by(self.follow_every)
            .map(QueryId)
            .collect()
    }
}

/// One engine-visible operation of a served run, in the order the ingest
/// connection sent it. Replaying the script reproduces the run's engine
/// state exactly.
#[derive(Clone, Debug)]
pub enum Op {
    /// `REGISTER` (the server assigns the next id).
    Register(QuerySpec),
    /// `UNREGISTER`.
    Unregister(QueryId),
    /// `TICK` of batch `i` of the input pool.
    Tick(usize),
    /// The subscriber's `SUBSCRIBE`s completed here.
    Follow,
    /// Set-up ended; measured ticks follow.
    Measure,
}

/// The inputs a workload derives from its seed.
pub struct Inputs {
    /// A pool of two window turnovers of arrival batches, sent in a cycle
    /// (a batch never meets its own repeat inside the window).
    pub batches: Vec<Vec<f64>>,
    /// Each batch rendered as its `TICK` line, terminator included.
    pub tick_lines: Vec<Vec<u8>>,
    /// Set-up registrations: the standing queries, then the churn pool.
    pub specs: Vec<QuerySpec>,
    churn_seed: u64,
}

impl Inputs {
    /// Generates the inputs of `w` from `seed`. Refuses any `TICK` line at
    /// or over the server's request-line cap.
    pub fn generate(w: &Workload, seed: u64) -> Result<Inputs> {
        let mut points = PointGen::new(w.dims, DataDist::Ind, seed)?;
        let batches: Vec<Vec<f64>> = (0..2 * w.turnover_ticks())
            .map(|_| points.batch(w.rate))
            .collect();
        let mut tick_lines = Vec::with_capacity(batches.len());
        for b in &batches {
            let line = Request::Tick {
                arrivals: b.clone(),
            }
            .to_string();
            if line.len() >= MAX_REQUEST_LINE {
                return Err(TkmError::InvalidParameter(format!(
                    "a TICK line of {} bytes reaches the {MAX_REQUEST_LINE}-byte request cap",
                    line.len()
                )));
            }
            tick_lines.push(format!("{line}\n").into_bytes());
        }
        let mut gen = QueryGen::new(w.dims, FnFamily::Linear, seed.wrapping_add(1))?;
        let specs = (0..w.queries + w.churn_pool)
            .map(|_| spec_of(&gen.next_fn()))
            .collect();
        Ok(Inputs {
            batches,
            tick_lines,
            specs,
            churn_seed: seed.wrapping_add(2),
        })
    }

    /// The generator of the queries churn registers, fresh each call.
    pub fn churn_queries(&self, dims: usize) -> Result<QueryGen> {
        QueryGen::new(dims, FnFamily::Linear, self.churn_seed)
    }
}

/// The wire spec of a generated linear function.
pub fn spec_of(f: &ScoreFn) -> QuerySpec {
    let weights = match f {
        ScoreFn::Linear(l) => l.weights().to_vec(),
        other => unreachable!("QueryGen is asked for linear functions, got {other:?}"),
    };
    QuerySpec {
        k: K,
        weights,
        family: Family::Linear,
        range: None,
    }
}

/// The engine query a wire spec registers.
pub fn query_of(spec: &QuerySpec) -> Result<Query> {
    Query::top_k(ScoreFn::linear(spec.weights.clone())?, spec.k)
}
