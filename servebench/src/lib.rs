//! One served benchmark of the continuous top-k monitor: the real
//! `tkm_service::Service` on loopback, driven by a two-thread generator,
//! reporting end-to-end metrics (untraced) or a per-layer breakdown
//! (traced). See `README.md` next to this crate for the workloads and
//! the metric catalog.

pub mod replay;
pub mod report;
pub mod wire;
pub mod workload;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use replay::Verdict;
use report::{catalog, Dist, Report};
use wire::{Block, Plan, WireRun};
use workload::{Inputs, Workload};

/// Set-ups per untraced run: at least `SETUPS.0`, and more until
/// `SETUPS.1` wall seconds went into them; `setup_s` is the median of
/// their CPU seconds.
const SETUPS: (usize, f64) = (5, 3.0);

/// Share of the measured time spent in the closed-loop capacity phase;
/// the open-loop freshness phase takes the rest.
const CLOSED_SHARE: f64 = 0.5;

/// Closed-loop blocks; each rate is the median block's.
const BLOCKS: usize = 8;

/// Turns the closed and the open loop take within a run.
const CYCLES: usize = 4;

/// Most stretches the open loop is cut into for `fresh_p99_us`.
const FRESH_STRETCHES: usize = 7;

/// Samples a stretch needs for its p99 (10 beyond the rank).
const P99_SAMPLES: usize = 1000;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (set-up and checking come on top).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => out.workload = value,
                "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !out.seconds.is_finite() || out.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(out)
    }
}

/// The result of one run.
pub struct Outcome {
    /// Metric values and printed lines.
    pub report: Report,
    /// The correctness check.
    pub verdict: Verdict,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Outcome {
    /// Whether the outputs were right and every catalogued metric has a
    /// value.
    pub fn correct(&self) -> bool {
        self.verdict.failed == 0 && self.report.missing(catalog(self.traced)).is_empty()
    }

    /// Everything to print: the readable lines, every metric with its
    /// unit, and the one-line JSON result last.
    pub fn render(&self) -> String {
        let cat = catalog(self.traced);
        let mut out = self.report.text(cat);
        for p in &self.verdict.problems {
            out += &format!("FAILED: {p}\n");
        }
        for m in self.report.missing(cat) {
            out += &format!("FAILED: no value for {m}\n");
        }
        out + &self.report.json(
            cat,
            self.correct(),
            self.verdict.attempted.max(1),
            self.verdict.failed,
        )
    }
}

/// Runs the named workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of: {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    run_workload(&w, args.seed, args.seconds, args.trace)
}

/// Runs one workload: generate inputs, serve and measure, check, and (when
/// traced) replay the layers in-process.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(w, seed).map_err(|e| e.to_string())?;
    let plan = Plan {
        setups: if traced { (1, 0.0) } else { SETUPS },
        closed: Duration::from_secs_f64(seconds * CLOSED_SHARE),
        blocks: BLOCKS,
        cycles: CYCLES,
        open: Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE)),
        traced,
    };
    let run = wire::run(w, &inputs, plan)?;
    let verdict = replay::verify(w, &inputs, &run)?;
    let mut r = Report::default();
    r.note(format!(
        "workload {} (seed {seed}): SMA d={} window={} rate={}/tick queries={} followed={} \
         churn={}x2/tick {} paced={}/s, {} ticks measured",
        w.name,
        w.dims,
        w.window,
        w.rate,
        w.queries,
        w.followed().len(),
        w.churn_pairs,
        if w.cold { "cold" } else { "warm" },
        w.paced_ticks_per_s,
        run.measured.clone().count(),
    ));
    end_to_end(w, &run, &verdict, &mut r);
    if traced {
        wire_layers(&run, &mut r);
        let stage_sum = replay::layers(w, &inputs, &run, &mut r)?;
        let rtt = r.get("service.tick_rtt_us_p50").unwrap_or(f64::NAN);
        r.set("trace.stage_sum_over_rtt", stage_sum / rtt);
    }
    Ok(Outcome {
        report: r,
        verdict,
        traced,
    })
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `b - a` in µs, negative when `b` came first.
fn signed_us(a: Instant, b: Instant) -> f64 {
    match b.checked_duration_since(a) {
        Some(d) => micros(d),
        None => -micros(a - b),
    }
}

fn stat(run: &WireRun, key: &str) -> f64 {
    run.stats
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

fn end_to_end(w: &Workload, run: &WireRun, v: &Verdict, r: &mut Report) {
    let setup = Dist::new(run.setup_s.clone());
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    r.note(format!(
        "setup: {} runs, CPU {:?} s, wall {:?} s",
        setup.len(),
        ms(&run.setup_s),
        ms(&run.setup_wall_s),
    ));
    r.set("setup_s", setup.median());

    let plain = || run.blocks.iter().filter(|b| !b.traced);
    r.note(format!(
        "closed loop ({} tuples/TICK), per block: {:.0?} tuples/s, {:.0?} tuples/CPU-s",
        w.rate,
        plain().map(Block::rate).collect::<Vec<_>>(),
        plain().map(Block::cpu_rate).collect::<Vec<_>>(),
    ));
    r.set(
        "capacity_tuples_per_s",
        block_rates(run, false, Block::rate),
    );
    r.set("tuples_per_cpu_s", block_rates(run, false, Block::cpu_rate));

    // Each sample belongs to the stretch of the open loop its tick was
    // scheduled in; the open loop is cut into as many equal stretches (at
    // most FRESH_STRETCHES) as leave every stretch enough samples for a
    // p99, and the p99 reported is the median stretch's.
    let due: HashMap<u64, (usize, Instant)> = run
        .schedule
        .iter()
        .enumerate()
        .map(|(i, &(at, t))| (at, (i, t)))
        .collect();
    let samples: Vec<(usize, f64)> = run
        .sub
        .deltas
        .iter()
        .filter_map(|d| due.get(&d.at).map(|&(i, t)| (i, signed_us(t, d.applied))))
        .collect();
    let fresh = Dist::new(samples.iter().map(|s| s.1).collect());
    r.timing(
        &format!(
            "freshness (open loop, {} TICKs at {}/s; scheduled send -> DELTA applied)",
            run.schedule.len(),
            w.paced_ticks_per_s
        ),
        &fresh,
        "us",
    );
    let stretches = (samples.len() / P99_SAMPLES).clamp(1, FRESH_STRETCHES);
    let ticks = run.schedule.len().max(1);
    let mut parts = vec![Vec::new(); stretches];
    for (i, v) in samples {
        parts[i * stretches / ticks].push(v);
    }
    let parts: Vec<Dist> = parts.into_iter().map(Dist::new).collect();
    let p99s = Dist::new(parts.iter().map(|d| d.p(990)).collect());
    r.note(format!(
        "fresh_p99_us (median stretch) = {} us; p99 per stretch: {}",
        p99s.median(),
        parts
            .iter()
            .map(|d| format!("{:.1} us (n={})", d.p(990), d.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    r.set("fresh_p50_us", fresh.median());
    r.set("fresh_p99_us", p99s.median());
    let late = Dist::new(run.late_us.clone());
    r.timing("generator lateness", &late, "us");
    r.note(format!("generator max backlog: {} ticks", run.max_backlog));

    r.set("engine_space_mb", stat(run, "space_bytes") / 1e6);
    let failed_ratio = v.failed as f64 / v.attempted.max(1) as f64;
    r.note(format!(
        "checked: {} attempted (requests + expected DELTAs), {} failed, failed_ratio {failed_ratio}",
        v.attempted, v.failed
    ));
    r.set("ok_ratio", 1.0 - failed_ratio);
}

fn wire_layers(run: &WireRun, r: &mut Report) {
    let rtt = Dist::new(run.spans.iter().map(|s| micros(s.ok - s.write)).collect());
    r.timing("service.tick_rtt (TICK written -> OK read)", &rtt, "us");
    r.set("service.tick_rtt_us_p50", rtt.median());
    r.set("service.tick_rtt_us_p99", rtt.p(990));

    // Per-tick aggregates of the subscriber's DELTAs.
    #[derive(Default, Clone, Copy)]
    struct Tick {
        last_read: Option<Instant>,
        bytes: u64,
        parse_ns: u64,
        apply_ns: u64,
    }
    let mut per_tick: HashMap<u64, Tick> = HashMap::new();
    for d in &run.sub.deltas {
        let t = per_tick.entry(d.at).or_default();
        t.last_read = Some(t.last_read.map_or(d.read, |l| l.max(d.read)));
        t.bytes += u64::from(d.bytes);
        t.parse_ns += u64::from(d.parse_ns);
        let handled = (d.applied - d.read).as_nanos() as u64;
        t.apply_ns += handled.saturating_sub(u64::from(d.parse_ns));
    }
    let deliver = Dist::new(
        run.spans
            .iter()
            .filter_map(|s| {
                let last = per_tick.get(&s.at)?.last_read?;
                Some(signed_us(s.ok, last))
            })
            .collect(),
    );
    r.timing(
        "reactor.deliver (OK read -> last DELTA of the tick read)",
        &deliver,
        "us",
    );
    r.set("reactor.deliver_us_p50", deliver.median());
    r.set("reactor.deliver_us_p99", deliver.p(990));

    let measured = run.measured.clone().count().max(1) as f64;
    let bytes: u64 = run
        .measured
        .clone()
        .filter_map(|at| per_tick.get(&at))
        .map(|t| t.bytes)
        .sum();
    r.set("reactor.push_bytes_per_tick", bytes as f64 / measured);

    let traced_ats = run
        .spans
        .iter()
        .map(|s| s.at)
        .chain(run.schedule.iter().map(|s| s.0));
    let (parse, apply): (Vec<f64>, Vec<f64>) = traced_ats
        .map(|at| {
            let t = per_tick.get(&at).copied().unwrap_or_default();
            (t.parse_ns as f64 / 1e3, t.apply_ns as f64 / 1e3)
        })
        .unzip();
    let (parse, apply) = (Dist::new(parse), Dist::new(apply));
    r.timing("client.parse (parse_server_line, per tick)", &parse, "us");
    r.timing("client.apply (apply_push, per tick)", &apply, "us");
    r.set("client.parse_us_per_tick", parse.median());
    r.set("client.apply_us_per_tick", apply.median());

    let late = Dist::new(run.late_us.clone());
    r.set("generator.late_us_p99", late.p(990));
    r.set("generator.max_backlog_ticks", run.max_backlog as f64);

    r.set(
        "service.encodes_per_delta",
        stat(run, "encodes") / run.sub.deltas.len().max(1) as f64,
    );
    r.set("service.resyncs", stat(run, "resyncs"));
    r.set("service.router_bytes", stat(run, "router_bytes"));

    let (plain, traced) = (
        block_rates(run, false, Block::cpu_rate),
        block_rates(run, true, Block::cpu_rate),
    );
    r.note(format!(
        "closed loop (median block): untraced {plain:.0} tuples/CPU-s, traced {traced:.0} tuples/CPU-s"
    ));
    r.set("trace.overhead_ratio", traced / plain);
}

/// The median `rate` of the closed-loop blocks of one kind.
fn block_rates(run: &WireRun, traced: bool, rate: fn(&Block) -> f64) -> f64 {
    let blocks = run.blocks.iter().filter(|b| b.traced == traced);
    Dist::new(blocks.map(rate).collect()).median()
}
