//! In-process replays of a served run's script: the untimed reference
//! check, and the traced walk through the layers' public calls.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use tkm_common::{QueryId, Scored, Timestamp};
use tkm_core::{
    EngineStats, IngestState, IngestStats, MonitorServer, Query, QueryMaintenance, ResultDelta,
    SmaMaintenance,
};
use tkm_service::{apply_push, parse_request, parse_server_line, Push, Request, ServerLine};
use tkm_window::WindowSpec;

use crate::report::{Dist, Report};
use crate::wire::WireRun;
use crate::workload::{query_of, Inputs, Op, Workload};

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The outcome of checking a served run against the reference.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests sent plus `DELTA`s expected.
    pub attempted: u64,
    /// `ERR`/unexpected replies + `RESYNC`s + expected `DELTA`s never
    /// received (and received ones never expected) + mirror mismatches.
    pub failed: u64,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
}

/// Replays the script through a fresh [`MonitorServer`] and checks the
/// subscriber's stream and mirror against it and against the server's
/// own final snapshots.
pub fn verify(w: &Workload, inputs: &Inputs, run: &WireRun) -> Result<Verdict, String> {
    let mut reference =
        MonitorServer::new(w.server_config().with_delta_tracking(true)).map_err(err)?;
    let followed: BTreeSet<QueryId> = w.followed().into_iter().collect();
    let mut following = false;
    let mut expected = BTreeSet::new();
    for op in &run.script {
        match op {
            Op::Register(spec) => {
                reference
                    .register(query_of(spec).map_err(err)?)
                    .map_err(err)?;
            }
            Op::Unregister(q) => reference.unregister(*q).map_err(err)?,
            Op::Tick(i) => {
                reference.tick(&inputs.batches[*i]).map_err(err)?;
                let at = reference.now().0;
                for d in reference.take_deltas() {
                    if following && followed.contains(&d.query) {
                        expected.insert((d.query, at));
                    }
                }
            }
            Op::Follow => following = true,
            Op::Measure => {}
        }
    }

    let mut v = Verdict {
        attempted: run.sent + expected.len() as u64,
        ..Verdict::default()
    };
    let flag = |v: &mut Verdict, n: u64, what: String| {
        if n > 0 {
            v.failed += n;
            v.problems.push(what);
        }
    };
    flag(
        &mut v,
        run.failures,
        format!("{} failed replies", run.failures),
    );
    flag(
        &mut v,
        run.sub.resyncs,
        format!("{} RESYNCs", run.sub.resyncs),
    );
    flag(
        &mut v,
        run.sub.garbled,
        format!("{} garbled lines", run.sub.garbled),
    );

    let mut received = BTreeSet::new();
    let mut duplicates = 0;
    for d in &run.sub.deltas {
        if !received.insert((d.query, d.at)) {
            duplicates += 1;
        }
    }
    let missing = expected.difference(&received).count() as u64;
    let extra = received.difference(&expected).count() as u64 + duplicates;
    flag(
        &mut v,
        missing,
        format!("{missing} expected DELTAs never received"),
    );
    flag(
        &mut v,
        extra,
        format!("{extra} DELTAs received but not expected"),
    );

    for q in &followed {
        let mirror = run.sub.mirror.get(q).map(Vec::as_slice).unwrap_or(&[]);
        let truth = reference.result(*q).map_err(err)?;
        let wrong_snapshot = u64::from(run.snapshots.get(q).map(Vec::as_slice) != Some(mirror));
        let wrong_reference = u64::from(truth != mirror);
        flag(
            &mut v,
            wrong_snapshot,
            format!("{q}: mirror differs from the server's SNAPSHOT"),
        );
        flag(
            &mut v,
            wrong_reference,
            format!("{q}: mirror differs from the reference"),
        );
    }
    Ok(v)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-tick means of counter differences over the measured ticks.
fn per_tick(total: u64, ticks: usize) -> f64 {
    total as f64 / ticks.max(1) as f64
}

fn engine_diff(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        ticks: b.ticks - a.ticks,
        arrivals: b.arrivals - a.arrivals,
        expirations: b.expirations - a.expirations,
        recompute_queries: b.recompute_queries - a.recompute_queries,
        recompute_groups: b.recompute_groups - a.recompute_groups,
        cells_processed: b.cells_processed - a.cells_processed,
        points_scanned: b.points_scanned - a.points_scanned,
        heap_pushes: b.heap_pushes - a.heap_pushes,
        cleanup_cells: b.cleanup_cells - a.cleanup_cells,
        result_updates: b.result_updates - a.result_updates,
        cell_probes: b.cell_probes - a.cell_probes,
        tuple_probes: b.tuple_probes - a.tuple_probes,
    }
}

/// Per-tick samples of the in-process chain, measured ticks only.
#[derive(Default)]
struct Samples {
    tick_parse_us: Vec<f64>,
    tick_bytes: u64,
    ingest_us: Vec<f64>,
    maintenance_us: Vec<f64>,
    delta_us: Vec<f64>,
    deltas: u64,
    encode_us: Vec<f64>,
    delta_bytes: u64,
    register_us: Vec<f64>,
}

/// Replays the script through the layers' public calls in the order the
/// service runs them — `parse_request` → `IngestState::ingest` →
/// `SmaMaintenance::apply_events` → per-query `result()` +
/// `ResultDelta::diff` → `Push::Delta` encode → `parse_server_line` →
/// `apply_push` — timing each, and reads the counters per tick. From the
/// measured ticks on it also runs a warm twin: the same live queries
/// registered on the then-current window, fed the same events.
///
/// Returns the sum of the in-process stage medians a tick's round trip
/// covers (parse, ingest, maintenance, delta derivation, encode), µs.
pub fn layers(w: &Workload, inputs: &Inputs, run: &WireRun, r: &mut Report) -> Result<f64, String> {
    let followed: BTreeSet<QueryId> = w.followed().into_iter().collect();
    let mut ingest = IngestState::new(w.dims, WindowSpec::Count(w.window), w.grid).map_err(err)?;
    let mut maint = SmaMaintenance::new_for(&ingest);
    let mut twin: Option<SmaMaintenance> = None;
    let mut live: BTreeMap<QueryId, Query> = BTreeMap::new();
    let mut prev: BTreeMap<QueryId, Vec<Scored>> = BTreeMap::new();
    let mut mirror: BTreeMap<QueryId, Vec<Scored>> = BTreeMap::new();
    let mut next_id = 0u64;
    let mut now = Timestamp(0);
    let mut s = Samples::default();
    let mut measuring = false;
    let mut ticks = 0usize;
    let (mut ingest0, mut maint0, mut twin0) = (
        IngestStats::default(),
        EngineStats::default(),
        EngineStats::default(),
    );
    let mut tick_maint = EngineStats::default();

    for op in &run.script {
        match op {
            Op::Register(spec) => {
                let id = QueryId(next_id);
                next_id += 1;
                let q = query_of(spec).map_err(err)?;
                let t = Instant::now();
                maint.register_query(&ingest, id, q.clone()).map_err(err)?;
                s.register_us.push(us(t));
                if let Some(twin) = &mut twin {
                    twin.register_query(&ingest, id, q.clone()).map_err(err)?;
                }
                prev.insert(id, maint.result(id).map_err(err)?);
                live.insert(id, q);
            }
            Op::Unregister(id) => {
                maint.remove_query(&ingest, *id).map_err(err)?;
                if let Some(twin) = &mut twin {
                    twin.remove_query(&ingest, *id).map_err(err)?;
                }
                prev.remove(id);
                live.remove(id);
            }
            Op::Follow => {
                for q in &followed {
                    mirror.insert(*q, maint.result(*q).map_err(err)?);
                }
            }
            Op::Measure => {
                let mut warm = SmaMaintenance::new_for(&ingest);
                for (id, q) in &live {
                    warm.register_query(&ingest, *id, q.clone()).map_err(err)?;
                }
                twin0 = warm.stats();
                twin = Some(warm);
                ingest0 = ingest.stats();
                maint0 = maint.stats();
                measuring = true;
            }
            Op::Tick(i) => {
                let line = &inputs.tick_lines[*i];
                let text = std::str::from_utf8(&line[..line.len() - 1]).map_err(err)?;
                let t = Instant::now();
                let req = parse_request(text)?;
                let parse = us(t);
                let Request::Tick { arrivals } = req else {
                    return Err(format!("a TICK line parsed as {}", req.verb()));
                };
                if arrivals != inputs.batches[*i] {
                    return Err("a TICK line does not round-trip its batch".into());
                }

                let t = Instant::now();
                ingest.ingest(now, &arrivals).map_err(err)?;
                let ingest_us = us(t);
                let before = maint.stats();
                let t = Instant::now();
                maint.apply_events(&ingest).map_err(err)?;
                let maintenance_us = us(t);
                if let Some(twin) = &mut twin {
                    twin.apply_events(&ingest).map_err(err)?;
                }
                now = now.advance(1);

                let t = Instant::now();
                let mut deltas = Vec::new();
                for (id, old) in prev.iter_mut() {
                    let new = maint.result(*id).map_err(err)?;
                    let d = ResultDelta::diff(*id, old, &new);
                    if !d.is_empty() {
                        deltas.push(d);
                    }
                    *old = new;
                }
                let delta_us = us(t);

                let t = Instant::now();
                let lines: Vec<String> = deltas
                    .iter()
                    .filter(|d| followed.contains(&d.query))
                    .map(|d| {
                        Push::Delta {
                            at: now,
                            delta: d.clone(),
                        }
                        .to_string()
                    })
                    .collect();
                let encode_us = us(t);

                for l in &lines {
                    match parse_server_line(l)? {
                        ServerLine::Push(p) => {
                            apply_push(&mut mirror, &p);
                        }
                        ServerLine::Reply(r) => return Err(format!("a DELTA parsed as {r}")),
                    }
                }

                if measuring {
                    ticks += 1;
                    s.tick_parse_us.push(parse);
                    s.tick_bytes += line.len() as u64;
                    s.ingest_us.push(ingest_us);
                    s.maintenance_us.push(maintenance_us);
                    s.delta_us.push(delta_us);
                    s.deltas += deltas.len() as u64;
                    s.encode_us.push(encode_us);
                    s.delta_bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
                    let d = engine_diff(before, maint.stats());
                    tick_maint.absorb(d);
                }
            }
        }
    }

    for q in &followed {
        if mirror.get(q) != Some(&maint.result(*q).map_err(err)?) {
            return Err(format!("{q}: the in-process chain's mirror drifted"));
        }
        if run.sub.mirror.get(q) != mirror.get(q) {
            return Err(format!("{q}: the in-process chain disagrees with the wire"));
        }
    }
    let twin = twin.ok_or("the script has no measured section")?;
    let ing = ingest.stats();
    let warm = engine_diff(twin0, twin.stats());
    let cold = engine_diff(maint0, maint.stats());

    let parse = Dist::new(s.tick_parse_us);
    let ingest_d = Dist::new(s.ingest_us);
    let maint_d = Dist::new(s.maintenance_us);
    let delta_d = Dist::new(s.delta_us);
    let encode_d = Dist::new(s.encode_us);
    let register_d = Dist::new(s.register_us);
    r.timing(
        "protocol.tick_parse (parse_request, per tick)",
        &parse,
        "us",
    );
    r.timing("ingest.tick (IngestState::ingest)", &ingest_d, "us");
    r.timing("maintenance.tick (apply_events)", &maint_d, "us");
    r.timing("server.delta (result + diff, all queries)", &delta_d, "us");
    r.timing("protocol.encode (followed DELTAs)", &encode_d, "us");
    r.timing("compute.register (register_query)", &register_d, "us");
    r.note(format!("in-process replay: {ticks} measured ticks"));

    r.set("protocol.tick_parse_us_per_tick", parse.median());
    r.set(
        "protocol.tick_bytes_per_tick",
        per_tick(s.tick_bytes, ticks),
    );
    r.set("ingest.tick_us_p50", ingest_d.median());
    r.set("ingest.tick_us_p99", ingest_d.p(990));
    r.set(
        "ingest.arrivals_per_tick",
        per_tick(ing.arrivals - ingest0.arrivals, ticks),
    );
    r.set(
        "ingest.expirations_per_tick",
        per_tick(ing.expirations - ingest0.expirations, ticks),
    );
    r.set("ingest.space_bytes", ingest.space_bytes() as f64);
    r.set("maintenance.tick_us_p50", maint_d.median());
    r.set("maintenance.tick_us_p99", maint_d.p(990));
    r.set(
        "maintenance.cell_probes_per_tick",
        per_tick(tick_maint.cell_probes, ticks),
    );
    r.set(
        "maintenance.tuple_probes_per_tick",
        per_tick(tick_maint.tuple_probes, ticks),
    );
    r.set(
        "maintenance.result_updates_per_tick",
        per_tick(tick_maint.result_updates, ticks),
    );
    r.set(
        "maintenance.cleanup_cells_per_tick",
        per_tick(tick_maint.cleanup_cells, ticks),
    );
    r.set("maintenance.space_bytes", maint.space_bytes() as f64);
    r.set(
        "maintenance.cold_over_warm_probes",
        cold.tuple_probes as f64 / warm.tuple_probes.max(1) as f64,
    );
    r.set(
        "maintenance.cold_over_warm_space",
        maint.space_bytes() as f64 / twin.space_bytes().max(1) as f64,
    );
    r.note(format!(
        "warm twin: {} tuple probes/tick, {} bytes (this run: {} and {})",
        per_tick(warm.tuple_probes, ticks),
        twin.space_bytes(),
        per_tick(cold.tuple_probes, ticks),
        maint.space_bytes()
    ));
    r.set(
        "compute.recompute_queries_per_tick",
        per_tick(tick_maint.recompute_queries, ticks),
    );
    r.set(
        "compute.recompute_groups_per_tick",
        per_tick(tick_maint.recompute_groups, ticks),
    );
    r.set(
        "compute.cells_processed_per_tick",
        per_tick(tick_maint.cells_processed, ticks),
    );
    r.set(
        "compute.points_scanned_per_tick",
        per_tick(tick_maint.points_scanned, ticks),
    );
    r.set("compute.register_us_p50", register_d.median());
    r.set("compute.register_us_p99", register_d.p(990));
    r.set("server.delta_us_per_tick", delta_d.median());
    r.set("server.deltas_per_tick", per_tick(s.deltas, ticks));
    r.set(
        "server.changed_ratio",
        per_tick(s.deltas, ticks) / prev.len().max(1) as f64,
    );
    r.set("protocol.encode_us_per_tick", encode_d.median());
    r.set(
        "protocol.delta_bytes_per_tick",
        per_tick(s.delta_bytes, ticks),
    );
    let stage_sum = parse.median()
        + ingest_d.median()
        + maint_d.median()
        + delta_d.median()
        + encode_d.median();
    r.note(format!("in-process stage sum (medians): {stage_sum:.1} us"));
    Ok(stage_sum)
}
