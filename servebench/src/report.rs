//! Report hygiene: percentiles with an honest tail, the metric catalog,
//! and the one-line JSON result.

use std::collections::BTreeMap;

/// Percentile ladder in per-mille, highest first.
const LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile's rank before it is printed.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile (`pm` in per-mille) of an ascending slice.
pub fn percentile(sorted: &[f64], pm: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pm) - 1]
}

fn rank(n: usize, pm: u32) -> usize {
    (pm as usize * n).div_ceil(1000).max(1)
}

/// The highest ladder percentile (per-mille) with at least
/// [`TAIL_SUPPORT`] samples beyond its rank, if any.
pub fn supported_tail(n: usize) -> Option<u32> {
    LADDER
        .into_iter()
        .find(|&pm| n >= rank(n, pm) + TAIL_SUPPORT)
}

/// A sample distribution, kept sorted.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts the samples.
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile (`pm` in per-mille); 0 when empty.
    pub fn p(&self, pm: u32) -> f64 {
        percentile(&self.sorted, pm)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.p(500)
    }

    /// `p50 <v>, p<tail> <v>, n=<count>` with the tail chosen by
    /// [`supported_tail`].
    pub fn describe(&self, unit: &str) -> String {
        let mut s = format!("p50 {:.1} {unit}", self.median());
        match supported_tail(self.len()) {
            Some(pm) if pm > 500 => {
                s += &format!(", p{} {:.1} {unit}", pm_label(pm), self.p(pm));
            }
            Some(_) => {}
            None => s += " (no percentile has 10 samples beyond it)",
        }
        s + &format!(", n={}", self.len())
    }
}

fn pm_label(pm: u32) -> String {
    if pm.is_multiple_of(10) {
        (pm / 10).to_string()
    } else {
        format!("{}.{}", pm / 10, pm % 10)
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("tuples_per_cpu_s", "1/cpu-s", Higher),
    m("engine_space_mb", "MB", Lower),
    m("ok_ratio", "ratio", Higher),
];

/// Metrics of a traced run (`--trace 1`). The wall-clock capacity and
/// freshness are measured by both runs but listed here: on a shared
/// 2-vCPU host their run-to-run spread exceeds any bound an end-to-end
/// metric may carry.
pub const PER_LAYER: &[Metric] = &[
    m("capacity_tuples_per_s", "1/s", Higher),
    m("fresh_p50_us", "us", Lower),
    m("fresh_p99_us", "us", Lower),
    m("protocol.tick_parse_us_per_tick", "us", Lower),
    m("protocol.tick_bytes_per_tick", "bytes", Lower),
    m("ingest.tick_us_p50", "us", Lower),
    m("ingest.tick_us_p99", "us", Lower),
    m("ingest.arrivals_per_tick", "count", Higher),
    m("ingest.expirations_per_tick", "count", Higher),
    m("ingest.space_bytes", "bytes", Lower),
    m("maintenance.tick_us_p50", "us", Lower),
    m("maintenance.tick_us_p99", "us", Lower),
    m("maintenance.cell_probes_per_tick", "count", Lower),
    m("maintenance.tuple_probes_per_tick", "count", Lower),
    m("maintenance.result_updates_per_tick", "count", Lower),
    m("maintenance.cleanup_cells_per_tick", "count", Lower),
    m("maintenance.space_bytes", "bytes", Lower),
    m("maintenance.cold_over_warm_probes", "ratio", Lower),
    m("maintenance.cold_over_warm_space", "ratio", Lower),
    m("compute.recompute_queries_per_tick", "count", Lower),
    m("compute.recompute_groups_per_tick", "count", Lower),
    m("compute.cells_processed_per_tick", "count", Lower),
    m("compute.points_scanned_per_tick", "count", Lower),
    m("compute.register_us_p50", "us", Lower),
    m("compute.register_us_p99", "us", Lower),
    m("server.delta_us_per_tick", "us", Lower),
    m("server.deltas_per_tick", "count", Lower),
    m("server.changed_ratio", "ratio", Lower),
    m("protocol.encode_us_per_tick", "us", Lower),
    m("protocol.delta_bytes_per_tick", "bytes", Lower),
    m("service.tick_rtt_us_p50", "us", Lower),
    m("service.tick_rtt_us_p99", "us", Lower),
    m("service.encodes_per_delta", "ratio", Lower),
    m("service.resyncs", "count", Lower),
    m("service.router_bytes", "bytes", Lower),
    m("reactor.deliver_us_p50", "us", Lower),
    m("reactor.deliver_us_p99", "us", Lower),
    m("reactor.push_bytes_per_tick", "bytes", Lower),
    m("client.parse_us_per_tick", "us", Lower),
    m("client.apply_us_per_tick", "us", Lower),
    m("generator.late_us_p99", "us", Lower),
    m("generator.max_backlog_ticks", "count", Lower),
    m("trace.stage_sum_over_rtt", "ratio", Higher),
    m("trace.overhead_ratio", "ratio", Higher),
];

/// The catalog a run of the given mode must fill.
pub fn catalog(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metric values of one run plus its human-readable lines.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The recorded value of a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Adds a human-readable line (printed before the JSON result).
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Adds the printed summary of a timing distribution.
    pub fn timing(&mut self, label: &str, d: &Dist, unit: &str) {
        self.note(format!("{label}: {}", d.describe(unit)));
    }

    /// Catalog entries this report has no finite value for.
    pub fn missing(&self, catalog: &[Metric]) -> Vec<&'static str> {
        catalog
            .iter()
            .filter(|m| !self.get(m.name).is_some_and(f64::is_finite))
            .map(|m| m.name)
            .collect()
    }

    /// The human-readable lines, then every catalogued metric by name
    /// with its value and unit.
    pub fn text(&self, catalog: &[Metric]) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out += line;
            out.push('\n');
        }
        for m in catalog {
            let v = self.get(m.name).unwrap_or(f64::NAN);
            out += &format!("{} = {v} {}\n", m.name, m.unit);
        }
        out
    }

    /// The one-line JSON result over `catalog`.
    pub fn json(&self, catalog: &[Metric], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|m| {
                let v = self.get(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
