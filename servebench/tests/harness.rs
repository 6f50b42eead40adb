//! Tests of the harness itself: the percentile rule, the agreement between
//! the metric catalog and `BENCHMARK.json`, and that every catalogued
//! metric is emitted with its unit for every workload.

use servebench::report::{percentile, supported_tail, Dist, Metric, END_TO_END, PER_LAYER};
use servebench::run_workload;
use servebench::workload::{Workload, NAMES};

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(0), None);
    assert_eq!(supported_tail(19), None);
    assert_eq!(supported_tail(20), Some(500));
    assert_eq!(supported_tail(39), Some(500));
    assert_eq!(supported_tail(40), Some(750));
    assert_eq!(supported_tail(100), Some(900));
    assert_eq!(supported_tail(200), Some(950));
    assert_eq!(supported_tail(999), Some(950));
    assert_eq!(supported_tail(1000), Some(990));
    assert_eq!(supported_tail(9999), Some(990));
    assert_eq!(supported_tail(10_000), Some(999));
    // The rule holds exactly at every size: ten samples lie above the
    // reported rank, and the next rung up would leave fewer.
    for n in 20..3000usize {
        let pm = supported_tail(n).expect("20+ samples support the median") as usize;
        let rank = (pm * n).div_ceil(1000);
        assert!(n - rank >= 10, "n={n} p={pm}");
    }
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 500), 50.0);
    assert_eq!(percentile(&v, 990), 99.0);
    assert_eq!(percentile(&v, 999), 100.0);
    assert_eq!(percentile(&[], 500), 0.0);
    let d = Dist::new((0..1000).rev().map(f64::from).collect());
    assert_eq!(d.median(), 499.0);
    assert_eq!(d.describe("us"), "p50 499.0 us, p99 989.0 us, n=1000");
    let few = Dist::new(vec![1.0; 5]);
    assert!(few
        .describe("us")
        .contains("no percentile has 10 samples beyond it"));
}

/// The string tokens of a JSON text, in order (enough to walk our own
/// `BENCHMARK.json`, whose keys come in a fixed order).
fn strings(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            out.push(chars.by_ref().take_while(|&c| c != '"').collect());
        }
    }
    out
}

fn section<'a>(tokens: &'a [String], from: &str, to: Option<&str>) -> &'a [String] {
    let start = tokens.iter().position(|t| t == from).expect("section") + 1;
    let end = to.map_or(tokens.len(), |to| {
        tokens.iter().position(|t| t == to).expect("section end")
    });
    &tokens[start..end]
}

fn listed(tokens: &[String]) -> Vec<(String, String, String)> {
    let value = |i: usize, key: &str| {
        assert_eq!(tokens[i], key, "metric keys in order name, unit, better");
        tokens[i + 1].clone()
    };
    let starts: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i] == "name").collect();
    starts
        .into_iter()
        .map(|i| {
            (
                value(i, "name"),
                value(i + 2, "unit"),
                value(i + 4, "better"),
            )
        })
        .collect()
}

fn catalogued(ms: &[Metric]) -> Vec<(String, String, String)> {
    ms.iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the repository root");
    let tokens = strings(&text);
    let workloads: Vec<String> = section(&tokens, "workloads", Some("end_to_end"))
        .windows(2)
        .filter(|w| w[0] == "name")
        .map(|w| w[1].clone())
        .collect();
    assert_eq!(workloads, NAMES);
    let e2e = section(&tokens, "end_to_end", Some("per_layer"));
    assert_eq!(listed(e2e), catalogued(END_TO_END));
    assert_eq!(
        listed(section(&tokens, "per_layer", None)),
        catalogued(PER_LAYER)
    );
}

#[test]
fn every_metric_is_emitted_with_its_unit_for_every_workload() {
    for name in NAMES {
        let w = Workload::by_name(name).expect("named workload").shrunk(20);
        for traced in [false, true] {
            let outcome = run_workload(&w, 7, 0.6, traced).expect("run");
            let text = outcome.render();
            assert!(outcome.correct(), "{name} traced={traced}:\n{text}");
            let json = text.lines().last().expect("a result line");
            let catalog = if traced { PER_LAYER } else { END_TO_END };
            for m in catalog {
                let printed = format!("{} = ", m.name);
                assert!(text.contains(&printed), "{name}: {} not printed", m.name);
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name}: {}", m.name));
                let unit = format!("\"unit\": \"{}\"}}", m.unit);
                assert!(json[at..].starts_with(&entry), "{name}: {}", m.name);
                assert!(
                    json[at..]
                        .split_once('}')
                        .is_some_and(|(e, _)| format!("{e}}}").ends_with(&unit)),
                    "{name}: {} lacks unit {}",
                    m.name,
                    m.unit
                );
            }
            let other = if traced { END_TO_END } else { PER_LAYER };
            for m in other {
                assert!(
                    !json.contains(&format!("\"{}\"", m.name)),
                    "{name}: {}",
                    m.name
                );
            }
        }
    }
}
