//! The benchmark's own checks: its metric catalogue against
//! `BENCHMARK.json`, a very short run of every workload in both modes, and
//! the self-time arithmetic behind the layer table.

use perfbench::spans::{covered_ns, per_call, self_costs, Span};
use perfbench::workload::Kind;
use perfbench::{on_path, run, unattributed_us, LayerStats, Options, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// `(name, unit)` of every entry in one top-level list of `BENCHMARK.json`.
fn listed(json: &str, list: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} missing"));
    let body = &json[start..];
    // The list ends at the first `]` outside a string.
    let mut in_string = false;
    let end = body
        .char_indices()
        .find(|&(_, c)| {
            if c == '"' {
                in_string = !in_string;
            }
            c == ']' && !in_string
        })
        .expect("list closes")
        .0;
    let body = &body[..end];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
                Some(entry[at..at + entry[at..].find('"')?].to_string())
            };
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_are_valid_unique_and_listed() {
    let json = benchmark_json();
    let mut seen = BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name), "{name} listed twice");
    }
    for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<(String, Option<String>)> = catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(listed(&json, list), want, "{list} differs from the code");
    }
    // Every listed workload is one the binary runs, with the same reason.
    let workloads = listed(&json, "workloads");
    assert!(!workloads.is_empty());
    for (name, _) in workloads {
        let kind = Kind::parse(&name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert!(kind.why().len() <= 200, "{name} why too long");
        assert!(
            json.contains(&format!("\"why\": \"{}\"", kind.why())),
            "{name} why differs"
        );
    }
}

fn short_run(kind: Kind, trace: bool) -> perfbench::Outcome {
    let spans_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spans");
    run(&Options {
        kind,
        seed: 7,
        seconds: 0.6,
        trace,
        spans_dir,
    })
    .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()))
}

#[test]
fn a_short_run_of_every_workload_emits_every_metric() {
    for kind in Kind::ALL {
        for (trace, catalogue) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = short_run(kind, trace);
            assert!(
                out.correct,
                "{} trace={trace}: {:?}",
                kind.name(),
                out.report
            );
            assert!(out.attempted > 0 && out.failed == 0);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = catalogue.iter().map(|m| m.0).collect();
            assert_eq!(names, want, "{} trace={trace}", kind.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            let line = out.result_line();
            for name in want {
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            }
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} {} is {}", kind.name(), m.name, m.value);
                }
            }
        }
    }
}

fn span(id: u32, parent: u32, call: u64, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        name,
        call,
        id,
        parent,
        start_ns: start,
        end_ns: end,
        allocs: 0,
    }
}

#[test]
fn self_time_removes_the_part_children_cover() {
    // call [0, 100) with children encode [10, 30) and roundtrip [40, 90);
    // roundtrip has a child [50, 60) and another overlapping it [55, 70).
    let spans = vec![
        span(1, 0, 9, "call", 0, 100),
        span(2, 1, 9, "pbio.encode", 10, 30),
        span(3, 1, 9, "http.roundtrip", 40, 90),
        span(4, 3, 9, "inner", 50, 60),
        span(5, 3, 9, "inner", 55, 70),
    ];
    let costs: Vec<u64> = self_costs(&spans).into_iter().map(|c| c.0).collect();
    assert_eq!(costs, vec![30, 20, 30, 10, 15]);
    let mut overlap = vec![(50, 60), (55, 70), (95, 120)];
    assert_eq!(covered_ns(&mut overlap, 40, 100), 25);
    // The self times of one call add back up to its root's duration
    // (children that overlap each other are the one exception).
    let disjoint = &spans[..3];
    let total: u64 = self_costs(disjoint).iter().map(|c| c.0).sum();
    assert_eq!(total, disjoint[0].duration_ns());
}

#[test]
fn layer_sum_plus_unattributed_reconciles_to_the_call_p50() {
    // Three synthetic calls on one thread; the layer p50s are the medians
    // of each layer's per-call self time.
    let mut spans = Vec::new();
    let mut id = 0;
    for (call, enc, rt) in [
        (1u64, 10_000u64, 50_000u64),
        (2, 20_000, 70_000),
        (3, 30_000, 60_000),
    ] {
        let t = call * 1_000_000;
        let root = id + 1;
        spans.push(span(root, 0, call, "call", t, t + 200_000));
        spans.push(span(root + 1, root, call, "pbio.encode", t, t + enc));
        spans.push(span(
            root + 2,
            root,
            call,
            "http.roundtrip",
            t + enc,
            t + enc + rt,
        ));
        id += 3;
    }
    let threads = vec![spans];
    let by_call = per_call(&threads, "call");
    assert_eq!(
        by_call["pbio.encode"]
            .iter()
            .map(|c| c.0)
            .collect::<Vec<_>>(),
        vec![10_000, 20_000, 30_000]
    );
    assert_eq!(
        by_call["call"].iter().map(|c| c.0).collect::<Vec<_>>(),
        vec![140_000, 110_000, 110_000]
    );
    let stats = LayerStats::new(&threads);
    let kind = Kind::OisPbio;
    assert_eq!(stats.layer(kind, "pbio.encode").0, 20.0);
    assert_eq!(stats.layer(kind, "http.roundtrip").0, 60.0);
    let call_p50 = 250.0;
    let rest = unattributed_us(call_p50, &stats, kind);
    let layers: f64 = on_path(kind).iter().map(|n| stats.layer(kind, n).0).sum();
    assert_eq!(layers, 80.0);
    assert_eq!(layers + rest, call_p50);
}
