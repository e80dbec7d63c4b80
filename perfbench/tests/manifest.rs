//! `BENCHMARK.json` names exactly the metrics the command prints.

use wfa_perfbench::measure::{END_TO_END, PER_LAYER, WORKLOADS};

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`, read
/// without a JSON parser: every entry is one `{"name": .., "unit": ..}`
/// object on its own line.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_every_printed_metric() {
    assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn manifest_lists_every_workload() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("manifest");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w} missing"
        );
    }
}
