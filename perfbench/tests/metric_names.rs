//! Every metric the benchmark prints is declared in `BENCHMARK.json`, in
//! the right section and with the same unit, and nothing declared goes
//! unprinted.

use std::collections::BTreeMap;

use perfbench::report::{result_line, END_TO_END, PER_LAYER};

/// The `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
/// plain string scanning: the section is a list of flat objects.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} is missing"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("a list")..body.find(']').expect("a list")];
    let field = |object: &str, key: &str| -> String {
        let at = object
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} missing in {object}"));
        let rest = &object[at + key.len() + 2..];
        let open = rest.find('"').expect("a string value") + 1;
        let close = open + rest[open..].find('"').expect("a closed string");
        rest[open..close].to_string()
    };
    body.split('}')
        .filter(|o| o.contains("\"name\""))
        .map(|o| (field(o, "name"), field(o, "unit")))
        .collect()
}

fn printed(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    assert_eq!(printed(END_TO_END), declared("end_to_end"));
}

#[test]
fn per_layer_metrics_match_the_declaration() {
    assert_eq!(printed(PER_LAYER), declared("per_layer"));
}

#[test]
fn setup_time_is_declared() {
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn the_result_line_prints_every_declared_metric() {
    let values: BTreeMap<&'static str, f64> = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
    let line = result_line(true, 3, 0, END_TO_END, &values);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!(
            "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
        )));
    }
}

#[test]
#[should_panic(expected = "undeclared metrics")]
fn an_undeclared_metric_is_refused() {
    let mut values: BTreeMap<&'static str, f64> =
        END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
    values.insert("made_up", 1.0);
    result_line(true, 1, 0, END_TO_END, &values);
}

#[test]
#[should_panic(expected = "was not measured")]
fn a_missing_metric_is_refused() {
    let values: BTreeMap<&'static str, f64> = BTreeMap::new();
    result_line(true, 1, 0, END_TO_END, &values);
}
