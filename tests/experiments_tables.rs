//! Keeps the `scale_city`, `broker_load` and `broker_chaos` tables in
//! EXPERIMENTS.md honest: every row pinned "exact" names its
//! `BENCH_contory.json` measurement(s) in the "BENCH row" column, and
//! each number quoted in the value column must equal that measurement.
//! A re-pinned scenario that moves a row fails here until the doc is
//! updated with it. Wall-clock rows are not pinned and not checked.
#![deny(warnings)]

use simkit::json::Json;

fn read_repo_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()))
}

/// The table rows (cells, trimmed of spaces and `**` bold markers) of
/// the `## ` section whose heading starts with `heading`.
fn section_rows(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let start = doc
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section `{heading}`"));
    let body = &doc[start + 1..];
    let body = &body[..body[3..].find("\n## ").map_or(body.len(), |e| e + 3)];
    body.lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .skip(1) // header
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('*').to_owned())
                .collect()
        })
        .collect()
}

/// The leading number of a value cell part: digits with space-grouped
/// thousands and an optional fraction (`"18 478.3 /sim-s"` → 18478.3).
fn leading_number(part: &str) -> f64 {
    let mut text = String::new();
    let mut chars = part.chars().peekable();
    while let Some(&c) = chars.peek() {
        let grouped_space = c == ' ' && chars.clone().nth(1).is_some_and(|n| n.is_ascii_digit());
        if c.is_ascii_digit() || c == '.' {
            text.push(c);
        } else if !grouped_space {
            break;
        }
        chars.next();
    }
    text.parse()
        .unwrap_or_else(|_| panic!("value cell part `{part}` has no leading number"))
}

/// Every `(id, value)` measurement of one scenario in BENCH_contory.json.
fn bench_rows(scenario: &str) -> Vec<(String, f64)> {
    let bench = Json::parse(&read_repo_file("BENCH_contory.json")).expect("valid JSON");
    let found = bench
        .get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|s| {
            s.iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(scenario))
        })
        .unwrap_or_else(|| panic!("no {scenario} scenario in BENCH"));
    found
        .get("measurements")
        .and_then(Json::as_arr)
        .expect("measurements")
        .iter()
        .map(|m| {
            let id = m.get("id").and_then(Json::as_str).expect("id").to_owned();
            (id, m.get("value").and_then(Json::as_f64).expect("value"))
        })
        .collect()
}

/// Checks every "exact" row of the given sections against `scenario`'s
/// BENCH rows and returns how many numbers it compared.
fn check_sections(scenario: &str, headings: &[&str]) -> usize {
    let doc = read_repo_file("EXPERIMENTS.md");
    let rows = bench_rows(scenario);
    let mut checked = 0;
    for heading in headings {
        for cells in section_rows(&doc, heading) {
            let [metric, value, ids, pinned] = cells.as_slice() else {
                panic!("{heading}: row {cells:?} is not `metric | value | BENCH row | pinned how`");
            };
            if !pinned.starts_with("exact") {
                continue;
            }
            let ids: Vec<&str> = ids.split(" / ").map(|i| i.trim_matches('`')).collect();
            let values: Vec<&str> = value.split(" / ").collect();
            assert_eq!(
                ids.len(),
                values.len(),
                "{metric}: {} BENCH row(s) for {} quoted value(s)",
                ids.len(),
                values.len()
            );
            for (id, part) in ids.iter().zip(&values) {
                let bench = rows
                    .iter()
                    .find(|(row, _)| row == id)
                    .unwrap_or_else(|| panic!("{metric}: no {scenario} row `{id}` in BENCH"))
                    .1;
                assert_eq!(
                    leading_number(part),
                    bench,
                    "EXPERIMENTS.md `{metric}` quotes {part} but BENCH row `{id}` is {bench}"
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn broker_load_tables_quote_bench_exactly() {
    let checked = check_sections(
        "broker_load",
        &[
            "Beyond the paper: federated broker fleet",
            "Beyond the paper: causal tracing",
        ],
    );
    assert!(
        checked >= 18,
        "only {checked} exact numbers found; tables lost rows?"
    );
}

#[test]
fn scale_city_table_quotes_bench_exactly() {
    let checked = check_sections("scale_city", &["Beyond the paper: city-scale gossip"]);
    assert!(
        checked >= 4,
        "only {checked} exact numbers found; table lost rows?"
    );
}

#[test]
fn broker_chaos_table_quotes_bench_exactly() {
    let checked = check_sections(
        "broker_chaos",
        &["Beyond the paper: chaos & crash-recovery"],
    );
    assert!(
        checked >= 18,
        "only {checked} exact numbers found; table lost rows?"
    );
}

#[test]
fn leading_number_reads_grouped_digits() {
    assert_eq!(leading_number("1 155 397 765"), 1_155_397_765.0);
    assert_eq!(leading_number("18 478.3 /sim-s"), 18_478.3);
    assert_eq!(leading_number("958 038 ppm of device-offered"), 958_038.0);
    assert_eq!(leading_number("206.926 ms"), 206.926);
    assert_eq!(leading_number("959 ‰"), 959.0);
}
