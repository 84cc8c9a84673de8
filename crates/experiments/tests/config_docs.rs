//! The documented settings are the parsed settings: the README's
//! environment table lists exactly the `DRI_*` variables the two config
//! modules parse (plus `DRI_TRACE`, which the trace sink reads), and the
//! `suite` and `dri-serve` usage texts name no other variable.

use std::collections::BTreeSet;

const README: &str = include_str!("../../../README.md");
const SUITE: &str = include_str!("../src/bin/suite.rs");
const DRI_SERVE: &str = include_str!("../../serve/src/main.rs");

/// Every `DRI_*` name in `text`.
fn names(text: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("DRI_") {
        let name: String = rest[at..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        rest = &rest[at + name.len()..];
        found.insert(name);
    }
    found
}

fn parsed() -> BTreeSet<String> {
    dri_experiments::config::VARS
        .into_iter()
        .chain(dri_serve::config::VARS)
        .chain([dri_telemetry::TRACE_ENV])
        .map(str::to_owned)
        .collect()
}

/// The first cell of every row of the README's environment table.
fn readme_table() -> BTreeSet<String> {
    let table = README
        .split_once("## Environment variables")
        .expect("README has an environment section")
        .1;
    table
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(names)
        .collect()
}

/// A binary's `USAGE` text.
fn usage(source: &str) -> &str {
    let start = source
        .find("const USAGE: &str = \"")
        .expect("the binary has a usage text");
    let text = &source[start..];
    &text[..text.find("\";").expect("the usage text ends")]
}

#[test]
fn readme_table_lists_exactly_the_parsed_variables() {
    assert_eq!(readme_table(), parsed());
    assert_eq!(parsed().len(), 14);
}

#[test]
fn usage_texts_name_only_parsed_variables() {
    for (binary, source) in [("suite", SUITE), ("dri-serve", DRI_SERVE)] {
        let unknown: Vec<String> = names(usage(source))
            .difference(&parsed())
            .cloned()
            .collect();
        assert!(unknown.is_empty(), "{binary} usage names {unknown:?}");
    }
}
