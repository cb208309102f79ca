//! EXPERIMENTS.md and ROADMAP.md quote the values of a few code
//! constants. Each quoted value must equal the constant, so the docs
//! cannot drift from the code (EXPERIMENTS.md once said `LOCKSTEP_LANES`
//! was 16 while the code said 8). EXPERIMENTS.md must quote every
//! constant below; ROADMAP.md quotes only some of them.
//!
//! A value counts as quoted when it directly follows the constant's
//! backticked name, bare or after `(` or `=`: "`LOCKSTEP_LANES` (8)",
//! "`serve::MAX_LINE_BYTES` (1 MiB)", "(`CACHE_FORMAT_VERSION` 5)", or
//! inside the backticks: "`CACHE_FORMAT_VERSION = 5`". A name that ends
//! its line takes its value from the start of the next, where the text
//! wraps. Digits may be grouped with commas and carry a
//! `KiB`/`MiB`/`GiB` unit.

use std::path::Path;

/// Every constant the docs quote, with its value in the code.
fn constants() -> [(&'static str, u64); 8] {
    [
        ("LOCKSTEP_LANES", cimflow::sim::LOCKSTEP_LANES as u64),
        ("CACHE_FORMAT_VERSION", u64::from(cimflow_dse::CACHE_FORMAT_VERSION)),
        ("MAX_LINE_BYTES", cimflow_dse::serve::MAX_LINE_BYTES as u64),
        ("MAX_EXPANDED_POINTS", cimflow_dse::MAX_EXPANDED_POINTS as u64),
        ("DEFAULT_TRACE_CAPACITY", cimflow_dse::DEFAULT_TRACE_CAPACITY as u64),
        ("MAX_SYSTEM_CORES", cimflow::arch::MAX_SYSTEM_CORES),
        ("MAX_REQUESTS", cimflow_traffic::MAX_REQUESTS),
        ("MAX_TRACE_BYTES", cimflow_traffic::MAX_TRACE_BYTES),
    ]
}

/// The value quoted at the start of `text`, if any.
fn quoted_value(text: &str) -> Option<u64> {
    let text = text.trim_start();
    let text = text.strip_prefix(['(', '=']).unwrap_or(text).trim_start();
    let digits: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == ',')
        .filter(|c| *c != ',')
        .collect();
    let value: u64 = digits.parse().ok()?;
    let unit = text.trim_start_matches(|c: char| c.is_ascii_digit() || c == ',').trim_start();
    let scale = [("KiB", 1u64 << 10), ("MiB", 1 << 20), ("GiB", 1 << 30)]
        .into_iter()
        .find_map(|(name, scale)| unit.starts_with(name).then_some(scale))
        .unwrap_or(1);
    Some(value * scale)
}

/// Every value the doc quotes for `name`, with the line it is on.
fn quoted_values(doc: &str, name: &str) -> Vec<(usize, u64)> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut values = Vec::new();
    for (line, text) in lines.iter().enumerate() {
        // Odd-numbered pieces of a split on backticks are code spans.
        let pieces: Vec<&str> = text.split('`').collect();
        for (i, span) in pieces.iter().enumerate().skip(1).step_by(2) {
            let Some(at) = span.find(name) else { continue };
            let (path, rest) = (&span[..at], &span[at + name.len()..]);
            if !path.is_empty() && !path.ends_with("::") {
                continue;
            }
            let value = if rest.is_empty() {
                let after = pieces.get(i + 1).copied().unwrap_or_default();
                let wraps = i + 2 == pieces.len() && after.trim().is_empty();
                let after = match lines.get(line + 1) {
                    Some(next) if wraps => next.split('`').next().unwrap_or_default(),
                    _ => after,
                };
                quoted_value(after)
            } else if rest.trim_start().starts_with('=') {
                quoted_value(rest)
            } else {
                None
            };
            values.extend(value.map(|value| (line + 1, value)));
        }
    }
    values
}

#[test]
fn the_parser_reads_each_quoting_style() {
    let doc = "`A` (8) lanes; `m::B` (1 MiB); (`C` 5); `D` = 65,536; `A` plus a version\n\
               (`E = 3` - older); `E_2` (4); `XE` (4)";
    assert_eq!(quoted_values(doc, "A"), [(1, 8)]);
    assert_eq!(quoted_values(doc, "B"), [(1, 1 << 20)]);
    assert_eq!(quoted_values(doc, "C"), [(1, 5)]);
    assert_eq!(quoted_values(doc, "D"), [(1, 65_536)]);
    assert_eq!(quoted_values(doc, "E"), [(2, 3)]);
    let wrapped = "refused above `F`\n  (65,536) points; `G`\n  `F` 9";
    assert_eq!(quoted_values(wrapped, "F"), [(1, 65_536), (3, 9)]);
    assert_eq!(quoted_values(wrapped, "G"), []);
}

/// Checks every value the doc `file` (at the repository root) quotes
/// against the code; with `quotes_every_constant`, also that it quotes
/// each constant at least once.
fn check_quoted_values(file: &str, quotes_every_constant: bool) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for (name, value) in constants() {
        let quoted = quoted_values(&doc, name);
        assert!(
            !quotes_every_constant || !quoted.is_empty(),
            "{file} quotes no value for `{name}`"
        );
        for (line, doc_value) in quoted {
            assert_eq!(
                doc_value, value,
                "{file}:{line} gives `{name}` as {doc_value}, the code says {value}"
            );
        }
    }
}

#[test]
fn experiments_md_quotes_the_constants_the_code_defines() {
    check_quoted_values("EXPERIMENTS.md", true);
}

#[test]
fn roadmap_md_quotes_only_values_the_code_defines() {
    check_quoted_values("ROADMAP.md", false);
}
