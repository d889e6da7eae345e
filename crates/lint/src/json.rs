//! The `--format json` writer for lint outcomes (CI artifacts).
//!
//! The workspace's one JSON codec lives in `iroram-experiments`, but the
//! lint cannot depend on it: the lint must run, and report, when the
//! crates it lints do not compile, so it links none of them. This writer
//! is the small, dependency-free exception; the self-tests pin its exact
//! output instead of parsing it back.
//!
//! The emitted document is stable and sorted (findings come pre-sorted
//! from [`crate::run`]):
//!
//! ```json
//! {
//!   "files_scanned": 61,
//!   "findings": [
//!     {"file": "crates/x/src/y.rs", "line": 7, "rule": "panic", "message": "..."}
//!   ]
//! }
//! ```

use crate::Outcome;

/// Serializes an outcome as a stable, human-diffable JSON document.
pub fn to_json(outcome: &Outcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"file\": {}, ", quote(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"rule\": {}, ", quote(&f.rule)));
        out.push_str(&format!("\"message\": {}", quote(&f.message)));
        out.push('}');
    }
    if !outcome.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// JSON string quoting: escapes `"`, `\` and control characters.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn outcome(findings: Vec<Finding>) -> Outcome {
        Outcome {
            findings,
            files_scanned: 3,
        }
    }

    #[test]
    fn empty_outcome_round_trips() {
        assert_eq!(
            to_json(&outcome(vec![])),
            "{\n  \"files_scanned\": 3,\n  \"findings\": []\n}\n"
        );
    }

    #[test]
    fn findings_round_trip_with_escapes() {
        let f = vec![
            Finding {
                file: "crates/a/src/x.rs".into(),
                line: 42,
                rule: "secret-flow".into(),
                message: "branch on `.payload` — \"quoted\"\nand a newline \\ backslash".into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 1,
                rule: "panic".into(),
                message: "plain".into(),
            },
        ];
        assert_eq!(
            to_json(&outcome(f)),
            "{\n  \"files_scanned\": 3,\n  \"findings\": [\n    \
             {\"file\": \"crates/a/src/x.rs\", \"line\": 42, \"rule\": \"secret-flow\", \
             \"message\": \"branch on `.payload` — \\\"quoted\\\"\\nand a newline \\\\ backslash\"},\n    \
             {\"file\": \"b.rs\", \"line\": 1, \"rule\": \"panic\", \"message\": \"plain\"}\n  \
             ]\n}\n"
        );
    }
}
