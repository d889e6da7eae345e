//! The panic-reach pass: transitive panic reachability from the per-slot
//! entry points, upgrading the per-file panic ratchet into a call-graph
//! property.
//!
//! The per-file ratchet covers the eight designated hot-path modules; a
//! panic three calls deep in a helper crate still kills the batch just the
//! same. This pass builds a function-level call graph across every
//! report-affecting crate (name-based and unresolved, so it
//! *overapproximates*: a call to `foo` reaches every workspace fn named
//! `foo`), walks it from the per-slot entry points, and budgets the
//! unexempted panic-capable sites reachable in helper files under
//! `reach:`-prefixed sections of `lint-ratchet.toml`. Counts only go
//! down; hot-path files themselves stay under their existing per-file
//! sections.
//!
//! Site-level exemptions reuse `// lint: allow(panic, <invariant>)` — a
//! declared can't-panic invariant means the same thing whether the site is
//! inspected directly or reached transitively.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::panics;
use crate::ratchet::{Ratchet, CATEGORIES};
use crate::source::SourceFile;
use crate::{Finding, HOT_PATH_FILES};

/// The per-slot entry points the reachability walk starts from: one slot
/// of simulated work in the timed controller, and ρ's per-slot path
/// selection.
pub const ENTRY_POINTS: [(&str, &str); 2] = [
    ("crates/oram-ctrl/src/controller.rs", "process_slot"),
    ("crates/oram-ctrl/src/rho.rs", "issue"),
];

/// Section-name prefix distinguishing reach budgets from per-file hot-path
/// budgets inside `lint-ratchet.toml`.
pub const REACH_PREFIX: &str = "reach:";

/// The reachability analysis result: per helper file, the unexempted panic
/// sites reachable from the entry points (files with none are absent),
/// plus structural findings (missing entry points).
pub struct Analysis {
    /// file → `(category, line)` sites, in token order.
    pub sites: BTreeMap<String, Vec<(&'static str, u32)>>,
    /// Findings produced by the analysis itself.
    pub findings: Vec<Finding>,
}

/// One call-graph node: a fn with a body.
struct Node {
    file: usize,
    name: String,
    body: (usize, usize),
}

/// Builds the call graph and walks it from [`ENTRY_POINTS`].
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let mut nodes: Vec<Node> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for d in &f.parsed.fns {
            let Some(body) = d.body else { continue };
            if f.in_test(body.0) {
                continue; // test fns are not on any report path
            }
            nodes.push(Node {
                file: fi,
                name: d.name.clone(),
                body,
            });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }

    let mut findings = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    for (entry_file, entry_fn) in ENTRY_POINTS {
        let mut found = false;
        for (i, n) in nodes.iter().enumerate() {
            if n.name == entry_fn && files[n.file].rel_path == entry_file {
                found = true;
                if reached.insert(i) {
                    queue.push_back(i);
                }
            }
        }
        if !found {
            findings.push(Finding {
                file: entry_file.to_owned(),
                line: 1,
                rule: "panic-reach".to_owned(),
                message: format!(
                    "entry point fn `{entry_fn}` not found — the reachability walk has lost its root; update reach::ENTRY_POINTS if the per-slot API moved"
                ),
            });
        }
    }

    while let Some(i) = queue.pop_front() {
        let node = &nodes[i];
        for callee in calls_in(&files[node.file], node.body) {
            for &j in by_name.get(callee).into_iter().flatten() {
                if reached.insert(j) {
                    queue.push_back(j);
                }
            }
        }
    }

    // Collect reachable body ranges per non-hot-path file, merge overlaps
    // (nested fns), and enumerate the unexempted panic sites inside.
    let mut ranges: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for &i in &reached {
        let n = &nodes[i];
        if HOT_PATH_FILES.contains(&files[n.file].rel_path.as_str()) {
            continue; // already under a per-file ratchet section
        }
        ranges.entry(n.file).or_default().push(n.body);
    }
    let mut sites: BTreeMap<String, Vec<(&'static str, u32)>> = BTreeMap::new();
    for (fi, mut rs) in ranges {
        rs.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for r in rs {
            match merged.last_mut() {
                Some(last) if r.0 < last.1 => last.1 = last.1.max(r.1),
                _ => merged.push(r),
            }
        }
        let file = &files[fi];
        let mut file_sites = Vec::new();
        for r in merged {
            file_sites.extend(panics::sites(file, r));
        }
        if !file_sites.is_empty() {
            sites.insert(file.rel_path.clone(), file_sites);
        }
    }
    Analysis { sites, findings }
}

/// Callee names within a fn body: identifiers directly followed by `(`
/// (free calls, method calls, tuple-struct constructors — unresolvable
/// names simply match no node). The name in a nested `fn name(` definition
/// is skipped.
fn calls_in(file: &SourceFile, body: (usize, usize)) -> BTreeSet<&str> {
    let toks = &file.tokens;
    let mut out = BTreeSet::new();
    for i in body.0..body.1.min(toks.len()) {
        let Some(name) = toks[i].ident() else { continue };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
            continue;
        }
        if i > 0 && toks[i - 1].ident() == Some("fn") {
            continue;
        }
        out.insert(name);
    }
    out
}

/// Per-category counts for one file's site list.
pub fn counts_of(sites: &[(&'static str, u32)]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for (cat, _) in sites {
        *counts.entry((*cat).to_owned()).or_insert(0u64) += 1;
    }
    counts
}

/// Compares the reachable-site inventory against the `reach:` budget
/// sections (already stripped of their prefix).
pub fn check(
    sites: &BTreeMap<String, Vec<(&'static str, u32)>>,
    budget: &Ratchet,
    ratchet_path: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, file_sites) in sites {
        let counts = counts_of(file_sites);
        let Some(allowed) = budget.get(file) else {
            out.push(Finding {
                file: file.clone(),
                line: 1,
                rule: "panic-reach".to_owned(),
                message: format!(
                    "helper file with panic site(s) reachable from the per-slot entry points is missing from {ratchet_path}; run --fix-ratchet to budget it"
                ),
            });
            continue;
        };
        for cat in CATEGORIES {
            let have = counts.get(cat).copied().unwrap_or(0);
            let want = allowed.get(cat).copied().unwrap_or(0);
            if have > want {
                let first = file_sites
                    .iter()
                    .filter(|(c, _)| *c == cat)
                    .map(|&(_, line)| line)
                    .min()
                    .unwrap_or(1);
                out.push(Finding {
                    file: file.clone(),
                    line: first,
                    rule: "panic-reach".to_owned(),
                    message: format!(
                        "{have} `{cat}` site(s) reachable from the per-slot entry points, ratchet allows {want} — make the helper total (return a typed error) or annotate its invariant with lint: allow(panic, ...)"
                    ),
                });
            } else if have < want {
                out.push(Finding {
                    file: file.clone(),
                    line: 1,
                    rule: "panic-reach".to_owned(),
                    message: format!(
                        "only {have} reachable `{cat}` site(s) but ratchet still allows {want} — run --fix-ratchet to lock the improvement in"
                    ),
                });
            }
        }
    }
    for file in budget.keys() {
        if !sites.contains_key(file) {
            out.push(Finding {
                file: file.clone(),
                line: 1,
                rule: "panic-reach".to_owned(),
                message: format!(
                    "stale reach entry in {ratchet_path}: no panic sites reachable from the entry points anymore; run --fix-ratchet"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(p, s)| SourceFile::new((*p).to_owned(), s))
            .collect()
    }

    const ENTRY_A: &str = "impl TimedController {\n    pub fn process_slot(&mut self) -> Result<(), E> {\n        helper_step(self.t);\n        Ok(())\n    }\n}\n";
    const ENTRY_B: &str = "impl RhoSource {\n    pub(crate) fn issue(&mut self) -> Result<Pick, E> { Ok(Pick::Idle) }\n}\n";

    #[test]
    fn reachable_helper_sites_are_inventoried() {
        let files = ws(&[
            ("crates/oram-ctrl/src/controller.rs", ENTRY_A),
            ("crates/oram-ctrl/src/rho.rs", ENTRY_B),
            (
                "crates/sim-engine/src/util.rs",
                "pub fn helper_step(t: u64) -> u64 {\n    deeper(t)\n}\nfn deeper(t: u64) -> u64 {\n    SLOTS[t as usize].unwrap()\n}\nfn unrelated() {\n    oops.unwrap();\n}\n",
            ),
        ]);
        let a = analyze(&files);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let sites = &a.sites["crates/sim-engine/src/util.rs"];
        // deeper: one index + one unwrap, both on line 5; `unrelated` is
        // not reachable so its unwrap is not counted.
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert!(sites.contains(&("index", 5)));
        assert!(sites.contains(&("unwrap", 5)));
    }

    #[test]
    fn hot_path_files_are_not_double_counted() {
        let files = ws(&[
            (
                "crates/oram-ctrl/src/controller.rs",
                "impl C {\n    pub fn process_slot(&mut self) { self.v[0].unwrap(); }\n}\n",
            ),
            ("crates/oram-ctrl/src/rho.rs", ENTRY_B),
        ]);
        let a = analyze(&files);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn allowed_sites_do_not_count() {
        let files = ws(&[
            ("crates/oram-ctrl/src/controller.rs", ENTRY_A),
            ("crates/oram-ctrl/src/rho.rs", ENTRY_B),
            (
                "crates/sim-engine/src/util.rs",
                "pub fn helper_step(t: u64) -> u64 {\n    // lint: allow(panic, t is clamped by the caller)\n    SLOTS[t as usize]\n}\n",
            ),
        ]);
        let a = analyze(&files);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn missing_entry_point_is_a_finding() {
        let files = ws(&[
            ("crates/oram-ctrl/src/controller.rs", ENTRY_A),
            ("crates/oram-ctrl/src/rho.rs", "fn other() {}\n"),
        ]);
        let a = analyze(&files);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].file, "crates/oram-ctrl/src/rho.rs");
        assert!(a.findings[0].message.contains("entry point"));
    }

    #[test]
    fn budget_comparison_flags_over_under_missing_and_stale() {
        let mut sites: BTreeMap<String, Vec<(&'static str, u32)>> = BTreeMap::new();
        sites.insert("a.rs".into(), vec![("unwrap", 9), ("unwrap", 12)]);
        sites.insert("b.rs".into(), vec![("index", 3)]);
        let budget = crate::ratchet::parse(
            "[\"a.rs\"]\nunwrap = 1\n[\"gone.rs\"]\nindex = 2\n",
        )
        .unwrap();
        let f = check(&sites, &budget, "lint-ratchet.toml");
        let over = f
            .iter()
            .find(|x| x.file == "a.rs" && x.message.contains("ratchet allows 1"))
            .expect("over-budget finding");
        assert_eq!(over.line, 9, "anchored at the first offending site");
        assert!(f
            .iter()
            .any(|x| x.file == "b.rs" && x.message.contains("missing from")));
        assert!(f
            .iter()
            .any(|x| x.file == "gone.rs" && x.message.contains("stale reach entry")));
    }

    #[test]
    fn under_budget_asks_for_a_ratchet_fix() {
        let mut sites: BTreeMap<String, Vec<(&'static str, u32)>> = BTreeMap::new();
        sites.insert("a.rs".into(), vec![("unwrap", 4)]);
        let budget = crate::ratchet::parse("[\"a.rs\"]\nunwrap = 3\n").unwrap();
        let f = check(&sites, &budget, "lint-ratchet.toml");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock the improvement in"));
    }
}
