//! Workspace symbol index: crate graph, module graphs, and the cross-file
//! semantic passes built on [`crate::parse`].
//!
//! This is the layer that certifies the PDES-safety preconditions (see
//! DESIGN.md § Static analysis): conservative sharding of a run is only
//! sound if simulation state flows one way through the crate DAG and
//! never loops between modules, so a future `partition` layer physically
//! cannot reach back into global `Sim` state.
//!
//! Two graphs are built:
//!
//! * **Crate graph** — edges from every `Cargo.toml`
//!   `[dependencies]`/`[dev-dependencies]` entry *and* from every resolved
//!   first-party `use`/path reference in source (dev-dependency cycles are
//!   legal to cargo, which is exactly why they must be linted). Each
//!   first-party crate has an explicit layer in [`LAYERS`]; an edge is
//!   legal only when it points strictly downward. Crates missing from the
//!   table (e.g. `simlint` itself, or a future crate someone forgot to
//!   place) are *isolated*: any first-party edge touching them is a
//!   finding, so new crates must be placed in the DAG deliberately.
//! * **Module graphs** — one per sim-state crate, nodes = file modules,
//!   edges = non-test `crate::x` / `super::x` references. Any cycle is a
//!   finding on every edge inside it.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::ParsedFile;
use crate::rules::{Finding, Rule};

/// The one-way crate DAG, as layers: an edge `A -> B` (A depends on B) is
/// legal iff `layer(A) > layer(B)`. `netsim` and `prioplus` share a layer
/// deliberately — the network model and the paper's algorithm stay
/// decoupled; `transport` is where they meet.
pub const LAYERS: &[(&str, i8)] = &[
    ("simcore", 0),
    ("prioplus", 1),
    ("netsim", 1),
    ("transport", 2),
    ("workloads", 3),
    ("experiments", 4),
];

/// Crate directories whose *module* graphs must stay acyclic (the crates
/// that hold simulation state; experiments is driver code).
const MODULE_CYCLE_SCOPE: &[&str] = &[
    "crates/simcore",
    "crates/netsim",
    "crates/transport",
    "crates/workloads",
    "crates/core",
];

/// Path prefixes treated as non-module roots inside `src/` (separate
/// binary targets, not part of the library module tree).
const BIN_DIR: &str = "/src/bin/";

fn human_dag() -> &'static str {
    "simcore <- {netsim, prioplus} <- transport <- workloads <- experiments"
}

/// One first-party crate discovered from a `Cargo.toml`.
#[derive(Debug)]
pub struct CrateMeta {
    /// Package name with `-` mapped to `_` (the identifier used in paths).
    pub ident: String,
    /// Workspace-relative crate directory, e.g. `crates/netsim`.
    pub dir: String,
    /// Workspace-relative manifest path.
    pub manifest: String,
    /// Layer in [`LAYERS`]; `None` = isolated.
    pub rank: Option<i8>,
    /// First-party dependency idents with the manifest line they appear on
    /// (dev- and build-dependencies included).
    pub deps: Vec<(String, u32)>,
}

/// Minimal `Cargo.toml` reader: package name, dependency keys (with
/// lines), and `path = "..."` entries of `[[test]]`/`[[example]]`/
/// `[[bench]]`/`[[bin]]` targets (used to map out-of-tree test files to
/// their owning crate).
struct Manifest {
    name: Option<String>,
    deps: Vec<(String, u32)>,
    target_paths: Vec<String>,
}

fn parse_manifest(dir: &str, text: &str) -> Manifest {
    let mut m = Manifest {
        name: None,
        deps: Vec::new(),
        target_paths: Vec::new(),
    };
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let inner = rest.trim_end_matches(']').trim_matches('[').trim();
            section = inner.to_string();
            // `[dependencies.foo]` declares dep `foo` on this very line.
            for deps_sec in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                if let Some(dep) = inner.strip_prefix(deps_sec) {
                    m.deps.push((dep.trim().replace('-', "_"), line_no));
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match section.as_str() {
            "package" if key == "name" => {
                m.name = Some(value.trim_matches('"').to_string());
            }
            "dependencies" | "dev-dependencies" | "build-dependencies" => {
                m.deps.push((key.replace('-', "_"), line_no));
            }
            "test" | "example" | "bench" | "bin" if key == "path" => {
                m.target_paths
                    .push(normalize_path(dir, value.trim_matches('"')));
            }
            _ => {}
        }
    }
    m
}

/// Resolve `rel` against workspace-relative `dir`, folding `..`/`.`.
fn normalize_path(dir: &str, rel: &str) -> String {
    let mut parts: Vec<&str> = dir.split('/').filter(|s| !s.is_empty()).collect();
    for seg in rel.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            s => parts.push(s),
        }
    }
    parts.join("/")
}

/// The workspace under analysis: every first-party `.rs` source and
/// `Cargo.toml`, added by path. Drives both the per-file rule families
/// and the cross-file semantic passes; [`Workspace::lint`] returns the
/// combined, allow-filtered, globally sorted report.
#[derive(Debug, Default)]
pub struct Workspace {
    sources: BTreeMap<String, String>,
    manifests: BTreeMap<String, String>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Add one file by workspace-relative path (forward slashes).
    /// `Cargo.toml` feeds the crate graph; `.rs` files feed everything.
    pub fn add(&mut self, path: &str, contents: &str) {
        if path.ends_with("Cargo.toml") {
            self.manifests.insert(path.to_string(), contents.to_string());
        } else if path.ends_with(".rs") {
            self.sources.insert(path.to_string(), contents.to_string());
        }
    }

    /// Number of `.rs` sources added.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Run every pass; see [`crate::Report`].
    pub fn lint(&self) -> crate::Report {
        crate::lint_workspace_data(&self.sources, &self.manifests)
    }
}

/// Crates discovered from the added manifests.
pub(crate) fn discover_crates(manifests: &BTreeMap<String, String>) -> BTreeMap<String, CrateMeta> {
    let mut crates = BTreeMap::new();
    for (path, text) in manifests {
        let dir = match path.rfind('/') {
            Some(i) => &path[..i],
            None => continue, // workspace-root manifest: not a crate
        };
        let m = parse_manifest(dir, text);
        let Some(name) = m.name else { continue };
        let ident = name.replace('-', "_");
        let rank = LAYERS
            .iter()
            .find(|(n, _)| *n == ident)
            .map(|&(_, r)| r);
        crates.insert(
            ident.clone(),
            CrateMeta {
                ident,
                dir: dir.to_string(),
                manifest: path.clone(),
                rank,
                deps: m.deps,
            },
        );
    }
    crates
}

/// Map every source path to its owning crate ident: explicit target-path
/// entries win (they place `tests/e2e_*.rs` with `experiments` and
/// `tests/lint_clean.rs` with `simlint`), then the longest crate-dir
/// prefix.
pub(crate) fn crate_of_files(
    manifests: &BTreeMap<String, String>,
    crates: &BTreeMap<String, CrateMeta>,
    sources: &BTreeMap<String, String>,
) -> BTreeMap<String, String> {
    let mut target_owner: BTreeMap<String, String> = BTreeMap::new();
    for (path, text) in manifests {
        let dir = match path.rfind('/') {
            Some(i) => &path[..i],
            None => continue,
        };
        let m = parse_manifest(dir, text);
        if let Some(name) = m.name {
            let ident = name.replace('-', "_");
            for t in m.target_paths {
                target_owner.insert(t, ident.clone());
            }
        }
    }
    let mut out = BTreeMap::new();
    for path in sources.keys() {
        if let Some(owner) = target_owner.get(path) {
            out.insert(path.clone(), owner.clone());
            continue;
        }
        let mut best: Option<(&str, usize)> = None;
        for meta in crates.values() {
            let prefix = format!("{}/", meta.dir);
            if path.starts_with(&prefix)
                && best.map_or(true, |(_, len)| prefix.len() > len)
            {
                best = Some((&meta.ident, prefix.len()));
            }
        }
        if let Some((ident, _)) = best {
            out.insert(path.clone(), ident.to_string());
        }
    }
    out
}

fn rank_violation(
    crates: &BTreeMap<String, CrateMeta>,
    from: &str,
    to: &str,
) -> Option<String> {
    let (fr, tr) = (crates.get(from)?.rank, crates.get(to)?.rank);
    match (fr, tr) {
        (Some(f), Some(t)) if f > t => None,
        (Some(f), Some(t)) => Some(format!(
            "layering violation: {from} (layer {f}) must not depend on {to} (layer {t}); \
             the crate DAG is one-way: {}",
            human_dag()
        )),
        _ => {
            let unplaced = if fr.is_none() { from } else { to };
            Some(format!(
                "{unplaced} has no layer in simlint's crate DAG ({}); place new crates \
                 in index::LAYERS deliberately before wiring first-party dependencies",
                human_dag()
            ))
        }
    }
}

/// R9a: check every crate-level dependency edge (manifest + source refs)
/// against the layer table.
pub(crate) fn crate_edge_findings(
    crates: &BTreeMap<String, CrateMeta>,
    crate_of: &BTreeMap<String, String>,
    parsed: &BTreeMap<String, ParsedFile>,
) -> Vec<(String, Finding)> {
    let mut findings = Vec::new();
    // Manifest edges.
    for meta in crates.values() {
        for (dep, line) in &meta.deps {
            if dep == &meta.ident || !crates.contains_key(dep) {
                continue;
            }
            if let Some(msg) = rank_violation(crates, &meta.ident, dep) {
                findings.push((
                    meta.manifest.clone(),
                    Finding {
                        rule: Rule::Layering,
                        line: *line,
                        col: 1,
                        message: format!("dependency on {dep}: {msg}"),
                        allowed: None,
                    },
                ));
            }
        }
    }
    // Source-reference edges: first line per (file, target crate). Test
    // regions are NOT exempt — a dev-dependency back-edge is still a
    // layering leak (cargo permits dev-dep cycles; the DAG must not).
    for (path, pf) in parsed {
        let Some(from) = crate_of.get(path) else {
            continue;
        };
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut refs: Vec<(&str, u32)> = Vec::new();
        for u in &pf.uses {
            if let Some(head) = u.segs.first() {
                refs.push((head.as_str(), u.line));
            }
        }
        for r in &pf.path_refs {
            refs.push((r.head.as_str(), r.line));
        }
        refs.sort_by_key(|&(_, line)| line);
        for (head, line) in refs {
            if head == from || !crates.contains_key(head) || !seen.insert(head) {
                continue;
            }
            if let Some(msg) = rank_violation(crates, from, head) {
                findings.push((
                    path.clone(),
                    Finding {
                        rule: Rule::Layering,
                        line,
                        col: 1,
                        message: format!("reference to {head}::...: {msg}"),
                        allowed: None,
                    },
                ));
            }
        }
    }
    findings
}

/// R9b: per sim-state crate, the file-module graph must be acyclic.
pub(crate) fn module_cycle_findings(
    crates: &BTreeMap<String, CrateMeta>,
    parsed: &BTreeMap<String, ParsedFile>,
) -> (Vec<(String, Finding)>, usize) {
    let mut findings = Vec::new();
    let mut modules_indexed = 0usize;
    for meta in crates.values() {
        if !MODULE_CYCLE_SCOPE.contains(&meta.dir.as_str()) {
            continue;
        }
        let src_prefix = format!("{}/src/", meta.dir);
        // File modules: `src/x.rs` -> module `x`; lib/main -> the root.
        let mut module_of: BTreeMap<String, String> = BTreeMap::new(); // path -> module
        let mut modules: BTreeSet<String> = BTreeSet::new();
        for path in parsed.keys() {
            let Some(rest) = path.strip_prefix(&src_prefix) else {
                continue;
            };
            if path.contains(BIN_DIR) || rest.contains('/') {
                continue;
            }
            let stem = rest.trim_end_matches(".rs");
            let module = if stem == "lib" || stem == "main" {
                "(root)".to_string()
            } else {
                stem.to_string()
            };
            modules.insert(module.clone());
            module_of.insert(path.clone(), module);
        }
        modules_indexed += modules.len();
        // Edges from non-test `crate::x` / `super::x` references.
        let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for (path, module) in &module_of {
            let pf = &parsed[path];
            let mut add = |target: &str, line: u32| {
                if target != module && modules.contains(target) {
                    edges
                        .entry((module.clone(), target.to_string()))
                        .or_insert((path.clone(), line));
                }
            };
            for u in &pf.uses {
                if u.in_test || u.segs.len() < 2 {
                    continue;
                }
                match u.segs[0].as_str() {
                    "crate" => add(&u.segs[1], u.line),
                    // Every file module sits directly under the root, so
                    // `super::x` in one resolves to sibling module `x`.
                    "super" if module != "(root)" => add(&u.segs[1], u.line),
                    _ => {}
                }
            }
            for r in &pf.path_refs {
                if r.in_test {
                    continue;
                }
                let second = match &r.second {
                    Some(s) => s.as_str(),
                    None => continue,
                };
                match r.head.as_str() {
                    "crate" => add(second, r.line),
                    "super" if module != "(root)" => add(second, r.line),
                    _ => {}
                }
            }
        }
        // For each edge a->b, a path b ->* a means the edge closes a cycle.
        let adj: BTreeMap<&str, Vec<&str>> = {
            let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for (a, b) in edges.keys() {
                adj.entry(a.as_str()).or_default().push(b.as_str());
            }
            adj
        };
        for ((a, b), (path, line)) in &edges {
            if let Some(back) = find_path(&adj, b, a) {
                let mut cycle = vec![a.as_str()];
                cycle.extend(back.iter().copied());
                let cycle = cycle.join(" -> ");
                findings.push((
                    path.clone(),
                    Finding {
                        rule: Rule::Layering,
                        line: *line,
                        col: 1,
                        message: format!(
                            "module cycle in crate {}: {cycle}; sim state must flow one \
                             way between modules (split the shared type into its own \
                             module, as netsim::event does for Event)",
                            meta.ident
                        ),
                        allowed: None,
                    },
                ));
            }
        }
    }
    (findings, modules_indexed)
}

/// DFS path from `from` to `to` over `adj` (deterministic: neighbors are
/// sorted by construction). Returns the node sequence `from ..= to`.
fn find_path<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &'a str,
) -> Option<Vec<&'a str>> {
    let mut stack = vec![vec![from]];
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    while let Some(path) = stack.pop() {
        let node = *path.last().expect("paths are never empty");
        if node == to {
            return Some(path);
        }
        if !visited.insert(node) {
            continue;
        }
        if let Some(next) = adj.get(node) {
            // Push in reverse so the lexicographically first neighbor is
            // explored first (deterministic shortest-ish path).
            for n in next.iter().rev() {
                if !visited.contains(n) {
                    let mut p = path.clone();
                    p.push(n);
                    stack.push(p);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parser_reads_names_deps_and_target_paths() {
        let m = parse_manifest(
            "crates/experiments",
            r#"
[package]
name = "experiments"
version = "0.1.0"

[dependencies]
simcore = { workspace = true }
netsim = { workspace = true }

[dev-dependencies]
proptest = { workspace = true }

[dependencies.prioplus-core]
workspace = true

[[test]]
name = "e2e_basic"
path = "../../tests/e2e_basic.rs"
"#,
        );
        assert_eq!(m.name.as_deref(), Some("experiments"));
        let deps: Vec<&str> = m.deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(deps, vec!["simcore", "netsim", "proptest", "prioplus_core"]);
        assert_eq!(m.target_paths, vec!["tests/e2e_basic.rs"]);
    }

    #[test]
    fn normalize_path_folds_dotdot() {
        assert_eq!(
            normalize_path("crates/experiments", "../../tests/x.rs"),
            "tests/x.rs"
        );
        assert_eq!(normalize_path("crates/netsim", "./src/lib.rs"), "crates/netsim/src/lib.rs");
    }

    #[test]
    fn rank_violation_directions() {
        let mut manifests = BTreeMap::new();
        for (name, dir) in [
            ("netsim", "crates/netsim"),
            ("experiments", "crates/experiments"),
            ("simlint", "crates/simlint"),
        ] {
            manifests.insert(
                format!("{dir}/Cargo.toml"),
                format!("[package]\nname = \"{name}\"\n"),
            );
        }
        let crates = discover_crates(&manifests);
        assert!(rank_violation(&crates, "experiments", "netsim").is_none());
        assert!(rank_violation(&crates, "netsim", "experiments")
            .unwrap()
            .contains("layering violation"));
        assert!(rank_violation(&crates, "netsim", "simlint")
            .unwrap()
            .contains("no layer"));
    }

    #[test]
    fn find_path_is_deterministic() {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        adj.insert("a", vec!["b", "c"]);
        adj.insert("b", vec!["d"]);
        adj.insert("c", vec!["d"]);
        assert_eq!(find_path(&adj, "a", "d"), Some(vec!["a", "b", "d"]));
        assert_eq!(find_path(&adj, "d", "a"), None);
    }
}
