//! KL007 — cfg feature hygiene.
//!
//! Two checks per crate:
//!
//! 1. every feature named in a `cfg`/`cfg_attr`/`cfg!` in the crate's
//!    sources must be declared in that crate's `Cargo.toml`
//!    `[features]` table — a typo'd or undeclared feature silently
//!    compiles the cfg'd code out of every build, exactly the failure
//!    mode the noop shims exist to prevent (machine-applicable fix:
//!    insert `name = []`);
//! 2. forwarding consistency: if crate C declares feature X and its
//!    path dependency D also declares X, C's X list must contain
//!    `"D/X"` — otherwise `cargo build -p C --features X` leaves D's
//!    half of the shim disabled and the two crates disagree about the
//!    feature (this is how the workspace keeps `--features trace` at
//!    the root meaning "trace everywhere").
//!
//! `Cargo.toml` is parsed by a purpose-built mini reader (sections,
//! `key = [ … ]` arrays possibly spanning lines, inline-table and
//! `.workspace = true` dependency forms) — the lint stays
//! dependency-free. A `# lint: feature-ok` comment on the feature's
//! line (or the line above) waives check 2; the source-side
//! `// lint: feature-ok` waives check 1.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::ParsedFile;
use crate::{Diagnostic, Suggestion, RULE_CFG_HYGIENE};

/// A parsed `Cargo.toml`, reduced to what KL007 needs.
pub(crate) struct Manifest {
    /// Workspace-relative path of the manifest.
    pub rel_path: String,
    /// `[package] name`, or "" for a virtual manifest.
    pub package_name: String,
    /// Feature name -> (1-based line of the declaration, entries).
    pub features: BTreeMap<String, (usize, Vec<String>)>,
    /// Byte offset just past the `[features]` header line, if present.
    pub features_insert: Option<usize>,
    /// Total byte length of the manifest text (append point).
    pub len: usize,
    /// Dependency keys from `[dependencies]`/`[dev-dependencies]`/
    /// `[build-dependencies]`.
    pub deps: BTreeSet<String>,
    /// Lines (1-based) covered by a `lint: feature-ok` waiver.
    pub feature_ok_lines: BTreeSet<usize>,
}

impl Manifest {
    pub(crate) fn parse(rel_path: &str, text: &str) -> Manifest {
        let mut m = Manifest {
            rel_path: rel_path.to_owned(),
            package_name: String::new(),
            features: BTreeMap::new(),
            features_insert: None,
            len: text.len(),
            deps: BTreeSet::new(),
            feature_ok_lines: BTreeSet::new(),
        };
        let mut section = String::new();
        let mut offset = 0usize;
        let mut pending: Option<(String, usize, String)> = None; // multi-line array
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line_len = raw.len() + 1; // newline
            let line = raw.trim();
            if let Some(pos) = raw.find("lint:") {
                if raw[pos + 5..].trim().starts_with("feature-ok") {
                    m.feature_ok_lines.insert(lineno);
                    m.feature_ok_lines.insert(lineno + 1);
                }
            }
            if let Some((name, decl_line, mut acc)) = pending.take() {
                acc.push_str(line);
                if line.contains(']') {
                    m.features
                        .insert(name, (decl_line, parse_string_array(&acc)));
                } else {
                    pending = Some((name, decl_line, acc));
                }
                offset += line_len;
                continue;
            }
            if line.starts_with('[') {
                section = line
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .to_owned();
                if section == "features" {
                    m.features_insert = Some((offset + line_len).min(text.len()));
                }
                offset += line_len;
                continue;
            }
            if let Some((key, value)) = split_kv(line) {
                match section.as_str() {
                    "package" if key == "name" => {
                        m.package_name = value.trim_matches('"').to_owned();
                    }
                    "features" => {
                        if value.contains('[') && !value.contains(']') {
                            pending = Some((key.to_owned(), lineno, value.to_owned()));
                        } else {
                            m.features
                                .insert(key.to_owned(), (lineno, parse_string_array(value)));
                        }
                    }
                    "dependencies" | "dev-dependencies" | "build-dependencies" => {
                        // `kloc-mem = { path = … }`, `kloc-trace.workspace = true`.
                        let dep = key.split('.').next().unwrap_or(key);
                        m.deps.insert(dep.to_owned());
                    }
                    _ => {
                        // `[dependencies.kloc-mem]`-style sections.
                        if let Some(dep) = section
                            .strip_prefix("dependencies.")
                            .or_else(|| section.strip_prefix("dev-dependencies."))
                        {
                            m.deps.insert(dep.to_owned());
                        }
                    }
                }
            }
            offset += line_len;
        }
        m
    }
}

fn split_kv(line: &str) -> Option<(&str, &str)> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let eq = line.find('=')?;
    let key = line[..eq].trim();
    let value = line[eq + 1..].trim();
    if key.is_empty() || key.contains(' ') {
        return None;
    }
    Some((key, value))
}

fn parse_string_array(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = value;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_owned());
        rest = &tail[close + 1..];
    }
    out
}

/// Runs both hygiene checks for one crate. `all` maps package name to
/// manifest for the whole workspace (for the forwarding check).
pub(crate) fn check_crate(
    manifest: &Manifest,
    files: &[(String, &ParsedFile)],
    all: &BTreeMap<String, Manifest>,
    allowed: &dyn Fn(&str, usize) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Check 1: undeclared features referenced in cfg.
    let mut fixed: BTreeSet<String> = BTreeSet::new();
    for (path, pf) in files {
        for atom in pf.cfg_feature_refs() {
            if manifest.features.contains_key(&atom.feature) || allowed(path, atom.line) {
                continue;
            }
            let mut d = Diagnostic::new(
                path,
                atom.line,
                RULE_CFG_HYGIENE,
                format!(
                    "feature `{}` referenced in cfg but not declared in {}",
                    atom.feature, manifest.rel_path
                ),
            );
            d.notes.push(format!(
                "declare it under [features] in {} (or fix the name); an undeclared feature can never be enabled",
                manifest.rel_path
            ));
            // One insertion per feature per crate, or --fix would
            // append duplicate declarations.
            if fixed.insert(atom.feature.clone()) {
                let (start, replacement) = match manifest.features_insert {
                    Some(at) => (at, format!("{} = []\n", atom.feature)),
                    None => (
                        manifest.len,
                        format!("\n[features]\n{} = []\n", atom.feature),
                    ),
                };
                d.suggestion = Some(Suggestion {
                    file: manifest.rel_path.clone(),
                    start,
                    end: start,
                    replacement,
                });
            }
            out.push(d);
        }
    }

    // Check 2: declared features must be forwarded to path deps that
    // declare the same feature. `default` is exempt: cargo enables a
    // dependency's default features implicitly, so nothing to forward.
    for (feature, (line, entries)) in &manifest.features {
        if feature == "default" || manifest.feature_ok_lines.contains(line) {
            continue;
        }
        for dep in &manifest.deps {
            let Some(dep_manifest) = all.get(dep) else {
                continue;
            };
            if !dep_manifest.features.contains_key(feature) {
                continue;
            }
            let forward = format!("{dep}/{feature}");
            let forward_weak = format!("{dep}?/{feature}");
            if entries.iter().any(|e| e == &forward || e == &forward_weak) {
                continue;
            }
            let mut d = Diagnostic::new(
                &manifest.rel_path,
                *line,
                RULE_CFG_HYGIENE,
                format!(
                    "feature `{feature}` is not forwarded to dependency `{dep}` (add \"{forward}\")"
                ),
            );
            d.notes.push(format!(
                "`{dep}` declares `{feature}` in {}; without forwarding, enabling `{feature}` here leaves `{dep}`'s half disabled",
                dep_manifest.rel_path
            ));
            out.push(d);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[package]
name = "kloc-mem"

[features]
ksan = []
kfault = ["kloc-core/kfault"]

[dependencies]
kloc-core = { path = "../core" }
"#;

    fn parsed(src: &str) -> ParsedFile {
        ParsedFile::parse(src)
    }

    #[test]
    fn parses_manifest() {
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        assert_eq!(m.package_name, "kloc-mem");
        assert!(m.features.contains_key("ksan"));
        assert_eq!(m.features["kfault"].1, vec!["kloc-core/kfault".to_owned()]);
        assert!(m.deps.contains("kloc-core"));
        assert!(m.features_insert.is_some());
    }

    #[test]
    fn parses_multiline_feature_array() {
        let text = "[features]\nksan = [\n  \"kloc-core/ksan\",\n  \"kloc-mem/ksan\",\n]\n";
        let m = Manifest::parse("Cargo.toml", text);
        assert_eq!(m.features["ksan"].1.len(), 2);
        assert_eq!(m.features["ksan"].0, 2);
    }

    #[test]
    fn undeclared_feature_is_flagged_with_insertion_fix() {
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        let pf = parsed("#[cfg(feature = \"ksand\")]\npub fn f() {}\n");
        let files = vec![("crates/mem/src/lib.rs".to_owned(), &pf)];
        let d = check_crate(&m, &files, &BTreeMap::new(), &|_, _| false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("ksand"));
        let fix = d[0].suggestion.as_ref().expect("fix");
        assert_eq!(fix.file, "crates/mem/Cargo.toml");
        assert_eq!(fix.replacement, "ksand = []\n");
        assert_eq!(fix.start, fix.end);
    }

    #[test]
    fn declared_features_are_clean() {
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        let pf = parsed("#[cfg(feature = \"ksan\")]\npub fn f() {}\n#[cfg(not(feature = \"kfault\"))]\npub fn g() {}\n");
        let files = vec![("crates/mem/src/lib.rs".to_owned(), &pf)];
        let d = check_crate(&m, &files, &BTreeMap::new(), &|_, _| false);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unforwarded_feature_is_flagged() {
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\nksan = []\n",
        );
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_crate(&m, &[], &all, &|_, _| false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not forwarded"), "{}", d[0].message);
        assert!(d[0].message.contains("kloc-core/ksan"));
        assert_eq!(d[0].file, "crates/mem/Cargo.toml");
        assert_eq!(d[0].line, 6); // `ksan = []` line in MANIFEST
    }

    #[test]
    fn forwarded_feature_is_clean() {
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\nkfault = []\n",
        );
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_crate(&m, &[], &all, &|_, _| false);
        // kfault forwards; ksan is not declared by the dep in this test.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn feature_ok_waives_forwarding() {
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\nksan = []\n",
        );
        let text = MANIFEST.replace(
            "ksan = []",
            "# lint: feature-ok — ksan is mem-local\nksan = []",
        );
        let m = Manifest::parse("crates/mem/Cargo.toml", &text);
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_crate(&m, &[], &all, &|_, _| false);
        assert!(d.is_empty(), "{d:?}");
    }
}
