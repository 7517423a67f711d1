//! `cordoba-lint` — domain-aware static analysis for the CORDOBA workspace.
//!
//! CORDOBA's carbon arithmetic is only trustworthy because it runs on typed
//! physical quantities (`cordoba_carbon::units`), and its results are only
//! comparable because every sweep is a pure function of its inputs. This
//! crate mechanically enforces both families of conventions — the ones the
//! type system cannot — across every `.rs` file in the workspace:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `unit-laundering` | `Quantity::new(x.value() * y.value())` outside `units.rs` |
//! | `no-panic` | `unwrap`/`expect`/`panic!`/`unreachable!` in library code |
//! | `float-eq` | `==`/`!=` against float literals |
//! | `lossy-cast` | bare numeric `as` casts in the carbon/tech kernels |
//! | `raw-constant` | bare literals equal to known physical constants |
//! | `missing-must-use` | public fns returning unit quantities without `#[must_use]` |
//! | `nondet-iteration` | hash-ordered iteration where order reaches the result |
//! | `wall-clock` | `SystemTime::now`/`Instant::now` outside obs/bench/cli |
//! | `raw-thread` | `std::thread`/`mpsc` outside cordoba-par |
//! | `ambient-input` | `env::var`/`std::fs` reads in library crates |
//! | `atomic-ordering` | `Ordering::Relaxed` outside the obs registry (warn) |
//! | `global-state` | `static mut` / interior-mutable statics outside obs |
//!
//! The last six form the `determinism` family (see [`rules::determinism`])
//! and are **cross-file**: a [`workspace::WorkspaceModel`] built from every
//! file in the run resolves imports, type aliases, and struct fields, so
//! `use std::time::Instant as Clock; Clock::now()` fires while a
//! workspace-local `Instant` type does not.
//!
//! Run it as `cargo run -p cordoba-lint -- check` (exit 0 clean, 1 new
//! `deny` findings, 2 usage/I-O error) — the workspace self-check test runs
//! the same pass under `cargo test`. Findings are suppressed with
//! `// cordoba-lint: allow(<rule>)` markers (see [`markers`]), tolerated
//! via a committed baseline (`--baseline`, see [`json`]), or reported as
//! JSON (`--format json`) for the CI gate.
//!
//! The analysis is a hand-rolled tokenizer plus a tolerant item parser
//! ([`parser`]) rather than a full AST walk: the crate must build with
//! **no external dependencies** so the lint gate works in fully-offline
//! environments (no `syn`). Its one workspace dependency, `cordoba-obs`,
//! has none either and supplies the JSON parser for baselines.

pub mod context;
pub mod diagnostics;
pub mod json;
pub mod lexer;
pub mod markers;
pub mod parser;
pub mod rules;
pub mod workspace;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use context::FileContext;
use diagnostics::{Diagnostic, Severity};
use rules::{Rule, RuleInputs};
use workspace::WorkspaceModel;

/// Directory names never descended into while walking.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "results"];

/// A configured lint run: which rules are active, per-rule severity
/// overrides, and the seed unit-type set.
///
/// A `Linter` is immutable during checking: every entry point takes
/// `&self`, learns `quantity!` declarations into a per-run copy of the
/// unit set, and never carries state from one run into the next — checking
/// the same tree twice through one `Linter` yields identical results.
pub struct Linter {
    rules: Vec<Box<dyn Rule>>,
    units: BTreeSet<String>,
    severities: BTreeMap<&'static str, Severity>,
}

impl Default for Linter {
    fn default() -> Self {
        Self::new()
    }
}

impl Linter {
    /// A linter with every registered rule enabled at its default severity.
    #[must_use]
    pub fn new() -> Self {
        Self {
            rules: rules::all_rules(),
            units: rules::default_units(),
            severities: BTreeMap::new(),
        }
    }

    /// Expands family names and validates every resulting rule name.
    fn expand_validated(names: &[&str]) -> Result<Vec<&'static str>, String> {
        let known = rules::rule_names();
        let mut out = Vec::new();
        for name in names.iter().flat_map(|n| rules::expand(n)) {
            match known.iter().find(|k| **k == name) {
                Some(k) => out.push(*k),
                None => {
                    return Err(format!(
                        "unknown rule `{name}` (known: {}; families: determinism)",
                        known.join(", ")
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Restricts the run to the named rules (family names like
    /// `determinism` expand to their members). Unknown names are an error
    /// so typos in CI configs fail loudly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown rule.
    pub fn restrict_to(&mut self, names: &[&str]) -> Result<(), String> {
        let keep = Self::expand_validated(names)?;
        self.rules.retain(|r| keep.contains(&r.name()));
        Ok(())
    }

    /// Disables the named rules (families expand), keeping the rest.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown rule.
    pub fn skip(&mut self, names: &[&str]) -> Result<(), String> {
        let drop = Self::expand_validated(names)?;
        self.rules.retain(|r| !drop.contains(&r.name()));
        Ok(())
    }

    /// Overrides the severity of the named rules (families expand).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown rule.
    pub fn set_severity(&mut self, names: &[&str], severity: Severity) -> Result<(), String> {
        for name in Self::expand_validated(names)? {
            self.severities.insert(name, severity);
        }
        Ok(())
    }

    /// The severity a rule's findings will carry in this run.
    fn effective_severity(&self, rule: &dyn Rule) -> Severity {
        self.severities
            .get(rule.name())
            .copied()
            .unwrap_or_else(|| rule.severity())
    }

    /// Lints a single file's source under a workspace-relative path. Used by
    /// fixture tests; cross-file resolution sees only this one file.
    #[must_use]
    pub fn check_source(&self, rel: &str, source: &str) -> Vec<Diagnostic> {
        self.check_sources(&[(rel, source)])
    }

    /// Lints a set of in-memory sources as one workspace, so tests can
    /// exercise cross-file resolution (imports, aliases, struct fields)
    /// without touching disk.
    #[must_use]
    pub fn check_sources(&self, files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ctxs: Vec<FileContext> = files
            .iter()
            .map(|(rel, source)| FileContext::new(rel, source))
            .collect();
        self.lint_contexts(&ctxs)
    }

    /// Walks `root` for `.rs` files and lints them all. Equivalent to
    /// [`Linter::run`] with a single root.
    ///
    /// # Errors
    ///
    /// Returns any I/O error encountered while walking or reading files.
    pub fn check_path(&self, root: &Path) -> io::Result<Vec<Diagnostic>> {
        self.run(&[root.to_path_buf()])
    }

    /// Lints every `.rs` file under the given roots as **one** run:
    /// overlapping roots are deduplicated by canonical path, `quantity!`
    /// declarations from any root feed the shared unit set, and the
    /// workspace model spans all files, so cross-file rules see the same
    /// picture regardless of how the paths were spelled.
    ///
    /// # Errors
    ///
    /// Returns any I/O error encountered while walking or reading files.
    pub fn run(&self, roots: &[PathBuf]) -> io::Result<Vec<Diagnostic>> {
        let mut files = BTreeSet::new();
        for root in roots {
            let mut collected = Vec::new();
            collect_rs_files(root, &mut collected)?;
            for path in collected {
                files.insert(fs::canonicalize(&path).unwrap_or(path));
            }
        }
        let ws = fs::canonicalize(workspace_root()).unwrap_or_else(|_| workspace_root());
        let mut ctxs = Vec::new();
        for path in &files {
            let source = fs::read_to_string(path)?;
            ctxs.push(FileContext::new(&relative(&ws, path), &source));
        }
        Ok(self.lint_contexts(&ctxs))
    }

    /// The shared core: learn units, build the workspace model, run every
    /// rule over every file, filter suppressions, stamp severities, and
    /// produce sorted, deduplicated findings.
    fn lint_contexts(&self, ctxs: &[FileContext]) -> Vec<Diagnostic> {
        let mut units = self.units.clone();
        for ctx in ctxs {
            if ctx.file_name == "units.rs" {
                units.extend(ctx.declared_quantities());
            }
        }
        let model = WorkspaceModel::build(ctxs);
        let mut diags = Vec::new();
        for ctx in ctxs {
            let inputs = RuleInputs {
                file: ctx,
                units: &units,
                model: &model,
            };
            for rule in &self.rules {
                let severity = self.effective_severity(rule.as_ref());
                for mut d in rule.check(&inputs) {
                    if ctx.markers.is_allowed(d.rule, d.line) {
                        continue;
                    }
                    d.severity = severity;
                    diags.push(d);
                }
            }
        }
        diagnostics::sort(&mut diags);
        diags.dedup();
        diags
    }

    /// Names of the active rules.
    #[must_use]
    pub fn active_rules(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }
}

/// Workspace-relative display path with forward slashes. When `root` is the
/// file itself (single-file check), falls back to the full path.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel = if rel.as_os_str().is_empty() {
        path
    } else {
        rel
    };
    rel.to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if dir.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push(dir.to_path_buf());
        }
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The CORDOBA workspace root, derived from this crate's manifest directory.
#[must_use]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
