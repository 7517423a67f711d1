//! `raw-thread`: forbids raw `std::thread` / `mpsc` use outside
//! `cordoba-par`.
//!
//! Bit-identical parallel/sequential results rest on funnelling all
//! concurrency through `cordoba_par`'s deterministic, order-preserving
//! map. A stray `thread::spawn` or `mpsc::channel` reintroduces
//! scheduling-order dependence that no property suite can exhaustively
//! test. Library code must express parallelism as a `cordoba_par::map`
//! over a pure closure; only the `par` crate itself may touch the std
//! primitives.

use crate::diagnostics::Diagnostic;
use crate::rules::determinism::{in_scope, path_ending_at};
use crate::rules::{Rule, RuleInputs};

/// The one crate allowed to own raw threads.
const SANCTIONED: &[&str] = &["par"];

/// Call targets that create threads or channels.
const SPAWN_LIKE: &[&str] = &["spawn", "scope", "channel", "sync_channel"];

/// See module docs.
#[derive(Debug, Clone, Copy)]
pub struct RawThread;

impl Rule for RawThread {
    fn name(&self) -> &'static str {
        "raw-thread"
    }

    fn description(&self) -> &'static str {
        "std::thread spawn/scope or mpsc channels outside cordoba-par — use cordoba_par::map"
    }

    fn check(&self, inputs: &RuleInputs<'_>) -> Vec<Diagnostic> {
        if !in_scope(&inputs.file.kind, SANCTIONED) {
            return Vec::new();
        }
        let t = &inputs.file.tokens;
        let rel = &inputs.file.rel;
        let mut diags = Vec::new();
        for i in 0..t.len() {
            if inputs.file.in_test_code(i) {
                continue;
            }
            let callish = SPAWN_LIKE.contains(&t[i].text.as_str())
                && t[i].kind == crate::lexer::TokenKind::Ident
                && t.get(i + 1).is_some_and(|n| n.is_open('('));
            let builderish =
                t[i].is_ident("Builder") && t.get(i + 1).is_some_and(|n| n.is_punct("::"));
            if !callish && !builderish {
                continue;
            }
            // A method call (`pool.spawn(...)`) is someone else's API.
            if i > 0 && t[i - 1].is_punct(".") {
                continue;
            }
            let resolved = inputs.model.resolve_path(rel, &path_ending_at(t, i));
            let std_rooted = matches!(resolved.first().map(String::as_str), Some("std" | "core"));
            let threadish = resolved.iter().any(|s| s == "thread" || s == "mpsc");
            if std_rooted && threadish {
                diags.push(Diagnostic::new(
                    rel,
                    t[i].line,
                    self.name(),
                    format!(
                        "`{}` creates raw threads/channels whose scheduling order is \
                         nondeterministic; route parallelism through \
                         `cordoba_par::map` (only crates/par may use \
                         std::thread directly)",
                        resolved.join("::"),
                    ),
                ));
            }
        }
        diags
    }
}
