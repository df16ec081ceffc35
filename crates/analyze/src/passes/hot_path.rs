//! **hot-path-no-alloc**: nothing reachable from the per-event hot path
//! may allocate.
//!
//! Roots (the engine's alloc-free contract): the hypervisor's per-event
//! entry point (`Hypervisor::handle` — `Hypervisor::tick` is also
//! accepted should one appear), the per-decision `Scheduler` trait hooks
//! (`next_reconfig`, `on_arrival`, `on_retire`, `pipelining`), the
//! event-queue operations (`EventQueue::{push, pop, pop_at_or_before}`),
//! and the cluster's per-arrival dispatch step
//! (`Dispatcher::{decide, commit}`), which every front-door run and
//! planner replay takes once per invocation.
//!
//! Flagged allocation sites in reached functions: `Box::new`/`Rc::new`/
//! `Arc::new`, `format!`, `vec!`, `String::from`, `.to_string()`,
//! `.to_owned()`, `.collect()`, and single-argument `.push(…)`/
//! `.push_back(…)` with no capacity discipline in the preceding window.
//! Two-plus-argument `push` calls are the event queue's `push(at, ev)`
//! signature, not `Vec::push`, and are exempt. `.extend(…)` onto cleared
//! reusable buffers is a documented false negative (DESIGN.md §16).

use std::collections::BTreeSet;

use crate::callgraph::Model;
use crate::lex::{Token, TokenKind};
use crate::passes::{top_level_commas, Finding, Pass, PassOutcome};

/// Hot-path roots by exact qualified name.
const ROOT_QUALS: &[&str] = &[
    "Hypervisor::tick",
    "Hypervisor::handle",
    "EventQueue::push",
    "EventQueue::pop",
    "EventQueue::pop_at_or_before",
    "Dispatcher::decide",
    "Dispatcher::commit",
];

/// The per-decision `Scheduler` trait hooks (the remaining trait methods
/// — `name`, `attach_metrics` — run at setup or report time).
const SCHEDULER_HOT_METHODS: &[&str] = &["next_reconfig", "on_arrival", "on_retire", "pipelining"];

/// Tokens whose presence in the lookback window blesses a `push` as
/// capacity-disciplined (mirrors the lint rule's buffer heuristic).
const CAPACITY_MARKERS: &[&str] = &["capacity", "reserve"];
const PUSH_LOOKBACK: usize = 25;

/// See module docs.
pub struct HotPathNoAlloc;

impl Pass for HotPathNoAlloc {
    fn id(&self) -> &'static str {
        "hot-path-no-alloc"
    }
    fn description(&self) -> &'static str {
        "no allocation site is reachable from the hypervisor/scheduler/event-queue hot path"
    }
    fn run(&self, model: &Model, prune: &BTreeSet<usize>) -> PassOutcome {
        let mut roots: Vec<usize> = Vec::new();
        for qual in ROOT_QUALS {
            roots.extend(model.by_qual_name(qual));
        }
        for id in model.trait_impl_methods("Scheduler") {
            if SCHEDULER_HOT_METHODS.contains(&model.fns[id].item.name.as_str()) {
                roots.push(id);
            }
        }
        roots.sort_unstable();
        roots.dedup();

        let walk = model.reach(&roots, prune);
        let mut findings = Vec::new();
        for &id in walk.keys() {
            if prune.contains(&id) {
                continue;
            }
            let chain = model.chain(&walk, id);
            let body = model.body_tokens(id);
            for (line, what) in alloc_sites(body) {
                findings.push(Finding {
                    pass: self.id().to_owned(),
                    path: model.path_of(id).to_owned(),
                    line,
                    function: model.fns[id].qual_name(),
                    message: format!("{what} on the hot path (reached via {chain})"),
                });
            }
        }
        PassOutcome { findings, walk }
    }
}

/// Scan a body token slice for allocation sites: (line, description).
fn alloc_sites(toks: &[Token]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text.as_str();
        let at = |off: usize| toks.get(k + off).map(|t| t.text.as_str());
        let prev = k.checked_sub(1).map(|p| toks[p].text.as_str());
        match text {
            "Box" | "Rc" | "Arc" if at(1) == Some(":") && at(2) == Some(":") && at(3) == Some("new") => {
                out.push((t.line, format!("`{text}::new` heap allocation")));
            }
            "String" if at(1) == Some(":") && at(2) == Some(":") && at(3) == Some("from") => {
                out.push((t.line, "`String::from` allocation".to_owned()));
            }
            "format" | "vec" if at(1) == Some("!") => {
                out.push((t.line, format!("`{text}!` allocation")));
            }
            "to_string" | "to_owned" if prev == Some(".") && at(1) == Some("(") => {
                out.push((t.line, format!("`.{text}()` allocation")));
            }
            "collect" if prev == Some(".") && at(1) == Some("(") => {
                out.push((t.line, "`.collect()` allocation".to_owned()));
            }
            "push" | "push_back" if prev == Some(".") && at(1) == Some("(") => {
                // `push(at, event)` and friends are the event-queue
                // signature, not `Vec::push`.
                if top_level_commas(toks, k + 1) > 0 {
                    continue;
                }
                let window_start = k.saturating_sub(PUSH_LOOKBACK);
                let guarded = toks[window_start..k].iter().any(|w| {
                    CAPACITY_MARKERS.iter().any(|m| w.text.contains(m))
                });
                if !guarded {
                    out.push((
                        t.line,
                        format!("un-capacity-guarded `.{text}(…)` (may grow the buffer)"),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    #[test]
    fn alloc_sites_catch_the_catalog_and_respect_the_exemptions() {
        let lexed = lex(
            "let a = Box::new(1);\nlet s = format!(\"x\");\nlet t = v.to_string();\nlet c: Vec<u32> = it.collect();\nqueue.push(at, event);\nself.buf.push(x);\nlet mut w = Vec::with_capacity(n); w.push(y);\nlet s = String::from(\"x\");\n",
        );
        let sites = alloc_sites(&lexed.tokens);
        let lines: Vec<u32> = sites.iter().map(|(l, _)| *l).collect();
        // line 5 (two-arg push) and line 7 (capacity-guarded push) exempt.
        assert_eq!(lines, [1, 2, 3, 4, 6, 8]);
        assert!(sites[4].1.contains("un-capacity-guarded"));
    }
}
