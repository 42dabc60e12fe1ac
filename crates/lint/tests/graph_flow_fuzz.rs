//! Property fuzz for the workspace analyses (`graph` + `flow`) over
//! randomly generated call graphs — cycles, self-recursion, and branchy
//! bodies included. The properties:
//!
//! * **Totality / termination** — `Graph::build` and `LockAnalysis::run`
//!   finish on arbitrary call structure (the SCC fixpoint must converge
//!   even on recursion).
//! * **Monotone lock propagation** — a caller's transitive acquire set
//!   contains every callee's, for every non-acquire call edge.
//! * **Chains** — every inter-procedural diagnostic carries a non-empty
//!   chain whose head is a generated function.
//!
//! Mirrors `lexer_fuzz.rs`: build sources from a small grammar, feed
//! them through the public API, assert invariants — never exact output.

use proptest::collection::vec;
use proptest::prelude::*;

use prep_lint::flow::LockAnalysis;
use prep_lint::graph::Graph;
use prep_lint::{lint_files, Config, FileModel};

/// One generated statement: (kind, target, branched). Kind 0 takes a lock
/// from the palette, kind 1 calls a generated function; `target` indexes
/// whichever the kind uses. `branched != 0` wraps the statement in
/// `if flag { … }`.
type Stmt = (u8, usize, u8);

const N_LOCKS: usize = 4;

fn render(bodies: &[Vec<Stmt>]) -> String {
    let mut src = String::from("//! Fuzz-generated call graph.\n\npub struct Guard;\n\n");
    for l in 0..N_LOCKS {
        src.push_str(&format!(
            "// lock-level: {l} fuzz — tier {l} of the generated hierarchy\n\
             pub struct L{l};\n\
             impl L{l} {{\n    pub fn lock(&self) -> Guard {{\n        Guard\n    }}\n}}\n\n"
        ));
    }
    src.push_str("pub struct App {\n");
    for l in 0..N_LOCKS {
        src.push_str(&format!("    l{l}: L{l},\n"));
    }
    src.push_str("}\n\n");
    for (i, body) in bodies.iter().enumerate() {
        src.push_str(&format!("pub fn f{i}(app: &App, flag: bool) {{\n"));
        for (k, &(kind, target, branched)) in body.iter().enumerate() {
            let stmt = match kind {
                0 => format!("let _g{k} = app.l{}.lock();", target % N_LOCKS),
                _ => format!("f{}(app, flag);", target % bodies.len()),
            };
            if branched != 0 {
                src.push_str(&format!("    if flag {{\n        {stmt}\n    }}\n"));
            } else {
                src.push_str(&format!("    {stmt}\n"));
            }
        }
        src.push_str("}\n\n");
    }
    src
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<Stmt>>> {
    vec(vec((0u8..2, 0usize..8, 0u8..2), 0..6), 1..7)
}

proptest! {
    #[test]
    fn analyses_terminate_and_stay_monotone(bodies in program_strategy()) {
        let src = render(&bodies);
        let files = vec![(
            "crates/core/src/fuzz_gen.rs".to_string(),
            FileModel::build(&src),
        )];
        let cfg = Config::default();
        let graph = Graph::build(&files);
        let locks = LockAnalysis::run(&graph, &cfg);

        // Monotone lock propagation over every resolved, non-acquire
        // call edge (acquire calls are terminal by design).
        for (id, edges) in graph.calls.iter().enumerate() {
            let m = &graph.files[graph.fns[id].file].1;
            for e in edges {
                if m.calls[e.call].method != "lock" {
                    for &t in &e.targets {
                        for class in locks.acquires[t].keys() {
                            prop_assert!(
                                locks.acquires[id].contains_key(class),
                                "f{id} misses callee class {class}"
                            );
                        }
                    }
                }
            }
        }

        // Every held-edge chain is non-empty and rooted in a generated fn.
        for e in &locks.edges {
            prop_assert!(!e.chain.is_empty());
            prop_assert!(e.chain[0].func.starts_with('f'));
        }
    }

    #[test]
    fn end_to_end_diagnostics_always_carry_chains(bodies in program_strategy()) {
        let src = render(&bodies);
        let files = vec![("crates/core/src/fuzz_gen.rs".to_string(), src)];
        let diags = lint_files(&files, &Config::default());
        for d in &diags {
            if matches!(d.rule, "lock-order" | "lock-order-cycle") {
                prop_assert!(!d.chain.is_empty(), "{d}");
                prop_assert!(d.chain[0].func.starts_with('f'), "{d}");
            }
        }
    }
}
