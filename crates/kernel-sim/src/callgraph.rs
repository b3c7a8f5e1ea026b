use crate::{FunctionId, KernelError, SymbolTable};

/// One potential call site: when the caller executes, with probability
/// `probability` it invokes `callee` between 1 and `max_repeats` times
/// (uniformly chosen).
///
/// Stochastic edges are what give two executions of the same workload
/// *similar but not identical* signatures — the same role run-to-run
/// nondeterminism plays on a real kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CallEdge {
    /// Function invoked by this call site.
    pub callee: FunctionId,
    /// Probability the call site fires on a given execution, in `(0, 1]`.
    pub probability: f32,
    /// Maximum number of consecutive invocations (>= 1).
    pub max_repeats: u8,
}

impl CallEdge {
    /// An unconditional single call.
    pub(crate) fn always(callee: FunctionId) -> Self {
        CallEdge {
            callee,
            probability: 1.0,
            max_repeats: 1,
        }
    }

    /// A call that fires with probability `p` (clamped to `(0, 1]`).
    #[cfg(test)]
    pub(crate) fn with_probability(callee: FunctionId, p: f32) -> Self {
        CallEdge {
            callee,
            probability: p.clamp(f32::EPSILON, 1.0),
            max_repeats: 1,
        }
    }

    /// Sets the repeat bound.
    #[cfg(test)]
    pub(crate) fn repeats(mut self, max_repeats: u8) -> Self {
        self.max_repeats = max_repeats.max(1);
        self
    }
}

/// The static call graph over the kernel's symbol table, frozen in
/// compressed sparse row form: the call sites of caller `f` are
/// `edges[offsets[f]..offsets[f + 1]]`, in the order they were added.
///
/// Guaranteed acyclic (checked by `CallGraph::verify_acyclic`, which
/// the builder runs) so that call-tree walks always terminate.
#[derive(Debug, Clone)]
pub struct CallGraph {
    offsets: Vec<u32>,
    edges: Vec<CallEdge>,
}

impl CallGraph {
    /// Freezes `sites`, a list of `(caller, call site)` pairs, into the
    /// graph over `num_functions` functions. Each caller keeps its call
    /// sites in the order they appear in `sites`.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range (graph construction is internal;
    /// bad ids are a builder bug).
    pub(crate) fn from_sites(num_functions: usize, sites: &[(FunctionId, CallEdge)]) -> Self {
        let mut offsets = vec![0u32; num_functions + 1];
        for (caller, edge) in sites {
            assert!(
                caller.index() < num_functions,
                "caller {caller} out of range"
            );
            assert!(
                edge.callee.index() < num_functions,
                "callee {} out of range",
                edge.callee
            );
            offsets[caller.index() + 1] += 1;
        }
        for f in 0..num_functions {
            offsets[f + 1] += offsets[f];
        }
        // A stable sort by caller keeps each caller's sites in order.
        let mut sorted = sites.to_vec();
        sorted.sort_by_key(|(caller, _)| caller.index());
        CallGraph {
            offsets,
            edges: sorted.into_iter().map(|(_, edge)| edge).collect(),
        }
    }

    /// Number of callers the graph covers.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Call sites of `caller`, in insertion order.
    pub(crate) fn callees(&self, caller: FunctionId) -> &[CallEdge] {
        let f = caller.index();
        &self.edges[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }

    /// Total number of call sites in the graph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Expected number of dynamic calls a single execution of `entry`
    /// produces (including `entry` itself), ignoring repeat sampling noise.
    ///
    /// Used by the builder to keep per-operation call volumes realistic.
    pub fn expected_calls(&self, entry: FunctionId) -> f64 {
        // Memoised DFS over the DAG.
        fn go(graph: &CallGraph, f: FunctionId, memo: &mut [f64]) -> f64 {
            let cached = memo[f.index()];
            if cached >= 0.0 {
                return cached;
            }
            // Mark to guard against accidental cycles (returns 1.0 for
            // self-recursive references rather than hanging).
            let mut total = 1.0;
            for e in graph.callees(f) {
                let mean_reps = (1.0 + e.max_repeats as f64) / 2.0;
                total += e.probability as f64 * mean_reps * go(graph, e.callee, memo);
            }
            memo[f.index()] = total;
            total
        }
        let mut memo = vec![-1.0; self.len()];
        go(self, entry, &mut memo)
    }

    /// Verifies the graph is a DAG.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::CyclicCallGraph`] naming a function on a
    /// cycle if one exists.
    pub(crate) fn verify_acyclic(&self, symbols: &SymbolTable) -> Result<(), KernelError> {
        // Iterative three-colour DFS.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let n = self.len();
        let mut colour = vec![Colour::White; n];
        for start in 0..n {
            if colour[start] != Colour::White {
                continue;
            }
            // (node, next edge index)
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = Colour::Grey;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let callees = self.callees(FunctionId(node as u32));
                if *next < callees.len() {
                    let callee = callees[*next].callee.index();
                    *next += 1;
                    match colour[callee] {
                        Colour::White => {
                            colour[callee] = Colour::Grey;
                            stack.push((callee, 0));
                        }
                        Colour::Grey => {
                            let name = symbols
                                .function(FunctionId(callee as u32))
                                .map(|f| f.name.clone())
                                .unwrap_or_else(|_| format!("fn#{callee}"));
                            return Err(KernelError::CyclicCallGraph { function: name });
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[node] = Colour::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Nanos, Subsystem};

    fn symbols(n: usize) -> SymbolTable {
        let mut t = SymbolTable::new();
        for i in 0..n {
            t.push(
                format!("f{i}"),
                0x1000 + i as u64 * 0x10,
                Subsystem::Util,
                0,
                Nanos(10),
            );
        }
        t
    }

    /// Shorthand for a call site of `caller` to `callee`.
    fn site(caller: u32, edge: CallEdge) -> (FunctionId, CallEdge) {
        (FunctionId(caller), edge)
    }

    #[test]
    fn edges_are_recorded_in_order() {
        // Callers interleave; each keeps its own sites in order.
        let g = CallGraph::from_sites(
            3,
            &[
                site(2, CallEdge::always(FunctionId(1))),
                site(0, CallEdge::always(FunctionId(1))),
                site(2, CallEdge::always(FunctionId(0))),
                site(0, CallEdge::with_probability(FunctionId(2), 0.5)),
            ],
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.callees(FunctionId(0)).len(), 2);
        assert_eq!(g.callees(FunctionId(0))[0].callee, FunctionId(1));
        assert_eq!(g.callees(FunctionId(0))[1].probability, 0.5);
        assert_eq!(g.callees(FunctionId(1)).len(), 0);
        let two: Vec<FunctionId> = g.callees(FunctionId(2)).iter().map(|e| e.callee).collect();
        assert_eq!(two, vec![FunctionId(1), FunctionId(0)]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn probability_is_clamped() {
        let e = CallEdge::with_probability(FunctionId(0), 2.0);
        assert_eq!(e.probability, 1.0);
        let e = CallEdge::with_probability(FunctionId(0), -1.0);
        assert!(e.probability > 0.0);
        let e = CallEdge::always(FunctionId(0)).repeats(0);
        assert_eq!(e.max_repeats, 1);
    }

    #[test]
    fn acyclic_graph_verifies() {
        let t = symbols(4);
        let g = CallGraph::from_sites(
            4,
            &[
                site(0, CallEdge::always(FunctionId(1))),
                site(1, CallEdge::always(FunctionId(2))),
                site(0, CallEdge::always(FunctionId(3))),
                site(3, CallEdge::always(FunctionId(2))),
            ],
        );
        assert!(g.verify_acyclic(&t).is_ok());
    }

    #[test]
    fn cycle_is_detected_and_named() {
        let t = symbols(3);
        let g = CallGraph::from_sites(
            3,
            &[
                site(0, CallEdge::always(FunctionId(1))),
                site(1, CallEdge::always(FunctionId(2))),
                site(2, CallEdge::always(FunctionId(0))),
            ],
        );
        let err = g.verify_acyclic(&t).unwrap_err();
        assert!(matches!(err, KernelError::CyclicCallGraph { .. }));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let t = symbols(1);
        let g = CallGraph::from_sites(1, &[site(0, CallEdge::always(FunctionId(0)))]);
        assert!(g.verify_acyclic(&t).is_err());
    }

    #[test]
    fn expected_calls_counts_weighted_subtree() {
        // 0 -> 1 always; 0 -> 2 with p=0.5; 1 -> 2 always x(1..=3 reps, mean 2)
        let g = CallGraph::from_sites(
            3,
            &[
                site(0, CallEdge::always(FunctionId(1))),
                site(0, CallEdge::with_probability(FunctionId(2), 0.5)),
                site(1, CallEdge::always(FunctionId(2)).repeats(3)),
            ],
        );
        // E[2] = 1; E[1] = 1 + 2*1 = 3; E[0] = 1 + 3 + 0.5 = 4.5
        assert!((g.expected_calls(FunctionId(0)) - 4.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_callee_panics() {
        let _ = CallGraph::from_sites(1, &[site(0, CallEdge::always(FunctionId(5)))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_caller_panics() {
        let _ = CallGraph::from_sites(1, &[site(3, CallEdge::always(FunctionId(0)))]);
    }
}
