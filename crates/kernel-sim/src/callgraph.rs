use crate::{FunctionId, KernelError, SymbolTable};

/// One potential call site: when the caller executes, with probability
/// `threshold / 2^24` it invokes `callee` between 1 and `max_repeats`
/// times (uniformly chosen).
///
/// Stochastic edges are what give two executions of the same workload
/// *similar but not identical* signatures — the same role run-to-run
/// nondeterminism plays on a real kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CallEdge {
    /// Function invoked by this call site.
    pub callee: FunctionId,
    /// The site fires iff a 24-bit draw, `next_u64() >> 40`, is below
    /// this; [`CallEdge::ALWAYS`] fires without a draw.
    pub threshold: u32,
    /// Maximum number of consecutive invocations (>= 1).
    pub max_repeats: u8,
}

impl CallEdge {
    /// The threshold of a site that always fires: `2^24`, one past the
    /// largest 24-bit draw.
    pub(crate) const ALWAYS: u32 = 1 << 24;

    /// A site that fires with probability `probability`.
    ///
    /// `random::<f32>()` is the draw `(next_u64() >> 40) · 2^-24`,
    /// computed exactly, so `random::<f32>() < p` holds iff the 24-bit
    /// draw is below `⌈p · 2^24⌉`: the threshold fires exactly when the
    /// `f32` compare would. A `p` of 1 or more is [`CallEdge::ALWAYS`];
    /// a `p` of 0 or less saturates to 0 and never fires, as the compare
    /// would not.
    pub(crate) fn new(callee: FunctionId, probability: f32, max_repeats: u8) -> Self {
        let threshold = if probability >= 1.0 {
            Self::ALWAYS
        } else {
            (f64::from(probability) * f64::from(Self::ALWAYS)).ceil() as u32
        };
        CallEdge {
            callee,
            threshold,
            max_repeats: max_repeats.max(1),
        }
    }

    /// An unconditional single call.
    pub(crate) fn always(callee: FunctionId) -> Self {
        Self::new(callee, 1.0, 1)
    }

    /// The probability the site fires, as the walk draws it.
    pub(crate) fn probability(&self) -> f64 {
        f64::from(self.threshold) / f64::from(Self::ALWAYS)
    }

    /// A call that fires with probability `p` (clamped to `(0, 1]`).
    #[cfg(test)]
    pub(crate) fn with_probability(callee: FunctionId, p: f32) -> Self {
        Self::new(callee, p.clamp(f32::EPSILON, 1.0), 1)
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
    /// produces (including `entry` itself), ignoring repeat sampling
    /// noise, at the probabilities the walk draws with.
    pub fn expected_calls(&self, entry: FunctionId) -> f64 {
        // Memoised DFS. It recurses along call paths and has no cycle
        // guard: a cycle would recurse until the stack overflows. None
        // can exist, because the builder runs `verify_acyclic`.
        fn go(graph: &CallGraph, f: FunctionId, memo: &mut [f64]) -> f64 {
            let cached = memo[f.index()];
            if cached >= 0.0 {
                return cached;
            }
            let mut total = 1.0;
            for e in graph.callees(f) {
                let mean_reps = (1.0 + e.max_repeats as f64) / 2.0;
                total += e.probability() * mean_reps * go(graph, e.callee, memo);
            }
            memo[f.index()] = total;
            total
        }
        let mut memo = vec![-1.0; self.len()];
        go(self, entry, &mut memo)
    }

    /// Length of a depth-first stack that no walk can overflow, whatever
    /// its entry and its draws.
    ///
    /// A walk pops `f` leaving `p` entries and then writes each of `f`'s
    /// sites at the top: a single-repeat site whether or not it fires, a
    /// repeated one up to `max_repeats` times. So `f` writes below
    /// `p + s(f)`, where `s(f)` sums its sites' `max_repeats`, and a
    /// callee popped from at most `p + s(f) - 1` needs its own extent on
    /// top of that. Like [`expected_calls`](Self::expected_calls) this
    /// relies on the builder's `verify_acyclic`.
    pub(crate) fn walk_stack_len(&self) -> usize {
        fn extent(graph: &CallGraph, f: FunctionId, memo: &mut [Option<usize>]) -> usize {
            if let Some(cached) = memo[f.index()] {
                return cached;
            }
            let sites = graph.callees(f);
            let writes: usize = sites.iter().map(|e| usize::from(e.max_repeats)).sum();
            let mut need = writes;
            for e in sites {
                need = need.max(writes - 1 + extent(graph, e.callee, memo));
            }
            memo[f.index()] = Some(need);
            need
        }
        let mut memo = vec![None; self.len()];
        (0..self.len())
            .map(|f| extent(self, FunctionId(f as u32), &mut memo))
            .fold(1, usize::max)
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
        assert_eq!(g.callees(FunctionId(0))[1].probability(), 0.5);
        assert_eq!(g.callees(FunctionId(1)).len(), 0);
        let two: Vec<FunctionId> = g.callees(FunctionId(2)).iter().map(|e| e.callee).collect();
        assert_eq!(two, vec![FunctionId(1), FunctionId(0)]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn probability_is_clamped() {
        let e = CallEdge::with_probability(FunctionId(0), 2.0);
        assert_eq!(e.probability(), 1.0);
        let e = CallEdge::with_probability(FunctionId(0), -1.0);
        assert!(e.probability() > 0.0);
        let e = CallEdge::always(FunctionId(0)).repeats(0);
        assert_eq!(e.max_repeats, 1);
    }

    #[test]
    fn threshold_fires_exactly_when_the_f32_draw_would() {
        use rand::rngs::SmallRng;
        use rand::{Rng, RngCore, SeedableRng};
        let scale = 1.0 / CallEdge::ALWAYS as f32;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut probabilities: Vec<f32> = (0..2000).map(|_| rng.random::<f32>()).collect();
        probabilities.extend([
            -1.0,
            0.0,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            0.001,
            0.08,
            0.25,
            0.3,
            0.5,
            1.0 - f32::EPSILON,
            1.0,
            2.0,
        ]);
        for p in probabilities {
            let t = CallEdge::new(FunctionId(0), p, 1).threshold;
            assert_eq!(t >= CallEdge::ALWAYS, p >= 1.0, "p = {p}");
            // Every 24-bit draw next to the threshold, and a few anywhere.
            let near = [t.saturating_sub(2), t.saturating_sub(1), t, t + 1];
            let anywhere = (0..8).map(|_| (rng.next_u64() >> 40) as u32);
            for draw in near.into_iter().chain(anywhere) {
                if draw >= CallEdge::ALWAYS {
                    continue;
                }
                assert_eq!(draw < t, draw as f32 * scale < p, "p = {p}, draw = {draw}");
            }
        }
    }

    #[test]
    fn walk_stack_len_covers_every_write() {
        // 0 writes 3 slots (one single site, one site of 2 repeats) and
        // its last slot can hold 1, which writes 4 more on top: 2 + 4.
        let g = CallGraph::from_sites(
            3,
            &[
                site(0, CallEdge::with_probability(FunctionId(2), 0.5)),
                site(0, CallEdge::always(FunctionId(1)).repeats(2)),
                site(1, CallEdge::always(FunctionId(2)).repeats(4)),
            ],
        );
        assert_eq!(g.walk_stack_len(), 6);
        // A graph without call sites still holds the entry.
        assert_eq!(CallGraph::from_sites(2, &[]).walk_stack_len(), 1);
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
