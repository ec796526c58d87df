"""Coverings: keeping the letters whose weight is divisible by r.

The r-covering is well-defined on homotopy classes, so invariants of the
cover are invariants of the original word.  Iterating a covering stabilises;
the words fixed by it form rich families.
"""

from vstring import (
    canonical_population,
    cover_stats,
    covering,
    covering_graph,
    gen_alpha_n,
    gen_gamma_pq,
    n_values,
    parse,
    r_dot,
    uncover_preimage,
    SearchBudget,
)

w = parse("ABCACB|aaa")
print("weights:", dict(n_values(w)))
for r in (0, 1, 2, 3):
    print(f"cover r={r}:", covering(w, r))

# Word-level covering statistics, refined by a bounded search oracle.
stats = cover_stats(w, 2, SearchBudget())
print("m bound:", stats.m_upper, " height bound:", stats.height_upper,
      " base:", stats.base_word, " fixed:", stats.fixed)

# Every covering map is surjective: a preimage can be built by padding each
# weighted letter with nested fresh letters.
pre = uncover_preimage(w, 2)
print()
print("a 2-covering preimage:", pre)
print("its 2-cover:", covering(pre, 2))

# Fixed points: duplicated words are fixed by the matching covering, and the
# two-block family is fixed exactly when r divides both parameters.
print()
print("2.(ABACBC|aab) fixed under r=2:", covering(r_dot(parse('ABACBC|aab'), 2), 2) == r_dot(parse('ABACBC|aab'), 2))
g22 = gen_gamma_pq(2, 2)
print("two-block (2,2) fixed under r=2:", covering(g22, 2) == g22)
a5 = gen_alpha_n(5)
print("weight-zero family member fixed under r=0:", covering(a5, 0) == a5)

# The covering map over all small words is a functional graph whose
# components are trees hanging off a single self-loop.
graph = covering_graph(canonical_population(3), 2)
comps = graph.components()
print()
print(f"covering graph on rank <= 3: {len(graph.nodes)} nodes, {len(comps)} components,",
      "all tree-with-loop:", all(graph.component_is_tree_with_root_loop(c) for c in comps))
print("DOT export starts with:", graph.to_dot().splitlines()[0])
