from hypothesis import strategies as st

from esos.graphs import Graph


def graph_from_bits(n: int, bits: int) -> Graph:
    edges = []
    i = 0
    for a in range(n):
        for b in range(a + 1, n):
            if bits >> i & 1:
                edges.append((a, b))
            i += 1
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)
