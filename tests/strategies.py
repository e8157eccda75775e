"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from dpcolor.covers import random_cover, uniform_assignment
from dpcolor.discharging import AuditEntry, AuditReport, ChargeLedger, Transfer
from dpcolor.graphs import build_graph
from dpcolor.reduction import ConfigKind, TraceStep


@st.composite
def graphs(draw, max_n=7, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    return build_graph(n, [e for e, keep in zip(possible, mask) if keep])


@st.composite
def covers(draw, max_n=6, max_k=3, perfect=False, min_n=1, min_k=1):
    graph = draw(graphs(max_n=max_n, min_n=min_n))
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return random_cover(graph, uniform_assignment(graph.n, k), seed, perfect=perfect)


# Charges in sixths: the edge cases -5/6, 1/3, -1/2 and -12, and any other.
sixths = st.one_of(st.sampled_from([-5, 2, -3, -72, 0]), st.integers(-10**4, 10**4))
texts = st.text(max_size=12)


@st.composite
def traces(draw, max_steps=6):
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        size = draw(st.integers(min_value=0, max_value=3))  # 0: lists render as []
        ints = st.lists(st.integers(-5, 10**6), min_size=size, max_size=size)
        steps.append(
            TraceStep(
                kind=draw(st.sampled_from(ConfigKind)),
                vertices=tuple(draw(ints)),
                residual_sizes=tuple(draw(ints)),
                colors=tuple(draw(ints)),
            )
        )
    return tuple(steps)


@st.composite
def audits(draw):
    """(report, ledger) over a few elements, some with no transfers at all."""
    elements = [("vertex", i) for i in range(3)] + [("face", i) for i in range(2)]
    transfers = draw(
        st.lists(
            st.builds(
                Transfer,
                rule=st.sampled_from(["R1", "R2", "R3", "R4", "R5"]) | texts,
                source=st.sampled_from(elements),
                target=st.sampled_from(elements),
                sixths=sixths,
                multiplicity=st.integers(1, 3),
            ),
            max_size=8,
        )
    )
    ledger = ChargeLedger(
        tuple(draw(sixths) for _ in range(3)), tuple(draw(sixths) for _ in range(2)), tuple(transfers)
    )
    entries = [
        AuditEntry(
            element=element,
            case=draw(texts),
            pattern=draw(texts),
            reason=draw(texts),
            initial=draw(sixths),
            incoming=draw(sixths),
            outgoing=draw(sixths),
            final=draw(sixths),
        )
        for element in draw(st.lists(st.sampled_from(elements), max_size=5, unique=True))
    ]
    report = AuditReport(tuple(entries))
    return report, ledger
