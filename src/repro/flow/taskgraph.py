"""Application task graphs and core communication graphs.

The design flow starts from the application: tasks exchanging data at
known rates, assigned to processing cores (the paper's
"P2(T2), P4(T4)..." example).  Folding the task graph through the
task-to-core assignment yields the *core graph*: initiator/target cores
with pairwise bandwidth demands, which is what mapping and topology
selection consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class CoreSpec:
    """One core of the SoC: an OCP master or slave."""

    name: str
    is_initiator: bool


class TaskGraph:
    """Directed graph of tasks with communication demands.

    Edge weights are in words per 1000 cycles (a rate, so demands stay
    meaningful whatever the final clock turns out to be).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: ``{src: {dst: rate}}``; every task is a key, in the order it
        #: was first named, and each source's flows in declaration order.
        self.rates: Dict[str, Dict[str, float]] = {}

    def add_task(self, task: str) -> None:
        self.rates.setdefault(task, {})

    def add_flow(self, src: str, dst: str, rate: float) -> None:
        """Declare that ``src`` sends ``rate`` words/kcycle to ``dst``."""
        if rate <= 0:
            raise ValueError("flow rate must be positive")
        self.add_task(src)
        self.add_task(dst)
        out = self.rates[src]
        out[dst] = out.get(dst, 0) + rate

    @property
    def tasks(self) -> List[str]:
        return list(self.rates)

    def flows(self) -> List[Tuple[str, str, float]]:
        return _edges(self.rates)

    def fold(self, assignment: Dict[str, str], cores: Iterable[CoreSpec]) -> "CoreGraph":
        """Fold tasks onto cores; intra-core flows vanish.

        ``assignment`` maps every task to a core name.  Task flows
        whose endpoint core is a *target* (slave) stay as initiator ->
        target demands; flows between two initiator cores are modelled
        as going through a shared memory and are rejected -- split them
        explicitly in the task graph (that is what the paper's
        application example does: tasks talk through slaves).
        """
        core_graph = CoreGraph(f"{self.name}-cores", cores)
        for task in self.tasks:
            if task not in assignment:
                raise ValueError(f"task {task!r} has no core assignment")
        for src, dst, rate in self.flows():
            a, b = assignment[src], assignment[dst]
            if a == b:
                continue
            core_graph.add_demand(a, b, rate)
        return core_graph


class CoreGraph:
    """Cores plus pairwise bandwidth demands (words/kcycle).

    Demands must run initiator -> target or target -> initiator (an OCP
    transaction always has a master end and a slave end).
    """

    def __init__(self, name: str, cores: Iterable[CoreSpec]) -> None:
        self.name = name
        self.cores: Dict[str, CoreSpec] = {}
        for c in cores:
            if c.name in self.cores:
                raise ValueError(f"duplicate core {c.name!r}")
            self.cores[c.name] = c
        #: ``{src: {dst: rate}}``: every core is a key, in core order,
        #: and each source's demands in the order first declared.
        self.rates: Dict[str, Dict[str, float]] = {c: {} for c in self.cores}
        # dst -> its sources, in the order first declared.
        self._sources: Dict[str, List[str]] = {c: [] for c in self.cores}

    @property
    def initiators(self) -> List[str]:
        return [n for n, c in self.cores.items() if c.is_initiator]

    @property
    def targets(self) -> List[str]:
        return [n for n, c in self.cores.items() if not c.is_initiator]

    def add_demand(self, src: str, dst: str, rate: float) -> None:
        if src not in self.cores or dst not in self.cores:
            raise ValueError(f"unknown core in demand {src!r} -> {dst!r}")
        if rate <= 0:
            raise ValueError("demand rate must be positive")
        if self.cores[src].is_initiator == self.cores[dst].is_initiator:
            raise ValueError(
                f"demand {src!r} -> {dst!r} connects two "
                f"{'initiators' if self.cores[src].is_initiator else 'targets'}; "
                "route it through a slave"
            )
        out = self.rates[src]
        if dst not in out:
            self._sources[dst].append(src)
        out[dst] = out.get(dst, 0) + rate

    def demands(self) -> List[Tuple[str, str, float]]:
        """Every demand: sources in core order, each one's targets in
        the order first declared."""
        return _edges(self.rates)

    def cache_token(self) -> tuple:
        """Stable content identity for experiment-cache keys (see
        :func:`repro.flow.keying.stable_repr`)."""
        return (
            "CoreGraph",
            self.name,
            tuple(sorted(self.cores.items())),
            tuple(sorted(self.demands())),
        )

    def demand_between(self, a: str, b: str) -> float:
        """Total demand in both directions between two cores."""
        total = 0.0
        if b in self.rates[a]:
            total += self.rates[a][b]
        if a in self.rates[b]:
            total += self.rates[b][a]
        return total

    def total_demand(self) -> float:
        return sum(r for _, _, r in self.demands())

    def initiator_demands(self, initiator: str) -> Dict[str, float]:
        """Demand of one master per target, both directions combined.

        Master-to-target demand is write traffic, target-to-master is
        read traffic; traffic generation folds both into one injection
        rate per target (splitting read/write by their share is the
        caller's choice).
        """
        out: Dict[str, float] = {}
        for dst, rate in self.rates[initiator].items():
            out[dst] = out.get(dst, 0.0) + rate
        for src in self._sources[initiator]:
            out[src] = out.get(src, 0.0) + self.rates[src][initiator]
        return out


def _edges(rates: Dict[str, Dict[str, float]]) -> List[Tuple[str, str, float]]:
    return [(u, v, r) for u, out in rates.items() for v, r in out.items()]


def demo_multimedia_soc() -> Tuple[TaskGraph, Dict[str, str], CoreGraph]:
    """The running example: a small multimedia SoC.

    Five processing tasks (the paper's T1..T5 application-mapping
    example) pipelined through shared memories, plus a DMA-style
    background flow.  Returns (task graph, task assignment, folded core
    graph) with 4 initiators and 4 targets.
    """
    tg = TaskGraph("multimedia")
    # Producer -> buffer -> consumer chains, rates in words/kcycle.
    tg.add_flow("t1_capture", "buf_in", 120.0)
    tg.add_flow("buf_in", "t2_dct", 120.0)
    tg.add_flow("t2_dct", "buf_mid", 90.0)
    tg.add_flow("buf_mid", "t3_quant", 90.0)
    tg.add_flow("t3_quant", "buf_out", 60.0)
    tg.add_flow("buf_out", "t4_vlc", 60.0)
    tg.add_flow("t4_vlc", "frame_store", 30.0)
    tg.add_flow("t5_dma", "frame_store", 45.0)
    tg.add_flow("t5_dma", "buf_in", 25.0)

    cores = [
        CoreSpec("cpu0", True),   # capture
        CoreSpec("cpu1", True),   # dct
        CoreSpec("cpu2", True),   # quant + vlc
        CoreSpec("dma", True),
        CoreSpec("sram0", False),  # buf_in
        CoreSpec("sram1", False),  # buf_mid
        CoreSpec("sram2", False),  # buf_out
        CoreSpec("dram", False),   # frame store
    ]
    assignment = {
        "t1_capture": "cpu0",
        "t2_dct": "cpu1",
        "t3_quant": "cpu2",
        "t4_vlc": "cpu2",
        "t5_dma": "dma",
        "buf_in": "sram0",
        "buf_mid": "sram1",
        "buf_out": "sram2",
        "frame_store": "dram",
    }
    core_graph = tg.fold(assignment, cores)
    return tg, assignment, core_graph


def demo_telecom_soc() -> Tuple[TaskGraph, Dict[str, str], CoreGraph]:
    """A second reference application: a baseband/packet-processing SoC.

    Two parallel receive chains converging on a shared packet buffer,
    a control processor touching everything lightly, and a DMA moving
    payloads to external memory -- a wider, flatter communication
    pattern than :func:`demo_multimedia_soc`'s pipeline, so the two
    demos stress mapping and selection differently.
    """
    tg = TaskGraph("telecom")
    for chain in ("a", "b"):
        tg.add_flow(f"rx_{chain}", f"fifo_{chain}", 140.0)
        tg.add_flow(f"fifo_{chain}", f"demod_{chain}", 140.0)
        tg.add_flow(f"demod_{chain}", "pkt_buf", 70.0)
    tg.add_flow("mac", "pkt_buf", 40.0)
    tg.add_flow("pkt_buf", "mac", 60.0)
    tg.add_flow("dma_eng", "ext_mem", 110.0)
    tg.add_flow("pkt_buf", "dma_eng", 55.0)
    tg.add_flow("ctl", "cfg_regs", 5.0)
    tg.add_flow("cfg_regs", "ctl", 5.0)

    cores = [
        CoreSpec("dsp0", True),   # rx/demod chain a
        CoreSpec("dsp1", True),   # rx/demod chain b
        CoreSpec("mac_cpu", True),
        CoreSpec("ctl_cpu", True),
        CoreSpec("dma", True),
        CoreSpec("buf_a", False),
        CoreSpec("buf_b", False),
        CoreSpec("pkt_sram", False),
        CoreSpec("dram", False),
        CoreSpec("regs", False),
    ]
    assignment = {
        "rx_a": "dsp0", "demod_a": "dsp0", "fifo_a": "buf_a",
        "rx_b": "dsp1", "demod_b": "dsp1", "fifo_b": "buf_b",
        "mac": "mac_cpu", "ctl": "ctl_cpu", "dma_eng": "dma",
        "pkt_buf": "pkt_sram", "ext_mem": "dram", "cfg_regs": "regs",
    }
    core_graph = tg.fold(assignment, cores)
    return tg, assignment, core_graph
