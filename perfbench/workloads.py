"""Scenario generators for the simulator benchmark.

Every input of a run comes from the workload seed: the seed picks source
addresses, per-source RNG seeds (Poisson gaps, KVS keys) and the fault
seed, while the offered rates stay fixed, so different seeds give the same
load shape with different flows.  The generated text is an ordinary
`panic_scenario 1` file: `panic_run <file>` replays the run exactly.

How the offered rates were chosen is recorded in perfbench/README.md;
`python3 perfbench/run.py --sweep <workload>` reruns the sweep.  Why each
workload exists is in perfbench/metrics.json, which BENCHMARK.json is
generated from.
"""

import math
from dataclasses import dataclass, field


@dataclass
class Workload:
    name: str
    # Simulated cycles per measured second.  The window is a fixed number
    # of cycles (seconds * this), so every simulated figure of a seed is
    # deterministic; the value was set from this workload's host speed on
    # the reference machine (see README.md), so a window lasts about
    # `--seconds` there.
    cycles_per_second: int
    warmup: int
    # Cycles of the untimed dense-vs-event prefix check.
    prefix_cycles: int
    # Gap parameters swept by --sweep: name -> value.
    rates: dict = field(default_factory=dict)
    build: object = None

    def chunk_cycles(self, rates=None):
        """Cycles per timed chunk: a whole number of the traffic's periods
        at these rates, so every chunk holds the same mix of work, scaled
        to about 100 chunks per measured second."""
        period = traffic_period(self.scenario(0, 0, rates))
        return period * max(1, round(self.cycles_per_second / 100 / period))

    def window_chunks(self, cycles, rates=None):
        """Chunk count of an even number of whole chunks nearest `cycles`."""
        return max(2, 2 * round(cycles / (2 * self.chunk_cycles(rates))))

    def window_cycles(self, seconds):
        chunks = self.window_chunks(seconds * self.cycles_per_second)
        return chunks, chunks * self.chunk_cycles()

    def scenario(self, seed, budget, rates=None):
        return self.build(self, seed, budget, self.warmup,
                          dict(self.rates, **(rates or {})))


def traffic_period(scenario_text):
    """Cycles after which the scenario's deterministic arrivals repeat: the
    lcm of every constant source's gap and every on/off source's on+off
    period (Poisson sources have no period and add nothing)."""
    period = 1
    for line in scenario_text.splitlines():
        if not line.startswith("workload "):
            continue
        kv = dict(f.split("=", 1) for f in line.split()[1:])
        if kv.get("pattern") == "const":
            period = math.lcm(period, int(kv["gap"]))
        elif kv.get("pattern") == "onoff":
            period = math.lcm(period, int(kv["on"]) + int(kv["off"]))
    return period


def _addr(tenant, seed, salt):
    """A seed-dependent client address in 10.<tenant>.0.0/16."""
    x = (seed * 2654435761 + salt * 40503) & 0xFFFFFFFF
    return "10.%d.%d.%d" % (tenant, (x >> 8) % 250 + 1, x % 250 + 1)


def _src_seed(seed, salt):
    return ((seed + 1) * 1000003 + salt * 7919) % (2**31 - 1) + 1


def _header(name, seed, budget, warmup, lines):
    out = ["panic_scenario 1", "name %s" % name, "seed %d" % seed]
    out += lines
    out += ["warmup %d" % warmup, "budget %d" % budget]
    return out


def _workload_line(**kw):
    order = ["name", "port", "kind", "tenant", "pattern", "gap", "on", "off",
             "frames", "bytes", "flows", "dport", "wan", "seed", "src", "dst"]
    return "workload " + " ".join(
        "%s=%s" % (k, kw[k]) for k in order if k in kw)


def build_bulk(w, seed, budget, warmup, rates):
    # 1500 B frames hairpin from port 1 out of port 0 (the switch path, no
    # DMA cap); 256 B frames of the latency-sensitive tenant go to the host.
    lines = _header(w.name, seed, budget, warmup, [
        "mesh_k 4", "eth_ports 2", "rmt_engines 2", "aux_engines 0",
        "sched slack", "drop arrival", "queue_capacity 256",
        "rmt_input_queue 512", "dma_contention 0", "default_slack 1000",
        "pool_reserve 4096",
        "slack 1 10", "slack 2 100000",
    ])
    lines.append(_workload_line(
        name="bulk", port=1, kind="udp_fill", tenant=2, pattern="const",
        gap=rates["bulk_gap"], frames=0, bytes=1500, flows=16, dport=9,
        wan=0, seed=_src_seed(seed, 1), src=_addr(2, seed, 1),
        dst="10.0.0.1"))
    lines.append(_workload_line(
        name="interactive", port=0, kind="udp_fill", tenant=1,
        pattern="const", gap=rates["interactive_gap"], frames=0, bytes=256,
        flows=16, dport=9, wan=0, seed=_src_seed(seed, 2),
        src=_addr(1, seed, 2), dst="10.0.0.1"))
    lines += ["program <<END",
              "stage hairpin {",
              "  table wire exact(meta.tenant) {",
              "    2 -> clear_chain, chain(eth0);",
              "  }",
              "}",
              "END", "end"]
    return "\n".join(lines) + "\n"


def _storm(horizon, period, on):
    """Kill/revive/spare storm on the aux0/aux1 equivalence group.

    Every kill lands in the off window of the aux share's on/off source,
    after the group's queues drained, so no message is in service on a
    tile when it dies.  Even periods kill both tiles: the group is empty
    when the next on window opens, arrivals park under `on_no_route
    backpressure`, and aux0 revives 1000 cycles in.  Odd periods make aux1
    the spare for aux0 and kill aux0, which revives 5000 cycles into the
    next on window, so aux1 serves the start of it.
    """
    faults = []
    j = 0
    while (j + 1) * period + on <= horizon:
        t0 = j * period
        if j % 2 == 0:
            faults.append("fault kill aux0 @%d" % (t0 + on + 3000))
            faults.append("fault kill aux1 @%d" % (t0 + on + 5000))
            faults.append("fault revive aux0 @%d warmup=200" %
                          (t0 + period + 1000))
        else:
            faults.append("fault spare aux1 for=aux0 @%d" % (t0 + on + 3000))
            faults.append("fault kill aux0 @%d" % (t0 + on + 5000))
            faults.append("fault revive aux0 @%d warmup=200" %
                          (t0 + period + 5000))
        j += 1
    return faults


def build_tenant(w, seed, budget, warmup, rates):
    period, on = 40000, 20000
    lines = _header(w.name, seed, budget, warmup, [
        "mesh_k 5", "eth_ports 2", "rmt_engines 2", "aux_engines 2",
        "sched wfq", "weight 1 4", "weight 2 2", "weight 3 1",
        "drop arrival", "queue_capacity 256", "rmt_input_queue 512",
        "dma_contention 0", "default_slack 1000", "pool_reserve 4096",
        "slack 1 1001", "slack 2 1002", "slack 3 1003",
    ])
    lines.append(_workload_line(
        name="kvs", port=0, kind="kvs", tenant=1, pattern="poisson",
        gap=rates["kvs_gap"], frames=0, seed=_src_seed(seed, 1),
        src=_addr(1, seed, 1), dst="10.0.0.1", wan=0))
    lines.append(_workload_line(
        name="esp", port=1, kind="esp", tenant=2, pattern="poisson",
        gap=rates["esp_gap"], frames=0, seed=_src_seed(seed, 2),
        src=_addr(2, seed, 2), dst="10.0.0.1"))
    lines.append(_workload_line(
        name="mice", port=0, kind="udp_fill", tenant=3, pattern="poisson",
        gap=rates["mice_gap"], frames=0, bytes=256, flows=1024, dport=9,
        seed=_src_seed(seed, 3), src=_addr(3, seed, 3), dst="10.0.0.1"))
    lines.append(_workload_line(
        name="aux_share", port=1, kind="udp_fill", tenant=3, pattern="onoff",
        gap=rates["aux_gap"], on=on, off=period - on, frames=0, bytes=256,
        flows=64, dport=7777, seed=_src_seed(seed, 4),
        src=_addr(3, seed, 4), dst="10.0.0.1"))
    lines += ["on_no_route backpressure", "fault_seed %d" % (seed + 1)]
    lines += _storm(warmup + budget, period, on)
    lines += ["program <<END",
              "stage aux_offload {",
              "  table offload_port exact(l4.dport) {",
              "    7777 -> clear_chain, chain(aux0, dma);",
              "  }",
              "}",
              "END", "end"]
    return "\n".join(lines) + "\n"


def build_sparse(w, seed, budget, warmup, rates):
    lines = _header(w.name, seed, budget, warmup, [
        "mesh_k 16", "eth_ports 2", "rmt_engines 2", "aux_engines 0",
        "sched slack", "drop arrival", "queue_capacity 256",
        "rmt_input_queue 512", "dma_contention 0", "default_slack 1000",
        "pool_reserve 4096",
        "slack 1 1001", "slack 2 1002",
    ])
    lines.append(_workload_line(
        name="light_a", port=0, kind="udp_fill", tenant=1, pattern="const",
        gap=rates["gap"], frames=0, bytes=256, flows=16, dport=9,
        seed=_src_seed(seed, 1), src=_addr(1, seed, 1), dst="10.0.0.1"))
    lines.append(_workload_line(
        name="light_b", port=1, kind="udp_fill", tenant=2, pattern="const",
        gap=rates["gap"], frames=0, bytes=1024, flows=16, dport=9,
        seed=_src_seed(seed, 2), src=_addr(2, seed, 2), dst="10.0.0.1"))
    lines.append("end")
    return "\n".join(lines) + "\n"


# Cycles of the traced run's window (tracing is slower; the window is long
# enough for thousands of traced deliveries).
TRACED_CYCLES = 1_000_000

WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="bulk_line_rate",
            cycles_per_second=1_250_000, warmup=200_000,
            prefix_cycles=40_000,
            rates={"bulk_gap": 115, "interactive_gap": 104},
            build=build_bulk),
        Workload(
            name="tenant_offload",
            cycles_per_second=2_200_000, warmup=200_000,
            prefix_cycles=60_000,
            rates={"kvs_gap": 400, "esp_gap": 500, "mice_gap": 500,
                   "aux_gap": 250},
            build=build_tenant),
        Workload(
            name="sparse_mesh",
            cycles_per_second=1_550_000, warmup=100_000,
            prefix_cycles=20_000,
            rates={"gap": 667},
            build=build_sparse),
    ]
}
