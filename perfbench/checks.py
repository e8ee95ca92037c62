"""Output checks for the benchmark's workloads.

Each check compares what the simulator reported with an independent
computation or with a property the simulation method must have. Every
function returns a list of failure messages; an empty list means the
output passed.
"""

import math

MSS_BYTES = 1448   # TCP payload per data segment
WIRE_BYTES = 1500  # the same segment on the wire
# Statistical bounds are z standard deviations wide: a correct simulator
# trips one in about 1.7 million checks.
Z = 5.0
REL_EPS = 1e-9


def close(a, b, rel=REL_EPS):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def jain_index(values):
    """Jain's fairness index (sum x)^2 / (n * sum x^2); 1 for all-zero input."""
    n = len(values)
    if n == 0:
        raise ValueError("Jain's index of an empty vector")
    sq = sum(v * v for v in values)
    if sq == 0:
        return 1.0
    return sum(values) ** 2 / (n * sq)


def poisson_bound(mean, z=Z):
    """Range a Poisson count with this mean stays in, z sigmas either side."""
    half = z * math.sqrt(mean)
    return max(0.0, mean - half), mean + half


def bounded_pareto_cdf(x, alpha, lo, hi):
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return (1.0 - (lo / x) ** alpha) / (1.0 - (lo / hi) ** alpha)


def lognormal_cdf(x, mu, sigma):
    if x <= 0:
        return 0.0
    return 0.5 * (1.0 + math.erf((math.log(x) - mu) / (sigma * math.sqrt(2.0))))


def floored_moments(cdf, lo, hi):
    """Mean and variance of floor(clamp(X, lo, hi)) for integer lo < hi,
    where cdf(x) = P(X < x) of a continuous X."""
    mean = 0.0
    second = 0.0
    prev = 0.0  # P(X < lo) folds into k = lo through the clamp
    for k in range(lo, hi):
        upper = cdf(k + 1)
        p = upper - prev
        mean += k * p
        second += k * k * p
        prev = upper
    tail = 1.0 - prev  # P(X >= hi) clamps to hi
    mean += hi * tail
    second += hi * hi * tail
    return mean, max(0.0, second - mean * mean)


def size_moments(cls):
    """Mean and variance in segments of one workload class's flow sizes."""
    lo, hi = int(cls["min"]), int(cls["max"])
    if cls["size"] == "pareto":
        def cdf(x):
            return bounded_pareto_cdf(x, cls["alpha"], lo, hi)
    else:
        def cdf(x):
            return lognormal_cdf(x, cls["mu"], cls["sigma"])
    return floored_moments(cdf, lo, hi)


def offered_load(op):
    """Offered workload bits per second over the bottleneck rate."""
    segs = sum(c["weight"] * size_moments(c)[0] for c in op["classes"])
    return op["arrivals_per_s"] * segs * WIRE_BYTES * 8 / op["rate_bps"]


def check_fixed_flows(op):
    """Conservation checks of an experiment with long-lived flow groups."""
    errors = []
    flows = op["flows"]  # [group, goodput_bps, queue_drops, delivered segments]
    groups = op["groups"]
    window = op["measured_s"]
    aggregate = op["aggregate_bps"]
    payload_capacity = op["rate_bps"] * MSS_BYTES / WIRE_BYTES

    total = sum(f[1] for f in flows)
    if not close(total, aggregate):
        errors.append(f"per-flow goodputs sum to {total!r}, aggregate is {aggregate!r}")

    # The bottleneck cannot serialize more than rate x window (plus the
    # packet in service at the window's start).
    wire_packets = op["rate_bps"] * window / (WIRE_BYTES * 8)
    if op["queue_dequeued"] > wire_packets + 1:
        errors.append(f"bottleneck sent {op['queue_dequeued']} packets, "
                      f"link carries {wire_packets:.1f} in the window")
    # Segments the receivers got (ACKed or SACKed) in the window crossed the
    # bottleneck in it or at most one RTT before it started.
    delivered_bps = sum(f[3] for f in flows) * MSS_BYTES * 8 / window
    max_rtt = max(g["rtt_s"] for g in groups)
    slack = 1.0 + (max_rtt + 0.001) / window
    if delivered_bps > payload_capacity * slack:
        errors.append(f"delivered {delivered_bps:.6g} b/s exceeds payload capacity "
                      f"{payload_capacity:.6g} b/s")

    if aggregate > 0 and not close(sum(g["share"] for g in groups), 1.0):
        errors.append("group shares do not sum to 1")

    for gi, g in enumerate(groups):
        goodputs = [f[1] for f in flows if f[0] == gi]
        if len(goodputs) != g["count"]:
            errors.append(f"group {gi} has {len(goodputs)} flows, spec says {g['count']}")
            continue
        jfi = jain_index(goodputs)
        if not close(jfi, g["jfi"]):
            errors.append(f"group {gi} JFI {g['jfi']!r}, recomputed {jfi!r}")
        if not 1.0 / len(goodputs) - REL_EPS <= g["jfi"] <= 1.0 + REL_EPS:
            errors.append(f"group {gi} JFI {g['jfi']!r} outside [1/n, 1]")
        if aggregate > 0 and not close(sum(goodputs) / aggregate, g["share"]):
            errors.append(f"group {gi} share {g['share']!r} disagrees with its flows")

    drops = sum(f[2] for f in flows)
    if drops != op["queue_drops"]:
        errors.append(f"per-flow drops sum to {drops}, queue dropped {op['queue_drops']}")
    return errors


def check_workload(op):
    """Open-loop workload checks: arrivals, flow accounting, FCT order,
    goodput and flow sizes against the analytic size laws."""
    errors = []
    horizon = op["horizon_s"]
    for spec, res in zip(op["classes"], op["workload_classes"]):
        name = spec["name"]
        # Class picks thin the Poisson stream; one extra arrival at t = 0.
        lo, hi = poisson_bound(op["arrivals_per_s"] * spec["weight"] * horizon)
        if not lo <= res["arrivals"] <= hi + 1:
            errors.append(f"{name}: {res['arrivals']} arrivals outside [{lo:.0f}, {hi:.0f}]")
        admitted = res["arrivals"] - res["rejected"]
        if res["completed"] + res["abandoned"] != admitted:
            errors.append(f"{name}: completed {res['completed']} + in flight "
                          f"{res['abandoned']} != admitted {admitted}")
        pcts = [res["p50_fct_s"], res["p90_fct_s"], res["p99_fct_s"], res["p999_fct_s"]]
        if any(a > b for a, b in zip(pcts, pcts[1:])):
            errors.append(f"{name}: FCT percentiles not monotone: {pcts}")
        if res["completed"] and res["p50_fct_s"] < spec["rtt_s"]:
            errors.append(f"{name}: median FCT {res['p50_fct_s']} below base RTT {spec['rtt_s']}")
        # Sizes of admitted flows are i.i.d.; those still in flight at the end
        # hold between min and max segments each.
        mean, var = size_moments(spec)
        if res["completed"]:
            spread = Z * math.sqrt(var * admitted)
            low = (mean * admitted - spread - res["abandoned"] * spec["max"]) / res["completed"]
            high = (mean * admitted + spread - res["abandoned"] * spec["min"]) / res["completed"]
            got = res["completed_segments"] / res["completed"]
            if not low <= got <= high:
                errors.append(f"{name}: {got:.4f} segments per completed flow outside "
                              f"[{low:.4f}, {high:.4f}] (analytic mean {mean:.4f})")
    payload_capacity = op["rate_bps"] * MSS_BYTES / WIRE_BYTES
    if op["workload_goodput_bps"] > payload_capacity:
        errors.append(f"workload goodput {op['workload_goodput_bps']:.6g} b/s exceeds "
                      f"payload capacity {payload_capacity:.6g} b/s")
    return errors


def check_op(op):
    """All checks that apply to one experiment record."""
    errors = []
    if op["flows"]:
        errors += check_fixed_flows(op)
    if "workload_classes" in op:
        errors += check_workload(op)
    if "ok" in op:  # a paper-grid cell
        if not op["ok"]:
            errors.append(f"cell did not simulate: {op.get('failure', 'served from cache')}")
        if not op["warm_from_cache"]:
            errors.append("warm pass did not serve the cell from the cache")
        if not op["warm_identical"]:
            errors.append("warm result differs from the cold result")
    return errors


def same_simulation(plain, traced):
    """Wrapper transparency: both records simulated exactly the same run."""
    errors = []
    if plain["events"] != traced["events"]:
        errors.append(f"{plain['name']}: events {plain['events']} vs {traced['events']}")
    if [f[1] for f in plain["flows"]] != [f[1] for f in traced["flows"]]:
        errors.append(f"{plain['name']}: per-flow goodputs differ")
    if [g["share"] for g in plain["groups"]] != [g["share"] for g in traced["groups"]]:
        errors.append(f"{plain['name']}: group shares differ")
    if plain.get("workload_classes") != traced.get("workload_classes"):
        errors.append(f"{plain['name']}: workload class results differ")
    return errors
