"""Output checks, independent of the capkc code being measured.

Each call's output is checked against the instance's exact metric, which
the benchmark computes itself, and against the threshold or optimum
recorded for the instance in expected.json.
"""

from fractions import Fraction


class CheckError(Exception):
    pass


def parse_solution(text):
    """(k, radius, centers, phi) from the capkc solution format."""
    k = radius = None
    centers, assign = {}, {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "solution" and len(parts) == 3 and k is None:
            k, radius = int(parts[1]), Fraction(parts[2])
        elif parts[0] == "center" and len(parts) == 3 and int(parts[1]) not in centers:
            centers[int(parts[1])] = int(parts[2])
        elif parts[0] == "assign" and len(parts) == 3 and int(parts[1]) not in assign:
            assign[int(parts[1])] = int(parts[2])
        else:
            raise CheckError(f"bad solution line {raw!r}")
    if k is None:
        raise CheckError("solution has no header")
    if sorted(assign) != list(range(len(assign))):
        raise CheckError("solution assigns clients out of order or twice")
    return k, radius, centers, [assign[v] for v in range(len(assign))]


def check_solution(inst, metric, text):
    """Validate a solution text for inst; returns its claimed radius."""
    k, radius, centers, phi = parse_solution(text)
    if k != inst.k or sum(centers.values()) != inst.k:
        raise CheckError(f"solution opens {sum(centers.values())} centers, k is {inst.k}")
    if len(phi) != inst.n:
        raise CheckError(f"solution assigns {len(phi)} of {inst.n} clients")
    for u, mult in centers.items():
        if not 0 <= u < inst.n or mult < 1 or (inst.mode == "hard" and mult != 1):
            raise CheckError(f"center {u} with multiplicity {mult}")
    load = dict.fromkeys(centers, 0)
    for v, u in enumerate(phi):
        if u not in load:
            raise CheckError(f"client {v} assigned to closed vertex {u}")
        load[u] += 1
        d = metric[u][v]
        if d is None or d > radius:
            raise CheckError(f"client {v} at distance {d} from {u}, beyond radius {radius}")
    for u, mult in centers.items():
        if load[u] > inst.capacities[u] * mult:
            raise CheckError(f"center {u} serves {load[u]} clients, room for "
                             f"{inst.capacities[u] * mult}")
    return radius


def parse_report(stdout):
    """The first status, threshold, stretch and radius lines of capkc's output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("status", "threshold", "stretch", "radius") and key not in out:
            out[key] = value
    return out


def check_call(command, inst, metric, expected, rc, stdout, solution_text):
    """Check one call; returns achieved radius over the certified lower bound.

    For solve the bound is the reported threshold, for oracle the optimum;
    a bound of 0 gives a ratio of 1.  Returns None for an expected
    infeasible answer.  Raises CheckError on any mismatch.
    """
    if rc != expected["exit"]:
        raise CheckError(f"exit code {rc}, expected {expected['exit']}")
    report = parse_report(stdout)
    if command == "solve":
        if rc == 2:
            if report.get("status") != "infeasible":
                raise CheckError("exit 2 without 'status: infeasible'")
            return None
        threshold = Fraction(report["threshold"])
        if threshold != Fraction(expected["threshold"]):
            raise CheckError(f"threshold {threshold}, expected {expected['threshold']}")
        radius = check_solution(inst, metric, solution_text)
        if radius != Fraction(report["radius"]):
            raise CheckError("reported radius differs from the solution file")
        if radius > int(report["stretch"]) * threshold:
            raise CheckError(f"radius {radius} > stretch {report['stretch']} * {threshold}")
        bound = threshold
    else:
        if rc == 2:
            if not stdout.startswith("infeasible"):
                raise CheckError("exit 2 without 'infeasible'")
            return None
        optimum = Fraction(report["radius"])
        if optimum != Fraction(expected["optimum"]):
            raise CheckError(f"optimum {optimum}, expected {expected['optimum']}")
        body = stdout[stdout.index("\n") + 1:]
        radius = check_solution(inst, metric, body)
        if radius != optimum:
            raise CheckError(f"oracle solution radius {radius} is not the optimum")
        bound = optimum
    return radius / bound if bound else Fraction(1)
