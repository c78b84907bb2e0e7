#!/usr/bin/env python3
"""Validates the machine-readable JSON the repo's binaries emit.

Usage: validate_bench_json.py DIR [--require-solvers NAME,NAME,...]
       validate_bench_json.py --protocol FILE [FILE...]

Default (bench) mode checks, for every BENCH_*.json in DIR
(DESIGN.md §11.3):
  * the document parses as JSON and carries the groupform.bench/1 schema;
  * the envelope's "registry" lists at least the required solver set
    (default: the eight built-ins), i.e. the build under test can still
    run every paper algorithm;
  * each "sweeps" entry (when present) has series and cells, every cell
    state is OK/DNF/ERR, every OK cell's "values" row matches the sweep's
    declared "metrics" columns (the delta_vs_resolve trajectory snapshot
    rides on this), and no sweep reports ERR cells while the document
    claims all_ok;
  * BENCH_scale_*.json additionally carries the storage-backend report
    (DESIGN.md §14.5): a "scale" object with positive users/items/ratings,
    a backends array covering at least dense/compact8/mmap with numeric
    size and top-k cost (ns_per_call, ns_per_cell) fields, topk_identical
    true on every backend
    (compact scans return the same top-k lists as dense), and
    reduction_dense_over_compact8 >= 4 — the PR-7 headline is a ratio of
    per-user byte costs, so it holds at smoke scale too;
  * BENCH_topk_*.json additionally carries the top-k kernel report
    (DESIGN.md §18): a "topk_kernel" object whose rows each report
    backend/items/cells plus numeric ns_per_call and ns_per_cell, with
    topk_identical true on every row and, per backend, rows at 2k and
    200k items whose ns_per_call grows less than 2x between them — the
    kernel costs rated cells, not catalogue size;
  * BENCH_local_search_*.json additionally carries the move-evaluation
    report (DESIGN.md §19): a "local_search" object whose rows each report
    items/semantics/trials plus numeric evaluator and reference ns per
    trial and one-pass localsearch / 1200-iteration sa solve times, with
    rows at 500, 5k and 20k items, trials_identical true on every row, and
    reference_ns_per_trial >= 3x evaluator_ns_per_trial on every row (a
    ratio within one run);
  * BENCH_response_metrics*.json additionally carries the response-metric
    report (DESIGN.md §20): a "response_metrics" object whose rows each
    report users/k plus numeric self_ms, store_build_ms, with_store_ms and
    store_bytes, with rows at 2000 and 5000 users x k 5 and 10,
    values_identical true on every row, and
    self_ms >= 1.2x (store_build_ms + with_store_ms) on every row (a ratio
    within one run);
  * BENCH_serve_*.json additionally carries the serving-load report
    (DESIGN.md §15): a "serve" object whose rows each report
    wire/mode/threads/requests/batch_size plus numeric rps and p50/p99
    latencies, with binary/batch rps >= json/single rps at every thread
    count;
  * BENCH_fleet_*.json additionally carries the broker-fleet scaling
    report (DESIGN.md §16): a "fleet" object whose rows each report
    workers/wire/mode/requests/batch_size plus numeric rps and p50/p99
    latencies, with fleet (2+ worker) rps >= single-worker rps for every
    wire x mode;
  * BENCH_constrained_*.json additionally pins the constraint-ablation
    invariant (DESIGN.md §17): every sweep carries plain greedy as the
    unconstrained bound series plus at least one constrained solver, and
    at every x each constrained solver's OK objective is at most the
    greedy objective at the same x.

--protocol mode validates newline-delimited groupform.response/1 streams
captured from groupform_serverd (docs/PROTOCOL.md): every line must parse,
carry the response schema, use a known state, and ship the fields that
state requires (OK: solver/objective/num_groups/metrics; DNF and ERR: a
known non-OK code plus a message). `groupform.delta/1` answers additionally
carry the epoch envelope — a non-empty "epoch" key, a numeric
"objective_delta_vs_previous", and a non-negative integer
"warm_start_passes" — and only OK responses may carry it.

Exit code 0 when every file validates, 1 otherwise. CI smoke-runs one
tiny sweep per bench category plus a canned request stream and gates both
on this script.
"""

import argparse
import json
import pathlib
import sys

BUILTIN_SOLVERS = [
    "baseline",
    "bnb",
    "brute",
    "exact",
    "greedy",
    "localsearch",
    "sa",
    "veckmeans",
]


def fail(path, message):
    print(f"FAIL {path}: {message}")
    return False


def validate_sweep(path, sweep):
    ok = True
    name = sweep.get("sweep", "<unnamed>")
    if sweep.get("schema") != "groupform.sweep/1":
        ok = fail(path, f"sweep {name}: bad schema {sweep.get('schema')!r}")
    if not sweep.get("series"):
        ok = fail(path, f"sweep {name}: no series")
    if not sweep.get("cells"):
        ok = fail(path, f"sweep {name}: no cells")
    expected = len(sweep.get("series", [])) * len(sweep.get("xs", []))
    if expected and len(sweep.get("cells", [])) != expected:
        ok = fail(
            path,
            f"sweep {name}: {len(sweep['cells'])} cells, expected {expected}",
        )
    metrics = sweep.get("metrics", [])
    for cell in sweep.get("cells", []):
        state = cell.get("state")
        if state not in ("OK", "DNF", "ERR"):
            ok = fail(path, f"sweep {name}: bad cell state {state!r}")
        if state == "OK":
            if "objective" not in cell:
                ok = fail(path, f"sweep {name}: OK cell without objective")
            values = cell.get("values")
            if metrics and (
                not isinstance(values, list)
                or len(values) != len(metrics)
                or any(not isinstance(v, (int, float)) for v in values)
            ):
                ok = fail(
                    path,
                    f"sweep {name}: OK cell values {values!r} do not match "
                    f"declared metrics {metrics}",
                )
    return ok


REQUIRED_SCALE_BACKENDS = {"dense", "compact8", "mmap"}

SCALE_BACKEND_NUMERIC_KEYS = [
    "bytes",
    "charged_bytes",
    "bytes_per_user",
    "load_seconds",
    "ns_per_call",
    "ns_per_cell",
]

MIN_SCALE_REDUCTION = 4.0


def validate_scale(path, doc):
    scale = doc.get("scale")
    if not isinstance(scale, dict):
        return fail(path, "scale bench without a scale object")
    ok = True
    for key in ("users", "items", "ratings", "file_bytes"):
        value = scale.get(key)
        if not isinstance(value, int) or value <= 0:
            ok = fail(path, f"scale.{key} must be a positive integer")
    backends = scale.get("backends")
    if not isinstance(backends, list) or not backends:
        return fail(path, "scale.backends must be a non-empty array")
    names = set()
    for backend in backends:
        name = backend.get("name")
        if not isinstance(name, str) or not name:
            ok = fail(path, "scale backend without a name")
            continue
        names.add(name)
        for key in SCALE_BACKEND_NUMERIC_KEYS:
            if not isinstance(backend.get(key), (int, float)):
                ok = fail(path, f"backend {name}: missing numeric {key!r}")
        if backend.get("topk_identical") is not True:
            ok = fail(path, f"backend {name}: topk_identical is not true")
    missing = sorted(REQUIRED_SCALE_BACKENDS - names)
    if missing:
        ok = fail(path, f"scale.backends missing: {', '.join(missing)}")
    reduction = scale.get("reduction_dense_over_compact8")
    if not isinstance(reduction, (int, float)):
        ok = fail(path, "scale without numeric reduction_dense_over_compact8")
    elif reduction < MIN_SCALE_REDUCTION:
        ok = fail(
            path,
            f"reduction_dense_over_compact8 is {reduction:.2f}, "
            f"below the required {MIN_SCALE_REDUCTION}x",
        )
    return ok


TOPK_ROW_NUMERIC_KEYS = ["cells", "ns_per_call", "ns_per_cell"]
TOPK_SMALL_ITEMS = 2_000
TOPK_LARGE_ITEMS = 200_000
MAX_TOPK_GROWTH = 2.0


def validate_topk_kernel(path, doc):
    report = doc.get("topk_kernel")
    if not isinstance(report, dict):
        return fail(path, "top-k kernel bench without a topk_kernel object")
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "topk_kernel.rows must be a non-empty array")
    ok = True
    per_call = {}  # backend -> {items: ns_per_call}
    for index, row in enumerate(rows):
        backend = row.get("backend")
        items = row.get("items")
        if not isinstance(backend, str) or not backend:
            ok = fail(path, f"topk_kernel row {index} without a backend")
            continue
        if not isinstance(items, int) or items <= 0:
            ok = fail(path, f"topk_kernel row {index}: bad items {items!r}")
            continue
        where = f"topk_kernel {backend} at {items} items"
        numeric = True
        for key in TOPK_ROW_NUMERIC_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                numeric = ok = fail(path, f"{where}: bad {key} {value!r}")
        if row.get("topk_identical") is not True:
            ok = fail(path, f"{where}: topk_identical is not true")
        if numeric:
            per_call.setdefault(backend, {})[items] = row["ns_per_call"]
    for backend, by_items in sorted(per_call.items()):
        small = by_items.get(TOPK_SMALL_ITEMS)
        large = by_items.get(TOPK_LARGE_ITEMS)
        if small is None or large is None:
            ok = fail(
                path,
                f"topk_kernel {backend}: needs rows at {TOPK_SMALL_ITEMS} "
                f"and {TOPK_LARGE_ITEMS} items",
            )
        elif large >= MAX_TOPK_GROWTH * small:
            ok = fail(
                path,
                f"topk_kernel {backend}: ns_per_call grows "
                f"{large / small:.2f}x from {TOPK_SMALL_ITEMS} to "
                f"{TOPK_LARGE_ITEMS} items, at most {MAX_TOPK_GROWTH}x "
                f"allowed",
            )
    return ok


LOCAL_SEARCH_ITEMS = [500, 5_000, 20_000]
LOCAL_SEARCH_ROW_NUMERIC_KEYS = [
    "evaluator_ns_per_trial",
    "reference_ns_per_trial",
    "localsearch_one_pass_ms",
    "sa_1200_ms",
]
MIN_LOCAL_SEARCH_SPEEDUP = 3.0


def validate_local_search(path, doc):
    """BENCH_local_search_*.json: the move-evaluation report (DESIGN.md §19)."""
    report = doc.get("local_search")
    if not isinstance(report, dict):
        return fail(path, "local-search bench without a local_search object")
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "local_search.rows must be a non-empty array")
    ok = True
    sizes = set()
    for index, row in enumerate(rows):
        items = row.get("items")
        semantics = row.get("semantics")
        trials = row.get("trials")
        if not isinstance(items, int) or items <= 0:
            ok = fail(path, f"local_search row {index}: bad items {items!r}")
            continue
        if not isinstance(semantics, str) or not semantics:
            ok = fail(path, f"local_search row {index} without semantics")
            continue
        where = f"local_search {semantics} at {items} items"
        if not isinstance(trials, int) or trials <= 0:
            ok = fail(path, f"{where}: bad trials {trials!r}")
        numeric = True
        for key in LOCAL_SEARCH_ROW_NUMERIC_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                numeric = ok = fail(path, f"{where}: bad {key} {value!r}")
        if row.get("trials_identical") is not True:
            ok = fail(path, f"{where}: trials_identical is not true")
        if numeric:
            speedup = (row["reference_ns_per_trial"] /
                       row["evaluator_ns_per_trial"])
            if speedup < MIN_LOCAL_SEARCH_SPEEDUP:
                ok = fail(
                    path,
                    f"{where}: reference/evaluator is {speedup:.2f}x, at "
                    f"least {MIN_LOCAL_SEARCH_SPEEDUP}x required",
                )
        sizes.add(items)
    missing = [size for size in LOCAL_SEARCH_ITEMS if size not in sizes]
    if missing:
        ok = fail(path, f"local_search: no rows at {missing} items")
    return ok


RESPONSE_METRICS_USERS = [2_000, 5_000]
RESPONSE_METRICS_KS = [5, 10]
RESPONSE_METRICS_NUMERIC_KEYS = [
    "self_ms",
    "store_build_ms",
    "with_store_ms",
    "store_bytes",
]
# The self path selects every user's top-k twice (mean_user_ndcg and
# fully_satisfied each build a store) and makes the same reads; the
# store-backed path builds once. So self / (build + reads) is below 2 by
# construction; it reads 1.4-1.5 on a 4-core x86 VM.
MIN_RESPONSE_METRICS_SPEEDUP = 1.2


def validate_response_metrics(path, doc):
    """BENCH_response_metrics*.json: the metric-store report (DESIGN.md §20)."""
    report = doc.get("response_metrics")
    if not isinstance(report, dict):
        return fail(path, "response-metrics bench without a "
                    "response_metrics object")
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "response_metrics.rows must be a non-empty array")
    ok = True
    shapes = set()
    for index, row in enumerate(rows):
        users = row.get("users")
        k = row.get("k")
        if not isinstance(users, int) or users <= 0:
            ok = fail(path, f"response_metrics row {index}: bad users "
                      f"{users!r}")
            continue
        if not isinstance(k, int) or k <= 0:
            ok = fail(path, f"response_metrics row {index}: bad k {k!r}")
            continue
        where = f"response_metrics {users} users at k={k}"
        numeric = True
        for key in RESPONSE_METRICS_NUMERIC_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                numeric = ok = fail(path, f"{where}: bad {key} {value!r}")
        if row.get("values_identical") is not True:
            ok = fail(path, f"{where}: values_identical is not true")
        if numeric:
            # The store-backed side pays its own build, as if no solver
            # shared it.
            speedup = row["self_ms"] / (row["store_build_ms"] +
                                        row["with_store_ms"])
            if speedup < MIN_RESPONSE_METRICS_SPEEDUP:
                ok = fail(
                    path,
                    f"{where}: self/(build+with_store) is {speedup:.2f}x, "
                    f"at least {MIN_RESPONSE_METRICS_SPEEDUP}x required",
                )
        shapes.add((users, k))
    missing = [(users, k) for users in RESPONSE_METRICS_USERS
               for k in RESPONSE_METRICS_KS if (users, k) not in shapes]
    if missing:
        ok = fail(path, f"response_metrics: no rows at (users, k) {missing}")
    return ok


SERVE_ROW_WIRES = {"json", "binary"}
SERVE_ROW_MODES = {"single", "batch"}

SERVE_ROW_NUMERIC_KEYS = ["rps", "p50_ms", "p99_ms"]


def validate_serve(path, doc):
    """BENCH_serve_*.json: the serving-load report (DESIGN.md §15).

    Requires a "serve" object with a non-empty rows array, each row fully
    typed (wire/mode/threads/requests/batch_size plus numeric rps and
    p50/p99 latencies), and — the tentpole headline — binary/batch
    throughput at least json/single throughput at every reported thread
    count (batching plus framing must not lose to the naive path).
    """
    serve = doc.get("serve")
    if not isinstance(serve, dict):
        return fail(path, "serve bench without a serve object")
    ok = True
    if not isinstance(serve.get("batch_size"), int) or serve["batch_size"] < 1:
        ok = fail(path, "serve.batch_size must be a positive integer")
    rows = serve.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "serve.rows must be a non-empty array")
    rps = {}  # (wire, mode, threads) -> rps
    for index, row in enumerate(rows):
        where = f"serve.rows[{index}]"
        wire = row.get("wire")
        mode = row.get("mode")
        if wire not in SERVE_ROW_WIRES:
            ok = fail(path, f"{where}: bad wire {wire!r}")
        if mode not in SERVE_ROW_MODES:
            ok = fail(path, f"{where}: bad mode {mode!r}")
        for key in ("threads", "requests", "batch_size"):
            if not isinstance(row.get(key), int) or row[key] < 1:
                ok = fail(path, f"{where}: {key} must be a positive integer")
        for key in SERVE_ROW_NUMERIC_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                ok = fail(path, f"{where}: missing numeric {key!r}")
        if ok:
            rps[(wire, mode, row["threads"])] = row["rps"]
    if not ok:
        return ok
    thread_counts = sorted({threads for (_, _, threads) in rps})
    for threads in thread_counts:
        json_single = rps.get(("json", "single", threads))
        binary_batch = rps.get(("binary", "batch", threads))
        if json_single is None or binary_batch is None:
            ok = fail(
                path,
                f"threads={threads}: need both a json/single and a "
                f"binary/batch row",
            )
        elif binary_batch < json_single:
            ok = fail(
                path,
                f"threads={threads}: binary/batch {binary_batch:.0f} rps "
                f"is below json/single {json_single:.0f} rps",
            )
    return ok


FLEET_ROW_WIRES = {"json", "binary"}
FLEET_ROW_MODES = {"single", "batch"}

FLEET_ROW_NUMERIC_KEYS = ["rps", "p50_ms", "p99_ms"]


def validate_fleet(path, doc):
    """BENCH_fleet_*.json: the broker-fleet scaling report (DESIGN.md §16).

    Requires a "fleet" object with a non-empty rows array, each row fully
    typed (workers/wire/mode/requests/batch_size plus numeric rps and
    p50/p99 latencies), and — the tentpole headline — for every wire ×
    mode, throughput at 2+ workers at least the single-worker (workers=1)
    throughput: the fleet's aggregate instance cache must pay for the
    broker tier.
    """
    fleet = doc.get("fleet")
    if not isinstance(fleet, dict):
        return fail(path, "fleet bench without a fleet object")
    ok = True
    for key in ("batch_size", "client_threads", "worker_cache_bytes"):
        if not isinstance(fleet.get(key), int) or fleet[key] < 1:
            ok = fail(path, f"fleet.{key} must be a positive integer")
    rows = fleet.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "fleet.rows must be a non-empty array")
    rps = {}  # (wire, mode, workers) -> rps
    for index, row in enumerate(rows):
        where = f"fleet.rows[{index}]"
        wire = row.get("wire")
        mode = row.get("mode")
        if wire not in FLEET_ROW_WIRES:
            ok = fail(path, f"{where}: bad wire {wire!r}")
        if mode not in FLEET_ROW_MODES:
            ok = fail(path, f"{where}: bad mode {mode!r}")
        for key in ("workers", "requests", "batch_size"):
            if not isinstance(row.get(key), int) or row[key] < 1:
                ok = fail(path, f"{where}: {key} must be a positive integer")
        for key in FLEET_ROW_NUMERIC_KEYS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                ok = fail(path, f"{where}: missing numeric {key!r}")
        if ok:
            rps[(wire, mode, row["workers"])] = row["rps"]
    if not ok:
        return ok
    for wire in sorted({w for (w, _, _) in rps}):
        for mode in sorted({m for (_, m, _) in rps}):
            single = rps.get((wire, mode, 1))
            fleet_best = max(
                (r for (w, m, n), r in rps.items()
                 if w == wire and m == mode and n > 1),
                default=None,
            )
            if single is None or fleet_best is None:
                ok = fail(
                    path,
                    f"{wire}/{mode}: need a workers=1 row and at least "
                    f"one workers>1 row",
                )
            elif fleet_best < single:
                ok = fail(
                    path,
                    f"{wire}/{mode}: fleet best {fleet_best:.0f} rps is "
                    f"below single-worker {single:.0f} rps",
                )
    return ok


CONSTRAINED_BOUND_SOLVER = "greedy"

CONSTRAINED_EPSILON = 1e-6


def validate_constrained(path, doc):
    """BENCH_constrained_*.json: the constraint-ablation report (DESIGN.md §17).

    Every sweep must carry the unconstrained bound series (plain greedy,
    which ignores problem.constraints) and at least one constrained
    solver, and — the invariant the ablation exists to pin — at every x,
    each constrained solver's OK objective is at most the greedy
    objective at the same x: adding capacity, link, or fairness
    constraints can only shrink the feasible region.
    """
    sweeps = doc.get("sweeps", [])
    if not sweeps:
        return fail(path, "constrained bench without sweeps")
    ok = True
    for sweep in sweeps:
        name = sweep.get("sweep", "<unnamed>")
        bound = {}  # x -> greedy objective
        constrained = []  # (x, solver, objective)
        for cell in sweep.get("cells", []):
            if cell.get("state") != "OK":
                continue
            x = cell.get("x")
            solver = cell.get("solver")
            objective = cell.get("objective")
            if not isinstance(objective, (int, float)):
                continue  # validate_sweep already flagged it
            if solver == CONSTRAINED_BOUND_SOLVER:
                bound[x] = objective
            else:
                constrained.append((x, solver, objective))
        if not bound:
            ok = fail(
                path,
                f"sweep {name}: no OK {CONSTRAINED_BOUND_SOLVER!r} cells "
                f"to serve as the unconstrained bound",
            )
            continue
        if not constrained:
            ok = fail(path, f"sweep {name}: no OK constrained-solver cells")
            continue
        for x, solver, objective in constrained:
            if x not in bound:
                ok = fail(
                    path,
                    f"sweep {name}: x={x} has a {solver} cell but no "
                    f"{CONSTRAINED_BOUND_SOLVER} bound cell",
                )
            elif objective > bound[x] + CONSTRAINED_EPSILON:
                ok = fail(
                    path,
                    f"sweep {name}: x={x} {solver} objective "
                    f"{objective:.4f} exceeds the unconstrained "
                    f"{CONSTRAINED_BOUND_SOLVER} bound {bound[x]:.4f}",
                )
    return ok


def validate_file(path, required_solvers):
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return fail(path, f"does not parse: {error}")
    ok = True
    if doc.get("schema") != "groupform.bench/1":
        ok = fail(path, f"bad schema {doc.get('schema')!r}")
    registry = doc.get("registry", [])
    missing = sorted(set(required_solvers) - set(registry))
    if missing:
        ok = fail(path, f"registry is missing solvers: {', '.join(missing)}")
    sweeps = doc.get("sweeps", [])
    for sweep in sweeps:
        ok = validate_sweep(path, sweep) and ok
    if path.name.startswith("BENCH_scale_"):
        ok = validate_scale(path, doc) and ok
    if path.name.startswith("BENCH_topk_"):
        ok = validate_topk_kernel(path, doc) and ok
    if path.name.startswith("BENCH_local_search"):
        ok = validate_local_search(path, doc) and ok
    if path.name.startswith("BENCH_response_metrics"):
        ok = validate_response_metrics(path, doc) and ok
    if path.name.startswith("BENCH_serve_"):
        ok = validate_serve(path, doc) and ok
    if path.name.startswith("BENCH_fleet_"):
        ok = validate_fleet(path, doc) and ok
    if path.name.startswith("BENCH_constrained_"):
        ok = validate_constrained(path, doc) and ok
    if sweeps and doc.get("all_ok") and any(
        cell.get("state") == "ERR"
        for sweep in sweeps
        for cell in sweep.get("cells", [])
    ):
        ok = fail(path, "all_ok is true but ERR cells exist")
    if ok:
        kind = f"{len(sweeps)} sweeps" if sweeps else "envelope"
        print(f"ok   {path} ({kind}, registry of {len(registry)})")
    return ok


STATUS_CODES = [
    "INVALID_ARGUMENT",
    "NOT_FOUND",
    "OUT_OF_RANGE",
    "FAILED_PRECONDITION",
    "RESOURCE_EXHAUSTED",
    "UNIMPLEMENTED",
    "INTERNAL",
    "DATA_LOSS",
    "UNAVAILABLE",
]

METRIC_KEYS = [
    "avg_group_satisfaction",
    "mean_user_rating",
    "mean_user_ndcg",
    "fully_satisfied",
]


def validate_response_line(path, index, line):
    where = f"{path}:{index}"
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as error:
        return fail(where, f"does not parse: {error}")
    ok = True
    if doc.get("schema") != "groupform.response/1":
        ok = fail(where, f"bad schema {doc.get('schema')!r}")
    state = doc.get("state")
    if state not in ("OK", "DNF", "ERR"):
        return fail(where, f"bad state {state!r}")
    if state == "OK":
        if not isinstance(doc.get("solver"), str) or not doc["solver"]:
            ok = fail(where, "OK response without a solver name")
        if not isinstance(doc.get("objective"), (int, float)):
            ok = fail(where, "OK response without a numeric objective")
        if not isinstance(doc.get("num_groups"), int) or doc["num_groups"] < 0:
            ok = fail(where, "OK response without a valid num_groups")
        metrics = doc.get("metrics")
        if not isinstance(metrics, dict):
            ok = fail(where, "OK response without a metrics object")
        else:
            for key in METRIC_KEYS:
                if not isinstance(metrics.get(key), (int, float)):
                    ok = fail(where, f"metrics missing numeric {key!r}")
        groups = doc.get("groups")
        if groups is not None and (
            not isinstance(groups, list)
            or any(
                not isinstance(g, list)
                or any(not isinstance(u, int) for u in g)
                for g in groups
            )
        ):
            ok = fail(where, "groups must be arrays of integer user ids")
    else:
        if doc.get("code") not in STATUS_CODES:
            ok = fail(where, f"{state} response with code {doc.get('code')!r}")
        if not isinstance(doc.get("message"), str):
            ok = fail(where, f"{state} response without a message")
    delta_keys = ("epoch", "objective_delta_vs_previous", "warm_start_passes")
    if any(key in doc for key in delta_keys):
        if state != "OK":
            ok = fail(where, f"{state} response carries delta envelope keys")
        if not isinstance(doc.get("epoch"), str) or not doc.get("epoch"):
            ok = fail(where, "delta response without a non-empty epoch")
        if not isinstance(
            doc.get("objective_delta_vs_previous"), (int, float)
        ):
            ok = fail(
                where,
                "delta response without numeric objective_delta_vs_previous",
            )
        passes = doc.get("warm_start_passes")
        if not isinstance(passes, int) or passes < 0:
            ok = fail(
                where,
                "delta response without a non-negative warm_start_passes",
            )
    return ok


def validate_protocol_file(path):
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        return fail(path, f"unreadable: {error}")
    lines = [line for line in lines if line.strip()]
    if not lines:
        return fail(path, "no response lines")
    ok = True
    for index, line in enumerate(lines, start=1):
        ok = validate_response_line(path, index, line) and ok
    if ok:
        print(f"ok   {path} ({len(lines)} responses)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        type=pathlib.Path,
        nargs="+",
        help="bench-JSON directory, or response files with --protocol",
    )
    parser.add_argument(
        "--require-solvers",
        default=",".join(BUILTIN_SOLVERS),
        help="comma-separated solver names the registry must contain",
    )
    parser.add_argument(
        "--protocol",
        action="store_true",
        help="validate groupform.response/1 streams instead of BENCH_*.json",
    )
    args = parser.parse_args()
    if args.protocol:
        ok = True
        for path in args.paths:
            ok = validate_protocol_file(path) and ok
        return 0 if ok else 1
    if len(args.paths) != 1:
        print("FAIL: bench mode takes exactly one directory")
        return 1
    required = [s for s in args.require_solvers.split(",") if s]
    files = sorted(args.paths[0].glob("BENCH_*.json"))
    if not files:
        print(f"FAIL {args.paths[0]}: no BENCH_*.json files found")
        return 1
    ok = True
    for path in files:
        ok = validate_file(path, required) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
