#!/usr/bin/env python3
"""Schema and regression check for the benchmark harness's JSON outputs.

    check_bench_json.py FILE [FILE ...]
    check_bench_json.py FILE --compare BASELINE [--max-regress 0.15]

Validates BENCH_audit.json (audit_bench), BENCH_obs.json (obs_bench),
BENCH_scale.json (scale_bench), BENCH_streaming.json (streaming_bench),
BENCH_replication.json (replication_bench), BENCH_repair.json
(repair_bench), and the --out files of bench_table1_crypto and
bench_fig13_latency: the file must parse, carry
every expected field with the expected type, and its self-reported pass
flag (all_reports_identical / within_budget / scale_ok / streaming_ok /
replication_ok / repair_ok / table1_ok / fig13_ok) must be true. The schema
is recognised from the document's contents, not the file name, so renamed
artifacts still validate. A "hardware" block (cpu_model, nproc, sha_ni,
avx2) is validated when present.

With --compare, exactly one FILE is checked against BASELINE (same schema):
every gated metric in the baseline must be matched in the current file and
must not regress by more than --max-regress (fraction, default 0.15).
Throughput-style metrics (entries_per_sec, deliveries_per_sec) regress
downward; cost-style metrics (ns_per_record) regress upward. Two files
whose hardware stamps disagree on sha_ni are not compared; a file without
a stamp is compared, with its hardware reported as unknown.

Exit status: 0 = all files valid; 1 = a check failed; 2 = usage error.
"""

import json
import sys


class SchemaError(Exception):
    pass


def require(doc, key, kind, where):
    if key not in doc:
        raise SchemaError(f"{where}: missing field '{key}'")
    value = doc[key]
    if not isinstance(value, kind):
        expected = getattr(kind, "__name__", None) or "/".join(
            k.__name__ for k in kind
        )
        raise SchemaError(
            f"{where}: field '{key}' is {type(value).__name__}, "
            f"expected {expected}"
        )
    return value


def check_hardware(doc, name):
    hardware = doc.get("hardware")
    if hardware is None:
        return
    where = f"{name}.hardware"
    if not isinstance(hardware, dict):
        raise SchemaError(f"{where}: is {type(hardware).__name__}, expected dict")
    require(hardware, "cpu_model", str, where)
    nproc = require(hardware, "nproc", int, where)
    if nproc <= 0:
        raise SchemaError(f"{where}: 'nproc' must be positive, got {nproc}")
    for flag in ("sha_ni", "avx2"):
        require(hardware, flag, bool, where)


def check_audit(doc, name):
    config = require(doc, "config", dict, name)
    for field in ("entries", "pairs", "shards", "links", "rsa_bits", "reps"):
        require(config, field, int, f"{name}.config")
    alg = require(config, "alg", str, f"{name}.config")
    if alg not in ("rsa", "ed25519"):
        raise SchemaError(f"{name}.config: unknown alg '{alg}'")

    results = require(doc, "results", list, name)
    if not results:
        raise SchemaError(f"{name}: empty results array")
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        require(result, "threads", int, where)
        for field in ("ms_mean", "entries_per_sec", "speedup_vs_serial"):
            value = require(result, field, (int, float), where)
            if value <= 0:
                raise SchemaError(f"{where}: '{field}' must be positive, got {value}")
        # Optional (added after the first committed baselines): the fastest
        # repetition's throughput. Validated when present.
        best = result.get("entries_per_sec_best")
        if best is not None and (
            not isinstance(best, (int, float)) or best <= 0
        ):
            raise SchemaError(
                f"{where}: 'entries_per_sec_best' must be positive, got {best}"
            )
        if not require(result, "report_identical", bool, where):
            raise SchemaError(f"{where}: parallel report diverged from serial")
        if not require(result, "monotone_ok", bool, where):
            raise SchemaError(
                f"{where}: parallel configuration slower than serial"
            )

    if not require(doc, "all_reports_identical", bool, name):
        raise SchemaError(f"{name}: all_reports_identical is false")
    if not require(doc, "scaling_monotone", bool, name):
        raise SchemaError(f"{name}: scaling_monotone is false")


def check_obs(doc, name):
    config = require(doc, "config", dict, name)
    for field in ("iters", "threads", "max_ns", "histogram_buckets"):
        require(config, field, int, f"{name}.config")

    results = require(doc, "results", list, name)
    expected = {
        "counter_add",
        "gauge_add",
        "histogram_record",
        "trace_record",
        "counter_add_contended",
    }
    seen = set()
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        primitive = require(result, "name", str, where)
        seen.add(primitive)
        ns = require(result, "ns_per_record", (int, float), where)
        gated = require(result, "gated", bool, where)
        if ns <= 0:
            raise SchemaError(f"{where}: ns_per_record must be positive, got {ns}")
        if gated and ns >= config["max_ns"]:
            raise SchemaError(
                f"{where}: gated primitive '{primitive}' at {ns} ns exceeds "
                f"the {config['max_ns']} ns budget"
            )
    missing = expected - seen
    if missing:
        raise SchemaError(f"{name}: missing primitives {sorted(missing)}")

    if not require(doc, "within_budget", bool, name):
        raise SchemaError(f"{name}: within_budget is false")


def check_scale(doc, name):
    config = require(doc, "config", dict, name)
    require(config, "payload_bytes", int, f"{name}.config")
    require(config, "min_speedup", (int, float), f"{name}.config")
    require(config, "timeout_s", int, f"{name}.config")

    results = require(doc, "results", list, name)
    if not results:
        raise SchemaError(f"{name}: empty results array")
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        require(result, "subs", int, where)
        mode = require(result, "mode", str, where)
        if mode not in ("thread", "reactor"):
            raise SchemaError(f"{where}: unknown mode '{mode}'")
        require(result, "rounds", int, where)
        require(result, "deliveries", int, where)
        for field in ("wall_ms", "deliveries_per_sec", "p50_us", "p99_us"):
            value = require(result, field, (int, float), where)
            if value < 0:
                raise SchemaError(f"{where}: '{field}' is negative: {value}")
        if require(result, "timed_out", bool, where):
            raise SchemaError(f"{where}: run timed out before finishing")

    gate = require(doc, "gate", dict, name)
    require(gate, "subs", int, f"{name}.gate")
    require(gate, "speedup", (int, float), f"{name}.gate")
    require(gate, "p99_ok", bool, f"{name}.gate")
    require(gate, "evaluated", bool, f"{name}.gate")

    if not require(doc, "scale_ok", bool, name):
        raise SchemaError(f"{name}: scale_ok is false")


def check_streaming(doc, name):
    config = require(doc, "config", dict, name)
    for field in (
        "entries",
        "transmissions",
        "links",
        "flagged_pairs",
        "epoch_transmissions",
        "rsa_bits",
        "reps",
    ):
        require(config, field, int, f"{name}.config")
    require(config, "min_detect_speedup", (int, float), f"{name}.config")

    results = require(doc, "results", list, name)
    seen = set()
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        mode = require(result, "mode", str, where)
        if mode not in ("streaming", "batch"):
            raise SchemaError(f"{where}: unknown mode '{mode}'")
        seen.add(mode)
        require(result, "flags", int, where)
        for field in (
            "wall_ms",
            "entries_per_sec",
            "entries_per_sec_best",
            "detect_p50_ms",
            "detect_p99_ms",
        ):
            value = require(result, field, (int, float), where)
            if value <= 0:
                raise SchemaError(
                    f"{where}: '{field}' must be positive, got {value}"
                )
    missing = {"streaming", "batch"} - seen
    if missing:
        raise SchemaError(f"{name}: missing modes {sorted(missing)}")

    gate = require(doc, "gate", dict, name)
    speedup = require(gate, "detect_speedup_p99", (int, float), f"{name}.gate")
    if speedup < config["min_detect_speedup"]:
        raise SchemaError(
            f"{name}.gate: detection speedup {speedup} below the "
            f"{config['min_detect_speedup']}x gate"
        )
    if not require(gate, "identical", bool, f"{name}.gate"):
        raise SchemaError(
            f"{name}.gate: streaming report diverged from the batch reference"
        )
    if not require(gate, "flags_complete", bool, f"{name}.gate"):
        raise SchemaError(f"{name}.gate: not every misbehaving pair flagged")

    if not require(doc, "streaming_ok", bool, name):
        raise SchemaError(f"{name}: streaming_ok is false")


def check_replication(doc, name):
    config = require(doc, "config", dict, name)
    for field in ("entries", "reps", "payload_bytes"):
        require(config, field, int, f"{name}.config")

    results = require(doc, "results", list, name)
    if not results:
        raise SchemaError(f"{name}: empty results array")
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        replicas = require(result, "replicas", int, where)
        quorum = require(result, "quorum", int, where)
        if not 1 <= quorum <= replicas:
            raise SchemaError(
                f"{where}: quorum {quorum} outside [1, {replicas}]"
            )
        for field in (
            "wall_ms",
            "entries_per_sec",
            "entries_per_sec_best",
            "commit_p50_us",
            "commit_p99_us",
        ):
            value = require(result, field, (int, float), where)
            if value <= 0:
                raise SchemaError(
                    f"{where}: '{field}' must be positive, got {value}"
                )
        if not require(result, "committed", bool, where):
            raise SchemaError(f"{where}: quorum commit timed out")
        if not require(result, "converged", bool, where):
            raise SchemaError(f"{where}: a replica failed to converge")

    gate = require(doc, "gate", dict, name)
    if not require(gate, "all_committed", bool, f"{name}.gate"):
        raise SchemaError(f"{name}.gate: all_committed is false")
    if not require(gate, "all_converged", bool, f"{name}.gate"):
        raise SchemaError(f"{name}.gate: all_converged is false")

    if not require(doc, "replication_ok", bool, name):
        raise SchemaError(f"{name}: replication_ok is false")


def check_repair(doc, name):
    config = require(doc, "config", dict, name)
    for field in ("entries", "reps", "payload_bytes", "seal_every", "replicas"):
        require(config, field, int, f"{name}.config")

    results = require(doc, "results", list, name)
    if not results:
        raise SchemaError(f"{name}: empty results array")
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        behind = require(result, "behind", int, where)
        if not 1 <= behind < config["replicas"]:
            raise SchemaError(
                f"{where}: behind {behind} outside [1, {config['replicas']})"
            )
        require(result, "records_repaired", int, where)
        for field in (
            "wall_ms",
            "repair_records_per_sec",
            "repair_records_per_sec_best",
            "reconverge_ms",
        ):
            value = require(result, field, (int, float), where)
            if value <= 0:
                raise SchemaError(
                    f"{where}: '{field}' must be positive, got {value}"
                )
        if not require(result, "converged", bool, where):
            raise SchemaError(f"{where}: a replica failed to converge")
        if not require(result, "clean", bool, where):
            raise SchemaError(
                f"{where}: repair produced findings against honest peers"
            )

    gate = require(doc, "gate", dict, name)
    if not require(gate, "all_converged", bool, f"{name}.gate"):
        raise SchemaError(f"{name}.gate: all_converged is false")
    if not require(gate, "no_findings", bool, f"{name}.gate"):
        raise SchemaError(f"{name}.gate: no_findings is false")

    if not require(doc, "repair_ok", bool, name):
        raise SchemaError(f"{name}: repair_ok is false")


def check_table1(doc, name):
    config = require(doc, "config", dict, name)
    for field in ("samples", "rsa_bits"):
        require(config, field, int, f"{name}.config")

    results = require(doc, "results", list, name)
    types = []
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        types.append(require(result, "type", str, where))
        require(result, "size_bytes", int, where)
        for field in ("hash_ms_mean", "hash_sign_ms_mean"):
            value = require(result, field, (int, float), where)
            if value <= 0:
                raise SchemaError(
                    f"{where}: '{field}' must be positive, got {value}"
                )
        for field in ("hash_ms_stdev", "hash_sign_ms_stdev"):
            value = require(result, field, (int, float), where)
            if value < 0:
                raise SchemaError(f"{where}: '{field}' is negative: {value}")
    if types != ["Steering", "Scan", "Image"]:
        raise SchemaError(
            f"{name}: results are {types}, expected Steering, Scan, Image"
        )

    gate = require(doc, "gate", dict, name)
    if not require(gate, "hash_grows_with_size", bool, f"{name}.gate"):
        raise SchemaError(
            f"{name}.gate: hashing time does not grow Steering < Scan < Image"
        )
    if not require(doc, "table1_ok", bool, name):
        raise SchemaError(f"{name}: table1_ok is false")


def check_fig13(doc, name):
    config = require(doc, "config", dict, name)
    for field in ("messages", "rsa_bits"):
        require(config, field, int, f"{name}.config")

    results = require(doc, "results", list, name)
    if not results:
        raise SchemaError(f"{name}: empty results array")
    for i, result in enumerate(results):
        where = f"{name}.results[{i}]"
        require(result, "size_bytes", int, where)
        for field in ("base_ms_mean", "adlp_ms_mean"):
            value = require(result, field, (int, float), where)
            if value <= 0:
                raise SchemaError(
                    f"{where}: '{field}' must be positive, got {value}"
                )

    gate = require(doc, "gate", dict, name)
    if not require(gate, "adlp_above_base", bool, f"{name}.gate"):
        raise SchemaError(f"{name}.gate: ADLP is not above Base at every size")
    if not require(gate, "gap_grows_to_image", bool, f"{name}.gate"):
        raise SchemaError(
            f"{name}.gate: the ADLP - Base gap at Image size does not "
            f"exceed the gap at 16 B"
        )
    if not require(doc, "fig13_ok", bool, name):
        raise SchemaError(f"{name}: fig13_ok is false")


# Schema name -> (row key fields, gated metrics). Each metric is
# (field, direction): "up" = higher is better, "down" = lower is better.
COMPARE_SPECS = {
    "audit_bench": (("threads",), (("entries_per_sec", "up"),)),
    "obs_bench": (("name",), (("ns_per_record", "down"),)),
    "scale_bench": (("subs", "mode"), (("deliveries_per_sec", "up"),)),
    # Detection-latency absolutes are machine-dependent; the latency *ratio*
    # is gated in-run by the bench itself, so only throughput regresses here.
    "streaming_bench": (("mode",), (("entries_per_sec", "up"),)),
    # Commit-latency absolutes are machine-dependent (they include localhost
    # TCP and thread scheduling); only committed throughput regresses.
    "replication_bench": (("replicas",), (("entries_per_sec", "up"),)),
    # Reconvergence absolutes include localhost TCP round trips and thread
    # scheduling; only verified-repair throughput regresses.
    "repair_bench": (("behind",), (("repair_records_per_sec", "up"),)),
    # Hash and sign costs move with the CPU's SHA extensions, hence the
    # sha_ni refusal in compare().
    "table1_crypto": (
        ("type",),
        (("hash_ms_mean", "down"), ("hash_sign_ms_mean", "down")),
    ),
    "fig13_latency": (("size_bytes",), (("adlp_ms_mean", "down"),)),
}

# When both rows carry the preferred variant of a metric, compare that
# instead: best-of-reps throughput is the low-noise estimate on shared
# runners (contention only ever inflates samples), while the mean of a few
# repetitions can swing past any reasonable tolerance on a preempted box.
# Baselines recorded before the field existed fall back to the mean.
PREFERRED_FIELDS = {
    "entries_per_sec": "entries_per_sec_best",
    "repair_records_per_sec": "repair_records_per_sec_best",
}


def compare(doc, baseline, kind, name, base_name, max_regress):
    key_fields, metrics = COMPARE_SPECS[kind]

    cur_hw = doc.get("hardware")
    base_hw = baseline.get("hardware")
    for label, hardware in ((name, cur_hw), (base_name, base_hw)):
        if hardware is None:
            print(f"{label}: hardware unknown (no hardware stamp)")
    if cur_hw is not None and base_hw is not None:
        if cur_hw["sha_ni"] != base_hw["sha_ni"]:
            raise SchemaError(
                f"{name} has sha_ni={json.dumps(cur_hw['sha_ni'])} but "
                f"{base_name} has sha_ni={json.dumps(base_hw['sha_ni'])}; "
                f"compare like with like"
            )

    if kind == "audit_bench":
        cur_alg = doc.get("config", {}).get("alg")
        base_alg = baseline.get("config", {}).get("alg")
        if cur_alg != base_alg:
            raise SchemaError(
                f"{name} is alg={cur_alg} but {base_name} is "
                f"alg={base_alg}; compare like with like"
            )

    def rows_by_key(document, where):
        rows = {}
        for row in require(document, "results", list, where):
            rows[tuple(row.get(f) for f in key_fields)] = row
        return rows

    current = rows_by_key(doc, name)
    base = rows_by_key(baseline, base_name)
    failures = []
    for key, base_row in base.items():
        label = ",".join(f"{f}={v}" for f, v in zip(key_fields, key))
        if key not in current:
            failures.append(f"row ({label}) present in baseline but missing")
            continue
        for field, direction in metrics:
            preferred = PREFERRED_FIELDS.get(field)
            if (
                preferred is not None
                and isinstance(base_row.get(preferred), (int, float))
                and isinstance(current[key].get(preferred), (int, float))
            ):
                field = preferred
            base_value = base_row.get(field)
            cur_value = current[key].get(field)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue  # nothing meaningful to compare against
            if not isinstance(cur_value, (int, float)):
                failures.append(f"row ({label}): '{field}' missing")
                continue
            if direction == "up":
                regress = (base_value - cur_value) / base_value
            else:
                regress = (cur_value - base_value) / base_value
            if regress > max_regress:
                failures.append(
                    f"row ({label}): {field} regressed {regress:.1%} "
                    f"(baseline {base_value:g}, current {cur_value:g}, "
                    f"allowed {max_regress:.0%})"
                )
    if failures:
        raise SchemaError(
            f"{name} vs {base_name}: " + "; ".join(failures)
        )
    print(
        f"{name}: no regression vs {base_name} "
        f"({len(base)} rows, max {max_regress:.0%})"
    )


def load(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level is not an object")
    return doc


def check_doc(doc, path):
    """Validates `doc` and returns its recognised schema name."""
    check_hardware(doc, path)
    if "all_reports_identical" in doc:
        check_audit(doc, path)
        kind = "audit_bench"
    elif "within_budget" in doc:
        check_obs(doc, path)
        kind = "obs_bench"
    elif "scale_ok" in doc:
        check_scale(doc, path)
        kind = "scale_bench"
    elif "streaming_ok" in doc:
        check_streaming(doc, path)
        kind = "streaming_bench"
    elif "replication_ok" in doc:
        check_replication(doc, path)
        kind = "replication_bench"
    elif "repair_ok" in doc:
        check_repair(doc, path)
        kind = "repair_bench"
    elif "table1_ok" in doc:
        check_table1(doc, path)
        kind = "table1_crypto"
    elif "fig13_ok" in doc:
        check_fig13(doc, path)
        kind = "fig13_latency"
    else:
        raise SchemaError(f"{path}: unrecognised bench output")
    print(f"{path}: ok ({kind}, {len(doc['results'])} results)")
    return kind


def usage():
    print(__doc__.strip(), file=sys.stderr)
    return 2


def main(argv):
    files = []
    baseline_path = None
    max_regress = 0.15
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--compare":
            if i + 1 >= len(argv):
                return usage()
            baseline_path = argv[i + 1]
            i += 2
        elif arg == "--max-regress":
            if i + 1 >= len(argv):
                return usage()
            try:
                max_regress = float(argv[i + 1])
            except ValueError:
                return usage()
            if max_regress < 0:
                return usage()
            i += 2
        elif arg.startswith("-"):
            return usage()
        else:
            files.append(arg)
            i += 1
    if not files:
        return usage()
    if baseline_path is not None and len(files) != 1:
        print("--compare requires exactly one FILE", file=sys.stderr)
        return 2

    failed = False
    for path in files:
        try:
            doc = load(path)
            kind = check_doc(doc, path)
            if baseline_path is not None:
                baseline = load(baseline_path)
                base_kind = check_doc(baseline, baseline_path)
                if base_kind != kind:
                    raise SchemaError(
                        f"{path} is {kind} but {baseline_path} is {base_kind}"
                    )
                compare(doc, baseline, kind, path, baseline_path, max_regress)
        except (OSError, json.JSONDecodeError, SchemaError) as err:
            print(f"FAIL {err}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
