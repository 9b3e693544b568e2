"""Self-tests of the benchmark: oracle, output checks, span tree, tracer.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys

import oracle
import run
import tracer


def _table_payload(max_g, route_names):
    rows = [{"g": g, "values": {r: str(oracle.alt_catalan(g)) for r in route_names},
             "agree": True} for g in range(max_g + 1)]
    return {"command": "table", "rows": rows, "checks": []}


def _verify_payload():
    checks = [{"name": name, "citation": "", "pass": True, "detail": ""}
              for name in oracle.VERIFY_CHECKS]
    return {"command": "verify", "rows": [], "checks": checks}


def _problems(payload, workload, code=0):
    check = run.WORKLOADS[workload][1]
    return run.judge(code, json.dumps(payload).encode(), b"", check)


def test_oracle_values():
    assert [oracle.alt_catalan(g) for g in range(6)] == [1, 0, 512, 32768, 3014656, 285212672]


def test_table_with_one_altered_value_fails():
    routes = ("closed", "coeff_form", "genfun", "lagrange")
    payload = _table_payload(16, routes)
    assert _problems(payload, "route_table") == []
    payload["rows"][9]["values"]["genfun"] = str(oracle.alt_catalan(9) + 1)
    assert _problems(payload, "route_table")


def test_table_missing_route_or_disagreement_fails():
    payload = _table_payload(50, ("closed",))
    assert _problems(payload, "schubert_deep")
    payload = _table_payload(50, ("closed", "schubert"))
    payload["rows"][3]["agree"] = False
    assert _problems(payload, "schubert_deep")


def test_verify_with_one_failed_check_fails():
    payload = _verify_payload()
    assert _problems(payload, "certify") == []
    payload["checks"][5]["pass"] = False
    assert _problems(payload, "certify")
    assert _problems(_verify_payload(), "certify", code=1)


def test_series_with_nonzero_even_index_fails():
    rows = [{"g": n, "values": {"genfun": "0" if n % 2 == 0 else str(oracle.alt_catalan(n // 2))},
             "agree": True} for n in range(102)]
    payload = {"command": "series", "rows": rows, "checks": []}
    assert _problems(payload, "series_deep") == []
    rows[40]["values"]["genfun"] = "1"
    assert _problems(payload, "series_deep")


def test_malformed_output_fails():
    check = run.WORKLOADS["certify"][1]
    assert run.judge(0, b"not json", b"", check)
    assert run.judge(0, b'{"command": "verify", "checks": [1]}', b"", check)
    assert run.judge(0, json.dumps(_verify_payload()).encode(), b"Traceback (most", check)


def test_self_times_on_a_synthetic_tree():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 2 [2, 3] is a child of 1.
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_traced_job_sees_rebound_names(tmp_path):
    spans_path = tmp_path / "spans.bin"
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "tracer.py"), str(spans_path), "7", "--",
         "table", "--max-g", "3", "--routes", "genfun,coeff_form", "--format", "json"],
        env=run.job_env(), cwd=run.ROOT, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert oracle.check_table(json.loads(done.stdout), 3, ("genfun", "coeff_form")) == []
    spans = tracer.load_spans(str(spans_path))
    assert spans["job"] == 7 and spans["exit"] == 0
    metrics = tracer.layer_metrics(spans)
    # routes calls binomial_series and series_sqrt through its own bindings.
    assert metrics["series.binomial.self_s"] > 0
    assert metrics["combinat.binom_gen.calls"] > 0
    assert metrics["cli.emit.self_s"] > 0
    # Two series routes, g = 0..3: 8 values read off expansions of 2g+2 terms.
    assert metrics["routes.coeff_yield"] == 8 / (2 * (2 + 4 + 6 + 8))
    assert all(metrics[layer + ".errors"] == 0 for layer in tracer.LAYERS)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
