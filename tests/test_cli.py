import json
from io import StringIO

from toricsat.cli import SCHEMA_VERSION, canonical_json, execute, run


def invoke(*argv):
    buf = StringIO()
    code = run(list(argv), stdout=buf)
    return code, buf.getvalue()


def test_saturate_curve_text():
    code, out = invoke("saturate", "curve", "--supports", "6;9,11;9,11")
    assert code == 0
    assert "characteristic exponents: 6 9 11" in out
    assert "parametrization: tau -> (tau^6, tau^9, tau^11, tau^13, tau^14, tau^16)" in out


def test_saturate_hypersurface_json():
    code, out = invoke(
        "saturate", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["multiplicity"] == 5
    assert result["embedding_dimension"] == 6
    assert sorted(map(tuple, result["min_gens"])) == sorted(
        [(1, 0), (3, 11), (3, 12), (3, 13), (3, 14), (0, 5)]
    )
    assert result["T_saturation_min_gens"] == [5, 11, 12, 13, 14]


def test_saturate_product():
    code, out = invoke(
        "saturate", "product", "--supports", "4;6;7", "--supports", "6;9,11;9,11", "--json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["multiplicity"] == 24
    assert result["embedding_dimension"] == 10


def test_saturate_triple_product():
    code, out = invoke(
        "saturate", "product", "--supports", "2;3", "--supports", "2;3", "--supports", "1",
        "--json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["multiplicity"] == 4
    assert result["embedding_dimension"] == 5
    assert sorted(map(tuple, result["min_gens"])) == [
        (0, 0, 1), (0, 2, 0), (0, 3, 0), (2, 0, 0), (3, 0, 0),
    ]


def test_json_round_trip_is_byte_identical():
    for argv in (
        ["saturate", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5", "--json"],
        ["saturate", "curve", "--supports", "6;9,11;9,11", "--json"],
        ["semigroup", "hull", "--gens", "1,0;1,1;0,2", "--json"],
        ["ideal", "kernel", "--gens", "1,0;3,11;0,5", "--json"],
        ["certify", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5",
         "--point", "0,7", "--json"],
    ):
        code, out = invoke(*argv)
        assert code == 0
        doc = json.loads(out)
        redo = canonical_json(
            {"schema_version": SCHEMA_VERSION, "input": doc["input"], "result": execute(doc["input"])}
        )
        assert redo == out


def test_semigroup_ops():
    assert invoke("semigroup", "contains", "--gens", "5;11", "--point", "16")[1] == "contains: true\n"
    assert invoke("semigroup", "contains", "--gens", "5;11", "--point", "13")[1] == "contains: false\n"
    code, out = invoke("semigroup", "gaps", "--gens", "5;11", "--json")
    gaps = json.loads(out)["result"]["gaps"]
    assert len(gaps) == 20 and max(gaps) == 39
    code, out = invoke("semigroup", "mingens", "--gens", "1,0;1,1;0,2;2,1", "--json")
    assert sorted(map(tuple, json.loads(out)["result"]["min_gens"])) == [(0, 2), (1, 0), (1, 1)]
    assert json.loads(invoke("semigroup", "mult", "--gens", "1,0;3,5;0,11", "--json")[1])["result"][
        "multiplicity"
    ] == 11
    code, out = invoke("semigroup", "hull", "--gens", "1,0;1,1;0,2", "--json")
    res = json.loads(out)["result"]
    assert res["normalized_volume"] == 2
    assert res["outside_points"] == [[0, 1]]


def test_certify_and_verify_flow(tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out = invoke(
        "certify", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5",
        "--point", "0,7", "--json", "--out", str(cert_path)
    )
    assert code == 0
    doc = json.loads(out)
    cert = doc["result"]["certificate"]
    assert (cert["ord_target"], cert["ord_ideal"], cert["verdict"]) == (7, 8, True)
    assert json.loads(cert_path.read_text()) == doc

    standalone = tmp_path / "standalone.json"
    standalone.write_text(json.dumps(cert))
    code, out = invoke("certify", "verify", "--in", str(standalone), "--json")
    assert code == 0
    assert json.loads(out)["result"]["valid"] is True

    # tampering is detected and exits nonzero
    cert["ord_ideal"] = 9
    standalone.write_text(json.dumps(cert))
    code, out = invoke("certify", "verify", "--in", str(standalone), "--json")
    assert code == 1
    assert json.loads(out)["result"]["valid"] is False


def test_certify_member_point():
    code, out = invoke(
        "certify", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5",
        "--point", "5,10", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["member"] is True


def test_certify_wu():
    code, out = invoke("certify", "wu", "--r", "5", "--json")
    cert = json.loads(out)["result"]["certificate"]
    assert (cert["ord_target"], cert["ord_ideal"], cert["verdict"]) == (5, 6, True)


def test_ideal_ops():
    code, out = invoke("ideal", "kernel", "--gens", "1,0;3,11;0,5", "--json")
    assert json.loads(out)["result"]["basis"] == [[15, -5, 11]]
    code, out = invoke("ideal", "generators", "--gens", "1,0;1,1;0,2", "--degree-bound", "4", "--json")
    assert json.loads(out)["result"]["binomials"] == [[[2, 0, 1], [0, 2, 0]]]
    code, out = invoke(
        "ideal", "verify", "--gens", "1,0;1,1;0,2", "--binomial", "2,0,1:0,2,0", "--json"
    )
    assert json.loads(out)["result"]["vanishing"] is True


def test_exit_codes():
    # invalid input: gcd(beta, N) > 1
    code, out = invoke("saturate", "hypersurface", "--alpha", "3", "--beta", "10", "--bigN", "5")
    assert code == 1 and "InvalidSpec" in out
    # invalid input: malformed vector text
    assert invoke("semigroup", "mult", "--gens", "1,x")[0] == 1
    # unsupported: no generator on an axis, hull complement unbounded
    assert invoke("semigroup", "hull", "--gens", "1,1;2,3")[0] == 2
    # unsupported: the hull table over the bounded complement exceeds the cell budget
    assert invoke("semigroup", "hull", "--gens", "1,0;0,1000000000")[0] == 2
    # unsupported: dimension 3 multiplicity
    assert invoke("semigroup", "mult", "--gens", "1,0,0;0,1,0;0,0,1")[0] == 2
    # argparse failures map to invalid input
    assert invoke("saturate", "hypersurface", "--alpha", "3")[0] == 1
    # error objects are machine readable in json mode
    code, out = invoke(
        "saturate", "hypersurface", "--alpha", "3", "--beta", "10", "--bigN", "5", "--json"
    )
    err = json.loads(out)["error"]
    assert (code, err["exit_code"], err["type"]) == (1, 1, "InvalidSpec")


def test_malformed_inputs_exit_1(tmp_path):
    assert invoke("saturate", "curve", "--supports", "0")[0] == 1
    assert invoke("saturate", "curve", "--supports", "4;6;8")[0] == 1  # gcd 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert invoke("certify", "verify", "--in", str(garbage))[0] == 1
    garbage.write_text("{}")
    assert invoke("certify", "verify", "--in", str(garbage))[0] == 1
    assert invoke("certify", "verify", "--in", str(tmp_path / "missing.json"))[0] == 1
    assert invoke("semigroup", "gaps", "--gens", "1,0;0,1")[0] == 1


def test_self_check_violation_exits_3(monkeypatch):
    from toricsat import lipsat

    real = lipsat.hyp_min_generators

    def corrupted(spec, box=None):
        good = real(spec, box=box)
        return lipsat.SaturationResult(
            semigroup=good.semigroup,
            min_gens=good.min_gens,
            multiplicity=good.multiplicity + 1,
            embedding_dimension=good.embedding_dimension,
            parametrization=good.parametrization,
        )

    monkeypatch.setattr(lipsat, "hyp_min_generators", corrupted)
    code, out = invoke(
        "saturate", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5", "--json"
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "SelfCheckFailed"


def test_box_override():
    code, out = invoke(
        "saturate", "hypersurface", "--alpha", "3", "--beta", "11", "--bigN", "5",
        "--box", "12x60", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["validation_box"] == [12, 60]


def _verify_blob(tmp_path, cert):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    return invoke("certify", "verify", "--in", str(path), "--json")


def test_tampered_huge_target_exponent_is_invalid(tmp_path):
    # a certificate as the benchmark pool emits it: an interior arc at alpha = 10
    code, out = invoke(
        "certify", "hypersurface", "--alpha", "10", "--beta", "11", "--bigN", "5",
        "--point", "7,3", "--json"
    )
    assert code == 0
    cert = json.loads(out)["result"]["certificate"]
    cert["target"] = [10**5, cert["target"][1]]
    code, out = _verify_blob(tmp_path, cert)
    assert code == 1
    assert json.loads(out)["result"]["valid"] is False


def _identity_arc_certificate(order, target):
    coord = [[1, ["1"] + ["0"] * (order - 2)], [2, ["1"] + ["0"] * (order - 2)]]
    return {
        "schema_version": 1,
        "cyclotomic_order": order,
        "ideal": [[1, 0], [0, 1]],
        "arc": {"x1": coord, "x2": coord, "y1": coord, "y2": coord},
        "target": target,
        "ord_target": None,
        "ord_ideal": None,
        "verdict": False,
    }


def test_hostile_certificates_exit_2_with_a_message(tmp_path, capsys):
    from toricsat.cyclotomic import MAX_CYCLOTOMIC_ORDER, MAX_SERIES_TERMS

    # x1 = y1 = t + t^2: the target's pullback is identically zero, and
    # proving so would expand a dense series of a million terms
    code, out = _verify_blob(tmp_path, _identity_arc_certificate(3, [10**6, 0]))
    err = json.loads(out)["error"]
    assert (code, err["exit_code"], err["type"]) == (2, 2, "BudgetExceeded")
    assert f"at most {MAX_SERIES_TERMS} allowed" in err["message"]

    cert = _identity_arc_certificate(3, [1, 0])
    cert["cyclotomic_order"] = 100000
    code, out = _verify_blob(tmp_path, cert)
    err = json.loads(out)["error"]
    assert (code, err["exit_code"], err["type"]) == (2, 2, "BudgetExceeded")
    assert err["message"] == (
        f"cyclotomic order 100000 requested, at most {MAX_CYCLOTOMIC_ORDER} allowed"
    )
    assert "Traceback" not in capsys.readouterr().err


def test_numerical_budget_exits_2_with_a_message(capsys):
    from toricsat.numsg import _BUDGET

    cases = [
        (("saturate", "curve", "--supports", "10000;10001"), 10000 * 10000),
        (("saturate", "curve", "--supports", "2;1000000001"), 2 * 10**9 + 2),
        (("semigroup", "gaps", "--gens", "1000000000;1000000001"), 2 * 10**9),
    ]
    for argv, requested in cases:
        code, out = invoke(*argv, "--json")
        err = json.loads(out)["error"]
        assert (code, err["exit_code"], err["type"]) == (2, 2, "BudgetExceeded")
        assert err["message"].endswith(f"{requested} requested, at most {_BUDGET} allowed")
    assert "Traceback" not in capsys.readouterr().err


def test_interpreter_limits_exit_2_with_a_message(monkeypatch, capsys):
    from toricsat import lipsat

    for exc_type in (MemoryError, RecursionError):

        def exhausted(curve, exc_type=exc_type):
            raise exc_type()

        monkeypatch.setattr(lipsat, "saturate_curve", exhausted)
        code, out = invoke("saturate", "curve", "--supports", "2;3", "--json")
        err = json.loads(out)["error"]
        assert (code, err["exit_code"], err["type"]) == (2, 2, exc_type.__name__)
        assert err["message"]
        code, out = invoke("saturate", "curve", "--supports", "2;3")
        assert code == 2 and out.startswith(f"error ({exc_type.__name__}): ")
    assert "Traceback" not in capsys.readouterr().err
