"""Guard on the public surface: the library names and CLI subcommands that
users rely on, and every attribute the benchmark's tracer swaps."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import secbeam
from secbeam import beamform, cli, moments, montecarlo, planner

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"cli": cli, "planner": planner, "moments": moments,
           "montecarlo": montecarlo, "beamform": beamform}


def traced_attributes() -> dict:
    """TRACED of the tracer module, loaded from its file (it imports only
    the standard library); the mapping is read, never changed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_public_names_exported():
    for name in ("plan", "validate_plan", "estimate_outage", "run_trial",
                 "NetworkConfig", "SecrecyTarget", "Plan", "InfeasiblePlanError"):
        assert name in secbeam.__all__, name
        assert callable(getattr(secbeam, name)), name


#: each subcommand's options and positionals; a new or dropped knob is a
#: deliberate edit here
CLI_FLAGS = {
    "plan": ["-h", "--help", "--rate", "--outage", "--rho", "--kappa", "--power",
             "--mu", "--gamma", "--dtr", "--nlegit", "--out"],
    "simulate": ["-h", "--help", "--plan", "--trials", "--seed", "--csv", "--json"],
    "verify": ["what", "-h", "--help", "--mu", "--nr", "--samples", "--seed",
               "--plan", "--instances"],
    "sweep": ["-h", "--help", "--rate", "--outage", "--rho", "--kappa", "--power",
              "--mu", "--gamma", "--dtr", "--lambda-l", "--log", "--out"],
}


def test_cli_subcommands():
    parser = cli.build_parser()
    subs = [a for a in parser._actions if a.dest == "command"]
    assert len(subs) == 1
    assert set(subs[0].choices) == set(CLI_FLAGS)


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_cli_flags_frozen(command):
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command").choices[command]
    positionals = [a.dest for a in sub._actions if not a.option_strings]
    options = [s for a in sub._actions for s in a.option_strings]
    assert positionals + options == CLI_FLAGS[command]


@pytest.mark.parametrize("layer,attr", [
    (layer, attr) for layer, attrs in traced_attributes().items() for attr in attrs])
def test_traced_attribute_resolves(layer, attr):
    assert callable(getattr(MODULES[layer], attr))


def test_traced_realization_counts():
    # the tracer's notes read these counts from what sample_realization
    # returns and from received_powers' first argument
    plan = planner.Plan(a_l=1.0, a_l_raw=2.0, a_e=3.0, n_r=20,
                        lambda_l_min=50.0, lambda_e_max=0.05, n_e_max=10,
                        eta=1.0, nu=20.0 ** 0.5, eps_prime=0.05,
                        mode="beamforming")
    cfg = secbeam.NetworkConfig(p_t=1.0, mu=0.5, gamma=2.0, d_tr=5.0,
                                lambda_l=50.0, lambda_e=0.05, n_legit=5000)
    realization, _ = montecarlo.sample_realization(
        plan, cfg, np.random.default_rng(0))
    assert type(realization.n_relays) is int and realization.n_relays > 0
    assert type(realization.n_eaves) is int and realization.n_eaves > 0


@pytest.mark.parametrize("qualname,leading", [
    # the tracer reads these arguments by position
    ("montecarlo.verify_power_bounds", ["plan", "cfg", "n_samples"]),
    ("montecarlo._sample_powers_nopath", ["mu", "n_r", "n_samples"]),
    ("beamform.received_powers", ["realization"]),
    ("planner.nu_constant", ["mu"]),
    ("moments.var_pl_nopath", ["n_r", "mu"]),
])
def test_traced_positional_signature(qualname, leading):
    layer, attr = qualname.split(".")
    params = list(inspect.signature(getattr(MODULES[layer], attr)).parameters)
    assert params[:len(leading)] == leading
