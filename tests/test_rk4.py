"""The compiled RK4 kernel's loader: its build cache, its check and its Python fallback."""

import dataclasses
import subprocess
from pathlib import Path

import numpy as np
import pytest

from magsat import _rk4, dynamics
from magsat.scenario import load_config, run_scenario

needs_compiler = pytest.mark.skipif(
    _rk4.library is None, reason=f"the compiled RK4 kernel did not load: {_rk4.error}"
)


@pytest.fixture
def restore_kernel(monkeypatch):
    """The kernel that loaded at import is put back after the test, whatever `load` set."""
    for name in ("rollout", "sensitivity", "library", "error"):
        monkeypatch.setattr(_rk4, name, getattr(_rk4, name))


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch, restore_kernel):
    """An empty build cache and a copy of the kernel source to edit."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = tmp_path / "_rk4.c"
    source.write_bytes(Path(_rk4._SOURCE).read_bytes())
    monkeypatch.setattr(_rk4, "_SOURCE", source)
    return source


@pytest.fixture
def compiles(monkeypatch):
    """The compiler commands that `_rk4` runs, in order."""
    commands = []
    run = subprocess.run

    def counted(command, *args, **kwargs):
        commands.append(command)
        return run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return commands


@needs_compiler
def test_a_build_is_compiled_once_and_then_loaded_from_the_cache(fresh_cache, compiles, tmp_path):
    _rk4.load(dynamics._rk4_rollout)
    assert _rk4.error is None and _rk4.rollout is not dynamics._rk4_rollout
    assert _rk4.sensitivity is not _rk4.reference_sensitivity
    built = Path(_rk4.library)
    assert built.parent == tmp_path / "cache" / "magsat" and len(compiles) == 1
    assert "-ffp-contract=off" in compiles[0] and not any("march" in a for a in compiles[0])
    _rk4.load(dynamics._rk4_rollout)
    assert _rk4.library == str(built) and len(compiles) == 1
    # the build was renamed into place: no temporary file or directory is left
    assert sorted(p.suffix for p in built.parent.iterdir()) == [".lock", ".so"]


# each rollout edit rounds one value of one stage differently from the Python
# kernel: a reassociated sum, a negated sum that flips the sign of an exact
# zero (only the check's signed-zero draws see it), a tape record holding the
# wrong stage (only its taped draws) and a zero norm that stays finite (only
# its diverging draw). Each Jacobian edit is one operation: a reassociated
# inner sum of dv/dq, and the renormalization's divide by |q| turned into a
# multiply by its reciprocal
MUTANTS = {
    "reassociated": ("(((xx - yy) - zz) + ww) * bx", "((xx - yy) - (zz - ww)) * bx", "kernel"),
    "signed-zero": ("(((-y[0]) * y[4]) - (y[1] * y[5])) - (y[2] * y[6])",
                    "-(((y[0] * y[4]) + (y[1] * y[5])) + (y[2] * y[6]))", "kernel"),
    "tape": ("memcpy(tape + 21, xc, sizeof xc)", "memcpy(tape + 21, xb, sizeof xb)", "kernel"),
    "zero-norm": ("norm = NAN;", "norm = 1.0;", "kernel"),
    "jacobian-reassociated": ("d[0][1] = (((-q2) * bx2) + (q1 * by2)) - (q4 * bz2);",
                              "d[0][1] = ((-q2) * bx2) + ((q1 * by2) - (q4 * bz2));", "Jacobian"),
    "jacobian-reciprocal": ("(phi[10 * i + j] - n[i] * dot[j]) / norm;",
                            "(phi[10 * i + j] - n[i] * dot[j]) * (1.0 / norm);", "Jacobian"),
}


@needs_compiler
@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_build_that_fails_the_check_is_never_used(fresh_cache, compiles, mutant):
    old, new, function = MUTANTS[mutant]
    text = fresh_cache.read_text()
    assert text.count(old) == 1
    fresh_cache.write_text(text.replace(old, new))
    _rk4.load(dynamics._rk4_rollout)
    assert len(compiles) == 1 and f"differs from the Python {function}" in _rk4.error
    assert _rk4.rollout is dynamics._rk4_rollout and _rk4.library is None
    assert _rk4.sensitivity is _rk4.reference_sensitivity


@needs_compiler
def test_the_compiled_jacobian_refuses_inputs_that_are_not_one_rollouts():
    # the C code reads p dipoles, p fields and p * substeps records: a
    # shorter buffer is refused before it is read past its end
    m = b = np.zeros((2, 3))
    tape = []
    dynamics.integrate(np.array([0.0, 0.0, 0.0, 1.0, 0.01, 0.0, 0.0]), m, b, (1.0, 1.0, 1.0),
                       2.0, 3, 0.0, tape)
    assert _rk4.sensitivity(tape, m, b, 2.0, (1.0, 1.0, 1.0)).shape == (14, 6)
    for args in ((tape, m, b[:1]), (tape[:5], m, b), (tape[:1], m, b), (tape, m[:, :2], b)):
        with pytest.raises(ValueError, match="not one rollout's"):
            _rk4.sensitivity(*args, 2.0, (1.0, 1.0, 1.0))


@needs_compiler
def test_a_failed_compile_is_kept_and_not_retried(fresh_cache, compiles):
    fresh_cache.write_text('#error "no kernel here"\n' + fresh_cache.read_text())
    for _ in range(2):
        _rk4.load(dynamics._rk4_rollout)
        assert _rk4.rollout is dynamics._rk4_rollout and _rk4.library is None
        assert _rk4.sensitivity is _rk4.reference_sensitivity
        assert "no kernel here" in _rk4.error
    assert len(compiles) == 1


def test_the_python_fallback_writes_the_same_csv_bytes(monkeypatch, restore_kernel):
    # the kernel that loaded runs a minute of detumble-paper and ten steps of
    # the fine-plant shape (horizon 1, an 800-substep plant); then the loader
    # finds no build, falls back to the Python kernel, and the same runs must
    # write the same bytes
    detumble = dataclasses.replace(load_config("detumble-paper"), duration=60.0)
    fine = dataclasses.replace(detumble, duration=20.0, substeps=800,
                               mpc=dataclasses.replace(detumble.mpc, horizon=1))
    loaded = [run_scenario(cfg).to_csv() for cfg in (detumble, fine)]

    def no_build():
        raise OSError("no C compiler")

    monkeypatch.setattr(_rk4, "_build", no_build)
    _rk4.load(dynamics._rk4_rollout)
    assert _rk4.rollout is dynamics._rk4_rollout and _rk4.error == "OSError: no C compiler"
    assert _rk4.sensitivity is _rk4.reference_sensitivity
    assert [run_scenario(cfg).to_csv() for cfg in (detumble, fine)] == loaded
