"""`fingerprint.py` prints the same lines on every run, and a change of one
unit in the last place of a Potts penalty shows in its gradient lines."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mfnet.crf import CrfParams, theta0

SCRIPT = Path(__file__).with_name("fingerprint.py")
spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def test_two_runs_print_the_same_lines(tmp_path):
    saved = tmp_path / "saved.npz"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, str(SCRIPT), "--save", str(saved)], env=env,
                         capture_output=True, text=True, check=True)
    arts = fingerprint.artefacts()
    assert run.stdout.splitlines() == fingerprint.lines(arts)
    with np.load(saved) as f:
        against = {k: f[k] for k in f.files}
    assert all(line.endswith("  0") for line in fingerprint.lines(arts, against))


def test_a_perturbed_theta_changes_the_gradient_lines():
    theta = theta0()
    nudged = CrfParams(w=theta.w, p_h=np.nextafter(theta.p_h, 2.0), p_v=theta.p_v)
    arts = fingerprint.artefacts()
    before, after = fingerprint.lines(arts), fingerprint.lines(fingerprint.artefacts(nudged))
    changed = {name for name, b, a in zip(arts, before, after) if b != a}
    gradients = {name for name in arts if name.startswith(("hinge.", "kl."))}
    assert gradients and gradients <= changed
    assert not any(name.startswith(("compile.", "random.")) for name in changed)
