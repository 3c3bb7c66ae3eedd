"""README's python examples run as written, against the package as it is."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(capsys):
    # the bare-mode block reads the spec and run of "Python API", and the step-by-step block its p and d
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    api, bare, steps = (next(b for b in blocks if marker in b)
                        for marker in ("run_protocol(spec)", "final_state.dense()", "ProtocolStep("))
    namespace = {}
    for block in (api, bare, steps):
        exec(compile(block, str(README), "exec"), namespace)
    rho = namespace["rho"]
    np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=1e-12)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert capsys.readouterr().out.splitlines()[-1] == "[('b1', 'g'), ('b2', 'h')]"
