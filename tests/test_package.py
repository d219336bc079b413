"""Where the package's public names and module dependencies come from."""

import os
import subprocess
import sys
from pathlib import Path

import lancaster_lab
from lancaster_lab import correlation, lancaster, orthopoly, quadrature, regression

MODULES = (correlation, lancaster, orthopoly, quadrature, regression)
SRC = Path(__file__).resolve().parents[1] / "src"


class TestPublicNames:
    def test_the_package_exports_the_union_of_the_modules_lists(self):
        names = [name for module in MODULES for name in module.__all__]
        assert len(names) == len(set(names))
        assert sorted(lancaster_lab.__all__) == sorted(names)
        assert "DegreeChecks" in lancaster_lab.__all__

    def test_each_name_is_the_modules_own_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(lancaster_lab, name) is getattr(module, name), f"{module.__name__}.{name}"


class TestCorrelationReadsOnlyTheJoint:
    def test_importing_correlation_leaves_the_model_module_unloaded(self):
        # the package's __init__ imports every module, so correlation is loaded
        # under a bare package object that runs no __init__
        code = (
            "import sys, types\n"
            f"package = types.ModuleType('lancaster_lab'); package.__path__ = [{str(SRC / 'lancaster_lab')!r}]\n"
            "sys.modules['lancaster_lab'] = package\n"
            "import lancaster_lab.correlation\n"
            "print(sorted(name for name in sys.modules if name.startswith('lancaster_lab')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "['lancaster_lab', 'lancaster_lab.correlation', 'lancaster_lab.quadrature']"
