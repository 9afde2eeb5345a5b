"""The package namespace: the public names, their home modules, lazy loading."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumrank

PACKAGE = Path(sumrank.__file__).parent
PUBLIC = """
ANTICODE_CAP AnticodeDescriptor BlockSupport CosetWitness CoverResult DIST_CAP
FieldContext GROUP_CAP GammaBasis InvariantViolation Isometry
LinearCode MAX_ORDER MI_CAP MatrixFq MatrixTuple MeshulamResult MsrdReport
SearchExhausted Shape Subspace SumrankError UsageError VARIANTS WeightProfile
WiretapScenario admissible_permutations admissible_ranks anticode_dim_extremes
anticode_dual canonical_complement coset_rank_lower coset_witness_exact
count_subspaces covering_number dim_decomposition distance_decomposition
empirical_mi enumerate_anticodes enumerate_subspaces equivalent_codes
extension_context field_from_dict gamma_expand gaussian_binomial gen_weight
gl_group gl_order is_optimal_anticode isometry_count leading_position
leakage_dim leakage_threshold max_srk_generates meshulam_search msrd_check
msrd_weight_profile product_descriptors r_msrd_check
r_mu random_gl random_isometry singleton_distance_bound staircase_profile
subfield_embedding support_product threshold_table wei_duality_check
weight_profile worst_case_leakage
""".split()


def _defined_at_top_level(path):
    """Names a module binds itself at top level, not through an import."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_all_is_sorted_unique_and_unchanged():
    assert sumrank.__all__ == sorted(set(sumrank.__all__))
    assert sumrank.__all__ == PUBLIC


def test_public_names_are_their_home_modules_objects():
    defined = {
        path.stem: _defined_at_top_level(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    for name in PUBLIC:
        homes = [module for module, names in defined.items() if name in names]
        assert len(homes) == 1, (name, homes)
        home = importlib.import_module(f"sumrank.{homes[0]}")
        assert getattr(sumrank, name) is getattr(home, name), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from sumrank import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) | {"cli", "isom", "matfq"} <= set(dir(sumrank))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sumrank.no_such_name
    assert not hasattr(sumrank, "weight_profiles")


def test_fresh_import_is_lazy_and_submodules_resolve():
    script = (
        "import sys, sumrank\n"
        "print(sorted(m for m in sys.modules if m.startswith('sumrank')))\n"
        "print(sumrank.isom.gl_order(2, 2), sumrank.matfq.MatrixFq.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['sumrank']", "6 MatrixFq"]


def test_package_exports_are_in_their_modules_all():
    # the package namespace and each module's own public list name the same API
    for module, names in sumrank._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"sumrank.{module}").__all__)
        assert not missing, (module, sorted(missing))
