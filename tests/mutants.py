"""Source mutants that the tests must catch.

Run from the repository root:

    python tests/mutants.py

Each entry names a file under ``src/upblab``, an exact text that occurs
once in it, the text that replaces it, and the pytest node ids that must
fail.  For each entry, ``src/``, ``tests/`` and ``pyproject.toml`` are
copied to a temporary directory and the text is replaced in the copy, whose
``pythonpath = ["src"]`` then points pytest at the mutated code.  The node
ids run there with ``-x -q``.  A mutant survives when they all pass.  The
survivors are listed, and the exit code is 1 if any survive or an entry
cannot be run.  ``src/`` itself is never edited.

``test_mutants_table.py`` checks, without running any mutant, that each old
text occurs exactly once and that each named test exists.  Code that moves
guarded text updates its entry in the same change.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/upblab
    old: str
    new: str
    node_ids: tuple


MUTANTS = (
    Mutant(
        "ProductSet skips its parties check",
        "product.py",
        "if any(m.parties != self.parties for m in self.members):",
        "if False:",
        ("tests/test_product.py::test_product_set_verifies_at_construction",),
    ),
    Mutant(
        "DensityOp skips the annihilation check",
        "states.py",
        "if bad is not None:",
        "if False:",
        (
            "tests/test_states.py::test_kernel_set_outside_the_kernel_cannot_be_attached",
            "tests/test_catalog.py::test_tampered_kernel_set_rejected",
        ),
    ),
    Mutant(
        "BlockSpec.__post_init__ returns early",
        "blocks.py",
        "        m = self.m\n        if m < 1:",
        "        return\n        m = self.m\n        if m < 1:",
        (
            "tests/test_blocks.py::test_invalid_spec_same_unordered_basis",
            "tests/test_blocks.py::test_invalid_spec_mismatched_spans",
        ),
    ),
    Mutant(
        "BlockSpec skips the zero-vector check",
        "blocks.py",
        "if any(all(x.is_zero() for x in v) for v in basis):",
        "if False:",
        (
            "tests/test_blocks.py::test_zero_tail_refused",
            "tests/test_cli.py::test_decompose_zero_tail_is_refuted",
        ),
    ),
    Mutant(
        "BlockSpec skips the block-orthogonality check",
        "blocks.py",
        "if not inner(u, w).is_zero():",
        "if False:",
        ("tests/test_blocks.py::test_overlapping_blocks_refused",),
    ),
    Mutant(
        "opb_to_blocks lets InvalidSpecError through",
        "blocks.py",
        "except InvalidSpecError as exc:",
        "except NotAnOPBError as exc:",
        (
            "tests/test_blocks.py::test_zero_tail_refused",
            "tests/test_cli.py::test_decompose_zero_tail_is_refuted",
        ),
    ),
    Mutant(
        "sample_template draws one bit too few",
        "search.py",
        "k = parties.bit_length()",
        "k = (parties - 1).bit_length()",
        ("tests/test_search.py::test_sampler_draws_the_randrange_stream",),
    ),
    Mutant(
        "the angle 3/4 gets the coordinates of 1/4",
        "qubits.py",
        "Fraction(3, 4): (-CQ1, CQ1),",
        "Fraction(3, 4): (CQ1, CQ1),",
        ("tests/test_qubits.py::test_exact_coordinates_exist_for_pairs_and_four_angles",),
    ),
    Mutant(
        "the peel skips its proportionality check",
        "entangle.py",
        "in zip(r0[c + 1:], r1[c + 1:]):",
        "in ():",
        ("tests/test_entangle.py::test_product_vector_from_flat_agrees_with_flattening_ranks",),
    ),
    Mutant(
        "catalog.load lets RecursionError through",
        "catalog.py",
        "except (ValueError, RecursionError) as exc:",
        "except ValueError as exc:",
        ("tests/test_cli.py::test_unreadable_json_exits_two[deep-nesting]",),
    ),
    Mutant(
        "ldl_hermitian runs each block's steps to the end before the next block's",
        "_kernels.py",
        "merged = sorted(",
        "merged = list(",
        ("tests/test_kernels.py::test_ldl_of_scattered_blocks_matches_fraction_reference",),
    ),
    Mutant(
        "ldl_hermitian reuses one elimination for blocks of the same size",
        "_kernels.py",
        """        run = runs.get(key)
        if run is None:
            run = runs[key] = _ldl_dense(key, len(idx))
""",
        """        run = runs.get(len(idx))
        if run is None:
            run = runs[len(idx)] = _ldl_dense(key, len(idx))
""",
        ("tests/test_kernels.py::test_ldl_of_scattered_blocks_matches_fraction_reference",),
    ),
    Mutant(
        "back substitution runs first step first",
        "_kernels.py",
        "for p, frow in reversed(steps):",
        "for p, frow in steps:",
        ("tests/test_linalg.py::test_kernel_basis_is_the_rref_basis",),
    ),
    Mutant(
        "a pivot coordinate is taken as free",
        "linalg.py",
        "pivots = {p for p, _ in cert.steps}",
        "pivots = {p for p, _ in cert.steps[1:]}",
        ("tests/test_linalg.py::test_kernel_basis_is_the_rref_basis",),
    ),
    Mutant(
        "ExactMatrix.scale keeps the Hermitian mark for every scalar",
        "linalg.py",
        'object.__setattr__(out, "_hermitian", self._hermitian and s.is_real())',
        'object.__setattr__(out, "_hermitian", self._hermitian)',
        ("tests/test_states.py::test_real_rescaling_keeps_the_hermitian_mark",),
    ),
    Mutant(
        "ppt_report keys a class on positions only, without values",
        "states.py",
        "tri[(u[i] + m[j]) * dim + u[j] + m[i]] == t for",
        "tri[(u[i] + m[j]) * dim + u[j] + m[i]] != CQ_ZERO for",
        (
            "tests/test_states.py::test_ppt_report_certificates_match_partial_transpose"
            "[rotated-6q-complement]",
        ),
    ),
    Mutant(
        "ppt_report gives every class the operator's own certificate",
        "states.py",
        "if all(tri[(u[i] + m[j]) * dim + u[j] + m[i]] == t for i, j, t in entries):",
        "if True:",
        (
            "tests/test_states.py::test_ppt_report_shares_certificates_of_equal_npt_transposes",
            "tests/test_states.py::"
            "test_certification_pipeline_eliminates_each_distinct_transpose_once",
        ),
    ),
    Mutant(
        "complement walk drops the forced diagonal slot",
        "states.py",
        "& (-1 << i * bits) | (1 << i * bits)",
        "& (-1 << i * bits)",
        ("tests/test_states.py::test_complement_of_three_basis_vectors_is_pure",),
    ),
    Mutant(
        "local memo keyed on the first coordinate only",
        "catalog.py",
        "return (kind, *value[0], *value[1])",
        "return (kind, *value[0])",
        ("tests/test_catalog.py::test_equal_locals_parse_to_one_object",),
    ),
    Mutant(
        "psd_certificate does not mark its matrix Hermitian",
        "linalg.py",
        'object.__setattr__(m, "_hermitian", True)',
        "pass",
        ("tests/test_states.py::test_hermiticity_is_checked_once_per_certified_operator",),
    ),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(m: Mutant) -> str:
    """"killed", "survived", or a reason the entry could not be run."""
    with tempfile.TemporaryDirectory(prefix="upblab-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        target = tmp / "src" / "upblab" / m.path
        text = target.read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            return f"old text occurs {text.count(m.old)} times in {m.path}"
        target.write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.node_ids],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
        )
    # pytest exits 1 when a test failed and 2 when collection broke; 4 and 5
    # mean a node id was not found or nothing ran
    if proc.returncode in (1, 2):
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    bad = []
    started = time.monotonic()
    for m in MUTANTS:
        t0 = time.monotonic()
        outcome = run_mutant(m)
        print(f"{outcome:<9} {m.name} ({time.monotonic() - t0:.1f}s)")
        if outcome != "killed":
            bad.append((m.name, outcome))
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed "
          f"in {time.monotonic() - started:.1f}s")
    for name, outcome in bad:
        print(f"  {outcome}: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
