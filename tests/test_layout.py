"""Names and calls that must not come back to ``src/``.

Each case is a line-by-line regular-expression search of the package
source, standard library only; a hit fails with the file, line and the
case's message.
"""
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# id: (files searched under src/, pattern, message)
GUARDS = {
    # scipy.linalg runs on scipy's own OpenBLAS; the numpy call after it
    # waits for the CPUs that scipy's thread pool still holds.
    "numpy_lapack_only": (
        "**/*.py", r"scipy\.linalg|from scipy import linalg",
        "src/ calls scipy.linalg; use numpy.linalg"),
    # require_regular raises InapplicableBoundError with the condition a
    # caller names; no caller catches its SingularMatrixError to rename it.
    "gate_names_the_premise": (
        "**/*", r"except SingularMatrixError as",
        "src/ re-raises SingularMatrixError; pass the condition to the gate"),
    # recover_solution(problem, x) takes the substitution from the LCP or
    # HLCP; no named convention is left to pass in its place.
    "problem_decides_recovery": (
        "**/*.py", r"\b(SHIFTED|HALVED|CONVENTIONS)\b",
        "src/ names a recovery convention; pass the problem to recover_solution"),
    # At B = 0, componentwise_bound is the classical componentwise bound
    # of A x = b; the textbook bounds and the shifted-norm slacks it was
    # checked against are references in tests/support.py.
    "test_references_stay_in_tests": (
        "**/*.py", r"\b(classical_linear_bounds|shifted_norm_slack)\b",
        "src/ defines or calls a test reference; keep it in tests/support.py"),
    # hlcp_perturb_bound returns general_relative_bound of hlcp_to_ave;
    # it takes no factor or coefficient of its own.
    "hlcp_bound_is_the_ave_report": (
        "avebounds/complementarity.py", r"\b(upper_factor|_relative_coefficient)\b",
        "complementarity.py computes a perturbation factor; call general_relative_bound"),
    # bounds._gap_factor reads both singular-value gaps; ESTIMATORS names
    # its two probes, sigma_n(A) - sigma_1(B) and sigma_1(A) - sigma_6(B).
    "one_gap_factor": (
        "**/*.py", r"\b(_singular_gap_factor|_partial_gap_factor)\b",
        "src/ defines a second gap factor; give bounds._gap_factor the ranks"),
    # A problem's A, B and b and every memoised array are read-only, so no
    # caller can edit what a problem and its analysis share.
    "shared_arrays_stay_read_only": (
        "**/*.py", r"\bwriteable\s*=\s*True|setflags\([^)]*write\s*=\s*True",
        "src/ makes an array writeable again; copy it instead"),
    # The sign-box floor reads one table of 2n line norms, core._line_norms;
    # no member's norms or split column sums are taken beside it.
    "one_sign_box_floor": (
        "avebounds/core.py", r"\b(low_squares|upper_squares)\b|np\.linalg\.norm\(stack",
        "core.py takes a second Hadamard floor; read core._line_norms"),
    # A single matrix's singular values are its SVD; the one eigvalsh of a
    # matrix itself is numerics.commuting_spectrum's, for a commuting pair.
    "one_symmetric_eigensolve": (
        "**/*.py", r"\b(symmetric_eigenvalues|commuting_shift)\b",
        "src/ brings back a second symmetric route; call numerics.commuting_spectrum"),
    # The premise rho(|K|) < 1 is numerics.contraction_certificate's, from
    # power steps or one solve; no inverse of I - |K| is formed to decide it.
    "premise_forms_no_inverse": (
        "**/*.py", r"\bcontraction_inverse\b",
        "src/ brings back contraction_inverse; call numerics.contraction_certificate"),
}


def _hits(pattern, files):
    found = []
    for path in sorted(SRC.glob(files)):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        text = path.read_bytes().decode("utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                found.append(f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}")
    return found


@pytest.mark.parametrize("files, pattern, message", GUARDS.values(), ids=list(GUARDS))
def test_source_guard(files, pattern, message):
    assert SRC.is_dir() and any(SRC.glob(files)), f"nothing to search: {SRC / files}"
    hits = _hits(pattern, files)
    assert not hits, message + "\n" + "\n".join(hits)


def test_eigensolvers_run_in_numerics_only():
    """Every ``eigvalsh``, ``svd`` and ``eigvals`` of the package runs in
    numerics.py, so each eigen route keeps one call site: the ``eigvalsh``
    of a commuting pair's A (``numerics.commuting_spectrum``) and of its
    I - |K| (``numerics.smallest_eigenvalue``), the Gram ``eigvalsh`` of a
    2-norm (``numerics.batched_norms``) and the ``svd`` of a singular
    spectrum (``numerics.singular_values``)."""
    numerics = str(Path("src", "avebounds", "numerics.py")) + ":"
    hits = [hit for hit in _hits(r"linalg\b.*\b(eigvalsh|svd|eigvals)\b", "**/*.py")
            if not hit.startswith(numerics)]
    assert not hits, "call eigvalsh, svd and eigvals through numerics\n" + "\n".join(hits)
