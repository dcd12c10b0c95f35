"""Shared model fixtures for the tests.

Unlike oracles.py, these are built with the library itself; they exist so
several test modules can construct the same reference models.
"""

import json
from fractions import Fraction
from importlib import resources

from bellgate.ontology import (
    EpistemicState,
    LocalHVModel,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    model_from_json,
    _all_bitstrings,
)
from bellgate.qubit import born_probability
from bellgate.scalar import ExactScalar, field, is_exact, sign


def load_bundled(name):
    """Parse one of the JSON models shipped inside the package."""
    text = resources.files("bellgate").joinpath("models", name).read_text()
    return json.loads(text)


def toy_two_setting_model():
    return model_from_json(load_bundled("toy_two_setting.json"))


def product_model(scenario):
    """Deterministic-cell model with independent per-measurement statistics.

    Cells are joint outcome assignments; each state weights cell bits by the
    product of its own Born probabilities.  Reproduces every single-state
    Born value but not, in general, the decomposition-equality property.
    """
    measurements = scenario.measurements
    cells = ["".join(str(b) for b in bits)
             for bits in _all_bitstrings(len(measurements))]
    sample = born_probability(scenario.states[0], measurements[0], 0)
    zero, _, one = field(is_exact(sample))
    responses = ResponseFunctions(table={
        meas.label: {cell: ((one, zero) if cell[k] == "0" else (zero, one))
                     for cell in cells}
        for k, meas in enumerate(measurements)})
    epistemics = {}
    for state in scenario.states:
        weights = {}
        for cell in cells:
            value = one
            for k, meas in enumerate(measurements):
                value = value * born_probability(state, meas, int(cell[k]))
            if sign(value) != 0:
                weights[cell] = value
        epistemics[state.label] = EpistemicState(weights=weights)
    return OntologicalModel(space=OnticSpace(cells=tuple(cells)),
                            epistemics=epistemics, responses=responses)


def uniform_lhv(settings):
    m = len(settings)
    share = ExactScalar.from_rational(Fraction(1, 4 ** m))
    bitstrings = list(_all_bitstrings(m))
    weights = {(a, b): share for a in bitstrings for b in bitstrings}
    return LocalHVModel(settings=tuple(settings), weights=weights)


def random_lhv(rng, settings, sparsity=0.5):
    """Random rational weights over the full strategy space."""
    m = len(settings)
    bitstrings = list(_all_bitstrings(m))
    raw = {}
    for a in bitstrings:
        for b in bitstrings:
            if rng.random() < sparsity:
                raw[(a, b)] = rng.randint(1, 20)
    if not raw:
        raw[(bitstrings[0], bitstrings[0])] = 1
    total = sum(raw.values())
    weights = {s: ExactScalar.from_rational(Fraction(n, total))
               for s, n in raw.items()}
    return LocalHVModel(settings=tuple(settings), weights=weights)


def random_balanced_diagonal_lhv(rng, settings):
    """Random diagonal LHV with fair per-setting marginals.

    Mass sits on strategies (s, s) and is split equally inside each
    antipodal pair (s, complement of s), so every setting's one-sided
    marginal is exactly 1/2.  These are the models the forward/reverse
    round trip is exact on.
    """
    m = len(settings)
    bitstrings = list(_all_bitstrings(m))
    pairs = []
    seen = set()
    for bits in bitstrings:
        flipped = tuple(1 - b for b in bits)
        if bits not in seen:
            pairs.append((bits, flipped))
            seen.add(bits)
            seen.add(flipped)
    raw = [rng.randint(0, 10) for _ in pairs]
    if sum(raw) == 0:
        raw[0] = 1
    total = 2 * sum(raw)
    weights = {}
    for (bits, flipped), n in zip(pairs, raw):
        if n == 0:
            continue
        share = ExactScalar.from_rational(Fraction(n, total))
        weights[(bits, bits)] = share
        weights[(flipped, flipped)] = share
    return LocalHVModel(settings=tuple(settings), weights=weights)
