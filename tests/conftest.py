import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no per-example time limit on a
    # loaded machine
    settings.register_profile("elicitrec", derandomize=True, deadline=None, database=None)
    settings.load_profile("elicitrec")

from elicitrec.data_model import (
    Dataset,
    FeatureSchema,
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    SyntheticSpec,
    generate_synthetic,
)


@pytest.fixture(scope="session")
def skewed_dataset() -> Dataset:
    """Heavily skewed synthetic data: 282 majority / 41 minority
    (ratio 6.9), 27 features of which 6 carry signal."""
    spec = SyntheticSpec(n_majority=282, n_minority=41, p=27, n_informative=6, seed=7)
    return generate_synthetic(spec)


def make_dataset(X, y, roles=None, levels=None, synthetic=None, names=None) -> Dataset:
    """Small-fixture helper: wrap arrays in a Dataset with generated names."""
    X = np.asarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    p = X.shape[1]
    roles = roles or [ROLE_CONTEXT] * p
    names = names or [f"f{j}" for j in range(p)]
    schema = []
    for j in range(p):
        n_levels = levels[j] if levels is not None else int(X[:, j].max()) + 1
        schema.append(
            FeatureSchema(names[j], roles[j], tuple(f"v{i}" for i in range(n_levels)))
        )
    return Dataset(
        schema=tuple(schema),
        target_name="target",
        X=X,
        y=y,
        synthetic=synthetic if synthetic is not None else np.zeros(len(y), dtype=bool),
    )


def xor_dataset(n_per_class: int = 200, seed: int = 5) -> Dataset:
    """Fixture where the signal hides from a means-based scorer.

    Feature 0 is a 4-level carrier whose codes {1,2} mean class 1 and
    {0,3} mean class 0; both class groups have mean code 1.5, so the
    ANOVA F score is exactly 0 while chi-squared and mutual information
    are maximal. Feature 1 is a noisy copy of the target (all methods see
    it), feature 2 a noisier copy, and the rest independent noise.
    """
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    y = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    carrier = np.array([0, 3] * (n_per_class // 2) + [1, 2] * (n_per_class // 2))
    strong = np.where(rng.random(n) < 0.25, 1 - y, y)
    weak = np.where(rng.random(n) < 0.40, 1 - y, y)
    noise = rng.integers(0, 4, size=(n, 3))
    X = np.column_stack([carrier, strong, weak, noise])
    perm = rng.permutation(n)
    roles = [ROLE_CONTEXT, ROLE_CONTEXT, ROLE_TECHNIQUE, ROLE_CONTEXT, ROLE_TECHNIQUE, ROLE_CONTEXT]
    names = ["carrier", "strong", "weak", "noise0", "noise1", "noise2"]
    return make_dataset(
        X[perm], y[perm], roles=roles, levels=[4, 2, 2, 4, 4, 4], names=names
    )


def interviews_score_table():
    """Reference importance scores for an Interviews target, as a
    MutualInfo-tagged table (the method label is immaterial here)."""
    from elicitrec.feature_scoring import FeatureScoreTable, ScoreEntry

    rows = [
        ("Project Size", ROLE_CONTEXT, 0.3),
        ("Experience", ROLE_CONTEXT, 0.28),
        ("WoW", ROLE_CONTEXT, 0.27),
        ("Prototyping", ROLE_TECHNIQUE, 0.25),
        ("Project Category", ROLE_CONTEXT, 0.23),
        ("Company Type", ROLE_CONTEXT, 0.21),
        ("Process analysis", ROLE_TECHNIQUE, 0.19),
        ("Company Size", ROLE_CONTEXT, 0.18),
        ("Industrial Sector", ROLE_CONTEXT, 0.18),
        ("Interface analysis", ROLE_TECHNIQUE, 0.17),
        ("Brainstorming", ROLE_TECHNIQUE, 0.16),
        ("Observations", ROLE_TECHNIQUE, 0.16),
        ("Business rules analysis", ROLE_TECHNIQUE, 0.15),
        ("Workshops and focus groups", ROLE_TECHNIQUE, 0.15),
        ("Document analysis", ROLE_TECHNIQUE, 0.14),
        ("Reuse database and guidelines", ROLE_TECHNIQUE, 0.14),
        ("Stakeholders list, map or Personas", ROLE_TECHNIQUE, 0.13),
        ("System/Service Class", ROLE_CONTEXT, 0.13),
        ("Team Distribution", ROLE_CONTEXT, 0.13),
        ("BA Only Role", ROLE_CONTEXT, 0.13),
        ("Data mining", ROLE_TECHNIQUE, 0.11),
        ("Survey or Questionnaire", ROLE_TECHNIQUE, 0.12),
        ("Benchmarking and Market Analysis", ROLE_TECHNIQUE, 0.11),
        ("Certified", ROLE_CONTEXT, 0.09),
        ("Design Thinking", ROLE_TECHNIQUE, 0.08),
        ("Collaborative games", ROLE_TECHNIQUE, 0.06),
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return FeatureScoreTable(
        entries=tuple(ScoreEntry(n, r, s) for n, r, s in rows),
    )
