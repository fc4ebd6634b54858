"""Cross-check suites: every identity the library rests on, runnable
from the CLI (``verify --suite ...``) and mirrored by the acceptance tests.

Suites:

* ``burnside`` -- four-way agreement of the connected counts (two direct,
  two through the exp/log transform),
  exact dp/character-sum agreement, and the grading probe documenting why the
  character-sum series needs its lambda^(-d) shift and factorial weights;
* ``elsv`` -- seed reproduction, the genus-one forcing, and forward/backward
  round trips on fresh samples;
* ``grr`` -- fixed-point character identities for line bundles on the line
  and its cyclic covers;
* ``localization`` -- point-class integration and the full symbolic
  re-derivation, including u-independence;
* ``string`` -- the string-equation consistency pass over inverted tables.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import islice
from math import factorial

from .errors import DomainError
from .hodge import (
    HodgeTable,
    elsv_evaluate,
    elsv_inversion,
    sample_candidates,
    string_equation_check,
)
from .hurwitz import (
    connected_dfs,
    connected_dp,
    connected_via_transform,
    disconnected_burnside,
    disconnected_dp,
    phi_series,
)
from .eqcoh import (
    EquivariantPolyRing,
    WeightMultiset,
    ab_integrate,
    elsv_via_localization,
    fixed_point_weights_cover,
    grr_localization_check,
    point_class,
    pushforward_char_cover,
)
from .partitions import Partition, kappa, partitions_of, z
from .symgroup import build_table

SUITE_NAMES = ("burnside", "elsv", "grr", "localization", "string")

#: The (g, h) pairs covered by the inversion round-trip checks.
ROUND_TRIP_PAIRS = ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1))

FRESH_SAMPLES_PER_PAIR = 5


class CheckResult(namedtuple("CheckResult", "suite name passed detail",
                             defaults=("",))):
    __slots__ = ()

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.suite}:{self.name}{tail}"


@cache
def _inversion(g, h):
    return elsv_inversion(g, h)


@cache
def _fresh_samples(g, h):
    """The first profiles of the sample stream that the grid did not use."""
    grid = set(_inversion(g, h).grid)
    fresh = (mu for mu in sample_candidates(g, h) if mu not in grid)
    return tuple(islice(fresh, FRESH_SAMPLES_PER_PAIR))


def _full_table():
    table = HodgeTable()
    for g, h in ROUND_TRIP_PAIRS:
        for bracket, value in _inversion(g, h).brackets.items():
            table.add(bracket, value)
    return table


# ---------------------------------------------------------------------------
# burnside suite


def _admissible_r(mu, r_max):
    d, h = mu.size, mu.length
    return [r for r in range(0, r_max + 1) if (r - d - h) % 2 == 0]


def engine_agreement_checks():
    """Four-way agreement: direct count, cut-and-join on connected cycle
    types, cut-and-join + transform, character sum + transform, for every
    profile of size <= 5 and admissible r <= 6."""
    out = []
    for size in range(1, 6):
        for mu in partitions_of(size):
            d, h = mu.size, mu.length
            genera, ok = [], True
            for g in range(0, 6):
                r = 2 * g - 2 + d + h
                if r < 0 or r > 6:
                    continue
                a = connected_dfs(g, mu)
                b = connected_via_transform(g, mu, "dp")
                c = connected_via_transform(g, mu, "burnside")
                e = connected_dp(g, mu)
                genera.append(g)
                if not (a == b == c == e):
                    ok = False
                    out.append(
                        CheckResult(
                            "burnside", f"engine-agreement mu={mu}", False,
                            f"g={g}: dfs {a}, dp {b}, charsum {c}, "
                            f"connected dp {e}",
                        )
                    )
                    break
            if ok:
                out.append(
                    CheckResult(
                        "burnside", f"engine-agreement mu={mu}", True,
                        "genera " + ",".join(str(g) for g in genera),
                    )
                )
    return out


def disconnected_agreement_checks():
    """Exact dp == character-sum for every profile of size <= 6, r <= 10,
    plus the two hand-countable anchor values."""
    out = []
    for size in range(1, 7):
        for mu in partitions_of(size):
            d, h = mu.size, mu.length
            mismatches = []
            for r in _admissible_r(mu, 10):
                chi = d + h - r
                a = disconnected_dp(chi, mu)
                b = disconnected_burnside(chi, mu)
                if a != b:
                    mismatches.append((r, a, b))
            out.append(
                CheckResult(
                    "burnside", f"disconnected-agreement mu={mu}",
                    not mismatches,
                    f"{len(_admissible_r(mu, 10))} values of r"
                    if not mismatches else f"mismatch {mismatches[0]}",
                )
            )
    anchors = (
        ("H*(chi=2, mu=(2)) = 1/2", disconnected_dp(2, Partition([2])), Fraction(1, 2)),
        ("H*(chi=-2, mu=(3)) = 81", disconnected_dp(-2, Partition([3])), Fraction(81)),
    )
    for name, got, want in anchors:
        out.append(
            CheckResult("burnside", name, got == want, f"got {got}")
        )
    return out


def _egf_coefficient(table, mu, r):
    """The lambda^r coefficient at p_mu of the textbook character series,
    read from the character ``table`` of degree |mu|:
    sum over nu of chi_nu(mu)/z(mu) * (kappa(nu)/2)^r/r! * dim_nu/d!."""
    return sum(
        (
            Fraction(table.chi(nu, mu) * (kappa(nu) // 2) ** r * table.dim(nu),
                     z(mu) * factorial(r) * factorial(mu.size))
            for nu in table.partitions
        ),
        Fraction(0),
    )


def grading_convention_checks():
    """The character-sum series in its textbook exponential form does not
    carry the Euler-characteristic grading: the degree-one probe differs by
    exactly lambda^(-d), and matching coefficients needs an r! rescale.  The
    artifact therefore pins the identity at coefficient level."""
    out = []
    tables = {d: build_table(d) for d in range(1, 4)}
    # definitional side at d = 1: the only cover is the trivial one at r = 0
    defn = phi_series(Partition([1]), "dp", max_r=6)
    # exponent -> coefficient of the printed character series
    char_side = {r: c for r in range(0, 7)
                 if (c := _egf_coefficient(tables[1], Partition([1]), r))}
    shifted = {e - 1: c for e, c in char_side.items()}  # multiply by lambda^(-d)
    out.append(
        CheckResult(
            "burnside", "series-statement fails d=1 probe",
            defn != char_side and defn == shifted,
            f"definition {defn} vs printed {char_side}: off by lambda^-1",
        )
    )
    # coefficient level: count identity H*(r) == r! * [EGF coefficient], d <= 3
    ok = all(
        disconnected_dp(mu.size + mu.length - r, mu)
        == factorial(r) * _egf_coefficient(tables[mu.size], mu, r)
        for size in range(1, 4)
        for mu in partitions_of(size)
        for r in _admissible_r(mu, 8)
    )
    out.append(
        CheckResult(
            "burnside", "coefficient-level identity (r! made explicit)", ok,
            "tuple counts == r! * EGF coefficients for d <= 3, r <= 8",
        )
    )
    return out


# ---------------------------------------------------------------------------
# elsv suite


def seed_checks():
    brackets = _inversion(0, 3).brackets
    only = list(brackets.items())
    passed = (
        len(only) == 1
        and str(only[0][0]) == "(0,3,[0,0,0],0)"
        and only[0][1] == 1
    )
    return [
        CheckResult(
            "elsv", "seed reproduction (0,3)", passed,
            ", ".join(f"{b} = {v}" for b, v in only),
        )
    ]


def genus_one_checks():
    out = []
    h11 = connected_dfs(1, Partition([1]))
    h12 = connected_dfs(1, Partition([2]))
    out.append(
        CheckResult(
            "elsv", "backtracking facts H(1,(1)) = 0, H(1,(2)) = 1/2",
            h11 == 0 and h12 == Fraction(1, 2), f"got {h11}, {h12}",
        )
    )
    brackets = {str(b): v for b, v in _inversion(1, 1).brackets.items()}
    forced = (
        brackets.get("(1,1,[1],0)") == Fraction(1, 24)
        and brackets.get("(1,1,[0],1)") == Fraction(1, 24)
    )
    out.append(
        CheckResult(
            "elsv", "genus-one forcing: psi and lambda brackets both 1/24",
            forced, str(brackets),
        )
    )
    table = _full_table()
    for mu in (Partition([3]), Partition([2, 1])):
        direct = elsv_evaluate(1, mu, table)
        engine = connected_via_transform(1, mu, "burnside")
        out.append(
            CheckResult(
                "elsv", f"evaluation matches character engine at (1, {mu})",
                direct == engine, f"{direct} vs {engine}",
            )
        )
    return out


def round_trip_checks():
    """Forward evaluation must reproduce the engine on fresh profiles that
    took no part in the interpolation."""
    out = []
    table = _full_table()
    for g, h in ROUND_TRIP_PAIRS:
        fresh = _fresh_samples(g, h)
        bad = []
        for mu in fresh:
            direct = elsv_evaluate(g, mu, table)
            engine = connected_via_transform(g, mu, "burnside")
            if direct != engine:
                bad.append((mu, direct, engine))
        out.append(
            CheckResult(
                "elsv", f"round trip (g,h)=({g},{h})", not bad,
                "fresh " + ", ".join(str(m) for m in fresh)
                if not bad else f"first mismatch {bad[0]}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# grr suite


def grr_grid_checks():
    out = []
    known_lists = (
        ("known weight list: line, k=1, a=0",
         pushforward_char_cover(1, 0, 1)[0] == WeightMultiset({0: 1, -1: 1})
         and pushforward_char_cover(1, 0, 1)[1].is_empty()),
        ("known weight list: line, k=-1, a=0",
         pushforward_char_cover(-1, 0, 1)[0].is_empty()
         and pushforward_char_cover(-1, 0, 1)[1].is_empty()),
        ("known weight list: line, k=-3, a=0",
         pushforward_char_cover(-3, 0, 1)[1] == WeightMultiset({1: 1, 2: 1})),
        ("known weight list: cover, k=1, a=0, d=2",
         pushforward_char_cover(1, 0, 2)[0]
         == WeightMultiset({0: 1, Fraction(-1, 2): 1, -1: 1})),
        ("known weight list: cover, k=-1, a=0, d=2",
         pushforward_char_cover(-1, 0, 2)[1] == WeightMultiset({Fraction(1, 2): 1})),
    )
    for name, passed in known_lists:
        out.append(CheckResult("grr", name, passed))

    for d in (1, 2, 3, 4):
        failures = []
        for k in range(-5, 6):
            for a in range(-3, 4):
                fp = fixed_point_weights_cover(a, k, d)
                h0, h1 = pushforward_char_cover(k, a, d)
                if not grr_localization_check(fp, h0 - h1):
                    failures.append((k, a))
        out.append(
            CheckResult(
                "grr", f"fixed-point character identity, degree d={d}",
                not failures,
                "77 (k, a) pairs" if not failures else f"failed at {failures}",
            )
        )

    fp = fixed_point_weights_cover(0, 1, 1)
    h0, h1 = pushforward_char_cover(1, 0, 1)
    perturbed = (h0 - h1) + WeightMultiset({Fraction(7): 1})
    out.append(
        CheckResult(
            "grr", "soundness probe: perturbed claim is rejected",
            grr_localization_check(fp, perturbed) is False,
        )
    )
    return out


# ---------------------------------------------------------------------------
# localization suite


def point_class_checks():
    failures = []
    for r in range(1, 9):
        ring = EquivariantPolyRing(r)
        value = ab_integrate(ring, point_class(ring))
        if not (value.is_constant() and value.constant_value() == 1):
            failures.append((r, value))
    return [
        CheckResult(
            "localization", "equivariant point class integrates to 1, r <= 8",
            not failures, "" if not failures else str(failures[0]),
        )
    ]


_U_SAMPLES = (Fraction(1), Fraction(2), Fraction(-3, 5))


def localization_rederivation_checks():
    out = []
    table = _full_table()
    for g, h in ROUND_TRIP_PAIRS:
        profiles = list(_inversion(g, h).grid) + list(
            _fresh_samples(g, h)
        )
        bad = []
        for mu in profiles:
            direct = elsv_evaluate(g, mu, table)
            loc = elsv_via_localization(g, mu, table)
            if loc != direct:
                bad.append((mu, loc, direct))
                continue
            for a in _U_SAMPLES:
                if elsv_via_localization(g, mu, table, u_value=a) != direct:
                    bad.append((mu, "u-substitution", a))
                    break
        out.append(
            CheckResult(
                "localization", f"re-derivation (g,h)=({g},{h})", not bad,
                f"{len(profiles)} profiles, u in {{1, 2, -3/5}}"
                if not bad else f"first failure {bad[0]}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# string suite


def string_equation_checks():
    table = _full_table()
    report = string_equation_check(table)
    out = [
        CheckResult(
            "string", "string equation on inverted tables",
            report.all_passed and len(report.checks) >= 4, report.summary(),
        )
    ]
    named = {str(c.lhs): c for c in report.checks}
    wanted = ("(0,4,[1,0,0,0],0)", "(0,5,[2,0,0,0,0],0)",
              "(0,5,[1,1,0,0,0],0)", "(1,2,[2,0],0)")
    for key in wanted:
        check = named.get(key)
        out.append(
            CheckResult(
                "string", f"identity at {key}",
                check is not None and check.passed,
                f"{check.actual} == {check.expected}" if check else "not covered",
            )
        )
    return out


# ---------------------------------------------------------------------------
# suite registry


_SUITES = {
    "burnside": (
        engine_agreement_checks,
        disconnected_agreement_checks,
        grading_convention_checks,
    ),
    "elsv": (seed_checks, genus_one_checks, round_trip_checks),
    "grr": (grr_grid_checks,),
    "localization": (point_class_checks, localization_rederivation_checks),
    "string": (string_equation_checks,),
}


def run_suite(name):
    """Run one named suite (or "all") and return the list of CheckResults."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
        )
    results = []
    for suite in names:
        for fn in _SUITES[suite]:
            results.extend(fn())
    return results
