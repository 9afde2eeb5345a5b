"""Command-line front end.

Each subcommand reads JSON files, runs one library computation, and
prints a JSON report (default) or a plain aligned table.  Identical
inputs and flags give byte-identical output; no value is ever a float.

Exit codes: 0 success, 1 usage or guard errors, 2 invariant violations.
With --oracle every theorem-backed value is recomputed by brute force
and a mismatch also exits 2, because it can only mean a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations, product as iter_product
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .code import LinearCode, MatrixTuple, Shape
from .errors import (
    EnumerationTooLarge,
    InvariantViolation,
    ParseError,
    SumrankError,
    UsageError,
    _record,
)
from .gf import field_from_dict
from .matfq import MatrixFq, _products

if TYPE_CHECKING:
    from .genweights import GammaBasis

# Each handler imports the modules only it uses, once its payloads are read
# (expand's reader needs one), so a process loads just what it runs.

__all__ = ["RunConfig", "parse_args", "run", "main"]


@_record
class RunConfig:
    """One fully resolved invocation."""

    subcommand: str
    paths: Tuple[str, ...]
    variant: str = "product"
    rank: Optional[int] = None  # None means the whole profile
    cap: Optional[int] = None
    oracle: bool = False
    format: str = "json"

    def __post_init__(self):
        if self.cap is not None and self.cap <= 0:
            raise UsageError("--cap must be positive")
        if self.format not in ("json", "table"):
            raise UsageError(f"unknown format {self.format!r}")

    @property
    def caps(self) -> dict:
        """The cap keyword of a library call: --cap if given, else none, so
        the library's own default guards the call."""
        return {} if self.cap is None else {"cap": self.cap}


# ---------------------------------------------------------------- file input


def _read(path: str, build: Callable):
    """Load the JSON object at path and run build on it.

    An unreadable file is a UsageError; text that is not a JSON object, or
    a payload that crashes build, is a ParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    try:
        return build(data)
    except SumrankError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed payload ({exc})") from None


def _matrices(data: dict):
    """The field and matrices of a payload {"field": {...}, "mats": [[[...]], ...]}."""
    ctx = field_from_dict(data["field"])
    return ctx, [MatrixFq(ctx, rows) for rows in data["mats"]]


def _oracle_check(name: str, fast, brute) -> None:
    if fast != brute:
        raise InvariantViolation(
            f"oracle mismatch on {name}: fast path {fast!r}, brute force {brute!r}"
        )


# ---------------------------------------------------------------- subcommands


def _cmd_srk(config: RunConfig) -> dict:
    t = _read(config.paths[0], MatrixTuple.from_dict)
    value = t.srk()
    if config.oracle:
        # column rank equals row rank; compute it through the other side
        brute = sum(b.column_space().dim for b in t.blocks)
        _oracle_check("srk", value, brute)
    return {"srk": value}


def _cmd_dist(config: RunConfig) -> dict:
    code = _read(config.paths[0], LinearCode.from_dict)
    method = "anticode" if code.shape.strict else "enumerate"
    value = code.min_distance(method=method, **config.caps)
    if config.oracle and method == "anticode":
        brute = code.min_distance(method="enumerate", **config.caps)
        _oracle_check("distance", value, brute)
    return {"distance": value, "method": method}


def _cmd_dual(config: RunConfig) -> dict:
    code = _read(config.paths[0], LinearCode.from_dict)
    code.check_dual_size(**config.caps)
    dual = code.dual()
    if config.oracle:
        if code.dim:  # entry (i, j) is the trace pairing of dual row i with code row j
            pairings = _products(code.ctx, dual.rows, list(zip(*code.rows)), code.dim)
            if any(map(any, pairings)):
                raise InvariantViolation("oracle mismatch on dual: nonzero trace pairing")
        _oracle_check("dual dim", dual.dim, code.ambient_dim - code.dim)
    return dual.to_dict()


def _flat_weights(code: LinearCode, variant: str, caps: dict) -> list:
    """d_1..d_k in one pass of Meet.dim over every member of the flat family."""
    from .anticode import Meet, enumerate_anticodes
    meet, weights = Meet(code), []
    for mu in range(1, code.shape.ncols + 1):
        if len(weights) == code.dim:
            break
        for desc in enumerate_anticodes(code.ctx, code.shape, mu, variant, **caps):
            weights += [mu] * (meet.dim(desc) - len(weights))
            if len(weights) == code.dim:
                break
    if len(weights) < code.dim:
        raise InvariantViolation("the full space must meet every rank demand")
    return weights


def _cmd_gweights(config: RunConfig) -> dict:
    code = _read(config.paths[0], LinearCode.from_dict)
    from .genweights import gen_weight, weight_profile
    if config.rank is None:
        prof = weight_profile(code, config.variant, **config.caps)
        if config.oracle:
            # the walker's pruned sweep against the flat family
            for r, brute in enumerate(_flat_weights(code, config.variant, config.caps), 1):
                _oracle_check(f"d_{r}", prof.weight(r), brute)
        return prof.to_dict()
    value = gen_weight(code, config.rank, config.variant, **config.caps)
    if config.oracle:
        brute = _flat_weights(code, config.variant, config.caps)[config.rank - 1]
        _oracle_check(f"d_{config.rank}", value, brute)
    return {"variant": config.variant, "r": config.rank, "weight": value}


def _cmd_msrd(config: RunConfig) -> dict:
    code = _read(config.paths[0], LinearCode.from_dict)
    from .msrd import msrd_check
    report = msrd_check(code, **config.caps)
    if config.oracle:
        brute_d = code.min_distance(method="enumerate", **config.caps)
        _oracle_check("distance", report.distance, brute_d)
        _oracle_check(
            "is_msrd",
            report.is_msrd,
            report.remainder == 0 and brute_d == report.distance_bound,
        )
        if report.dual_distance is not None:
            brute_dd = code.dual().min_distance(method="enumerate", **config.caps)
            _oracle_check("dual distance", report.dual_distance, brute_dd)
    return report.to_dict()


def _cmd_anticode(config: RunConfig) -> dict:
    code = _read(config.paths[0], LinearCode.from_dict)
    from .anticode import is_optimal_anticode
    optimal, desc = is_optimal_anticode(code)
    if config.oracle:
        top = code.weighted_max(**config.caps) if code.dim else 0
        _oracle_check("is_optimal", optimal, code.dim == top)
        if optimal and desc is not None and desc.materialize() != code:
            raise InvariantViolation(
                "oracle mismatch on descriptor: rebuilt code differs"
            )
    return {
        "is_optimal": optimal,
        "dim": code.dim,
        "descriptor": desc.to_dict() if desc is not None else None,
    }


def _brute_cover_size(points: Sequence[Tuple[int, int]]) -> int:
    """Smallest number of row/column lines covering all points, by subsets."""
    pts = sorted(set(points))
    lines = [("r", r) for r in sorted({p[0] for p in pts})]
    lines += [("c", c) for c in sorted({p[1] for p in pts})]
    if len(lines) > 24:
        raise EnumerationTooLarge(f"{len(lines)} lines is too many for brute cover")
    for size in range(len(lines) + 1):
        for chosen in combinations(lines, size):
            taken = set(chosen)
            if all(("r", r) in taken or ("c", c) in taken for r, c in pts):
                return size
    raise InvariantViolation("full line set failed to cover its own points")


def _cmd_rho(config: RunConfig) -> dict:
    _, mats = _read(config.paths[0], _matrices)
    from .cover import covering_number, leading_position
    res = covering_number(mats)
    if config.oracle:
        brute = _brute_cover_size([leading_position(m) for m in mats])
        _oracle_check("rho", res.rho, brute)
    return {
        "rho": res.rho,
        "pivots": [list(p) for p in res.pivots],
        "witnesses": list(res.witnesses),
    }


def _cmd_meshulam(config: RunConfig) -> dict:
    def build(d):
        ctx, mats = _matrices(d)
        return MatrixFq(ctx, d["a"]), mats

    a, mats = _read(config.paths[0], build)
    from .cover import _shift, meshulam_search
    res = meshulam_search(a, mats)
    if config.oracle:
        achieved = _shift(a, res.coeffs, mats).rank()
        _oracle_check("achieved_rank", res.achieved_rank, achieved)
        if 2 ** len(mats) > (config.cap or 1 << 16):
            raise EnumerationTooLarge("oracle 0/1 search exceeds cap")
        candidates = iter_product((0, 1), repeat=len(mats))
        best = max(_shift(a, xs, mats).rank() for xs in candidates)
        if not res.rho <= res.achieved_rank <= best:
            raise InvariantViolation(
                f"oracle mismatch on meshulam: rho {res.rho}, "
                f"achieved {res.achieved_rank}, best {best}"
            )
    return {
        "coeffs": list(res.coeffs),
        "achieved_rank": res.achieved_rank,
        "rho": res.rho,
    }


def _cmd_equiv(config: RunConfig) -> dict:
    first = _read(config.paths[0], LinearCode.from_dict)
    second = _read(config.paths[1], LinearCode.from_dict)
    from .isom import equivalent_codes
    witness = equivalent_codes(first, second, **config.caps)
    if config.oracle and witness is not None:
        if witness.apply_code(first) != second:
            raise InvariantViolation("oracle mismatch on equiv: witness fails")
    return {
        "equivalent": witness is not None,
        "isometry": witness.to_dict() if witness is not None else None,
    }


def _cmd_leak(config: RunConfig) -> dict:
    code = _read(config.paths[0], LinearCode.from_dict)

    def taps_of(d):
        if "field" in d and field_from_dict(d["field"]) != code.ctx:
            raise UsageError(f"{config.paths[1]}: tap field differs from the code's field")
        return tuple(None if entry is None else MatrixFq(code.ctx, entry) for entry in d["taps"])

    taps = _read(config.paths[1], taps_of)
    code.check_dual_size(**config.caps)
    from .wiretap import WiretapScenario, empirical_mi, leakage_dim, threshold_table
    leak = leakage_dim(code, taps)
    thresholds = threshold_table(code, **config.caps)
    if config.oracle:
        scenario = WiretapScenario(code, taps)
        mi = empirical_mi(scenario, **config.caps)
        _oracle_check("leak_symbols", leak, mi)
    return {"leak_symbols": leak, "threshold_table": list(thresholds)}


def _cmd_expand(config: RunConfig) -> dict:
    from .genweights import GammaBasis, gamma_expand

    def build(d):
        base = field_from_dict(d["field"])
        shape = Shape.from_dict(d["shape"])
        spec = d.get("gamma", "monomial")
        if spec == "monomial":
            gamma = GammaBasis.monomial(base, shape)
        else:
            gamma = GammaBasis(base, shape, spec)
        vectors = d["vectors"]
        return gamma, vectors, gamma_expand(gamma, vectors, d.get("subfield_degree"))

    gamma, vectors, code = _read(config.paths[0], build)
    if config.oracle:
        _verify_expansion(gamma, vectors)
    return code.to_dict()


def _verify_expansion(gamma: GammaBasis, vectors) -> None:
    """Check (gamma_i) X_i = v_i entrywise in each extension field."""
    from .genweights import subfield_embedding
    for v in vectors:
        t = gamma.expand_vector(v)
        for i, seg in enumerate(v):
            ext = gamma.exts[i]
            embed = subfield_embedding(gamma.base, ext)
            for c, want in enumerate(seg):
                acc = 0
                for r, gam in enumerate(gamma.bases[i]):
                    x = t.blocks[i].rows[r][c]
                    if x:
                        acc = ext.add(acc, ext.mul(embed[x], gam))
                if acc != want:
                    raise InvariantViolation(
                        f"oracle mismatch on expansion: block {i} column {c}"
                    )


# Every subcommand, in --help order: (handler, help, number of paths, path metavar).
_COMMANDS: Dict[str, Tuple[Callable[[RunConfig], dict], str, int, str]] = {
    "srk": (_cmd_srk, "sum-rank weight of one matrix tuple", 1, "tuple.json"),
    "dist": (_cmd_dist, "minimum sum-rank distance of a code", 1, "code.json"),
    "dual": (_cmd_dual, "trace dual of a code, emitted as code JSON", 1, "code.json"),
    "gweights": (_cmd_gweights, "generalized sum-rank weights", 1, "code.json"),
    "msrd": (_cmd_msrd, "maximum sum-rank distance report", 1, "code.json"),
    "anticode": (_cmd_anticode, "optimal-anticode test and classification", 1, "code.json"),
    "rho": (_cmd_rho, "covering number of a leading-position pattern", 1, "mats.json"),
    "meshulam": (_cmd_meshulam, "0/1 combination reaching the covering number", 1, "mats.json"),
    "equiv": (_cmd_equiv, "isometry search between two codes", 2, "code.json"),
    "leak": (_cmd_leak, "wiretap leakage and thresholds", 2, "file.json"),
    "expand": (_cmd_expand, "base-field expansion of a subfield-linear code", 1, "gamma.json"),
}


# ------------------------------------------------------------------- output


def _table_lines(report: dict, indent: str = "") -> List[str]:
    scalar_keys = [
        k
        for k, v in report.items()
        if not isinstance(v, (dict, list)) or _is_scalar_list(v)
    ]
    width = max((len(k) for k in scalar_keys), default=0)
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_table_lines(value, indent + "  "))
        elif isinstance(value, list) and not _is_scalar_list(value):
            lines.append(f"{indent}{key}: {json.dumps(value)}")
        elif isinstance(value, list):
            joined = " ".join(_cell(x) for x in value)
            lines.append(f"{indent}{key:<{width}}  {joined}")
        else:
            lines.append(f"{indent}{key:<{width}}  {_cell(value)}")
    return lines


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, (int, str)) and not isinstance(x, bool) for x in value
    )


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _srk_table(report: dict) -> List[str]:
    return [str(report["srk"])]


def _gweights_table(report: dict) -> List[str]:
    if "weights" not in report:
        return _table_lines(report)
    lines = [f"variant {report['variant']}", "r  d_r"]
    for r, d in enumerate(report["weights"], start=1):
        lines.append(f"{r:<2} {d}")
    return lines


_TABLES: Dict[str, Callable[[dict], List[str]]] = {
    "srk": _srk_table,
    "gweights": _gweights_table,
}


def _emit(config: RunConfig, report: dict) -> str:
    if config.format == "json":
        return json.dumps(report, indent=2) + "\n"
    renderer = _TABLES.get(config.subcommand, _table_lines)
    return "\n".join(renderer(report)) + "\n"


# ------------------------------------------------------------------ parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route it through the exit-code contract
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--cap", type=int, metavar="N", help="enumeration guard")
    common.add_argument(
        "--oracle",
        action="store_true",
        help="recompute theorem-path values by brute force and compare",
    )
    common.add_argument("--format", choices=("json", "table"), default="json")

    parser = _Parser(prog="sumrank", description="sum-rank metric code toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    for name, (handler, help_text, npaths, metavar) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("paths", nargs=npaths, metavar=metavar)
        if handler is _cmd_gweights:
            p.add_argument(
                "--variant",
                choices=("product", "all", "supp", "support"),
                default="product",
                help="anticode family (supp = column-support products)",
            )
            p.add_argument("--r", dest="rank", default="all", metavar="all|k")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    rank: Optional[int] = None
    raw = getattr(args, "rank", "all")
    if raw != "all":
        try:
            rank = int(raw)
        except ValueError:
            raise UsageError(f"--r expects 'all' or an integer, got {raw!r}") from None
        if rank < 1:
            raise UsageError("--r must be at least 1")
    variant = getattr(args, "variant", "product")
    if variant == "supp":
        variant = "support"
    return RunConfig(
        subcommand=args.subcommand,
        paths=tuple(args.paths),
        variant=variant,
        rank=rank,
        cap=args.cap,
        oracle=args.oracle,
        format=args.format,
    )


def run(config: RunConfig) -> Tuple[int, dict]:
    """Execute one invocation; exceptions map onto the exit-code contract."""
    try:
        return 0, _COMMANDS[config.subcommand][0](config)
    except UsageError as exc:
        return 1, {"error": str(exc)}
    except InvariantViolation as exc:
        return 2, {"invariant_violation": str(exc)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status, report = run(config)
    if status == 0:
        sys.stdout.write(_emit(config, report))
    else:
        key = "error" if status == 1 else "invariant_violation"
        print(f"{key}: {report[key]}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
