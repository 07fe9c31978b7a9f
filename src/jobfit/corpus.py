"""Interaction logs, temporal splits, document-embedding tables, synthetic data.

The on-disk event log is a TSV file whose first line is a header of the form
``#n=<candidates>\tm=<jobs>`` followed by one event per line:
``kind\tcandidate\tjob\ttimestamp``. Timestamps are integer day offsets.
Further lines starting with ``#`` are treated as comments.
"""

from __future__ import annotations

import enum
import logging
import numbers
import os
import re
import secrets
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DataFormatError

logger = logging.getLogger(__name__)

EMBED_MAGIC = b"DPFEMB1\x00"
_HEADER_RE = re.compile(r"^#n=(\d+)\tm=(\d+)\s*$")

# Standard deviation of the noise added to synthetic document embeddings so
# that text carries partial (not perfect) signal about the latent vectors.
_TEXT_NOISE = 0.5


class Kind(enum.IntEnum):
    """Event kind code. APPLY is candidate-initiated, REACHOUT job-initiated."""

    APPLY = 0
    REACHOUT = 1
    MATCH = 2


# The event-log token of each Kind, indexed by its code.
KIND_TOKENS = ("apply", "reachout", "match")
_KIND_BY_TOKEN = {token: code for code, token in enumerate(KIND_TOKENS)}
_COLUMN_DTYPES = {"kinds": np.int8, "candidates": np.int64, "jobs": np.int64, "days": np.int64}
_COLUMN_VALUES = {
    "kinds": "kind code", "candidates": "candidate id", "jobs": "job id", "days": "day"
}


@dataclass(frozen=True, eq=False)
class EventLog:
    """Raw event stream as columns, plus the universe sizes from the log header.

    Event i has kind ``Kind(kinds[i])``, candidate ``candidates[i]`` in
    [0, n), job ``jobs[i]`` in [0, m) and day ``days[i]`` >= 0. Columns are
    stored as int8 kind codes and int64 ids and days, converted and
    range-checked on construction: a value that is not an int64 integer, such
    as a float or an int past the int64 range, is refused too
    (``DataFormatError`` names the first bad event). Equality is identity;
    compare columns with ``np.array_equal``.
    """

    n: int
    m: int
    kinds: np.ndarray
    candidates: np.ndarray
    jobs: np.ndarray
    days: np.ndarray

    def __post_init__(self) -> None:
        upper = {"kinds": len(Kind), "candidates": self.n, "jobs": self.m, "days": np.inf}
        for name, dtype in _COLUMN_DTYPES.items():
            column = _int64_column(getattr(self, name), _COLUMN_VALUES[name])
            bad = (column < 0) | (column >= upper[name])
            if bad.any():
                i = int(np.argmax(bad))
                raise DataFormatError(
                    f"event {i}: {_COLUMN_VALUES[name]} {column[i]} out of range [0, {upper[name]})"
                )
            object.__setattr__(self, name, column.astype(dtype, copy=False))


def _int64_column(values, label: str) -> np.ndarray:
    """values as an int64 array, or DataFormatError naming the first event not an int64 integer."""
    column = np.asarray(values)
    if np.can_cast(column.dtype, np.int64) or not column.size:
        return column.astype(np.int64, copy=False)
    # An object array keeps each value exact: NumPy turns a list mixing small
    # and huge ints into float64, and a list holding one huge int into uint64.
    exact = np.asarray(values, dtype=object)
    for i, value in enumerate(exact.tolist()):
        if not (isinstance(value, numbers.Integral) and -(2**63) <= value < 2**63):
            raise DataFormatError(f"event {i}: {label} {value} is not an int64 integer")
    return exact.astype(np.int64)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, equal to ``np.unique(keys)``.

    One sort and a compare with each left neighbour. Since NumPy 2.3 a plain
    ``np.unique`` (and ``np.union1d``) first collects the values in a hash
    set, which on event keys is many times slower than sorting them.
    """
    keys = np.sort(keys)
    keep = np.empty(keys.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def pair_rows(pairs: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """(candidate, job) pairs as sorted, duplicate-free (k, 2) int64 rows.

    Rows sort as tuples do, by candidate and then job.
    """
    rows = np.asarray(
        pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64
    ).reshape(-1, 2)
    width = int(rows[:, 1].max(initial=0)) + 1
    return np.stack(np.divmod(sorted_unique(rows[:, 0] * width + rows[:, 1]), width), axis=1)


@dataclass(frozen=True, eq=False)
class InteractionSplit:
    """Deduplicated pair rows for one temporal slice, after reconciliation.

    Each field holds sorted, duplicate-free (k, 2) int64 (candidate, job)
    rows (see ``pair_rows``; any iterable of pairs is accepted and
    normalized). ``reachouts`` are job-initiated even though the candidate
    id comes first. Equality is identity, as for ``EventLog``.
    """

    applies: np.ndarray
    reachouts: np.ndarray
    matches: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, pair_rows(getattr(self, f.name)))

    def interaction_count(self) -> int:
        return len(self.applies) + len(self.reachouts) + len(self.matches)


@dataclass(frozen=True, eq=False)
class SplitDataset:
    n: int
    m: int
    train: InteractionSplit
    valid: InteractionSplit
    test: InteractionSplit
    t_valid_start: int
    t_test_start: int

    @property
    def all_matches(self) -> np.ndarray:
        """Matched pair rows of every split, concatenated split by split."""
        return np.concatenate([self.train.matches, self.valid.matches, self.test.matches])


def load_events(path: str | Path) -> EventLog:
    """Parse an event log TSV, validating ids against the header counts.

    A log in the form ``write_events`` writes is parsed in bulk from its
    bytes; any other input goes to the line loop, which gives the same
    result for it, or the line-numbered error.
    """
    path = Path(path)
    log = _parse_events_bulk(path.read_bytes())
    return log if log is not None else _load_events_by_line(path)


# Longest field the bulk parser reads: 18 digits always fit int64.
_BULK_MAX_DIGITS = 18
_LINE_SEPARATORS = np.frombuffer(b"\t\t\t\n", dtype=np.uint8)


def _parse_events_bulk(data: bytes) -> EventLog | None:
    """Parse a log with whole-array operations, or None if it is not strict.

    Strict means: the header line and any ``#`` lines right after it are
    UTF-8 without a carriage return. Every later line is a kind token, then
    three fields of 1-18 ASCII digits, tab-separated and ended by a newline,
    and its ids lie inside the header's ranges. On such input the line loop
    returns the same log.
    """
    end = data.find(b"\n") + 1
    while end and data.startswith(b"#", end):
        end = data.find(b"\n", end) + 1
    if not end or b"\r" in data[:end]:
        return None
    try:
        head = data[:end].decode("utf-8")
    except UnicodeDecodeError:
        return None
    match = _HEADER_RE.match(head[: head.index("\n") + 1])
    if match is None:
        return None
    n, m = int(match.group(1)), int(match.group(2))

    # Seven zero bytes after the data let every line start be read as one
    # little-endian 8-byte word, long enough for each kind token; body
    # indexes the bytes after the leading comments.
    padded = data + bytes(7)
    body = np.frombuffer(padded, dtype=np.uint8, count=len(data) - end, offset=end)
    if body.size and body[-1] != ord("\n"):
        return None
    seps = np.flatnonzero(body <= ord("\n"))
    if seps.size % 4 or not (body[seps].reshape(-1, 4) == _LINE_SEPARATORS).all():
        return None
    # Row j holds every line's j-th separator, so row j of widths holds the
    # widths of field j + 1 (the token is field 0).
    ends = seps.reshape(-1, 4).T.copy()
    starts = np.concatenate([[0], ends[3] + 1])[:-1]
    token_lengths = ends[0] - starts
    widths = ends[1:] - ends[:-1] - 1
    if widths.size and not 1 <= widths.min() <= widths.max() <= _BULK_MAX_DIGITS:
        return None

    words = np.ndarray((body.size,), dtype="<u8", buffer=padded, offset=end, strides=(1,))
    heads = words[starts]
    kinds = np.full(len(starts), -1, dtype=np.int8)
    for code, token in enumerate(KIND_TOKENS):
        raw = token.encode("ascii")
        low = (1 << 8 * len(raw)) - 1
        kinds[(token_lengths == len(raw)) & ((heads & low) == int.from_bytes(raw, "little"))] = code
    if (kinds < 0).any():
        return None

    # Tokens hold no digits, so when the digit count equals the summed field
    # widths every field byte is a digit.
    digits = body - np.uint8(ord("0"))
    if np.count_nonzero(digits < 10) != widths.sum():
        return None
    cands, jobs, days = (
        _place_values(digits, ends[j], widths[j - 1]) for j in range(1, 4)
    )
    if cands.size and (int(cands.max()) >= n or int(jobs.max()) >= m):
        return None
    return EventLog(n, m, kinds, cands, jobs, days)


def _place_values(digits: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """int64 values of the digit runs that end just before each of ``ends``."""
    values = np.zeros(len(ends), dtype=np.int64)
    for k in range(int(widths.max(initial=0))):
        digit = digits.take(ends - 1 - k, mode="clip").astype(np.int64)
        digit[widths <= k] = 0
        values += digit * 10**k
    return values


def _load_events_by_line(path: Path) -> EventLog:
    """The reference parser: one line at a time, text mode, any line form.

    It defines the format and every line-numbered ``DataFormatError``.
    """
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            match = _HEADER_RE.match(header)
            if match is None:
                raise DataFormatError(
                    f"{path}:1: expected header '#n=<int>\\tm=<int>', got {header!r}"
                )
            n, m = int(match.group(1)), int(match.group(2))
            kinds, cands, jobs, days = [], [], [], []
            for lineno, raw in enumerate(fh, start=2):
                line = raw.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
                    )
                kind = _KIND_BY_TOKEN.get(parts[0])
                if kind is None:
                    raise DataFormatError(f"{path}:{lineno}: unknown event kind {parts[0]!r}")
                try:
                    cand, job, day = int(parts[1]), int(parts[2]), int(parts[3])
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: non-integer field: {exc}") from exc
                if not 0 <= cand < n:
                    raise DataFormatError(
                        f"{path}:{lineno}: candidate id {cand} out of range [0, {n})"
                    )
                if not 0 <= job < m:
                    raise DataFormatError(f"{path}:{lineno}: job id {job} out of range [0, {m})")
                if day < 0:
                    raise DataFormatError(f"{path}:{lineno}: negative timestamp {day}")
                widest = max(cand, job, day)
                if widest >= 2**63:
                    raise DataFormatError(f"{path}:{lineno}: field {widest} does not fit int64")
                kinds.append(kind)
                cands.append(cand)
                jobs.append(job)
                days.append(day)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return EventLog(n, m, kinds, cands, jobs, days)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data through a sibling temporary file, so path is never partial.

    Each call creates its own temporary file; of concurrent writers the last wins.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    tmp.touch(exist_ok=False)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_events(
    path: str | Path,
    log: EventLog,
    comments: Sequence[str] = (),
) -> None:
    """Write an event log TSV. ``comments`` go right after the header line.

    The output is the strict form that ``load_events`` parses in bulk. A
    comment holding a line break is refused with ``ValueError``.
    """
    lines = [f"#n={log.n}\tm={log.m}\n"]
    for comment in comments:
        if "\n" in comment or "\r" in comment:
            raise ValueError(f"comment {comment!r} holds a line break")
        lines.append(f"# {comment}\n")
    write_atomic(path, "".join(lines).encode("utf-8") + _format_events(log))


# Kind tokens NUL-padded to the longest, "reachout": 8 bytes, one word per code.
_TOKEN_BYTES = np.array([token.encode("ascii") for token in KIND_TOKENS])


def _format_events(log: EventLog) -> bytes:
    """The event lines of a log, formatted with whole-array operations.

    Each event gets a row of a byte table: its NUL-padded kind token, then
    per column a tab and the decimal digits right-aligned in the column's
    widest width, then a newline. Unused leading places stay NUL, and no
    real output byte is NUL, so dropping the NULs leaves the lines.
    """
    columns = (log.candidates, log.jobs, log.days)
    tops = [int(column.max(initial=0)) for column in columns]
    widths = [len(str(top)) for top in tops]
    token_width = _TOKEN_BYTES.itemsize
    table = np.zeros((len(log.kinds), token_width + sum(widths) + 4), dtype=np.uint8)
    tokens = _TOKEN_BYTES.view(np.uint64)[log.kinds]
    table[:, :token_width] = tokens.view(np.uint8).reshape(-1, token_width)
    end = token_width
    for column, top, width in zip(columns, tops, widths):
        table[:, end] = ord("\t")
        end += width
        # The narrowest unsigned type that holds the column divides fastest.
        # A place left of the value's leading digit stays NUL.
        remaining = column.astype(np.min_scalar_type(top))
        for place in range(end, end - width, -1):
            quotient = remaining // 10
            digit = remaining - quotient * 10 + ord("0")
            if place != end:
                digit *= remaining > 0
            table[:, place] = digit
            remaining = quotient
        end += 1
    table[:, end] = ord("\n")
    return table[table != 0].tobytes()


def temporal_split(log: EventLog, t_valid_start: int, t_test_start: int) -> SplitDataset:
    """Partition events by timestamp into train/valid/test and reconcile.

    Within one window a match supersedes the pair's directed events, and
    repeated events of one kind for one pair collapse to a single entry.
    Pairs matched in an earlier window are dropped entirely from later
    windows, so evaluation positives are always previously unseen pairs.
    """
    if not 0 < t_valid_start < t_test_start:
        raise ConfigError(
            f"need 0 < t_valid_start < t_test_start, got {t_valid_start}, {t_test_start}"
        )
    window = np.searchsorted([t_valid_start, t_test_start], log.days, side="right")
    keys = log.candidates * log.m + log.jobs

    splits = []
    matched_earlier = np.empty(0, dtype=np.int64)
    for w in range(3):
        in_window = window == w
        by_kind = [sorted_unique(keys[in_window & (log.kinds == kind)]) for kind in Kind]
        matches = np.setdiff1d(by_kind[Kind.MATCH], matched_earlier, assume_unique=True)
        matched_earlier = sorted_unique(np.concatenate([matched_earlier, matches]))
        applies = np.setdiff1d(by_kind[Kind.APPLY], matched_earlier, assume_unique=True)
        reachouts = np.setdiff1d(by_kind[Kind.REACHOUT], matched_earlier, assume_unique=True)
        rows = [np.stack(np.divmod(k, log.m), axis=1) for k in (applies, reachouts, matches)]
        splits.append(InteractionSplit(*rows))

    train, valid, test = splits
    if train.interaction_count() == 0:
        raise DataFormatError("train split is empty after reconciliation")
    return SplitDataset(
        n=log.n,
        m=log.m,
        train=train,
        valid=valid,
        test=test,
        t_valid_start=t_valid_start,
        t_test_start=t_test_start,
    )


def split_to_log(dataset: SplitDataset, split: InteractionSplit, day: int) -> EventLog:
    """Render one reconciled split back into an event log (single timestamp)."""
    groups = (split.applies, split.reachouts, split.matches)
    rows = np.concatenate(groups)
    kinds = np.repeat([Kind.APPLY, Kind.REACHOUT, Kind.MATCH], [len(g) for g in groups])
    days = np.full(len(rows), day)
    return EventLog(dataset.n, dataset.m, kinds, rows[:, 0], rows[:, 1], days)


class Side(enum.Enum):
    CANDIDATE = "candidate"
    JOB = "job"


@dataclass(frozen=True)
class DocTable:
    """Frozen per-user document embeddings for one side, float32 rows."""

    side: Side
    rows: np.ndarray

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def load_doc_embeddings(path: str | Path, side: Side, expected_count: int) -> DocTable:
    """Read a binary embedding table and validate it against the universe."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(EMBED_MAGIC) + 8:
        raise DataFormatError(f"{path}: truncated embedding file")
    if blob[: len(EMBED_MAGIC)] != EMBED_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not an embedding table")
    count, dim = struct.unpack_from("<II", blob, len(EMBED_MAGIC))
    if count != expected_count:
        raise DataFormatError(
            f"{path}: table has {count} rows, expected {expected_count} for {side.value}s"
        )
    offset = len(EMBED_MAGIC) + 8
    expected_bytes = count * dim * 4
    payload = blob[offset:]
    if len(payload) != expected_bytes:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected_bytes}"
        )
    rows = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    if not np.all(np.isfinite(rows)):
        raise DataFormatError(f"{path}: embedding table contains non-finite values")
    return DocTable(side=side, rows=rows.astype(np.float32))


def write_doc_embeddings(path: str | Path, table: DocTable) -> None:
    rows = np.ascontiguousarray(table.rows, dtype="<f4")
    header = EMBED_MAGIC + struct.pack("<II", rows.shape[0], rows.shape[1])
    write_atomic(path, header + rows.tobytes(order="C"))


def zero_doc_table(side: Side, count: int, dim: int) -> DocTable:
    """Fallback table for users without text. Callers should warn when used."""
    logger.warning("no document embeddings for %ss, using zero vectors", side.value)
    return DocTable(side=side, rows=np.zeros((count, dim), dtype=np.float32))


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic two-sided interaction generator.

    ``asymmetry`` controls how far each user's outgoing taste drifts from the
    taste others have for them: 0 makes the active and passive latent vectors
    identical, 1 makes them independent.
    """

    n: int = 1000
    m: int = 800
    d_latent: int = 16
    d_o: int = 32
    days: int = 106
    apply_rate: float = 0.08
    reachout_rate: float = 0.08
    match_threshold: float = 0.0
    asymmetry: float = 0.5
    seed: int = 7

    def validate(self) -> None:
        if self.n <= 0 or self.m <= 0:
            raise ConfigError(f"need positive universe sizes, got n={self.n}, m={self.m}")
        if self.d_latent <= 0 or self.d_o <= 0:
            raise ConfigError("latent and document dimensions must be positive")
        if self.days <= 0:
            raise ConfigError(f"days must be positive, got {self.days}")
        for name in ("apply_rate", "reachout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
        if not 0.0 <= self.asymmetry <= 1.0:
            raise ConfigError(f"asymmetry must lie in [0, 1], got {self.asymmetry}")

    def as_dict(self) -> dict[str, object]:
        """The generator settings, in declaration order; a subclass adds none."""
        return {f.name: getattr(self, f.name) for f in fields(SyntheticSpec)}


def _correlated_latents(
    rng: np.random.Generator, count: int, dim: int, asymmetry: float
) -> tuple[np.ndarray, np.ndarray]:
    active = rng.standard_normal((count, dim))
    noise = rng.standard_normal((count, dim))
    rho = 1.0 - asymmetry
    passive = rho * active + np.sqrt(max(0.0, 1.0 - rho * rho)) * noise
    return active, passive


def generate_synthetic(spec: SyntheticSpec) -> tuple[EventLog, DocTable, DocTable]:
    """Sample an event log plus document tables from a latent two-sided model.

    Each side gets active (initiating) and passive (receiving) latent vectors.
    A candidate applies with probability apply_rate * sigmoid(intent) where
    intent is the scaled dot of their active vector with the job's passive
    one; reach-outs mirror this. A match replaces the directed events of a
    pair when both directions fired and both intents clear match_threshold.
    Outputs are a deterministic function of the knobs, seed included.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    cand_active, cand_passive = _correlated_latents(rng, spec.n, spec.d_latent, spec.asymmetry)
    job_active, job_passive = _correlated_latents(rng, spec.m, spec.d_latent, spec.asymmetry)

    scale = 1.0 / np.sqrt(spec.d_latent)
    cand_intent = cand_active @ job_passive.T * scale          # (n, m) candidate -> job
    job_intent = (job_active @ cand_passive.T).T * scale       # (n, m) job -> candidate

    apply_fired = rng.random((spec.n, spec.m)) < spec.apply_rate * expit(cand_intent)
    reach_fired = rng.random((spec.n, spec.m)) < spec.reachout_rate * expit(job_intent)
    matched = (
        apply_fired
        & reach_fired
        & (cand_intent > spec.match_threshold)
        & (job_intent > spec.match_threshold)
    )

    columns = []
    for kind, mask in (
        (Kind.APPLY, apply_fired & ~matched),
        (Kind.REACHOUT, reach_fired & ~matched),
        (Kind.MATCH, matched),
    ):
        cands, jobs = np.nonzero(mask)
        days = rng.integers(0, spec.days, size=cands.size)
        columns.append((np.full(cands.size, kind), cands, jobs, days))
    kinds, cands, jobs, days = (np.concatenate(column) for column in zip(*columns))

    # Documents are a fixed random projection of the concatenated latents
    # plus noise, so the text signal is informative but not sufficient.
    proj_scale = 1.0 / np.sqrt(2 * spec.d_latent)
    cand_proj = rng.standard_normal((2 * spec.d_latent, spec.d_o)) * proj_scale
    job_proj = rng.standard_normal((2 * spec.d_latent, spec.d_o)) * proj_scale
    cand_rows = np.hstack([cand_active, cand_passive]) @ cand_proj
    cand_rows += _TEXT_NOISE * rng.standard_normal((spec.n, spec.d_o))
    job_rows = np.hstack([job_active, job_passive]) @ job_proj
    job_rows += _TEXT_NOISE * rng.standard_normal((spec.m, spec.d_o))

    log = EventLog(spec.n, spec.m, kinds, cands, jobs, days)
    cand_table = DocTable(Side.CANDIDATE, cand_rows.astype(np.float32))
    job_table = DocTable(Side.JOB, job_rows.astype(np.float32))
    return log, cand_table, job_table
