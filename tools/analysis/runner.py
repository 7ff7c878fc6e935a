"""Command-line driver: ``python -m tools.analysis [paths...]``.

Runs every registered checker over all python files beneath the given
paths (default: ``src benchmarks``), prints findings sorted by location
and exits non-zero when any non-baselined invariant is violated.

Robustness and speed:

* a file that cannot be read or parsed becomes a regular ``E000``
  finding with a location — never an uncaught traceback;
* ``--jobs N`` fans the per-file analysis out over N worker processes
  (files are independent: every checker is per-module);
* a content-hash cache (``.analysis_cache.json``) skips re-analysis of
  files whose bytes — and the checker suite itself — are unchanged;
* ``--sarif FILE`` writes SARIF 2.1.0 for code-scanning upload, with
  baselined findings carried as suppressed results;
* ``--baseline FILE`` (default ``tools/analysis/baseline.json``) holds
  accepted findings with per-entry justifications; they do not gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tools.analysis.base import Finding, iter_python_files, load_source

CACHE_FILE = ".analysis_cache.json"
_CACHE_VERSION = 1


def _all_checkers():
    from tools.analysis import ALL_CHECKERS
    return ALL_CHECKERS


def _selected(only: Optional[Sequence[str]]):
    return [cls for cls in _all_checkers()
            if only is None or cls.name in only]


def analyze_file(
    path: Path, only: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], Dict[str, float]]:
    """All findings for one file, plus per-checker wall seconds."""
    mod, failure = load_source(path)
    if failure is not None:
        return [failure], {}
    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    for cls in _selected(only):
        t0 = time.perf_counter()
        findings.extend(cls().check(mod))
        timings[cls.name] = (timings.get(cls.name, 0.0)
                             + time.perf_counter() - t0)
    return findings, timings


def _analyze_for_pool(args: Tuple[str, Optional[Tuple[str, ...]]]):
    path, only = args
    findings, timings = analyze_file(Path(path), only)
    return path, [tuple(f.__dict__.values()) for f in findings], timings


def run_checkers(paths: Iterable[str],
                 only: Optional[Sequence[str]] = None) -> List[Finding]:
    """All findings from the selected checkers over ``paths``."""
    findings: List[Finding] = []
    for f in iter_python_files(paths):
        findings.extend(analyze_file(f, only)[0])
    findings.sort(key=lambda f: (f.path, f.line, f.code, f.message))
    return findings


# -- content-hash cache ---------------------------------------------------------

def _suite_fingerprint() -> str:
    """Hash of the checker suite's own sources: any edit invalidates."""
    digest = hashlib.sha256()
    suite_dir = Path(__file__).resolve().parent
    for src in sorted(suite_dir.rglob("*.py")):
        digest.update(src.as_posix().encode())
        try:
            digest.update(src.read_bytes())
        except OSError:
            digest.update(b"<unreadable>")
    return digest.hexdigest()


def _load_cache(cache_path: Path, key: str) -> Dict[str, Dict]:
    try:
        raw = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict) or raw.get("key") != key:
        return {}
    files = raw.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(cache_path: Path, key: str,
                files: Dict[str, Dict]) -> None:
    try:
        cache_path.write_text(json.dumps(
            {"version": _CACHE_VERSION, "key": key, "files": files},
            sort_keys=True,
        ))
    except OSError:
        pass  # caching is best-effort


def _finding_to_list(f: Finding) -> List:
    return [f.checker, f.code, f.path, f.line, f.message]


def _finding_from_list(raw) -> Finding:
    checker, code, path, line, message = raw
    return Finding(checker, code, path, int(line), message)


# -- driver ---------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    names = sorted(cls.name for cls in _all_checkers())
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="Repo-specific invariant checkers (flow-sensitive "
                    "lints for memory/lock/Schur/dtype/axpy/"
                    "blocking/determinism discipline).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "benchmarks"],
        help="files or directories to check (default: src benchmarks)",
    )
    parser.add_argument(
        "--checker", action="append", choices=names, metavar="NAME",
        help=f"run only this checker (repeatable; one of: {', '.join(names)})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="analyse files on N worker processes (default: 1)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="write findings (including suppressed ones) as SARIF 2.1.0",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline JSON of accepted findings "
             "(default: tools/analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: every finding gates",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash cache",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary, print findings only",
    )
    args = parser.parse_args(argv)
    only = tuple(args.checker) if args.checker else None

    files = list(iter_python_files(args.paths))
    cache_key = "|".join([
        str(_CACHE_VERSION), _suite_fingerprint(),
        ",".join(only or ("<all>",)),
    ])
    cache_path = Path(CACHE_FILE)
    cached = ({} if args.no_cache
              else _load_cache(cache_path, cache_key))

    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    new_cache: Dict[str, Dict] = {}
    todo: List[Tuple[Path, str]] = []
    n_cached = 0
    for f in files:
        posix = f.as_posix()
        try:
            content_hash = hashlib.sha256(f.read_bytes()).hexdigest()
        except OSError:
            content_hash = None
        entry = cached.get(posix)
        if (content_hash is not None and entry is not None
                and entry.get("hash") == content_hash):
            findings.extend(
                _finding_from_list(raw) for raw in entry["findings"]
            )
            new_cache[posix] = entry
            n_cached += 1
        else:
            todo.append((f, content_hash))

    def record(path: Path, content_hash, file_findings, file_timings):
        findings.extend(file_findings)
        for name, seconds in file_timings.items():
            timings[name] = timings.get(name, 0.0) + seconds
        if content_hash is not None:
            new_cache[path.as_posix()] = {
                "hash": content_hash,
                "findings": [_finding_to_list(x) for x in file_findings],
            }

    if args.jobs > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = pool.map(
                _analyze_for_pool,
                [(f.as_posix(), only) for f, _ in todo],
            )
            hash_by_path = {f.as_posix(): h for f, h in todo}
            for path_str, raw_findings, file_timings in results:
                record(Path(path_str), hash_by_path[path_str],
                       [Finding(*raw) for raw in raw_findings],
                       file_timings)
    else:
        for f, content_hash in todo:
            file_findings, file_timings = analyze_file(f, only)
            record(f, content_hash, file_findings, file_timings)

    if not args.no_cache:
        _save_cache(cache_path, cache_key, new_cache)

    findings.sort(key=lambda x: (x.path, x.line, x.code, x.message))

    # -- baseline -------------------------------------------------------------
    from tools.analysis.baselines import (DEFAULT_BASELINE, load_baseline,
                                          split_baselined)
    suppressed: List[Tuple[Finding, str]] = []
    if not args.no_baseline:
        baseline_path = (Path(args.baseline) if args.baseline
                         else DEFAULT_BASELINE)
        entries, baseline_errors = load_baseline(baseline_path)
        findings.extend(baseline_errors)
        findings, suppressed = split_baselined(findings, entries)

    if args.sarif:
        from tools.analysis.sarif import write_sarif
        write_sarif(args.sarif, findings, suppressed)

    for f in findings:
        print(f.render())

    if not args.quiet:
        selected = list(only) if only else names
        scope = " ".join(args.paths)
        counts: Dict[str, int] = {}
        for f in findings:
            counts[f.checker] = counts.get(f.checker, 0) + 1
        print(file=sys.stderr)
        print(f"{'checker':<22} {'findings':>8} {'seconds':>8}",
              file=sys.stderr)
        for name in selected:
            print(f"{name:<22} {counts.get(name, 0):>8} "
                  f"{timings.get(name, 0.0):>8.2f}", file=sys.stderr)
        if counts.get("runner"):
            print(f"{'runner (E000)':<22} {counts['runner']:>8} "
                  f"{'':>8}", file=sys.stderr)
        extras = []
        if n_cached:
            extras.append(f"{n_cached}/{len(files)} files cached")
        if suppressed:
            extras.append(f"{len(suppressed)} baselined finding(s) "
                          f"suppressed")
        suffix = f" ({'; '.join(extras)})" if extras else ""
        if findings:
            print(f"\n{len(findings)} finding(s) in {scope}{suffix}",
                  file=sys.stderr)
        else:
            print(f"\nOK: {scope} clean{suffix}", file=sys.stderr)
    return 1 if findings else 0
