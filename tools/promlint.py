#!/usr/bin/env python3
"""promlint — lint tsd's /metrics exposition and cross-check it against STATS.

Usage:
    promlint.py SCRAPE [--previous EARLIER_SCRAPE] [--stats STATS_JSON]

SCRAPE is a file holding one GET /metrics body (Prometheus text exposition
format 0.0.4). The lint enforces the invariants the daemon's renderer is
supposed to guarantee by construction — this script is the independent
check that it actually does:

  * every sample belongs to a family declared with both # HELP and # TYPE,
    and samples sit directly under their family block (no interleaving);
  * no family is declared twice;
  * counter families are `_total`-suffixed;
  * every value parses as a finite float and no series repeats.

With --previous (an earlier scrape of the same daemon), every counter
series from the earlier scrape must still exist and must not have
decreased — counters only go up.

With --stats (the JSON body of a STATS reply captured while the daemon is
idle), the numeric totals exposed on /metrics must equal the corresponding
STATS fields exactly: both renderings are defined to come from the same
snapshot structure, so any drift is a bug, not noise.

Exit status: 0 clean, 1 on any violation (each printed to stderr), 2 usage.
Stdlib only — CI runs this on a bare runner.
"""

import json
import math
import sys

VIOLATIONS = []


def violation(msg):
    VIOLATIONS.append(msg)
    print("promlint: " + msg, file=sys.stderr)


def parse_labels(text, where):
    """Parses '{k="v",...}' into a sorted tuple of (key, value) pairs."""
    labels = []
    i = 0
    while i < len(text):
        eq = text.find('=', i)
        if eq < 0 or eq + 1 >= len(text) or text[eq + 1] != '"':
            violation(f"{where}: malformed labels '{{{text}}}'")
            return None
        key = text[i:eq].strip()
        value = []
        j = eq + 2
        while j < len(text) and text[j] != '"':
            if text[j] == '\\' and j + 1 < len(text):
                esc = text[j + 1]
                value.append({'n': '\n', '\\': '\\', '"': '"'}.get(esc, esc))
                j += 2
            else:
                value.append(text[j])
                j += 1
        if j >= len(text):
            violation(f"{where}: unterminated label value in '{{{text}}}'")
            return None
        labels.append((key, ''.join(value)))
        i = j + 1
        if i < len(text) and text[i] == ',':
            i += 1
    return tuple(sorted(labels))


def parse_exposition(path):
    """Returns (families, series): family name -> type, and
    (name, labels) -> float value. Lints structure along the way."""
    families = {}   # name -> type
    helps = set()
    series = {}     # (name, labels) -> value
    current = None  # family of the open block
    with open(path, encoding='utf-8') as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line.strip():
            continue
        if line.startswith('# HELP '):
            parts = line.split(' ', 3)
            if len(parts) < 4 or not parts[3]:
                violation(f"{where}: HELP without text")
                continue
            if parts[2] in helps:
                violation(f"{where}: duplicate HELP for family '{parts[2]}'")
            helps.add(parts[2])
            continue
        if line.startswith('# TYPE '):
            parts = line.split(' ')
            if len(parts) != 4:
                violation(f"{where}: malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if kind not in ('counter', 'gauge', 'histogram', 'summary', 'untyped'):
                violation(f"{where}: unknown type '{kind}' for family '{name}'")
            if name in families:
                violation(f"{where}: duplicate TYPE for family '{name}'")
            if name not in helps:
                violation(f"{where}: TYPE for '{name}' without a preceding HELP")
            if kind == 'counter' and not name.endswith('_total'):
                violation(f"{where}: counter family '{name}' lacks the _total suffix")
            families[name] = kind
            current = name
            continue
        if line.startswith('#'):
            continue  # comments are legal exposition content
        # Sample: name[{labels}] value
        brace = line.find('{')
        if brace >= 0:
            close = line.rfind('}')
            if close < brace:
                violation(f"{where}: unbalanced braces")
                continue
            name = line[:brace]
            labels = parse_labels(line[brace + 1:close], where)
            if labels is None:
                continue
            value_text = line[close + 1:].strip()
        else:
            name, _, value_text = line.partition(' ')
            labels = ()
            value_text = value_text.strip()
        if name not in families:
            violation(f"{where}: sample for undeclared family '{name}'")
            continue
        if name != current:
            violation(f"{where}: sample for '{name}' outside its family block "
                      f"(current block: '{current}')")
        try:
            value = float(value_text)
        except ValueError:
            violation(f"{where}: unparseable value '{value_text}'")
            continue
        if math.isnan(value) or math.isinf(value):
            violation(f"{where}: non-finite value for '{name}'")
            continue
        key = (name, labels)
        if key in series:
            violation(f"{where}: duplicate series {name}{dict(labels)}")
        series[key] = value
    return families, series


def check_monotone(prev_path, cur_path, prev, cur, families):
    for (name, labels), before in prev.items():
        if families.get(name) != 'counter':
            continue
        if (name, labels) not in cur:
            violation(f"counter series {name}{dict(labels)} present in "
                      f"{prev_path} vanished from {cur_path}")
            continue
        after = cur[(name, labels)]
        if after < before:
            violation(f"counter {name}{dict(labels)} decreased: "
                      f"{before} -> {after}")


# /metrics family (no labels) -> path into the STATS JSON object. Families
# whose STATS source is optional (cache block) are simply skipped when the
# path is absent.
STATS_MAP = {
    'ts_server_admitted_total': ('server', 'admitted'),
    'ts_server_completed_total': ('server', 'completed'),
    'ts_server_failed_total': ('server', 'failed'),
    'ts_server_cancelled_total': ('server', 'cancelled'),
    'ts_server_rejected_total': ('server', 'rejected'),
    'ts_server_poison_blocked_total': ('server', 'poison_blocked'),
    'ts_server_retries_total': ('server', 'retries'),
    'ts_server_workers': ('server', 'workers'),
    'ts_server_jsonl_faults_total': ('server', 'jsonl_faults'),
    'ts_queue_depth': ('server', 'queue_depth'),
    'ts_queue_in_flight': ('server', 'in_flight'),
    'ts_queue_high_depth': ('server', 'high_queued'),
    'ts_queue_high_served_total': ('server', 'high_served'),
    'ts_queue_normal_served_total': ('server', 'normal_served'),
    'ts_budget_total_ms': ('budget', 'total_ms'),
    'ts_budget_remaining_ms': ('budget', 'remaining_ms'),
    'ts_cache_hits_total': ('cache', 'hits'),
    'ts_cache_misses_total': ('cache', 'misses'),
    'ts_cache_stores_total': ('cache', 'stores'),
    'ts_cache_rejects_total': ('cache', 'rejects'),
    'ts_cache_near_hits_total': ('cache', 'near_hits'),
    'ts_cache_recovered_entries_total': ('cache', 'recovered_entries'),
    'ts_cache_recovered_tmp_total': ('cache', 'recovered_tmp'),
    'ts_cache_store_retries_total': ('cache', 'store_retries'),
    'ts_cache_hot_hits_total': ('cache', 'hot_hits'),
    'ts_cache_hot_evictions_total': ('cache', 'hot_evictions'),
    'ts_cache_hot_cost_evictions_total': ('cache', 'hot_cost_evictions'),
    'ts_cache_hot_cost_retained_seconds_total': ('cache', 'hot_cost_retained_seconds'),
    'ts_cache_hot_entries': ('cache', 'hot_entries'),
    'ts_cache_hot_bytes': ('cache', 'hot_bytes'),
    'ts_portfolio_runs_total': ('portfolio', 'runs'),
    'ts_portfolio_cancelled_engines_total': ('portfolio', 'cancelled_engines'),
    'ts_portfolio_cancelled_wall_saved_seconds_total':
        ('portfolio', 'cancelled_wall_saved_seconds'),
    'ts_ledger_probes_total': ('ledger', 'probes'),
    'ts_ledger_imported_probes_total': ('ledger', 'imported_probes'),
    'ts_flow_seconds_total': ('flow_seconds',),
}

# Labeled families: metric -> (label key, path prefix, optional leaf).
LABELED_STATS_MAP = {
    'ts_portfolio_wins_total': ('engine', ('portfolio', 'wins'), None),
    'ts_stage_seconds_total': ('stage', ('stages',), 'seconds'),
    'ts_stage_runs_total': ('stage', ('stages',), 'runs'),
    'ts_failpoint_triggers_total': ('site', ('failpoints',), None),
}


def json_path(obj, path):
    for step in path:
        if not isinstance(obj, dict) or step not in obj:
            return None
        obj = obj[step]
    return obj


def check_stats(stats_path, series):
    with open(stats_path, encoding='utf-8') as handle:
        stats = json.load(handle)
    for metric, path in STATS_MAP.items():
        expected = json_path(stats, path)
        got = series.get((metric, ()))
        if expected is None:
            if got is not None and not path[0] == 'cache':
                violation(f"{metric} exposed but STATS lacks {'.'.join(path)}")
            continue
        if got is None:
            violation(f"STATS has {'.'.join(path)} but /metrics lacks {metric}")
            continue
        if float(expected) != got:
            violation(f"{metric} = {got} but STATS {'.'.join(path)} = {expected}")
    for metric, (label_key, prefix, leaf) in LABELED_STATS_MAP.items():
        table = json_path(stats, prefix)
        if not isinstance(table, dict):
            continue
        for entry_name, entry in table.items():
            expected = entry if leaf is None else entry.get(leaf)
            key = (metric, ((label_key, entry_name),))
            got = series.get(key)
            if got is None:
                violation(f"STATS {'.'.join(prefix)}[{entry_name}] has no "
                          f"{metric}{{{label_key}=\"{entry_name}\"}} sample")
            elif float(expected) != got:
                violation(f"{metric}{{{label_key}=\"{entry_name}\"}} = {got} "
                          f"but STATS says {expected}")


def main(argv):
    scrape = None
    previous = None
    stats = None
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == '--previous' and i + 1 < len(argv):
            previous = argv[i + 1]
            i += 2
        elif arg == '--stats' and i + 1 < len(argv):
            stats = argv[i + 1]
            i += 2
        elif arg.startswith('-'):
            print(__doc__, file=sys.stderr)
            return 2
        elif scrape is None:
            scrape = arg
            i += 1
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if scrape is None:
        print(__doc__, file=sys.stderr)
        return 2

    families, series = parse_exposition(scrape)
    if not families:
        violation(f"{scrape}: no metric families at all")
    if previous is not None:
        _, prev_series = parse_exposition(previous)
        check_monotone(previous, scrape, prev_series, series, families)
    if stats is not None:
        check_stats(stats, series)

    if VIOLATIONS:
        print(f"promlint: {len(VIOLATIONS)} violation(s)", file=sys.stderr)
        return 1
    print(f"promlint: {scrape}: {len(families)} families, "
          f"{len(series)} series, clean")
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
