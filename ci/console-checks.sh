#!/usr/bin/env bash
# Checks of the ioperiod console script that need the command itself: the
# files it writes, its outputs for equivalent inputs, and its error
# messages.  The command is $IOPERIOD, default "ioperiod"; from a checkout
# without installing, run
#   PYTHONPATH=$PWD/src IOPERIOD="python -m ioperiod.cli" bash ci/console-checks.sh
# It works in a temporary directory that it removes on exit.
set -euo pipefail
IOPERIOD=${IOPERIOD:-ioperiod}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

$IOPERIOD generate --out synth.jsonl --iterations 4 --request-bytes 16000000
# every line is spelled exactly as json.dumps spells its record
python -c 'import json
for n, line in enumerate(open("synth.jsonl").read().splitlines(), 1):
    assert line == json.dumps(json.loads(line)), (n, line)'
# the same seed writes the same file
$IOPERIOD generate --out synth-again.jsonl --iterations 4 --request-bytes 16000000
cmp synth.jsonl synth-again.jsonl
$IOPERIOD detect synth.jsonl --freq 1 --format text
# CRLF line endings give the same result
sed 's/$/\r/' synth.jsonl > synth-crlf.jsonl
$IOPERIOD detect synth.jsonl --freq 1 > detect.json
$IOPERIOD detect synth-crlf.jsonl --freq 1 > detect-crlf.json
cmp detect.json detect-crlf.json
# every other line in compact separators, also read in bulk, and
# every 50th with its keys in another order, read line by line,
# give the same result
python -c 'import json
lines = open("synth.jsonl").read().splitlines()
with open("synth-mixed.jsonl", "w") as f:
    for n, line in enumerate(lines):
        if n % 50 == 0:
            line = json.dumps(json.loads(line), sort_keys=True)
        elif n % 2:
            line = json.dumps(json.loads(line), separators=(",", ":"))
        f.write(line + "\n")'
$IOPERIOD detect synth-mixed.jsonl --freq 1 > detect-mixed.json
cmp detect.json detect-mixed.json
# every line re-spaced in valid JSON that the bulk path refuses (spaces
# before punctuation, or a tab after each colon), so read line by line,
# gives the same result
python -c 'import json
lines = open("synth.jsonl").read().splitlines()
for name, separators in (("spaced", (" , ", " : ")), ("tab", (", ", ":\t"))):
    with open(f"synth-{name}.jsonl", "w") as f:
        for line in lines:
            f.write(json.dumps(json.loads(line), separators=separators) + "\n")'
for name in spaced tab; do
    $IOPERIOD detect synth-$name.jsonl --freq 1 > detect-$name.json
    cmp detect.json detect-$name.json
done
# an infinite end spelled as write_trace spells a record, inside a
# run read in bulk, names its line
sed '100s/"end": [^,]*/"end": 1e999/' synth.jsonl > inf.jsonl
if $IOPERIOD detect inf.jsonl --freq 1 2> inf.err; then exit 1; fi
grep -q "^error: line 100: end must be finite" inf.err
if grep -q Traceback inf.err; then exit 1; fi
# a file cut mid-line reads as the file without its last line
head -c -30 synth.jsonl > synth-cut.jsonl
head -n -1 synth.jsonl > synth-whole.jsonl
$IOPERIOD detect synth-cut.jsonl --freq 1 > detect-cut.json
$IOPERIOD detect synth-whole.jsonl --freq 1 > detect-whole.json
cmp detect-cut.json detect-whole.json
# a negative bound in scientific notation is a value, not a flag
$IOPERIOD detect synth.jsonl --freq 1 --window -1e1 1e2 > window.json
# at 30 Hz the window holds 2302 = 2*1151 samples, an even length whose
# bins come from a half-length complex FFT, not split
$IOPERIOD detect synth.jsonl --freq 30 --spectrum-out d.csv > /dev/null
python -c 'import csv; from ioperiod import spectral
n = round(30 / float(list(csv.DictReader(open("d.csv")))[1]["f_k"]))
assert n == 2302 and spectral._plan(n) == (True, 0), n'
# at 54 Hz it holds 4145 = 5*829 samples, transformed as a 829 x 5 grid;
# the DC bin is exactly real there too, so its phase is 0 or pi
$IOPERIOD detect synth.jsonl --freq 54 --spectrum-out s.csv > /dev/null
python -c 'import csv, math; from ioperiod import spectral
rows = list(csv.DictReader(open("s.csv")))
n = round(54 / float(rows[1]["f_k"]))
assert n == 4145 and spectral._plan(n) == (False, 829), n
assert float(rows[0]["phase"]) in (0.0, math.pi), rows[0]'
$IOPERIOD predict synth.jsonl --freq 1 --idle-timeout 1 --log-level debug > predict.jsonl 2> predict.log
# the debug log has a line per append that names its window
grep -q "window (.*) full" predict.log
# one iteration has no mean length; the truth file must still be JSON
$IOPERIOD generate --out one.jsonl --iterations 1 --request-bytes 16000000 --truth truth.json
# a zero request size is an error message, not a traceback
if $IOPERIOD generate --out z.jsonl --request-bytes 0 2> zero.err; then exit 1; fi
grep -q "^error: " zero.err
if grep -q Traceback zero.err; then exit 1; fi
# a one-iteration sweep has no mean length to score against: an error too
if $IOPERIOD bench --repetitions 1 --iterations 1 2> one.err; then exit 1; fi
grep -q "^error: " one.err
if grep -q Traceback one.err; then exit 1; fi
# a non-finite generator value is an error, not an endless draw
if timeout 60 $IOPERIOD generate --out nan.jsonl --compute-std nan 2> nan.err; then exit 1; fi
grep -q "^error: " nan.err
if grep -q Traceback nan.err; then exit 1; fi
# so is noise over a trace too long to fill with bursts
if timeout 60 $IOPERIOD generate --out n.jsonl --noise low --compute-mean 1e12 --iterations 2 --request-bytes 16000000 2> noise.err; then exit 1; fi
grep -q "^error: .*compute_mean" noise.err
if grep -q Traceback noise.err; then exit 1; fi
# so is a window without finite bounds
if $IOPERIOD detect synth.jsonl --window nan 5 2> nan-window.err; then exit 1; fi
grep -q "^error: " nan-window.err
if grep -q Traceback nan-window.err; then exit 1; fi
# integer times that round onto each other name their line
echo '{"rank": 0, "start": 9007199254740992.0, "end": 9007199254740993, "bytes": 5, "kind": "read"}' > round.jsonl
if $IOPERIOD detect round.jsonl 2> round.err; then exit 1; fi
grep -q "^error: line 1: zero-duration" round.err
if grep -q Traceback round.err; then exit 1; fi
# epoch timestamps, 30 one-second pulses every 10 s from 1.7e9 s: detect
# finds the period; predict measures its windows from trace time 0, so it
# needs --fixed-window, and without one it exits 1 with the window error
python -c 'import numpy as np; from ioperiod import Trace, write_trace
start = 1.7e9 + 10.0 * np.arange(30)
write_trace(Trace(np.zeros(30, int), start, start + 1.0, np.full(30, 10 ** 8),
                  np.ones(30, int)), "epoch.jsonl")'
$IOPERIOD detect epoch.jsonl --freq 10 > epoch.json
python -c 'import json; period = json.load(open("epoch.json"))["period_s"]
assert abs(period - 10.0) < 0.1, period'
$IOPERIOD predict epoch.jsonl --freq 10 --idle-timeout 0 --fixed-window 60 > epoch-predict.jsonl
python -c 'import json; records = [json.loads(line) for line in open("epoch-predict.jsonl")]
assert len(records) == 1 and records[0]["period_s"] == 10.0, records
assert records[0]["window"] == [1700000231.0, 1700000291.0], records[0]["window"]'
status=0
$IOPERIOD predict epoch.jsonl --freq 10 --idle-timeout 0 > /dev/null 2> epoch.err || status=$?
test "$status" -eq 1
grep -q "^error: window of" epoch.err
if grep -q Traceback epoch.err; then exit 1; fi
# a fixed window of fewer than 3 samples exits 1 rather than being widened
status=0
$IOPERIOD predict epoch.jsonl --fixed-window 0.2 --freq 10 --idle-timeout 0 > /dev/null \
    2> short-window.err || status=$?
test "$status" -eq 1
grep -q "^error: fixed window" short-window.err
if grep -q Traceback short-window.err; then exit 1; fi
# every output line is strict JSON: NaN or Infinity fails the step
python -c 'import json, sys
def reject(name): raise ValueError(f"{name} is not JSON")
for path in sys.argv[1:]:
    lines = open(path).read().splitlines()
    assert lines, f"{path} is empty"
    for line in lines: json.loads(line, parse_constant=reject)' detect.json window.json predict.jsonl truth.json \
    epoch.json epoch-predict.jsonl
$IOPERIOD bench --repetitions 1 --iterations 4 --out bench.csv
# a --config file's seed is the sweep's seed, as --seed is
echo '{"seed": 5}' > seed.json
$IOPERIOD bench --repetitions 1 --iterations 4 --config seed.json --out bench-config.csv
$IOPERIOD bench --repetitions 1 --iterations 4 --seed 5 --out bench-seed.csv
cmp bench-config.csv bench-seed.csv
# request times too large for their own resolution name the generator field
echo '{"compute_mean": 1e300, "iterations": 2}' > huge.json
if $IOPERIOD generate --out huge.jsonl --config huge.json 2> huge.err; then exit 1; fi
grep -q "^error: .*compute_mean" huge.err
if grep -q Traceback huge.err; then exit 1; fi
