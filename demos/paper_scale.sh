#!/bin/sh
# The paper-scale reference run: A_limited_view at 256 x 256 with 100
# detectors, 150 training and 30 held-out phantoms, 100 epochs with a
# checkpoint every 10, then the held-out evaluation. Each verb runs in
# its own Python process through learnedbp.cli.main and is followed by
# its wall time and peak RSS. On one 2-core machine the four stages took
# 29, 6, 97 and 1 s, and train peaked at 1000 MB RSS (gen-data at 132 MB,
# evaluate at 298 MB). Outputs land in the directory given as the first
# argument, ./paper_scale_out by default. An optional second argument
# names another scenario label, run with that label's default detector
# count (20 for B_sparse and C_limited_sparse):
#   sh demos/paper_scale.sh paper_scale_b B_sparse
set -e

OUT=${1:-paper_scale_out}
LABEL=${2:-}
SRC=$(cd "$(dirname "$0")/../src" && pwd)
PYTHON=${PYTHON:-python3}
mkdir -p "$OUT"

if [ -z "$LABEL" ]; then
    printf 'label=A_limited_view\nn_s=100\n' > "$OUT/scenario.cfg"
else
    printf 'label=%s\n' "$LABEL" > "$OUT/scenario.cfg"
fi
printf 'n_x=256\nn_t=400\nseed=5\n' >> "$OUT/scenario.cfg"

# stage NAME VERB ARGS...: run one verb and print its wall time and peak RSS
stage() {
    echo "== $1 =="
    PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" "$PYTHON" -c '
import resource, sys, time
from learnedbp import cli
start = time.perf_counter()
code = cli.main(sys.argv[2:])
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"-- {sys.argv[1]}: wall {wall:.1f} s, peak RSS {peak:.0f} MB", flush=True)
sys.exit(code)
' "$@"
}

stage "gen-data, 150 training images" gen-data --scenario "$OUT/scenario.cfg" --out "$OUT/train" --count 150
stage "gen-data, 30 held-out images" gen-data --scenario "$OUT/scenario.cfg" --out "$OUT/test" --count 30 \
    --split test --seed 900
stage "train, 100 epochs" train --data "$OUT/train" --heldout "$OUT/test" --out "$OUT/run" \
    --epochs 100 --checkpoint-every 10
echo "-- first and last train.log lines (epoch, train loss, held-out loss, lr, seconds):"
head -1 "$OUT/run/train.log"
tail -1 "$OUT/run/train.log"
stage "evaluate, 30 held-out images" evaluate --data "$OUT/test" --weights "$OUT/run/weights_epoch0100.patb" \
    --out "$OUT/report.csv"
