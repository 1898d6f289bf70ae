#!/bin/sh
# Desk-scale walkthrough of the whole workflow via the CLI.
# Usage: scripts/run_pipeline_demo.sh [workdir]
set -e

WORK=${1:-demo_run}
mkdir -p "$WORK"

bpwave synth --n 64 --seed 7 --out "$WORK/raw.p2a"
bpwave stats "$WORK/raw.p2a"
bpwave preprocess --in "$WORK/raw.p2a" --out "$WORK/prep.p2a"
bpwave split --in "$WORK/prep.p2a" --train-count 48 --seed 7 \
    --train-out "$WORK/train.p2a" --test-out "$WORK/test.p2a"
bpwave train --data "$WORK/train.p2a" --out "$WORK/bundle" \
    --width 0.0625 --epochs 60 --batch-size 8 --seed 7 --bn-refresh
bpwave infer --bundle "$WORK/bundle" --data "$WORK/raw.p2a" \
    --out "$WORK/preds.csv" --dump-waveforms "$WORK/waveforms"
bpwave evaluate --pred "$WORK/preds.csv" --out "$WORK/report.json" \
    --text "$WORK/report.txt" --figures "$WORK/figures"

echo
echo "artifacts in $WORK/: report.json, report.txt, figures/, waveforms/"
