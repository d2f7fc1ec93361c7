#!/bin/bash
# Runs bench binaries, logging to bench_logs/<name>.log.
#
# Usage:
#   ./run_benches.sh            # the main paper-table suite
#   ./run_benches.sh wave2      # companion benches added after the main suite
#   ./run_benches.sh all        # everything, kernels included
#   ./run_benches.sh kernels    # just the compute-kernel scaling bench
#   ./run_benches.sh NAME...    # any explicit list of bench binaries

set -u
# Paths resolve from this script's checkout, so any clone runs its own build.
ROOT=$(cd "$(dirname "$0")" && pwd)
LOGS="$ROOT/bench_logs"
cd "$ROOT/build/bench" || exit 1
mkdir -p "$LOGS"

MAIN="bench_table1_datasets bench_table2_overall bench_fig3_ablation \
      bench_table4_slide_modes bench_fig6_noise bench_fig4_alpha \
      bench_table3_sfs bench_table5_depth bench_fig5_seqlen_hidden \
      bench_fig7_filters bench_complexity"
WAVE2="bench_table4_slide_modes bench_ablation_mixing bench_sampled_metrics"
KERNELS="bench_kernels"
SERVING="bench_serving"
CLUSTER="bench_cluster"

case "${1:-main}" in
  main)    BENCHES="$MAIN" ;;
  wave2)   BENCHES="$WAVE2" ;;
  kernels) BENCHES="$KERNELS" ;;
  serving) BENCHES="$SERVING" ;;
  cluster) BENCHES="$CLUSTER" ;;
  all)     BENCHES="$MAIN $WAVE2 $KERNELS $SERVING $CLUSTER" ;;
  *)       BENCHES="$*" ;;
esac

FAILED=0
for b in $BENCHES; do
  echo "=== $b start $(date +%H:%M:%S) ==="
  ./$b > "$LOGS/$b.log" 2>&1
  rc=$?
  echo "=== $b done  $(date +%H:%M:%S) rc=$rc ==="
  # bench_kernels exits nonzero when a per-arm CRC bit-identity or
  # packed-rfft quality gate fails; surface that instead of swallowing it.
  if [ $rc -ne 0 ]; then FAILED=1; fi
done
exit $FAILED
