#!/bin/bash
# Concatenates every bench log into bench_output.txt in the canonical
# table/figure order (equivalent to `for b in build/bench/*; do $b; done`,
# which regenerates it from scratch).
cd "$(dirname "$0")" || exit 1
out=bench_output.txt
: > $out
for b in bench_table1_datasets bench_table2_overall bench_fig3_ablation \
         bench_table3_sfs bench_table4_slide_modes bench_fig4_alpha \
         bench_fig5_seqlen_hidden bench_table5_depth bench_fig6_noise \
         bench_fig7_filters bench_ablation_mixing bench_sampled_metrics \
         bench_spectrum_analysis bench_complexity bench_kernels; do
  if [ -f bench_logs/$b.log ]; then
    echo "==================== $b ====================" >> $out
    cat bench_logs/$b.log >> $out
    echo >> $out
  fi
done
wc -l $out
