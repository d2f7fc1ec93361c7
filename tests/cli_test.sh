#!/bin/sh
# End-to-end smoke test of the slime4rec_cli binary: generate -> stats ->
# train+save -> evaluate (checkpoint round-trip) -> recommend.
set -e
CLI="$1"
TMP="${TMPDIR:-/tmp}/slime_cli_test_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

"$CLI" generate --preset beauty-sim --scale 0.08 --out "$TMP/data.txt"
"$CLI" stats --data "$TMP/data.txt" | grep -q users
"$CLI" train --data "$TMP/data.txt" --epochs 2 --save "$TMP/m.ckpt" \
    > "$TMP/train.log"
grep -q "^test" "$TMP/train.log"
"$CLI" evaluate --data "$TMP/data.txt" --load "$TMP/m.ckpt" > "$TMP/eval.log"
# The evaluate metrics must match the post-training test metrics exactly
# (checkpoint round-trip determinism).
TRAIN_LINE=$(grep '^test' "$TMP/train.log" | tr -s ' ')
EVAL_LINE=$(grep '^test' "$TMP/eval.log" | tr -s ' ')
[ "$TRAIN_LINE" = "$EVAL_LINE" ] || { echo "metric mismatch:"; echo "$TRAIN_LINE"; echo "$EVAL_LINE"; exit 1; }
"$CLI" recommend --data "$TMP/data.txt" --load "$TMP/m.ckpt" --user 0 --topk 3 | grep -q top-3
# A checkpoint holds the model's header and parameters, not what Prepare
# derives from the data: a loaded MostPop must be prepared on the data
# again, or every item scores 0. Its evaluation must then repeat
# the training run's, and `recommend` must list the most frequent
# training-region items (all but each user's last two; users with fewer
# than 5 events are dropped), equal counts in ascending id order, leaving
# out the items of the user's printed history.
"$CLI" train --data "$TMP/data.txt" --model MostPop --epochs 1 \
    --save "$TMP/pop.ckpt" > "$TMP/pop_train.log"
"$CLI" evaluate --data "$TMP/data.txt" --load "$TMP/pop.ckpt" \
    > "$TMP/pop_eval.log"
TRAIN_LINE=$(grep '^test' "$TMP/pop_train.log" | tr -s ' ')
EVAL_LINE=$(grep '^test' "$TMP/pop_eval.log" | tr -s ' ')
[ "$TRAIN_LINE" = "$EVAL_LINE" ] || { echo "MostPop metric mismatch:"; echo "$TRAIN_LINE"; echo "$EVAL_LINE"; exit 1; }
"$CLI" recommend --data "$TMP/data.txt" --load "$TMP/pop.ckpt" \
    --user 0 --topk 5 > "$TMP/pop_rec.log"
HISTORY=$(grep '^history:' "$TMP/pop_rec.log" | cut -d: -f2)
WANT=$(awk -v seen="$HISTORY" \
           'BEGIN { n = split(seen, s, " "); for (i = 1; i <= n; ++i) h[s[i]] = 1 }
            NF >= 5 { for (i = 1; i <= NF - 2; ++i) c[$i]++ }
            END { for (v in c) if (!(v in h)) print c[v], v }' "$TMP/data.txt" |
       sort -k1,1nr -k2,2n | head -5 | awk '{ printf " %s", $2 }')
GOT=$(grep '^top-5:' "$TMP/pop_rec.log")
[ "$GOT" = "top-5:$WANT" ] || { echo "MostPop top-5 mismatch:"; echo "$GOT"; echo "top-5:$WANT"; exit 1; }
# The checkpoint decides the model: alpha and gamma shape no parameter, so
# only the header makes evaluate score the model that was trained. Model
# flags are not read by the load paths, and a checkpoint of another
# catalogue fails before any scoring.
"$CLI" train --data "$TMP/data.txt" --epochs 2 --alpha 0.9 --gamma 0 \
    --save "$TMP/alpha.ckpt" > "$TMP/alpha_train.log"
"$CLI" evaluate --data "$TMP/data.txt" --load "$TMP/alpha.ckpt" \
    > "$TMP/alpha_eval.log"
TRAIN_LINE=$(grep '^test' "$TMP/alpha_train.log" | tr -s ' ')
EVAL_LINE=$(grep '^test' "$TMP/alpha_eval.log" | tr -s ' ')
[ "$TRAIN_LINE" = "$EVAL_LINE" ] || { echo "alpha 0.9 metric mismatch:"; echo "$TRAIN_LINE"; echo "$EVAL_LINE"; exit 1; }
rc=0
"$CLI" evaluate --data "$TMP/data.txt" --load "$TMP/alpha.ckpt" \
    --alpha 0.9 >/dev/null 2>"$TMP/model_flag.err" || rc=$?
[ "$rc" = 2 ] || { echo "expected evaluate --alpha to exit 2, got $rc"; exit 1; }
grep -q "unknown flag --alpha for evaluate" "$TMP/model_flag.err"
for cmd in recommend serve; do
  rc=0
  "$CLI" $cmd --data "$TMP/data.txt" --load "$TMP/alpha.ckpt" \
      --model SLIME4Rec >/dev/null 2>&1 || rc=$?
  [ "$rc" = 2 ] || { echo "expected $cmd --model to exit 2, got $rc"; exit 1; }
done
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 4 \
    --reload "$TMP/alpha.ckpt" > "$TMP/serve_alpha.log"
grep -q "reload .*: InvalidArgument: .* alpha 0.9 differs from the model's 0.4" \
    "$TMP/serve_alpha.log"
grep -q "requests ok 4" "$TMP/serve_alpha.log"
"$CLI" generate --preset beauty-sim --scale 0.1 --out "$TMP/other.txt" \
    > /dev/null
rc=0
"$CLI" evaluate --data "$TMP/other.txt" --load "$TMP/m.ckpt" \
    > "$TMP/other_eval.log" 2>"$TMP/other_eval.err" || rc=$?
[ "$rc" = 1 ] || { echo "expected evaluate on other data to exit 1, got $rc"; exit 1; }
grep -q "error: InvalidArgument: checkpoint .* holds a model of" \
    "$TMP/other_eval.err"
if grep -q "^valid\|^test" "$TMP/other_eval.log"; then
  echo "evaluate scored a checkpoint of another catalogue"; exit 1
fi
# A model flag no model takes exits 2 naming the flag, never aborts.
for bad in "--model Nope:--model" "--alpha 1.5:--alpha" "--gamma 2:--gamma" \
    "--gamma 1.5:--gamma" "--model SASRec --hidden 30 --heads 4:--hidden" \
    "--max-len 0:--max-len" "--model Caser --max-len 3:--max-len"; do
  rc=0
  "$CLI" train --data "$TMP/data.txt" --epochs 1 ${bad%%:*} \
      >/dev/null 2>"$TMP/bad_model.err" || rc=$?
  [ "$rc" = 2 ] || { echo "expected train ${bad%%:*} to exit 2, got $rc"; exit 1; }
  grep -q "^invalid ${bad##*:}: " "$TMP/bad_model.err" || { echo "train ${bad%%:*} did not name ${bad##*:}"; cat "$TMP/bad_model.err"; exit 1; }
done
# Fault tolerance: an interrupted run resumed from its snapshot must end
# with exactly the metrics and the checkpoint bytes of an uninterrupted run
# of the same length.
"$CLI" train --data "$TMP/data.txt" --epochs 4 --save "$TMP/full.ckpt" \
    > "$TMP/full.log"
FULL_LINE=$(grep '^test' "$TMP/full.log" | tr -s ' ')
"$CLI" train --data "$TMP/data.txt" --epochs 2 \
    --checkpoint-dir "$TMP/ckpts" --checkpoint-every 1 > /dev/null
[ -f "$TMP/ckpts/train_state.slt" ] || { echo "no snapshot written"; exit 1; }
[ -f "$TMP/ckpts/best_model.ckpt" ] || { echo "no best model written"; exit 1; }
"$CLI" train --data "$TMP/data.txt" --epochs 4 --save "$TMP/resume.ckpt" \
    --checkpoint-dir "$TMP/ckpts" --resume "$TMP/ckpts" > "$TMP/resume.log"
grep -q "resumed from" "$TMP/resume.log"
RESUME_LINE=$(grep '^test' "$TMP/resume.log" | tr -s ' ')
[ "$FULL_LINE" = "$RESUME_LINE" ] || { echo "resume metric mismatch:"; echo "$FULL_LINE"; echo "$RESUME_LINE"; exit 1; }
cmp "$TMP/full.ckpt" "$TMP/resume.ckpt" || { echo "resumed checkpoint differs"; exit 1; }
# Resuming from a directory with no snapshot must fail cleanly.
if "$CLI" train --data "$TMP/data.txt" --epochs 2 \
    --resume "$TMP/empty_ckpts" 2>/dev/null >/dev/null; then
  echo "expected resume from missing snapshot to fail"; exit 1
fi
# Serving: the model server answers traffic from the trained checkpoint.
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    > "$TMP/serve.log"
grep -q "health: serving" "$TMP/serve.log"
grep -q "requests ok 8" "$TMP/serve.log"
# Hot reload halfway through traffic must install and keep serving.
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --reload "$TMP/m.ckpt" > "$TMP/serve_reload.log"
grep -q "installed" "$TMP/serve_reload.log"
grep -q "requests ok 8" "$TMP/serve_reload.log"
# Observability: --metrics-out writes JSONL with self-describing lines.
"$CLI" train --data "$TMP/data.txt" --epochs 2 \
    --metrics-out "$TMP/train_metrics.jsonl" > /dev/null
[ -s "$TMP/train_metrics.jsonl" ] || { echo "no train metrics"; exit 1; }
grep -q '^{"type":"epoch"' "$TMP/train_metrics.jsonl"
grep -q '"type":"fit_summary"' "$TMP/train_metrics.jsonl"
grep -q '"type":"counter","name":"compute.regions"' "$TMP/train_metrics.jsonl"
# Every line is a JSON object with a leading type field.
if grep -vq '^{"type":"' "$TMP/train_metrics.jsonl"; then
  echo "malformed train metrics line"; exit 1
fi
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --metrics-out "$TMP/serve_metrics.jsonl" > "$TMP/serve_obs.log"
grep -q "requests ok 8" "$TMP/serve_obs.log"
grep -q '"type":"counter","name":"serving.requests","value":8' \
    "$TMP/serve_metrics.jsonl"
grep -q '"type":"histogram","name":"serving.request_nanos"' \
    "$TMP/serve_metrics.jsonl"
grep -q '"type":"trace"' "$TMP/serve_metrics.jsonl"
grep -q '"type":"gauge","name":"serving.health","value":1' \
    "$TMP/serve_metrics.jsonl"
if grep -vq '^{"type":"' "$TMP/serve_metrics.jsonl"; then
  echo "malformed serve metrics line"; exit 1
fi
# Cluster mode: --shards boots a replicated fleet behind the same flag
# surface; --reload becomes a rolling per-shard reload.
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --shards 3 --replication 2 --reload "$TMP/m.ckpt" \
    --metrics-out "$TMP/cluster_metrics.jsonl" > "$TMP/serve_cluster.log"
grep -q "cluster health: serving (3 shards, replication 2)" \
    "$TMP/serve_cluster.log"
grep -q "rolling reload .* installed on all shards" "$TMP/serve_cluster.log"
grep -q "requests ok 8" "$TMP/serve_cluster.log"
grep -q '"type":"counter","name":"cluster.requests","value":8' \
    "$TMP/cluster_metrics.jsonl"
grep -q '"type":"gauge","name":"cluster.health","value":0' \
    "$TMP/cluster_metrics.jsonl"
# Each serve mode takes only the flags it reads: one server has no
# replicas, read repair needs a cluster with a state dir, and
# --repair-on-restore is gone (no CLI path restores a shard).
rc=0
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 2 \
    --replication 3 >/dev/null 2>"$TMP/badmode.err" || rc=$?
[ "$rc" = 2 ] || { echo "expected one-server --replication to exit 2, got $rc"; exit 1; }
grep -q "flag --replication is not read by serve on one server without --state-dir (valid: --threads" \
    "$TMP/badmode.err"
rc=0
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 2 \
    --shards 2 --read-repair 1 >/dev/null 2>"$TMP/badmode.err" || rc=$?
[ "$rc" = 2 ] || { echo "expected --read-repair without --state-dir to exit 2, got $rc"; exit 1; }
grep -q "flag --read-repair is not read by serve --shards N without --state-dir" \
    "$TMP/badmode.err"
rc=0
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 2 \
    --shards 2 --repair-on-restore 1 >/dev/null 2>"$TMP/badmode.err" || rc=$?
[ "$rc" = 2 ] || { echo "expected --repair-on-restore to exit 2, got $rc"; exit 1; }
grep -q "unknown flag --repair-on-restore for serve" "$TMP/badmode.err"
# Invalid --threads values must be rejected up front, not crash or hang.
for bad in 0 -3 abc 99999; do
  if "$CLI" stats --data "$TMP/data.txt" --threads "$bad" 2>/dev/null; then
    echo "expected --threads $bad to fail"; exit 1
  fi
done
# Kernel backend selection: explicit scalar works everywhere, auto resolves
# to a concrete tier, and unknown names are rejected naming the valid set.
"$CLI" evaluate --data "$TMP/data.txt" --load "$TMP/m.ckpt" \
    --kernel-backend scalar > "$TMP/backend_scalar.log"
grep -q "kernel backend: scalar" "$TMP/backend_scalar.log"
"$CLI" evaluate --data "$TMP/data.txt" --load "$TMP/m.ckpt" \
    --kernel-backend auto > "$TMP/backend_auto.log"
grep -Eq "kernel backend: (scalar|simd)" "$TMP/backend_auto.log"
# On hosts without AVX2 (simulated by the SLIME_DISABLE_AVX2 kill switch)
# auto must fall back to scalar and an explicit simd request must fail.
SLIME_DISABLE_AVX2=1 "$CLI" evaluate --data "$TMP/data.txt" \
    --load "$TMP/m.ckpt" --kernel-backend auto > "$TMP/backend_fb.log"
grep -q "kernel backend: scalar" "$TMP/backend_fb.log"
if SLIME_DISABLE_AVX2=1 "$CLI" evaluate --data "$TMP/data.txt" \
    --load "$TMP/m.ckpt" --kernel-backend simd 2>/dev/null >/dev/null; then
  echo "expected simd on a non-AVX2 host to fail"; exit 1
fi
# The environment variable selects the backend when no flag is given.
SLIME_KERNEL_BACKEND=scalar "$CLI" evaluate --data "$TMP/data.txt" \
    --load "$TMP/m.ckpt" > "$TMP/backend_env.log"
grep -q "kernel backend: scalar" "$TMP/backend_env.log"
if "$CLI" stats --data "$TMP/data.txt" --kernel-backend neon \
    2>"$TMP/badbackend.err"; then
  echo "expected unknown kernel backend to fail"; exit 1
fi
grep -q "valid: auto, scalar, simd" "$TMP/badbackend.err"
# Validated ingestion: a corrupt dataset fails under the default strict
# policy naming the offending line, loads under --data-policy repair, and
# --quarantine-out captures the damage as JSONL.
cp "$TMP/data.txt" "$TMP/corrupt.txt"
printf '3 oops 5\n' >> "$TMP/corrupt.txt"
if "$CLI" stats --data "$TMP/corrupt.txt" 2>"$TMP/strict.err"; then
  echo "expected strict load of corrupt data to fail"; exit 1
fi
grep -q "non-numeric token at line" "$TMP/strict.err"
"$CLI" stats --data "$TMP/corrupt.txt" --data-policy repair \
    --quarantine-out "$TMP/quarantine.jsonl" > "$TMP/repair.log"
grep -q users "$TMP/repair.log"
grep -q "quarantined" "$TMP/repair.log"
grep -q '"type":"quarantine_summary"' "$TMP/quarantine.jsonl"
grep -q '"non_numeric_token":1' "$TMP/quarantine.jsonl"
grep -q '"token":"oops"' "$TMP/quarantine.jsonl"
if grep -vq '^{"type":"' "$TMP/quarantine.jsonl"; then
  echo "malformed quarantine line"; exit 1
fi
# An unknown policy is rejected up front.
if "$CLI" stats --data "$TMP/data.txt" --data-policy lenient 2>/dev/null; then
  echo "expected unknown data policy to fail"; exit 1
fi
# Durable streaming state: append-events persists an event log that a
# second invocation recovers from disk.
printf '1 11 12 13\n2 21 22\n' > "$TMP/events.txt"
"$CLI" append-events --state-dir "$TMP/state" --events "$TMP/events.txt" \
    --compact 1 > "$TMP/append.log"
grep -q "state recovered: 0 record(s) replayed" "$TMP/append.log"
grep -q "appended 2 event(s) (5 item(s)); 2 user(s), last_seq 2" \
    "$TMP/append.log"
grep -q "compacted: snapshot covers 2 user(s)" "$TMP/append.log"
printf '1 14\n' > "$TMP/events2.txt"
"$CLI" append-events --state-dir "$TMP/state" --events "$TMP/events2.txt" \
    > "$TMP/append2.log"
grep -q "2 user(s), sync group" "$TMP/append2.log"
grep -q "last_seq 3" "$TMP/append2.log"
# A torn WAL tail (garbage appended to the log) is detected, truncated and
# accounted during recovery — never served.
printf 'garbage-tail' >> "$TMP/state/state.wal"
"$CLI" append-events --state-dir "$TMP/state" --events "$TMP/events2.txt" \
    > "$TMP/append3.log"
grep -q "torn tail repaired" "$TMP/append3.log"
# Serving with --state-dir streams session traffic through the store and
# compacts on shutdown; a rerun recovers the users from the snapshot.
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --state-dir "$TMP/serve_state" --state-sync always > "$TMP/serve_state.log"
grep -q "state recovered: 0 record(s) replayed" "$TMP/serve_state.log"
grep -q "compaction ok" "$TMP/serve_state.log"
grep -q "requests ok 8" "$TMP/serve_state.log"
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --state-dir "$TMP/serve_state" > "$TMP/serve_state2.log"
grep -q "8 user(s), sync group" "$TMP/serve_state2.log"
grep -q "requests ok 8" "$TMP/serve_state2.log"
# Cluster mode shards the store: one directory per shard, replicated appends.
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --shards 2 --state-dir "$TMP/cluster_state" > "$TMP/serve_cstate.log"
grep -q "state shard 0 recovered" "$TMP/serve_cstate.log"
grep -q "state shard 1 recovered" "$TMP/serve_cstate.log"
grep -q "replicated append(s) across 2 shard store(s)" "$TMP/serve_cstate.log"
[ -f "$TMP/cluster_state/shard_0/state.wal" ] || { echo "no shard 0 wal"; exit 1; }
# Anti-entropy: --read-repair arms serve-path divergence healing; the run
# reports the anti-entropy counters (all zero on replicas that agree).
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --shards 2 --state-dir "$TMP/cluster_state" --read-repair 1 \
    > "$TMP/serve_ae.log"
grep -q "anti-entropy: 0 underreplicated append(s), 0 hint(s) queued" \
    "$TMP/serve_ae.log"
grep -q "requests ok 8" "$TMP/serve_ae.log"
# Offline repair: plant divergence by appending one extra event into shard
# 0's store only, then the `repair` sweep back-fills the lagging replica
# through the durable append path and a second sweep is a no-op.
printf '1 99\n' > "$TMP/diverge.txt"
"$CLI" append-events --state-dir "$TMP/cluster_state/shard_0" \
    --events "$TMP/diverge.txt" > /dev/null
"$CLI" repair --state-dir "$TMP/cluster_state" --shards 2 > "$TMP/repair1.log"
grep -q "1 repaired, 1 item(s) transferred, 0 conflict(s)" "$TMP/repair1.log"
"$CLI" repair --state-dir "$TMP/cluster_state" --shards 2 > "$TMP/repair2.log"
grep -q "0 repaired, 0 item(s) transferred, 0 conflict(s)" "$TMP/repair2.log"
# With 2 shards every segment's replicas are {0, 1}, so the sweep above
# cannot tell one ring from another. With 3 shards it can: user 0's
# replicas on serve's ring are shards {0, 1}, so an event planted on
# shard 1 must move exactly one item to shard 0. A repair that rebuilt a
# different ring (another seed or vnode count) would pair user 0 with
# another shard or another segment count and report something else.
"$CLI" serve --data "$TMP/data.txt" --load "$TMP/m.ckpt" --requests 8 \
    --shards 3 --state-dir "$TMP/cluster3_state" > "$TMP/serve_c3.log"
grep -q "state: 8 replicated append(s) across 3 shard store(s)" \
    "$TMP/serve_c3.log"
printf '0 99\n' > "$TMP/diverge3.txt"
"$CLI" append-events --state-dir "$TMP/cluster3_state/shard_1" \
    --events "$TMP/diverge3.txt" > /dev/null
"$CLI" repair --state-dir "$TMP/cluster3_state" --shards 3 \
    > "$TMP/repair3a.log"
grep -q "48 segment(s) swept (1 diverged)" "$TMP/repair3a.log"
grep -q "1 repaired, 1 item(s) transferred, 0 conflict(s)" "$TMP/repair3a.log"
"$CLI" repair --state-dir "$TMP/cluster3_state" --shards 3 \
    > "$TMP/repair3b.log"
grep -q "0 repaired, 0 item(s) transferred, 0 conflict(s)" "$TMP/repair3b.log"
# Each subcommand takes only the flags it reads: a retired ring flag and a
# misspelt one exit 2 naming the valid set instead of being ignored.
rc=0
"$CLI" repair --state-dir "$TMP/cluster3_state" --shards 3 --vnodes 8 \
    >/dev/null 2>"$TMP/badflag.err" || rc=$?
[ "$rc" = 2 ] || { echo "expected repair --vnodes to exit 2, got $rc"; exit 1; }
grep -q "unknown flag --vnodes for repair (valid: --threads" "$TMP/badflag.err"
rc=0
"$CLI" train --data "$TMP/data.txt" --epoch 1 >/dev/null 2>&1 || rc=$?
[ "$rc" = 2 ] || { echo "expected train --epoch to exit 2, got $rc"; exit 1; }
# A single-shard fleet has nothing to repair against; reject up front.
if "$CLI" repair --state-dir "$TMP/cluster_state" --shards 1 2>/dev/null; then
  echo "expected repair with --shards 1 to fail"; exit 1
fi
# An unknown sync mode is rejected up front naming the valid set.
if "$CLI" append-events --state-dir "$TMP/state" --events "$TMP/events.txt" \
    --state-sync sometimes 2>"$TMP/badsync.err"; then
  echo "expected unknown state sync mode to fail"; exit 1
fi
grep -q "valid: always, group, none" "$TMP/badsync.err"
# Error paths: bad preset and missing file must fail cleanly.
if "$CLI" generate --preset not-a-preset --out "$TMP/x.txt" 2>/dev/null; then
  echo "expected bad preset to fail"; exit 1
fi
if "$CLI" stats --data /nonexistent/file.txt 2>/dev/null; then
  echo "expected missing file to fail"; exit 1
fi
echo "cli_test OK"
