#!/usr/bin/env bash
# cluster-smoke: end-to-end gate for the multi-process deployment path.
#
# Phase 1 — correctness: a 4-process acenode cluster on loopback runs
# em3d and every rank's checksum must equal the in-process (-standalone)
# run of the same workload, bit for bit.
#
# Phase 2 — failure detection: 3 processes park in a barrier while a
# 4th joins and hangs; the 4th is SIGKILLed and every survivor must
# exit with code 3 (ErrPeerLost) within the detector bound.
#
# Phase 3 — elastic rejoin: a 4-process cluster runs em3d with
# checkpoints (-ckpt); one member is SIGKILLed after it has a checkpoint
# on disk and restarted as a rejoiner at the next epoch. Every process
# (including the rejoined one) must exit 0 with the bit-identical em3d
# checksum of the undisturbed standalone run, and the restart must log
# that it resumed from its checkpoint rather than from step 0.
set -u

GO=${GO:-go}
WORK=$(mktemp -d /tmp/cluster-smoke.XXXXXX)
trap 'kill $(jobs -p) 2>/dev/null; rm -rf "$WORK"' EXIT
PORT=$((18000 + RANDOM % 2000))
SEED="127.0.0.1:$PORT"

fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

$GO build -o "$WORK/acenode" ./cmd/acenode || fail "build"

echo "cluster-smoke: reference (in-process) em3d run"
REF=$("$WORK/acenode" -standalone -nodes 4 | awk '/checksum/ {print $4; exit}')
[ -n "$REF" ] || fail "no reference checksum"

echo "cluster-smoke: 4-process em3d run (gossip seed $SEED)"
"$WORK/acenode" -nodes 4 -local 1 -seeds "$SEED" >"$WORK/n1.log" 2>&1 &
"$WORK/acenode" -nodes 4 -local 2 -seeds "$SEED" >"$WORK/n2.log" 2>&1 &
"$WORK/acenode" -nodes 4 -local 3 -seeds "$SEED" >"$WORK/n3.log" 2>&1 &
"$WORK/acenode" -nodes 4 -local 0 -gossip "$SEED" >"$WORK/n0.log" 2>&1 &
for job in $(jobs -p); do
    wait "$job" || { cat "$WORK"/n*.log >&2; fail "an acenode process failed"; }
done
for log in n0 n1 n2 n3; do
    GOT=$(awk '/checksum/ {print $4}' "$WORK/$log.log")
    [ "$GOT" = "$REF" ] || fail "checksum mismatch on $log: cluster '$GOT' vs in-process $REF"
done
echo "cluster-smoke: checksums match on every rank ($REF)"

echo "cluster-smoke: failure-detection drill (SIGKILL one member)"
FD="-interval 30ms -suspect 300ms -dead 900ms"
PORT2=$((PORT + 1))
SEED2="127.0.0.1:$PORT2"
"$WORK/acenode" -nodes 4 -local 1 -seeds "$SEED2" $FD -run wait >"$WORK/k1.log" 2>&1 &
S1=$!
"$WORK/acenode" -nodes 4 -local 2 -seeds "$SEED2" $FD -run wait >"$WORK/k2.log" 2>&1 &
S2=$!
"$WORK/acenode" -nodes 4 -local 3 -seeds "$SEED2" $FD -run hang >"$WORK/k3.log" 2>&1 &
VICTIM=$!
"$WORK/acenode" -nodes 4 -local 0 -gossip "$SEED2" $FD -run wait >"$WORK/k0.log" 2>&1 &
S0=$!

# Wait for the victim to be a full member, then kill it without ceremony.
for _ in $(seq 1 100); do
    grep -q joined "$WORK/k3.log" 2>/dev/null && break
    sleep 0.1
done
grep -q joined "$WORK/k3.log" || { cat "$WORK"/k*.log >&2; fail "victim never joined"; }
sleep 0.5
kill -9 "$VICTIM" 2>/dev/null
START=$(date +%s)

for pid in $S0 $S1 $S2; do
    wait "$pid"
    CODE=$?
    [ "$CODE" = 3 ] || { cat "$WORK"/k*.log >&2; fail "survivor $pid exited $CODE, want 3 (ErrPeerLost)"; }
done
wait "$VICTIM" 2>/dev/null
ELAPSED=$(( $(date +%s) - START ))
# The detector bound: dead after 900ms of silence plus gossip spread;
# 10s of slack keeps the gate robust on loaded CI machines.
[ "$ELAPSED" -le 10 ] || fail "detection took ${ELAPSED}s, bound 10s"
echo "cluster-smoke: all survivors reported ErrPeerLost in ${ELAPSED}s"

echo "cluster-smoke: elastic rejoin drill (SIGKILL + rejoin at epoch 1)"
EL="-run em3d -steps 8 -size 64 -ckpt $WORK/ck -ckpt-every 2 -step-delay 150ms -interval 25ms -recover -join-timeout 20s -sync-timeout 15s"
EREF=$("$WORK/acenode" -standalone -nodes 4 -steps 8 -size 64 | awk '/checksum/ {print $4; exit}')
[ -n "$EREF" ] || fail "no elastic reference checksum"
PORT3=$((PORT + 2))
SEED3="127.0.0.1:$PORT3"
"$WORK/acenode" -nodes 4 -local 0 -gossip "$SEED3" $EL >"$WORK/e0.log" 2>&1 &
E0=$!
"$WORK/acenode" -nodes 4 -local 1 -seeds "$SEED3" $EL >"$WORK/e1.log" 2>&1 &
E1=$!
"$WORK/acenode" -nodes 4 -local 2 -seeds "$SEED3" $EL >"$WORK/e2.log" 2>&1 &
E2=$!
"$WORK/acenode" -nodes 4 -local 3 -seeds "$SEED3" $EL >"$WORK/e3.log" 2>&1 &
VICTIM=$!

# Wait until the victim has checkpointed step 2, then SIGKILL it and
# restart it as a rejoiner claiming the next epoch.
for _ in $(seq 1 200); do
    [ -e "$WORK/ck.3.2" ] && break
    sleep 0.05
done
[ -e "$WORK/ck.3.2" ] || { cat "$WORK"/e*.log >&2; fail "victim never checkpointed"; }
sleep 0.2
kill -9 "$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null
"$WORK/acenode" -nodes 4 -local 3 -seeds "$SEED3" $EL -rejoin -epoch 1 >"$WORK/e3b.log" 2>&1 &
E3B=$!

for pid in $E0 $E1 $E2 $E3B; do
    wait "$pid" || { cat "$WORK"/e*.log >&2; fail "an elastic acenode process failed"; }
done
grep -q "restored from checkpoint step=" "$WORK/e3b.log" \
    || { cat "$WORK/e3b.log" >&2; fail "rejoiner did not restore from its checkpoint"; }
# Bit-identical parity on every rank, the rejoined one included: a
# recovering process may print more than one checksum line (one per
# epoch it completed), and all of them must equal the reference.
for log in e0 e1 e2 e3b; do
    EGOT=$(awk '/checksum/ {print $4}' "$WORK/$log.log" | sort -u)
    [ "$EGOT" = "$EREF" ] || { cat "$WORK"/e*.log >&2; fail "elastic checksum mismatch on $log: '$EGOT' vs $EREF"; }
done
echo "cluster-smoke: rejoined cluster converged to the reference checksum ($EREF)"
echo "cluster-smoke: PASS"
