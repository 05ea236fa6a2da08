#!/bin/sh
# `nova client encode -a random` parses -a as `nova encode` does: a bare
# random is random[0], encode's default --seed, so the served payload is
# the one-shot stdout byte for byte. An unknown name is a usage error
# (124) before any connection is made.
# Usage: client_random.sh NOVA
set -u
NOVA=$1
SOCK=client-random.sock
"$NOVA" serve --socket "$SOCK" --no-cache --quiet &
PID=$!
trap 'kill $PID 2>/dev/null' EXIT
up=0
for _ in $(seq 1 200); do
  if "$NOVA" client ping --socket "$SOCK" > /dev/null 2>&1; then up=1; break; fi
  sleep 0.05
done
[ "$up" -eq 1 ] || { echo "serve did not come up"; exit 1; }
"$NOVA" client encode -a random lion --socket "$SOCK" > served.txt \
  || { echo "client encode -a random exited $?"; exit 1; }
"$NOVA" encode -a random lion > oneshot.txt 2> /dev/null
cmp oneshot.txt served.txt || { echo "served random payload differs from nova encode"; exit 1; }
rc=0; "$NOVA" client encode -a no-such-algorithm lion --socket "$SOCK" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 124 ] || { echo "unknown algorithm: expected exit 124, got $rc"; exit 1; }
"$NOVA" client shutdown --socket "$SOCK" > /dev/null
wait $PID
