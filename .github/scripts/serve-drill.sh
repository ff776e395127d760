# Bash client for a live `amjs serve` daemon, sourced by the CI drills
# (serve-recovery, serve-failover, serve-soak): framed requests over
# /dev/tcp, the scripted load, and a fingerprint of the visible state.

ask() {  # ask <port> <command>: one framed request/reply
  exec 3<>"/dev/tcp/127.0.0.1/$1"
  printf '%d:%s\n' "${#2}" "$2" >&3
  IFS= read -r reply <&3
  exec 3<&- 3>&-
  printf '%s\n' "$reply"
}
wait_port() {  # wait_port <stderr-log>: echo the announced port
  for _ in $(seq 1 100); do
    addr=$(grep -oE 'listening on [0-9.:]+' "$1" | head -1 | awk '{print $3}') || true
    [ -n "${addr:-}" ] && break
    sleep 0.1
  done
  test -n "${addr:-}"
  echo "${addr##*:}"
}
SCRIPT='SUBMIT NODES=32 WALL=7200 RUN=3600 USER=1
SUBMIT NODES=32 WALL=7200 RUN=3600 USER=2
SUBMIT NODES=32 WALL=7200 USER=3
ADVANCE 1800
SUBMIT NODES=16 WALL=3600 RUN=1800 USER=4
CANCEL 2
ADVANCE 1800
SUBMIT NODES=64 WALL=3600 USER=5
ADVANCE 60'
drive() {  # drive <port>: run the script, insisting every command is acked
  echo "$SCRIPT" | while IFS= read -r cmd; do
    cmd=$(echo "$cmd" | sed 's/^ *//')
    reply=$(ask "$1" "$cmd")
    case "$reply" in
      *"OK "*) ;;
      *) echo "command not acknowledged: $cmd -> $reply"; exit 1 ;;
    esac
  done
}
observe() {  # observe <port> <outfile>: fingerprint visible state
  # Jobs 0-1 are done, 2 canceled, 3 running, 4 queued behind it: its
  # what-ifs are answered from a fork, the others from STATUS.
  { ask "$1" HASH
    for id in 0 1 2 3 4; do
      ask "$1" "STATUS $id"
      ask "$1" "WHATIF $id"
      ask "$1" "WHATIF $id BF=0.9 W=4 HORIZON=86400"
    done
    ask "$1" STATS
  } > "$2"
}
churn() {  # churn <port> <n>: n more acknowledged mutations, a clock step every fourth
  for i in $(seq 1 "$2"); do
    if [ $((i % 4)) -eq 0 ]; then cmd='ADVANCE 300'; else cmd="SUBMIT NODES=8 WALL=1800 RUN=600 USER=$i"; fi
    ask "$1" "$cmd" | grep -q ':OK ' || { echo "command not acknowledged: $cmd"; exit 1; }
  done
}
rotated_head() {  # rotated_head <dir> <resume-log>: resumed off a rotated head; heads stay heads
  # Recovery took a head past genesis, so it decoded it with its column
  # log prefix; and after any number of mutations the newest snapshot
  # file is still the bounded head, not the run's history.
  grep -E 'recovered snapshot .*snapshot-0*[1-9][0-9]*\.snap' "$2"
  newest=$(ls "$1"/snapshot-*.snap | sort | tail -1)
  size=$(stat -c %s "$newest")
  echo "$newest: $size bytes"
  test "$size" -lt 65536
}
