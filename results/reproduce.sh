#!/bin/sh
# Regenerate every table and figure at paper scale: one `<id>.txt` (stdout)
# and `<id>.err` (progress log) per figure id of `repro --list`. The
# analytic figures (fig1, fig3) print no progress, so they get no .err file.
cd "$(dirname "$0")/.." || exit 1
cargo build --release -q -p experiments --bin repro || exit 1
R=./target/release/repro
status=0
for id in $($R --list); do
    case "$id" in
        fig1|fig3) $R --figure "$id" > "results/$id.txt" ;;
        *) $R --figure "$id" > "results/$id.txt" 2> "results/$id.err" ;;
    esac || { echo "$id: shape checks failed"; status=1; }
done
echo ALL_DONE
exit $status
