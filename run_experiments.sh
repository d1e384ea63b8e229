#!/bin/bash
# Regenerate every table and figure at the quick profile, logging to results/logs/.
# Build first: cargo build --release -p ts3-bench
cd "$(dirname "$0")"
set -x
mkdir -p results/logs
for name in table2 table3 fig5 table4 table5 table6 table7 table8 table9 fig3 fig4; do
  ./target/release/ts3 "$name" > "results/logs/$name.log" 2>&1
  echo "DONE $name $(date +%H:%M:%S)"
done
echo "ALL EXPERIMENTS DONE"
